#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark results (standard library only).

    python3 perfbench/compare.py BASE NEW
    python3 perfbench/compare.py BASE            # summarize one set

BASE and NEW are files or directories of files holding the standard output
of perfbench/run.py; every "BENCH_RECORD" line in them is one run.  For each
workload and metric it prints the median and quartiles of each set and, for
the end-to-end metrics, a verdict against the bounds in BENCHMARK.json:

  worse       NEW's median is worse than BASE's by more than the bound;
  better      NEW wins at least 9/10 of all (NEW, BASE) run pairs and the
              medians differ by more than BASE's interquartile distance;
  same        neither, with both sets' spreads within the bound;
  unresolved  a set's spread (IQR / median) exceeds the bound, and not every
              NEW run beats (or loses to) every BASE run.

End-to-end figures come from untraced runs (trace 0), per-layer figures
from traced runs (trace 1); per-layer metrics have no bound and get no
verdict.  Exits 1 when any verdict is "worse".
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_records(path):
    files = []
    if os.path.isdir(path):
        for base, _, names in os.walk(path):
            files += [os.path.join(base, name) for name in sorted(names)]
    else:
        files.append(path)
    records = []
    for name in sorted(files):
        with open(name, encoding="utf-8", errors="replace") as handle:
            for line in handle:
                if line.startswith("BENCH_RECORD "):
                    records.append(json.loads(line[len("BENCH_RECORD "):]))
    return records


def group(records):
    """{workload: {"end_to_end": {metric: [values]}, "per_layer": {...}}}"""
    out = {}
    for record in records:
        slot = out.setdefault(
            record["workload"],
            {"end_to_end": {}, "per_layer": {}, "hosts": set()})
        slot["hosts"].add(json.dumps(record.get("host", {}), sort_keys=True))
        if "host_clock_ghz" in record.get("info", {}):
            slot.setdefault("clock", []).append(
                record["info"]["host_clock_ghz"]["value"])
        kinds = ["per_layer"] if record.get("trace") else ["end_to_end"]
        for kind in kinds:
            for name, metric in record.get(kind, {}).items():
                slot[kind].setdefault(name, []).append(metric["value"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(base, new, bound, lower_is_better):
    sign = 1.0 if lower_is_better else -1.0
    _, base_median, _ = quartiles(base)
    _, new_median, _ = quartiles(new)
    wins = sum(1 for n in new for b in base if sign * (b - n) > 0)
    all_better = wins == len(new) * len(base)
    all_worse = all(sign * (n - b) > 0 for n in new for b in base)
    if spread(base) > bound or spread(new) > bound:
        if all_better:
            return "better"
        return "worse" if all_worse else "unresolved"
    worse_by = sign * (new_median - base_median) / abs(base_median)
    if worse_by > bound:
        return "worse"
    q1, _, q3 = quartiles(base)
    if (wins >= 0.9 * len(new) * len(base)
            and sign * (base_median - new_median) > q3 - q1):
        return "better"
    return "same"


def fmt(values):
    q1, median, q3 = quartiles(values)
    return f"{median:14.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("new", nargs="?")
    parser.add_argument("--benchmark",
                        default=os.path.join(HERE, "..", "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.benchmark, encoding="utf-8") as handle:
        bench = json.load(handle)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    sets = [group(load_records(args.base))]
    if args.new:
        sets.append(group(load_records(args.new)))
    if not sets[0]:
        print(f"compare: no BENCH_RECORD lines under {args.base}",
              file=sys.stderr)
        return 2

    regressions = 0
    for workload in sorted(set().union(*sets)):
        print(f"== {workload}")
        for label, data in zip(("base", "new"), sets):
            for host in sorted(data.get(workload, {}).get("hosts", ())):
                print(f"   {label} host {host}")
            clock = data.get(workload, {}).get("clock")
            if clock:
                print(f"   {label} host core clock GHz {fmt(clock)}")
        for kind in ("end_to_end", "per_layer"):
            names = [n for n in specs if any(
                n in data.get(workload, {}).get(kind, {}) for data in sets)]
            for name in names:
                spec = specs[name]
                columns = [data.get(workload, {}).get(kind, {}).get(name)
                           for data in sets]
                cells = [fmt(c) if c else f"{'-':>14}" for c in columns]
                line = f"   {name:30s} {spec['unit']:7s} " + "  ".join(cells)
                if kind == "end_to_end" and len(sets) == 2 and all(columns):
                    _, base_median, _ = quartiles(columns[0])
                    _, new_median, _ = quartiles(columns[1])
                    delta = ((new_median - base_median) / abs(base_median)
                             if base_median else float("nan"))
                    result = verdict(columns[0], columns[1], spec["bound"],
                                     spec["better"] == "lower")
                    regressions += result == "worse"
                    line += f"  {delta:+.2%} {result} (bound {spec['bound']})"
                print(line)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
