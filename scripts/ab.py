#!/usr/bin/env python3
"""A/B the end-to-end benchmark: a base revision against the working tree.

    python3 scripts/ab.py --base HEAD~1 --workload sim_agg_100k --pairs 10 --seconds 8

Run from anywhere inside the repository.  The base revision is exported with
`git archive` into .ab/base-<commit> (a plain directory: nothing is
registered in .git, and the export is reused by later calls), and its
perfbench/ is built there on first use.  The change side is this checkout's
working tree, uncommitted edits included.

Each pair runs perfbench/run.py once on each side with the same seed (pair i
uses seed --seed + i); the side that runs first alternates from pair to pair
so slow drift of the host hits both sides alike.  Every run's standard
output lands in <out>/base/ and <out>/new/, and perfbench/compare.py then
prints its verdicts for the two sets; its exit status is this script's.
With --trace 1 the runs are traced and compare.py prints the per-layer split
instead.  compare.py pools every run under <out>, so each call writes to a
directory of its own: a fresh .ab/results-<commit>-<time>-* by
default, or --out, which must be new or empty.  Nothing under perfbench/ is
changed.
"""

import argparse
import os
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Exported base trees and default result directories (gitignored).
WORKDIR = os.path.join(ROOT, ".ab")


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(commit):
    """Export `commit` into .ab/base-<commit> unless already there."""
    tree = os.path.join(WORKDIR, f"base-{commit[:12]}")
    if not os.path.exists(os.path.join(tree, "perfbench", "run.py")):
        os.makedirs(tree, exist_ok=True)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", commit],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout,
                       check=True)
        archive.stdout.close()
        if archive.wait() != 0:
            sys.exit(f"ab: git archive {commit} failed")
    return tree


def run(tree, workload, seed, seconds, trace, path):
    """One perfbench run in `tree`, its standard output saved to `path`."""
    command = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    # Each tree builds into its own .bench_build/: a shared absolute
    # CARGO_TARGET_DIR would make the two sides overwrite one binary.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    with open(path, "w", encoding="utf-8") as handle:
        code = subprocess.run(command, cwd=tree, stdout=handle,
                              env=env).returncode
    if code not in (0, 3):
        sys.exit(f"ab: {' '.join(command)} exited {code} (see {path})")
    return code


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True,
                        help="git revision to compare against")
    parser.add_argument("--workload", action="append", required=True,
                        help="perfbench workload; repeat for several")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair (default 1)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out",
                        help="result directory, new or empty (default: a "
                             "fresh .ab/results-<commit>-<time>-*)")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.out and os.path.isdir(args.out) and os.listdir(args.out):
        parser.error(f"--out {args.out} is not empty")

    commit = git("rev-parse", "--verify", args.base + "^{commit}")
    sides = {"base": export(commit), "new": ROOT}
    stamp = time.strftime("%Y%m%d-%H%M%S")
    out = os.path.abspath(args.out) if args.out else tempfile.mkdtemp(
        prefix=f"results-{commit[:12]}-{stamp}-", dir=WORKDIR)
    for side in sides:
        os.makedirs(os.path.join(out, side), exist_ok=True)

    failed = 0
    for workload in args.workload:
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("base", "new") if i % 2 == 0 else ("new", "base")
            for side in order:
                name = f"{workload}-s{seed}.txt"
                path = os.path.join(out, side, name)
                print(f"ab: pair {i + 1}/{args.pairs} {workload} seed {seed} "
                      f"{side}", file=sys.stderr, flush=True)
                failed += run(sides[side], workload, seed, args.seconds,
                              args.trace, path) != 0
    if failed:
        print(f"ab: {failed} run(s) failed a correctness check",
              file=sys.stderr)

    compare = os.path.join(ROOT, "perfbench", "compare.py")
    code = subprocess.run([sys.executable, compare,
                           os.path.join(out, "base"),
                           os.path.join(out, "new")]).returncode
    print(f"ab: results in {out}", file=sys.stderr)
    return code or (1 if failed else 0)


if __name__ == "__main__":
    sys.exit(main())
