#!/usr/bin/env bash
# Full pre-merge check: formatting, then regular build + tests, then a second
# build tree with AddressSanitizer and UBSan (-DEDR_SANITIZE=ON) running the
# same suite, then a ThreadSanitizer tree (-DEDR_SANITIZE=tsan) running the
# genuinely multi-threaded tests, and finally a telemetry-overhead smoke
# check: with telemetry disabled the figure pipeline must be bit-identical
# run to run (the observability layer is strictly opt-in).
#
# Usage: scripts/check.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
jobs="${1:-$(nproc)}"

echo "== clang-format (--dry-run -Werror, .clang-format) =="
if command -v clang-format >/dev/null 2>&1; then
  find src tests bench examples -name '*.cpp' -o -name '*.hpp' \
    | xargs clang-format --dry-run -Werror
  echo "clang-format: clean"
else
  echo "clang-format: not installed, skipping (style still defined by .clang-format)"
fi

echo
echo "== regular build (build/) =="
cmake -B build -S . >/dev/null
cmake --build build -j "$jobs"
ctest --test-dir build --output-on-failure -j "$jobs"

echo
echo "== sanitizer build (build-asan/, -fsanitize=address,undefined) =="
cmake -B build-asan -S . -DEDR_SANITIZE=ON >/dev/null
cmake --build build-asan -j "$jobs"
ctest --test-dir build-asan --output-on-failure -j "$jobs"

echo
echo "== thread sanitizer build (build-tsan/, -fsanitize=thread) =="
# Only the tests that actually exercise concurrency: the mailbox transport,
# the atomic metrics registry, and an in-process LocalCluster running every
# backend with one replica per thread
# (LiveCluster.AllBackendsCompleteOverInproc). Replica threads are the only
# solver parallelism, and they are why the projection scratch in
# optim/projection.cpp is thread_local; that case is its gate. The solver
# suites (SparseProjection, FusedDykstra, SparseEquivalence,
# GoldenEquivalence, Admm, Scenario) are serial; they run here so the
# code the replica threads execute is also seen under tsan instrumentation
# on its own. The rest of the suite is covered by the asan/ubsan tree.
cmake -B build-tsan -S . -DEDR_SANITIZE=tsan >/dev/null
cmake --build build-tsan -j "$jobs" \
  --target test_integration test_telemetry test_net test_common test_optim \
           test_core test_runtime
ctest --test-dir build-tsan --output-on-failure -j "$jobs" \
  -R 'AtomicModeCountsAcrossThreads|Mailbox|InprocTransport|LiveCluster.AllBackendsCompleteOverInproc|SparseProjection|FusedDykstra|SparseEquivalence|GoldenEquivalence|Admm|Scenario'

echo
echo "== telemetry overhead smoke (fig5_convergence, telemetry disabled) =="
# Without --telemetry-out the bench must not construct any telemetry at all,
# so two runs are byte-identical modulo the wall-clock timing lines that
# google-benchmark prints (filtered below). A diff here means the
# observability layer leaked into the default data path.
fig5="build/bench/fig5_convergence"
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
"$fig5" 2>/dev/null | grep -v '^BM_' > "$smoke_dir/run1.txt"
"$fig5" 2>/dev/null | grep -v '^BM_' > "$smoke_dir/run2.txt"
if ! diff -u "$smoke_dir/run1.txt" "$smoke_dir/run2.txt"; then
  echo "telemetry overhead smoke FAILED: disabled-telemetry output drifted" >&2
  exit 1
fi
echo "telemetry overhead smoke: disabled-telemetry output bit-identical"

echo
echo "== bench baseline smoke (abl_scaling --json-out, schema vs committed) =="
# Regenerate the scaling-bench metrics and compare their *schema* (metric
# names, units, algorithm keys — values blanked, they are machine-speed
# dependent) against the committed BENCH_abl_scaling.json baseline. A diff
# means a bench metric was renamed/dropped without refreshing the baseline.
bench_schema() {
  grep -o '"name":"[^"]*"\|"unit":"[^"]*"\|"algorithm":"[^"]*"' "$1" \
    | paste -d' ' - - - | sort
}
build/bench/abl_scaling "--json-out=$smoke_dir/BENCH_abl_scaling.json" \
  >/dev/null 2>&1
bench_schema "$smoke_dir/BENCH_abl_scaling.json" > "$smoke_dir/schema.new"
bench_schema BENCH_abl_scaling.json > "$smoke_dir/schema.committed"
if ! diff -u "$smoke_dir/schema.committed" "$smoke_dir/schema.new"; then
  echo "bench baseline smoke FAILED: metric schema drifted from" \
       "BENCH_abl_scaling.json — regenerate the committed baseline" >&2
  exit 1
fi
echo "bench baseline smoke: abl_scaling metric schema matches the baseline"

echo
echo "== scenario smoke (named dynamic-world scenarios + sweep schema) =="
# Two named scenarios end to end through the CLI front end: each must
# print a PASS verdict (edr_sim --scenario exits non-zero otherwise).
# Then regenerate the scenario-sweep metrics and schema-diff them against
# the committed BENCH_scenario_sweep.json baseline, exactly like the
# abl_scaling baseline above.
for scen in price-flip replica-churn; do
  build/examples/edr_sim --scenario "$scen" > "$smoke_dir/scen_$scen.txt"
  if ! grep -q '^verdict: PASS$' "$smoke_dir/scen_$scen.txt"; then
    echo "scenario smoke FAILED: $scen did not PASS:" >&2
    cat "$smoke_dir/scen_$scen.txt" >&2
    exit 1
  fi
  echo "scenario smoke: $scen PASS"
done
build/bench/scenario_sweep \
  "--json-out=$smoke_dir/BENCH_scenario_sweep.json" >/dev/null 2>&1
bench_schema "$smoke_dir/BENCH_scenario_sweep.json" > "$smoke_dir/scen.new"
bench_schema BENCH_scenario_sweep.json > "$smoke_dir/scen.committed"
if ! diff -u "$smoke_dir/scen.committed" "$smoke_dir/scen.new"; then
  echo "scenario smoke FAILED: metric schema drifted from" \
       "BENCH_scenario_sweep.json — regenerate the committed baseline" >&2
  exit 1
fi
echo "scenario smoke: sweep metric schema matches the baseline"

echo
echo "== sparse smoke (dense vs sparse vs aggregated, all six backends) =="
# The representation knob changes solver storage, never the answer: the
# non-iterative backends (central, rr, donar) must produce byte-identical
# JSON under all three representations; the iterative engines (lddm, cdpsm,
# admm) follow tolerance-level-different trajectories, so their total cost
# must agree to 2% relative. Then the 10^5-client scale test: the compact paths
# must solve a geo-local instance the dense path cannot touch, inside the
# wall budget pinned by the test itself.
sparse_cost() {
  grep -o '"total_cost_cents":[0-9.eE+-]*' "$1" | head -1 | cut -d: -f2
}
for alg in central rr donar lddm cdpsm admm; do
  for rep in dense sparse aggregated; do
    build/examples/edr_sim --algorithm "$alg" --representation "$rep" \
      --horizon 5 --json > "$smoke_dir/sparse_${alg}_${rep}.json"
  done
  case "$alg" in
    central|rr|donar)
      for rep in sparse aggregated; do
        if ! diff -q "$smoke_dir/sparse_${alg}_dense.json" \
                     "$smoke_dir/sparse_${alg}_${rep}.json" >/dev/null; then
          echo "sparse smoke FAILED: $alg output drifted under $rep" \
               "(must be byte-identical — the knob only touches the" \
               "iterative engines)" >&2
          exit 1
        fi
      done
      echo "sparse smoke: $alg byte-identical under all representations"
      ;;
    lddm|cdpsm|admm)
      dense_cost="$(sparse_cost "$smoke_dir/sparse_${alg}_dense.json")"
      for rep in sparse aggregated; do
        rep_cost="$(sparse_cost "$smoke_dir/sparse_${alg}_${rep}.json")"
        if ! awk -v a="$dense_cost" -v b="$rep_cost" \
            'BEGIN { d = a - b; if (d < 0) d = -d;
                     exit !(a > 0 && d <= 2e-2 * a) }'; then
          echo "sparse smoke FAILED: $alg cost $rep_cost under $rep vs" \
               "$dense_cost dense (beyond 2% solver tolerance)" >&2
          exit 1
        fi
      done
      echo "sparse smoke: $alg cost agrees to 2% under all representations"
      ;;
  esac
done
build/tests/test_integration --gtest_filter='SparseScale.*' \
  --gtest_brief=1 2>/dev/null \
  || { echo "sparse smoke FAILED: 10^5-client scale test" >&2; exit 1; }
echo "sparse smoke: 10^5-client geo instance solved inside the wall budget"

echo
echo "== perfbench correctness smoke (sim_agg_100k + replay, live_dense_1k) =="
# The end-to-end benchmark's correctness checks, not its timings (nothing
# here compares a number against a bound). perfbench exits 3 when a check
# fails: served + dropped must cover the trace, repeated runs must agree,
# live replica digests must agree and allocations stay feasible, and with
# --trace 1 the per-layer replay must solve the same rounds as the
# end-to-end run. The first run builds perfbench/ into .bench_build/.
for spec in "sim_agg_100k 1" "live_dense_1k 0"; do
  read -r workload trace <<< "$spec"
  if ! python3 perfbench/run.py --workload "$workload" --seed 1 \
      --seconds 3 --trace "$trace" > "$smoke_dir/perf_$workload.txt"; then
    echo "perfbench smoke FAILED: $workload" >&2
    grep '^# CHECK FAILED' "$smoke_dir/perf_$workload.txt" >&2 || true
    exit 1
  fi
  echo "perfbench smoke: $workload correctness checks pass"
done

echo
echo "== live smoke (edr_live --spawn vs edr_sim --transport inproc) =="
# Boot 4 real replica processes + the coordinator over localhost TCP for
# lddm and cdpsm, then re-run the identical schedule over the in-process
# threaded transport and compare the per-epoch allocation digests and
# objectives. The live runtime is deterministic replication of the same
# algorithm over the same inputs, so the tolerance is exact equality.
live_fields() {
  grep -o '"digest":[0-9]*\|"objective":[^,}]*' "$1"
}
for alg in lddm cdpsm; do
  build/examples/edr_live --spawn --algorithm "$alg" --replicas 4 \
    --clients 8 --epochs 3 --json > "$smoke_dir/live_$alg.json" \
    2>/dev/null
  build/examples/edr_sim --transport inproc --algorithm "$alg" \
    --replicas 4 --clients 8 --horizon 3 --json \
    > "$smoke_dir/inproc_$alg.json"
  live_fields "$smoke_dir/live_$alg.json" > "$smoke_dir/live_$alg.fields"
  live_fields "$smoke_dir/inproc_$alg.json" > "$smoke_dir/inproc_$alg.fields"
  if ! diff -u "$smoke_dir/inproc_$alg.fields" "$smoke_dir/live_$alg.fields"
  then
    echo "live smoke FAILED: $alg allocations diverged between real" \
         "processes and the in-process transport" >&2
    exit 1
  fi
  echo "live smoke: $alg real-process run matches the in-process run"
done

echo
echo "== chaos smoke (kill -9 one replica, SLO alert fires and clears) =="
# SIGKILL replica 3 right before epoch 2 of a 6-epoch real-process run.
# The run must still complete with agreeing digests (edr_live exits 0),
# the monitor must raise an SLO alert for the fault epoch, and the quiet
# tail (final epoch) must raise none.
build/examples/edr_live --spawn --algorithm lddm --replicas 4 --clients 8 \
  --epochs 6 --kill-epoch 2 --kill-replica 3 --slo-ms 50 --json \
  > "$smoke_dir/chaos.json" 2>/dev/null
# Pull the alerts array itself — the report carries more sections
# (timeline, transport) after it that also mention epoch numbers.
alerts="$(python3 -c 'import json, sys
print(json.dumps(json.load(open(sys.argv[1])).get("alerts", []),
    separators=(",", ":")))' \
  "$smoke_dir/chaos.json")"
if ! grep -q '"kind":"slo"' <<< "$alerts"; then
  echo "chaos smoke FAILED: no SLO alert after kill -9 of replica 3" >&2
  exit 1
fi
if grep -q '"epoch":5' <<< "$alerts"; then
  echo "chaos smoke FAILED: alert in the post-fault tail (epoch 5) —" \
       "the survivors did not settle" >&2
  exit 1
fi
echo "chaos smoke: survivors re-converged, SLO alert fired and cleared"
echo "chaos scenario suite (bench/chaos_suite, localhost TCP):"
build/bench/chaos_suite "--postmortem-dir=$smoke_dir/pm" 2>/dev/null \
  | grep -v '^BM_'
python3 scripts/check_obs.py postmortem "$smoke_dir/pm/kill.postmortem.json"

echo
echo "== observability smoke (merged trace, live scrape, digest parity) =="
# One traced chaos run: kill -9 a replica mid-schedule while (a) the
# coordinator serves /metrics, scraped mid-run by the Python checker, and
# (b) every process records spans that must merge into one Chrome trace
# with >= 3 process tracks and cross-process flow arrows, and (c) the
# post-mortem timeline must show fault -> mark_dead -> generation ->
# re-convergence in causal order.
obs_port="$(python3 -c 'import socket; s = socket.socket()
s.bind(("127.0.0.1", 0)); print(s.getsockname()[1]); s.close()')"
build/examples/edr_live --spawn --algorithm lddm --replicas 3 --clients 6 \
  --epochs 5 --kill-epoch 2 --kill-replica 1 --slo-ms 50 \
  --trace --telemetry-out "$smoke_dir/obs_trace.json" \
  --postmortem-out "$smoke_dir/obs_pm.json" --metrics-port "$obs_port" \
  --json > "$smoke_dir/obs_run.json" 2>/dev/null &
obs_pid=$!
python3 scripts/check_obs.py scrape "$obs_port" \
  || { kill "$obs_pid" 2>/dev/null; \
       echo "observability smoke FAILED: mid-run scrape" >&2; exit 1; }
wait "$obs_pid" \
  || { echo "observability smoke FAILED: traced chaos run" >&2; exit 1; }
python3 scripts/check_obs.py trace "$smoke_dir/obs_trace.json" --min-tracks 3
python3 scripts/check_obs.py postmortem "$smoke_dir/obs_pm.json"
# Digest parity: observability must not perturb the replicated computation.
# The same schedule dark vs fully traced must agree digest for digest.
build/examples/edr_live --spawn --algorithm lddm --replicas 3 --clients 6 \
  --epochs 3 --json > "$smoke_dir/obs_off.json" 2>/dev/null
build/examples/edr_live --spawn --algorithm lddm --replicas 3 --clients 6 \
  --epochs 3 --trace --json > "$smoke_dir/obs_on.json" 2>/dev/null
live_fields "$smoke_dir/obs_off.json" > "$smoke_dir/obs_off.fields"
live_fields "$smoke_dir/obs_on.json" > "$smoke_dir/obs_on.fields"
if ! diff -u "$smoke_dir/obs_off.fields" "$smoke_dir/obs_on.fields"; then
  echo "observability smoke FAILED: tracing changed the per-epoch" \
       "digests/objectives — the observer leaked into the computation" >&2
  exit 1
fi
echo "observability smoke: digests identical with tracing on and off"

echo
echo "check.sh: all suites passed (regular + asan/ubsan + tsan + smoke + scenario + sparse + perfbench + live + observability)"
