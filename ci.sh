#!/usr/bin/env bash
# CI entry point: build both presets (plain + ASan/UBSan) and run the full
# test suite under each.  Any warning is an error (PGRID_WERROR=ON); any
# sanitizer finding aborts the run (-fno-sanitize-recover=all).
set -euo pipefail
cd "$(dirname "$0")"

JOBS="$(nproc 2>/dev/null || echo 4)"

for preset in default asan-ubsan; do
  echo "=== configure: ${preset} ==="
  cmake --preset "${preset}"
  echo "=== build: ${preset} ==="
  cmake --build --preset "${preset}" -j "${JOBS}"
  echo "=== test: ${preset} (heavy sweeps) ==="
  # The suites are labelled by weight (tests/CMakeLists.txt): `heavy` marks
  # the deployment-scale chaos/load/property sweeps that dominate the wall
  # clock — an order of magnitude more so under the sanitizers.  Running
  # them as their own stage (COST-ordered, widest first) keeps the longest
  # test off the tail of the run and surfaces sweep failures before the
  # hundreds of fast unit cases queue up behind them.
  ctest --preset "${preset}" -j "${JOBS}" -L heavy
  echo "=== test: ${preset} (fast suites) ==="
  ctest --preset "${preset}" -j "${JOBS}" -LE heavy
done

echo "=== tsan: lockstep sharding + thread pool under the race detector ==="
# The sharded lockstep layer is the one place worker threads touch
# simulators concurrently (one lane per shard, mailbox exchange at window
# barriers), so its property suite plus the thread-pool/runtime suites run
# under ThreadSanitizer.  Gated on libtsan actually linking, so the stage
# degrades to a notice on images without it.
if echo 'int main(){return 0;}' | c++ -fsanitize=thread -x c++ - -o /tmp/pgrid_tsan_probe 2>/dev/null; then
  rm -f /tmp/pgrid_tsan_probe
  cmake --preset tsan
  cmake --build --preset tsan -j "${JOBS}" \
    --target test_common test_property_shard test_whatif
  for tsan_bin in test_common test_property_shard test_whatif; do
    TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1" \
      "out/tsan/tests/${tsan_bin}"
  done
else
  echo "tsan: libtsan unavailable on this image; stage skipped"
fi

echo "=== chaos smoke: 25 seeds/mix, all invariants, asan-ubsan ==="
# Seeded fault-injection sweep under the sanitizer build: 25 seeds per
# canned mix (75 scenarios), every invariant checked after each run.  On a
# violation the test prints the exact seed, mix, and minimized fault
# schedule; reproduce locally with the printed command, e.g.
#   PGRID_CHAOS_SEED=<seed> PGRID_CHAOS_MIX=<mix> \
#     out/asan-ubsan/tests/test_chaos --gtest_filter='ChaosReplay.ReplaySeed'
PGRID_CHAOS_SEEDS=25 out/asan-ubsan/tests/test_chaos \
  --gtest_filter='ChaosSweep.*'

echo "=== bench smoke: kernel + decision maker + topology + reliability + city + load ==="
# Quick-mode perf smoke on the plain build: the binaries must run, emit
# schema-valid JSON, and the kernel/topology/reliability/scenario benches
# must pass their built-in determinism/oracle/ablation gates (non-zero exit
# otherwise).  The kernel, topology, reliability, and scenario reports are
# kept as BENCH_kernel.json / BENCH_topology.json / BENCH_resilience.json /
# BENCH_scenario.json — the perf and robustness trajectory across PRs.  The
# resilience run is the EXP-R1 sweep: reliability on/off over identical
# seeded chaos schedules, with the success-rate, coverage, exactly-once,
# ledger-conservation, and kill-switch bit-identity gates enforced inside
# the binary.  The failover run is EXP-R2: protected / unprotected /
# kill-switch arms over identical seeded base-station crashes plus the
# two-region adoption arm, gating on exactly-once completion, mean
# coverage >= 0.9 protected, demonstrable query loss unprotected, and
# disabled-path bit-identity; kept as BENCH_failover.json.  The scenario run is EXP-N2 at CI size: the flow-tier
# calibration sweep against the packet oracle, the flow kill-switch
# bit-identity check, and a sharded multi-region city run in flow mode —
# all gates enforced via the exit code (full scale: --city without --quick).
# The load run is EXP-Q1: the multi-query sharing sweep — overlapping
# standing aggregates with and without shared TAG trees on identical
# seeds, gating on >=3x sustained qps at <=1% deadline-miss, strictly
# fewer radio transmissions shared than unshared, and sharing kill-switch
# fingerprint bit-identity; kept as BENCH_load.json.  The topology run
# also carries EXP-N3: the incremental-topology-epoch mobility sweep —
# patched snapshots and surviving cached routes checked bit-identical
# against the fresh-full-rebuild oracle, with the steady-state route-
# acquisition speedup gate (>=2x over a baseline that forces a global
# epoch every round at the --quick size, >=5x at N=1600 in the full run)
# enforced in the exit code.
# The resilience, failover and load reports hold only simulated numbers, so
# a regenerated copy must equal the committed one byte for byte.  A change
# that means to alter them commits the new file and says so in CHANGES.md,
# the same rule as the outcome-digest tables below.  Snapshot the committed
# copies before the runs overwrite them.
bench_snapshot="$(mktemp -d)"
trap 'rm -rf "${bench_snapshot}"' EXIT
for report in BENCH_resilience.json BENCH_failover.json BENCH_load.json; do
  cp "${report}" "${bench_snapshot}/${report}"
done
out/default/bench/bench_sim_kernel --json --quick > BENCH_kernel.json
out/default/bench/bench_decision_maker --json > /tmp/bench_dm.json
out/default/bench/bench_routing --json --quick > BENCH_topology.json
out/default/bench/bench_resilience --chaos --json > BENCH_resilience.json
out/default/bench/bench_resilience --failover --quick --json > BENCH_failover.json
out/default/bench/bench_scenario --city --quick --json > BENCH_scenario.json
out/default/bench/bench_scenario --load --quick --json > BENCH_load.json
python3 - BENCH_kernel.json /tmp/bench_dm.json BENCH_topology.json BENCH_resilience.json BENCH_failover.json BENCH_scenario.json BENCH_load.json <<'PY'
import json, sys
for path in sys.argv[1:]:
    with open(path) as fh:
        report = json.load(fh)
    for key in ("experiment", "claim", "series"):
        assert key in report, f"{path}: missing {key!r}"
    assert report["series"], f"{path}: no series"
    for series in report["series"]:
        for key in ("name", "columns", "rows"):
            assert key in series, f"{path}: series missing {key!r}"
        width = len(series["columns"])
        assert all(len(row) == width for row in series["rows"]), (
            f"{path}: ragged rows in series {series['name']!r}")
    print(f"bench JSON ok: {path} ({len(report['series'])} series)")
PY
for report in BENCH_resilience.json BENCH_failover.json BENCH_load.json; do
  if ! cmp -s "${bench_snapshot}/${report}" "${report}"; then
    echo "bench: regenerated ${report} differs from the committed copy" >&2
    diff "${bench_snapshot}/${report}" "${report}" | head -20 >&2 || true
    exit 1
  fi
  echo "bench JSON identical to committed: ${report}"
done

echo "=== perf harness: build, unit tests, one rep per workload ==="
# The standalone perf project (perf/, BENCHMARK.json) compiles ../src on its
# own.  Its unit tests run under ctest; then every BENCHMARK.json workload
# runs once at seed 1 and once at the held-out seed 101 (mobile-failover
# also at seed 2) with no time budget, so any of pgrid_perf's built-in
# correctness gates (outcome digest stability, exactly-once completion,
# ledger conservation) fails CI through the exit code.  Each run's outcome_digest must also equal that seed's
# entry in the tables below: a refactor leaves the tables alone, and a
# change that means to alter behaviour updates them (and says so in
# CHANGES.md).  Seed 101 is never used while tuning, so a change fitted to
# seed 1 still has to reproduce an unseen run.
declare -A SEED1_DIGEST=(
  [study-building]=b62a7453f4991e29
  [city-flow]=817ffbcb0a65dd0e
  [shared-load]=770c4ca3f53f41c2
  [mobile-failover]=6b351f588aa7ebfa
)
declare -A SEED101_DIGEST=(
  [study-building]=6364b10d4aea5331
  [city-flow]=849281895fd127b6
  [shared-load]=f645e7e6182b35d5
  [mobile-failover]=53d8002162f69749
)
# mobile-failover is the one workload whose topology writes run through
# scoped epochs, so it is pinned at a third seed as well.
declare -A SEED2_DIGEST=(
  [mobile-failover]=cf1d28b696a60bfb
)
cmake -S perf -B out/perf-ci -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPGRID_WERROR=ON
cmake --build out/perf-ci -j "${JOBS}" --target pgrid_perf perf_tests
ctest --test-dir out/perf-ci --output-on-failure -j "${JOBS}"
check_digest() {  # <workload> <seed> <expected digest>
  local report digest
  report="$(out/perf-ci/pgrid_perf --workload "$1" --seed "$2" --reps 1 \
    --seconds 0)"
  echo "${report}"
  digest="$(awk '$1 == "outcome_digest" { print $2 }' <<< "${report}")"
  if [[ "${digest}" != "$3" ]]; then
    echo "perf: $1 seed-$2 outcome_digest ${digest}, table says $3" >&2
    exit 1
  fi
}
for workload in $(python3 -c '
import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
  check_digest "${workload}" 1 "${SEED1_DIGEST[${workload}]:-<no entry>}"
  check_digest "${workload}" 101 "${SEED101_DIGEST[${workload}]:-<no entry>}"
done
for workload in "${!SEED2_DIGEST[@]}"; do
  check_digest "${workload}" 2 "${SEED2_DIGEST[${workload}]}"
done

echo "CI OK: both presets built, all tests passed, bench smoke clean, perf gates and digests clean."
