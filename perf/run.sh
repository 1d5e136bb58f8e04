#!/usr/bin/env bash
# Records one result set of the perf harness for the checked-out commit.
#
#   perf/run.sh [seed ...]      (default seeds 1..10)
#
# Builds perf/ as RelWithDebInfo with the default preset's warning flags
# (-Wall -Wextra -Werror), then runs every workload in BENCHMARK.json:
# untraced once per seed, and traced on the first seed.  Results go to
# out/perf/<sha>/ (<sha>-dirty for uncommitted changes):
#
#   <workload>-<seed>.json         end-to-end result (the JSON line)
#   <workload>-<seed>.log          full text output of that run
#   <workload>-<seed>-trace.log    traced run: self times + per-layer metrics
#   <workload>-<seed>.trace.json   its Chrome trace (open in Perfetto)
#
# Compare two sets with: python3 perf/compare.py out/perf/<a> out/perf/<b>
set -euo pipefail
cd "$(dirname "$0")/.."

build=out/perf/build
cmake -S perf -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPGRID_WERROR=ON >/dev/null
cmake --build "$build" -j "$(nproc)" --target pgrid_perf

sha=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
if [ -n "$(git status --porcelain --untracked-files=no 2>/dev/null)" ]; then
  sha="$sha-dirty"
fi
dir=out/perf/$sha
mkdir -p "$dir"

seeds=("$@")
if [ ${#seeds[@]} -eq 0 ]; then seeds=(1 2 3 4 5 6 7 8 9 10); fi
read -r seconds workloads < <(python3 -c '
import json
b = json.load(open("BENCHMARK.json"))
print(b["run_seconds"], " ".join(w["name"] for w in b["workloads"]))')

for w in $workloads; do
  for s in "${seeds[@]}"; do
    "$build/pgrid_perf" --workload "$w" --seed "$s" --reps 3 \
      --seconds "$seconds" --json > "$dir/$w-$s.log"
    tail -n 1 "$dir/$w-$s.log" > "$dir/$w-$s.json"
    echo "$w seed $s: $(grep -E '^host_ms_per_query' "$dir/$w-$s.log")"
  done
  "$build/pgrid_perf" --workload "$w" --seed "${seeds[0]}" --trace --json \
    --out "$dir" > "$dir/$w-${seeds[0]}-trace.log"
done
echo "results in $dir"
