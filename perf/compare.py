#!/usr/bin/env python3
"""Compare two result sets of the perf harness, one row per workload.

A result set is a directory of `<workload>-<seed>.json` files, each holding
the JSON line `pgrid_perf --json` prints (perf/run.sh writes them to
out/perf/<sha>/).  For every end-to-end metric in BENCHMARK.json the
script prints each side's median and quartiles over seeds, the relative
change of the medians, the pair wins (seeds where the candidate reads
better), and a verdict.

Host metrics vary from run to run, so they are judged on the medians with
the bound BENCHMARK.json fixes:

  better      the candidate wins at least 9 of every 10 pairs and the
              medians differ by more than the base's own quartile spread
  worse       the median moved the wrong way by more than the bound
  unresolved  a side's quartile spread exceeds the bound, so the bound
              cannot be resolved (unless every candidate run reads better,
              or every one worse, than every base run)
  unchanged   otherwise

Simulated metrics (SIMULATED below) repeat exactly for a seed, so they are
judged seed by seed, with no allowance for noise:

  worse       any seed moved the wrong way by more than the tolerance
  better      none did, and at least 9 of every 10 seeds moved the right
              way by more than it
  unchanged   otherwise

usage: python3 perf/compare.py <base-dir> <candidate-dir>
"""

import argparse
import json
import os
import re
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                         "BENCHMARK.json")
RESULT = re.compile(r"^(?P<workload>[a-z-]+)-(?P<seed>\d+)\.json$")

# Per-seed tolerance of each simulated metric: a share of the base value,
# or an absolute difference for the ratios.  BENCHMARK.json's bounds are
# wider because they also cover how much these metrics differ between seeds.
SIMULATED = {
    "response_p50_s": ("share", 0.01),
    "response_p99_s": ("share", 0.01),
    "energy_mj_per_query": ("share", 0.01),
    "met_ratio": ("absolute", 0.005),
    "coverage_mean": ("absolute", 0.005),
}


def load_set(directory):
    """{workload: {seed: metrics}} from one result directory."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        match = RESULT.match(name)
        if not match:
            continue
        with open(os.path.join(directory, name)) as handle:
            lines = [line for line in handle.read().splitlines() if line.strip()]
        if not lines:
            continue
        result = json.loads(lines[-1])
        if not result.get("correct", False):
            print(f"warning: {directory}/{name} reports correct=false",
                  file=sys.stderr)
        runs.setdefault(match["workload"], {})[int(match["seed"])] = {
            key: entry["value"] for key, entry in result["metrics"].items()
        }
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def host_verdict(lower, bound, base, cand, wins, pairs):
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(cand)
    # Positive `worse` means the candidate moved in the bad direction.
    change = (cm - bm) / abs(bm) if bm else 0.0
    worse = change if lower else -change
    base_spread = (b3 - b1) / abs(bm) if bm else 0.0
    spread = max(base_spread, (c3 - c1) / abs(cm) if cm else 0.0)
    if pairs and wins * 10 >= 9 * len(pairs) and -worse > base_spread:
        return "better"
    if spread > bound:
        if all((c < b if lower else c > b) for b in base for c in cand):
            return "better"
        if all((c > b if lower else c < b) for b in base for c in cand):
            return "worse"
        return "unresolved"
    if worse > bound:
        return "worse"
    return "unchanged"


def paired_verdict(lower, tolerance, pairs):
    kind, limit = tolerance
    if not pairs:
        return "unpaired"
    moves = []  # positive = the candidate moved in the bad direction
    for b, c in pairs:
        move = (c - b) if lower else (b - c)
        if kind == "share":
            move = move / abs(b) if b else move
        moves.append(move)
    if any(move > limit for move in moves):
        return "worse"
    if sum(1 for move in moves if -move > limit) * 10 >= 9 * len(moves):
        return "better"
    return "unchanged"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("candidate")
    args = parser.parse_args()

    with open(BENCHMARK) as handle:
        metrics = json.load(handle)["end_to_end"]
    base = load_set(args.base)
    cand = load_set(args.candidate)

    worst = 0
    fmt = lambda q: "/".join(f"{v:.4g}" for v in q)  # noqa: E731
    for workload in sorted(set(base) & set(cand)):
        b_runs, c_runs = base[workload], cand[workload]
        seeds = sorted(set(b_runs) & set(c_runs))
        print(f"== {workload}  ({len(b_runs)} base runs, {len(c_runs)} "
              f"candidate runs, {len(seeds)} paired seeds)")
        print(f"  {'metric':<22} {'base q1/median/q3':>34} "
              f"{'candidate q1/median/q3':>34} {'change':>8} "
              f"{'wins':>6} verdict")
        for metric in metrics:
            name = metric["name"]
            lower = metric["better"] == "lower"
            b_vals = [r[name] for r in b_runs.values() if name in r]
            c_vals = [r[name] for r in c_runs.values() if name in r]
            if not b_vals or not c_vals:
                continue
            pairs = [(b_runs[s][name], c_runs[s][name]) for s in seeds
                     if name in b_runs[s] and name in c_runs[s]]
            wins = sum(1 for b, c in pairs if (c < b if lower else c > b))
            if name in SIMULATED:
                kind, limit = SIMULATED[name]
                result = paired_verdict(lower, SIMULATED[name], pairs)
                rule = (f"per seed {limit:.1%}" if kind == "share"
                        else f"per seed ±{limit:g}")
            else:
                result = host_verdict(lower, metric["bound"], b_vals, c_vals,
                                      wins, pairs)
                rule = f"bound {metric['bound']:.0%}"
            if result == "worse":
                worst = 1
            bm = quartiles(b_vals)[1]
            change = (quartiles(c_vals)[1] - bm) / abs(bm) if bm else 0.0
            print(f"  {name:<22} {fmt(quartiles(b_vals)):>34} "
                  f"{fmt(quartiles(c_vals)):>34} {change:>+8.2%} "
                  f"{wins:>3}/{len(pairs):<2} {result}  ({rule})")
    missing = sorted(set(base) ^ set(cand))
    if missing:
        print("workloads in only one set: " + ", ".join(missing))
    return worst


if __name__ == "__main__":
    sys.exit(main())
