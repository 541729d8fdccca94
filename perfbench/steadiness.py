#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Run from the root of the repository:

    python3 perfbench/steadiness.py --sets 2 --runs 10 --out report.json

Runs `perfbench/run.py --trace 0` `--runs` times per workload in each of
`--sets` sets of the same build, every run with another seed, interleaving
the workloads. For every end-to-end metric and workload it reports each
set's median and quartiles, the spread (third minus first quartile, as a
share of the median) and how far the later sets' medians moved from the
first set's. Each spread (except `setup_s`'s) and each move is judged
against the metric's bound in `BENCHMARK.json`; the spread must stay below a
third of it for the benchmark to count as steady. Exits 1
if a run fails, a check fails, or a bound is exceeded.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"steadiness: {workload} seed {seed} failed (exit {proc.returncode})")
    print(lines[0] if len(lines) > 1 else lines[-1], flush=True)
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"steadiness: {workload} seed {seed} failed its output checks")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def describe(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", help="comma-separated; default: all in BENCHMARK.json")
    parser.add_argument("--out", help="write the report as JSON to this file")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    samples = [{w: {} for w in workloads} for _ in range(args.sets)]
    seed = 1
    for s in range(args.sets):
        for _ in range(args.runs):
            for workload in workloads:
                for name, value in run_once(workload, seed, seconds).items():
                    samples[s][workload].setdefault(name, []).append(value)
            seed += 1

    report, ok = [], True
    for workload in workloads:
        for name, values in samples[0][workload].items():
            sets = [describe(samples[s][workload][name]) for s in range(args.sets)]
            bound = bounds[name]["bound"]
            lower_is_better = bounds[name]["better"] == "lower"
            moves = []
            for later in sets[1:]:
                move = (later["median"] - sets[0]["median"]) / sets[0]["median"]
                moves.append(move if lower_is_better else -move)
            worst_spread = max(d["spread"] for d in sets)
            steady = name == "setup_s" or worst_spread < bound / 3
            within = all(move <= bound for move in moves)
            ok = ok and steady and within
            report.append({"workload": workload, "metric": name, "bound": bound,
                           "sets": sets, "worse_by": moves, "steady": steady,
                           "within_bound": within})
            medians = " ".join(f"{d['median']:.6g} [{d['q1']:.6g}, {d['q3']:.6g}]"
                               for d in sets)
            print(f"{workload:10} {name:12} medians {medians}  spread "
                  f"{worst_spread:.3f} (bound {bound}) worse_by "
                  f"{', '.join(f'{m:+.3f}' for m in moves)}"
                  f"{'' if steady and within else '  <-- OVER'}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"sets": args.sets, "runs": args.runs, "seconds": seconds,
                       "results": report}, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
