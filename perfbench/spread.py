"""Run the benchmark over several seeds and report run-to-run spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads eig-bound,...]
                                [--out perfbench/baseline.json]

For each workload and end-to-end metric it prints the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and their distance
as a share of the median, next to the metric's bound in BENCHMARK.json.
It also prints bound_slack_log10, the wall-time medians behind run_s and
setup_s (which are in reference seconds) and the largest fail_frac,
which each run records in its result file.  ``--out`` writes all of it, with every run's
values and the machine fingerprint, as a JSON baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import quartile_spread  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# wall-time medians, printed beside the reference-second metrics
WALL = ("run_wall_s", "setup_wall_s")


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(".perfbench", "results",
                        f"{workload}-seed{seed}-trace0.json")
    with open(path, encoding="utf-8") as fh:
        return result, json.load(fh)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    summary = {"seeds": seeds, "run_seconds": bench["run_seconds"],
               "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result, rec = run_one(workload, seed, bench["run_seconds"])
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"],
                         "failed": result["failed"],
                         "fail_frac": rec["fail_frac"],
                         "bound_slack_log10": rec["bound_slack_log10"],
                         "rep_s": rec["rep_s"], "setup_all_s": rec["setup_wall_s"],
                         "run_wall_s": statistics.median(rec["rep_wall_s"]),
                         "setup_wall_s": statistics.median(
                             rec["setup_wall_s"]),
                         **{k: v["value"]
                            for k, v in result["metrics"].items()}})
            summary["fingerprint"] = rec["fingerprint"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)
        stats = {}
        for name in [*bounds, "bound_slack_log10", *WALL]:
            values = [r[name] for r in runs if r.get(name) is not None]
            if len(values) < 2:
                continue
            med, q1, q3, spread = quartile_spread(values)
            stats[name] = {"median": med, "q1": q1, "q3": q3,
                           "spread": spread, "bound": bounds.get(name)}
        fail_max = max(r["fail_frac"] for r in runs)
        summary["workloads"][workload] = {"runs": runs, "stats": stats,
                                          "fail_frac_max": fail_max}
        print(f"\n{workload} over {len(runs)} seeds")
        print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, s in stats.items():
            bound = "-" if s["bound"] is None else f"{s['bound']:.2f}"
            print(f"  {name:<18} {s['median']:>12.6g} {s['q1']:>12.6g} "
                  f"{s['q3']:>12.6g} {s['spread']:>8.4f} {bound:>6}")
        print(f"  {'fail_frac (max)':<18} {fail_max:>12.6g}\n", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
