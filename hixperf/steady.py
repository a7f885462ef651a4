#!/usr/bin/env python3
"""Steadiness check for the hixperf benchmark.

Runs every workload of BENCHMARK.json (or those named) once per seed and
prints, for each end-to-end metric, the median, the quartiles, and the
spread -- the distance between the quartiles as a share of the median --
next to the metric's bound. A spread under a third of the bound is
marked "ok"; setup_s is compared between sets by median only, so its
spread is shown but not judged.

Run it from the root of the repository:

    python3 hixperf/steady.py                      # 10 seeds, every workload
    python3 hixperf/steady.py --runs 5 --workloads bulk-jobs
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    steal = next((l for l in lines if l.startswith("# window:")), "")
    return json.loads(lines[-1]), steal


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload, one seed each")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="", help="comma-separated subset (default: all)")
    ap.add_argument("--seconds", type=int, default=0, help="window length (default: run_seconds)")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    seconds = args.seconds or bench["run_seconds"]

    for wl in names:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        shares = set()  # failed share of attempted, per run
        for i in range(args.runs):
            seed = args.first_seed + i
            res, window = run_once(bench["command"], wl, seed, seconds)
            if not res["correct"]:
                sys.exit(f"{wl} seed {seed}: incorrect result")
            shares.add(res["failed"] / res["attempted"])
            for name in values:
                values[name].append(res["metrics"][name]["value"])
            vals = " ".join(f"{n}={values[n][-1]:.4g}" for n in values)
            print(f"{wl} seed {seed}: attempted={res['attempted']} failed={res['failed']} {window[2:]}\n  {vals}",
                  flush=True)
        print(f"\n{wl}: {args.runs} runs of {seconds}s, failed share {sorted(shares)}")
        print(f"  {'metric':24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for m in bench["end_to_end"]:
            vs = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = "ok" if spread < m["bound"] / 3 else "WIDE"
            if m["name"] == "setup_s":
                verdict = "(median only)"
            print(f"  {m['name']:24} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} {m['bound']:6.2f}  {verdict}")
        print(flush=True)


if __name__ == "__main__":
    main()
