"""Steadiness of the end-to-end metrics over repeated runs.

    python3 perfbench/steadiness.py                       # 10 seeds, every workload
    python3 perfbench/steadiness.py --workloads oracle --runs 5

Runs run.py once per seed (1..runs, one run at a time) for each workload,
with the run length from BENCHMARK.json, and prints for every end-to-end
metric its median, first and third quartiles (statistics.quantiles, n=4)
and the spread (q3 - q1) / median against the metric's bound.  The
benchmark is steady when every spread is below a third of its bound.
Also prints the share of failed ops, which must be the same in every
run.  Exits 1 when a run fails, a check fails, or a spread is over its
bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", choices=names, default=names)
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args(argv)

    bad = False
    report = {}
    for workload in args.workloads:
        runs = []
        for seed in range(1, args.runs + 1):
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                bad = True
                continue
            got = json.loads(lines[-1])
            runs.append(got)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in got["metrics"].items())
                + f" attempted={got['attempted']} failed={got['failed']}", flush=True)
        if len(runs) < 4:
            bad = True
            continue
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        bad |= len(shares) != 1 or not correct
        print(f"== {workload}: {len(runs)} runs, correct={correct}, failed share {sorted(shares)}")
        report[workload] = {}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = spread < metric["bound"]
            steady = spread < metric["bound"] / 3
            bad |= not ok
            report[workload][metric["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            print(f"   {metric['name']:12s} median {med:12.6g} q1 {q1:12.6g} q3 {q3:12.6g} "
                  f"spread {spread:7.2%} bound {metric['bound']:.0%} "
                  f"{'steady' if steady else 'within bound' if ok else 'OVER BOUND'}")
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    with open(os.path.join(HERE, "_work", "steadiness.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
