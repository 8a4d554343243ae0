"""coarsekit benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each run starts fresh worker processes
(worker.py) with PYTHONHASHSEED fixed and numeric thread pools capped at
one thread.  With ``--trace 0`` it prints the end-to-end metrics; set-up
is sampled in SETUP_SAMPLES processes, half of them before the measuring
worker and half after it, and reported as their median.  A line before
the result gives the unscaled times and the host slowdown.  With
``--trace 1`` one traced worker runs and the per-layer metrics are
printed instead.  The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exits 2, printing no result, when the checkout has no coarsekit source or
a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: set-up samples per untraced run: SETUP_SAMPLES - 1 set-up-only workers
#: plus the measuring worker
SETUP_SAMPLES = 15

#: a run must end within this many seconds
RUN_LIMIT_S = 170

WORKER_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


#: worker figures kept beside the result; the last four are also printed
RAW_FIGURES = ("rounds", "problems", "calibrations",
               "raw_ops_per_s", "raw_op_p50_ms", "host_slowdown", "scale")


class WorkerError(RuntimeError):
    pass


def run_worker(args, extra, deadline):
    """Start a worker, wait for it, and return (start time, its JSON)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    env = dict(os.environ, **WORKER_ENV)
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired:
        # subprocess.run has killed the worker and waited for it
        raise WorkerError("worker ran past the time limit")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with {proc.returncode}")
    return started, json.loads(lines[-1])


def setup_time(started, got) -> float:
    return got["first_op_at"] - started


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "coarsekit", "__init__.py")):
        print(f"no coarsekit source under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        setups = []
        extra_samples = 0 if args.trace else SETUP_SAMPLES - 1
        for _ in range(extra_samples // 2):
            setups.append(setup_time(*run_worker(args, ["--setup-only"], deadline)))
        started, got = run_worker(args, [], deadline)
        setups.append(setup_time(started, got))
        for _ in range(extra_samples - extra_samples // 2):
            setups.append(setup_time(*run_worker(args, ["--setup-only"], deadline)))
    except WorkerError as e:
        print(f"{args.workload}: {e}", file=sys.stderr)
        return 2

    if args.trace:
        metrics = got["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": got["ops_per_s"], "unit": "1/s"},
            "op_p50_ms": {"value": got["op_p50_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": got["peak_rss_mb"], "unit": "MB"},
        }
    result = {
        "correct": got["correct"],
        "attempted": got["attempted"],
        "failed": got["failed"],
        "metrics": metrics,
    }
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(HERE, "_work", name), "w", encoding="utf-8") as fh:
        raw = {k: got[k] for k in RAW_FIGURES}
        json.dump(dict(result, setup_samples_s=setups, **raw), fh, indent=1)
    print("unscaled: " + " ".join(f"{k}={got[k]:.6g}" for k in RAW_FIGURES[3:]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
