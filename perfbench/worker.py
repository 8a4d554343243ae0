"""One run of one workload, in a process of its own.

Started by run.py, never imported.  It imports coarsekit from the
checkout's ``src`` directory, builds the first round of ops (that is the
set-up), then runs whole rounds until ``--seconds`` have passed, timing
each op on its own; the op loop's time is the sum of the op times.  Input
generation, the checks and a garbage collection happen between rounds,
and host-speed samples (see calibrate) between ops, all off the clock.
The last line of standard output is one JSON object for run.py.

With ``--setup-only`` it stops right before the first op and reports only
when that was, so run.py can take several set-up samples per run.
"""

from __future__ import annotations

import argparse
import array
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")

#: problems quoted in the result, at most
PROBLEMS_SHOWN = 5

#: the host's speed is sampled this often, between ops and off the op clock
CALIBRATE_EVERY_S = 0.5

#: the calibration kernel's median time on the reference machine (see
#: README.md): a scaled workload's op times are multiplied by
#: CALIBRATION_REF_S / (median kernel time in the run), so they read as if
#: the host ran at that machine's usual speed
CALIBRATION_REF_S = 0.045


def calibrate() -> float:
    """Time a fixed interpreter-bound kernel (tuple hashing, dict stores,
    1024-bit integer shifts) with the garbage collector off.

    The kernel's objects are its own and no collection can start inside
    it, so the number of objects the program keeps alive does not change
    its time.  On a shared host the speed of the CPU drifts by tens of
    percent over seconds to minutes.  Where a workload's ops slow in step
    with the kernel, scaling its op times by the kernel, sampled through
    the same run, takes most of the drift out (README.md gives the spreads
    with and without).  Every run samples the kernel, and the slowdown and
    the unscaled figures are reported beside the scaled ones.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        table = {}
        acc = 0
        mask = (1 << 1024) - 1
        bits = 0
        for i in range(50_000):
            key = (i & 1023, i >> 10)
            acc = (acc * 31 + hash(key)) & 0xFFFFFFFF
            table[key[0]] = acc
            bits = ((bits << 1) | (acc & 1)) & mask
        return time.perf_counter() - t0
    finally:
        gc.enable()


def import_coarsekit():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import coarsekit
    import coarsekit.cli  # noqa: F401  (cli.run is timed in certify)

    if os.path.dirname(os.path.dirname(os.path.abspath(coarsekit.__file__))) != src:
        raise SystemExit(f"coarsekit was imported from {coarsekit.__file__}, not from {src}")
    return coarsekit


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    ck = import_coarsekit()
    sys.path.insert(0, HERE)
    from tracing import Tracer
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](ck, args.seed, workdir)
        ops = workload.make_round(0, 0)
        gc.collect()
        first_op_at = time.monotonic()
        if args.setup_only:
            print(json.dumps({"first_op_at": first_op_at}))
            return 0
        result = measure(workload, ops, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["first_op_at"] = first_op_at
    if tracer is not None:
        tracer.write(os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.jsonl"))
        result["per_layer"] = tracer.metrics(time_scale=1.0 / result["scale"])
    print(json.dumps(result))
    return 0


def measure(workload, ops, seconds, tracer) -> dict:
    clock = time.perf_counter
    latencies = array.array("d")  # 8 bytes an op, so memory barely grows with ops
    attempted = failed = 0
    loop_s = 0.0
    problems = []
    round_index = 0
    kernel_s = [calibrate()]
    started = last_calibration = time.monotonic()
    while True:
        for op in ops:
            if tracer is not None:
                tracer.begin_op(op.index)
            t0 = clock()
            try:
                op.result = workload.run(op)
                op.ok = not workload.failed(op.result)
            except Exception as e:  # an op that raises is a failed op
                op.ok = False
                op.result = e
            took = clock() - t0
            if tracer is not None:
                tracer.end_op()
            loop_s += took
            attempted += 1
            if op.ok:
                latencies.append(took)
            else:
                failed += 1
                print(f"op {op.index} {op.slot} failed: {op.result!r}", file=sys.stderr)
            if time.monotonic() - last_calibration >= CALIBRATE_EVERY_S:
                kernel_s.append(calibrate())
                last_calibration = time.monotonic()
        if round_index == 0:
            # peak memory over the same work in every run: the oracle context
            # cache keeps growing with the number of ops, and that number
            # follows the speed of the machine and of the program
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if tracer is not None:
                tracer.fix_counts()
        for op in ops:
            if op.ok:
                try:
                    problems += workload.check(op)
                except Exception as e:  # output the checks could not read
                    problems.append(f"op {op.index} {op.slot}: check raised {e!r}")
        workload.end_round(ops)
        round_index += 1
        if time.monotonic() - started >= seconds:
            break
        ops = workload.make_round(round_index, attempted)
        gc.collect()
    for line in problems[:PROBLEMS_SHOWN]:
        print("problem: " + line, file=sys.stderr)
    done = attempted - failed
    slowdown = statistics.median(kernel_s) / CALIBRATION_REF_S
    scale = slowdown if workload.scale_by_host_speed else 1.0
    raw_ops_per_s = done / loop_s if loop_s > 0 else 0.0
    raw_p50_ms = 1000.0 * statistics.median(latencies) if latencies else 0.0
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": len(problems),
        "rounds": round_index,
        "host_slowdown": slowdown,
        "scale": scale,
        "calibrations": len(kernel_s),
        "raw_ops_per_s": raw_ops_per_s,
        "raw_op_p50_ms": raw_p50_ms,
        "ops_per_s": raw_ops_per_s * scale,
        "op_p50_ms": raw_p50_ms / scale,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


if __name__ == "__main__":
    sys.exit(main())
