"""Screen the search slots of a workload over many seeded labellings.

    python3 perfbench/screen.py --workload oracle --labellings 200
    python3 perfbench/screen.py --workload homogeneity --labellings 100

Runs every slot of the oracle or homogeneity workload on fresh
labellings (seeded with SCREEN_SEED) under a reduced oracle node budget
(COARSEKIT_SEARCH_CAP = SEARCH_BUDGET, 1% of the program's default cap)
and prints, per slot, the answers seen, how many labellings ran out of
budget and the spread of the time taken.  A slot belongs in the
workload only when no labelling runs out of budget; the command exits 1
otherwise.  This is how the slots in workloads.py were chosen, and it
recomputes that choice for the program in the checkout.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))

#: oracle node budget of a screened search: 1% of the program's default cap
SEARCH_BUDGET = 100_000

#: seed of the screened labellings, apart from the seeds of benchmark runs
SCREEN_SEED = 1000


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("oracle", "homogeneity"), required=True)
    p.add_argument("--labellings", type=int, default=100)
    args = p.parse_args(argv)

    os.environ["COARSEKIT_SEARCH_CAP"] = str(SEARCH_BUDGET)
    sys.path.insert(0, HERE)
    from worker import import_coarsekit

    ck = import_coarsekit()
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory() as workdir:
        workload = WORKLOADS[args.workload](ck, SCREEN_SEED, workdir)
        stats = {slot: ([], set(), [0]) for slot in workload.slots}
        for r in range(args.labellings):
            ops = workload.make_round(r, r * len(workload.slots))
            for op in ops:
                times, answers, over = stats[op.slot]
                t0 = time.perf_counter()
                try:
                    got = workload.run(op)
                except ck.SearchCapExceeded:
                    over[0] += 1
                    continue
                times.append(time.perf_counter() - t0)
                answers.add(_answer(got))
            workload.end_round(ops)
    bad = 0
    for slot, (times, answers, over) in stats.items():
        bad += over[0] > 0
        spread = (f"min {min(times):.3f} median {statistics.median(times):.3f} "
                  f"max {max(times):.3f} s") if times else "no run finished"
        print(f"{slot}: answers {sorted(answers)} over budget {over[0]}/{args.labellings}; {spread}")
    return 1 if bad else 0


def _answer(got) -> str:
    if got is None:
        return "none"
    if isinstance(got, list):
        return "witness"
    return f"spectral={got.spectral} oracle={got.oracle}"


if __name__ == "__main__":
    sys.exit(main())
