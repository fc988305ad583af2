"""Solve and check every rotation in the design workloads' pool.

Usage, from the root of a checkout:

    python3 bench/check_pool.py                      # every member of workloads.ROTATIONS
    python3 bench/check_pool.py --members 0-39       # candidates, in or out of the pool

A timed run draws each round's rotation from ``workloads.ROTATIONS``, so
a pool member on which the program fails would make some seeds fail.
This runs one round of point_sweep and one of extended_design on each
member given (about 15 s a member), with the benchmark's own checks,
prints one line per member and workload, and exits 1 if any failed.
Run it again after a change to the solver.
"""

from __future__ import annotations

import argparse
import sys
import time

import run  # sets the BLAS threads and the import paths as a timed run does
import workloads


def members(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--members", type=members, default=list(workloads.ROTATIONS),
                        help="pool indices, e.g. 0-31 or 3,7 (default: the pool)")
    args = parser.parse_args()
    crb = run.import_crbeam()
    bad = []
    for name in ("point_sweep", "extended_design"):
        workload = workloads.WORKLOADS[name]
        state = workload.setup(crb, 0)
        for j in args.members:
            records = []
            for i, op in enumerate(state.ops_for(workloads.pool_member(j))):
                t = time.perf_counter()
                try:
                    out, err = op.run(), None
                except Exception as exc:
                    out, err = None, exc
                records.append(workloads.Record(op, time.perf_counter() - t, out, err, j, i))
            fails = [f"{r.op.case.label}: raised {type(r.error).__name__}: {r.error}"
                     for r in records if r.error is not None]
            fails += workload.check(crb, state, records)
            times = " ".join(f"{r.seconds:.2f}" for r in records)
            print(f"{name} member {j}: {'FAIL' if fails else 'ok'}  [{times}]", flush=True)
            for line in fails:
                print(f"    {line}", flush=True)
            if fails:
                bad.append((name, j))
    print(f"failed: {bad}" if bad else "every member passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
