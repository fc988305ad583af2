"""Benchmark of crbeam at the paper's sizes.

Usage, from the root of a checkout:

    python3 bench/run.py --workload point_sweep --seed 1 --seconds 30 --trace 0

Workloads: point_sweep, extended_design, monte_carlo (see bench/README.md).
The program is imported from ``src/`` of the checkout.  Set-up (a fresh
import of the package, input generation and a warm-up) runs once
before the timed phase and again after each round, outside the timed
phase, so that its samples spread over the run; set-up time is the
median of these repeats.  Whole rounds of timed operations run until
the next round would end past ``--seconds``.  Every output is then
checked.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for ``--trace 0`` and the per-layer metrics
for ``--trace 1``.  A JSON line before it (``"info"``) records the BLAS
thread setting, the set-up times and the end-to-end figures (of the
traced run, when traced).  The full result is also written to
``bench/out/``.

Exit status: 0 when every output checked correct, 1 when a check
failed or an operation raised, 2 when the program cannot be imported
or the arguments are bad.
"""

from __future__ import annotations

import os

# numpy and scipy each load their own OpenBLAS, which starts one thread per
# core by default; two pools on a two-core machine oversubscribe it and
# double the CPU time for no gain in wall time.  One thread per library
# keeps the total at or below the core count.  BENCHMARK.json's command
# sets the same value; this default covers direct calls.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ.setdefault(_var, "1")

import time  # noqa: E402

T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUPS_PER_ROUND = 2      # set-up repeats after each round ...
SETUP_SAMPLES = 8         # ... until there are this many
MODULES = ("errors", "arrays", "metrics", "sdp", "_ipm", "designs", "sim", "verify")

sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


class SetupError(Exception):
    pass


def import_crbeam() -> types.SimpleNamespace:
    """Import crbeam afresh from ``src/``: drop any loaded copy, run its modules again."""
    for name in [m for m in sys.modules if m == "crbeam" or m.startswith("crbeam.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    try:
        mods = {name: importlib.import_module(f"crbeam.{name}") for name in MODULES}
    except ImportError as exc:
        raise SetupError(f"cannot import crbeam from {SRC}: {exc}") from exc
    origin = Path(mods["designs"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"crbeam was imported from {origin}, not from {SRC}")
    return types.SimpleNamespace(**mods)


def run_phase(state, seconds: float, tracer, setup_again):
    """Whole rounds until the next one would end past ``seconds``.

    After each round ``setup_again()`` repeats the set-up; its time is
    left out of the timed phase, so set-up samples are spread over the run
    instead of bunched at its start.  Returns the records and the timed
    phase's wall and CPU seconds.
    """
    records = []
    wall = cpu = 0.0
    r = 0
    while True:
        ops = state.round(r)
        t0, cpu0 = time.perf_counter(), time.process_time()
        for i, op in enumerate(ops):
            before = tracer.snapshot() if tracer else None
            excluded = tracer.excluded if tracer else 0.0
            t = time.perf_counter()
            try:
                out, err = op.run(), None
            except Exception as exc:  # recorded; makes the run incorrect afterwards
                out, err = None, exc
            dt = time.perf_counter() - t
            rec = workloads.Record(op, dt, out, err, r, i)
            if tracer:
                rec.seconds -= tracer.excluded - excluded
                after = tracer.snapshot()
                rec.trace = {k: after[k] - before.get(k, 0.0) for k in after}
            records.append(rec)
        wall += time.perf_counter() - t0
        cpu += time.process_time() - cpu0
        r += 1
        setup_again()
        if wall + 0.5 * wall / r >= seconds:
            return records, wall, cpu


def op_seconds(records) -> float:
    """Mean over a round's operations of each one's median time across rounds.

    A round mixes operations of very different cost, so the median of all
    op times would sit on the boundary between two kinds; the median per
    kind shrugs off the seconds-long slow spells of a shared machine.
    """
    by_index = {}
    for rec in records:
        by_index.setdefault(rec.index, []).append(rec.seconds)
    return statistics.fmean(statistics.median(v) for v in by_index.values())


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def per_layer(records) -> dict:
    """Per-layer metrics: seconds (or counts) per timed operation unless noted."""
    n = len(records)
    ok = [r for r in records if r.error is None]
    tot = {}
    for rec in records:
        for k, v in rec.trace.items():
            tot[k] = tot.get(k, 0.0) + v

    def per_op(key):
        return tot.get(key, 0.0) / n

    design = [r for r in ok if "k" in r.op.tags]
    mc = [r for r in ok if "mc" in r.op.tags]
    feasible = [r for r in design if r.output[0] == "optimal"]
    ipm_iters = tot.get("#ipm.iterations", 0.0)
    ipm_solves = tot.get("#ipm.solves", 0.0)
    m = {
        "designs.build_s": per_op("designs.build"),
        "designs.extract_s": per_op("designs.extract"),
        "designs.recover_s": sum(r.seconds - r.trace.get("sdp.solve", 0.0) for r in design) / n,
        "designs.op_s.k4": _median([r.seconds for r in feasible if r.op.tags["k"] == 4]),
        "designs.op_s.k12": _median([r.seconds for r in feasible if r.op.tags["k"] == 12]),
        "designs.op_s.infeasible": _median([r.seconds for r in design if r.output[0] == "infeasible"]),
        "sdp.solve_s": per_op("sdp.solve"),
        "sdp.cone_build_s": per_op("sdp.cone_build"),
        "sdp.iterations": per_op("#sdp.iterations"),
        "sdp.gap_over_tol": per_op("#sdp.gap_over_tol"),
        "sdp.primal_over_tol": per_op("#sdp.primal_over_tol"),
        "ipm.solve_s": per_op("ipm.solve"),
        "ipm.s_per_iter": tot.get("ipm.solve", 0.0) / ipm_iters if ipm_iters else 0.0,
    }
    for phase in tracing.IPM_PHASES:
        m[f"{phase}_s"] = per_op(phase)
    m["ipm.other_s"] = (tot.get("ipm.solve", 0.0) - sum(tot.get(p, 0.0) for p in tracing.IPM_PHASES)) / n
    m["ipm.schur_rows"] = tot.get("#ipm.schur_rows", 0.0) / ipm_solves if ipm_solves else 0.0
    for phase in tracing.SIM_PHASES:
        m[f"{phase}_s"] = per_op(phase)
    m["sim.other_s"] = sum(r.seconds - sum(r.trace.get(p, 0.0) for p in tracing.SIM_PHASES) for r in mc) / n
    m["sim.trials"] = sum(r.output["trials"] for r in mc) / n
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    crb = import_crbeam()
    state = workload.setup(crb, args.seed)
    setup_first_s = time.perf_counter() - T_PROCESS
    setup_times = []

    def setup_again():
        for _ in range(SETUPS_PER_ROUND):
            if len(setup_times) < SETUP_SAMPLES:
                t0 = time.perf_counter()
                workload.setup(import_crbeam(), args.seed)
                setup_times.append(time.perf_counter() - t0)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(crb)
    records, phase_s, cpu_s = run_phase(state, args.seconds, tracer, setup_again)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # No operation of these workloads is expected to raise, so one that
    # does makes the run incorrect as well as counting in ``failed``.
    failed = [r for r in records if r.error is not None]
    problems = [f"{r.op.case.label}: raised {type(r.error).__name__}: {r.error}" for r in failed]
    problems += workload.check(crb, state, records)
    n = len(records)
    end_to_end = {
        "setup_s": {"value": _median(setup_times), "unit": "s"},
        "op_s": {"value": op_seconds(records), "unit": "s"},
        "ops_per_s": {"value": n / phase_s, "unit": "1/s"},
        "cpu_s_per_op": {"value": cpu_s / n, "unit": "s"},
        "peak_rss_mib": {"value": rss_mib, "unit": "MiB"},
    }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "blas_env": {v: os.environ.get(v) for v in BLAS_ENV},
        "numpy": np.__version__,
        "setup_first_s": setup_first_s,
        "setup_times_s": setup_times,
        "rounds": records[-1].round + 1,
        "op_times_s": [[r.seconds for r in records if r.round == k] for k in range(records[-1].round + 1)],
        "phase_s": phase_s,
        "end_to_end": {k: v["value"] for k, v in end_to_end.items()},
        "failed_ops": [f"{r.op.case.label}: {type(r.error).__name__}: {r.error}" for r in failed],
        "check_failures": problems,
    }
    if tracer:
        layers = per_layer(records)
        units = {"sdp.iterations": "count", "sdp.gap_over_tol": "count", "sdp.primal_over_tol": "count",
                 "ipm.schur_rows": "count", "sim.trials": "count"}
        metrics = {k: {"value": v, "unit": units.get(k, "s")} for k, v in layers.items()}
    else:
        metrics = end_to_end
    result = {"correct": not problems, "attempted": n, "failed": len(failed), "metrics": metrics}

    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"info": info, "result": result}, indent=1) + "\n")
    for line in problems[:20]:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
