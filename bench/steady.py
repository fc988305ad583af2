"""Steadiness check: run each workload in two sets of seeds and compare the sets.

Usage, from the root of a checkout:

    python3 bench/steady.py                       # 2 sets of 10 seeds, every workload
    python3 bench/steady.py --workloads monte_carlo --runs 5
    python3 bench/steady.py --trace-overhead --runs 3

Runs are made one at a time with BENCHMARK.json's command and run length;
the first set uses seeds 1 .. runs, the second runs+1 .. 2*runs.  For
every end-to-end metric it prints each set's median, its spread
(distance between the first and third quartile over the median) and how
much worse the second median is than the first, all against the
metric's bound.  A spread above a third of the bound is flagged "wide";
a spread above the bound, a shift of either sign larger than the bound,
or a share of failed operations that differs between the sets, is
flagged "FAIL" and makes the exit status 1.

``--trace-overhead`` instead runs every seed untraced and traced, in
alternating order, and prints how much slower op_s is when traced.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
    return {"info": info, "result": result}


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    return (second - first) / first if better == "lower" else (first - second) / first


def check_steady(spec: dict, workloads, runs: int) -> bool:
    ok = True
    for w in workloads:
        per_set = []
        for k in range(2):
            rows = []
            for seed in range(k * runs + 1, (k + 1) * runs + 1):
                out = run_once(spec, w, seed, 0)
                rows.append(out["result"])
                m = out["result"]["metrics"]
                print(f"{w} set {k + 1} seed {seed}: " + " ".join(f"{n}={m[n]['value']:.5g}" for n in m), flush=True)
            per_set.append(rows)
        shares = {round(sum(r["failed"] for r in rows) / sum(r["attempted"] for r in rows), 12) for rows in per_set}
        print(f"\n{w}: failed share per set {sorted(shares)}" + ("  FAIL" if len(shares) > 1 else ""))
        ok &= len(shares) == 1
        print(f"{'metric':14s} {'bound':>6s} " + " ".join(f"{'median' + str(k + 1):>11s} {'spread' + str(k + 1):>8s}" for k in range(2))
              + "   shift")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = [[r["metrics"][name]["value"] for r in rows] for rows in per_set]
            meds = [statistics.median(v) for v in vals]
            sprs = [spread(v) for v in vals]
            line = f"{name:14s} {bound:6.2f} " + " ".join(f"{m:11.5g} {s:8.3f}" for m, s in zip(meds, sprs))
            flags = []
            if any(s > bound for s in sprs):
                flags.append("FAIL spread")
            elif any(s > bound / 3 for s in sprs):
                flags.append("wide")
            shift = worse_by(meds[0], meds[1], metric["better"])
            line += f" {shift:+7.3f}"
            if abs(shift) > bound:
                flags.append("FAIL shift")
            ok &= not any(f.startswith("FAIL") for f in flags)
            print(line + ("  " + ", ".join(flags) if flags else ""))
        print(flush=True)
    return ok


def trace_overhead(spec: dict, workloads, runs: int) -> None:
    for w in workloads:
        ratios = []
        for seed in range(1, runs + 1):
            order = (0, 1) if seed % 2 else (1, 0)
            op = {t: run_once(spec, w, seed, t)["info"]["end_to_end"]["op_s"] for t in order}
            ratios.append(op[1] / op[0] - 1)
            print(f"{w} seed {seed}: op_s untraced {op[0]:.5g} traced {op[1]:.5g} ({ratios[-1]:+.1%})", flush=True)
        print(f"{w}: median tracing overhead on op_s {statistics.median(ratios):+.1%}\n", flush=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--runs", type=int, default=10, help="seeds per set")
    parser.add_argument("--trace-overhead", action="store_true")
    args = parser.parse_args()
    if args.trace_overhead:
        trace_overhead(spec, args.workloads, args.runs)
        return 0
    return 0 if check_steady(spec, args.workloads, args.runs) else 1


if __name__ == "__main__":
    sys.exit(main())
