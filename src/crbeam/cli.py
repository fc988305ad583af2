"""Command-line front end: experiment runs plus ad-hoc design/evaluate/verify.

``design`` and ``verify --kkt`` solve the scenario ``experiments.draw_scenario``
draws from the config, and ``evaluate`` writes the table of
``experiments.beampattern_table``, so both match the fig3 run of the same config.

Exit codes: 0 success, 2 infeasible scenario, 3 solver failure, 4 bad config.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .arrays import PointTarget
from .designs import (design_extended_multi, design_extended_single,
                      design_point_multi, design_point_single)
from .errors import Infeasible, RankExcess, SolverFailure
from .experiments import (
    ExperimentConfig,
    ResultTable,
    beampattern_table,
    config_for,
    draw_scenario,
    run_experiment,
)
from .verify import check_kkt_point, check_schur

EXIT_OK, EXIT_INFEASIBLE, EXIT_SOLVER, EXIT_CONFIG = 0, 2, 3, 4


def _load_config(args) -> ExperimentConfig:
    data = {}
    if args.config:
        with open(args.config) as f:
            data = json.load(f)
    experiment = args.experiment or data.get("experiment", "custom")
    data.pop("experiment", None)
    overrides = {}
    for key in ("seed", "trials"):
        v = getattr(args, key, None)
        if v is not None:
            overrides[key] = v
    if getattr(args, "k", None) is not None:
        overrides["n_users"] = args.k
    if getattr(args, "sinr_db", None) is not None:
        overrides["sinr_db"] = args.sinr_db
    return config_for(experiment, **{**data, **overrides})


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _emit_table(table: ResultTable, args) -> None:
    _emit(table.to_csv() if args.format == "csv" else table.to_json(), args.out)


def _complex_to_pair(m: np.ndarray):
    m = np.asarray(m)
    return {"re": np.real(m).tolist(), "im": np.imag(m).tolist()}


def _pair_to_complex(d) -> np.ndarray:
    return np.asarray(d["re"], dtype=float) + 1j * np.asarray(d["im"], dtype=float)


def cmd_run(args) -> int:
    cfg = _load_config(args)
    table = run_experiment(cfg)
    _emit_table(table, args)
    return EXIT_OK


def cmd_design(args) -> int:
    cfg = _load_config(args)
    point = args.mode == "point"
    scen = draw_scenario(cfg, PointTarget(cfg.target_angle) if point else None)
    if cfg.n_users > 1:
        sol = design_point_multi(scen) if point else design_extended_multi(scen)
    elif point:
        sol = design_point_single(scen)
    else:
        sol = design_extended_single(
            scen.user_channel(0), scen.sinr_thresholds[0], cfg.power_mw, cfg.noise_comm_mw, cfg.geometry,
            frame_len=cfg.frame_len, noise_radar=cfg.noise_radar_mw,
        )
    payload = {
        "mode": args.mode,
        "seed": cfg.seed,
        "config_hash": cfg.config_hash(),
        "version": __version__,
        "objective": sol.objective,
        "achieved_sinrs": [float(v) for v in sol.achieved_sinrs],
        "beamformers": _complex_to_pair(sol.comm_beamformers),
        "covariance": _complex_to_pair(sol.covariance),
    }
    if sol.aux_beamformer is not None:
        payload["aux_beamformer"] = _complex_to_pair(sol.aux_beamformer)
    _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    with open(args.solution) as f:
        payload = json.load(f)
    table = beampattern_table(_pair_to_complex(payload["covariance"]), cfg, source=args.solution)
    _emit_table(table, args)
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    if args.schur:
        rng = np.random.default_rng(cfg.seed)
        worst = 0.0
        for _ in range(args.samples):
            raw = rng.standard_normal((cfg.n_tx, cfg.n_tx)) + 1j * rng.standard_normal((cfg.n_tx, cfg.n_tx))
            r_x = raw @ raw.conj().T
            t_lmi, t_closed = check_schur(r_x, cfg.target_angle, cfg.geometry)
            worst = max(worst, abs(t_lmi - t_closed) / abs(t_closed))
        _emit(f"schur-equivalence worst relative deviation over {args.samples} samples: {worst:.3e}\n", args.out)
        return EXIT_OK
    scen = draw_scenario(cfg, PointTarget(cfg.target_angle))
    sol = design_point_multi(scen)
    report = check_kkt_point(sol, None, scen)
    _emit(report.summary() + f"\nmax residual: {report.max_residual():.3e}\n", args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="crbeam", description=__doc__)
    ap.add_argument("--version", action="version", version=f"crbeam {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, users=True):
        p.add_argument("--config", help="JSON config file mirroring ExperimentConfig")
        p.add_argument("--experiment", help="experiment id (fig2..fig7|custom)")
        p.add_argument("--seed", type=int)
        if users:
            p.add_argument("--k", type=int, help="number of users")
            p.add_argument("--sinr-db", dest="sinr_db", type=float)
        p.add_argument("--out", help="output path (default stdout)")

    p_run = sub.add_parser("run", help="run a figure-style experiment")
    common(p_run)
    p_run.add_argument("--trials", type=int, help="Monte Carlo trials per point")
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")
    p_run.set_defaults(fn=cmd_run)

    p_design = sub.add_parser(
        "design", help="solve one design and emit the solution (k=1 uses the closed forms)"
    )
    common(p_design)
    p_design.add_argument("--mode", choices=("point", "extended"), required=True)
    p_design.set_defaults(fn=cmd_design)

    p_eval = sub.add_parser("evaluate", help="beampattern table of a saved solution")
    common(p_eval, users=False)
    p_eval.add_argument("--format", choices=("csv", "json"), default="csv")
    p_eval.add_argument("--solution", required=True, help="solution JSON from 'design'")
    p_eval.set_defaults(fn=cmd_evaluate)

    p_verify = sub.add_parser("verify", help="verification reports")
    common(p_verify)
    check = p_verify.add_mutually_exclusive_group(required=True)
    check.add_argument("--kkt", action="store_true", help="KKT report for a point design")
    check.add_argument("--schur", action="store_true", help="Schur-complement equivalence check")
    p_verify.add_argument("--samples", type=int, default=100)
    p_verify.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "schur", False) and (args.k is not None or args.sinr_db is not None):
        ap.error("verify --schur reads neither --k nor --sinr-db")
    try:
        return args.fn(args)
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (SolverFailure, RankExcess) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
