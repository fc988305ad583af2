"""Experiment configs and figure-style data runs.

Each ``run_*`` function reproduces one of the standard studies as a
:class:`ResultTable`: single-user closed form vs numerical solutions,
beampatterns, RMSE-vs-bound Monte Carlo curves, and the radar/
communication tradeoff sweeps with the eigenvalue-truncation baseline.

Channels are complex Gaussian, drawn once per experiment from the
config seed; user sweeps slice a nested master channel matrix so that
adding users only tightens the problem.  ``draw_scenario`` and
``beampattern_table`` are also the command line's scenario and table.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from typing import List, Optional

import numpy as np

from . import __version__
from .arrays import ArrayGeometry, PointTarget
from .designs import (
    design_extended_multi,
    design_extended_single,
    design_point_multi,
    design_point_single,
)
from .errors import Infeasible, RankExcess
from .metrics import (
    Scenario,
    beampattern,
    crb_extended,
    db_to_linear,
    dbm_to_mw,
    radar_alpha_from_snr,
)
from .numerics import herm_eig, hermitize
from .sim import DEG, GridSpec, monte_carlo_point

EXPERIMENTS = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "custom")


@dataclass
class ExperimentConfig:
    experiment: str = "custom"
    n_tx: int = 16
    n_rx: int = 20
    n_users: int = 4
    power_dbm: float = 30.0
    noise_comm_dbm: float = 0.0
    noise_radar_dbm: float = 0.0
    frame_len: int = 30
    target_angle_deg: float = 0.0
    sinr_db: float = 15.0
    sinr_sweep_db: Optional[List[float]] = None
    snr_radar_sweep_db: Optional[List[float]] = None
    user_sweep: Optional[List[int]] = None
    user_groups: List[int] = field(default_factory=lambda: [6, 12])
    trials: int = 1000
    seed: int = 2024
    beampattern_step_deg: float = 0.5
    mle_step_deg: float = 0.05
    mle_window_deg: float = 10.0

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}; choose one of {EXPERIMENTS}")

    @property
    def geometry(self) -> ArrayGeometry:
        return ArrayGeometry(self.n_tx, self.n_rx)

    @property
    def power_mw(self) -> float:
        return dbm_to_mw(self.power_dbm)

    @property
    def noise_comm_mw(self) -> float:
        return dbm_to_mw(self.noise_comm_dbm)

    @property
    def noise_radar_mw(self) -> float:
        return dbm_to_mw(self.noise_radar_dbm)

    @property
    def target_angle(self) -> float:
        return self.target_angle_deg * DEG

    def canonical_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        known = set(ExperimentConfig.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return ExperimentConfig(**data)


def config_for(experiment: str, **overrides) -> ExperimentConfig:
    """Per-figure defaults; overrides win."""
    base = {"experiment": experiment}
    if experiment == "fig2":
        base.update(n_users=1, sinr_sweep_db=list(np.arange(0.0, 40.0 + 1e-9, 2.0)))
    elif experiment == "fig3":
        base.update(n_users=4, sinr_db=15.0)
    elif experiment == "fig4":
        base.update(
            n_users=4, sinr_db=15.0, snr_radar_sweep_db=list(np.arange(10.0, 40.0 + 1e-9, 2.0))
        )
    elif experiment in ("fig5", "fig6"):
        base.update(sinr_sweep_db=list(np.arange(0.0, 20.0 + 1e-9, 2.0)), user_groups=[6, 12])
    elif experiment == "fig7":
        base.update(user_sweep=list(range(2, 15, 2)))
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


@dataclass
class ResultTable:
    columns: List[str]
    rows: List[List[float]]
    metadata: dict

    def to_csv(self) -> str:
        lines = [f"# {k}={self.metadata[k]}" for k in sorted(self.metadata)]
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(_fmt(v) for v in row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {"metadata": self.metadata, "columns": self.columns, "rows": self.rows}
        return json.dumps(payload, sort_keys=True, default=_json_default) + "\n"


def _fmt(v) -> str:
    if v is None or (isinstance(v, float) and np.isnan(v)):
        return "nan"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".12e")


def _json_default(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    raise TypeError(f"not JSON-serializable: {type(v)}")


def _metadata(cfg: ExperimentConfig, **extra) -> dict:
    md = {
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "config_hash": cfg.config_hash(),
        "version": __version__,
    }
    md.update(extra)
    return md


def draw_channels(n_users: int, n_tx: int, rng: np.random.Generator) -> np.ndarray:
    """Rows are h_k^H with i.i.d. unit-variance complex Gaussian entries."""
    return (rng.standard_normal((n_users, n_tx)) + 1j * rng.standard_normal((n_users, n_tx))) / np.sqrt(2)


def build_scenario(cfg: ExperimentConfig, channels, gammas, target=None) -> Scenario:
    return Scenario(
        geometry=cfg.geometry,
        channels=channels,
        sinr_thresholds=np.asarray(gammas, dtype=float),
        power_budget=cfg.power_mw,
        noise_comm=cfg.noise_comm_mw,
        noise_radar=cfg.noise_radar_mw,
        frame_len=cfg.frame_len,
        target=target,
    )


def draw_scenario(cfg: ExperimentConfig, target) -> Scenario:
    """``cfg.n_users`` channels drawn from ``cfg.seed``, every user at ``cfg.sinr_db``."""
    channels = draw_channels(cfg.n_users, cfg.n_tx, np.random.default_rng(cfg.seed))
    return build_scenario(cfg, channels, [db_to_linear(cfg.sinr_db)] * cfg.n_users, target)


def beampattern_table(r_x: np.ndarray, cfg: ExperimentConfig, **metadata) -> ResultTable:
    """Transmit beampattern of ``r_x`` over [-90, 90] degrees at the config's step."""
    grid_deg = np.arange(-90.0, 90.0 + 1e-9, cfg.beampattern_step_deg)
    power = beampattern(r_x, grid_deg * DEG, cfg.geometry)
    rows = [[float(t), float(p)] for t, p in zip(grid_deg, power)]
    return ResultTable(["theta_deg", "power_mw"], rows, _metadata(cfg, **metadata))


def _sdp_point_objective(scenario: Scenario) -> float:
    try:
        return design_point_multi(scenario).objective
    except RankExcess as exc:
        # K=1 can sit on a non-unique optimal face; the relaxed objective is
        # still the problem value
        return exc.solution.objective


def run_fig2(cfg: ExperimentConfig) -> ResultTable:
    """Single-user closed forms against their numerical (SDP) counterparts."""
    if cfg.n_users != 1:
        raise ValueError("fig2 is the single-user study (n_users must be 1)")
    rng = np.random.default_rng(cfg.seed)
    channels = draw_channels(1, cfg.n_tx, rng)
    h1 = channels[0].conj()
    rows = []
    for gamma_db in cfg.sinr_sweep_db or []:
        gamma = db_to_linear(gamma_db)
        row = [gamma_db]
        try:
            scen = build_scenario(cfg, channels, [gamma], PointTarget(cfg.target_angle))
            closed = design_point_single(scen)
            sdp_val = _sdp_point_objective(scen)
            root_closed = np.degrees(np.sqrt(closed.objective))
            root_sdp = np.degrees(np.sqrt(sdp_val))
            row += [root_closed, root_sdp, abs(closed.objective - sdp_val) / closed.objective]
        except Infeasible:
            row += [np.nan, np.nan, np.nan]
        try:
            scen_e = build_scenario(cfg, channels, [gamma])
            closed_e = design_extended_single(
                h1, gamma, cfg.power_mw, cfg.noise_comm_mw, cfg.geometry,
                frame_len=cfg.frame_len, noise_radar=cfg.noise_radar_mw,
            )
            sdp_e = design_extended_multi(scen_e)
            row += [
                closed_e.objective,
                sdp_e.objective,
                abs(closed_e.objective - sdp_e.objective) / closed_e.objective,
            ]
        except Infeasible:
            row += [np.nan, np.nan, np.nan]
        rows.append(row)
    cols = [
        "sinr_db",
        "root_crb_theta_deg_closed",
        "root_crb_theta_deg_sdp",
        "rel_err_point",
        "mse_g_closed",
        "mse_g_sdp",
        "rel_err_extended",
    ]
    return ResultTable(cols, rows, _metadata(cfg))


def run_fig3(cfg: ExperimentConfig) -> ResultTable:
    """Transmit beampattern of the multi-user CRB-optimal point design."""
    sol = design_point_multi(draw_scenario(cfg, PointTarget(cfg.target_angle)))
    return beampattern_table(sol.covariance, cfg, sinr_db=cfg.sinr_db)


def run_fig4(cfg: ExperimentConfig) -> ResultTable:
    """RMSE of the ML angle estimate and the root-CRB across radar SNR."""
    scen0 = draw_scenario(cfg, PointTarget(cfg.target_angle))
    sol = design_point_multi(scen0)  # design is invariant to |alpha|
    grid = GridSpec(center=cfg.target_angle, half_width=cfg.mle_window_deg * DEG, step=cfg.mle_step_deg * DEG)
    rows = []
    for snr_db in cfg.snr_radar_sweep_db or []:
        alpha = radar_alpha_from_snr(db_to_linear(snr_db), scen0)
        scen = replace(scen0, target=PointTarget(cfg.target_angle, alpha))
        rep = monte_carlo_point(scen, sol.comm_beamformers, cfg.trials, cfg.seed, grid)
        rows.append(
            [
                snr_db,
                np.degrees(rep["rmse_theta"]),
                np.degrees(rep["root_crb_theta"]),
                rep["ratio"],
            ]
        )
    cols = ["snr_radar_db", "rmse_theta_deg", "root_crb_theta_deg", "rmse_over_root_crb"]
    return ResultTable(cols, rows, _metadata(cfg, trials=cfg.trials, sinr_db=cfg.sinr_db))


def run_fig5(cfg: ExperimentConfig) -> ResultTable:
    """Point-target CRB vs required SINR for two user-group sizes."""
    rng = np.random.default_rng(cfg.seed)
    master = draw_channels(max(cfg.user_groups), cfg.n_tx, rng)
    cols = ["sinr_db"]
    for k in cfg.user_groups:
        cols.append(f"root_crb_theta_deg_k{k}")
    rows = []
    for gamma_db in cfg.sinr_sweep_db or []:
        gamma = db_to_linear(gamma_db)
        row = [gamma_db]
        for k in cfg.user_groups:
            try:
                scen = build_scenario(cfg, master[:k], [gamma] * k, PointTarget(cfg.target_angle))
                sol = design_point_multi(scen)
                row.append(np.degrees(np.sqrt(sol.objective)))
            except (Infeasible, RankExcess):
                row.append(np.nan)
        rows.append(row)
    return ResultTable(cols, rows, _metadata(cfg))


def eig_truncation_mse(solution, scenario: Scenario) -> float:
    """Benchmark: dominant-eigenvector truncation of the relaxed user blocks.

    Each relaxed user block is replaced by its top eigencomponent, the
    auxiliary covariance is kept, and the total is rescaled to the power
    budget; SINR feasibility is not re-enforced.
    """
    w_bars = solution.diagnostics["w_bars"]
    w_aux = solution.diagnostics["w_aux_bar"]
    total = np.zeros_like(w_aux)
    for w in w_bars:
        values, vectors = herm_eig(w)
        total += values[-1] * np.outer(vectors[:, -1], vectors[:, -1].conj())
    total = hermitize(total + w_aux)
    power = float(np.real(np.trace(total)))
    total *= scenario.power_budget / power
    return crb_extended(total, scenario)


def _extended_cell(cfg: ExperimentConfig, channels, gamma: float) -> list:
    """[design MSE, truncation MSE] at a common SINR target, or NaNs when infeasible."""
    k = channels.shape[0]
    try:
        scen = build_scenario(cfg, channels, [gamma] * k)
        sol = design_extended_multi(scen)
        return [sol.objective, eig_truncation_mse(sol, scen)]
    except Infeasible:
        return [np.nan, np.nan]


def run_fig6(cfg: ExperimentConfig) -> ResultTable:
    """Extended-target MSE vs required SINR, with the truncation benchmark."""
    rng = np.random.default_rng(cfg.seed)
    master = draw_channels(max(cfg.user_groups), cfg.n_tx, rng)
    cols = ["sinr_db"]
    for k in cfg.user_groups:
        cols += [f"mse_k{k}", f"mse_eig_k{k}"]
    rows = []
    for gamma_db in cfg.sinr_sweep_db or []:
        gamma = db_to_linear(gamma_db)
        row = [gamma_db]
        for k in cfg.user_groups:
            row += _extended_cell(cfg, master[:k], gamma)
        rows.append(row)
    return ResultTable(cols, rows, _metadata(cfg))


def run_fig7(cfg: ExperimentConfig) -> ResultTable:
    """Extended-target MSE vs number of users at two SINR levels."""
    rng = np.random.default_rng(cfg.seed)
    user_sweep = cfg.user_sweep or list(range(2, cfg.n_tx, 2))
    master = draw_channels(max(user_sweep), cfg.n_tx, rng)
    gammas_db = [10.0, 20.0]
    cols = ["n_users"]
    for gdb in gammas_db:
        cols += [f"mse_sinr{int(gdb)}db", f"mse_eig_sinr{int(gdb)}db"]
    rows = []
    for k in user_sweep:
        row = [k]
        for gdb in gammas_db:
            gamma = db_to_linear(gdb)
            row += _extended_cell(cfg, master[:k], gamma)
        rows.append(row)
    return ResultTable(cols, rows, _metadata(cfg))


RUNNERS = {
    "fig2": run_fig2,
    "fig3": run_fig3,
    "fig4": run_fig4,
    "fig5": run_fig5,
    "fig6": run_fig6,
    "fig7": run_fig7,
}


def run_experiment(cfg: ExperimentConfig) -> ResultTable:
    if cfg.experiment not in RUNNERS:
        raise ValueError(f"no runner for experiment {cfg.experiment!r}")
    return RUNNERS[cfg.experiment](cfg)
