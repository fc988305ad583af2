"""Beamformer designers.

Closed-form single-user solutions for both target models, semidefinite
relaxations for the multi-user problems, and the lossless rank-one
extraction that turns a relaxed extended-target solution back into
per-user beamformers plus an auxiliary probing beamformer.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .arrays import ArrayGeometry, PointTarget, point_terms, steering
from .errors import (
    Infeasible,
    NotPSD,
    RankExcess,
    ResidualNotPSD,
    SolverFailure,
    ZeroUsefulPower,
)
from .metrics import DesignSolution, Scenario, achieved_sinrs, crb_extended, crb_point_theta
from .numerics import herm_eig, hermitize, psd_sqrt
from .sdp import SdpProblem, SdpSolution, SolveOptions, elem_im, elem_re, solve

RANK_ONE_RATIO = 1e-6


# ---------------------------------------------------------------------------
# single-user closed forms
# ---------------------------------------------------------------------------

def _check_budget(h1: np.ndarray, gamma1: float, p_t: float, sigma_c2: float) -> float:
    """||h1||^2; raises Infeasible when no beamformer within the budget meets the SINR target."""
    h_norm2 = float(np.real(h1.conj() @ h1))
    if gamma1 * sigma_c2 > p_t * h_norm2:
        raise Infeasible(
            f"SINR target needs {gamma1 * sigma_c2:.4g} mW of received power, "
            f"budget allows at most {p_t * h_norm2:.4g}"
        )
    return h_norm2


def design_point_single(
    h1: np.ndarray,
    theta: float,
    gamma1: float,
    p_t: float,
    sigma_c2: float,
    geometry: ArrayGeometry,
    alpha: Optional[complex] = None,
    frame_len: Optional[int] = None,
    noise_radar: Optional[float] = None,
) -> DesignSolution:
    """Single-user point-target beamformer maximizing power on the target angle.

    Either points the full budget at the target (inactive SINR constraint)
    or splits it between the channel direction and the in-plane component
    of the steering vector, with phases aligned so both parts add up on
    the target.  ``objective`` is filled with the angle CRB when the radar
    parameters are supplied.
    """
    h1 = np.asarray(h1, dtype=complex).ravel()
    a = steering(theta, geometry.n_tx)
    n_t = geometry.n_tx
    h_norm2 = _check_budget(h1, gamma1, p_t, sigma_c2)
    cross = abs(h1.conj() @ a) ** 2
    u1 = h1 / np.sqrt(h_norm2)
    a_perp = a - (u1.conj() @ a) * u1
    perp_norm = np.linalg.norm(a_perp)
    # h1 parallel to a collapses the two-vector span; the scaled steering
    # vector is then feasible (boundary case included), since the Infeasible
    # check above rules out gamma1 sigma_c2 > p_t ||h1||^2.
    if p_t * cross > n_t * gamma1 * sigma_c2 or perp_norm <= 1e-10 * np.linalg.norm(a):
        w1 = np.sqrt(p_t) * a / np.linalg.norm(a)
    else:
        a_u = a_perp / perp_norm
        u1_a = u1.conj() @ a
        au_a = a_u.conj() @ a
        x1 = np.sqrt(gamma1 * sigma_c2 / h_norm2) * u1_a / abs(u1_a)
        x2 = np.sqrt(p_t - gamma1 * sigma_c2 / h_norm2) * au_a / max(abs(au_a), 1e-300)
        w1 = x1 * u1 + x2 * a_u
    r_x = np.outer(w1, w1.conj())
    sinr = abs(h1.conj() @ w1) ** 2 / sigma_c2
    directivity = float(abs(a.conj() @ w1) ** 2)
    objective = None
    if alpha is not None and frame_len is not None and noise_radar is not None:
        scen = _radar_only_scenario(geometry, h1, gamma1, p_t, sigma_c2, frame_len, noise_radar)
        objective = crb_point_theta(r_x, theta, alpha, scen)
    return DesignSolution(
        comm_beamformers=w1.reshape(-1, 1),
        covariance=r_x,
        aux_beamformer=None,
        achieved_sinrs=np.array([sinr]),
        objective=objective,
        diagnostics={"method": "closed_form_point", "directivity": directivity},
    )


def design_extended_single(
    h1: np.ndarray,
    gamma1: float,
    p_t: float,
    sigma_c2: float,
    geometry: ArrayGeometry,
    frame_len: Optional[int] = None,
    noise_radar: Optional[float] = None,
) -> DesignSolution:
    """Single-user extended-target design minimizing tr(R_X^{-1}).

    Below the threshold the covariance is isotropic; above it the user
    eigenvalue pins to the SINR requirement and the remaining budget is
    spread evenly over the orthogonal complement.
    """
    h1 = np.asarray(h1, dtype=complex).ravel()
    n_t = geometry.n_tx
    h_norm2 = _check_budget(h1, gamma1, p_t, sigma_c2)
    u1 = h1 / np.sqrt(h_norm2)
    threshold = p_t * h_norm2 / (n_t * sigma_c2)
    if gamma1 < threshold:
        lam_user = p_t / n_t
        lam_rest = p_t / n_t
    else:
        lam_user = gamma1 * sigma_c2 / h_norm2
        lam_rest = (p_t * h_norm2 - gamma1 * sigma_c2) / (h_norm2 * (n_t - 1))
    w1 = np.sqrt(lam_user) * u1
    w_1_mat = lam_user * np.outer(u1, u1.conj())
    r_x = lam_rest * np.eye(n_t, dtype=complex) + (lam_user - lam_rest) * np.outer(u1, u1.conj())
    w_a = psd_sqrt(hermitize(r_x - w_1_mat))
    sinr = abs(h1.conj() @ w1) ** 2 / (np.sum(np.abs(h1.conj() @ w_a) ** 2) + sigma_c2)
    if lam_rest > 0:
        trace_inv = 1.0 / lam_user + (n_t - 1) / lam_rest
    else:
        trace_inv = np.inf
    objective = None
    if frame_len is not None and noise_radar is not None and np.isfinite(trace_inv):
        objective = noise_radar * geometry.n_rx / frame_len * trace_inv
    return DesignSolution(
        comm_beamformers=w1.reshape(-1, 1),
        covariance=r_x,
        aux_beamformer=w_a,
        achieved_sinrs=np.array([sinr]),
        objective=objective,
        diagnostics={
            "method": "closed_form_extended",
            "trace_inverse": trace_inv,
            "lambda_user": lam_user,
            "lambda_rest": lam_rest,
            "isotropic_branch": gamma1 < threshold,
        },
    )


def _radar_only_scenario(geometry, h1, gamma1, p_t, sigma_c2, frame_len, noise_radar) -> Scenario:
    return Scenario(
        geometry=geometry,
        channels=h1.conj().reshape(1, -1),
        sinr_thresholds=np.array([gamma1]),
        power_budget=p_t,
        noise_comm=sigma_c2,
        noise_radar=noise_radar,
        frame_len=frame_len,
    )


# ---------------------------------------------------------------------------
# multi-user SDR: point target
# ---------------------------------------------------------------------------

def _add_sinr_and_power_rows(p: SdpProblem, scenario: Scenario, names: Sequence[str]) -> None:
    """The K SINR rows, then the power row; user i's block is ``names[i]``, the others interfere."""
    for i in range(scenario.n_users):
        h_i = scenario.user_channel(i)
        q_i = np.outer(h_i, h_i.conj())
        gamma_i = scenario.sinr_thresholds[i]
        coeffs = {name: q_i if j == i else -gamma_i * q_i for j, name in enumerate(names)}
        p.add_constraint(coeffs, sense=">=", rhs=gamma_i * scenario.noise_comm, name=f"sinr_{i+1}")
    n_t = scenario.geometry.n_tx
    p.add_constraint({n: np.eye(n_t, dtype=complex) for n in names}, sense="<=", rhs=scenario.power_budget, name="power")


def _check_status(sol: SdpSolution, what: str) -> None:
    """Infeasible with its ray, or SolverFailure, unless the SDR solved."""
    if sol.status == "Infeasible":
        raise Infeasible("SINR set jointly unreachable under the power budget", certificate=sol.certificate)
    if sol.status != "Optimal":
        raise SolverFailure(f"{what} SDR ended with status {sol.status}")


def build_point_sdp(scenario: Scenario) -> SdpProblem:
    """Relaxed CRB-minimization SDP: per-user PSD blocks, free t, 2x2 LMI slack.

    Row layout: 4 coupling rows tying the LMI block P to the trace terms
    (and t), then K SINR rows, then the power row.  The verify module
    depends on this ordering to map multipliers back to the KKT system.
    """
    geom = scenario.geometry
    target = scenario.target
    if not isinstance(target, PointTarget):
        raise ValueError("point design needs a PointTarget scenario")
    n_t, k = geom.n_tx, scenario.n_users
    a, ad, nb2, nbd2 = point_terms(target.theta, geom)

    add = nbd2 * np.outer(a, a.conj()) + nb2 * np.outer(ad, ad.conj())   # A^H A derivative part
    aa = nb2 * np.outer(a, a.conj())
    cross_re = nb2 * (np.outer(ad, a.conj()) + np.outer(a, ad.conj())) / 2
    cross_im = nb2 * (-1j * np.outer(ad, a.conj()) + 1j * np.outer(a, ad.conj())) / 2

    p = SdpProblem()
    names = [f"W{i+1}" for i in range(k)]
    for name in names:
        p.add_block(name, n_t)
    p.add_block("P", 2)
    p.add_free_scalar("t")
    p.set_objective(scalar_coeffs={"t": -1.0})

    p.add_constraint(
        {"P": elem_re(2, 0, 0), **{n: -hermitize(add) for n in names}}, {"t": 1.0}, "==", 0.0, "couple_p11"
    )
    p.add_constraint(
        {"P": elem_re(2, 0, 1), **{n: -hermitize(cross_re) for n in names}}, sense="==", rhs=0.0, name="couple_re_p12"
    )
    p.add_constraint(
        {"P": elem_im(2, 0, 1), **{n: -hermitize(cross_im) for n in names}}, sense="==", rhs=0.0, name="couple_im_p12"
    )
    p.add_constraint(
        {"P": elem_re(2, 1, 1), **{n: -hermitize(aa) for n in names}}, sense="==", rhs=0.0, name="couple_p22"
    )
    _add_sinr_and_power_rows(p, scenario, names)
    return p


def _rank_one_factor(w_mat: np.ndarray) -> Tuple[np.ndarray, float]:
    values, vectors = herm_eig(w_mat)
    lam = float(values[-1])
    ratio = float(max(values[:-1], default=0.0) / lam) if lam > 0 else np.inf
    return np.sqrt(max(lam, 0.0)) * vectors[:, -1], ratio


def _point_duals(y: np.ndarray, k: int) -> dict:
    return {
        "mu": np.maximum(y[4 : 4 + k], 0.0),
        "mu_T": max(-y[4 + k], 0.0),
        "phi": -y[0],
        "beta": complex(-(y[1] + 1j * y[2]) / 2),
        "gamma": -y[3],
    }


def design_point_multi(scenario: Scenario) -> DesignSolution:
    """Multi-user point-target design via SDR and rank-one recovery.

    The relaxation is tight with rank-one blocks, so beamformers come from
    the dominant eigenpairs.  When a solved block's eigenvalue ratio
    exceeds ``RANK_ONE_RATIO``, ``RankExcess`` is raised with the relaxed
    solution attached: covariance sum W_k, its CRB as objective, the same
    diagnostics and no beamformers.
    """
    target = scenario.target
    problem = build_point_sdp(scenario)
    sol = solve(problem)
    _check_status(sol, "point")

    k = scenario.n_users
    # the solver returns exactly Hermitian blocks, so their sum is too
    w_blocks = [sol.primal_blocks[f"W{i+1}"] for i in range(k)]
    factors = [_rank_one_factor(w) for w in w_blocks]
    ratios = [ratio for _, ratio in factors]
    r_x = sum(w_blocks)
    objective = crb_point_theta(r_x, target.theta, target.alpha, scenario)
    diagnostics = {
        "method": "sdr_point",
        "t_star": sol.scalars["t"],
        "eig_ratios": ratios,
        "duals": _point_duals(sol.dual_multipliers, k),
        "w_blocks": w_blocks,
        "sdp": sol,
    }
    if any(r > RANK_ONE_RATIO for r in ratios):
        partial = DesignSolution(
            comm_beamformers=np.zeros((scenario.geometry.n_tx, 0)),
            covariance=r_x,
            objective=objective,
            diagnostics=diagnostics,
        )
        raise RankExcess(f"relaxed blocks not rank-one (eig ratios {ratios})", solution=partial)
    beamformers = np.column_stack([w for w, _ in factors])
    sinrs = achieved_sinrs(beamformers, None, scenario.channels, scenario.noise_comm)
    return DesignSolution(
        comm_beamformers=beamformers,
        covariance=r_x,
        achieved_sinrs=sinrs,
        objective=objective,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# multi-user SDR: extended target
# ---------------------------------------------------------------------------

def build_extended_sdp(scenario: Scenario) -> SdpProblem:
    """Epigraph form of the trace-inverse SDR.

    Variables: user blocks W_k, auxiliary covariance WA (the slack making
    R_X = sum W_k + WA), and the Schur block E = [[T, I], [I, R_X]] whose
    upper-left trace is the objective.
    """
    geom = scenario.geometry
    n_t, k = geom.n_tx, scenario.n_users
    names = [f"W{i+1}" for i in range(k)] + ["WA"]
    p = SdpProblem()
    for name in names:
        p.add_block(name, n_t)
    p.add_block("E", 2 * n_t)
    obj = np.zeros((2 * n_t, 2 * n_t), dtype=complex)
    obj[:n_t, :n_t] = np.eye(n_t)
    p.set_objective({"E": obj})

    for i in range(n_t):
        for j in range(n_t):
            rhs = 1.0 if i == j else 0.0
            p.add_constraint({"E": elem_re(2 * n_t, i, n_t + j)}, sense="==", rhs=rhs)
            p.add_constraint({"E": elem_im(2 * n_t, i, n_t + j)}, sense="==", rhs=0.0)
    minus_one = -1.0
    for i in range(n_t):
        for j in range(i, n_t):
            coeffs = {"E": elem_re(2 * n_t, n_t + i, n_t + j)}
            for name in names:
                coeffs[name] = minus_one * elem_re(n_t, i, j)
            p.add_constraint(coeffs, sense="==", rhs=0.0)
            if i != j:
                coeffs = {"E": elem_im(2 * n_t, n_t + i, n_t + j)}
                for name in names:
                    coeffs[name] = minus_one * elem_im(n_t, i, j)
                p.add_constraint(coeffs, sense="==", rhs=0.0)
    _add_sinr_and_power_rows(p, scenario, names)
    return p


def extract_rank_one(
    r_bar: np.ndarray,
    w_bars: Sequence[np.ndarray],
    q_list: Sequence[np.ndarray],
) -> Tuple[List[np.ndarray], np.ndarray]:
    """Lossless rank-one extraction from a relaxed extended-target solution.

    Each user block is compressed onto its useful-signal direction,
    preserving the per-user received power; the leftover covariance moves
    into the auxiliary beamformer so that the total covariance, objective
    and every SINR are unchanged.
    """
    r_bar = hermitize(np.asarray(r_bar, dtype=complex))
    total = np.zeros_like(r_bar)
    w_tilde = []
    for w_bar, q in zip(w_bars, q_list):
        denom = float(np.real(np.trace(q @ w_bar)))
        if denom <= 1e-12 * max(np.real(np.trace(w_bar)), 1e-300):
            raise ZeroUsefulPower(f"useful power {denom:.3e} vanishes for a user block")
        wt = hermitize(w_bar @ q @ w_bar.conj().T) / denom
        w_tilde.append(wt)
        total += wt
    residual = hermitize(r_bar - total)
    try:
        w_a = psd_sqrt(residual)
    except NotPSD as exc:
        raise ResidualNotPSD(f"covariance residual not PSD after extraction: {exc}") from exc
    return w_tilde, w_a


def design_extended_multi(scenario: Scenario, opts: Optional[SolveOptions] = None) -> DesignSolution:
    """Multi-user extended-target design: epigraph SDR plus rank-one extraction."""
    problem = build_extended_sdp(scenario)
    sol = solve(problem, opts or SolveOptions(target_tol=1e-9))
    _check_status(sol, "extended")

    k = scenario.n_users
    w_bars = [sol.primal_blocks[f"W{i+1}"] for i in range(k)]
    w_aux_bar = sol.primal_blocks["WA"]
    r_bar = sum(w_bars) + w_aux_bar
    channels = [scenario.user_channel(i) for i in range(k)]
    q_list = [np.outer(h, h.conj()) for h in channels]

    w_tilde, w_a = extract_rank_one(r_bar, w_bars, q_list)
    beamformers = np.zeros((scenario.geometry.n_tx, k), dtype=complex)
    for i, (w_bar, h) in enumerate(zip(w_bars, channels)):
        useful = float(np.real(h.conj() @ w_bar @ h))
        beamformers[:, i] = (w_bar @ h) / np.sqrt(useful)

    sinrs = achieved_sinrs(beamformers, w_a, scenario.channels, scenario.noise_comm)
    objective = crb_extended(r_bar, scenario)
    trace_inv = objective * scenario.frame_len / (scenario.noise_radar * scenario.geometry.n_rx)
    return DesignSolution(
        comm_beamformers=beamformers,
        covariance=r_bar,
        aux_beamformer=w_a,
        achieved_sinrs=sinrs,
        objective=objective,
        diagnostics={
            "method": "sdr_extended",
            "trace_inverse": trace_inv,
            "w_bars": w_bars,
            "w_aux_bar": w_aux_bar,
            "w_tilde": w_tilde,
            "sdp": sol,
        },
    )
