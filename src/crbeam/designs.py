"""Beamformer designers.

Closed-form single-user solutions for both target models, semidefinite
relaxations for the multi-user problems, and the lossless rank-one
extraction that turns a relaxed extended-target solution back into
per-user beamformers plus an auxiliary probing beamformer.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Optional, Sequence, Tuple

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
from .sdp import SdpProblem, SdpSolution, SolveOptions, dual_ray_certificate, elem_im, elem_re, solve

RANK_ONE_RATIO = 1e-6
SINR_SHORTFALL = 1e-3        # a multi-user design fails when a user's SINR is below gamma_k (1 - this)
# the least-power pre-check of the multi-user designs (_check_least_power)
LEAST_POWER_MARGIN = 1e-6    # certify only when the least power exceeds the budget by this fraction
LEAST_POWER_MAX_ITER = 50
LEAST_POWER_TOL = 1e-12      # Newton has converged when every |log(c_k lambda_k x_k)| is below this
LEAST_POWER_STEP = 2.0       # largest change of any log lambda_k in one Newton step


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


def design_point_single(scenario: Scenario) -> DesignSolution:
    """Single-user point-target beamformer maximizing power on the target angle.

    Either points the full budget at the target (inactive SINR constraint)
    or splits it between the channel direction and the in-plane component
    of the steering vector, with phases aligned so both parts add up on
    the target.  ``objective`` is the angle CRB.  ``scenario`` has one user
    and a ``PointTarget``.
    """
    target = _point_target(scenario)
    if scenario.n_users != 1:
        raise ValueError(f"the point closed form has one user, the scenario has {scenario.n_users}")
    h1, gamma1 = scenario.user_channel(0), scenario.sinr_thresholds[0]
    p_t, sigma_c2 = scenario.power_budget, scenario.noise_comm
    n_t = scenario.geometry.n_tx
    a = steering(target.theta, n_t)
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
    directivity = float(abs(a.conj() @ w1) ** 2)
    return DesignSolution(
        comm_beamformers=w1.reshape(-1, 1),
        covariance=r_x,
        aux_beamformer=None,
        achieved_sinrs=achieved_sinrs(w1.reshape(-1, 1), None, scenario.channels, sigma_c2),
        objective=crb_point_theta(r_x, target.theta, target.alpha, scenario),
        diagnostics={"method": "closed_form_point", "directivity": directivity},
    )


def design_extended_single(
    h1: np.ndarray,
    gamma1: float,
    p_t: float,
    sigma_c2: float,
    geometry: ArrayGeometry,
    *,
    frame_len: int,
    noise_radar: float,
) -> DesignSolution:
    """Single-user extended-target design minimizing tr(R_X^{-1}).

    Below the threshold the covariance is isotropic; above it the user
    eigenvalue pins to the SINR requirement and the remaining budget is
    spread evenly over the orthogonal complement.  ``objective`` is the
    CRB, or None on the singular boundary where nothing is left for the
    complement (``lambda_rest`` = 0).
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
    w1 = np.sqrt(lam_user) * u1.reshape(-1, 1)
    w_1_mat = lam_user * np.outer(u1, u1.conj())
    r_x = lam_rest * np.eye(n_t, dtype=complex) + (lam_user - lam_rest) * np.outer(u1, u1.conj())
    w_a = psd_sqrt(hermitize(r_x - w_1_mat))
    if lam_rest > 0:
        trace_inv = 1.0 / lam_user + (n_t - 1) / lam_rest
        objective = noise_radar * geometry.n_rx / frame_len * trace_inv
    else:
        trace_inv, objective = np.inf, None
    return DesignSolution(
        comm_beamformers=w1,
        covariance=r_x,
        aux_beamformer=w_a,
        achieved_sinrs=achieved_sinrs(w1, w_a, h1.conj()[None, :], sigma_c2),
        objective=objective,
        diagnostics={
            "method": "closed_form_extended",
            "trace_inverse": trace_inv,
            "lambda_user": lam_user,
            "lambda_rest": lam_rest,
            "isotropic_branch": gamma1 < threshold,
        },
    )


# ---------------------------------------------------------------------------
# multi-user SDR: point target
# ---------------------------------------------------------------------------

def _add_sinr_and_power_rows(p: SdpProblem, scenario: Scenario, names: Sequence[str],
                             channels: Sequence[np.ndarray], extra_power: Optional[dict] = None) -> None:
    """The K SINR rows, then the power row; user i's block is ``names[i]``, the others interfere.

    ``channels`` are the h_k in the blocks' coordinates; ``extra_power``
    holds the power row's coefficients on blocks outside ``names``."""
    for i, h_i in enumerate(channels):
        q_i = np.outer(h_i, h_i.conj())
        gamma_i = scenario.sinr_thresholds[i]
        coeffs = {name: q_i if j == i else -gamma_i * q_i for j, name in enumerate(names)}
        p.add_constraint(coeffs, sense=">=", rhs=gamma_i * scenario.noise_comm, name=f"sinr_{i+1}")
    eye = np.eye(len(channels[0]), dtype=complex)
    p.add_constraint({**{name: eye for name in names}, **(extra_power or {})},
                     sense="<=", rhs=scenario.power_budget, name="power")


def _in_basis(basis: Optional[np.ndarray], vectors: Sequence[np.ndarray]) -> list:
    """Q^H v for each vector, or the vectors themselves without a basis."""
    return list(vectors) if basis is None else [basis.conj().T @ v for v in vectors]


def _lift(x_hat: np.ndarray, basis: np.ndarray, perp=None) -> np.ndarray:
    """A Hermitian block of the reduced SDR in full coordinates.

    A block of size s n, n the columns of Q, is s x s sub-blocks; each
    becomes Q X_ij Q^H + perp_ij (I - Q Q^H), so the lift is
    (I_s (x) Q) X (I_s (x) Q)^H + perp (x) (I - Q Q^H)."""
    b = np.kron(np.eye(x_hat.shape[0] // basis.shape[1]), basis)
    x = b @ x_hat @ b.conj().T
    if perp is not None:
        x = x + np.kron(np.atleast_2d(perp), np.eye(basis.shape[0]) - basis @ basis.conj().T)
    return hermitize(x)


def _infeasible(msg: str, scenario: Scenario, build: Callable[[Scenario], SdpProblem], tail: np.ndarray) -> Infeasible:
    """Infeasible with the ray of the full-size SDR ``build(scenario)`` that is ``tail`` on its last
    K + 1 rows (the SINR rows, then the power row, as _add_sinr_and_power_rows appends them), else 0."""
    p = build(scenario)
    y = np.zeros(len(p.constraints))
    y[-len(tail):] = tail
    return Infeasible(msg, certificate=dual_ray_certificate(p, y))


def _check_least_power(scenario: Scenario, build: Callable[[Scenario], SdpProblem]) -> None:
    """Raise Infeasible with a Farkas ray of the full-size SDR ``build(scenario)``
    when the least power that meets every SINR target exceeds the budget.

    That power is sigma^2 sum lambda_k at the uplink-downlink fixed point
    c_k lambda_k x_k(lambda) = 1, where c_k = 1 + 1/gamma_k,
    M(lambda) = I + sum_j lambda_j h_j h_j^H and x_k = h_k^H M^-1 h_k, solved
    by Newton's method in log lambda.  At any lambda > 0 the matrices
    M(lambda) - c_k lambda_k h_k h_k^H are affine in lambda and equal I at
    lambda = 0, so with e their least eigenvalue, s lambda (s = 1/(1 - e)
    when e < 0, else 1) is feasible for the dual of power minimisation.
    Then y = s lambda_k / gamma_k on SINR row k, -1 on the power row and 0
    elsewhere gives -sum y_i C_i = M(s lambda) - c_k s lambda_k h_k h_k^H on
    W_k and M(s lambda) on WA, and b^T y = sigma^2 s sum lambda - P.  A
    user with a zero channel needs infinite power: y = 1 on its SINR row
    alone has -sum y_i C_i = 0 and b^T y = gamma_k sigma^2 > 0.  Returns
    when Newton converges or breaks down before the bound is passed.  In the
    window P < least power <= P (1 + LEAST_POWER_MARGIN) nothing is certified:
    the SDR then designs within its tolerance or raises SolverFailure.
    """
    k = scenario.n_users
    h = np.column_stack([scenario.user_channel(i) for i in range(k)])
    gamma = scenario.sinr_thresholds
    c = 1.0 + 1.0 / gamma
    sigma2 = scenario.noise_comm
    bound = scenario.power_budget * (1.0 + LEAST_POWER_MARGIN)
    h_norm2 = np.sum(np.abs(h) ** 2, axis=0)
    if np.any(h_norm2 == 0):
        i = int(np.argmin(h_norm2))
        raise _infeasible(f"user {i + 1} has a zero channel", scenario, build, np.eye(k + 1)[i])
    lam = 1.0 / (c * h_norm2)
    for _ in range(LEAST_POWER_MAX_ITER):
        m = np.eye(h.shape[0]) + (h * lam) @ h.conj().T
        try:
            g = h.conj().T @ np.linalg.solve(m, h)
        except np.linalg.LinAlgError:
            return
        if sigma2 * lam.sum() > bound:    # s <= 1, so below the bound no s can pass it
            e = float(np.linalg.eigvalsh(m - np.einsum("ik,jk,k->kij", h, h.conj(), c * lam))[:, 0].min())
            s = 1.0 if e >= 0 else 1.0 / (1.0 - e)
            if sigma2 * s * lam.sum() > bound:
                raise _infeasible(f"SINR targets need at least {sigma2 * s * lam.sum():.6g} mW, budget is "
                                  f"{scenario.power_budget:.6g}", scenario, build, np.append(s * lam / gamma, -1.0))
        x = np.real(np.diag(g))
        phi = np.log(c * lam * x)
        if np.max(np.abs(phi)) <= LEAST_POWER_TOL:
            return
        jac = np.eye(k) - np.abs(g) ** 2 * lam / x[:, None]
        try:
            du = np.linalg.solve(jac, -phi)
        except np.linalg.LinAlgError:
            return
        if not np.all(np.isfinite(du)):
            return
        lam = lam * np.exp(np.clip(du, -LEAST_POWER_STEP, LEAST_POWER_STEP))


def _solve_relaxation(build: Callable[..., SdpProblem], basis: np.ndarray, scenario: Scenario, what: str,
                      opts: Optional[SolveOptions] = None) -> SdpSolution:
    """The least-power pre-check, then the SDR on ``basis``; SolverFailure unless it ends Optimal.

    Only a certified infeasibility builds the full-size SDR, for its ray."""
    _check_least_power(scenario, build)
    sol = solve(build(scenario, basis), opts)
    if sol.status != "Optimal":
        raise SolverFailure(f"{what} SDR ended with status {sol.status} ({sol.termination})")
    return sol


def _guarded_sinrs(beamformers: np.ndarray, w_a: Optional[np.ndarray], scenario: Scenario,
                   sol: SdpSolution, what: str) -> np.ndarray:
    """The achieved SINRs; SolverFailure when one falls short of its target by more than SINR_SHORTFALL."""
    sinrs = achieved_sinrs(beamformers, w_a, scenario.channels, scenario.noise_comm)
    worst = float(np.min(sinrs / scenario.sinr_thresholds))
    if worst < 1 - SINR_SHORTFALL:
        raise SolverFailure(f"{what} design reaches {worst:.3g} of a SINR target after the SDR ended {sol.termination}")
    return sinrs


def build_point_sdp(scenario: Scenario, basis: Optional[np.ndarray] = None) -> SdpProblem:
    """Relaxed CRB-minimization SDP: per-user PSD blocks, free t, 2x2 LMI slack.

    Row layout: 4 coupling rows tying the LMI block P to the trace terms
    (and t), then K SINR rows, then the power row.  ``_point_duals`` and
    ``_check_least_power`` read rows by this position; ``verify.check_kkt_point``
    reads the ``duals`` that ``_point_duals`` names.

    With ``basis`` Q (N_t x d, orthonormal columns whose span holds a, da
    and every h_k) the blocks are d x d and stand for Q W_k Q^H, with the
    same rows on Q^H a, Q^H da and Q^H h_k.  This reduction is exact: every
    row but the power row reads W_k only through those vectors, so a
    block's part outside span Q only spends power and an optimal W_k lies
    inside it.  Without a basis the blocks are N_t x N_t.
    """
    k = scenario.n_users
    a, ad, nb2, nbd2 = point_terms(_point_target(scenario).theta, scenario.geometry)
    a, ad, *channels = _in_basis(basis, [a, ad] + [scenario.user_channel(i) for i in range(k)])

    add = nbd2 * np.outer(a, a.conj()) + nb2 * np.outer(ad, ad.conj())   # A^H A derivative part
    aa = nb2 * np.outer(a, a.conj())
    cross_re = nb2 * (np.outer(ad, a.conj()) + np.outer(a, ad.conj())) / 2
    cross_im = nb2 * (-1j * np.outer(ad, a.conj()) + 1j * np.outer(a, ad.conj())) / 2

    p = SdpProblem()
    names = [f"W{i+1}" for i in range(k)]
    for name in names:
        p.add_block(name, len(a))
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
    _add_sinr_and_power_rows(p, scenario, names, channels)
    return p


def _point_target(scenario: Scenario) -> PointTarget:
    if not isinstance(scenario.target, PointTarget):
        raise ValueError("point design needs a PointTarget scenario")
    return scenario.target


def _point_basis(scenario: Scenario) -> np.ndarray:
    """Q of span{a, da, h_1, ..., h_K} (reduced QR): N_t x min(N_t, K + 2)."""
    a, ad, _, _ = point_terms(_point_target(scenario).theta, scenario.geometry)
    return np.linalg.qr(np.column_stack([a, ad] + [scenario.user_channel(i) for i in range(scenario.n_users)]))[0]


def _lift_point(sol: SdpSolution, basis: np.ndarray, k: int) -> SdpSolution:
    """The reduced point SDR's solution as one of the full-size SDR.

    Rows, y, t and P carry over; W_k = Q W^_k Q^H, and the dual slack
    Z_k = Q Z^_k Q^H + mu_T (I - Q Q^H), which is -sum_i y_i C_i on W_k
    because only the power row reaches outside span Q."""
    mu_t = _point_duals(sol.dual_multipliers, k)["mu_T"]
    primal, dual = dict(sol.primal_blocks), dict(sol.dual_blocks)
    for name in (f"W{i+1}" for i in range(k)):
        primal[name] = _lift(sol.primal_blocks[name], basis)
        dual[name] = _lift(sol.dual_blocks[name], basis, mu_t)
    return replace(sol, primal_blocks=primal, dual_blocks=dual)


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

    Before the SDR, a Newton solve of the power-minimisation fixed point
    (``_check_least_power``) raises ``Infeasible`` with a Farkas ray of
    the SDR when the SINR targets need more than the power budget.  Else
    the SDR is solved as if it had not run, and a status other than Optimal
    or a SINR ``SINR_SHORTFALL`` short of its target raises SolverFailure.

    The SDR is solved on a basis of span{a, da, h_1, ..., h_K}
    (``build_point_sdp``) and lifted: ``diagnostics["sdp"]`` and
    ``"w_blocks"`` are a solution of the full-size ``build_point_sdp(scenario)``.
    """
    target = scenario.target
    k = scenario.n_users
    basis = _point_basis(scenario)
    # polished a decade past the solver's default: the reduced SDR's iterations are cheap, and the
    # small eigenvalues of a block that RANK_ONE_RATIO reads shrink with the complementarity
    opts = SolveOptions(target_tol=1e-11)
    sol = _lift_point(_solve_relaxation(build_point_sdp, basis, scenario, "point", opts), basis, k)

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
    sinrs = _guarded_sinrs(beamformers, None, scenario, sol, "point")
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

def _epigraph_rows(n: int) -> list:
    """(i, j, imag) of the rows on E, in build order: Re and Im of E[i, n + j]
    for every i, j (the identity rows), then Re E[n + i, n + j] for i <= j,
    each followed by Im E[n + i, n + j] when i < j (the covariance rows)."""
    identity = [(i, n + j, imag) for i in range(n) for j in range(n) for imag in (False, True)]
    covariance = [(n + i, n + j, imag) for i in range(n) for j in range(i, n)
                  for imag in ((False, True) if i != j else (False,))]
    return identity + covariance


def build_extended_sdp(scenario: Scenario, basis: Optional[np.ndarray] = None) -> SdpProblem:
    """Epigraph form of the trace-inverse SDR.

    Variables: user blocks W_k, auxiliary covariance WA (the slack making
    R_X = sum W_k + WA), and the Schur block E = [[T, I], [I, R_X]] whose
    upper-left trace is the objective.  Rows: the identity rows of E, its
    covariance rows (``_epigraph_rows``), then K SINR rows and the power row.

    With ``basis`` Q (N_t x n, orthonormal columns whose span holds every
    h_k) the blocks W_k, WA are n x n and E is 2n x 2n, with the same rows
    on Q^H h_k, and m = N_t - n > 0 adds a block C = [[tau, sqrt m],
    [sqrt m, c]] (two rows fix its off-diagonal) for the complement of
    span Q: tau joins the objective and m c the power row.  The lift
    R_X = Q R^ Q^H + c (I - Q Q^H), T = Q T^ Q^H + (tau / m)(I - Q Q^H)
    keeps every row, the objective and E's PSD-ness; ``_lift_extended``
    lifts a solution so and reads its multipliers off the lifted dual
    slacks.  This reduction is exact: a unitary that fixes every h_k maps
    the full SDR's optimal points to optimal points, and tr R^-1 is
    strictly convex, so the optimal R_X commutes with all of them and has
    this form, as the single-user closed form does with its
    ``lambda_rest``.  Without a basis the blocks are N_t x N_t and there
    is no C.
    """
    n_t, k = scenario.geometry.n_tx, scenario.n_users
    channels = _in_basis(basis, [scenario.user_channel(i) for i in range(k)])
    n = len(channels[0])
    names = [f"W{i+1}" for i in range(k)] + ["WA"]
    p = SdpProblem()
    for name in names:
        p.add_block(name, n)
    p.add_block("E", 2 * n)
    obj = np.zeros((2 * n, 2 * n), dtype=complex)
    obj[:n, :n] = np.eye(n)
    objective = {"E": obj}

    minus_one = -1.0
    for i, j, imag in _epigraph_rows(n):
        elem = elem_im if imag else elem_re
        coeffs = {"E": elem(2 * n, i, j)}
        if i >= n:
            for name in names:
                coeffs[name] = minus_one * elem(n, i - n, j - n)
        p.add_constraint(coeffs, sense="==", rhs=1.0 if j == n + i and not imag else 0.0)
    extra_power = {}
    m = n_t - n
    if m > 0:
        p.add_block("C", 2)
        objective["C"] = elem_re(2, 0, 0)
        p.add_constraint({"C": elem_re(2, 0, 1)}, sense="==", rhs=np.sqrt(m))
        p.add_constraint({"C": elem_im(2, 0, 1)}, sense="==", rhs=0.0)
        extra_power["C"] = m * elem_re(2, 1, 1)
    p.set_objective(objective)
    _add_sinr_and_power_rows(p, scenario, names, channels, extra_power)
    return p


def _extended_basis(scenario: Scenario) -> np.ndarray:
    """Q of span{h_1, ..., h_K} (reduced QR): N_t x min(N_t, K)."""
    return np.linalg.qr(np.column_stack([scenario.user_channel(i) for i in range(scenario.n_users)]))[0]


def _epigraph_row_values(m: np.ndarray, n: int) -> np.ndarray:
    """The multipliers y of the rows on E with sum_i y_i C_i = m where a row reaches (m Hermitian)."""
    i, j, imag = np.array(_epigraph_rows(n), dtype=int).T
    return np.where(imag, 2 * m[i, j].imag, np.where(i == j, 1.0, 2.0) * m[i, j].real)


def _lift_extended(sol: SdpSolution, basis: np.ndarray, k: int) -> SdpSolution:
    """The reduced epigraph SDR's solution as one of the full-size SDR.

    R_X's complement c (I - Q Q^H) is shared evenly, W_k = Q W^_k Q^H +
    c / (K + 1) (I - Q Q^H) and WA likewise.  Only the power and
    covariance rows see the complement, and only through the sum, so any
    split is optimal; the even one is the analytic centre of the splits,
    the point an interior-point solve of the full SDR converges to.  E
    takes its complement from C scaled to one dimension, [[tau / m,
    C_01 / sqrt m], [., c]], and its dual slack from C's, [[Z_00,
    Z_01 / sqrt m], [., Z_11 / m]]; Z_k = Q Z^_k Q^H, as for WA.

    The SINR and power rows keep their multipliers.  Only the 3 N_t^2
    rows on E reach E, so their sum_i y_i C_i there is C_E - Z_E, with
    C_E = [[I, 0], [0, 0]] E's objective; their multipliers are read off it.
    """
    n_t, n = basis.shape
    m = n_t - n
    x_perp = z_perp = None
    if m > 0:
        x_c, z_c = sol.primal_blocks["C"], sol.dual_blocks["C"]
        to_x, to_z = np.diag([1 / np.sqrt(m), 1.0]), np.diag([1.0, 1 / np.sqrt(m)])
        x_perp, z_perp = to_x @ x_c @ to_x, to_z @ z_c @ to_z
    names = [f"W{i+1}" for i in range(k)] + ["WA"]
    share = None if x_perp is None else x_perp[1, 1].real / len(names)
    primal = {name: _lift(sol.primal_blocks[name], basis, share) for name in names}
    primal["E"] = _lift(sol.primal_blocks["E"], basis, x_perp)
    dual = {name: _lift(sol.dual_blocks[name], basis) for name in names}
    dual["E"] = _lift(sol.dual_blocks["E"], basis, z_perp)
    c_e = np.kron(np.diag([1.0, 0.0]), np.eye(n_t))
    y_full = np.concatenate([_epigraph_row_values(c_e - dual["E"], n_t), sol.dual_multipliers[-k - 1:]])
    return replace(sol, primal_blocks=primal, dual_blocks=dual, dual_multipliers=y_full)


def extract_rank_one(
    r_bar: np.ndarray,
    w_bars: Sequence[np.ndarray],
    channels: Sequence[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Lossless rank-one extraction from a relaxed extended-target solution.

    User k's beamformer is w_k = W_k h_k / sqrt(h_k^H W_k h_k) for its
    relaxed block W_k and channel h_k: w_k w_k^H keeps the useful power
    h_k^H W_k h_k and lies below W_k, so the leftover covariance
    R - sum w_k w_k^H is PSD.  Returns the (N_t, K) beamformer matrix and
    the auxiliary beamformer W_A = psd_sqrt(R - sum w_k w_k^H), so that the
    total covariance, objective and every SINR are unchanged.
    """
    r_bar = hermitize(np.asarray(r_bar, dtype=complex))
    beamformers = np.zeros((r_bar.shape[0], len(w_bars)), dtype=complex)
    for i, (w_bar, h) in enumerate(zip(w_bars, channels)):
        useful = float(np.real(h.conj() @ w_bar @ h))
        if useful <= 1e-12 * max(np.real(np.trace(w_bar)), 1e-300):
            raise ZeroUsefulPower(f"useful power {useful:.3e} vanishes for a user block")
        beamformers[:, i] = (w_bar @ h) / np.sqrt(useful)
    residual = hermitize(r_bar - beamformers @ beamformers.conj().T)
    try:
        w_a = psd_sqrt(residual)
    except NotPSD as exc:
        raise ResidualNotPSD(f"covariance residual not PSD after extraction: {exc}") from exc
    return beamformers, w_a


def design_extended_multi(scenario: Scenario, opts: Optional[SolveOptions] = None) -> DesignSolution:
    """Multi-user extended-target design: epigraph SDR plus rank-one extraction.

    The same least-power pre-check as ``design_point_multi`` runs first and
    raises ``Infeasible`` with a Farkas ray of the epigraph SDR when the
    SINR targets need more than the power budget; otherwise the SDR is
    solved as if it had not run, and fails as in ``design_point_multi``.

    The SDR is solved on a basis of span{h_1, ..., h_K}
    (``build_extended_sdp``) and lifted (``_lift_extended``):
    ``diagnostics["sdp"]``, ``"w_bars"`` and ``"w_aux_bar"`` are a
    solution of the full-size ``build_extended_sdp(scenario)``.
    """
    opts = opts or SolveOptions(target_tol=1e-9)
    k = scenario.n_users
    basis = _extended_basis(scenario)
    sol = _lift_extended(_solve_relaxation(build_extended_sdp, basis, scenario, "extended", opts), basis, k)
    w_bars = [sol.primal_blocks[f"W{i+1}"] for i in range(k)]
    w_aux_bar = sol.primal_blocks["WA"]
    r_bar = sum(w_bars) + w_aux_bar
    beamformers, w_a = extract_rank_one(r_bar, w_bars, [scenario.user_channel(i) for i in range(k)])
    sinrs = _guarded_sinrs(beamformers, w_a, scenario, sol, "extended")
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
            "sdp": sol,
        },
    )
