"""Independent verifiers for the optimality structure of point designs.

These re-derive everything from the reported primal/dual values and the
problem data (channels, steering vectors), rather than trusting solver
bookkeeping: the Schur-complement equivalence for the objective
transform, the stationarity/complementarity system of the relaxed
multi-user problem, the closed-form nonzero eigenvalues of the gradient
matrix F, and the full-column-rank condition behind the rank-one
guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .arrays import ArrayGeometry, point_terms, steering, steering_deriv, steering_deriv_norm_sq
from .errors import DegenerateDenominator
from .metrics import DesignSolution, Scenario, point_traces
from .numerics import hermitize, min_eig


@dataclass
class KktReport:
    stationarity_residual: float
    complementarity_residuals: dict = field(default_factory=dict)
    dual_feasibility: dict = field(default_factory=dict)
    active_set: list = field(default_factory=list)
    phi: float = 1.0
    beta: complex = 0.0
    gamma: float = 0.0
    details: dict = field(default_factory=dict)

    def max_residual(self) -> float:
        vals = [self.stationarity_residual]
        vals.extend(self.complementarity_residuals.values())
        vals.extend(max(0.0, -v) for v in self.dual_feasibility.values())
        return float(max(vals))

    def summary(self) -> str:
        lines = [
            f"stationarity residual: {self.stationarity_residual:.3e}",
            f"phi: {self.phi:.12f}  beta: {self.beta:.6e}  gamma: {self.gamma:.6e}",
            f"active SINR constraints: {self.active_set}",
        ]
        for k, v in sorted(self.complementarity_residuals.items()):
            lines.append(f"complementarity[{k}]: {v:.3e}")
        for k, v in sorted(self.dual_feasibility.items()):
            lines.append(f"min-eig[{k}]: {v:.3e}")
        return "\n".join(lines)


def check_schur(r_x: np.ndarray, theta: float, geometry: ArrayGeometry) -> Tuple[float, float]:
    """Largest t keeping the 2x2 information LMI PSD, two independent ways.

    Returns ``(t_from_lmi_bisection, t_closed_form)``; the closed form is
    the Schur complement t = tr_dd - |tr_da|^2 / tr_aa.
    """
    t_aa, t_da, t_dd = point_traces(r_x, theta, geometry)
    if t_aa <= 1e-14 * max(1.0, abs(t_dd)):
        raise DegenerateDenominator(f"tr(A^H A R) = {t_aa:.3e} too small for the Schur form")
    t_closed = t_dd - abs(t_da) ** 2 / t_aa

    def feasible(t):
        # [[t_dd - t, t_da], [conj(t_da), t_aa]] >= 0 given t_aa > 0
        return t_dd - t >= 0 and (t_dd - t) * t_aa - abs(t_da) ** 2 >= 0

    lo, hi = 0.0, t_dd
    if not feasible(lo):
        lo = -abs(t_dd)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(1.0, abs(t_dd)):
            break
    return lo, t_closed


def gradient_matrix_f(
    geometry: ArrayGeometry, theta: float, beta: complex, phi: float = 1.0
) -> np.ndarray:
    """Rank-2 gradient matrix of the LMI term, parameterized by the dual block."""
    a, ad, nb2, nbd2 = point_terms(theta, geometry)
    gamma = abs(beta) ** 2
    f = (phi * nbd2 + gamma * nb2) * np.outer(a, a.conj())
    f = f + phi * nb2 * np.outer(ad, ad.conj())
    f = f + nb2 * (beta * np.outer(a, ad.conj()) + np.conj(beta) * np.outer(ad, a.conj()))
    return hermitize(f)


def eig_f(beta: complex, geometry: ArrayGeometry, theta: float = 0.0) -> Tuple[float, float]:
    """Closed-form nonzero eigenvalues of the gradient matrix F.

    The small eigenvalue uses the product identity
    lambda_1 * lambda_2 = N_t N_r ||db||^2 ||da||^2, which avoids the
    cancellation of the quadratic formula at large |beta|.
    """
    n_t, n_r = geometry.n_tx, geometry.n_rx
    nad2 = steering_deriv_norm_sq(theta, n_t)
    nbd2 = steering_deriv_norm_sq(theta, n_r)
    big = n_t * (nbd2 + abs(beta) ** 2 * n_r)
    small = n_r * nad2
    disc = np.sqrt((big - small) ** 2 + 4 * abs(beta) ** 2 * n_t * n_r**2 * nad2)
    lam1 = 0.5 * (big + small + disc)
    lam2 = n_t * n_r * nbd2 * nad2 / lam1
    return float(lam1), float(lam2)


def check_rank_one_condition(channels: np.ndarray, theta: float, geometry: ArrayGeometry) -> Tuple[bool, dict]:
    """Full-column-rank test of D = H [a, da] underpinning the rank-one guarantee.

    Singular values are measured against the data scale ||H|| ||[a, da]||
    as well as sigma_max, so a numerically annihilated D reports rank 0
    instead of inheriting rank from roundoff noise.
    """
    a = steering(theta, geometry.n_tx)
    ad = steering_deriv(theta, geometry.n_tx)
    stack = np.column_stack([a, ad])
    d = np.asarray(channels) @ stack
    s = np.linalg.svd(d, compute_uv=False)
    scale = max(float(s[0]) if s.size else 0.0,
                1e-9 * float(np.linalg.norm(channels)) * float(np.linalg.norm(stack, 2)))
    rank = int(np.count_nonzero(s > 1e-6 * scale)) if scale > 0 else 0
    return rank == 2, {"rank": rank, "singular_values": s, "shape": d.shape}


def check_kkt_point(solution: DesignSolution, duals: Optional[dict], scenario: Scenario) -> KktReport:
    """Re-derive the KKT system of the relaxed point design and measure residuals.

    Uses only the multipliers (mu_k, mu_T) and the 2x2 dual block entries
    (phi, beta, gamma) recovered from the solver, rebuilding F, F_bar and
    every Z_k from problem data.  ``stationarity_residual`` compares the
    rebuilt Z_k against the solver's dual blocks when those are present;
    ``details["passes"]`` holds when every residual is at most 1e-6.
    """
    if duals is None:
        duals = solution.diagnostics["duals"]
    target = scenario.target
    k = scenario.n_users
    mu = np.asarray(duals["mu"], dtype=float)
    mu_t = float(duals["mu_T"])
    phi = float(duals["phi"])
    beta = complex(duals["beta"])
    gamma = float(duals["gamma"])
    w_blocks = solution.diagnostics.get("w_blocks")
    if w_blocks is None:
        raise ValueError("solution does not carry the relaxed blocks")

    q_list = []
    for i in range(k):
        h = scenario.user_channel(i)
        q_list.append(np.outer(h, h.conj()))
    gammas = scenario.sinr_thresholds

    f = gradient_matrix_f(scenario.geometry, target.theta, beta, phi=phi)
    f_bar = f - sum(mu[i] * gammas[i] * q_list[i] for i in range(k))

    report = KktReport(
        stationarity_residual=0.0,
        phi=phi,
        beta=beta,
        gamma=gamma,
    )
    report.complementarity_residuals["phi_minus_one"] = abs(phi - 1.0)
    scale_b = max(1.0, abs(beta) ** 2)
    report.complementarity_residuals["gamma_vs_beta_sq"] = abs(gamma - abs(beta) ** 2) / scale_b

    stat = 0.0
    sdp_sol = solution.diagnostics.get("sdp")
    for i in range(k):
        z_i = mu_t * np.eye(scenario.geometry.n_tx) - f_bar - mu[i] * (1 + gammas[i]) * q_list[i]
        z_i = hermitize(z_i)
        scale = max(1.0, float(np.linalg.norm(z_i)))
        report.dual_feasibility[f"Z_{i+1}"] = min_eig(z_i) / scale
        w_i = w_blocks[i]
        report.complementarity_residuals[f"tr_Z_W_{i+1}"] = abs(
            float(np.real(np.trace(z_i @ w_i)))
        ) / ((1.0 + np.linalg.norm(z_i)) * (1.0 + np.linalg.norm(w_i)))
        if sdp_sol is not None:
            z_solver = sdp_sol.dual_blocks[f"W{i+1}"]
            stat = max(stat, float(np.linalg.norm(z_i - z_solver)) / scale)
    report.stationarity_residual = stat

    # constraint slacks and multiplier complementarity: each product mu * slack
    # is one term of the duality gap, so it is measured against the objective
    # scale (its natural unit); the sum of these products IS the gap
    t_star = solution.diagnostics.get("t_star")
    obj_scale = 1.0 + abs(t_star or 0.0)
    gains = np.array(
        [float(np.real(np.trace(q_list[i] @ w_blocks[i]))) for i in range(k)]
    )
    for i in range(k):
        interf = sum(
            float(np.real(np.trace(q_list[i] @ w_blocks[j]))) for j in range(k) if j != i
        )
        slack = gains[i] - gammas[i] * interf - gammas[i] * scenario.noise_comm
        report.complementarity_residuals[f"mu_slack_{i+1}"] = abs(mu[i] * slack) / obj_scale
    total_power = float(np.real(sum(np.trace(w) for w in w_blocks)))
    report.complementarity_residuals["power"] = (
        abs(mu_t * (total_power - scenario.power_budget)) / obj_scale
    )

    z_p = np.array([[phi, beta], [np.conj(beta), gamma]])
    report.dual_feasibility["Z_P"] = min_eig(z_p) / max(1.0, float(np.linalg.norm(z_p)))
    r_x = hermitize(sum(w_blocks))
    t_aa, t_da, t_dd = point_traces(r_x, target.theta, scenario.geometry)
    if t_star is not None:
        p_mat = np.array([[t_dd - t_star, t_da], [np.conj(t_da), t_aa]])
        report.complementarity_residuals["tr_Zp_P"] = abs(
            float(np.real(np.trace(z_p @ p_mat)))
        ) / ((1.0 + np.linalg.norm(z_p)) * (1.0 + np.linalg.norm(p_mat)))
        report.details["p_matrix"] = p_mat
    report.active_set = [i for i in range(k) if mu[i] > 1e-8 * max(1.0, mu_t)]
    report.details["mu"] = mu
    report.details["mu_T"] = mu_t
    report.details["passes"] = report.max_residual() <= 1e-6
    return report
