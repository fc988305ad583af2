"""Independent correctness checks for the benchmark's outputs.

Everything here is recomputed with plain numpy from the inputs (channels,
powers, target angle) and the outputs (beamformers, covariances, dual
rays), following the paper's formulas.  No check compares against a
stored copy of earlier output.  Each check returns a list of failure
messages; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

# Tolerances, all relative.  The solver's tolerance (1e-7) bounds residuals
# of rows scaled to unit coefficient norm; an SINR row's coefficients grow
# with gamma * (K - 1), so Optimal point solves at 20-32 dB fall short of
# the SINR target by up to 7e-5 on this benchmark's inputs (1.6e-4 on other
# draws), and their relative duality gap, to which the KKT residuals
# follow, reaches 1.2e-5 (5.6e-5).  The traced run counts those solves as
# sdp.gap_over_tol and sdp.primal_over_tol.  The tolerances below sit an
# order of magnitude above what was seen, and far below what a wrong
# design would give.
SINR_TOL = 1e-3          # achieved SINR >= gamma * (1 - SINR_TOL)
POWER_TOL = 1e-6         # total power <= P * (1 + POWER_TOL)
COV_TOL_POINT = 1e-5     # ||R - sum w w^H||_F / ||R||_F, point design (rank-one truncation)
COV_TOL_EXT = 1e-8       # same for the lossless extended extraction
CRB_TOL = 1e-5           # recomputed CRB against the reported objective
MONO_TOL = 1e-3          # CRB may fall by at most this share when gamma or K grows
RADAR_ONLY_TOL = 1e-6    # extended objective vs radar-only optimum when SINRs are slack
KKT_TOL = 1e-4           # check_kkt_point's max residual (its own default is 1e-6)
DUAL_GAP_TOL = 1e-5      # extended design: objective vs the dual bound, relative (seen: about 1e-6)
RAY_TOL = 1e-7           # dual ray: cone, sign and free-column violation per unit |y|
MC_SIGMAS = 5.0          # Monte Carlo bands: this many standard errors
MC_POINT_SLACK = 0.2     # ML angle estimator's allowed excess over the root-CRB at high SNR


def steering(theta: float, n: int) -> np.ndarray:
    """ULA steering vector referenced to the array centre, half-wavelength spacing."""
    m = np.arange(n) - (n - 1) / 2
    return np.exp(1j * np.pi * m * np.sin(theta))


def steering_deriv(theta: float, n: int) -> np.ndarray:
    m = np.arange(n) - (n - 1) / 2
    return 1j * np.pi * m * np.cos(theta) * steering(theta, n)


def sinrs(channels: np.ndarray, beamformers: np.ndarray, aux, noise: float) -> np.ndarray:
    """Per-user SINR; rows of ``channels`` are h_k^H, ``aux`` (or None) interferes with everyone."""
    k = channels.shape[0]
    out = np.empty(k)
    for i in range(k):
        h = channels[i]
        signal = abs(h @ beamformers[:, i]) ** 2
        interference = sum(abs(h @ beamformers[:, j]) ** 2 for j in range(beamformers.shape[1]) if j != i)
        if aux is not None:
            interference += float(np.sum(np.abs(h @ aux) ** 2))
        out[i] = signal / (interference + noise)
    return out


def crb_point(r_x: np.ndarray, theta: float, alpha: complex, n_rx: int, frame_len: int, noise_radar: float) -> float:
    """CRB(theta) = s2 tr(A^H A R) / (2 |alpha|^2 L [tr(Ad^H Ad R) tr(A^H A R) - |tr(Ad^H A R)|^2]).

    A = b a^H and Ad = dA/dtheta, built as full N_r x N_t matrices.
    """
    n_tx = r_x.shape[0]
    a, ad = steering(theta, n_tx), steering_deriv(theta, n_tx)
    b, bd = steering(theta, n_rx), steering_deriv(theta, n_rx)
    big_a = np.outer(b, a.conj())
    big_ad = np.outer(bd, a.conj()) + np.outer(b, ad.conj())
    t_aa = np.real(np.trace(big_a.conj().T @ big_a @ r_x))
    t_dd = np.real(np.trace(big_ad.conj().T @ big_ad @ r_x))
    t_da = np.trace(big_ad.conj().T @ big_a @ r_x)
    return float(noise_radar * t_aa / (2 * abs(alpha) ** 2 * frame_len * (t_dd * t_aa - abs(t_da) ** 2)))


def crb_extended(r_x: np.ndarray, n_rx: int, frame_len: int, noise_radar: float) -> float:
    """CRB of the full response matrix: s2 N_r / L tr(R^-1)."""
    return float(noise_radar * n_rx / frame_len * np.real(np.trace(np.linalg.inv(r_x))))


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check_design(case, sol, extended: bool) -> list:
    """SINRs, power, covariance and CRB of one multi-user design, from its beamformers."""
    fails = []
    w = np.asarray(sol.comm_beamformers)
    aux = np.asarray(sol.aux_beamformer) if extended else None
    if w.shape != (case.n_tx, case.k):
        return [f"{case.label}: beamformers have shape {w.shape}"]
    achieved = sinrs(case.channels, w, aux, case.noise)
    if np.any(achieved < case.gamma * (1 - SINR_TOL)):
        fails.append(f"{case.label}: SINR {achieved.min():.6g} below {case.gamma:.6g}")
    r_w = w @ w.conj().T + (aux @ aux.conj().T if extended else 0)
    power = float(np.real(np.trace(r_w)))
    if power > case.power * (1 + POWER_TOL):
        fails.append(f"{case.label}: power {power:.8g} above budget {case.power:.8g}")
    r_rep = np.asarray(sol.covariance)
    cov_err = float(np.linalg.norm(r_rep - r_w) / np.linalg.norm(r_rep))
    if cov_err > (COV_TOL_EXT if extended else COV_TOL_POINT):
        fails.append(f"{case.label}: covariance differs from sum w w^H by {cov_err:.2e}")
    if extended:
        crb = crb_extended(r_w, case.n_rx, case.frame_len, case.noise)
    else:
        crb = crb_point(r_w, case.theta, 1.0, case.n_rx, case.frame_len, case.noise)
    if not (math.isfinite(sol.objective) and rel_err(crb, sol.objective) <= CRB_TOL):
        fails.append(f"{case.label}: objective {sol.objective!r} vs recomputed CRB {crb:.10g}")
    return fails


def slack_certified(channels: np.ndarray, gamma: float, power: float, noise: float) -> bool:
    """True when the radar-only covariance (P/N_t) I can serve every user at ``gamma``.

    With R fixed at p I (p = P/N_t) and W_A = p I - sum w w^H, user k's
    interference plus aux power is p ||h_k||^2 - |h_k^H w_k|^2, so its SINR
    is g_k / (p ||h_k||^2 - g_k + noise) with g_k = |h_k^H w_k|^2.  Taking
    w_k = sqrt(p) u_k with u_k the symmetric orthonormalisation of the
    channel directions keeps sum w w^H <= p I; if that already meets
    gamma, the SINR constraints cannot bind.
    """
    n_tx = channels.shape[1]
    p = power / n_tx
    h = channels.conj().T                       # columns h_k
    u, _, vh = np.linalg.svd(h, full_matrices=False)
    q = u @ vh                                  # closest orthonormal columns to h
    g = p * np.abs(np.sum(h.conj() * q, axis=0)) ** 2
    sinr = g / (p * np.sum(np.abs(h) ** 2, axis=0) - g + noise)
    return bool(np.all(sinr >= gamma))


def check_extended_bound(case, sol) -> list:
    """Objective >= radar-only optimum s2 N_r N_t^2 / (L P), with equality when SINRs are slack."""
    radar_only = case.noise * case.n_rx * case.n_tx**2 / (case.frame_len * case.power)
    fails = []
    if sol.objective < radar_only * (1 - 1e-9):
        fails.append(f"{case.label}: objective {sol.objective:.10g} below radar-only optimum {radar_only:.10g}")
    if slack_certified(case.channels, case.gamma, case.power, case.noise) and rel_err(sol.objective, radar_only) > RADAR_ONLY_TOL:
        fails.append(f"{case.label}: SINRs slack but objective {sol.objective:.10g} != radar-only {radar_only:.10g}")
    return fails


def check_extended_dual(case, sol, problem, y) -> list:
    """Certify the extended design optimal from the epigraph SDP's multipliers.

    ``problem`` is the epigraph SDP (objective tr T, blocks W_k, W_A of
    size N_t and E = [[T, I], [I, R]] of size 2 N_t) and ``y`` its dual
    multipliers.  After moving each y_i into its sign cone (>= 0 on '>='
    rows, <= 0 on '<=' rows), weak duality gives, for the optimum X*,
    tr T* >= b^T y - sum_b max(0, -lambda_min(Z_b)) tr X*_b with
    Z_b = C_b - sum_i y_i C_i,b.  The traces are bounded by the power
    budget (tr W_k, tr W_A <= P) and by tr T* + tr R* <= tr R^-1 + P for
    E, where R is the design's covariance.  The design's objective, the
    CRB of a covariance check_design found feasible, must then lie
    within DUAL_GAP_TOL of that lower bound, on either side.
    """
    y = np.asarray(y, dtype=float)
    cons = problem.constraints
    if y.shape != (len(cons),) or not np.all(np.isfinite(y)):
        return [f"{case.label}: dual multipliers have shape {y.shape} for {len(cons)} rows or are not finite"]
    sense = np.array([c.sense for c in cons])
    y = np.where(sense == ">=", np.maximum(y, 0.0), np.where(sense == "<=", np.minimum(y, 0.0), y))
    scale = case.noise * case.n_rx / case.frame_len          # CRB = scale * tr R^-1
    trace_inv = sol.objective / scale
    lower = float(np.array([c.rhs for c in cons]) @ y)
    for name, dim in problem.blocks:
        z = np.array(problem.objective_blocks.get(name, np.zeros((dim, dim))), dtype=complex)
        for yi, c in zip(y, cons):
            if name in c.block_coeffs:
                z -= yi * np.asarray(c.block_coeffs[name])
        lam = float(np.linalg.eigvalsh((z + z.conj().T) / 2)[0])
        trace_bound = trace_inv + case.power if dim == 2 * case.n_tx else case.power
        lower -= max(0.0, -lam) * trace_bound
    gap = (trace_inv - lower) / trace_inv
    if not abs(gap) <= DUAL_GAP_TOL:
        return [f"{case.label}: objective {sol.objective:.10g} vs dual bound {scale * lower:.10g} "
                f"(relative gap {gap:.2e})"]
    return []


def check_kkt(case, sol, check_kkt_point, scenario) -> list:
    worst = check_kkt_point(sol, None, scenario).max_residual()
    if not worst <= KKT_TOL:
        return [f"{case.label}: KKT residual {worst:.2e} above {KKT_TOL:.0e}"]
    return []


def check_dual_ray(label: str, problem, y) -> list:
    """Verify a Farkas ray for an SdpProblem from its data alone.

    With y_i the multiplier of constraint i: b^T y > 0; y_i >= 0 on '>=' rows
    and <= 0 on '<=' rows; -sum_i y_i C_i PSD on every block; and
    sum_i y_i a_i = 0 on every free scalar.  Any feasible point would then
    give 0 >= sum_i y_i (<C_i, X> + a_i t) - (slack terms) = b^T y > 0.
    """
    y = np.asarray(y, dtype=float)
    cons = problem.constraints
    if y.shape != (len(cons),) or not np.all(np.isfinite(y)):
        return [f"{label}: dual ray has shape {y.shape} for {len(cons)} rows or is not finite"]
    y = y / np.linalg.norm(y)
    fails = []
    b = np.array([c.rhs for c in cons])
    coeff_scale = max(
        [1.0] + [float(np.linalg.norm(m)) for c in cons for m in c.block_coeffs.values()]
    )
    if not float(b @ y) > RAY_TOL * max(1.0, float(np.linalg.norm(b))):
        fails.append(f"{label}: b^T y = {float(b @ y):.3e} is not positive")
    for yi, c in zip(y, cons):
        if (c.sense == ">=" and yi < -RAY_TOL) or (c.sense == "<=" and yi > RAY_TOL):
            fails.append(f"{label}: multiplier {yi:.3e} of a {c.sense!r} row has the wrong sign")
            break
    for name, dim in problem.blocks:
        s = np.zeros((dim, dim), dtype=complex)
        for yi, c in zip(y, cons):
            if name in c.block_coeffs:
                s -= yi * np.asarray(c.block_coeffs[name])
        lam = float(np.linalg.eigvalsh((s + s.conj().T) / 2)[0])
        if lam < -RAY_TOL * coeff_scale:
            fails.append(f"{label}: -sum y_i C_i has eigenvalue {lam:.3e} on block {name}")
    for sname in problem.free_scalars:
        col = sum(yi * c.scalar_coeffs.get(sname, 0.0) for yi, c in zip(y, cons))
        if abs(col) > RAY_TOL * coeff_scale:
            fails.append(f"{label}: free column {sname} gives {col:.3e}, not 0")
    return fails


def check_monotone(label: str, values) -> list:
    """CRB (or None for infeasible) along growing demand never falls; infeasible stays infeasible."""
    fails = []
    prev = None
    for name, v in values:
        if prev is not None:
            pname, pv = prev
            if pv is None and v is not None:
                fails.append(f"{label}: {name} feasible after {pname} was infeasible")
            elif pv is not None and v is not None and v < pv * (1 - MONO_TOL):
                fails.append(f"{label}: CRB falls from {pv:.10g} at {pname} to {v:.10g} at {name}")
        prev = (name, v)
    return fails


def mc_extended_band(r_x: np.ndarray, n_rx: int, trials: int) -> tuple:
    """Band for MSE/CRB of the least-squares response estimate over ``trials`` trials.

    The estimate's error has covariance (s2 / L) R^-1 per receive row, so
    ||G_hat - G||^2 is a weighted sum of N_r N_t unit exponentials with
    weights lambda_i(R^-1): mean N_r sum lambda, variance N_r sum lambda^2.
    """
    lam = np.linalg.eigvalsh(np.linalg.inv(r_x))
    sd = math.sqrt(n_rx * float(np.sum(lam**2))) / (n_rx * float(np.sum(lam))) / math.sqrt(trials)
    return 1 - MC_SIGMAS * sd, 1 + MC_SIGMAS * sd


def mc_point_band(trials: int, high_snr: bool) -> tuple:
    """Band for RMSE/root-CRB: an efficient estimator's MSE/CRB is chi^2_n / n, sd sqrt(2/n).

    The ratio of roots then has sd sqrt(1/(2n)).  Below the high-SNR regime
    the ML estimator may exceed the bound by any amount, so only the lower
    edge applies there.
    """
    sd = math.sqrt(1 / (2 * trials))
    upper = 1 + MC_POINT_SLACK + MC_SIGMAS * sd if high_snr else math.inf
    return 1 - MC_SIGMAS * sd, upper
