"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria with stated
runtime budgets are far below them at the chosen instance sizes; sizes
not pinned by a criterion are chosen to keep the suite fast (see the
individual tests).
"""

import numpy as np
import pytest

from crbeam.arrays import ArrayGeometry, PointTarget
from crbeam.designs import (
    design_extended_multi,
    design_extended_single,
    design_point_multi,
    design_point_single,
)
from crbeam.errors import RankExcess
from crbeam.experiments import config_for, run_fig2, run_fig4, run_fig5, run_fig6, run_fig7
from crbeam.metrics import Scenario, achieved_sinrs, db_to_linear, radar_alpha_from_snr
from crbeam.numerics import herm_eig, hermitize
from crbeam.sim import monte_carlo_extended, monte_carlo_point
from crbeam.verify import check_kkt_point, check_schur, check_rank_one_condition, eig_f, gradient_matrix_f

from conftest import complex_gaussian, lossless_extraction_error, make_scenario, random_psd


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_closed_form_vs_sdr_agreement():
    """50 point + 50 extended single-user scenarios agree within 1e-4."""
    rng = np.random.default_rng(101)
    worst_point = 0.0
    for _ in range(50):
        geom = ArrayGeometry(16, 20)
        h1 = complex_gaussian(rng, 16)
        gamma = db_to_linear(rng.uniform(5.0, 30.0))
        scen = Scenario(geom, h1.conj()[None, :], [gamma], 1000.0, 1.0, 1.0, 30, PointTarget(0.0, 1.0))
        closed = design_point_single(scen)
        try:
            sdr_obj = design_point_multi(scen).objective
        except RankExcess as exc:
            sdr_obj = exc.solution.objective
        worst_point = max(worst_point, abs(closed.objective - sdr_obj) / closed.objective)
    worst_ext = 0.0
    for i in range(50):
        n_tx, n_rx = (4, 6) if i % 2 else (8, 10)
        geom = ArrayGeometry(n_tx, n_rx)
        h1 = complex_gaussian(rng, n_tx)
        gamma = db_to_linear(rng.uniform(5.0, 25.0))
        scen = Scenario(geom, h1.conj()[None, :], [gamma], 1000.0, 1.0, 1.0, 30)
        closed = design_extended_single(
            h1, gamma, 1000.0, 1.0, geom, frame_len=30, noise_radar=1.0
        )
        sdr = design_extended_multi(scen)
        worst_ext = max(worst_ext, abs(closed.objective - sdr.objective) / closed.objective)
    ok = worst_point <= 1e-4 and worst_ext <= 1e-4
    report(1, ok, f"max relative gap: point {worst_point:.2e}, extended {worst_ext:.2e} (tol 1e-4)")


def test_criterion_2_rank_one_property():
    """100 multi-user point instances: every relaxed block is rank one."""
    rng = np.random.default_rng(202)
    combos = [(k, g) for k in (2, 4, 6) for g in (5.0, 10.0, 15.0)]
    worst = 0.0
    count = 0
    while count < 100:
        k, gamma_db = combos[count % len(combos)]
        channels = complex_gaussian(rng, (k, 16))
        scen = Scenario(
            ArrayGeometry(16, 20), channels, np.full(k, db_to_linear(gamma_db)),
            1000.0, 1.0, 1.0, 30, PointTarget(0.0, 1.0),
        )
        full_rank, _ = check_rank_one_condition(channels, 0.0, scen.geometry)
        if not full_rank:
            continue
        sol = design_point_multi(scen)
        worst = max(worst, max(sol.diagnostics["eig_ratios"]))
        count += 1
    report(2, worst <= 1e-6, f"max eigenvalue ratio over 100 instances: {worst:.2e} (tol 1e-6)")


def test_criterion_3_extraction_conservation():
    """100 extended instances: extraction preserves objective, power and SINRs."""
    rng = np.random.default_rng(303)
    worst = 0.0
    worst_rank = 0.0
    worst_lossless = 0.0
    for i in range(100):
        k = 2 + i % 4
        gamma_db = (5.0, 10.0, 15.0)[i % 3]
        channels = complex_gaussian(rng, (k, 8))
        scen = Scenario(
            ArrayGeometry(8, 10), channels, np.full(k, db_to_linear(gamma_db)),
            1000.0, 1.0, 1.0, 30,
        )
        sol = design_extended_multi(scen)
        r_bar = sol.covariance
        w = sol.comm_beamformers
        rebuilt = w @ w.conj().T + sol.aux_beamformer @ sol.aux_beamformer.conj().T
        trinv_before = np.trace(np.linalg.inv(r_bar)).real
        trinv_after = np.trace(np.linalg.inv(rebuilt)).real
        worst = max(worst, abs(trinv_after - trinv_before) / trinv_before)
        worst = max(
            worst, abs(np.trace(rebuilt).real - np.trace(r_bar).real) / np.trace(r_bar).real
        )
        # SINRs before extraction, from the relaxed blocks (probing term is
        # everything in R_X outside the user's own block)
        for j in range(k):
            h = scen.user_channel(j)
            w_bar = sol.diagnostics["w_bars"][j]
            sig = np.real(h.conj() @ w_bar @ h)
            interf = np.real(h.conj() @ (r_bar - w_bar) @ h)
            before = sig / (interf + scen.noise_comm)
            after = sol.achieved_sinrs[j]
            worst = max(worst, abs(after - before) / before)
        for w_k in w.T:
            ev = np.linalg.eigvalsh(np.outer(w_k, w_k.conj()))
            worst_rank = max(worst_rank, ev[-2] / ev[-1])
        # W_k - w_k w_k^H is PSD and holds none of the useful power: the extraction is lossless
        worst_lossless = max(worst_lossless, lossless_extraction_error(sol.diagnostics["w_bars"], w, channels))
    ok = worst <= 1e-8 and worst_rank <= 1e-6 and worst_lossless <= 1e-10
    report(3, ok, f"max conservation drift {worst:.2e} (tol 1e-8), max rank ratio {worst_rank:.2e}, "
                  f"max lossless-extraction error {worst_lossless:.2e} (tol 1e-10)")


def test_criterion_4_closed_form_kkt():
    """Closed-form extended single-user solutions satisfy the KKT system."""
    rng = np.random.default_rng(404)
    worst = 0.0
    worst_edge = 0.0
    for i in range(60):
        n_tx = (4, 8, 16)[i % 3]
        geom = ArrayGeometry(n_tx, n_tx + 4)
        h1 = complex_gaussian(rng, n_tx)
        h_norm2 = float(np.real(h1.conj() @ h1))
        p_t, sigma = 1000.0, 1.0
        gamma = rng.uniform(0.05, 0.95) * p_t * h_norm2 / sigma
        sol = design_extended_single(h1, gamma, p_t, sigma, geom, frame_len=30, noise_radar=1.0)
        lam_u = sol.diagnostics["lambda_user"]
        lam_r = sol.diagnostics["lambda_rest"]
        evals = np.linalg.eigvalsh(sol.covariance)
        # stationarity: lambda_ii^{-2} equal for i >= 2 (all eigenvalues except
        # possibly the user one coincide)
        rest = evals[np.argsort(np.abs(evals - lam_u))[1:]] if n_tx > 1 else evals
        worst = max(worst, np.max(np.abs(rest - lam_r)) / lam_r)
        # binding power
        worst = max(worst, abs(np.trace(sol.covariance).real - p_t) / p_t)
        # complementary slackness: either the SINR constraint is tight or the
        # covariance is isotropic (multiplier zero)
        slack = lam_u * h_norm2 - gamma * sigma
        if not sol.diagnostics["isotropic_branch"]:
            worst = max(worst, abs(slack) / (gamma * sigma))
        else:
            worst = max(worst, abs(lam_u - lam_r) / lam_r)
        # branch continuity at the threshold
        gamma_star = p_t * h_norm2 / (n_tx * sigma)
        below = design_extended_single(h1, gamma_star * (1 - 1e-14), p_t, sigma, geom, frame_len=30, noise_radar=1.0)
        at = design_extended_single(h1, gamma_star, p_t, sigma, geom, frame_len=30, noise_radar=1.0)
        worst_edge = max(
            worst_edge,
            abs(below.diagnostics["lambda_user"] - at.diagnostics["lambda_user"]) / at.diagnostics["lambda_user"],
            abs(below.diagnostics["lambda_rest"] - at.diagnostics["lambda_rest"]) / at.diagnostics["lambda_rest"],
        )
    ok = worst <= 1e-8 and worst_edge <= 1e-10
    report(4, ok, f"max KKT residual {worst:.2e} (tol 1e-8), branch mismatch {worst_edge:.2e} (tol 1e-10)")


def test_criterion_5_extended_mse_equals_crb():
    """Monte Carlo MSE over 1e4 trials within 2% of the CRB at the default experiment sizes."""
    rng = np.random.default_rng(505)
    scen = make_scenario(rng, k=4, n_tx=16, n_rx=20, gamma_db=15.0, frame_len=30)
    scen.target = None
    sol = design_extended_multi(scen)
    rep = monte_carlo_extended(scen, sol.comm_beamformers, sol.aux_beamformer, 10_000, 424242)
    ok = 0.98 <= rep["ratio"] <= 1.02
    report(5, ok, f"MSE/CRB = {rep['ratio']:.4f} over 10000 trials (band [0.98, 1.02])")


def test_criterion_6_point_crb_tightness():
    """RMSE/root-CRB in [0.95, 1.2] at high radar SNR; bound direction everywhere."""
    rng = np.random.default_rng(606)
    scen0 = make_scenario(rng, k=4, n_tx=16, n_rx=20, gamma_db=15.0)
    sol = design_point_multi(scen0)
    ratios = {}
    for snr_db in (10.0, 20.0, 30.0, 34.0):
        alpha = radar_alpha_from_snr(db_to_linear(snr_db), scen0)
        scen = make_scenario(np.random.default_rng(606), k=4, n_tx=16, n_rx=20, gamma_db=15.0)
        scen.target = PointTarget(0.0, alpha)
        rep = monte_carlo_point(scen, sol.comm_beamformers, 1000, 909090 + int(snr_db))
        ratios[snr_db] = rep["ratio"]
    high_ok = all(0.95 <= ratios[s] <= 1.2 for s in (30.0, 34.0))
    bound_ok = all(r >= 0.95 for r in ratios.values())
    detail = ", ".join(f"{s:.0f}dB:{r:.3f}" for s, r in ratios.items())
    report(6, high_ok and bound_ok, f"RMSE/root-CRB {detail} (high-SNR band [0.95, 1.2])")


def test_criterion_7_schur_equivalence():
    """1000 seeded PSD matrices: LMI bisection matches the closed form."""
    rng = np.random.default_rng(707)
    geom = ArrayGeometry(8, 10)
    worst = 0.0
    for _ in range(1000):
        r_x = random_psd(rng, 8, scale=rng.uniform(0.01, 100.0))
        theta = rng.uniform(-1.2, 1.2)
        t_lmi, t_closed = check_schur(r_x, theta, geom)
        worst = max(worst, abs(t_lmi - t_closed) / abs(t_closed))
    report(7, worst <= 1e-8, f"max relative deviation over 1000 samples: {worst:.2e} (tol 1e-8)")


def test_criterion_8_eigenvalue_formula():
    """Closed-form F eigenvalues match the numeric decomposition."""
    rng = np.random.default_rng(808)
    worst = 0.0
    separated = True
    for geom in (ArrayGeometry(4, 6), ArrayGeometry(16, 20), ArrayGeometry(8, 9)):
        for i in range(60):
            beta = complex(complex_gaussian(rng, ()))
            beta *= 10.0 ** rng.uniform(-1, 3) / max(abs(beta), 1e-12)
            theta = rng.uniform(-1.0, 1.0)
            lam1, lam2 = eig_f(beta, geom, theta=theta)
            values, _ = herm_eig(gradient_matrix_f(geom, theta, beta))
            worst = max(
                worst,
                abs(lam1 - values[-1]) / max(1.0, lam1),
                abs(lam2 - values[-2]) / max(1.0, lam1),
            )
            separated &= lam1 > lam2
    report(8, worst <= 1e-9 and separated,
           f"max deviation {worst:.2e} (tol 1e-9 relative to spectrum scale), lam1 > lam2: {separated}")


def test_criterion_9_tradeoff_monotonicity():
    """Sweeps nondecreasing in threshold and user count; exact extraction dominates truncation."""
    tol = 5e-6  # solver noise on mathematically equal/ordered points
    fig5 = run_fig5(config_for("fig5", sinr_sweep_db=[0.0, 6.0, 12.0, 18.0], seed=9))
    rows5 = np.array(fig5.rows)
    mono5 = all(np.all(np.diff(rows5[:, j]) >= -tol * np.abs(rows5[:-1, j])) for j in (1, 2))

    fig6 = run_fig6(config_for("fig6", sinr_sweep_db=[0.0, 10.0, 20.0], seed=9))
    cols6 = {c: i for i, c in enumerate(fig6.columns)}
    rows6 = np.array(fig6.rows)
    mono6 = True
    dominates6 = True
    for k in (6, 12):
        mse = rows6[:, cols6[f"mse_k{k}"]]
        eig = rows6[:, cols6[f"mse_eig_k{k}"]]
        mono6 &= bool(np.all(np.diff(mse) >= -tol * mse[:-1]))
        dominates6 &= bool(np.all(mse <= eig * (1 + 1e-9)))

    fig7 = run_fig7(config_for("fig7", user_sweep=[2, 6, 10], seed=9))
    cols7 = {c: i for i, c in enumerate(fig7.columns)}
    rows7 = np.array(fig7.rows)
    mono7 = True
    dominates7 = True
    for gdb in (10, 20):
        mse = rows7[:, cols7[f"mse_sinr{gdb}db"]]
        eig = rows7[:, cols7[f"mse_eig_sinr{gdb}db"]]
        mono7 &= bool(np.all(np.diff(mse) >= -tol * mse[:-1]))
        dominates7 &= bool(np.all(mse <= eig * (1 + 1e-9)))

    ok = mono5 and mono6 and mono7 and dominates6 and dominates7
    report(
        9, ok,
        f"monotone: fig5 {mono5}, fig6 {mono6}, fig7 {mono7}; "
        f"extraction dominates truncation: fig6 {dominates6}, fig7 {dominates7}",
    )


def test_criterion_10_determinism():
    """Identical config + seed reproduces byte-identical numeric output."""
    cfg_a = config_for("fig2", sinr_sweep_db=[5.0, 20.0], seed=33)
    cfg_b = config_for("fig2", sinr_sweep_db=[5.0, 20.0], seed=33)
    same_fig2 = run_fig2(cfg_a).to_csv() == run_fig2(cfg_b).to_csv()
    mc_cfg = dict(snr_radar_sweep_db=[24.0], trials=60, seed=12)
    same_fig4 = (
        run_fig4(config_for("fig4", **mc_cfg)).to_csv()
        == run_fig4(config_for("fig4", **mc_cfg)).to_csv()
    )
    report(10, same_fig2 and same_fig4, f"fig2 identical: {same_fig2}, fig4 identical: {same_fig4}")


def test_kkt_verification_of_multi_user_solutions():
    """Supporting check: solver outputs satisfy the verifier's KKT system."""
    rng = np.random.default_rng(1111)
    worst = 0.0
    for _ in range(10):
        scen = make_scenario(rng, k=4, n_tx=16, n_rx=20, gamma_db=15.0)
        sol = design_point_multi(scen)
        rep = check_kkt_point(sol, None, scen)
        worst = max(worst, rep.max_residual())
    assert worst <= 1e-6
    print(f"SUPPORT: max KKT residual over 10 full-size instances {worst:.2e}")
