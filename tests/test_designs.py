from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crbeam import designs
from crbeam.arrays import ArrayGeometry, ExtendedTarget, PointTarget, steering
from crbeam.designs import (
    build_extended_sdp,
    build_point_sdp,
    design_extended_multi,
    design_extended_single,
    design_point_multi,
    design_point_single,
    extract_rank_one,
)
from crbeam.errors import Infeasible, RankExcess, ResidualNotPSD, SolverFailure, ZeroUsefulPower
from crbeam.experiments import draw_channels
from crbeam.metrics import Scenario, achieved_sinrs, crb_point_theta
from crbeam.numerics import herm_eig
from crbeam.sdp import SolveOptions, check_certificate, solve
from crbeam.verify import check_kkt_point

from conftest import assert_farkas_ray, complex_gaussian, make_scenario


def span_grid_oracle(h1, a, gamma, p_t, sigma_c2, n_rho=400, n_phi=360):
    """Best |a^H w|^2 over w in span{a, h1} by 2-D grid over power split and phase."""
    u1 = h1 / np.linalg.norm(h1)
    a_u = a - (u1.conj() @ a) * u1
    a_u = a_u / np.linalg.norm(a_u)
    g1 = u1.conj() @ a
    g2 = a_u.conj() @ a
    rho_min = gamma * sigma_c2 / np.real(h1.conj() @ h1)
    best = 0.0
    for rho in np.linspace(rho_min, p_t, n_rho):
        amp1 = np.sqrt(rho) * abs(g1)
        amp2 = np.sqrt(p_t - rho) * abs(g2)
        for phi in np.linspace(0, 2 * np.pi, n_phi, endpoint=False):
            val = abs(amp1 + np.exp(1j * phi) * amp2) ** 2
            best = max(best, val)
    return best


def least_power(channels, gamma, sigma2, max_iter=100_000):
    """sigma^2 sum lambda_k at the fixed point lambda_k = 1 / ((1 + 1/gamma_k) h_k^H M^-1 h_k),
    M = I + sum_j lambda_j h_j h_j^H, by the plain iteration from 0, which rises
    monotonically; it stops once the geometric tail of its steps is below 1e-9
    relative.  None if it has not stopped after ``max_iter`` steps."""
    h = np.asarray(channels).conj().T
    c = 1.0 + 1.0 / np.asarray(gamma, dtype=float)
    lam = np.zeros(h.shape[1])
    step = None
    for _ in range(max_iter):
        m = np.eye(h.shape[0]) + (h * lam) @ h.conj().T
        new = 1.0 / (c * np.real(np.sum(h.conj() * np.linalg.solve(m, h), axis=0)))
        new_step = float(np.max((new - lam) / new))
        if step is not None and new_step < step and new_step * new_step / (step - new_step) <= 1e-9:
            return sigma2 * float(new.sum())
        lam, step = new, new_step
    return None


class ReachedSolve(Exception):
    pass


class TestPointSingle:
    def test_branch_one_aligned_channel(self):
        geom = ArrayGeometry(4, 6)
        a = steering(0.2, 4)
        sol = design_point_single(a, 0.2, 2.0, 1.0, 1.0, geom)
        assert np.allclose(sol.comm_beamformers[:, 0], a / 2, atol=1e-12)
        assert abs(a.conj() @ sol.comm_beamformers[:, 0]) ** 2 == pytest.approx(4.0, rel=1e-12)
        assert sol.achieved_sinrs[0] >= 2.0 * (1 - 1e-12)

    def test_vacuous_constraint_full_beam(self, rng):
        geom = ArrayGeometry(8, 10)
        h1 = complex_gaussian(rng, 8)
        p_t = 5.0
        sol = design_point_single(h1, 0.1, 1e-9, p_t, 1.0, geom)
        a = steering(0.1, 8)
        assert np.allclose(sol.comm_beamformers[:, 0], np.sqrt(p_t) * a / np.linalg.norm(a), atol=1e-10)

    def test_second_branch_matches_span_grid_search(self, rng):
        geom = ArrayGeometry(6, 8)
        a = steering(0.0, 6)
        for _ in range(4):
            h1 = complex_gaussian(rng, 6)
            # force the constrained branch: small steering correlation, high demand
            h1 = h1 - 0.9 * (a.conj() @ h1) / 6 * a
            gamma = 0.6 * np.real(h1.conj() @ h1) * 1.0  # P_T = 1
            sol = design_point_single(h1, 0.0, gamma, 1.0, 1.0, geom)
            val = abs(a.conj() @ sol.comm_beamformers[:, 0]) ** 2
            oracle = span_grid_oracle(h1, a, gamma, 1.0, 1.0)
            assert val >= oracle * (1 - 1e-4)
            assert np.linalg.norm(sol.comm_beamformers[:, 0]) ** 2 == pytest.approx(1.0, rel=1e-10)

    def test_optimality_against_random_feasible(self, rng):
        # 200 seeded instances: no batch of 1e5 random feasible beamformers
        # beats the closed form, and the value matches the span grid search
        geom = ArrayGeometry(8, 10)
        a = steering(0.0, 8)
        for trial in range(200):
            h1 = complex_gaussian(rng, 8)
            h_norm2 = np.real(h1.conj() @ h1)
            gamma = rng.uniform(0.2, 0.9) * h_norm2  # P_T = 1, sigma = 1
            sol = design_point_single(h1, 0.0, gamma, 1.0, 1.0, geom)
            best_closed = abs(a.conj() @ sol.comm_beamformers[:, 0]) ** 2
            u1 = h1 / np.sqrt(h_norm2)
            n_probe = 100_000
            rho = rng.uniform(gamma / h_norm2, 1.0, n_probe)
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, n_probe))
            rest = complex_gaussian(rng, (8, n_probe))
            rest -= np.outer(u1, u1.conj() @ rest)
            rest /= np.linalg.norm(rest, axis=0)
            w = (np.sqrt(rho) * phases) * u1[:, None] + np.sqrt(1 - rho) * rest
            sinr_ok = rho * h_norm2 >= gamma * (1 - 1e-12)
            vals = np.abs(a.conj() @ w[:, sinr_ok]) ** 2
            assert np.max(vals) <= best_closed * (1 + 1e-9)
            if trial % 50 == 0:
                oracle = span_grid_oracle(h1, a, gamma, 1.0, 1.0)
                assert best_closed >= oracle * (1 - 1e-4)

    def test_infeasible(self, rng):
        geom = ArrayGeometry(4, 6)
        h1 = complex_gaussian(rng, 4)
        gamma = 2.0 * np.real(h1.conj() @ h1)  # needs more than P_T = 1
        with pytest.raises(Infeasible):
            design_point_single(h1, 0.0, gamma, 1.0, 1.0, geom)

    def test_parallel_channel_boundary(self):
        geom = ArrayGeometry(4, 6)
        a = steering(0.3, 4)
        # h parallel to a, demand exactly at the feasibility edge
        sol = design_point_single(2.0 * a, 0.3, 16.0, 1.0, 1.0, geom)
        assert sol.achieved_sinrs[0] >= 16.0 * (1 - 1e-9)


class TestExtendedSingle:
    def test_isotropic_branch(self):
        geom = ArrayGeometry(2, 3)
        h1 = np.array([1.0, 1.0], dtype=complex)
        sol = design_extended_single(h1, 0.5, 1.0, 1.0, geom)
        assert np.allclose(sol.covariance, 0.5 * np.eye(2), atol=1e-12)
        w1 = sol.comm_beamformers[:, 0]
        assert np.allclose(np.outer(w1, w1.conj()), 0.25 * np.outer(h1, h1.conj()), atol=1e-12)

    def test_constrained_branch_frozen_values(self):
        geom = ArrayGeometry(2, 3)
        h1 = np.array([1.0, 1.0], dtype=complex)
        sol = design_extended_single(h1, 1.5, 1.0, 1.0, geom)
        assert sol.diagnostics["lambda_user"] == pytest.approx(0.75, rel=1e-12)
        assert sol.diagnostics["lambda_rest"] == pytest.approx(0.25, rel=1e-12)
        assert sol.diagnostics["trace_inverse"] == pytest.approx(16 / 3, rel=1e-12)
        assert sol.achieved_sinrs[0] == pytest.approx(1.5, rel=1e-10)

    def test_branch_continuity(self, rng):
        geom = ArrayGeometry(6, 8)
        h1 = complex_gaussian(rng, 6)
        h_norm2 = np.real(h1.conj() @ h1)
        gamma_star = 1.0 * h_norm2 / (6 * 1.0)
        below = design_extended_single(h1, gamma_star * (1 - 1e-13), 1.0, 1.0, geom)
        at = design_extended_single(h1, gamma_star, 1.0, 1.0, geom)
        assert abs(below.diagnostics["lambda_user"] - at.diagnostics["lambda_user"]) <= 1e-10
        assert abs(below.diagnostics["lambda_rest"] - at.diagnostics["lambda_rest"]) <= 1e-10
        assert np.allclose(below.covariance, at.covariance, atol=1e-10)

    def test_covariance_consistency(self, rng):
        geom = ArrayGeometry(5, 7)
        h1 = complex_gaussian(rng, 5)
        gamma = 0.8 * np.real(h1.conj() @ h1)
        sol = design_extended_single(h1, gamma, 1.0, 1.0, geom)
        w1 = sol.comm_beamformers
        rebuilt = w1 @ w1.conj().T + sol.aux_beamformer @ sol.aux_beamformer.conj().T
        assert np.linalg.norm(rebuilt - sol.covariance) <= 1e-10 * np.real(np.trace(sol.covariance))

    def test_infeasible(self, rng):
        geom = ArrayGeometry(4, 6)
        h1 = complex_gaussian(rng, 4)
        with pytest.raises(Infeasible):
            design_extended_single(h1, 3.0 * np.real(h1.conj() @ h1), 1.0, 1.0, geom)


class TestPointMulti:
    def test_single_user_collapse(self, rng):
        for _ in range(3):
            scen = make_scenario(rng, k=1, n_tx=8, n_rx=10, gamma_db=20.0)
            h1 = scen.user_channel(0)
            closed = design_point_single(
                h1, 0.0, scen.sinr_thresholds[0], scen.power_budget, scen.noise_comm,
                scen.geometry, alpha=1.0, frame_len=scen.frame_len, noise_radar=scen.noise_radar,
            )
            try:
                sdr = design_point_multi(scen)
                obj = sdr.objective
            except RankExcess as exc:
                obj = exc.solution.objective
            assert abs(obj - closed.objective) / closed.objective <= 1e-5

    def test_rank_excess_attaches_relaxed_solution(self, rng, monkeypatch):
        # a zero eigenvalue-ratio threshold sends a solved K=4 design down the raise path
        monkeypatch.setattr(designs, "RANK_ONE_RATIO", 0.0)
        scen = make_scenario(rng, k=4, n_tx=8, n_rx=10, gamma_db=10.0)
        with pytest.raises(RankExcess) as info:
            design_point_multi(scen)
        partial = info.value.solution
        relaxed = partial.diagnostics["sdp"].primal_blocks
        w_sum = sum(relaxed[f"W{i+1}"] for i in range(4))
        assert np.allclose(partial.covariance, w_sum, rtol=0, atol=1e-12 * np.linalg.norm(w_sum))
        assert partial.objective == crb_point_theta(partial.covariance, 0.0, scen.target.alpha, scen)
        assert partial.comm_beamformers.shape == (8, 0)

    def test_rank_excess_partial_is_a_design_without_beamformers(self, monkeypatch):
        # the same draw solved at 10 dB, then sent down the raise path at 16.5 dB
        # by a zero eigenvalue-ratio threshold, whatever the solver's rounding
        channels = draw_channels(3, 16, np.random.default_rng(3))

        def scenario(gamma_db):
            return Scenario(ArrayGeometry(16, 20), channels, [10 ** (gamma_db / 10)] * 3,
                            1000.0, 1.0, 1.0, 30, PointTarget(0.0))

        solved = design_point_multi(scenario(10.0))
        monkeypatch.setattr(designs, "RANK_ONE_RATIO", 0.0)
        scen = scenario(16.5)
        with pytest.raises(RankExcess) as info:
            design_point_multi(scen)
        partial = info.value.solution
        assert partial.diagnostics.keys() == solved.diagnostics.keys()
        assert partial.diagnostics["duals"].keys() == solved.diagnostics["duals"].keys()
        assert partial.diagnostics["method"] == "sdr_point"
        assert max(partial.diagnostics["eig_ratios"]) > designs.RANK_ONE_RATIO
        assert partial.comm_beamformers.shape == (16, 0)
        assert partial.achieved_sinrs is None and partial.aux_beamformer is None
        assert partial.objective == crb_point_theta(partial.covariance, 0.0, scen.target.alpha, scen)

    def test_full_scale_rank_one(self, rng):
        scen = make_scenario(rng, k=4, n_tx=16, n_rx=20, gamma_db=15.0)
        sol = design_point_multi(scen)
        assert max(sol.diagnostics["eig_ratios"]) <= 1e-6
        assert np.all(sol.achieved_sinrs >= scen.sinr_thresholds * (1 - 1e-6))
        assert sol.total_power <= scen.power_budget * (1 + 1e-7)
        rebuilt = sol.comm_beamformers @ sol.comm_beamformers.conj().T
        assert np.linalg.norm(rebuilt - sol.covariance) <= 1e-6 * np.real(np.trace(sol.covariance))

    def test_vacuous_sinr_concentrates_on_steering(self, rng):
        # with no effective SINR demand the optimum puts the budget on a(theta):
        # brute force over the {a, da} span confirms the corner solution
        scen = make_scenario(rng, k=2, n_tx=8, n_rx=10, gamma_db=-50.0)
        sol = design_point_multi(scen)
        a = steering(0.0, 8)
        nbd2 = np.pi**2 * np.cos(0.0) ** 2 * 10 * 99 / 12
        t_corner = nbd2 * 8 * scen.power_budget
        # 2-parameter search over PSD matrices supported on span{a, da}
        da = steering(0.0, 8)  # placeholder replaced below
        from crbeam.arrays import steering_deriv

        da = steering_deriv(0.0, 8)
        nad2 = np.real(da.conj() @ da)
        nb2 = 10.0
        best = 0.0
        for x in np.linspace(0.0, 1.0, 2001):
            pa = x * scen.power_budget
            pd = (1 - x) * scen.power_budget
            t = nbd2 * 8 * pa + nb2 * nad2 * pd
            best = max(best, t)
        assert best == pytest.approx(t_corner, rel=1e-9)
        assert sol.diagnostics["t_star"] == pytest.approx(t_corner, rel=1e-6)

    def test_infeasible_with_certificate(self, rng):
        h = complex_gaussian(rng, 8)
        channels = np.vstack([h.conj(), h.conj()])  # identical users cannot both be served
        scen = make_scenario(rng, k=2, n_tx=8, n_rx=10, gamma_db=20.0)
        scen.channels = channels
        with pytest.raises(Infeasible) as exc_info:
            design_point_multi(scen)
        assert exc_info.value.certificate is not None
        assert_farkas_ray(build_point_sdp(scen), exc_info.value.certificate)
        with pytest.raises(Infeasible) as exc_info:
            design_extended_multi(scen)
        assert_farkas_ray(build_extended_sdp(scen), exc_info.value.certificate)

    def test_duals_exposed(self, rng):
        scen = make_scenario(rng, k=3, n_tx=8, n_rx=10, gamma_db=12.0)
        sol = design_point_multi(scen)
        duals = sol.diagnostics["duals"]
        assert duals["phi"] == pytest.approx(1.0, abs=1e-6)
        assert np.all(duals["mu"] >= 0)
        assert duals["mu_T"] >= 0

    def test_sinr_shortfall_raises_solver_failure(self):
        # near-parallel users at an extreme power scale: the point SDR once ended Optimal
        # (no_progress) with user 2 at 1.37e-5 of its SINR target, which check_certificate
        # hid by dividing by 1 + max|b| = 1.2e14
        rng = np.random.default_rng(0)
        channels = complex_gaussian(rng, 3) + 1e-6 * complex_gaussian(rng, (2, 3))
        scen = TestLeastPowerPrecheck.scenario(channels, np.full(2, 10 ** 2.5), 1.2e14)
        for design in (design_point_multi, design_extended_multi):
            with pytest.raises(SolverFailure, match="SINR target"):
                design(scen)

    @pytest.mark.parametrize("seed, n_users, gamma_db", [
        (1, 4, 30.0), ([7, 4], 12, 0.0), (3, 3, 16.5), (3, 3, 18.0), (3, 3, 19.5), (5, 3, 25.5),
    ])
    def test_hard_inputs_design_within_tol(self, seed, n_users, gamma_db):
        # inputs that once ended above tol, in RankExcess or in schur_failure;
        # the twelve-user draw keeps its first four users
        channels = draw_channels(n_users, 16, np.random.default_rng(seed))[:4]
        k = channels.shape[0]
        scen = Scenario(ArrayGeometry(16, 20), channels, [10 ** (gamma_db / 10)] * k,
                        1000.0, 1.0, 1.0, 30, PointTarget(0.0))
        sol = design_point_multi(scen)
        rep = check_certificate(build_point_sdp(scen), sol.diagnostics["sdp"])
        assert max(rep["primal"], rep["gap"]) <= SolveOptions().tol
        assert check_kkt_point(sol, None, scen).max_residual() <= 1e-6
        # t's defining row has a = 1 and t's objective coefficient is -1
        assert sol.diagnostics["duals"]["phi"] == 1.0


@pytest.mark.parametrize("target", [None, ExtendedTarget(np.ones((6, 4)))], ids=["none", "extended"])
def test_input_checks(target):
    scen = Scenario(ArrayGeometry(4, 6), np.ones((2, 4)), [1.0, 1.0], 1.0, 1.0, 1.0, 8, target)
    for call in (build_point_sdp, design_point_multi):
        with pytest.raises(ValueError, match="point design needs a PointTarget"):
            call(scen)


def outer_products(beamformers):
    """w_k w_k^H for each column w_k of ``beamformers``."""
    return [np.outer(w, w.conj()) for w in beamformers.T]


class TestExtractRankOne:
    def test_idempotent_on_rank_one(self, rng):
        w = complex_gaussian(rng, 4)
        w_mat = np.outer(w, w.conj())
        h = complex_gaussian(rng, 4)
        w_k, w_a = extract_rank_one(w_mat, [w_mat], [h])
        tilde = outer_products(w_k)
        assert np.allclose(tilde[0], w_mat, atol=1e-10 * np.linalg.norm(w_mat))
        assert np.linalg.norm(w_a) <= 1e-6

    def test_frozen_identity_example(self):
        w_bar = np.eye(2, dtype=complex)
        h = np.array([1.0, 0.0], dtype=complex)
        r_bar = 2.0 * np.eye(2, dtype=complex)
        w_k, w_a = extract_rank_one(r_bar, [w_bar], [h])
        tilde = outer_products(w_k)
        e1 = np.outer(h, h.conj())
        assert np.allclose(tilde[0], e1, atol=1e-12)
        assert np.allclose(w_a @ w_a.conj().T, np.diag([1.0, 2.0]), atol=1e-12)

    def test_conservation_on_loosened_solution(self, rng):
        # deliberately high-rank user blocks: extraction must preserve the
        # covariance, the objective and every SINR
        n, k = 6, 3
        w_bars = []
        for _ in range(k):
            b = complex_gaussian(rng, (n, 2))
            w_bars.append(b @ b.conj().T)
        channels = complex_gaussian(rng, (k, n))
        r_bar = sum(w_bars) + np.eye(n)
        w_k, w_a = extract_rank_one(r_bar, w_bars, channels.conj())
        tilde = outer_products(w_k)
        rebuilt = sum(tilde) + w_a @ w_a.conj().T
        assert np.linalg.norm(rebuilt - r_bar) <= 1e-8 * np.linalg.norm(r_bar)
        for i in range(k):
            h = channels[i].conj()
            before = np.real(h.conj() @ w_bars[i] @ h)
            after = np.real(h.conj() @ tilde[i] @ h)
            assert after == pytest.approx(before, rel=1e-8)
            ev = np.linalg.eigvalsh(tilde[i])
            assert ev[-2] / ev[-1] <= 1e-10

    def test_zero_useful_power(self, rng):
        n = 4
        h = np.zeros(n, dtype=complex)
        h[0] = 1.0
        w_bar = np.diag([0.0, 1.0, 1.0, 1.0]).astype(complex)
        with pytest.raises(ZeroUsefulPower):
            extract_rank_one(2 * np.eye(n), [w_bar], [h])

    def test_residual_not_psd(self, rng):
        w = complex_gaussian(rng, 3)
        w_mat = np.outer(w, w.conj())
        with pytest.raises(ResidualNotPSD):
            extract_rank_one(0.5 * w_mat, [w_mat], [w])


class TestExtendedMulti:
    def test_single_user_collapse(self, rng):
        scen = make_scenario(rng, k=1, n_tx=6, n_rx=8, gamma_db=18.0)
        h1 = scen.user_channel(0)
        closed = design_extended_single(
            h1, scen.sinr_thresholds[0], scen.power_budget, scen.noise_comm, scen.geometry,
            frame_len=scen.frame_len, noise_radar=scen.noise_radar,
        )
        sdr = design_extended_multi(scen)
        assert abs(sdr.objective - closed.objective) / closed.objective <= 1e-5

    def test_vacuous_sinr_isotropic(self, rng):
        scen = make_scenario(rng, k=2, n_tx=6, n_rx=8, gamma_db=-60.0)
        sol = design_extended_multi(scen)
        iso = scen.power_budget / 6 * np.eye(6)
        assert np.linalg.norm(sol.covariance - iso) <= 1e-4 * scen.power_budget
        expect = 6**2 * scen.noise_radar * scen.geometry.n_rx / (scen.frame_len * scen.power_budget)
        assert sol.objective == pytest.approx(expect, rel=1e-6)

    def test_rank_one_outputs_and_sinr(self, rng):
        scen = make_scenario(rng, k=3, n_tx=8, n_rx=10, gamma_db=12.0)
        sol = design_extended_multi(scen)
        assert np.all(sol.achieved_sinrs >= scen.sinr_thresholds * (1 - 1e-6))
        for w_t in outer_products(sol.comm_beamformers):
            ev = np.linalg.eigvalsh(w_t)
            assert ev[-2] / ev[-1] <= 1e-8
        rebuilt = (
            sol.comm_beamformers @ sol.comm_beamformers.conj().T
            + sol.aux_beamformer @ sol.aux_beamformer.conj().T
        )
        assert np.linalg.norm(rebuilt - sol.covariance) <= 1e-7 * np.real(np.trace(sol.covariance))

    def test_monotone_in_threshold(self, rng):
        scen_lo = make_scenario(rng, k=3, n_tx=8, n_rx=10, gamma_db=5.0)
        scen_hi = make_scenario(np.random.default_rng(20240817), k=3, n_tx=8, n_rx=10, gamma_db=15.0)
        assert np.allclose(scen_lo.channels, scen_hi.channels)
        lo = design_extended_multi(scen_lo)
        hi = design_extended_multi(scen_hi)
        assert hi.objective >= lo.objective * (1 - 1e-8)

    @pytest.mark.xfail(raises=AssertionError, reason=(
        "ROADMAP item 2: the status is measured on data divided by max|b|, so this solve "
        "reads Optimal at a gap of 6.1e-10 while the caller's data give 1.42e-7"))
    def test_optimal_meets_tol_on_callers_data(self):
        channels = draw_channels(4, 16, np.random.default_rng(1))
        scen = Scenario(ArrayGeometry(16, 20), channels, [10.0] * 4, 1000.0, 1.0, 1.0, 30)
        sol = design_extended_multi(scen)
        rep = check_certificate(build_extended_sdp(scen), sol.diagnostics["sdp"])
        assert rep["gap"] <= SolveOptions().tol

    @pytest.mark.xfail(raises=AssertionError, reason=(
        "ROADMAP item 2: at this power scale the SDR reads Optimal at a reported gap of 2.7e-11 "
        "while the caller's data give 0.9996; the status needs per-row relative residuals"))
    def test_optimal_meets_tol_at_extreme_power(self):
        # near-parallel channels, P = 1.1 x the least power of 1.0608e14; the design
        # itself raises SolverFailure through its SINR guard, so this solves the SDR alone
        rng = np.random.default_rng(0)
        channels = complex_gaussian(rng, 3) + 1e-6 * complex_gaussian(rng, (2, 3))
        scen = Scenario(ArrayGeometry(3, 4), channels, [10 ** 2.5] * 2, 1.17e14, 1.0, 1.0, 10)
        problem = build_extended_sdp(scen)
        opts = SolveOptions(target_tol=1e-9)
        assert check_certificate(problem, solve(problem, opts))["gap"] <= opts.tol


class TestLeastPowerPrecheck:
    """The multi-user designs raise Infeasible before the SDR when the SINR targets
    need more than the power budget, and otherwise leave the decision to the SDR."""

    @pytest.fixture(scope="class")
    def edge(self):
        # a paper-size draw at 28 dB and the least power it needs (about 2.09 W)
        channels = draw_channels(12, 16, np.random.default_rng(0))
        gamma = np.full(12, 10 ** 2.8)
        return channels, gamma, least_power(channels, gamma, 1.0)

    @staticmethod
    def scenario(channels, gamma, power, sigma2=1.0):
        n = channels.shape[1]
        return Scenario(ArrayGeometry(n, n + 4), channels, gamma, power, sigma2, 1.0, n + 14, PointTarget(0.0))

    def test_just_below_least_power_raises_before_the_ipm(self, edge, monkeypatch):
        channels, gamma, power = edge
        scen = self.scenario(channels, gamma, 0.999 * power)
        monkeypatch.setattr(designs, "solve", mock.Mock(side_effect=ReachedSolve))
        for design, build in ((design_point_multi, build_point_sdp), (design_extended_multi, build_extended_sdp)):
            with pytest.raises(Infeasible) as info:
                design(scen)
            assert_farkas_ray(build(scen), info.value.certificate)

    def test_just_above_least_power_designs(self, edge):
        channels, gamma, power = edge
        scen = self.scenario(channels, gamma, 1.001 * power)
        sol = design_point_multi(scen)
        assert sol.total_power <= scen.power_budget * (1 + 1e-6)

    def test_feasibility_edge_window_is_left_to_the_sdr(self):
        # P just inside LEAST_POWER_MARGIN: nothing is certified, so no design raises
        # Infeasible; each meets its targets within P (1 + 1e-6), or fails
        channels = draw_channels(4, 8, np.random.default_rng(0))
        gamma = np.full(4, 100.0)
        power = least_power(channels, gamma, 1.0) / (1 + 5e-7)
        scen = self.scenario(channels, gamma, power)
        for design in (design_point_multi, design_extended_multi):
            try:
                sol = design(scen)
            except SolverFailure:
                continue
            assert np.all(sol.achieved_sinrs >= gamma * (1 - 1e-5))
            assert sol.total_power <= power * (1 + 1e-6)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(4, 8), st.data(), st.floats(-3.0, 3.0),
           st.one_of(st.just(None), st.floats(1e-3, 1e-1)), st.sampled_from([0.95, 1.05]),
           st.integers(0, 2**32 - 1))
    def test_decides_on_random_edges(self, n, data, log_sigma2, spread, factor, seed):
        # spread: None for Rayleigh channels, else each user is one common channel
        # plus this much of its own, so the channels are near-parallel
        k = data.draw(st.integers(1, n - 1))
        gamma = 10 ** (np.array(data.draw(st.lists(st.floats(0.0, 30.0), min_size=k, max_size=k))) / 10)
        rng = np.random.default_rng(seed)
        if spread is None:
            channels = complex_gaussian(rng, (k, n))
        else:
            channels = complex_gaussian(rng, n) + spread * complex_gaussian(rng, (k, n))
        sigma2 = 10.0 ** log_sigma2
        power = least_power(channels, gamma, sigma2)
        assume(power is not None)
        scen = self.scenario(channels, gamma, factor * power, sigma2)
        with mock.patch.object(designs, "solve", side_effect=ReachedSolve):
            for design, build in ((design_point_multi, build_point_sdp),
                                  (design_extended_multi, build_extended_sdp)):
                if factor < 1:
                    with pytest.raises(Infeasible) as info:
                        design(scen)
                    assert_farkas_ray(build(scen), info.value.certificate)
                else:
                    with pytest.raises(ReachedSolve):
                        design(scen)
