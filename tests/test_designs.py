import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crbeam import designs
from crbeam.arrays import ArrayGeometry, ExtendedTarget, PointTarget, point_terms, steering
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
from crbeam.experiments import config_for, draw_channels, draw_scenario
from crbeam.metrics import Scenario, achieved_sinrs, crb_point_theta
from crbeam.numerics import herm_eig, hermitize
from crbeam.sdp import SdpProblem, SolveOptions, check_certificate, elem_im, elem_re, solve
from crbeam.verify import check_kkt_point

from conftest import (assert_farkas_ray, complex_gaussian, lossless_extraction_error, make_scenario,
                      one_user_scenario)

RADAR = {"frame_len": 30, "noise_radar": 1.0}   # the extended closed form's CRB scale


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
        sol = design_point_single(one_user_scenario(a, 2.0, geom, theta=0.2))
        assert np.allclose(sol.comm_beamformers[:, 0], a / 2, atol=1e-12)
        assert abs(a.conj() @ sol.comm_beamformers[:, 0]) ** 2 == pytest.approx(4.0, rel=1e-12)
        assert sol.achieved_sinrs[0] >= 2.0 * (1 - 1e-12)

    def test_vacuous_constraint_full_beam(self, rng):
        geom = ArrayGeometry(8, 10)
        h1 = complex_gaussian(rng, 8)
        p_t = 5.0
        sol = design_point_single(one_user_scenario(h1, 1e-9, geom, p_t=p_t, theta=0.1))
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
            sol = design_point_single(one_user_scenario(h1, gamma, geom))
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
            sol = design_point_single(one_user_scenario(h1, gamma, geom))
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
            design_point_single(one_user_scenario(h1, gamma, geom))

    def test_parallel_channel_boundary(self):
        geom = ArrayGeometry(4, 6)
        a = steering(0.3, 4)
        # h parallel to a, demand exactly at the feasibility edge
        sol = design_point_single(one_user_scenario(2.0 * a, 16.0, geom, theta=0.3))
        assert sol.achieved_sinrs[0] >= 16.0 * (1 - 1e-9)


class TestExtendedSingle:
    def test_isotropic_branch(self):
        geom = ArrayGeometry(2, 3)
        h1 = np.array([1.0, 1.0], dtype=complex)
        sol = design_extended_single(h1, 0.5, 1.0, 1.0, geom, **RADAR)
        assert np.allclose(sol.covariance, 0.5 * np.eye(2), atol=1e-12)
        w1 = sol.comm_beamformers[:, 0]
        assert np.allclose(np.outer(w1, w1.conj()), 0.25 * np.outer(h1, h1.conj()), atol=1e-12)

    def test_constrained_branch_frozen_values(self):
        geom = ArrayGeometry(2, 3)
        h1 = np.array([1.0, 1.0], dtype=complex)
        sol = design_extended_single(h1, 1.5, 1.0, 1.0, geom, **RADAR)
        assert sol.diagnostics["lambda_user"] == pytest.approx(0.75, rel=1e-12)
        assert sol.diagnostics["lambda_rest"] == pytest.approx(0.25, rel=1e-12)
        assert sol.diagnostics["trace_inverse"] == pytest.approx(16 / 3, rel=1e-12)
        assert sol.achieved_sinrs[0] == pytest.approx(1.5, rel=1e-10)

    def test_branch_continuity(self, rng):
        geom = ArrayGeometry(6, 8)
        h1 = complex_gaussian(rng, 6)
        h_norm2 = np.real(h1.conj() @ h1)
        gamma_star = 1.0 * h_norm2 / (6 * 1.0)
        below = design_extended_single(h1, gamma_star * (1 - 1e-13), 1.0, 1.0, geom, **RADAR)
        at = design_extended_single(h1, gamma_star, 1.0, 1.0, geom, **RADAR)
        assert abs(below.diagnostics["lambda_user"] - at.diagnostics["lambda_user"]) <= 1e-10
        assert abs(below.diagnostics["lambda_rest"] - at.diagnostics["lambda_rest"]) <= 1e-10
        assert np.allclose(below.covariance, at.covariance, atol=1e-10)

    def test_covariance_consistency(self, rng):
        geom = ArrayGeometry(5, 7)
        h1 = complex_gaussian(rng, 5)
        gamma = 0.8 * np.real(h1.conj() @ h1)
        sol = design_extended_single(h1, gamma, 1.0, 1.0, geom, **RADAR)
        w1 = sol.comm_beamformers
        rebuilt = w1 @ w1.conj().T + sol.aux_beamformer @ sol.aux_beamformer.conj().T
        assert np.linalg.norm(rebuilt - sol.covariance) <= 1e-10 * np.real(np.trace(sol.covariance))

    def test_singular_boundary_has_no_objective(self):
        # the SINR target takes the whole budget: nothing is left for the complement
        geom = ArrayGeometry(2, 3)
        h1 = np.array([1.0, 1.0], dtype=complex)
        sol = design_extended_single(h1, 2.0, 1.0, 1.0, geom, **RADAR)
        assert sol.diagnostics["lambda_rest"] == 0.0
        assert sol.diagnostics["trace_inverse"] == np.inf
        assert sol.objective is None

    def test_infeasible(self, rng):
        geom = ArrayGeometry(4, 6)
        h1 = complex_gaussian(rng, 4)
        with pytest.raises(Infeasible):
            design_extended_single(h1, 3.0 * np.real(h1.conj() @ h1), 1.0, 1.0, geom, **RADAR)


class TestPointMulti:
    def test_single_user_collapse(self, rng):
        for _ in range(3):
            scen = make_scenario(rng, k=1, n_tx=8, n_rx=10, gamma_db=20.0)
            closed = design_point_single(scen)
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
    for call in (build_point_sdp, design_point_multi, design_point_single):
        with pytest.raises(ValueError, match="point design needs a PointTarget"):
            call(scen)


def test_point_closed_form_needs_one_user():
    scen = Scenario(ArrayGeometry(4, 6), np.ones((2, 4)), [1.0, 1.0], 1.0, 1.0, 1.0, 8, PointTarget(0.0))
    with pytest.raises(ValueError, match="one user"):
        design_point_single(scen)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(4, 8), st.data(), st.floats(0.0, 20.0), st.integers(0, 2**32 - 1))
def test_point_multi_meets_its_kkt_system_or_raises_a_design_error(n, data, gamma_db, seed):
    # on random scenarios the design is a KKT point of its SDR, or ends in one of its typed errors
    k = data.draw(st.integers(1, n - 1))
    scen = make_scenario(np.random.default_rng(seed), k=k, n_tx=n, n_rx=n + 2, gamma_db=gamma_db)
    try:
        sol = design_point_multi(scen)
    except (Infeasible, RankExcess, SolverFailure):
        return
    assert np.isfinite(sol.objective)
    assert np.all(np.isfinite(sol.comm_beamformers)) and np.all(np.isfinite(sol.achieved_sinrs))
    assert check_kkt_point(sol, None, scen).max_residual() <= 1e-6


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
        assert lossless_extraction_error(w_bars, w_k, channels) <= 1e-12

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
        assert lossless_extraction_error(sol.diagnostics["w_bars"], sol.comm_beamformers, scen.channels) <= 1e-10
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

    def test_optimal_meets_tol_on_callers_data(self):
        # the full-size SDR read Optimal here at a caller's-data gap of 1.42e-7; the
        # reduced one ends at 1.0e-8 (ROADMAP item 2 still holds for the full-size solve)
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

    @pytest.mark.xfail(raises=AssertionError, reason=(
        "ROADMAP item 15: scaling P, sigma_C^2 and sigma_R^2 by 1e3 leaves the problem the same, "
        "but P tr(R^-1) reads 294.780591 against 256.000000 at the paper's units, both solves "
        "Optimal/target_tol; deleting _ipm's norm_b/norm_c scaling alone is not the fix: in a "
        "trial run it made 21 of 36 paper-size designs end in MaxIter or RankExcess"))
    def test_same_design_in_any_units(self):
        paper = draw_scenario(config_for("custom", n_users=4, sinr_db=10.0, seed=1), None)
        scaled = dataclasses.replace(paper, power_budget=1e3 * paper.power_budget,
                                     noise_comm=1e3 * paper.noise_comm, noise_radar=1e3 * paper.noise_radar)
        p_trace_inv = []
        for scen in (paper, scaled):
            sol = design_extended_multi(scen)
            sdp = sol.diagnostics["sdp"]
            assert (sdp.status, sdp.termination) == ("Optimal", "target_tol")
            p_trace_inv.append(scen.power_budget * np.real(np.trace(np.linalg.inv(sol.covariance))))
        assert p_trace_inv[1] == pytest.approx(p_trace_inv[0], rel=1e-6)


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

    def test_zero_channel_is_infeasible(self, monkeypatch):
        # a zero channel needs infinite power: the ray is 1 on that user's SINR row alone
        scen = draw_scenario(config_for("custom", n_users=3, sinr_db=10.0, seed=1), PointTarget(0.0))
        scen.channels[1] = 0
        monkeypatch.setattr(designs, "solve", mock.Mock(side_effect=ReachedSolve))
        for design, build in ((design_point_multi, build_point_sdp), (design_extended_multi, build_extended_sdp)):
            with pytest.raises(Infeasible, match="user 2 has a zero channel") as info:
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


# The builders as they were before they took a basis, kept as the reference that
# build_point_sdp(scenario) and build_extended_sdp(scenario) must still reproduce.

def reference_sinr_and_power_rows(p, scenario, names):
    for i in range(scenario.n_users):
        h_i = scenario.user_channel(i)
        q_i = np.outer(h_i, h_i.conj())
        gamma_i = scenario.sinr_thresholds[i]
        coeffs = {name: q_i if j == i else -gamma_i * q_i for j, name in enumerate(names)}
        p.add_constraint(coeffs, sense=">=", rhs=gamma_i * scenario.noise_comm, name=f"sinr_{i+1}")
    n_t = scenario.geometry.n_tx
    p.add_constraint({n: np.eye(n_t, dtype=complex) for n in names}, sense="<=", rhs=scenario.power_budget, name="power")


def reference_point_sdp(scenario):
    geom = scenario.geometry
    n_t, k = geom.n_tx, scenario.n_users
    a, ad, nb2, nbd2 = point_terms(scenario.target.theta, geom)
    add = nbd2 * np.outer(a, a.conj()) + nb2 * np.outer(ad, ad.conj())
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
    p.add_constraint({"P": elem_re(2, 0, 0), **{n: -hermitize(add) for n in names}}, {"t": 1.0}, "==", 0.0, "couple_p11")
    p.add_constraint({"P": elem_re(2, 0, 1), **{n: -hermitize(cross_re) for n in names}}, sense="==", rhs=0.0,
                     name="couple_re_p12")
    p.add_constraint({"P": elem_im(2, 0, 1), **{n: -hermitize(cross_im) for n in names}}, sense="==", rhs=0.0,
                     name="couple_im_p12")
    p.add_constraint({"P": elem_re(2, 1, 1), **{n: -hermitize(aa) for n in names}}, sense="==", rhs=0.0,
                     name="couple_p22")
    reference_sinr_and_power_rows(p, scenario, names)
    return p


def reference_extended_sdp(scenario):
    n_t, k = scenario.geometry.n_tx, scenario.n_users
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
    reference_sinr_and_power_rows(p, scenario, names)
    return p


def assert_same_arrays(got, want):
    assert list(got) == list(want)
    for name, mat in want.items():
        assert got[name].dtype == mat.dtype and got[name].shape == mat.shape
        assert got[name].tobytes() == mat.tobytes(), name


def assert_same_problem(got, want):
    """Equal blocks, scalars, objective and rows, every coefficient bit for bit."""
    assert got.blocks == want.blocks and got.free_scalars == want.free_scalars
    assert got.objective_scalars == want.objective_scalars
    assert_same_arrays(got.objective_blocks, want.objective_blocks)
    assert len(got.constraints) == len(want.constraints)
    for g, w in zip(got.constraints, want.constraints):
        assert (g.sense, g.name, g.scalar_coeffs) == (w.sense, w.name, w.scalar_coeffs)
        assert np.float64(g.rhs).tobytes() == np.float64(w.rhs).tobytes()
        assert_same_arrays(g.block_coeffs, w.block_coeffs)


def reduction_scenario(n, k, gamma, factor, theta, seed):
    """Rayleigh channels at ``factor`` times their least power, or None when that has no
    fixed point.  K = N_t is set after construction: Scenario asks K < N_t, and the SDRs
    and their reduction take K = N_t as well."""
    channels = complex_gaussian(np.random.default_rng(seed), (k, n))
    power = least_power(channels, gamma, 1.0, max_iter=20_000)
    if power is None:
        return None
    kept = min(k, n - 1)
    scen = Scenario(ArrayGeometry(n, n + 2), channels[:kept], gamma[:kept], factor * power, 1.0, 1.0, n + 4,
                    PointTarget(theta))
    scen.channels, scen.sinr_thresholds = channels, np.asarray(gamma, dtype=float)
    return scen


def relaxed_design(design, scenario):
    """The design, or the relaxed solution that RankExcess carries."""
    try:
        return design(scenario)
    except RankExcess as exc:
        return exc.solution


def assert_lift_solves_the_full_sdr(scen):
    """Each design's lifted solution is as good a solution of the full-size SDR as the
    full-size solve's, within the solver's tolerance."""
    n = scen.geometry.n_tx
    for design, basis_of, build in ((design_point_multi, "_point_basis", build_point_sdp),
                                    (design_extended_multi, "_extended_basis", build_extended_sdp)):
        reduced = relaxed_design(design, scen)
        # the identity basis makes the design solve the full-size SDR
        with mock.patch.object(designs, basis_of, lambda s: np.eye(n)):
            full = relaxed_design(design, scen)
        problem = build(scen)
        got = check_certificate(problem, reduced.diagnostics["sdp"])
        want = check_certificate(problem, full.diagnostics["sdp"])
        # Optimal bounds each solve's gap by tol on data divided by max(1, max|b|)
        bound = SolveOptions().tol * max(1.0, max(abs(con.rhs) for con in problem.constraints))
        allowance = bound * (2 + sum(abs(rep[x]) for rep in (got, want) for x in ("pobj", "dobj")))
        assert abs(got["pobj"] - want["pobj"]) <= allowance
        for what in ("primal", "dual", "gap"):
            assert got[what] <= max(want[what], bound), what
        if design is design_point_multi:
            kkt = check_kkt_point(reduced, None, scen).max_residual()
            assert kkt <= max(1e-6, check_kkt_point(full, None, scen).max_residual())


class TestSubspaceReduction:
    """Each multi-user design solves its SDR on an orthonormal basis of the span of its
    data and lifts the solution into one of the full-size SDR."""

    @pytest.mark.parametrize("k, n_tx", [(1, 4), (3, 6), (4, 16)])
    def test_builders_without_a_basis_are_unchanged(self, rng, k, n_tx):
        scen = make_scenario(rng, k=k, n_tx=n_tx, n_rx=n_tx + 4, target=PointTarget(0.3, 1.0))
        assert_same_problem(build_point_sdp(scen), reference_point_sdp(scen))
        assert_same_problem(build_extended_sdp(scen), reference_extended_sdp(scen))

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.integers(2, 6), st.data(), st.sampled_from([1.05, 2.0, 20.0]), st.floats(-1.2, 1.2),
           st.integers(0, 2**32 - 1))
    def test_lifted_solution_solves_the_full_sdr(self, n, data, factor, theta, seed):
        # K runs up to N_t, so the point basis reaches d = N_t and the extended one m = 0
        k = data.draw(st.integers(1, n))
        gamma = 10 ** (np.array(data.draw(st.lists(st.floats(-10.0, 30.0), min_size=k, max_size=k))) / 10)
        scen = reduction_scenario(n, k, gamma, factor, theta, seed)
        assume(scen is not None)
        assert_lift_solves_the_full_sdr(scen)

    # found by random runs of the property test above: K = 1 at 0 dB and 1.05 x the least power
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the reduced extended SDR reads Optimal at a caller's-data gap above tol "
                              "(ROADMAP item 2), and the reduced point design's KKT residual exceeds the full one's")
    @pytest.mark.parametrize("n, theta, seed", [(4, 0.5, 722), (5, 1.0078125, 1)])
    def test_lifted_solution_at_a_gap_above_tol(self, n, theta, seed):
        # extended gaps 2.27e-7 and 1.84e-7; point KKT residuals 0.752 and 0.696 against 0.664 and 0.639
        assert_lift_solves_the_full_sdr(reduction_scenario(n, 1, [1.0], 1.05, theta, seed))

    @pytest.fixture(scope="class")
    def paper_extended(self):
        # paper size, K = 4 at 10 dB: the complement of the channels' span has m = 12
        channels = draw_channels(4, 16, np.random.default_rng(1))
        scen = Scenario(ArrayGeometry(16, 20), channels, [10.0] * 4, 1000.0, 1.0, 1.0, 30)
        return scen, design_extended_multi(scen)

    def test_complement_price(self, paper_extended):
        # the power row's price equals 1/c^2, c the eigenvalue of R_X off the channels' span
        scen, sol = paper_extended
        q = np.linalg.qr(scen.channels.conj().T)[0]
        c = np.real(np.trace(sol.covariance - q @ q.conj().T @ sol.covariance @ q @ q.conj().T)) / 12
        # equal at the optimum; the solve's complementarity leaves 1e-5
        assert -sol.diagnostics["sdp"].dual_multipliers[-1] * c**2 == pytest.approx(1.0, rel=1e-4)

    def test_lifted_multipliers_match_the_lifted_dual_slack(self, paper_extended):
        # only the rows on E reach E, so their sum_i y_i C_i there is C_E - Z_E
        scen, sol = paper_extended
        lifted, problem = sol.diagnostics["sdp"], build_extended_sdp(scen)
        on_e = sum(yi * con.block_coeffs["E"] for yi, con in zip(lifted.dual_multipliers, problem.constraints)
                   if "E" in con.block_coeffs)
        want = problem.objective_blocks["E"] - lifted.dual_blocks["E"]
        assert np.max(np.abs(on_e - want)) <= 1e-12 * np.max(np.abs(want))
        assert check_certificate(problem, lifted)["dual"] <= 1e-12


def harder_draw(index):
    """Draw ``index`` of 300 hard multi-user inputs from default_rng(2026): N_t in 2..8,
    K < N_t, SINR targets from -10 to 40 dB, sigma^2 from 1e-4 to 1e4, channels
    near-parallel with probability 2/3 (spread 1e-6 to 1e-1), and P a factor of 0.9,
    0.9999, 1 + 5e-7, 1.0001 or 1.1 times the least power."""
    rng = np.random.default_rng(2026)
    for _ in range(index + 1):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n))
        gamma = 10 ** (rng.uniform(-10, 40, k) / 10)
        sigma2 = 10 ** rng.uniform(-4, 4)
        if rng.random() < 2 / 3:
            spread = 10 ** rng.uniform(-6, -1)
            channels = complex_gaussian(rng, n) + spread * complex_gaussian(rng, (k, n))
        else:
            channels = complex_gaussian(rng, (k, n))
        factor = (0.9, 0.9999, 1 + 5e-7, 1.0001, 1.1)[int(rng.integers(0, 5))]
    power = factor * least_power(channels, gamma, sigma2, max_iter=20_000)
    return Scenario(ArrayGeometry(n, n + 4), channels, gamma, power, sigma2, 1.0, n + 14, PointTarget(0.0))


@pytest.mark.parametrize("index, design", [(8, design_point_multi), (192, design_extended_multi),
                                           (270, design_extended_multi)])
def test_harder_draws_meet_their_targets(index, design):
    # with 10 % power to spare, the full-size SDRs ended Optimal here and the designs fell
    # short of a SINR target (0.805, 0.57 and 0.0664 of it), so they raised SolverFailure
    scen = harder_draw(index)
    sol = design(scen)
    assert np.all(sol.achieved_sinrs >= scen.sinr_thresholds * (1 - designs.SINR_SHORTFALL))
    assert sol.total_power <= scen.power_budget * (1 + 1e-6)
