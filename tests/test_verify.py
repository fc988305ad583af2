import numpy as np
import pytest

from crbeam.arrays import ArrayGeometry, steering, steering_deriv, steering_deriv_norm_sq
from crbeam.designs import design_point_multi
from crbeam.errors import DegenerateDenominator
from crbeam.numerics import herm_eig
from crbeam.verify import (
    check_kkt_point,
    check_schur,
    check_rank_one_condition,
    eig_f,
    gradient_matrix_f,
)

from conftest import complex_gaussian, make_scenario, random_psd


class TestCheckSchur:
    def test_identity_cross_term_vanishes(self):
        geom = ArrayGeometry(4, 6)
        t_lmi, t_closed = check_schur(np.eye(4, dtype=complex), 0.3, geom)
        # cross term dies by steering/derivative orthogonality: t = tr(Adot^H Adot)
        expect = steering_deriv_norm_sq(0.3, 6) * 4 + 6 * steering_deriv_norm_sq(0.3, 4)
        assert t_closed == pytest.approx(expect, rel=1e-12)
        assert t_lmi == pytest.approx(t_closed, rel=1e-8)

    def test_rank_one_steering_covariance(self):
        geom = ArrayGeometry(4, 6)
        c = 2.5
        a = steering(0.1, 4)
        r_x = c * np.outer(a, a.conj())
        t_lmi, t_closed = check_schur(r_x, 0.1, geom)
        expect = c * steering_deriv_norm_sq(0.1, 6) * 16
        assert t_closed == pytest.approx(expect, rel=1e-12)
        assert t_lmi == pytest.approx(t_closed, rel=1e-8)

    def test_seeded_psd_agreement(self, rng):
        geom = ArrayGeometry(6, 8)
        for _ in range(50):
            r_x = random_psd(rng, 6, scale=rng.uniform(0.1, 50))
            t_lmi, t_closed = check_schur(r_x, rng.uniform(-1.0, 1.0), geom)
            assert abs(t_lmi - t_closed) <= 1e-8 * abs(t_closed)

    def test_degenerate_denominator(self):
        geom = ArrayGeometry(4, 6)
        da = steering_deriv(0.0, 4)
        r_x = np.outer(da, da.conj()) / np.real(da.conj() @ da) * 1e-16
        with pytest.raises(DegenerateDenominator):
            check_schur(r_x, 0.0, geom)


class TestEigF:
    def test_beta_zero_decoupled(self):
        geom = ArrayGeometry(4, 6)
        lam1, lam2 = eig_f(0.0, geom, theta=0.0)
        assert lam1 == pytest.approx(4 * steering_deriv_norm_sq(0.0, 6), rel=1e-12)
        assert lam2 == pytest.approx(6 * steering_deriv_norm_sq(0.0, 4), rel=1e-12)

    @pytest.mark.parametrize("beta", [0.3 + 0.1j, 10.0, 500.0j, 1000.0])
    @pytest.mark.parametrize("theta", [0.0, 0.4])
    def test_matches_numeric_eigendecomposition(self, beta, theta):
        # the numeric side is itself only accurate to ~eps*||F||, which caps
        # what "agreement" can mean for the small eigenvalue at huge |beta|
        geom = ArrayGeometry(4, 6)
        f = gradient_matrix_f(geom, theta, beta)
        values, _ = herm_eig(f)
        lam1, lam2 = eig_f(beta, geom, theta=theta)
        assert abs(lam1 - values[-1]) <= 1e-9 * max(1.0, lam1)
        assert abs(lam2 - values[-2]) <= 1e-9 * max(1.0, lam1)
        # the remaining eigenvalues vanish: F has rank 2
        assert np.max(np.abs(values[:-2])) <= 1e-9 * max(1.0, lam1)
        if abs(beta) <= 10.0:
            assert lam1 == pytest.approx(values[-1], rel=1e-9)
            assert lam2 == pytest.approx(values[-2], rel=1e-9)

    def test_strict_separation_when_arrays_differ(self, rng):
        geom = ArrayGeometry(4, 6)
        for _ in range(20):
            beta = complex_gaussian(rng, ()) * rng.uniform(0, 1000)
            lam1, lam2 = eig_f(complex(beta), geom)
            assert lam1 > lam2

    def test_equal_arrays_degenerate_at_beta_zero(self):
        # N_t = N_r makes the two nonzero eigenvalues collide at beta = 0
        lam1, lam2 = eig_f(0.0, ArrayGeometry(6, 6))
        assert lam1 == pytest.approx(lam2, rel=1e-12)


class TestRankOneCondition:
    def test_single_user_never_full_rank(self, rng):
        ok, rep = check_rank_one_condition(complex_gaussian(rng, (1, 8)), 0.0, ArrayGeometry(8, 10))
        assert not ok
        assert rep["rank"] <= 1

    def test_random_channels_full_rank(self, rng):
        for _ in range(20):
            ok, rep = check_rank_one_condition(
                complex_gaussian(rng, (4, 8)), 0.2, ArrayGeometry(8, 10)
            )
            assert ok and rep["rank"] == 2

    def test_engineered_null(self, rng):
        geom = ArrayGeometry(8, 10)
        a = steering(0.1, 8)
        da = steering_deriv(0.1, 8)
        h = complex_gaussian(rng, (3, 8))
        # D uses the bilinear product H a, so null the rows against conj(a), conj(da)
        for v in (a, da):
            h = h - np.outer(h @ v, v.conj()) / np.real(v.conj() @ v)
        ok, rep = check_rank_one_condition(h, 0.1, geom)
        assert not ok
        assert rep["rank"] == 0


class TestKktPoint:
    def test_solver_output_passes(self, rng):
        scen = make_scenario(rng, k=4, n_tx=16, n_rx=20, gamma_db=15.0)
        sol = design_point_multi(scen)
        report = check_kkt_point(sol, None, scen)
        assert report.max_residual() <= 1e-6
        assert report.details["passes"]
        assert abs(report.phi - 1.0) <= 1e-6
        assert abs(report.gamma - abs(report.beta) ** 2) <= 1e-6 * max(1.0, abs(report.beta) ** 2)
        # every Z_k PSD within tolerance and active multipliers nonnegative
        for name, val in report.dual_feasibility.items():
            assert val >= -1e-6, name
        assert np.all(report.details["mu"] >= 0)

    def test_tight_single_user_matches_closed_form(self, rng):
        from crbeam.designs import design_point_single

        scen = make_scenario(rng, k=1, n_tx=8, n_rx=10, gamma_db=18.0)
        sol = design_point_multi(scen)
        report = check_kkt_point(sol, None, scen)
        assert report.max_residual() <= 1e-6
        closed = design_point_single(scen)
        w_sdp = sol.comm_beamformers[:, 0]
        w_closed = closed.comm_beamformers[:, 0]
        align = np.vdot(w_sdp, w_closed)
        w_sdp = w_sdp * align / abs(align)
        assert np.linalg.norm(w_sdp - w_closed) <= 1e-4 * np.linalg.norm(w_closed)

    def test_perturbation_grows_linearly(self, rng):
        scen = make_scenario(rng, k=3, n_tx=8, n_rx=10, gamma_db=12.0)
        sol = design_point_multi(scen)
        residuals = []
        for eps in (1e-4, 1e-2):
            blocks = [w.copy() for w in sol.diagnostics["w_blocks"]]
            blocks[0] = blocks[0] + eps * np.real(np.trace(blocks[0])) * np.eye(8)
            perturbed = type(sol)(
                comm_beamformers=sol.comm_beamformers,
                covariance=sol.covariance,
                achieved_sinrs=sol.achieved_sinrs,
                objective=sol.objective,
                diagnostics={**sol.diagnostics, "w_blocks": blocks, "sdp": None},
            )
            rep = check_kkt_point(perturbed, sol.diagnostics["duals"], scen)
            residuals.append(max(v for k, v in rep.complementarity_residuals.items() if k.startswith("tr_Z_W")))
        assert residuals[1] / residuals[0] == pytest.approx(100.0, rel=0.2)
