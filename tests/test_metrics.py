import numpy as np
import pytest

from crbeam.arrays import ArrayGeometry, PointTarget, steering, steering_deriv
from crbeam.errors import SingularCovariance, SingularFIM
from crbeam.metrics import (
    Scenario,
    achieved_sinrs,
    beampattern,
    crb_extended,
    crb_point_alpha,
    crb_point_theta,
    db_to_linear,
    dbm_to_mw,
    fim_extended,
    point_traces,
    radar_alpha_from_snr,
)

from conftest import complex_gaussian, make_scenario, random_psd


def crb_oracle(r_x, theta, alpha, sigma_r2, frame_len, n_tx, n_rx):
    """Direct evaluation of the bound from the full response matrices.

    Builds A = b a^H and its derivative explicitly and evaluates the
    trace quotient verbatim, independent of the factored fast path.
    """
    a = steering(theta, n_tx)
    b = steering(theta, n_rx)
    da = steering_deriv(theta, n_tx)
    db = steering_deriv(theta, n_rx)
    big_a = np.outer(b, a.conj())
    big_d = np.outer(db, a.conj()) + np.outer(b, da.conj())
    t_aa = np.trace(big_a.conj().T @ big_a @ r_x)
    t_dd = np.trace(big_d.conj().T @ big_d @ r_x)
    t_da = np.trace(big_d.conj().T @ big_a @ r_x)
    denom = np.real(t_dd) * np.real(t_aa) - abs(t_da) ** 2
    crb_theta = sigma_r2 * np.real(t_aa) / (2 * abs(alpha) ** 2 * frame_len * denom)
    crb_alpha = sigma_r2 * np.real(t_dd) / (frame_len * denom)
    return crb_theta, crb_alpha


def point_traces_reference(r_x, theta, geometry):
    """The trace kernel as it stood with ||b||^2 = Re(b^H b) instead of N_r."""
    a = steering(theta, geometry.n_tx)
    ad = steering_deriv(theta, geometry.n_tx)
    b = steering(theta, geometry.n_rx)
    bd = steering_deriv(theta, geometry.n_rx)
    nb2 = float(np.real(b.conj() @ b))
    nbd2 = float(np.real(bd.conj() @ bd))
    t_aa = nb2 * float(np.real(a.conj() @ r_x @ a))
    t_da = nb2 * complex(a.conj() @ r_x @ ad)
    t_dd = nbd2 * float(np.real(a.conj() @ r_x @ a)) + nb2 * float(np.real(ad.conj() @ r_x @ ad))
    return t_aa, t_da, t_dd


class TestPointCrb:
    def test_frozen_identity_covariance(self, rng):
        # N_t=4, N_r=6, theta=0, alpha=1, L=16, sigma=1, R_X=I:
        # tAA=24, tDA=0, tDD=100 pi^2 -> CRB(theta) = 1/(3200 pi^2), CRB(alpha) = 1/384
        scen = make_scenario(rng, k=2, n_tx=4, n_rx=6, frame_len=16)
        r_x = np.eye(4, dtype=complex)
        assert crb_point_theta(r_x, 0.0, 1.0, scen) == pytest.approx(1 / (3200 * np.pi**2), rel=1e-12)
        assert crb_point_alpha(r_x, 0.0, 1.0, scen) == pytest.approx(1 / 384, rel=1e-12)

    @pytest.mark.parametrize("theta", [0.0, 0.35, -0.8])
    def test_matches_verbatim_oracle(self, rng, theta):
        scen = make_scenario(rng, k=2, n_tx=4, n_rx=6, frame_len=16)
        r_x = random_psd(rng, 4, scale=10.0)
        alpha = 0.8 - 0.3j
        expect_theta, expect_alpha = crb_oracle(r_x, theta, alpha, 1.0, 16, 4, 6)
        assert crb_point_theta(r_x, theta, alpha, scen) == pytest.approx(expect_theta, rel=1e-10)
        assert crb_point_alpha(r_x, theta, alpha, scen) == pytest.approx(expect_alpha, rel=1e-10)

    def test_scaling_law(self, rng):
        scen = make_scenario(rng, k=2, n_tx=4, n_rx=6)
        r_x = random_psd(rng, 4)
        c = 7.5
        assert crb_point_theta(c * r_x, 0.1, 1.0, scen) == pytest.approx(
            crb_point_theta(r_x, 0.1, 1.0, scen) / c, rel=1e-10
        )
        assert crb_point_alpha(c * r_x, 0.1, 1.0, scen) == pytest.approx(
            crb_point_alpha(r_x, 0.1, 1.0, scen) / c, rel=1e-10
        )

    def test_rank_one_simplified_chain(self, rng):
        # for R_X = w w^H the quotient collapses to sigma^2 / (2|a|^2 L ||db||^2 |a^H w|^2)
        n_tx, n_rx, frame_len = 4, 6, 16
        scen = make_scenario(rng, k=2, n_tx=n_tx, n_rx=n_rx, frame_len=frame_len)
        theta = 0.25
        w = complex_gaussian(rng, n_tx)
        r_x = np.outer(w, w.conj())
        a = steering(theta, n_tx)
        db = steering_deriv(theta, n_rx)
        nbd2 = float(np.real(db.conj() @ db))
        simplified = 1.0 / (2 * frame_len * nbd2 * abs(a.conj() @ w) ** 2)
        assert crb_point_theta(r_x, theta, 1.0, scen) == pytest.approx(simplified, rel=1e-10)

    def test_trace_identities_factored_vs_full(self, rng):
        # each factored trace agrees with the full-matrix version
        n_tx, n_rx = 5, 7
        theta = -0.4
        r_x = random_psd(rng, n_tx)
        a, b = steering(theta, n_tx), steering(theta, n_rx)
        da, db = steering_deriv(theta, n_tx), steering_deriv(theta, n_rx)
        big_a = np.outer(b, a.conj())
        big_d = np.outer(db, a.conj()) + np.outer(b, da.conj())
        nb2, nbd2 = np.real(b.conj() @ b), np.real(db.conj() @ db)
        assert np.trace(big_a.conj().T @ big_a @ r_x) == pytest.approx(
            nb2 * np.real(a.conj() @ r_x @ a), rel=1e-10
        )
        assert np.trace(big_d.conj().T @ big_a @ r_x) == pytest.approx(
            nb2 * (a.conj() @ r_x @ da), rel=1e-10
        )
        assert np.real(np.trace(big_d.conj().T @ big_d @ r_x)) == pytest.approx(
            nbd2 * np.real(a.conj() @ r_x @ a) + nb2 * np.real(da.conj() @ r_x @ da), rel=1e-10
        )

    @pytest.mark.parametrize("theta", [0.0, 0.3, -0.8, 1.2])
    def test_point_traces_match_reference(self, rng, theta):
        # ||b||^2 = N_r exactly; Re(b^H b) equals it at broadside and is
        # within a few ulp of it elsewhere
        geom = ArrayGeometry(16, 20)
        r_x = random_psd(rng, 16, scale=10.0)
        got = point_traces(r_x, theta, geom)
        want = point_traces_reference(r_x, theta, geom)
        if theta == 0.0:
            assert got == want
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-15 * abs(w)

    def test_links_to_schur_complement_value(self, rng):
        # the bound equals sigma^2 / (2 |alpha|^2 L t*) with t* the largest
        # feasible value of the 2x2 information LMI
        from crbeam.verify import check_schur

        scen = make_scenario(rng, k=2, n_tx=5, n_rx=7, frame_len=20)
        r_x = random_psd(rng, 5, scale=4.0)
        theta, alpha = 0.3, 1.2 - 0.4j
        _, t_star = check_schur(r_x, theta, scen.geometry)
        expect = scen.noise_radar / (2 * abs(alpha) ** 2 * scen.frame_len * t_star)
        assert crb_point_theta(r_x, theta, alpha, scen) == pytest.approx(expect, rel=1e-8)

    def test_singular_information_rejected(self, rng):
        scen = make_scenario(rng, k=2, n_tx=4, n_rx=6)
        da = steering_deriv(0.0, 4)
        r_x = np.outer(da, da.conj()) / np.real(da.conj() @ da)
        with pytest.raises(SingularFIM):
            crb_point_theta(r_x, 0.0, 1.0, scen)

    def test_alpha_bound_positive(self, rng):
        scen = make_scenario(rng, k=2, n_tx=4, n_rx=6)
        for _ in range(5):
            r_x = random_psd(rng, 4) + 0.1 * np.eye(4)
            assert crb_point_alpha(r_x, 0.2, 1.5 - 0.5j, scen) > 0


class TestExtendedCrb:
    def test_fim_scalar_application(self, rng):
        scen = make_scenario(rng, k=4, n_tx=16, n_rx=20, frame_len=30)
        j = fim_extended(np.eye(16, dtype=complex), scen)
        assert np.allclose(j, 1.5 * np.eye(16))

    def test_fim_rank_matches_covariance(self, rng):
        scen = make_scenario(rng, k=4, n_tx=16, n_rx=20)
        w = complex_gaussian(rng, (16, 4))
        r_x = w @ w.conj().T
        j = fim_extended(r_x, scen)
        assert np.linalg.matrix_rank(j, tol=1e-9) == 4

    def test_frozen_isotropic_value(self, rng):
        scen = make_scenario(rng, k=4, n_tx=16, n_rx=20, frame_len=30)
        r_x = (1000.0 / 16) * np.eye(16, dtype=complex)
        assert crb_extended(r_x, scen) == pytest.approx(20 * 16**2 / (30 * 1000.0), rel=1e-12)

    def test_scaling_law(self, rng):
        scen = make_scenario(rng, k=2, n_tx=6, n_rx=8)
        r_x = random_psd(rng, 6) + np.eye(6)
        assert crb_extended(3.0 * r_x, scen) == pytest.approx(crb_extended(r_x, scen) / 3.0, rel=1e-10)

    def test_isotropic_is_harmonic_mean_optimum(self, rng):
        scen = make_scenario(rng, k=2, n_tx=6, n_rx=8)
        budget = 60.0
        iso = crb_extended(budget / 6 * np.eye(6, dtype=complex), scen)
        for _ in range(10):
            r_x = random_psd(rng, 6) + 0.05 * np.eye(6)
            r_x *= budget / np.real(np.trace(r_x))
            assert crb_extended(r_x, scen) >= iso * (1 - 1e-12)

    def test_singular_covariance_rejected(self, rng):
        scen = make_scenario(rng, k=2, n_tx=6, n_rx=8)
        w = complex_gaussian(rng, (6, 2))
        with pytest.raises(SingularCovariance):
            crb_extended(w @ w.conj().T, scen)


class TestSinr:
    def test_single_user(self, rng):
        scen = make_scenario(rng, k=1, n_tx=4, n_rx=6, sigma_c2=2.0)
        w = complex_gaussian(rng, (4, 1))
        h1 = scen.user_channel(0)
        sinr = achieved_sinrs(w, None, scen.channels, scen.noise_comm)[0]
        assert sinr == pytest.approx(abs(h1.conj() @ w[:, 0]) ** 2 / 2.0, rel=1e-12)

    def test_orthogonal_users_no_interference(self):
        channels = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]], dtype=complex)  # rows h_k^H
        scen = Scenario(ArrayGeometry(4, 6), channels, [1.0, 1.0], 10.0, 1.0, 1.0, 10)
        w = np.array([[2.0, 0], [0, 3.0], [0, 0], [0, 0]], dtype=complex)
        sinrs = achieved_sinrs(w, None, scen.channels, scen.noise_comm)
        assert sinrs == pytest.approx([4.0, 9.0], rel=1e-12)

    def test_two_user_hand_computation(self, rng):
        scen = make_scenario(rng, k=2, n_tx=4, n_rx=6, sigma_c2=1.5)
        w = complex_gaussian(rng, (4, 2))
        sinrs = achieved_sinrs(w, None, scen.channels, scen.noise_comm)
        for k in range(2):
            h = scen.user_channel(k)
            sig = abs(np.vdot(h, w[:, k])) ** 2
            interf = abs(np.vdot(h, w[:, 1 - k])) ** 2
            assert sinrs[k] == pytest.approx(sig / (interf + 1.5), rel=1e-12)

    def test_extended_reduces_without_leakage(self, rng):
        scen = make_scenario(rng, k=2, n_tx=4, n_rx=6)
        w = complex_gaussian(rng, (4, 2))
        with_zero_aux = achieved_sinrs(w, np.zeros((4, 4)), scen.channels, scen.noise_comm)
        assert with_zero_aux == pytest.approx(achieved_sinrs(w, None, scen.channels, scen.noise_comm), rel=1e-12)

    def test_extended_hand_computation(self, rng):
        scen = make_scenario(rng, k=2, n_tx=4, n_rx=6, sigma_c2=0.7)
        w = complex_gaussian(rng, (4, 2))
        w_a = complex_gaussian(rng, (4, 4))
        sinrs = achieved_sinrs(w, w_a, scen.channels, scen.noise_comm)
        for k in range(2):
            h = scen.user_channel(k)
            sig = abs(np.vdot(h, w[:, k])) ** 2
            interf = abs(np.vdot(h, w[:, 1 - k])) ** 2 + np.sum(np.abs(h.conj() @ w_a) ** 2)
            assert sinrs[k] == pytest.approx(sig / (interf + 0.7), rel=1e-12)

    def test_scale_invariance(self, rng):
        # scaling W_D by sqrt(c) and sigma_C^2 by c leaves every SINR unchanged
        w = complex_gaussian(rng, (4, 2))
        channels = complex_gaussian(rng, (2, 4))
        base = achieved_sinrs(w, None, channels, 1.0)
        scaled = achieved_sinrs(np.sqrt(3.0) * w, None, channels, 3.0)
        assert np.allclose(base, scaled, rtol=1e-12)


class TestBeampattern:
    def test_identity_covariance_flat(self):
        geom = ArrayGeometry(4, 6)
        grid = np.linspace(-np.pi / 2, np.pi / 2, 41)
        p = beampattern(np.eye(4, dtype=complex), grid, geom)
        assert np.allclose(p, 4.0, atol=1e-10)

    def test_focused_peak(self):
        geom = ArrayGeometry(8, 10)
        theta0, p_t = 0.3, 50.0
        a0 = steering(theta0, 8)
        r_x = p_t * np.outer(a0, a0.conj()) / 8
        p = beampattern(r_x, np.array([theta0]), geom)
        assert p[0] == pytest.approx(p_t * 8, rel=1e-12)

    def test_pointwise_quadratic_form(self, rng):
        geom = ArrayGeometry(5, 7)
        r_x = random_psd(rng, 5)
        grid = np.array([-0.7, 0.0, 0.4])
        p = beampattern(r_x, grid, geom)
        for t, val in zip(grid, p):
            a = steering(t, 5)
            assert val == pytest.approx(np.real(a.conj() @ r_x @ a), rel=1e-12)
        assert np.all(p >= 0)

    def test_matches_per_angle_reference(self, rng):
        geom = ArrayGeometry(16, 20)
        r_x = random_psd(rng, 16)
        grid = np.deg2rad(np.arange(-90.0, 90.0 + 1e-9, 0.5))
        a = np.column_stack([steering(t, 16) for t in grid])
        reference = np.real(np.einsum("ig,ig->g", a.conj(), r_x @ a))
        assert np.array_equal(beampattern(r_x, grid, geom), reference)


class TestScenario:
    def test_unit_conversions(self):
        assert dbm_to_mw(30.0) == pytest.approx(1000.0)
        assert dbm_to_mw(0.0) == pytest.approx(1.0)
        assert db_to_linear(15.0) == pytest.approx(10**1.5)

    def test_alpha_from_radar_snr(self, rng):
        scen = make_scenario(rng, k=4, n_tx=16, n_rx=20, frame_len=30)
        alpha = radar_alpha_from_snr(db_to_linear(30.0), scen)
        snr = abs(alpha) ** 2 * scen.frame_len * scen.power_budget / scen.noise_radar
        assert snr == pytest.approx(1000.0, rel=1e-12)

    def test_user_ordering_validation(self, rng):
        with pytest.raises(ValueError):
            make_scenario(rng, k=16, n_tx=16, n_rx=20)  # K < N_t violated

    def test_frame_length_validation(self, rng):
        with pytest.raises(ValueError):
            make_scenario(rng, k=2, n_tx=16, n_rx=20, frame_len=16)  # L > N_t violated
