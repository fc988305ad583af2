import numpy as np
import pytest

from crbeam.arrays import ArrayGeometry, ExtendedTarget, PointTarget, response_point, steering
from crbeam.errors import DegenerateSignal, DimensionMismatch, SingularGram, TooManyStreams
from crbeam.metrics import crb_extended, radar_alpha_from_snr, db_to_linear
from crbeam.sim import (
    GridSpec,
    PointMle,
    gen_streams,
    mle_extended,
    monte_carlo_extended,
    monte_carlo_point,
    radar_echo,
    synth_tx,
)

from conftest import complex_gaussian, make_scenario


class TestStreams:
    def test_single_stream_unit_power(self):
        s = gen_streams(1, 4, 0)
        assert np.real(s[0].conj() @ s[0]) / 4 == pytest.approx(1.0, rel=1e-12)

    def test_full_size_gram(self):
        s = gen_streams(20, 30, 11)
        gram = s @ s.conj().T / 30
        assert np.max(np.abs(gram - np.eye(20))) <= 1e-10

    def test_row_powers(self):
        s = gen_streams(5, 16, 3)
        for row in s:
            assert np.real(row.conj() @ row) / 16 == pytest.approx(1.0, rel=1e-12)

    def test_too_many_streams(self):
        with pytest.raises(TooManyStreams):
            gen_streams(10, 8, 0)


class TestSynthTx:
    def test_identity_beamformers(self):
        s = gen_streams(4, 12, 5)
        x = synth_tx(np.eye(4, dtype=complex), s)
        assert np.max(np.abs(x @ x.conj().T / 12 - np.eye(4))) <= 1e-10

    def test_single_stream_covariance(self, rng):
        w = complex_gaussian(rng, (6, 1))
        s = gen_streams(1, 20, 7)
        x = synth_tx(w, s)
        assert np.allclose(x @ x.conj().T / 20, w @ w.conj().T, atol=1e-12)

    def test_full_size_covariance(self, rng):
        w = complex_gaussian(rng, (16, 20))
        s = gen_streams(20, 30, 13)
        x = synth_tx(w, s)
        assert np.max(np.abs(x @ x.conj().T / 30 - w @ w.conj().T)) <= 1e-10

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            synth_tx(np.eye(4, dtype=complex), gen_streams(3, 10, 0))


class TestRadarEcho:
    def test_noiseless(self, rng):
        geom = ArrayGeometry(4, 6)
        target = PointTarget(0.2, 0.5 + 1.0j)
        x = complex_gaussian(rng, (4, 10))
        y = radar_echo(x, target, 0.0, geom, rng)
        assert np.allclose(y, response_point(target, geom) @ x, atol=1e-14)

    def test_pure_noise_variance(self, rng):
        geom = ArrayGeometry(4, 6)
        sigma = 2.5
        y = radar_echo(np.zeros((4, 4000), dtype=complex), PointTarget(0.0, 1.0), sigma, geom, rng)
        emp = np.mean(np.abs(y) ** 2)
        assert emp == pytest.approx(sigma, rel=0.05)

    def test_snr_convention_moment_oracle(self, rng):
        # with the full-power steering beam the total signal-to-noise energy
        # ratio equals SNR_radar * N_t / L: a joint check of alpha-from-SNR
        # and the per-entry noise split
        scen = make_scenario(rng, k=4, n_tx=16, n_rx=20, frame_len=30)
        snr = db_to_linear(20.0)
        alpha = radar_alpha_from_snr(snr, scen)
        target = PointTarget(0.0, alpha)
        a = steering(0.0, 16)
        w = np.sqrt(scen.power_budget) * a[:, None] / np.linalg.norm(a)
        sig = 0.0
        noise = 0.0
        for t in range(400):
            s = gen_streams(1, 30, rng)
            x = synth_tx(w, s)
            clean = response_point(target, scen.geometry) @ x
            y = radar_echo(x, target, scen.noise_radar, scen.geometry, rng)
            sig += np.sum(np.abs(clean) ** 2)
            noise += np.sum(np.abs(y - clean) ** 2)
        ratio = sig / noise
        assert ratio == pytest.approx(snr * 16 / 30, rel=0.05)


class TestPointMle:
    def _design(self, rng, alpha=1.0):
        scen = make_scenario(rng, k=4, n_tx=16, n_rx=20, target=PointTarget(0.0, alpha))
        from crbeam.designs import design_point_multi

        return scen, design_point_multi(scen)

    def test_noiseless_consistency(self, rng):
        scen, sol = self._design(rng)
        s = gen_streams(4, 30, 1)
        x = synth_tx(sol.comm_beamformers, s)
        y = radar_echo(x, scen.target, 0.0, scen.geometry, rng)
        theta_hat, alpha_hat = PointMle(x, GridSpec(), scen.geometry).estimate(y)
        assert abs(theta_hat) <= 1e-4
        assert abs(alpha_hat - 1.0) <= 1e-6

    def test_error_shrinks_with_noise(self, rng):
        scen, sol = self._design(rng)
        errs = []
        for sigma2 in (1e-2, 1e-4, 1e-6):
            rng_trial = np.random.default_rng(77)
            s = gen_streams(4, 30, rng_trial)
            x = synth_tx(sol.comm_beamformers, s)
            y = radar_echo(x, scen.target, sigma2, scen.geometry, rng_trial)
            theta_hat, _ = PointMle(x, GridSpec(), scen.geometry).estimate(y)
            errs.append(abs(theta_hat))
        assert errs[0] > errs[1] > errs[2]

    def test_degenerate_signal(self, rng):
        geom = ArrayGeometry(4, 6)
        with pytest.raises(DegenerateSignal):
            PointMle(np.zeros((4, 10), dtype=complex), GridSpec(), geom)

    def test_monte_carlo_high_snr_band(self, rng):
        scen = make_scenario(rng, k=4, n_tx=16, n_rx=20)
        alpha = radar_alpha_from_snr(db_to_linear(32.0), scen)
        scen.target = PointTarget(0.0, alpha)
        from crbeam.designs import design_point_multi

        sol = design_point_multi(scen)
        rep = monte_carlo_point(scen, sol.comm_beamformers, 300, 8888)
        assert 0.9 <= rep["ratio"] <= 1.25  # smoke-level band; acceptance runs 10^3 trials

    def test_monte_carlo_deterministic(self, rng):
        scen = make_scenario(rng, k=2, n_tx=8, n_rx=10)
        scen.target = PointTarget(0.0, radar_alpha_from_snr(db_to_linear(25.0), scen))
        from crbeam.designs import design_point_multi

        sol = design_point_multi(scen)
        r1 = monte_carlo_point(scen, sol.comm_beamformers, 50, 31)
        r2 = monte_carlo_point(scen, sol.comm_beamformers, 50, 31)
        assert r1 == r2


class TestExtendedMle:
    def test_noiseless_exact(self, rng):
        geom = ArrayGeometry(8, 10)
        target = ExtendedTarget.random(geom, rng)
        w = complex_gaussian(rng, (8, 8)) + 2 * np.eye(8)
        s = gen_streams(8, 20, 2)
        x = synth_tx(w, s)
        y = radar_echo(x, target, 0.0, geom, rng)
        g_hat = mle_extended(y, x)
        assert np.linalg.norm(g_hat - target.response) <= 1e-9 * np.linalg.norm(target.response)

    def test_data_only_streams_singular(self, rng):
        # K streams < N_t leave the Gram rank deficient: the missing
        # transmit degrees of freedom make unbiased estimation impossible
        w = complex_gaussian(rng, (8, 3))
        x = synth_tx(w, gen_streams(3, 20, 4))
        with pytest.raises(SingularGram):
            mle_extended(np.ones((10, 20), dtype=complex), x)

    def test_mse_matches_crb(self, rng):
        scen = make_scenario(rng, k=3, n_tx=8, n_rx=10, gamma_db=10.0)
        from crbeam.designs import design_extended_multi

        sol = design_extended_multi(scen)
        rep = monte_carlo_extended(scen, sol.comm_beamformers, sol.aux_beamformer, 2500, 555)
        assert rep["ratio"] == pytest.approx(1.0, abs=0.05)

    def test_unbiasedness(self, rng):
        geom = ArrayGeometry(4, 6)
        target = ExtendedTarget.random(geom, np.random.default_rng(0))
        w = complex_gaussian(rng, (4, 4)) + 2 * np.eye(4)
        acc = np.zeros((6, 4), dtype=complex)
        trials = 3000
        for i in range(trials):
            rng_t = np.random.default_rng(1000 + i)
            x = synth_tx(w, gen_streams(4, 12, rng_t))
            y = radar_echo(x, target, 1.0, geom, rng_t)
            acc += mle_extended(y, x) - target.response
        mean_err = acc / trials
        # 3-sigma bound on the Monte Carlo mean of each entry
        gram_inv = np.linalg.inv(w @ w.conj().T * 12)
        sigma_entry = np.sqrt(np.max(np.real(np.diag(gram_inv))))
        assert np.max(np.abs(mean_err)) <= 3.5 * sigma_entry / np.sqrt(trials) + 3e-2

    def test_monte_carlo_deterministic(self, rng):
        scen = make_scenario(rng, k=2, n_tx=6, n_rx=8)
        from crbeam.designs import design_extended_multi

        sol = design_extended_multi(scen)
        r1 = monte_carlo_extended(scen, sol.comm_beamformers, sol.aux_beamformer, 60, 9)
        r2 = monte_carlo_extended(scen, sol.comm_beamformers, sol.aux_beamformer, 60, 9)
        assert r1 == r2
