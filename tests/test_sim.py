import numpy as np
import pytest

from crbeam.arrays import ArrayGeometry, ExtendedTarget, PointTarget, response_point, steering
from crbeam.errors import DegenerateSignal, DimensionMismatch, SingularGram, TooManyStreams
from crbeam.metrics import crb_extended, radar_alpha_from_snr, db_to_linear
from crbeam.sim import (
    _CHUNK,
    DEG,
    GridSpec,
    PointMle,
    _lag_sums,
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

    def test_exact_on_any_frame(self, rng):
        # an i.i.d. Gaussian frame is not W S: (1/L) X X^H is no design covariance
        geom = ArrayGeometry(6, 8)
        grid = GridSpec(half_width=5 * DEG, step=0.1 * DEG)
        x = complex_gaussian(rng, (6, 20))
        y = radar_echo(x, PointTarget(1.3 * DEG, 0.4 - 0.7j), 0.5, geom, rng)
        theta_hat, alpha_hat = PointMle(x, grid, geom).estimate(y)
        a, b = steering(theta_hat, 6), steering(theta_hat, 8)
        u = a.conj() @ x
        assert alpha_hat == pytest.approx(b.conj() @ y @ u.conj() / (8 * np.vdot(u, u).real), rel=1e-12)

        def metric(theta):  # |<b a^H X, Y>|^2 / (N_r ||a^H X||^2), from the definition
            u = steering(theta, 6).conj() @ x
            return abs(np.vdot(np.outer(steering(theta, 8), u), y)) ** 2 / (8 * np.vdot(u, u).real)

        best = max(grid.angles(), key=metric)
        assert abs(theta_hat - best) <= grid.step

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


class TestStackedKernels:
    """A stack of frames gives what the single-frame calls give frame by frame."""

    @pytest.mark.parametrize("n_tx, n_rx", [(6, 8), (6, 9)], ids=["even lag offset", "odd lag offset"])
    def test_lag_metric_matches_the_definition(self, n_tx, n_rx, rng):
        geom = ArrayGeometry(n_tx, n_rx)
        grid = GridSpec(center=0.3, half_width=20 * DEG, step=0.5 * DEG)
        x = complex_gaussian(rng, (n_tx, 20))
        y = radar_echo(x, PointTarget(0.35, 0.4 - 0.7j), 0.5, geom, rng)
        est = PointMle(x, grid, geom)
        metric = np.abs(_lag_sums(y @ x.conj().T) @ est.num_phases) ** 2 / est.denom
        u = steering(grid.angles(), n_tx).conj().T @ x                      # rows a(theta)^H X
        b = steering(grid.angles(), n_rx)
        want = [abs(np.vdot(np.outer(b[:, g], u[g]), y)) ** 2 / (n_rx * np.vdot(u[g], u[g]).real)
                for g in range(grid.angles().size)]
        assert np.allclose(metric, want, rtol=1e-12, atol=0)

    def test_point_mle_stack_matches_single_frames(self, rng):
        geom = ArrayGeometry(8, 10)
        grid = GridSpec(half_width=6 * DEG, step=0.1 * DEG)
        w = complex_gaussian(rng, (8, 3))
        rngs = [np.random.default_rng(s) for s in range(7)]
        x = synth_tx(w, gen_streams(3, 16, rngs))
        y = radar_echo(x, PointTarget(1.1 * DEG, 0.3 + 0.2j), 0.2, geom, rngs)
        theta, alpha = PointMle(x, grid, geom).estimate(y)
        single_theta, single_alpha = np.array([PointMle(xi, grid, geom).estimate(yi) for xi, yi in zip(x, y)]).T
        assert theta.shape == alpha.shape == (7,)
        # the refinement moves theta by at most half a step from its grid argmax
        assert np.array_equal(np.rint(theta / grid.step), np.rint(single_theta.real / grid.step))
        assert np.allclose(theta, single_theta.real, rtol=0, atol=1e-12)
        assert np.allclose(alpha, single_alpha, rtol=1e-12, atol=0)

    def test_no_refinement_at_the_grid_edges(self, rng):
        # targets outside the window put the argmax on its first and last angles
        geom = ArrayGeometry(8, 10)
        grid = GridSpec(half_width=2 * DEG, step=0.1 * DEG)
        rngs = [np.random.default_rng(s) for s in range(2)]
        x = synth_tx(complex_gaussian(rng, (8, 3)), gen_streams(3, 16, rngs))
        y = radar_echo(x, [PointTarget(-5 * DEG), PointTarget(5 * DEG)], 0.0, geom, rngs)
        theta, _ = PointMle(x, grid, geom).estimate(y)
        assert np.array_equal(theta, grid.angles()[[0, -1]])

    def test_mle_extended_stack_matches_single_frames(self, rng):
        geom = ArrayGeometry(4, 6)
        w = complex_gaussian(rng, (4, 4)) + 2 * np.eye(4)
        rngs = [np.random.default_rng(s) for s in range(5)]
        targets = [ExtendedTarget.random(geom, r) for r in rngs]
        x = synth_tx(w, gen_streams(4, 12, rngs))
        y = radar_echo(x, targets, 0.5, geom, rngs)
        g_hat = mle_extended(y, x)
        for xi, yi, gi in zip(x, y, g_hat):
            assert np.allclose(gi, mle_extended(yi, xi), rtol=0, atol=1e-12 * np.abs(gi).max())

    @pytest.mark.parametrize("trials", [1, _CHUNK, _CHUNK + 1])
    def test_monte_carlo_point_matches_a_single_frame_loop(self, trials, rng):
        scen = make_scenario(rng, k=2, n_tx=8, n_rx=10, frame_len=16)
        scen.target = PointTarget(0.0, radar_alpha_from_snr(db_to_linear(20.0), scen))
        w = complex_gaussian(rng, (8, 2))
        grid = GridSpec(half_width=4 * DEG, step=0.1 * DEG)
        sq_theta, sq_alpha = [], []
        for child in np.random.SeedSequence(17).spawn(trials):
            trial = np.random.default_rng(child)
            x = synth_tx(w, gen_streams(2, 16, trial))
            y = radar_echo(x, scen.target, scen.noise_radar, scen.geometry, trial)
            theta, alpha = PointMle(x, grid, scen.geometry).estimate(y)
            sq_theta.append((theta - scen.target.theta) ** 2)
            sq_alpha.append(abs(alpha - scen.target.alpha) ** 2)
        rep = monte_carlo_point(scen, w, trials, 17, grid)
        assert rep["trials"] == trials
        assert rep["rmse_theta"] == pytest.approx(np.sqrt(np.mean(sq_theta)), rel=1e-12)
        assert rep["rmse_alpha"] == pytest.approx(np.sqrt(np.mean(sq_alpha)), rel=1e-12)

    @pytest.mark.parametrize("trials", [1, _CHUNK, _CHUNK + 1])
    def test_monte_carlo_extended_matches_a_single_frame_loop(self, trials, rng):
        scen = make_scenario(rng, k=2, n_tx=4, n_rx=6, frame_len=12)
        w, aux = complex_gaussian(rng, (4, 2)), complex_gaussian(rng, (4, 4))
        stacked = np.hstack([w, aux])
        sq = []
        for child in np.random.SeedSequence(23).spawn(trials):
            trial = np.random.default_rng(child)
            target = ExtendedTarget.random(scen.geometry, trial)
            x = synth_tx(stacked, gen_streams(6, 12, trial))
            y = radar_echo(x, target, scen.noise_radar, scen.geometry, trial)
            sq.append(np.linalg.norm(mle_extended(y, x) - target.response) ** 2)
        rep = monte_carlo_extended(scen, w, aux, trials, 23)
        assert rep["trials"] == trials
        assert rep["mse"] == pytest.approx(np.mean(sq), rel=1e-12)


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


@pytest.mark.parametrize("call, exc, match", [
    (lambda rng: radar_echo(np.ones((3, 5)), PointTarget(0.0), 1.0, ArrayGeometry(4, 6), rng),
     DimensionMismatch, "expects 4 tx antennas, got 3"),
    (lambda rng: monte_carlo_point(make_scenario(rng, k=2, n_tx=4, n_rx=6, frame_len=8,
                                                 target=ExtendedTarget(np.ones((6, 4)))), np.ones((4, 2)), 1, 0),
     ValueError, "scenario must carry a PointTarget"),
    (lambda rng: radar_echo(np.ones((4, 5)), PointTarget(0.0), -1.0, ArrayGeometry(4, 6), rng),
     ValueError, "sigma_r2 must be finite and non-negative"),
    (lambda rng: radar_echo(np.ones((4, 5)), PointTarget(0.0), np.nan, ArrayGeometry(4, 6), rng),
     ValueError, "sigma_r2 must be finite and non-negative"),
    (lambda rng: radar_echo(np.ones((2, 4, 5)), PointTarget(0.0), 1.0, ArrayGeometry(4, 6), [rng]),
     DimensionMismatch, "1 generators for 2 frames"),
    (lambda rng: GridSpec(step=0.0), ValueError, "GridSpec.step must be positive"),
    (lambda rng: GridSpec(step=-DEG), ValueError, "GridSpec.step must be positive"),
    (lambda rng: GridSpec(half_width=-DEG), ValueError, "GridSpec.half_width must be non-negative"),
    (lambda rng: GridSpec(center=np.inf), ValueError, "GridSpec.center must be finite"),
    (lambda rng: GridSpec(half_width=np.nan), ValueError, "GridSpec.half_width must be finite"),
    (lambda rng: monte_carlo_point(make_scenario(rng, k=2, n_tx=4, n_rx=6, frame_len=8), np.ones((4, 2)), 0, 0),
     ValueError, "trials must be at least 1, got 0"),
    (lambda rng: monte_carlo_extended(make_scenario(rng, k=2, n_tx=4, n_rx=6, frame_len=8), np.ones((4, 2)),
                                      np.eye(4), -1, 0),
     ValueError, "trials must be at least 1, got -1"),
], ids=["radar_echo", "monte_carlo_point", "negative_noise", "nan_noise", "generator_count", "zero_step",
        "negative_step", "negative_half_width", "infinite_center", "nan_half_width", "zero_trials",
        "negative_trials"])
def test_input_checks(call, exc, match, rng):
    with pytest.raises(exc, match=match):
        call(rng)
