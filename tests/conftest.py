import os

# the benchmark's BLAS setting, one thread per library, set before numpy
# loads; on these small matrices more threads only contend for the cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from crbeam.arrays import ArrayGeometry, PointTarget
from crbeam.metrics import Scenario


def complex_gaussian(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def random_hermitian(rng, n, scale=1.0):
    raw = complex_gaussian(rng, (n, n))
    return scale * (raw + raw.conj().T) / 2


def random_psd(rng, n, scale=1.0):
    raw = complex_gaussian(rng, (n, n))
    return scale * (raw @ raw.conj().T)


def make_scenario(rng, k=4, n_tx=16, n_rx=20, gamma_db=15.0, p_t=1000.0, sigma_c2=1.0,
                  sigma_r2=1.0, frame_len=30, target=None):
    channels = complex_gaussian(rng, (k, n_tx))
    gamma = 10 ** (gamma_db / 10)
    return Scenario(
        geometry=ArrayGeometry(n_tx, n_rx),
        channels=channels,
        sinr_thresholds=np.full(k, gamma),
        power_budget=p_t,
        noise_comm=sigma_c2,
        noise_radar=sigma_r2,
        frame_len=frame_len,
        target=target if target is not None else PointTarget(0.0, 1.0 + 0.0j),
    )


def one_user_scenario(h1, gamma, geometry, p_t=1.0, sigma_c2=1.0, theta=0.0):
    """The scenario of one user with channel ``h1`` and a PointTarget at ``theta`` (L = 30, sigma_R^2 = 1)."""
    return Scenario(geometry, np.conj(h1)[None, :], [gamma], p_t, sigma_c2, 1.0, 30, PointTarget(theta))


def assert_farkas_ray(problem, certificate, rel_tol=1e-9):
    """``certificate`` holds a Farkas ray y of ``problem``, checked on its data alone: y_i
    signed by row i's sense, b^T y > 0, -sum y_i C_i PSD on every block and
    sum y_i a_i = 0 on every free scalar, each within ``rel_tol`` |y|; its improvement and
    cone violation are those of y on that data."""
    cons = problem.constraints
    y = np.asarray(certificate["y"], dtype=float)
    assert y.shape == (len(cons),) and np.all(np.isfinite(y))
    norm_y = np.linalg.norm(y)
    tol = rel_tol * norm_y
    assert all(yi >= -tol for yi, con in zip(y, cons) if con.sense == ">=")
    assert all(yi <= tol for yi, con in zip(y, cons) if con.sense == "<=")
    for name in problem.free_scalars:
        assert abs(sum(yi * con.scalar_coeffs.get(name, 0.0) for yi, con in zip(y, cons))) <= tol
    lam_min = np.inf
    for name, dim in problem.blocks:
        z = np.zeros((dim, dim), dtype=complex)
        for yi, con in zip(y, cons):
            if name in con.block_coeffs:
                z -= yi * con.block_coeffs[name]
        lam_min = min(lam_min, np.linalg.eigvalsh(z)[0])
    assert lam_min >= -tol
    b_y = y @ np.array([con.rhs for con in cons])
    assert b_y > 0
    assert certificate["improvement"] == pytest.approx(b_y / norm_y, rel=1e-12)
    assert certificate["cone_violation"] == pytest.approx(max(0.0, -lam_min) / norm_y, rel=1e-9, abs=1e-300)


def lossless_extraction_error(w_bars, beamformers, channels):
    """How far the columns w_k of ``beamformers`` are from a lossless extraction of the
    relaxed blocks W_k: the largest over k of -lambda_min(W_k - w_k w_k^H) / ||W_k|| and
    |h_k^H (W_k - w_k w_k^H) h_k| / h_k^H W_k h_k, with h_k^H the rows of ``channels``."""
    worst = 0.0
    for w_bar, w, h_row in zip(w_bars, np.asarray(beamformers).T, channels):
        h = np.conj(h_row)
        rest = w_bar - np.outer(w, w.conj())
        worst = max(worst, -np.linalg.eigvalsh((rest + rest.conj().T) / 2)[0] / np.linalg.norm(w_bar),
                    abs(np.real(h.conj() @ rest @ h)) / np.real(h.conj() @ w_bar @ h))
    return worst


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
