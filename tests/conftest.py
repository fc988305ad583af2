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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
