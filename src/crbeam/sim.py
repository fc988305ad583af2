"""Signal-level simulation: stream synthesis, echoes, ML estimation, Monte Carlo.

The estimators are exact for any transmitted frame X; neither assumes the
streams' Gram property.  Every kernel takes one frame, or a stack of frames
along a leading trial axis: ``gen_streams`` and ``radar_echo`` stack when
given a sequence of generators, and ``synth_tx``, ``PointMle`` and
``mle_extended`` broadcast over the stack.

Monte Carlo runs its trials in chunks of ``_CHUNK`` stacked frames, which
bounds the memory a batch holds.  Per-trial randomness is derived from a
single experiment seed through ``numpy.random.SeedSequence`` spawning:
trial i draws only from child i, streams then noise for a point trial and
target, streams then noise for an extended trial, so a run's statistics
depend on the seed and the trial count alone, not on the chunking.

On the centred half-wavelength ULAs, b(theta)^H M a(theta) depends on M only
through its sums along the diagonals t - r = d: it equals
sum_d m_d exp(j pi (d + (N_r - N_t)/2) sin theta).  ``PointMle`` therefore
evaluates its grid metric from the N_r + N_t - 1 lag sums of Y X^H and the
2 N_t - 1 of X X^H against phase matrices built once per grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .arrays import ArrayGeometry, ExtendedTarget, PointTarget, target_response
from .errors import DegenerateSignal, DimensionMismatch, SingularGram, TooManyStreams
from .metrics import Scenario, crb_extended, crb_point_theta

DEG = np.pi / 180.0

# trials stacked per Monte Carlo chunk: large enough to amortise the
# per-call overhead of the kernels, small enough to keep the peak memory flat
_CHUNK = 32


def _herm(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return np.swapaxes(m.conj(), -1, -2)


def _gaussians(rngs, shape) -> np.ndarray:
    """One complex Gaussian draw of ``shape`` per generator, real parts then imaginary parts, stacked."""
    parts = np.array([rng.standard_normal((2,) + shape) for rng in rngs])
    return parts[:, 0] + 1j * parts[:, 1]


def gen_streams(n_streams: int, frame_len: int, seed) -> np.ndarray:
    """Unit-power mutually orthogonal streams: (1/L) S S^H = I exactly.

    Rows are orthonormalized complex Gaussian draws scaled by sqrt(L);
    only this Gram property matters downstream, not the symbol values.
    ``seed`` is an int or a generator for one (K, L) frame, or a sequence
    of generators for a (T, K, L) stack with frame i drawn from generator i.
    """
    if n_streams > frame_len:
        raise TooManyStreams(f"cannot fit {n_streams} orthogonal streams in {frame_len} samples")
    stacked = isinstance(seed, (list, tuple))
    raw = _gaussians(seed if stacked else [np.random.default_rng(seed)], (frame_len, n_streams))
    q, _ = np.linalg.qr(raw)
    s = np.sqrt(frame_len) * _herm(q)
    return s if stacked else s[0]


def synth_tx(beamformers: np.ndarray, streams: np.ndarray) -> np.ndarray:
    """Transmit frame X = W S; its sample covariance is W W^H by the Gram property."""
    if beamformers.shape[1] != streams.shape[-2]:
        raise DimensionMismatch(
            f"{beamformers.shape[1]} beamformer columns vs {streams.shape[-2]} streams"
        )
    return beamformers @ streams


def radar_echo(
    tx: np.ndarray,
    target,
    sigma_r2: float,
    geometry: ArrayGeometry,
    rng,
) -> np.ndarray:
    """Echo Y = G X + Z with circularly-symmetric noise of per-entry variance sigma_r2.

    For a (T, N_t, L) stack ``tx``, ``rng`` is a sequence of T generators and
    ``target`` one target for every frame or a sequence of one per frame.
    """
    if not (np.isfinite(sigma_r2) and sigma_r2 >= 0):
        raise ValueError(f"sigma_r2 must be finite and non-negative, got {sigma_r2}")
    g = (np.array([target_response(t, geometry) for t in target]) if isinstance(target, (list, tuple))
         else target_response(target, geometry))
    if g.shape[-1] != tx.shape[-2]:
        raise DimensionMismatch(f"target response expects {g.shape[-1]} tx antennas, got {tx.shape[-2]}")
    rngs = list(rng) if tx.ndim == 3 else [rng]
    if tx.ndim == 3 and len(rngs) != len(tx):
        raise DimensionMismatch(f"{len(rngs)} generators for {len(tx)} frames")
    shape = (geometry.n_rx, tx.shape[-1])
    noise = np.sqrt(sigma_r2 / 2) * _gaussians(rngs, shape).reshape(tx.shape[:-2] + shape)
    return g @ tx + noise


@dataclass(frozen=True)
class GridSpec:
    """Search window for the point-target ML estimator (radians)."""

    center: float = 0.0
    half_width: float = 10.0 * DEG
    step: float = 0.05 * DEG

    def __post_init__(self):
        for name in ("center", "half_width", "step"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"GridSpec.{name} must be finite, got {getattr(self, name)}")
        if self.step <= 0:
            raise ValueError(f"GridSpec.step must be positive, got {self.step}")
        if self.half_width < 0:
            raise ValueError(f"GridSpec.half_width must be non-negative, got {self.half_width}")

    def angles(self) -> np.ndarray:
        n = int(np.floor(self.half_width / self.step))
        return self.center + self.step * np.arange(-n, n + 1)


def _lag_sums(m: np.ndarray) -> np.ndarray:
    """Sums of an (..., R, C) array along its diagonals t - r = d, for d = 1-R .. C-1."""
    r, c = m.shape[-2:]
    rows = np.arange(r)[:, None]
    skew = np.zeros(m.shape[:-1] + (r + c - 1,), dtype=complex)
    skew[..., rows, np.arange(c) - rows + r - 1] = m
    return skew.sum(axis=-2)


def _lag_phases(n_r: int, n_t: int, theta) -> np.ndarray:
    """exp(j pi (d + (n_r - n_t)/2) sin theta) per lag d = 1-n_r .. n_t-1, one column per angle of a 1-D array."""
    d = np.arange(1 - n_r, n_t) + (n_r - n_t) / 2
    if np.ndim(theta):
        d = d[:, None]
    return np.exp(1j * np.pi * d * np.sin(theta))


class PointMle:
    """Concentrated-likelihood grid search for (theta, alpha) on a frame X or a stack of frames.

    For each candidate angle the reflection coefficient is profiled out in
    closed form, leaving |b^H (Y X^H) a|^2 / (N_r a^H (X X^H) a) to
    maximize; a three-point parabolic fit refines the grid argmax, and
    alpha is evaluated at the refined angle.  The frame enters only through
    the lag sums of X X^H, formed here, and of Y X^H, formed per echo, so
    the estimate is exact for any X.  ``basis`` holds the grid's lag phase
    matrices, which a Monte Carlo run builds once for all frames.
    """

    @staticmethod
    def basis(grid: GridSpec, geometry: ArrayGeometry):
        angles = grid.angles()
        n_t, n_r = geometry.n_tx, geometry.n_rx
        return angles, _lag_phases(n_r, n_t, angles), _lag_phases(n_t, n_t, angles)

    def __init__(self, tx: np.ndarray, grid: GridSpec, geometry: ArrayGeometry, basis=None):
        self.tx = tx
        self.grid = grid
        self.geometry = geometry
        self.angles, self.num_phases, self.den_phases = basis if basis is not None else PointMle.basis(grid, geometry)
        self.gram_lags = _lag_sums(tx @ _herm(tx))                   # X X^H
        self.denom = geometry.n_rx * np.real(self.gram_lags @ self.den_phases)
        if np.any(np.max(self.denom, axis=-1) <= 0.0):
            raise DegenerateSignal("a(theta)^H X vanishes on the whole grid")

    def estimate(self, y: np.ndarray) -> Tuple[Union[float, np.ndarray], Union[complex, np.ndarray]]:
        """(theta, alpha) for one echo, or arrays of them, one per frame of a stack."""
        yx_lags = _lag_sums(y @ _herm(self.tx))                       # Y X^H
        num = yx_lags @ self.num_phases
        metric = np.divide(np.abs(num) ** 2, self.denom, out=np.zeros_like(self.denom), where=self.denom > 0)
        n = metric.shape[-1]
        g = np.argmax(metric, axis=-1)
        near = np.take_along_axis(metric, np.clip(g[..., None] + np.arange(-1, 2), 0, n - 1), axis=-1)
        m_m, m_0, m_p = np.moveaxis(near, -1, 0)
        curv = m_m - 2 * m_0 + m_p
        shift = np.divide(0.5 * self.grid.step * (m_m - m_p), curv, out=np.zeros_like(curv),
                          where=(0 < g) & (g < n - 1) & (curv < 0))
        theta = self.angles[g] + shift
        n_t = self.geometry.n_tx
        nrm = self.geometry.n_rx * np.real(np.einsum("...k,k...->...", self.gram_lags, _lag_phases(n_t, n_t, theta)))
        at_theta = np.einsum("...k,k...->...", yx_lags, _lag_phases(self.geometry.n_rx, n_t, theta))
        alpha = np.divide(at_theta, nrm, out=np.zeros_like(at_theta), where=nrm > 0)
        return (theta, alpha) if y.ndim == 3 else (float(theta), complex(alpha))


def mle_extended(y: np.ndarray, tx: np.ndarray) -> np.ndarray:
    """Least-squares (= ML under Gaussian noise) estimate of the response matrix, per frame of a stack."""
    gram = tx @ _herm(tx)
    w = np.linalg.eigvalsh((gram + _herm(gram)) / 2).reshape(-1, tx.shape[-2])[:, [0, -1]]
    singular = w[:, 0] <= 1e-10 * np.maximum(w[:, 1], 0.0)
    if np.any(singular):
        low, high = w[np.argmax(singular)]
        raise SingularGram(
            f"tx Gram matrix is rank deficient (eigenvalues {low:.3e} .. {high:.3e}); "
            "estimation of the full response needs all transmit degrees of freedom"
        )
    # G_hat = Y X^H (X X^H)^{-1}, computed through its Hermitian transpose
    return _herm(np.linalg.solve(gram, tx @ _herm(y)))


def _map_trials(fn, trials: int, seed: int) -> np.ndarray:
    """``fn(rngs)`` over chunks of at most ``_CHUNK`` trials, concatenated; trial i's rng comes from spawned child i."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    children = np.random.SeedSequence(seed).spawn(trials)
    return np.concatenate([
        fn([np.random.default_rng(child) for child in children[i:i + _CHUNK]])
        for i in range(0, trials, _CHUNK)
    ])


def monte_carlo_point(
    scenario: Scenario,
    beamformers: np.ndarray,
    trials: int,
    seed: int,
    grid: Optional[GridSpec] = None,
) -> dict:
    """RMSE of the grid ML estimates vs the angle CRB for a fixed point design."""
    target = scenario.target
    if not isinstance(target, PointTarget):
        raise ValueError("scenario must carry a PointTarget")
    grid = grid or GridSpec(center=target.theta)
    k = beamformers.shape[1]
    r_x = beamformers @ beamformers.conj().T
    crb = crb_point_theta(r_x, target.theta, target.alpha, scenario)
    basis = PointMle.basis(grid, scenario.geometry)

    def chunk(rngs):
        x = synth_tx(beamformers, gen_streams(k, scenario.frame_len, rngs))
        y = radar_echo(x, target, scenario.noise_radar, scenario.geometry, rngs)
        theta_hat, alpha_hat = PointMle(x, grid, scenario.geometry, basis=basis).estimate(y)
        return np.column_stack([(theta_hat - target.theta) ** 2, np.abs(alpha_hat - target.alpha) ** 2])

    errs = _map_trials(chunk, trials, seed)
    rmse_theta = float(np.sqrt(np.mean(errs[:, 0])))
    return {
        "trials": trials,
        "seed": seed,
        "rmse_theta": rmse_theta,
        "rmse_alpha": float(np.sqrt(np.mean(errs[:, 1]))),
        "crb_theta": crb,
        "root_crb_theta": float(np.sqrt(crb)),
        "ratio": rmse_theta / float(np.sqrt(crb)),
    }


def monte_carlo_extended(
    scenario: Scenario,
    beamformers: np.ndarray,
    aux_beamformer: np.ndarray,
    trials: int,
    seed: int,
) -> dict:
    """Mean squared error of the linear response estimate vs its CRB."""
    stacked = np.hstack([beamformers, aux_beamformer])
    r_x = stacked @ stacked.conj().T
    crb = crb_extended(r_x, scenario)
    n_streams = stacked.shape[1]

    def chunk(rngs):
        targets = [ExtendedTarget.random(scenario.geometry, rng) for rng in rngs]
        x = synth_tx(stacked, gen_streams(n_streams, scenario.frame_len, rngs))
        y = radar_echo(x, targets, scenario.noise_radar, scenario.geometry, rngs)
        g_hat = mle_extended(y, x)
        return np.linalg.norm(g_hat - np.array([t.response for t in targets]), axis=(-2, -1)) ** 2

    sq = _map_trials(chunk, trials, seed)
    mse = float(np.mean(sq))
    return {
        "trials": trials,
        "seed": seed,
        "mse": mse,
        "crb": crb,
        "ratio": mse / crb,
    }
