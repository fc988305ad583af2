"""Signal-level simulation: stream synthesis, echoes, ML estimation, Monte Carlo.

Per-trial randomness is derived from a single experiment seed through
``numpy.random.SeedSequence`` spawning: trial i draws only from child i,
so a run's statistics depend on the seed and the trial count alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .arrays import ArrayGeometry, ExtendedTarget, PointTarget, steering, target_response
from .errors import DegenerateSignal, DimensionMismatch, SingularGram, TooManyStreams
from .metrics import Scenario, crb_extended, crb_point_theta

DEG = np.pi / 180.0


def gen_streams(n_streams: int, frame_len: int, seed: Union[int, np.random.Generator]) -> np.ndarray:
    """Unit-power mutually orthogonal streams: (1/L) S S^H = I exactly.

    Rows are orthonormalized complex Gaussian draws scaled by sqrt(L);
    only this Gram property matters downstream, not the symbol values.
    """
    if n_streams > frame_len:
        raise TooManyStreams(f"cannot fit {n_streams} orthogonal streams in {frame_len} samples")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    raw = rng.standard_normal((frame_len, n_streams)) + 1j * rng.standard_normal((frame_len, n_streams))
    q, _ = np.linalg.qr(raw)
    return np.sqrt(frame_len) * q.conj().T


def synth_tx(beamformers: np.ndarray, streams: np.ndarray) -> np.ndarray:
    """Transmit frame X = W S; its sample covariance is W W^H by the Gram property."""
    if beamformers.shape[1] != streams.shape[0]:
        raise DimensionMismatch(
            f"{beamformers.shape[1]} beamformer columns vs {streams.shape[0]} streams"
        )
    return beamformers @ streams


def radar_echo(
    tx: np.ndarray,
    target: Union[PointTarget, ExtendedTarget],
    sigma_r2: float,
    geometry: ArrayGeometry,
    rng: np.random.Generator,
) -> np.ndarray:
    """Echo Y = G X + Z with circularly-symmetric noise of per-entry variance sigma_r2."""
    g = target_response(target, geometry)
    if g.shape[1] != tx.shape[0]:
        raise DimensionMismatch(f"target response expects {g.shape[1]} tx antennas, got {tx.shape[0]}")
    shape = (geometry.n_rx, tx.shape[1])
    noise = np.sqrt(sigma_r2 / 2) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return g @ tx + noise


@dataclass(frozen=True)
class GridSpec:
    """Search window for the point-target ML estimator (radians)."""

    center: float = 0.0
    half_width: float = 10.0 * DEG
    step: float = 0.05 * DEG
    refine: bool = True

    def angles(self) -> np.ndarray:
        n = int(np.floor(self.half_width / self.step))
        return self.center + self.step * np.arange(-n, n + 1)


class PointMle:
    """Concentrated-likelihood grid search for (theta, alpha), reusable across trials.

    For each candidate angle the reflection coefficient is profiled out in
    closed form, leaving the matched-filter energy |<b a^H X, Y>|^2 /
    ||b a^H X||_F^2 to maximize; a three-point parabolic fit refines the
    grid argmax.  ``basis`` carries precomputed grid steering matrices so
    Monte Carlo loops pay the grid cost once.
    """

    @staticmethod
    def basis(grid: GridSpec, geometry: ArrayGeometry):
        angles = grid.angles()
        return angles, steering(angles, geometry.n_tx), steering(angles, geometry.n_rx)

    def __init__(self, tx: np.ndarray, grid: GridSpec, geometry: ArrayGeometry, basis=None):
        self.tx = tx
        self.grid = grid
        self.geometry = geometry
        self.angles, self.a_grid, self.b_grid = basis if basis is not None else PointMle.basis(grid, geometry)
        self.u_grid = self.a_grid.conj().T @ tx                      # (G, L)
        self.u_norm2 = np.sum(np.abs(self.u_grid) ** 2, axis=1)       # ||a^H X||^2
        if np.max(self.u_norm2) <= 0.0:
            raise DegenerateSignal("a(theta)^H X vanishes on the whole grid")

    def _metric_terms(self, y: np.ndarray):
        m = y @ self.u_grid.conj().T                 # (N_r, G), column g = Y (a_g^H X)^H
        num = np.einsum("ig,ig->g", self.b_grid.conj(), m)
        denom = self.geometry.n_rx * self.u_norm2
        return num, denom

    def _metric_at(self, theta: float, y: np.ndarray):
        a = steering(theta, self.geometry.n_tx)
        b = steering(theta, self.geometry.n_rx)
        u = a.conj() @ self.tx
        nrm = self.geometry.n_rx * float(np.real(u.conj() @ u))
        if nrm <= 0.0:
            return 0.0, 0.0 + 0.0j, 1.0
        num = complex(b.conj() @ (y @ u.conj()))
        return abs(num) ** 2 / nrm, num, nrm

    def estimate(self, y: np.ndarray) -> Tuple[float, complex]:
        num, denom = self._metric_terms(y)
        metric = np.abs(num) ** 2 / np.maximum(denom, 1e-300)
        g = int(np.argmax(metric))
        theta = float(self.angles[g])
        if self.grid.refine and 0 < g < metric.size - 1:
            m_m, m_0, m_p = metric[g - 1], metric[g], metric[g + 1]
            curv = m_m - 2 * m_0 + m_p
            if curv < 0:
                theta += 0.5 * self.grid.step * (m_m - m_p) / curv
        _, num_hat, nrm_hat = self._metric_at(theta, y)
        alpha = num_hat / nrm_hat
        return theta, complex(alpha)


def mle_point(
    y: np.ndarray, tx: np.ndarray, grid: GridSpec, geometry: ArrayGeometry
) -> Tuple[float, complex]:
    """One-shot wrapper around :class:`PointMle`."""
    return PointMle(tx, grid, geometry).estimate(y)


def mle_extended(y: np.ndarray, tx: np.ndarray) -> np.ndarray:
    """Least-squares (= ML under Gaussian noise) estimate of the response matrix."""
    gram = tx @ tx.conj().T
    w = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
    if w[0] <= 1e-10 * max(w[-1], 0.0):
        raise SingularGram(
            f"tx Gram matrix is rank deficient (eigenvalues {w[0]:.3e} .. {w[-1]:.3e}); "
            "estimation of the full response needs all transmit degrees of freedom"
        )
    # G_hat = Y X^H (X X^H)^{-1}, computed through its Hermitian transpose
    return np.linalg.solve(gram, tx @ y.conj().T).conj().T


def _map_trials(fn, trials: int, seed: int):
    """``fn(rng)`` for each trial in order, trial i's rng drawn from spawned child i."""
    return [fn(np.random.default_rng(child)) for child in np.random.SeedSequence(seed).spawn(trials)]


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

    def one(rng):
        s = gen_streams(k, scenario.frame_len, rng)
        x = synth_tx(beamformers, s)
        y = radar_echo(x, target, scenario.noise_radar, scenario.geometry, rng)
        est = PointMle(x, grid, scenario.geometry, basis=basis)
        theta_hat, alpha_hat = est.estimate(y)
        return (theta_hat - target.theta) ** 2, abs(alpha_hat - target.alpha) ** 2

    errs = np.array(_map_trials(one, trials, seed))
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

    def one(rng):
        target = ExtendedTarget.random(scenario.geometry, rng)
        s = gen_streams(n_streams, scenario.frame_len, rng)
        x = synth_tx(stacked, s)
        y = radar_echo(x, target, scenario.noise_radar, scenario.geometry, rng)
        g_hat = mle_extended(y, x)
        return float(np.linalg.norm(g_hat - target.response) ** 2)

    sq = np.array(_map_trials(one, trials, seed))
    mse = float(np.mean(sq))
    return {
        "trials": trials,
        "seed": seed,
        "mse": mse,
        "crb": crb,
        "ratio": mse / crb,
    }
