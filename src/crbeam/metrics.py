"""Performance functionals: CRBs, FIM, per-user SINRs and beampatterns.

All quantities are linear-scale (mW for powers, rad^2 for the angle
bound).  Decibel conversion happens once, at config ingestion, via the
helpers at the bottom of this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .arrays import ArrayGeometry, ExtendedTarget, PointTarget, point_terms, steering
from .errors import DimensionMismatch, SingularCovariance, SingularFIM
from .numerics import assert_hermitian, hermitize


@dataclass
class Scenario:
    """Channel/target description shared by designers, metrics and simulation.

    ``channels`` has one row per user, storing h_k^H (so ``channels @ w``
    is the vector of per-user received amplitudes).
    """

    geometry: ArrayGeometry
    channels: np.ndarray            # (K, N_t), row k = h_k^H
    sinr_thresholds: np.ndarray     # (K,), linear
    power_budget: float             # mW
    noise_comm: float               # sigma_C^2, mW
    noise_radar: float              # sigma_R^2, mW
    frame_len: int                  # L
    target: Union[PointTarget, ExtendedTarget, None] = None

    def __post_init__(self):
        self.channels = np.atleast_2d(np.asarray(self.channels, dtype=complex))
        self.sinr_thresholds = np.atleast_1d(np.asarray(self.sinr_thresholds, dtype=float))
        k, n_t = self.channels.shape
        if n_t != self.geometry.n_tx:
            raise DimensionMismatch(f"channel columns {n_t} != n_tx {self.geometry.n_tx}")
        if self.sinr_thresholds.shape != (k,):
            raise DimensionMismatch("one SINR threshold per user required")
        if not k < self.geometry.n_tx < self.geometry.n_rx:
            raise ValueError(f"require K < N_t < N_r, got {k}, {self.geometry.n_tx}, {self.geometry.n_rx}")
        if self.frame_len <= self.geometry.n_tx:
            raise ValueError(f"require L > N_t, got L={self.frame_len}, N_t={self.geometry.n_tx}")
        if self.power_budget <= 0 or self.noise_comm <= 0 or self.noise_radar <= 0:
            raise ValueError("powers must be strictly positive")
        if np.any(self.sinr_thresholds <= 0):
            raise ValueError("SINR thresholds must be strictly positive")

    @property
    def n_users(self) -> int:
        return self.channels.shape[0]

    def user_channel(self, k: int) -> np.ndarray:
        """Column vector h_k."""
        return self.channels[k].conj()


@dataclass
class DesignSolution:
    """A designed transmit strategy plus its achieved metrics and diagnostics."""

    comm_beamformers: np.ndarray               # (N_t, K) columns w_k, units sqrt(mW)
    covariance: np.ndarray                     # R_X, Hermitian PSD
    aux_beamformer: Optional[np.ndarray] = None  # W_A (N_t x N_t) or None
    achieved_sinrs: Optional[np.ndarray] = None
    objective: Optional[float] = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def total_power(self) -> float:
        return float(np.real(np.trace(self.covariance)))


def point_traces(r_x: np.ndarray, theta: float, geometry: ArrayGeometry):
    """Point-target traces tr(A^H A R_X), tr(dA^H A R_X), tr(dA^H dA R_X).

    A = b a^H and dA is its angle derivative; each trace is factored
    through the terms of :func:`~crbeam.arrays.point_terms`.
    """
    a, ad, nb2, nbd2 = point_terms(theta, geometry)
    t_aa = nb2 * float(np.real(a.conj() @ r_x @ a))
    t_da = nb2 * complex(a.conj() @ r_x @ ad)
    t_dd = nbd2 * float(np.real(a.conj() @ r_x @ a)) + nb2 * float(np.real(ad.conj() @ r_x @ ad))
    return t_aa, t_da, t_dd


def _fim_bracket(r_x, theta, geometry):
    t_aa, t_da, t_dd = point_traces(r_x, theta, geometry)
    bracket = t_dd * t_aa - abs(t_da) ** 2
    if bracket <= 1e-12 * abs(t_dd * t_aa):
        raise SingularFIM(
            f"information determinant {bracket:.3e} vanishes against leading term {t_dd * t_aa:.3e}"
        )
    return t_aa, t_dd, bracket


def crb_point_theta(r_x: np.ndarray, theta: float, alpha: complex, scenario: Scenario) -> float:
    """Angle estimation bound (rad^2) for a point target under covariance ``r_x``."""
    assert_hermitian(r_x, what="R_X")
    t_aa, _, bracket = _fim_bracket(r_x, theta, scenario.geometry)
    num = scenario.noise_radar * t_aa
    return num / (2 * abs(alpha) ** 2 * scenario.frame_len * bracket)


def crb_point_alpha(r_x: np.ndarray, theta: float, alpha: complex, scenario: Scenario) -> float:
    """Reflection-coefficient bound for a point target (alpha enters only the FIM scale)."""
    assert_hermitian(r_x, what="R_X")
    _, t_dd, bracket = _fim_bracket(r_x, theta, scenario.geometry)
    return scenario.noise_radar * t_dd / (scenario.frame_len * bracket)


def fim_extended(r_x: np.ndarray, scenario: Scenario) -> np.ndarray:
    """Fisher information for the full response matrix: (L / (sigma_R^2 N_r)) R_X."""
    return (scenario.frame_len / (scenario.noise_radar * scenario.geometry.n_rx)) * r_x


def crb_extended(r_x: np.ndarray, scenario: Scenario) -> float:
    """Matrix-estimation MSE bound (sigma_R^2 N_r / L) tr(R_X^{-1})."""
    assert_hermitian(r_x, what="R_X")
    values = np.linalg.eigvalsh(hermitize(r_x))
    if values[0] <= 1e-10 * max(values[-1], 0.0):
        raise SingularCovariance(
            f"R_X min eigenvalue {values[0]:.3e} is singular at scale {values[-1]:.3e}"
        )
    return scenario.noise_radar * scenario.geometry.n_rx / scenario.frame_len * float(np.sum(1.0 / values))


def achieved_sinrs(
    beamformers: np.ndarray,
    aux: Optional[np.ndarray],
    channels: np.ndarray,
    noise_comm: float,
) -> np.ndarray:
    """Per-user SINRs for beamformer columns, with optional probing interference."""
    gains = np.abs(channels @ beamformers) ** 2      # (K, K): entry (k, i) = |h_k^H w_i|^2
    signal = np.diag(gains)
    interference = gains.sum(axis=1) - signal
    if aux is not None:
        interference = interference + np.sum(np.abs(channels @ aux) ** 2, axis=1)
    return signal / (interference + noise_comm)


def beampattern(r_x: np.ndarray, theta_grid: np.ndarray, geometry: ArrayGeometry) -> np.ndarray:
    """Transmit power a(theta)^H R_X a(theta) over a grid of angles (rad)."""
    assert_hermitian(r_x, what="R_X")
    a = steering(np.atleast_1d(theta_grid), geometry.n_tx)
    return np.real(np.einsum("ig,ig->g", a.conj(), r_x @ a))


def db_to_linear(db: float) -> float:
    return float(10.0 ** (db / 10.0))


def dbm_to_mw(dbm: float) -> float:
    return db_to_linear(dbm)


def radar_alpha_from_snr(snr_radar_linear: float, scenario: Scenario) -> complex:
    """|alpha| implied by SNR_radar = |alpha|^2 L P_T / sigma_R^2 (phase fixed at 0)."""
    mag = np.sqrt(snr_radar_linear * scenario.noise_radar / (scenario.frame_len * scenario.power_budget))
    return complex(mag)
