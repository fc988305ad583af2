"""ULA geometry, steering vectors and target response matrices.

Half-wavelength uniform linear arrays referenced to the array center, so
that the steering vector and its angle derivative are exactly orthogonal
at every angle.  Angles are radians throughout the library; degree
conversion happens only at the CLI boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch


@dataclass(frozen=True)
class ArrayGeometry:
    """Transmit/receive ULA sizes (half-wavelength spacing convention)."""

    n_tx: int
    n_rx: int

    def __post_init__(self):
        if self.n_tx < 2 or self.n_rx < 2:
            raise ValueError("need at least 2 elements on each array for derivative formulas")


@dataclass(frozen=True)
class PointTarget:
    """Far-field target: azimuth angle (rad) in (-pi/2, pi/2) and finite complex reflection coefficient."""

    theta: float
    alpha: complex = 1.0 + 0.0j

    def __post_init__(self):
        if not -np.pi / 2 < self.theta < np.pi / 2:
            raise ValueError(f"theta must lie in (-pi/2, pi/2), got {self.theta}")
        if not np.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")


@dataclass(frozen=True)
class ExtendedTarget:
    """Near-field target described by its full response matrix ``G`` (N_r x N_t)."""

    response: np.ndarray = field(repr=False)

    @staticmethod
    def random(geometry: "ArrayGeometry", rng: np.random.Generator) -> "ExtendedTarget":
        """i.i.d. unit-variance complex Gaussian response matrix."""
        shape = (geometry.n_rx, geometry.n_tx)
        g = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
        return ExtendedTarget(response=g)


def steering(theta, n: int) -> np.ndarray:
    """Center-referenced steering vector: entry m is exp(j*pi*(m-(n-1)/2)*sin(theta)).

    A 1-D array of angles gives an (n, len(theta)) matrix, one column per
    angle, each bit-identical to the scalar call.
    """
    m = np.arange(n) - (n - 1) / 2
    if np.ndim(theta):
        m = m[:, None]
    return np.exp(1j * np.pi * m * np.sin(theta))


def steering_deriv(theta, n: int) -> np.ndarray:
    """Angle derivative of :func:`steering`; orthogonal to it by center symmetry.

    Takes one angle or a 1-D array of angles, as :func:`steering` does.
    """
    if n < 2:
        raise ValueError("derivative needs n >= 2")
    m = np.arange(n) - (n - 1) / 2
    if np.ndim(theta):
        m = m[:, None]
    return 1j * np.pi * m * np.cos(theta) * steering(theta, n)


def steering_deriv_norm_sq(theta: float, n: int) -> float:
    """Closed form for ||da/dtheta||^2 = cos^2(theta) * pi^2 * n(n^2-1)/12."""
    return float(np.cos(theta) ** 2 * np.pi**2 * n * (n**2 - 1) / 12)


def point_terms(theta: float, geometry: ArrayGeometry):
    """Point-target Fisher terms (a, da, ||b||^2 = N_r, ||db||^2) at angle ``theta``."""
    a, ad = steering(theta, geometry.n_tx), steering_deriv(theta, geometry.n_tx)
    bd = steering_deriv(theta, geometry.n_rx)
    return a, ad, float(geometry.n_rx), float(np.real(bd.conj() @ bd))


def response_point(target: PointTarget, geometry: ArrayGeometry) -> np.ndarray:
    """Rank-one response alpha * b(theta) a(theta)^H."""
    a = steering(target.theta, geometry.n_tx)
    b = steering(target.theta, geometry.n_rx)
    return target.alpha * np.outer(b, a.conj())


def target_response(target, geometry: ArrayGeometry) -> np.ndarray:
    """Response matrix for either target kind."""
    if isinstance(target, PointTarget):
        return response_point(target, geometry)
    if isinstance(target, ExtendedTarget):
        g = target.response
        if g.shape != (geometry.n_rx, geometry.n_tx):
            raise DimensionMismatch(f"response shape {g.shape} != {(geometry.n_rx, geometry.n_tx)}")
        return g
    raise TypeError(f"unsupported target type {type(target)!r}")
