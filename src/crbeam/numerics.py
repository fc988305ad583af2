"""Dense complex linear-algebra kernels.

Hermitian eigendecomposition, PSD square roots, linear solves and rank
estimation, shared by every other module.  Matrices are plain complex
``numpy.ndarray`` objects; these helpers add the symmetry/PSD validation
and the deterministic conventions (eigenvalue ordering, eigenvector
phase) that the rest of the package relies on.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NonHermitian, NotPSD

HERM_RTOL = 1e-12
PSD_CLIP_RTOL = 1e-9
PSD_FAIL_RTOL = 1e-6


class EigDecomposition(NamedTuple):
    """Eigenvalues (ascending) and matching unitary eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def herm_error(M: np.ndarray) -> float:
    """Max entrywise deviation from Hermitian symmetry."""
    return float(np.max(np.abs(M - M.conj().T))) if M.size else 0.0


def assert_hermitian(M: np.ndarray, rtol: float = HERM_RTOL, what: str = "matrix") -> None:
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NonHermitian(f"{what} is not square: shape {M.shape}")
    scale = max(1.0, float(np.linalg.norm(M)))
    err = herm_error(M)
    if err > rtol * scale:
        raise NonHermitian(f"{what} deviates from Hermitian symmetry by {err:.3e} (scale {scale:.3e})")


def hermitize(M: np.ndarray) -> np.ndarray:
    """Nearest Hermitian matrix, used to scrub roundoff before eigh."""
    return (M + M.conj().T) / 2


def herm_eig(M: np.ndarray) -> EigDecomposition:
    """Eigendecomposition of a Hermitian matrix with deterministic conventions.

    Values are ascending; each eigenvector's largest-magnitude entry is
    rotated to be real-positive (lowest index wins ties), which removes
    the phase ambiguity from golden-value tests.

    Raises
    ------
    NonHermitian
        If the symmetry tolerance is violated.
    """
    assert_hermitian(M)
    values, vectors = np.linalg.eigh(hermitize(M))
    # eigh already returns ascending values; fix the per-column phase.
    idx = np.argmax(np.abs(vectors), axis=0)
    lead = vectors[idx, np.arange(vectors.shape[1])]
    phase = np.where(np.abs(lead) > 0, lead / np.maximum(np.abs(lead), 1e-300), 1.0)
    vectors = vectors / phase[np.newaxis, :]
    return EigDecomposition(values=values, vectors=vectors)


def psd_sqrt(M: np.ndarray) -> np.ndarray:
    """Canonical PSD square root ``B = V sqrt(diag(w)) V^H`` with ``B B^H = M``.

    Eigenvalues in ``[-1e-6*max, 0)`` are treated as solver noise and
    clipped to zero; anything more negative raises ``NotPSD``.
    """
    values, vectors = herm_eig(M)
    vmax = float(values[-1]) if values.size else 0.0
    if vmax < 0 and abs(vmax) <= 1e-14 * max(1.0, herm_error(M)):
        vmax = 0.0
    floor = -PSD_FAIL_RTOL * max(vmax, 0.0)
    if values.size and values[0] < min(floor, -1e-14):
        raise NotPSD(f"min eigenvalue {values[0]:.3e} below PSD tolerance {floor:.3e}")
    clipped = np.clip(values, 0.0, None)
    return (vectors * np.sqrt(clipped)) @ vectors.conj().T


def numeric_rank(M: np.ndarray, rel_tol: float = 1e-6) -> int:
    """Number of singular values above ``rel_tol * sigma_max`` (0 for the zero matrix)."""
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must lie in (0,1), got {rel_tol}")
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


def min_eig(M: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix (no symmetry check)."""
    return float(np.linalg.eigvalsh(hermitize(M))[0])
