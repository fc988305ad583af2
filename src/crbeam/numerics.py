"""Dense complex linear-algebra kernels.

Hermitian symmetry checks, eigendecomposition, PSD square roots and the
smallest eigenvalue, shared by every other module.  Matrices are plain complex
``numpy.ndarray`` objects; these helpers add the symmetry/PSD validation
and the deterministic conventions (eigenvalue ordering, eigenvector
phase) that the rest of the package relies on.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .errors import NonHermitian, NotPSD

HERM_RTOL = 1e-12
PSD_FAIL_RTOL = 1e-6


def herm_error(M: np.ndarray) -> float:
    """Max entrywise deviation from Hermitian symmetry."""
    return float(np.max(np.abs(M - M.conj().T))) if M.size else 0.0


def assert_hermitian(M: np.ndarray, what: str = "matrix") -> None:
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NonHermitian(f"{what} is not square: shape {M.shape}")
    scale = max(1.0, float(np.linalg.norm(M)))
    err = herm_error(M)
    if err > HERM_RTOL * scale:
        raise NonHermitian(f"{what} deviates from Hermitian symmetry by {err:.3e} (scale {scale:.3e})")


def hermitize(M: np.ndarray) -> np.ndarray:
    """Nearest Hermitian matrix, used to scrub roundoff before eigh."""
    return (M + M.conj().T) / 2


def herm_eig(M: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(values, vectors)`` of a Hermitian matrix with deterministic conventions.

    Values are ascending, with matching unitary eigenvector columns; each
    eigenvector's largest-magnitude entry is rotated to be real-positive
    (lowest index wins ties), which removes the phase ambiguity from
    golden-value tests.

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
    return values, vectors / phase[np.newaxis, :]


def psd_sqrt(M: np.ndarray) -> np.ndarray:
    """Canonical PSD square root ``B = V sqrt(diag(w)) V^H`` with ``B B^H = M``.

    Eigenvalues in ``[-1e-6*max, 0)`` are treated as solver noise and
    clipped to zero; anything more negative raises ``NotPSD``.
    """
    values, vectors = herm_eig(M)
    vmax = float(values[-1]) if values.size else 0.0
    floor = -PSD_FAIL_RTOL * max(vmax, 0.0)
    if values.size and values[0] < min(floor, -1e-14):
        raise NotPSD(f"min eigenvalue {values[0]:.3e} below PSD tolerance {floor:.3e}")
    clipped = np.clip(values, 0.0, None)
    return (vectors * np.sqrt(clipped)) @ vectors.conj().T


def min_eig(M: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix (no symmetry check)."""
    return float(np.linalg.eigvalsh(hermitize(M))[0])
