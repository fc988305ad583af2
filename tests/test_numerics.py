import numpy as np
import pytest

from crbeam.errors import NonHermitian, NotPSD
from crbeam.numerics import assert_hermitian, herm_eig, psd_sqrt

from conftest import complex_gaussian, random_psd, random_hermitian


class TestHermEig:
    def test_identity(self):
        values, vectors = herm_eig(np.eye(3, dtype=complex))
        assert np.allclose(values, [1, 1, 1])
        assert np.allclose(vectors @ vectors.conj().T, np.eye(3), atol=1e-10)

    def test_diagonal_sorted_ascending(self):
        values, vectors = herm_eig(np.diag([3.0, 1.0, 2.0]).astype(complex))
        assert np.allclose(values, [1, 2, 3])
        # permuted canonical basis, phases fixed real-positive
        perm = np.abs(vectors) > 0.5
        assert np.array_equal(np.argmax(perm, axis=0), [1, 2, 0])

    def test_rank_one_outer_product(self):
        h = np.array([1.0, 1.0j])
        values, vectors = herm_eig(np.outer(h, h.conj()))
        assert np.allclose(values, [0.0, 2.0], atol=1e-12)
        v = vectors[:, 1]
        # matches h/sqrt(2) up to phase; phase convention makes entry 0 real-positive
        expected = h / np.sqrt(2)
        phase = expected[0] / v[0]
        assert np.allclose(v * phase, expected, atol=1e-12)
        assert v[0].imag == pytest.approx(0.0, abs=1e-14)
        assert v[0].real > 0

    def test_reconstruction_and_unitarity(self, rng):
        for n in (2, 5, 9):
            m = random_hermitian(rng, n, scale=3.0)
            values, vectors = herm_eig(m)
            recon = (vectors * values) @ vectors.conj().T
            assert np.linalg.norm(recon - m) <= 1e-9 * np.linalg.norm(m)
            assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(n))) <= 1e-10
            assert np.all(np.diff(values) >= -1e-12)

    def test_eigenvector_equation(self, rng):
        m = random_hermitian(rng, 6)
        values, vectors = herm_eig(m)
        for i in range(6):
            res = m @ vectors[:, i] - values[i] * vectors[:, i]
            assert np.linalg.norm(res) <= 1e-9 * np.linalg.norm(m)

    def test_non_hermitian_rejected(self, rng):
        m = complex_gaussian(rng, (4, 4))
        with pytest.raises(NonHermitian):
            herm_eig(m)


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(2, dtype=complex)), np.eye(2))

    def test_rank_one_scaling(self):
        e1 = np.zeros(3, dtype=complex)
        e1[0] = 1.0
        m = 4.0 * np.outer(e1, e1.conj())
        assert np.allclose(psd_sqrt(m), 2.0 * np.outer(e1, e1.conj()), atol=1e-12)

    def test_reconstruction(self, rng):
        m = random_psd(rng, 7)
        b = psd_sqrt(m)
        assert np.linalg.norm(b @ b.conj().T - m) <= 1e-8 * np.linalg.norm(m)

    def test_trace_preserved(self, rng):
        m = random_psd(rng, 5)
        b = psd_sqrt(m)
        tr_m = np.trace(m).real
        assert abs(np.trace(b @ b.conj().T).real - tr_m) <= 1e-8 * tr_m

    def test_small_negative_clipped(self, rng):
        m = random_psd(rng, 4)
        scale = np.linalg.eigvalsh(m)[-1]
        m = m - 1e-10 * scale * np.eye(4)
        b = psd_sqrt(m)  # within clip band: no raise
        assert np.linalg.eigvalsh(b @ b.conj().T)[0] >= -1e-12 * scale

    def test_indefinite_rejected(self):
        with pytest.raises(NotPSD):
            psd_sqrt(np.diag([1.0, -0.5]).astype(complex))

    def test_negative_definite_noise_and_rejection(self):
        # with no positive eigenvalue the floor is -1e-14: roundoff below zero clips, more raises
        assert np.array_equal(psd_sqrt(-1e-20 * np.eye(3, dtype=complex)), np.zeros((3, 3)))
        with pytest.raises(NotPSD):
            psd_sqrt(-1e-3 * np.eye(3, dtype=complex))


@pytest.mark.parametrize("call, exc, match", [
    (lambda: assert_hermitian(np.ones((2, 3)), "block"), NonHermitian, r"block is not square: shape \(2, 3\)"),
    (lambda: assert_hermitian(np.ones(3)), NonHermitian, "matrix is not square"),
], ids=["rectangular", "vector"])
def test_input_checks(call, exc, match):
    with pytest.raises(exc, match=match):
        call()
