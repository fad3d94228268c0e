"""Spectral decomposition, fractional powers and operator norms."""

import numpy as np
import pytest

from mwlp.errors import NonFinite, NotHermitian, NotPSD, SingularMatrix
from mwlp.matrix_core import (
    batched_eigh,
    batched_power_from_eig,
    batched_spectral_norm,
    mat_power,
    op_norm,
)

from conftest import random_psd


def eigh_one(a):
    """The eigensystem (lam ascending, U) of one Hermitian matrix: batched_eigh
    on a stack of one."""
    lam, u = batched_eigh(np.asarray(a, dtype=complex)[None])
    return lam[0], u[0]


class TestSpectralDecompose:
    """The spectral decomposition of `batched_eigh`: ascending eigenvalues,
    unitary eigenvectors with pinned phases, Hermitian input."""

    def test_diagonal(self):
        lam, u = eigh_one(np.diag([1.0, 4.0]))
        assert np.allclose(lam, [1.0, 4.0])
        assert np.allclose(u, np.eye(2))

    def test_identity_d3(self):
        lam, u = eigh_one(np.eye(3))
        assert np.allclose(lam, [1.0, 1.0, 1.0])
        assert np.max(np.abs((u * lam) @ u.conj().T - np.eye(3))) < 1e-12

    def test_two_by_two_hand_oracle(self):
        # char poly of [[2,1],[1,2]]: (2-l)^2 - 1 = 0 -> l = 1, 3
        lam, _ = eigh_one([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(lam, [1.0, 3.0], atol=1e-12)

    def test_eigenvalues_ascending(self, rng):
        for _ in range(20):
            a = random_psd(rng, 5)
            lam, _ = eigh_one(a)
            assert np.all(np.diff(lam) >= -1e-12)

    def test_unitary_and_reconstruction(self, rng):
        for _ in range(20):
            a = random_psd(rng, 4)
            lam, u = eigh_one(a)
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-10
            scale = max(np.max(np.abs(a)), 1.0)
            assert np.max(np.abs((u * lam) @ u.conj().T - a)) < 1e-10 * scale

    def test_phase_orientation(self, rng):
        # first significant component of every eigenvector is real positive
        for _ in range(10):
            a = random_psd(rng, 3)
            _, u = eigh_one(a)
            for j in range(3):
                col = u[:, j]
                k = np.argmax(np.abs(col) > 1e-8 * np.max(np.abs(col)))
                assert col[k].real > 0
                assert abs(col[k].imag) < 1e-10 * abs(col[k])

    def test_not_hermitian_rejected(self):
        with pytest.raises(NotHermitian):
            eigh_one([[0.0, 1.0], [0.0, 0.0]])


class TestMatPower:
    def test_diagonal_sqrt(self):
        out = mat_power(np.diag([4.0, 1.0]), 0.5)
        assert np.allclose(out, np.diag([2.0, 1.0]), atol=1e-12)

    def test_identity_any_power(self):
        for s in (0.5, 2.0, -1.0, 1.0 / 3.0):
            assert np.allclose(mat_power(np.eye(3), s), np.eye(3), atol=1e-12)

    def test_square_matches_direct_multiplication(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(mat_power(a, 2.0), a @ a, atol=1e-10)

    def test_power_one_round_trip(self, rng):
        for _ in range(10):
            a = random_psd(rng, 4)
            assert np.max(np.abs(mat_power(a, 1.0) - a)) < 1e-10 * max(op_norm(a), 1.0)

    def test_power_inverse_round_trip(self, rng):
        for s in (0.5, 2.0):
            for _ in range(10):
                a = random_psd(rng, 4, definite=True)
                back = mat_power(mat_power(a, s), 1.0 / s)
                assert np.max(np.abs(back - a)) < 1e-8 * max(op_norm(a), 1.0)

    def test_negative_power_of_singular_raises(self):
        with pytest.raises(SingularMatrix):
            mat_power(np.diag([1.0, 0.0]), -0.5)

    def test_below_clamp_band_raises(self):
        with pytest.raises(NotPSD):
            mat_power(np.diag([1.0, -1e-3]), 0.5)

    def test_clamp_band_accepts_roundoff(self):
        out = mat_power(np.diag([1.0, -1e-12]), 0.5)
        assert out[1, 1].real == 0.0

    def test_d1_reduces_to_scalar_arithmetic(self):
        for w in (0.25, 3.0, 1e-6):
            for s in (0.5, 2.0, -1.0):
                out = mat_power([[w]], s)
                assert out.shape == (1, 1)
                assert out[0, 0].real == pytest.approx(w ** s, rel=1e-14)


class TestOpNorm:
    def test_diagonal(self):
        assert op_norm(np.diag([3.0, 7.0])) == 7.0

    def test_zero_matrix(self):
        assert op_norm(np.zeros((2, 2))) == 0.0

    def test_eigenvalue_oracle(self):
        assert op_norm([[2.0, 1.0], [1.0, 2.0]]) == pytest.approx(3.0, abs=1e-12)

    def test_dominates_random_unit_vectors(self, rng):
        # |Av| <= op_norm(A) for 1000 random unit v, and the norm is attained
        # on the top eigenvector
        a = random_psd(rng, 4)
        nrm = op_norm(a)
        v = rng.standard_normal((1000, 4)) + 1j * rng.standard_normal((1000, 4))
        v /= np.linalg.norm(v, axis=1)[:, None]
        assert np.max(np.linalg.norm(v @ a.T, axis=1)) <= nrm * (1 + 1e-6)
        top = eigh_one(a)[1][:, -1]
        assert np.linalg.norm(a @ top) == pytest.approx(nrm, rel=1e-10)


class TestSpectralIdentities:
    def test_positive_power_norm_identity(self, rng):
        # |A^s|_op = (max eig)^s
        for k in range(40):
            d = 1 + k % 6
            a = random_psd(rng, d)
            lam = np.linalg.eigvalsh(a)
            for s in (1.0 / 3.0, 0.5, 1.0, 2.0):
                val = op_norm(mat_power(a, s))
                assert val == pytest.approx(max(lam[-1], 0.0) ** s, abs=1e-10 * max(1, lam[-1] ** s))

    def test_negative_power_norm_identity(self, rng):
        # |A^{-s}|_op^{-1} = (min eig)^s
        for k in range(40):
            d = 1 + k % 6
            a = random_psd(rng, d, definite=True)
            lam = np.linalg.eigvalsh(a)
            for s in (0.5, 1.0, 2.0):
                val = 1.0 / op_norm(mat_power(a, -s))
                assert val == pytest.approx(lam[0] ** s, rel=1e-10)


class TestBatched:
    def test_batched_matches_single(self, rng):
        mats = np.stack([random_psd(rng, 3, definite=True) for _ in range(8)])
        lam, u = batched_eigh(mats)
        powered = batched_power_from_eig(lam, u, 0.5)
        for i in range(8):
            assert np.max(np.abs(powered[i] - mat_power(mats[i], 0.5))) < 1e-12

    def test_spectral_norm_general(self):
        # non-Hermitian: largest singular value
        a = np.array([[0.0, 2.0], [0.0, 0.0]])
        assert batched_spectral_norm(a[None])[0] == pytest.approx(2.0, abs=1e-12)


class TestOnePath:
    """The single-matrix functions are the batched ones on a stack of one."""

    def test_bitwise_equal_to_the_batched_kernel(self, rng):
        for k in range(200):
            d = 1 + k % 6
            a = random_psd(rng, d, definite=True)
            lam, u = batched_eigh(a[None])
            for s in (1.0 / 3.0, 0.5, 2.0, -0.5):
                assert np.array_equal(mat_power(a, s), batched_power_from_eig(lam, u, s)[0])
            assert op_norm(a) == lam[0, -1]

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (1, 2, 2), (0, 0), (9, 9)])
    def test_shape_checked_before_the_kernel(self, shape):
        for fn in (op_norm, lambda a: mat_power(a, 0.5)):
            with pytest.raises(ValueError):
                fn(np.zeros(shape))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, np.nan)])
    @pytest.mark.parametrize("fn", [eigh_one, op_norm, lambda a: mat_power(a, 0.5)],
                             ids=["spectral_decompose", "op_norm", "mat_power"])
    def test_non_finite_matrix_rejected(self, fn, entry):
        a = np.array([[entry, 0.0], [0.0, 1.0]])
        with pytest.raises(NonFinite):
            fn(a)
        with pytest.raises(NonFinite):
            batched_eigh(np.stack([np.eye(2), a]))
