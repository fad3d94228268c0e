"""Ellipsoidal norm fitting: the sqrt(d) sandwich."""

import numpy as np
import pytest

from mwlp.errors import DegenerateNorm, NonFinite
from mwlp.spaces import john_ellipsoid


def linf(v):
    return np.max(np.abs(v), axis=1)


def l1(v):
    return np.sum(np.abs(v), axis=1)


def test_euclidean_recovers_identity(rng):
    w = john_ellipsoid(lambda v: np.linalg.norm(v, axis=1), 2, rng=rng)
    assert np.max(np.abs(w - np.eye(2))) < 0.05


def test_linf_hand_sandwich(rng):
    # the enclosing ellipsoid of the symmetrized cube sample is the disc:
    # max_i |v_i| <= |v|_2 <= sqrt(2) max_i |v_i|, so W is close to I
    w = john_ellipsoid(linf, 2, rng=rng)
    assert np.max(np.abs(w - np.eye(2))) < 0.05
    vt = rng.standard_normal((500, 2)) + 1j * rng.standard_normal((500, 2))
    e2 = np.linalg.norm(vt, axis=1)
    assert np.all(linf(vt) <= e2 * (1 + 1e-12))
    assert np.all(e2 <= np.sqrt(2) * linf(vt) * (1 + 1e-12))


def test_matrix_norm_recovery(rng):
    # rho(v) = |A v|: the fitted W satisfies the sandwich on fresh vectors
    for d in (2, 3):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        a += 0.5 * np.eye(d)
        rho = lambda v: np.linalg.norm(v @ a.T, axis=1)
        w = john_ellipsoid(rho, d, rng=rng)
        vt = rng.standard_normal((1000, d)) + 1j * rng.standard_normal((1000, d))
        rv = rho(vt)
        wv = np.linalg.norm(vt @ w.T, axis=1)
        assert np.min(wv / rv) >= 1.0 - 1e-9
        assert np.max(wv / rv) <= np.sqrt(d) * 1.05


def test_d1_reduces_to_scalar(rng):
    w = john_ellipsoid(lambda v: 2.5 * np.abs(v[:, 0]), 1, rng=rng)
    assert w.shape == (1, 1)
    assert abs(w[0, 0] - 2.5) < 0.03


def test_result_positive_definite_hermitian(rng):
    w = john_ellipsoid(l1, 3, rng=rng)
    assert np.max(np.abs(w - w.conj().T)) < 1e-12
    assert np.min(np.linalg.eigvalsh(w)) > 0


def test_degenerate_norm_rejected(rng):
    # a seminorm that ignores the second coordinate produces an unbounded,
    # rank-deficient sphere sample
    with pytest.raises(DegenerateNorm):
        john_ellipsoid(lambda v: np.abs(v[:, 0]), 2, rng=rng)


def test_oracle_error_propagates_without_retry(rng):
    calls = []

    def failing(v):
        calls.append(v.shape)
        raise NonFinite("oracle produced NaN")

    with pytest.raises(NonFinite):
        john_ellipsoid(failing, 2, rng=rng)
    assert calls == [(2, 2)]


def test_scalar_callable_still_fits(rng):
    # complex() of a batch raises TypeError, so each vector is evaluated alone
    def scalar_l1(v):
        return abs(complex(v[0])) + abs(complex(v[1]))

    w = john_ellipsoid(scalar_l1, 2, rng=rng, sphere_samples=200, calibration_samples=200)
    vt = rng.standard_normal((200, 2)) + 1j * rng.standard_normal((200, 2))
    rv = l1(vt)
    wv = np.linalg.norm(vt @ w.T, axis=1)
    assert np.min(wv / rv) >= 1.0 - 1e-9
    assert np.max(wv / rv) <= np.sqrt(2) * 1.05
