"""The factored pairwise pass behind the matrix A_p constant.

`pairwise_op_norm` must equal the largest singular value of the explicit
product a_x b_y, and `ap_constant` must reproduce the
product-stack-and-SVD loop kept in `reference_ap.py`.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mwlp import matrix_core as mc
from mwlp.grids import Grid
from mwlp.weight_fields import CubeFamily, ap_constant, make_power_weight

import reference_ap

PROPERTY = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def random_unitary(rng, count, d):
    z = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
    q, _ = np.linalg.qr(z)
    return q


def pd_stack(u, lam):
    """U diag(lam) U^H for every matrix of the stack, made exactly Hermitian."""
    m = np.einsum("mik,mk,mjk->mij", u, lam, u.conj())
    return 0.5 * (m + np.conj(np.swapaxes(m, 1, 2)))


@st.composite
def pair_stacks(draw):
    """Two stacks of complex PD matrices with eigenvalue spreads up to 1e6.

    "independent" draws both stacks at random; "inverse" makes b_y the
    inverse of a_y, so the diagonal pairs nearly cancel to the identity;
    "near_scalar" puts both stacks within 1e-9 of multiples of I, so
    c11 ~ c22 and c12 ~ 0 for every pair.
    """
    d = draw(st.sampled_from([2, 3, 4]))
    ma = draw(st.integers(1, 9))
    mb = draw(st.integers(1, 9))
    kind = draw(st.sampled_from(["independent", "inverse", "near_scalar"]))
    spread = 10.0 ** draw(st.floats(0.0, 6.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def spectrum(count):
        lam = np.exp(rng.uniform(0.0, np.log(spread), size=(count, d)))
        lam[:, 0], lam[:, -1] = 1.0, spread
        return lam * 10.0 ** rng.uniform(-3.0, 3.0, size=(count, 1))

    if kind == "near_scalar":
        a = pd_stack(random_unitary(rng, ma, d), 1.0 + 1e-9 * rng.random((ma, d)))
        b = pd_stack(random_unitary(rng, mb, d), 1.0 + 1e-9 * rng.random((mb, d)))
        return a * spread, b
    ua = random_unitary(rng, ma, d)
    lam_a = spectrum(ma)
    a = pd_stack(ua, lam_a)
    if kind == "inverse":
        return a, pd_stack(ua, 1.0 / lam_a)
    return a, pd_stack(random_unitary(rng, mb, d), spectrum(mb))


@PROPERTY
@given(pair_stacks())
def test_kernel_matches_svd_of_products(stacks):
    a, b = stacks
    got = mc.pairwise_op_norm(a, b)
    want = mc.batched_spectral_norm(np.einsum("xij,yjk->xyik", a, b))
    assert got.shape == (a.shape[0], b.shape[0])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def weight_for(n, d):
    grid = Grid(1, 1.0, 64) if n == 1 else Grid(2, 1.0, 8)
    alphas = [0.5, 1.0 / 3.0, -0.25][:d]
    return make_power_weight(grid, alphas, rotation=lambda pts: 3.0 * pts[:, 0],
                             invertible=True)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0, 3.0])
def test_ap_constant_matches_reference(n, d, p):
    w = weight_for(n, d)
    cubes = CubeFamily.default(w.grid)
    assert ap_constant(w, p, cubes) == pytest.approx(
        reference_ap.ap_constant(w, p, cubes), rel=1e-13)


@pytest.mark.parametrize("p", [0.5, 2.0])
def test_ap_constant_matches_reference_ill_conditioned(p):
    # W(x) = R(x) diag(|x|, 1/|x|) R(x)^H: W^{1/p}(x) W^{-1/p}(y) nearly
    # cancels for neighbouring cells; ||W^{1/p}|| ||W^{-1/p}|| reaches 1.7e7 at p = 0.5
    grid = Grid(1, 1.0, 64)
    w = make_power_weight(grid, [1.0, -1.0], rotation=lambda pts: 3.0 * pts[:, 0],
                          invertible=True)
    cubes = CubeFamily.default(grid)
    assert ap_constant(w, p, cubes) == pytest.approx(
        reference_ap.ap_constant(w, p, cubes), rel=1e-13)


def test_ap_constant_builds_no_product_stack(monkeypatch):
    def refuse(mats):
        raise AssertionError("batched_spectral_norm called from the A_p pass")

    monkeypatch.setattr(mc, "batched_spectral_norm", refuse)
    for n, d in ((1, 2), (2, 3)):
        w = weight_for(n, d)
        for p in (0.5, 2.0):
            assert np.isfinite(ap_constant(w, p, CubeFamily.default(w.grid)))
