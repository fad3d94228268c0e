"""The factored pairwise pass behind the matrix A_p constant.

`pairwise_op_norm` must equal the largest singular value of the explicit
product a_x b_y for real and complex stacks, and on a real d = 2 stack it
must equal the complex-arithmetic kernel kept in `reference_ap.py` exactly;
`ap_constant` must hand it real stacks for a real weight, reproduce the
product-stack-and-SVD loop kept in `reference_ap.py` to round-off, and the
per-cube loop kept there exactly, also where its row panels end inside
boxes, while it evaluates every cell pair once per call.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mwlp import matrix_core as mc
from mwlp import scenario, weight_fields
from mwlp.grids import Grid
from mwlp.weight_fields import (PAIR_BLOCK, CubeFamily, MatrixWeightField, ap_constant,
                                make_power_weight)

import reference_ap

PROPERTY = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def random_unitary(rng, count, d, real=False):
    """Haar-like unitary matrices, or orthogonal ones when real."""
    z = rng.standard_normal((count, d, d))
    if not real:
        z = z + 1j * rng.standard_normal((count, d, d))
    q, _ = np.linalg.qr(z)
    return q


def pd_stack(u, lam):
    """U diag(lam) U^H for every matrix of the stack, made exactly Hermitian."""
    m = np.einsum("mik,mk,mjk->mij", u, lam, u.conj())
    return 0.5 * (m + np.conj(np.swapaxes(m, 1, 2)))


@st.composite
def pair_stacks(draw):
    """Two stacks of PD matrices with eigenvalue spreads up to 1e6, both
    complex or both real (float64, from orthogonal eigenvectors).

    "independent" draws both stacks at random; "inverse" makes b_y the
    inverse of a_y, so the diagonal pairs nearly cancel to the identity;
    "near_scalar" puts both stacks within 1e-9 of multiples of I, so
    c11 ~ c22 and c12 ~ 0 for every pair; "repeated_top" gives every a_x
    two equal largest eigenvalues and makes b_y a multiple of I up to
    round-off, so the two largest eigenvalues of every C coincide, where
    the d = 3 closed form hands the pair to eigvalsh.
    """
    d = draw(st.sampled_from([2, 3, 4]))
    real = draw(st.booleans())
    ma = draw(st.integers(1, 9))
    mb = draw(st.integers(1, 9))
    kind = draw(st.sampled_from(["independent", "inverse", "near_scalar", "repeated_top"]))
    spread = 10.0 ** draw(st.floats(0.0, 6.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def unitary(count):
        return random_unitary(rng, count, d, real)

    def spectrum(count):
        lam = np.exp(rng.uniform(0.0, np.log(spread), size=(count, d)))
        lam[:, 0], lam[:, -1] = 1.0, spread
        return lam * 10.0 ** rng.uniform(-3.0, 3.0, size=(count, 1))

    if kind == "near_scalar":
        a = pd_stack(unitary(ma), 1.0 + 1e-9 * rng.random((ma, d))) * spread
        return a, pd_stack(unitary(mb), 1.0 + 1e-9 * rng.random((mb, d)))
    ua = unitary(ma)
    lam_a = spectrum(ma)
    if kind == "repeated_top":
        lam_a[:, -2] = lam_a[:, -1]
        scales = 10.0 ** rng.uniform(-3.0, 3.0, size=(mb, 1))
        return pd_stack(ua, lam_a), pd_stack(unitary(mb), np.repeat(scales, d, axis=1))
    a = pd_stack(ua, lam_a)
    if kind == "inverse":
        return a, pd_stack(ua, 1.0 / lam_a)
    return a, pd_stack(unitary(mb), spectrum(mb))


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
    return make_power_weight(grid, alphas, rotation=lambda pts: 3.0 * pts[:, 0])


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0, 3.0])
def test_ap_constant_matches_reference(n, d, p):
    w = weight_for(n, d)
    cubes = CubeFamily.default(w.grid)
    assert ap_constant(w, p, cubes) == pytest.approx(
        reference_ap.ap_constant(w, p, cubes), rel=1e-13)


def ill_conditioned_weight():
    # W(x) = R(x) diag(|x|, 1/|x|) R(x)^H: W^{1/p}(x) W^{-1/p}(y) nearly
    # cancels for neighbouring cells; ||W^{1/p}|| ||W^{-1/p}|| reaches 1.7e7 at p = 0.5
    return make_power_weight(Grid(1, 1.0, 64), [1.0, -1.0],
                             rotation=lambda pts: 3.0 * pts[:, 0])


@pytest.mark.parametrize("p", [0.5, 2.0])
def test_ap_constant_matches_reference_ill_conditioned(p):
    w = ill_conditioned_weight()
    cubes = CubeFamily.default(w.grid)
    assert ap_constant(w, p, cubes) == pytest.approx(
        reference_ap.ap_constant(w, p, cubes), rel=1e-13)


def scalar_weights_suite_weight(n_pts):
    """The weight of `verify.suite_scalar_weights` on its grid of n_pts cells."""
    return make_power_weight(Grid(1, 1.0, n_pts), [0.5, 1.0 / 3.0],
                             rotation=lambda pts: pts[:, 0])


def ap_constant_cli_weight():
    """The weight of `mwlp ap-constant --alpha 0.5 0.3333333333333333 --N 512`."""
    raw = scenario.default_scenario("ap-constant")
    raw["grid"]["N"] = 512
    raw["weight"]["alpha"] = [0.5, 0.3333333333333333]
    sc = scenario.validate(raw)
    return scenario.build_weight(sc, scenario.build_grid(sc))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0, 3.0])
def test_one_pass_equals_per_cube_loop(n, d, p):
    w = weight_for(n, d)
    cubes = CubeFamily.default(w.grid)
    assert ap_constant(w, p, cubes) == reference_ap.ap_constant_per_cube(w, p, cubes)


def origin_anchored(grid, generations=range(5, 10)):
    """Origin-anchored cubes of the default family's generations 5..9 only:
    they cover the cells within 2L / 32 of the origin, not the whole box."""
    sides = [2.0 * grid.L / 2 ** g for g in generations]
    return CubeFamily(np.array([[c] for s in sides for c in (0.0, -s)]),
                      np.repeat(sides, 2), "origin-anchored generations 5..9")


NAMED_INPUTS = {
    "dense-d2-p0.5": (lambda: weight_for(1, 2), CubeFamily.dense_dyadic, 0.5),
    "dense-d3-p3": (lambda: weight_for(1, 3), CubeFamily.dense_dyadic, 3.0),
    "ill-conditioned-p0.5": (ill_conditioned_weight, CubeFamily.default, 0.5),
    "ill-conditioned-p2": (ill_conditioned_weight, CubeFamily.default, 2.0),
    "scalar-weights-suite-512": (lambda: scalar_weights_suite_weight(512), CubeFamily.default, 2.0),
    "scalar-weights-suite-1024": (lambda: scalar_weights_suite_weight(1024), CubeFamily.default, 2.0),
    "ap-constant-cli-512": (ap_constant_cli_weight, CubeFamily.default, 2.0),
    "origin-anchored-512-p0.5": (lambda: scalar_weights_suite_weight(512), origin_anchored, 0.5),
}


@pytest.mark.parametrize("case", list(NAMED_INPUTS))
def test_one_pass_equals_per_cube_loop_on_named_inputs(case):
    make_weight, family, p = NAMED_INPUTS[case]
    w = make_weight()
    cubes = family(w.grid)
    assert ap_constant(w, p, cubes) == reference_ap.ap_constant_per_cube(w, p, cubes)


def complex_weight():
    """weight_for(1, 2) conjugated by diag(1, e^{2ix}): its powers are complex."""
    w = weight_for(1, 2)
    phase = np.exp(2j * w.grid.points[:, 0])
    v = w.values.copy()
    v[:, 0, 1] *= phase.conj()
    v[:, 1, 0] *= phase
    return MatrixWeightField(w.grid, v)


PANEL_INPUTS = {
    **{f"{n}d-d{d}-p{p}": (lambda n=n, d=d: weight_for(n, d), CubeFamily.default, p)
       for n in (1, 2) for d in (2, 3) for p in (0.5, 2.0)},
    "dense-d2-p0.5": (lambda: weight_for(1, 2), CubeFamily.dense_dyadic, 0.5),
    "dense-d3-p2": (lambda: weight_for(1, 3), CubeFamily.dense_dyadic, 2.0),
    "origin-anchored-512-p2": (lambda: scalar_weights_suite_weight(512), origin_anchored, 2.0),
    "complex-d2-p0.5": (complex_weight, CubeFamily.default, 0.5),
    "complex-d2-p2": (complex_weight, CubeFamily.default, 2.0),
}


@pytest.mark.parametrize("case", list(PANEL_INPUTS))
def test_panels_ending_inside_boxes_keep_every_bit(case, monkeypatch):
    """With one-row blocks and three-block panels, panels end inside boxes
    and a group's memberships, a 2-D box's runs among them, fall in several
    panels; the pass still equals the per-cube loop exactly, in one kernel
    call per block."""
    make_weight, family, p = PANEL_INPUTS[case]
    w = make_weight()
    cubes = family(w.grid)
    want = reference_ap.ap_constant_per_cube(w, p, cubes)
    rows = []
    kernel = mc.pairwise_op_norm

    def counted(a, b):
        rows.append(a.shape[0])
        return kernel(a, b)

    monkeypatch.setattr(weight_fields, "PAIR_BLOCK", 7)
    monkeypatch.setattr(weight_fields, "PANEL_BLOCKS", 3)
    monkeypatch.setattr(mc, "pairwise_op_norm", counted)
    assert ap_constant(w, p, cubes) == want
    assert set(rows) == {1}


def test_each_cell_pair_evaluated_once(monkeypatch):
    calls = []
    kernel = mc.pairwise_op_norm

    def counted(a, b):
        calls.append(a.shape[0] * b.shape[0])
        return kernel(a, b)

    monkeypatch.setattr(mc, "pairwise_op_norm", counted)
    w = scalar_weights_suite_weight(1024)
    ap_constant(w, 2.0, CubeFamily.default(w.grid))
    m = w.grid.num_points
    assert sum(calls) == m * m == 1_048_576
    assert len(calls) <= math.ceil(m / max(1, PAIR_BLOCK // m)) == 64
    # a family covering part of the box pays only for the pairs of its cells
    calls.clear()
    ap_constant(w, 2.0, origin_anchored(w.grid))
    assert sum(calls) == 64 * 64


def test_ap_constant_builds_no_product_stack(monkeypatch):
    def refuse(mats):
        raise AssertionError("batched_spectral_norm called from the A_p pass")

    monkeypatch.setattr(mc, "batched_spectral_norm", refuse)
    for n, d in ((1, 2), (2, 3)):
        w = weight_for(n, d)
        for p in (0.5, 2.0):
            assert np.isfinite(ap_constant(w, p, CubeFamily.default(w.grid)))


@st.composite
def real_pairs(draw):
    """Two real d = 2 stacks of general matrices: random signs, entries of
    magnitude spread over e^-7..e^7."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def stack(count):
        signs = rng.choice([-1.0, 1.0], size=(count, 2, 2))
        return signs * np.exp(rng.uniform(-7.0, 7.0, size=(count, 2, 2)))

    return stack(draw(st.integers(1, 40))), stack(draw(st.integers(1, 40)))


@PROPERTY
@given(real_pairs())
def test_real_kernel_equals_complex_kernel_for_d2(stacks):
    a, b = stacks
    got = mc.pairwise_op_norm(a, b)
    assert got.dtype == np.float64
    np.testing.assert_array_equal(
        got, reference_ap.pairwise_op_norm(a.astype(np.complex128), b.astype(np.complex128)))


def overflow_weight():
    """W = w I with w = 1e-300 in one cell: w^{-p'/p} = 1e600 overflows at p = 1.5,
    where `ap_constant` raises NonFinite (tests/test_weight_fields.py)."""
    g = Grid(1, 1.0, 16)
    v = np.ones(16)
    v[3] = 1e-300
    return MatrixWeightField.diagonal(g, np.repeat(v[:, None], 2, axis=1))


@pytest.mark.parametrize("make_weight, p", [
    (lambda: weight_for(1, 2), 0.5), (lambda: weight_for(2, 2), 3.0),
    (ill_conditioned_weight, 2.0), (lambda: scalar_weights_suite_weight(512), 2.0),
    (ap_constant_cli_weight, 2.0), (overflow_weight, 1.5),
], ids=["d2-1d", "d2-2d", "ill-conditioned", "scalar-weights-suite", "cli-512", "overflow"])
def test_real_kernel_equals_complex_kernel_on_weight_powers(make_weight, p):
    w = make_weight()
    wp, wm = w.power(1.0 / p), w.power(-1.0 / p)
    assert not (np.any(wp.imag) or np.any(wm.imag))
    with np.errstate(all="ignore"):
        for rows, cols in ((wp, wm), (wm, wp)):
            np.testing.assert_array_equal(mc.pairwise_op_norm(rows.real, cols.real),
                                          reference_ap.pairwise_op_norm(rows, cols))


def test_real_weight_reaches_the_kernel_as_float64(monkeypatch):
    seen = []
    kernel = mc.pairwise_op_norm

    def recorded(a, b):
        seen.append((a.dtype, b.dtype))
        return kernel(a, b)

    monkeypatch.setattr(mc, "pairwise_op_norm", recorded)
    for d in (2, 3):
        w = weight_for(1, d)
        ap_constant(w, 2.0, CubeFamily.default(w.grid))
    assert seen and set(seen) == {(np.dtype(np.float64), np.dtype(np.float64))}
    seen.clear()
    # a weight whose powers have nonzero imaginary parts stays complex
    w = MatrixWeightField.constant(Grid(1, 1.0, 16), [[2.0, 0.5j], [-0.5j, 1.0]])
    assert np.any(w.power(0.5).imag)
    ap_constant(w, 2.0, CubeFamily.default(w.grid))
    assert seen and set(seen) == {(np.dtype(np.complex128), np.dtype(np.complex128))}


@pytest.mark.parametrize("d", [4, 5])
def test_overflowing_pairs_get_nan_for_d_at_least_4(d):
    """A Gram matrix holding inf goes to no eigvalsh call: its pair reads NaN,
    and every other pair keeps the value it has on its own."""
    rng = np.random.default_rng(d)
    a = random_unitary(rng, 3, d, real=True)
    b = random_unitary(rng, 4, d, real=True)
    # a_1 b_2 is about 1e200, so its Gram overflows; no other pair's does
    a[1] *= 1e100
    b[2] *= 1e100
    with np.errstate(all="ignore"):
        got = mc.pairwise_op_norm(a, b)
    assert np.isnan(got[1, 2])
    for i, j in np.ndindex(got.shape):
        if (i, j) != (1, 2):
            assert got[i, j] == mc.pairwise_op_norm(a[i:i + 1], b[j:j + 1])[0, 0]
