"""The per-point norm kernel |W^{1/p}(x) v| behind every matrix-weight space.

`NormFamily.from_matrix_weight` forms W^{1/p}(x) v(x) from d^2 multiply-adds
over (M,) columns; it must equal the einsum evaluator kept in
`reference_norm.py` exactly, per point and through every quadrature and
distance built on it, for real and complex weights alike.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mwlp import cli, scenario, spaces
from mwlp.grids import Grid
from mwlp.spaces import NormFamily, SampledVectorField, Space, lp_rho_norm, lp_w_norm
from mwlp.weight_fields import MatrixWeightField, MeasureDensity, make_power_weight

import reference_norm

PROPERTY = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

#: grid resolutions per dimension n, kept small so every example is cheap
SIZES = {1: (8, 16, 64), 2: (8, 16)}


def psd_stack(rng, m, d, complex_entries):
    """m random PSD matrices whose scales spread over six decades."""
    a = rng.standard_normal((m, d, d))
    if complex_entries:
        a = a + 1j * rng.standard_normal((m, d, d))
    vals = a @ np.conj(np.swapaxes(a, 1, 2)) * 10.0 ** rng.uniform(-3.0, 3.0, (m, 1, 1))
    return vals.astype(np.complex128)


def weight_of(kind, rng, grid, d):
    if kind == "rotated":
        alphas = rng.uniform(-0.9, 0.9, d)
        rate = float(rng.uniform(0.5, 3.0))
        rotation = (lambda pts: rate * pts[:, 0]) if d >= 2 else None
        return make_power_weight(grid, alphas, rotation=rotation)
    return MatrixWeightField(grid, psd_stack(rng, grid.num_points, d, kind == "complex"))


def random_field(rng, grid, d):
    m = grid.num_points
    vals = (rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))) \
        * 10.0 ** rng.uniform(-4.0, 4.0, (m, d))
    return SampledVectorField(grid, vals)


@st.composite
def problems(draw):
    n = draw(st.sampled_from([1, 2]))
    d = draw(st.sampled_from([1, 2, 3, 4]))
    p = draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]))
    kind = draw(st.sampled_from(["real", "rotated", "complex"]))
    with_density = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    grid = Grid(n, float(draw(st.sampled_from([1.0, 2.0, 8.0]))), draw(st.sampled_from(SIZES[n])))
    w = weight_of(kind, rng, grid, d)
    mu = MeasureDensity(grid, 10.0 ** rng.uniform(-2.0, 2.0, grid.num_points)) \
        if with_density else None
    return w, p, mu, random_field(rng, grid, d), random_field(rng, grid, d)


@PROPERTY
@given(problems())
def test_per_point_norms_equal_einsum(problem):
    w, p, _, f, _ = problem
    got = NormFamily.from_matrix_weight(w, p).evaluate(f.values)
    assert np.array_equal(got, reference_norm.norm_family(w, p).evaluate(f.values))


@PROPERTY
@given(problems())
def test_norms_and_distances_equal_einsum(problem):
    w, p, mu, f, g = problem
    space, ref = Space.matrix_weight(w, p, mu), reference_norm.space(w, p, mu)
    assert lp_rho_norm(f, space.rho, p, mu) == lp_rho_norm(f, ref.rho, p, mu)
    assert space.norm(f) == ref.norm(f)
    assert space.size(f) == ref.size(f)
    assert space.dist(f, g) == ref.dist(f, g)
    if w.d > 1:  # for d = 1, lp_w_norm integrates w |f|^p directly
        assert lp_w_norm(f, w, p, mu) == ref.norm(f)


@pytest.mark.parametrize("m", [1, 3, 13, 1000])
@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("complex_entries", [False, True])
def test_kernel_equals_einsum_on_any_point_count(m, d, complex_entries):
    """Counts that fill no SIMD vector evenly take every tail path of the ufunc loops."""
    rng = np.random.default_rng(m * 16 + d)
    wp = psd_stack(rng, m, d, complex_entries)
    v = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
    expected = np.linalg.norm(np.einsum("mij,...mj->...mi", wp, v), axis=-1)
    assert np.array_equal(spaces._column_norms(spaces._entry_columns(wp), v), expected)


def test_real_weight_keeps_one_part_per_entry():
    """A weight with no imaginary part costs one complex multiply per entry,
    and every column is contiguous."""
    grid = Grid(1, 1.0, 16)
    rng = np.random.default_rng(3)
    real = spaces._entry_columns(weight_of("rotated", rng, grid, 2).power(0.5))
    cplx = spaces._entry_columns(psd_stack(rng, 16, 3, True))
    assert real.shape == (2, 2, 1, 16) and cplx.shape == (3, 3, 2, 16)
    assert real.flags["C_CONTIGUOUS"] and cplx.flags["C_CONTIGUOUS"]


def test_default_net_distances_equal_einsum():
    """Every member-center distance of the default `net` equals the einsum evaluator's."""
    sc = scenario.validate(scenario.default_scenario("net"))
    space, family = cli._setup(sc, np.random.default_rng(sc.seed))
    net = cli._build_net(sc, space, family)
    ref = reference_norm.space(space.weight, space.p, space.mu)
    for i, f in enumerate(family):
        assert net.distances[i] == ref.dist(f, net.centers[net.assignment[i]])
        for c in net.centers:
            assert space.dist(f, c) == ref.dist(f, c)
