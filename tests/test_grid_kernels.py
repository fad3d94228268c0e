"""The n-dimensional grid kernels against the per-dimension code they replace
(tests/reference_grid_kernels.py): grid geometry, shifts, 1-D window sums,
dyadic averaging, cube cells and the scalar A_p pass agree with `==`; 2-D
window sums, which add runs instead of one shifted copy per ball offset, agree
with the offset loop within the error of direct summation."""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_grid_kernels as ref
from mwlp.errors import SchemeMismatch
from mwlp.grids import Grid
from mwlp.operators import (BallScheme, DyadicScheme, _window_sum, dyadic_coefficients,
                            field_from_coefficients, shift_values)
from mwlp.spaces import SampledVectorField
from mwlp.weight_fields import CubeFamily, MeasureDensity, _box_means, _scalar_ap

LS = [1.0, 8.0, 0.1, 1.0 / 3.0]
EPS = np.finfo(float).eps
GRIDS = [Grid(1, L, N) for L in LS for N in (8, 64)] + [Grid(2, L, N) for L in LS for N in (8, 32)]
IDS = [f"n{g.n}-L{g.L:.3g}-N{g.N}" for g in GRIDS]


def _random_family(grid: Grid, rng, count: int = 60) -> CubeFamily:
    """Cubes of random sides overlapping the box, half of them with corners on
    cell centers and sides that are multiples of h."""
    free_sides = rng.uniform(0.5, 6.0, count // 2) * grid.h
    free = rng.uniform(-grid.L - free_sides[:, None] / 2, grid.L - free_sides[:, None] / 2,
                       (count // 2, grid.n))
    on_centers = grid.axis_centers[rng.integers(0, grid.N, (count // 2, grid.n))]
    center_sides = rng.integers(1, 5, count // 2) * grid.h
    return CubeFamily(np.concatenate([free, on_centers]),
                      np.concatenate([free_sides, center_sides]), "random")


def _families(grid: Grid):
    fams = [CubeFamily.default(grid), _random_family(grid, np.random.default_rng(grid.N))]
    if grid.n == 1:
        fams.append(CubeFamily.dense_dyadic(grid))
    return fams


@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
def test_geometry_matches_per_dimension_formulas(grid):
    assert np.array_equal(grid.points, ref.points(grid))
    assert np.array_equal(grid.radii, ref.radii(grid))
    for kmax in range(4):
        assert np.array_equal(grid.shift_window(kmax), ref.shift_window(grid, kmax))
    for k, x in enumerate(grid.points):
        assert grid.index_of_point(x) == ref.index_of_point(grid, x) == k


@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
def test_shifts_and_window_sums_match(grid):
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((grid.num_points, 2)) + 1j * rng.standard_normal((grid.num_points, 2))
    steps = [0, 1, -1, 3, -5, grid.N - 1, -grid.N, grid.N + 2]
    for shift in itertools.product(steps, repeat=grid.n):
        assert np.array_equal(shift_values(vals, grid, shift), ref.shift_values(vals, grid, shift))
    mu = MeasureDensity.lebesgue(grid)
    for r in (2 * grid.h, 2.5 * grid.h, 4 * grid.h):
        scheme = BallScheme(grid, r, mu)
        [sums] = _window_sum(grid, vals, [scheme])
        if grid.n == 1:
            assert np.array_equal(sums, ref.window_sum_1d(grid, vals, scheme))
        else:
            _assert_within_direct_sum_error(grid, vals, scheme, sums)


def _assert_within_direct_sum_error(grid, vals, scheme, sums):
    # a sum of K terms in any order errs by at most (K - 1) eps / 2 times the
    # sum of |terms| in each real component; for the two sums' difference and
    # the modulus over both components that is within 2 (K - 1) eps sum |f|
    direct = ref.window_sum_2d(grid, vals, scheme)
    bound = 2 * (len(scheme.offsets) - 1) * EPS * ref.window_sum_2d(grid, np.abs(vals), scheme)
    assert np.all(np.abs(sums - direct) <= bound)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2 ** 32 - 1), L=st.sampled_from(LS), log_n=st.integers(3, 6),
       cols=st.integers(1, 3), complex_values=st.booleans(), data=st.data())
def test_window_sums_2d_within_direct_sum_error(seed, L, log_n, cols, complex_values, data):
    grid = Grid(2, L, 2 ** log_n)
    whole = data.draw(st.integers(2, min(grid.N, 20)))
    # r/h just above an integer (where the disc's rim rows thin out or empty)
    # or strictly between two integers
    frac = data.draw(st.sampled_from([1e-13, 1.2e-12, 2e-12, 1e-9, 1e-6])
                     | st.floats(0.01, 0.99))
    scheme = BallScheme(grid, (whole + frac) * grid.h, MeasureDensity.lebesgue(grid))
    rng = np.random.default_rng(seed)
    shape = (grid.num_points, cols)
    # signed values over several decades, so that summation order shows
    vals = np.exp(3 * rng.standard_normal(shape)) * rng.choice([-1, 1], shape)
    if complex_values:
        vals = vals + 1j * rng.standard_normal(shape)
    [sums] = _window_sum(grid, vals, [scheme])
    _assert_within_direct_sum_error(grid, vals, scheme, sums)


@pytest.mark.parametrize("n", [1, 2])
def test_many_schemes_in_one_call_equal_separate_calls(n):
    grid = Grid(n, 1.0 / 3.0, 32)
    mu = MeasureDensity.lebesgue(grid)
    rng = np.random.default_rng(13)
    vals = rng.standard_normal((grid.num_points, 3)) + 1j * rng.standard_normal((grid.num_points, 3))
    schemes = [BallScheme(grid, r * grid.h, mu) for r in (5.5, 2, 3.0000001, 2.5, 9, 16)]
    for scheme, sums in zip(schemes, _window_sum(grid, vals, schemes), strict=True):
        assert np.array_equal(sums, _window_sum(grid, vals, [scheme])[0])


@pytest.mark.parametrize("r", [2.0, 2.5, 3.0 + 1.2e-12, 3.0 + 2e-12, 4.0, 7.3, 16.0])
def test_runs_cover_exactly_the_ball_offsets(r):
    grid = Grid(2, 0.1, 64)
    scheme = BallScheme(grid, r * grid.h, MeasureDensity.lebesgue(grid))
    lead, half = scheme.runs
    k = scheme.reach
    assert [int(x) for x in lead[:, 0]] == list(range(-k, k + 1))
    cells = [(int(a), b) for (a,), w in zip(lead, half.tolist()) for b in range(-w, w + 1)]
    assert len(cells) == len(set(cells))
    assert set(cells) == {tuple(int(v) for v in o) for o in scheme.offsets}


@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
def test_dyadic_averaging_matches(grid):
    rng = np.random.default_rng(5)
    f = SampledVectorField(grid, rng.standard_normal((grid.num_points, 2)) + 0j)
    for m, t in itertools.product(range(-5, 4), repeat=2):
        try:
            scheme = DyadicScheme(grid, m, t)
        except SchemeMismatch:
            continue
        coeffs = dyadic_coefficients(f, scheme)
        assert np.array_equal(coeffs, ref.dyadic_coefficients(f, scheme))
        assert np.array_equal(field_from_coefficients(scheme, coeffs, 2).values,
                              ref.field_from_coefficients(scheme, coeffs, 2).values)
        ones = ref.field_from_coefficients(scheme, np.ones((len(coeffs), 1)), 1)
        assert np.array_equal(scheme.inside_mask(), ones.values[:, 0] != 0)


def test_dyadic_grids_cover_both_dimensions():
    # the loop above must not skip every scheme of a dimension
    for n in (1, 2):
        assert DyadicScheme(Grid(n, 8.0, 64), 2, 0).num_cubes == 8 ** n


@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
def test_default_family_matches(grid):
    new, old = CubeFamily.default(grid), ref.default_family(grid)
    assert np.array_equal(new.corners, old.corners)
    assert np.array_equal(new.sides, old.sides)
    assert new.description == old.description


@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
def test_cube_cells_follow_the_float_rule(grid):
    for fam in _families(grid):
        for k in range(len(fam)):
            assert np.array_equal(fam.cube_cells(grid, k), ref.cube_cells(fam, grid, k)), k
            assert fam.axis_ranges(grid, k) == ref.axis_ranges(fam, grid, k)


@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 2.5])
def test_scalar_ap_matches(grid, p):
    w = 0.2 + np.random.default_rng(7).random(grid.num_points) * 3.0
    for fam in _families(grid):
        assert _scalar_ap(grid, w, p, fam) == ref.scalar_ap(grid, w, p, fam), fam.description


@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
def test_box_means_match_per_cube_prefix_sums(grid):
    # weights over several decades, so that a different corner order would round differently
    rng = np.random.default_rng(11)
    w, g = np.exp(4 * rng.standard_normal((2, grid.num_points)))
    for fam in _families(grid):
        boxes = fam.boxes(grid)
        boxes = boxes[np.all(boxes[:, :, 1] > boxes[:, :, 0], axis=1)]
        stats = list(ref._scalar_cube_stats(grid, w, g, fam))
        assert np.array_equal(_box_means(grid, w, boxes), [s[1] for s in stats])
        assert np.array_equal(_box_means(grid, g, boxes), [s[2] for s in stats])
