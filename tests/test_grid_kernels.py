"""The n-dimensional grid kernels against the per-dimension code they replace
(tests/reference_grid_kernels.py): grid geometry, shifts, dyadic averaging,
cube cells and the scalar A_p pass agree with `==`; window sums, which add
runs instead of one shifted copy per ball offset, agree with the offset loop
within the error of direct summation.  The window sums, the ball measures,
S_r and the averaging curve keep every bit of the engine that allocated each
table level and run afresh and took one scale per call."""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_grid_kernels as ref
from mwlp.compactness import averaging_curve
from mwlp.errors import EmptyBall, SchemeMismatch, ShapeMismatch
from mwlp.families import gaussian_bumps
from mwlp.grids import Grid
from mwlp.operators import (BallScheme, DyadicScheme, _window_sum,
                            ball_average_ladder, ball_average_values, dyadic_coefficients,
                            field_from_coefficients, shift_values)
from mwlp.spaces import SampledVectorField, Space
from mwlp.weight_fields import (CubeFamily, MatrixWeightField, MeasureDensity, _box_means,
                                _scalar_ap, make_power_weight)

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
        assert _within_direct_sum_error(grid, vals, scheme, sums)


def _within_direct_sum_error(grid, vals, scheme, sums) -> bool:
    # a sum of K terms in any order errs by at most (K - 1) eps / 2 times the
    # sum of |terms| in each real component; for the two sums' difference and
    # the modulus over both components that is within 2 (K - 1) eps sum |f|
    direct = ref.window_sum_direct(grid, vals, scheme)
    bound = 2 * (len(scheme.offsets) - 1) * EPS * ref.window_sum_direct(grid, np.abs(vals), scheme)
    return bool(np.all(np.abs(sums - direct) <= bound))


def test_running_sum_breaks_the_bound_the_runs_keep():
    # Gaussian tails next to values of order one: a difference of two prefix
    # sums loses the small window sums far from the origin
    grid = Grid(1, 8.0, 4096)
    vals = np.exp(-grid.points ** 2) * (0.7 + 0.3j)
    scheme = BallScheme(grid, 8 * grid.h, MeasureDensity.lebesgue(grid))
    assert _within_direct_sum_error(grid, vals, scheme, _window_sum(grid, vals, [scheme])[0])
    assert not _within_direct_sum_error(grid, vals, scheme, ref.window_sum_1d(grid, vals, scheme))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 2), L=st.sampled_from(LS),
       log_n=st.integers(3, 6), cols=st.integers(1, 3), complex_values=st.booleans(),
       data=st.data())
def test_window_sums_2d_within_direct_sum_error(seed, n, L, log_n, cols, complex_values, data):
    grid = Grid(n, L, 2 ** log_n)
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
    assert _within_direct_sum_error(grid, vals, scheme, sums)


@pytest.mark.parametrize("n", [1, 2])
def test_many_schemes_in_one_call_equal_separate_calls(n):
    grid = Grid(n, 1.0 / 3.0, 32)
    mu = MeasureDensity.lebesgue(grid)
    rng = np.random.default_rng(13)
    vals = rng.standard_normal((grid.num_points, 3)) + 1j * rng.standard_normal((grid.num_points, 3))
    schemes = [BallScheme(grid, r * grid.h, mu) for r in (5.5, 2, 3.0000001, 2.5, 9, 16)]
    for scheme, sums in zip(schemes, _window_sum(grid, vals, schemes), strict=True):
        assert np.array_equal(sums, _window_sum(grid, vals, [scheme])[0])


def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(bits(got), bits(want))


#: ball radii in cells: r and r + h/2 share half-widths, 5 + 1e-7 keeps a rim row
RADII = (2.0, 2.5, 3.0, 3.5, 5.0000001, 7.3)
BIT_GRIDS = [Grid(1, 8.0, 64), Grid(1, 0.1, 256), Grid(2, 1.0 / 3.0, 16), Grid(2, 8.0, 32)]
BIT_IDS = [f"n{g.n}-N{g.N}" for g in BIT_GRIDS]


def _bit_values(grid: Grid, d: int, complex_values: bool, seed: int) -> np.ndarray:
    """Signed values over several decades with a region of +0.0, one of -0.0
    (complex: -0.0 real parts with imaginary parts of both signs) and one of
    signed subnormals, whose sums and averages underflow to signed zeros."""
    rng = np.random.default_rng(seed)
    m = grid.num_points
    tiny = slice(m // 2, 3 * m // 4)

    def subnormals():
        return rng.choice([5e-324, -5e-324, 1e-320, -1e-320, 0.0], (tiny.stop - tiny.start, d))

    vals = np.exp(3 * rng.standard_normal((m, d))) * rng.choice([-1, 1], (m, d))
    if complex_values:
        vals = vals + 1j * rng.standard_normal((m, d))
    vals[: m // 4] = 0.0
    vals[m // 4: m // 2] = -0.0
    vals[tiny] = subnormals() + 1j * subnormals() if complex_values else subnormals()
    if complex_values:
        vals[m // 4: 3 * m // 8] = complex(-0.0, -0.0)
        vals[-3:] = complex(0.0, -0.0)
    return vals


def _densities(grid: Grid):
    """Lebesgue, and a density over several decades that is zero on a strip of
    two cells along the first axis, narrower than every ball."""
    dens = np.exp(np.random.default_rng(grid.N).standard_normal(grid.num_points))
    dens.reshape(grid.shape)[2:4] = 0.0
    return [MeasureDensity.lebesgue(grid), MeasureDensity(grid, dens)]


@pytest.mark.parametrize("grid", BIT_GRIDS, ids=BIT_IDS)
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("complex_values", [False, True], ids=["real", "complex"])
def test_window_sums_and_averages_keep_their_bits(grid, d, complex_values):
    vals = _bit_values(grid, d, complex_values, seed=grid.N + d)
    for mu in _densities(grid):
        schemes = [BallScheme(grid, r * grid.h, mu) for r in RADII]
        for got, want in zip(_window_sum(grid, vals, schemes), ref.window_sum(grid, vals, schemes),
                             strict=True):
            assert_same_bits(got, want)
        averages = ball_average_ladder(vals, schemes)
        for scheme, got in zip(schemes, averages, strict=True):
            assert_same_bits(scheme.measures, ref.measures(scheme))
            want = ref.ball_average_values(vals, scheme)
            assert_same_bits(got, want)
            assert_same_bits(ball_average_values(vals, BallScheme(grid, scheme.r, mu)), want)


def test_the_ladder_reuses_held_measures_and_rejects_empty_balls():
    grid = Grid(2, 1.0, 16)
    dens = np.ones(grid.num_points)
    dens.reshape(grid.shape)[:3] = 0.0
    mu = MeasureDensity(grid, dens)
    vals = _bit_values(grid, 2, True, seed=3)
    held = BallScheme(grid, 3.5 * grid.h, mu)
    ball_average_values(vals, held)
    measures = held.measures
    schemes = [held, BallScheme(grid, 5 * grid.h, mu)]
    ball_average_ladder(vals, schemes)
    assert schemes[0].measures is measures
    assert_same_bits(schemes[1].measures, ref.measures(schemes[1]))
    # the ball of radius 2h at row 1 lies in the three zero rows
    for average in (ref.ball_average_values, ball_average_values):
        with pytest.raises(EmptyBall):
            average(vals, BallScheme(grid, 2 * grid.h, mu))
    with pytest.raises(EmptyBall):
        ball_average_ladder(vals, [held, BallScheme(grid, 2 * grid.h, mu)])
    # the measures of one call come from one density
    with pytest.raises(ShapeMismatch):
        ball_average_ladder(vals, [held, BallScheme(grid, 5 * grid.h, MeasureDensity(grid, dens))])


def _curve_spaces(grid: Grid):
    w = make_power_weight(grid, [0.5, -0.25])
    dens = _densities(grid)[1]
    yield Space.matrix_weight(w, 2.0)
    yield Space.matrix_weight(w, 3.0, dens)
    yield Space.matrix_weight(MatrixWeightField.constant(grid, np.eye(2)), 1.5, dens)


@pytest.mark.parametrize("grid", [Grid(1, 2.0, 256), Grid(2, 2.0, 32)], ids=["n1", "n2"])
def test_averaging_curve_equals_the_per_scale_modulus(grid):
    # narrow bumps on a wide box: exp underflows far from their centers, so
    # the members hold +0.0 and -0.0 regions
    fam = gaussian_bumps(grid, 2, 4, np.random.default_rng(17), center_range=(-0.5, 0.5),
                         width_range=(0.02, 0.05))
    scales = [r * grid.h for r in RADII] + [grid.L / 4]
    for space in _curve_spaces(grid):
        curve = averaging_curve(fam, space, scales)
        want = [ref.averaging_modulus(fam, space, r) for r in scales]
        assert_same_bits(np.array(curve), np.array(want))


@pytest.mark.parametrize("r", [2.0, 2.5, 3.0 + 1.2e-12, 3.0 + 2e-12, 4.0, 7.3, 16.0])
def test_runs_cover_exactly_the_ball_offsets(r):
    for n in (1, 2):
        grid = Grid(n, 0.1, 64)
        scheme = BallScheme(grid, r * grid.h, MeasureDensity.lebesgue(grid))
        lead, half = scheme.runs
        k = scheme.reach
        assert lead.tolist() == [list(a) for a in itertools.product(range(-k, k + 1), repeat=n - 1)]
        cells = [(*a, b) for a, w in zip(lead.tolist(), half.tolist()) for b in range(-w, w + 1)]
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
        inside = np.zeros(grid.shape, dtype=bool)
        inside[scheme.box] = True
        assert np.array_equal(inside.ravel(), ones.values[:, 0] != 0)


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
        boxes = fam.boxes(grid)
        for k in range(len(fam)):
            assert np.array_equal(grid.box_cells(boxes[k]), ref.cube_cells(fam, grid, k)), k
            assert tuple(map(tuple, boxes[k].tolist())) == ref.axis_ranges(fam, grid, k)


@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
def test_box_cells_of_a_stack_are_the_cells_of_each_box(grid):
    for fam in _families(grid):
        boxes = fam.boxes(grid)
        widths = boxes[:, :, 1] - boxes[:, :, 0]
        for shape in np.unique(widths, axis=0):
            same = boxes[np.all(widths == shape, axis=1)]
            stacked = grid.box_cells(same)
            assert stacked.shape == (len(same), int(np.prod(shape)))
            for k, box in enumerate(same):
                assert np.array_equal(stacked[k], grid.box_cells(box))


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
