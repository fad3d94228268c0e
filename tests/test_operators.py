"""Translation, dyadic/ball averaging, the maximal operator, symdiff."""

import numpy as np
import pytest

from mwlp.errors import EmptyBall, OffLattice, SchemeMismatch
from mwlp.grids import Grid
from mwlp.operators import (
    BallScheme,
    DyadicScheme,
    ball_average,
    cg_domination_constant,
    christ_goldberg_maximal,
    differentiation_errors,
    dyadic_average,
    dyadic_radii,
    symdiff_measure,
    translate,
)
from mwlp.spaces import SampledVectorField
from mwlp.weight_fields import (
    MatrixWeightField,
    MeasureDensity,
    make_power_weight,
)

from conftest import zero_field


@pytest.fixture
def grid():
    return Grid(1, 1.0, 64)


class TestTranslate:
    def test_zero_shift_identity(self, grid):
        f = SampledVectorField(grid, np.sin(grid.points[:, 0]).astype(complex))
        assert np.array_equal(translate(f, (0.0,)).values, f.values)

    def test_zero_field(self, grid):
        z = zero_field(grid, 2)
        assert np.array_equal(translate(z, (grid.h,)).values, z.values)

    def test_indicator_index_shift(self, grid):
        x = grid.points[:, 0]
        f = SampledVectorField(grid, ((x >= 0) & (x < 0.5)).astype(complex))
        t = translate(f, (grid.h,))
        expected = ((x >= grid.h) & (x < 0.5 + grid.h)).astype(complex)
        assert np.array_equal(t.values[:, 0], expected)

    def test_off_lattice_rejected(self, grid):
        f = zero_field(grid, 1)
        with pytest.raises(OffLattice):
            translate(f, (0.3 * grid.h,))

    def test_round_trip_on_interior_support(self, grid):
        x = grid.points[:, 0]
        vals = np.exp(-30 * x ** 2) * (np.abs(x) < 0.5)
        f = SampledVectorField(grid, vals.astype(complex))
        y = 4 * grid.h
        back = translate(translate(f, (y,)), (-y,))
        assert np.array_equal(back.values, f.values)

    def test_2d_shift(self):
        g = Grid(2, 1.0, 16)
        f = SampledVectorField(g, (g.points[:, 0] + 2 * g.points[:, 1]).astype(complex))
        t = translate(f, (g.h, -g.h))
        v = f.values.reshape(16, 16)
        tv = t.values.reshape(16, 16)
        assert np.array_equal(tv[1:, :-1], v[:-1, 1:])
        assert np.all(tv[0, :] == 0) and np.all(tv[:, -1] == 0)


class TestDyadicAverage:
    def test_two_cube_hand_average(self, grid):
        # cubes [-1, 0) and [0, 1): averages of f(x) = x are -1/2 and 1/2
        f = SampledVectorField(grid, grid.points[:, 0].astype(complex))
        scheme = DyadicScheme(grid, m=0, t=0)
        assert scheme.num_cubes == 2
        out = dyadic_average(f, scheme)
        assert out.values[0, 0] == -0.5
        assert out.values[-1, 0] == 0.5

    def test_cube_count_formula(self, grid):
        # N_cubes = 2^((m + 1 - t) n)
        for m, t in ((0, 0), (0, -2), (-1, -3)):
            scheme = DyadicScheme(grid, m, t)
            assert scheme.num_cubes == 2 ** (m + 1 - t)

    def test_constant_reproduced_on_outer_box(self, grid):
        scheme = DyadicScheme(grid, m=-1, t=-2)
        f = SampledVectorField(grid, np.full(64, 2.5, dtype=complex))
        out = dyadic_average(f, scheme)
        inside = np.zeros(grid.shape, dtype=bool)
        inside[scheme.box] = True
        inside = inside.ravel()
        assert np.all(out.values[inside, 0] == 2.5)
        assert np.all(out.values[~inside, 0] == 0.0)

    def test_idempotent_exact(self, grid, rng):
        f = SampledVectorField(
            grid, rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2)))
        scheme = DyadicScheme(grid, m=0, t=-2)
        once = dyadic_average(f, scheme)
        twice = dyadic_average(once, scheme)
        assert np.array_equal(once.values, twice.values)

    def test_misaligned_scheme_rejected(self, grid):
        with pytest.raises(SchemeMismatch):
            DyadicScheme(grid, m=1, t=0)  # outer box exceeds [-1, 1)
        with pytest.raises(SchemeMismatch):
            DyadicScheme(grid, m=0, t=-8)  # cube side below the cell width

    def test_2d_average(self):
        g = Grid(2, 1.0, 16)
        f = SampledVectorField(g, g.points[:, 0].astype(complex))
        scheme = DyadicScheme(g, m=0, t=0)
        out = dyadic_average(f, scheme)
        # left half-plane cubes average to -1/2
        left = g.points[:, 0] < 0
        assert np.allclose(out.values[left, 0], -0.5, atol=1e-14)


class TestBallAverage:
    def test_constant(self, grid):
        mu = MeasureDensity(grid, 1.0 + np.maximum(grid.points[:, 0], 0.0))
        scheme = BallScheme(grid, 4 * grid.h, mu)
        f = SampledVectorField(grid, np.full(64, 3.0, dtype=complex))
        assert np.array_equal(ball_average(f, scheme).values, f.values)

    def test_linear_interior_lebesgue(self, grid):
        mu = MeasureDensity.lebesgue(grid)
        scheme = BallScheme(grid, 8 * grid.h, mu)
        f = SampledVectorField(grid, grid.points[:, 0].astype(complex))
        out = ball_average(f, scheme)
        interior = np.abs(grid.points[:, 0]) < 1.0 - 8 * grid.h
        assert np.max(np.abs(out.values[interior, 0]
                             - f.values[interior, 0])) < 1e-14

    def test_radius_floor(self, grid):
        mu = MeasureDensity.lebesgue(grid)
        with pytest.raises(ValueError):
            BallScheme(grid, grid.h, mu)

    def test_empty_ball(self, grid):
        dens = np.ones(64)
        dens[:8] = 0.0  # kill the left boundary region
        mu = MeasureDensity(grid, dens)
        scheme = BallScheme(grid, 2 * grid.h, mu)
        f = SampledVectorField(grid, np.ones(64, dtype=complex))
        with pytest.raises(EmptyBall):
            ball_average(f, scheme)

    def test_2d_constant(self):
        g = Grid(2, 1.0, 16)
        mu = MeasureDensity.lebesgue(g)
        scheme = BallScheme(g, 3 * g.h, mu)
        f = SampledVectorField(g, np.full(g.num_points, 1.5, dtype=complex))
        assert np.allclose(ball_average(f, scheme).values, 1.5)

    @pytest.mark.parametrize("r", [2 / 256, 8 / 256, 1.0])
    def test_constant_on_a_fine_1d_grid(self, r):
        # h = 1/256 on 4096 cells: a difference of running sums over the box
        # errs by about a thousand ulp here; sums that only add stay within K eps
        g = Grid(1, 8.0, 4096)
        scheme = BallScheme(g, r, MeasureDensity.lebesgue(g))
        c = 0.7 + 0.3j
        out = ball_average(SampledVectorField(g, np.full(g.num_points, c)), scheme).values
        assert np.max(np.abs(out - c)) <= 4 * len(scheme.offsets) * np.finfo(float).eps * abs(c)

    def test_ball_contains_at_least_3n_cells(self):
        g = Grid(2, 1.0, 16)
        scheme = BallScheme(g, 2 * g.h, MeasureDensity.lebesgue(g))
        assert len(scheme.offsets) >= 9


class TestMaximal:
    def test_indicator_value_inside_support(self, grid):
        w = MatrixWeightField.constant(grid, [[1.0]], invertible=True)
        x = grid.points[:, 0]
        f = SampledVectorField(grid, ((x >= 0) & (x < 1)).astype(complex))
        out = christ_goldberg_maximal(f, w, 2.0)
        mid = np.argmin(np.abs(x - 0.5))
        assert out.values[mid] == pytest.approx(1.0, abs=1e-12)

    def test_zero_field(self, grid):
        w = MatrixWeightField.constant(grid, np.eye(2), invertible=True)
        out = christ_goldberg_maximal(zero_field(grid, 2), w, 2.0)
        assert np.all(out.values == 0.0)

    def test_matches_hardy_littlewood_oracle(self, grid, rng):
        # for W == 1, d = 1 the maximal function is the classical one over
        # the same ball family; direct double loop as the oracle
        w = MatrixWeightField.constant(grid, [[1.0]], invertible=True)
        vals = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        f = SampledVectorField(grid, vals)
        out = christ_goldberg_maximal(f, w, 2.0)
        pts = grid.points[:, 0]
        radii = dyadic_radii(grid)
        oracle = np.zeros(64)
        for xi in range(64):
            best = 0.0
            for zi in range(64):
                for r in radii:
                    if abs(pts[xi] - pts[zi]) < r:
                        cells = np.abs(pts - pts[zi]) < r
                        best = max(best, float(np.mean(np.abs(vals[cells]))))
            oracle[xi] = best
        assert np.max(np.abs(out.values - oracle)) < 1e-12

    def test_domination_constant_at_most_one(self, grid, rng):
        w = make_power_weight(grid, [0.5, -0.25], rotation=lambda p: p[:, 0],
                              invertible=True)
        vals = rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2))
        f = SampledVectorField(grid, vals)
        c = cg_domination_constant(f, w, 2.0)
        assert c <= 1.0 + 1e-12
        assert c > 0.1  # sanity: the ratio is not vacuous


class TestSymdiff:
    def test_same_point(self, grid):
        mu = MeasureDensity.lebesgue(grid)
        x = grid.points[20]
        assert symdiff_measure(x, x, 0.25, mu) == 0.0

    def test_lebesgue_translation_identity(self, grid):
        mu = MeasureDensity.lebesgue(grid)
        x, y = grid.points[28], grid.points[36]
        r = 0.25
        assert symdiff_measure(x, y, r, mu) == pytest.approx(
            2 * abs(x[0] - y[0]), abs=grid.h)

    def test_vanishing_density_on_difference(self, grid):
        x, y = grid.points[30], grid.points[34]
        r = 10 * grid.h
        dens = np.ones(64)
        inx = np.abs(grid.points[:, 0] - x[0]) < r
        iny = np.abs(grid.points[:, 0] - y[0]) < r
        dens[inx ^ iny] = 0.0
        mu = MeasureDensity(grid, dens)
        assert symdiff_measure(x, y, r, mu) == 0.0


    def test_neighbour_balls_differ_by_two_cells(self):
        # h = 0.2 / 64 is not a binary fraction: float distances |y - x| put
        # cells at 2h on either side of r = 2h, while the offsets rule gives
        # every ball the same three cells, so each difference is exactly 2h
        grid = Grid(1, 0.1, 64)
        mu = MeasureDensity.lebesgue(grid)
        r = 2 * grid.h
        for i in range(1, grid.N - 2):
            x, y = grid.points[i], grid.points[i + 1]
            assert symdiff_measure(x, y, r, mu) == 2 * grid.h, i

    def test_radius_floor(self, grid):
        mu = MeasureDensity.lebesgue(grid)
        with pytest.raises(ValueError):
            symdiff_measure(grid.points[20], grid.points[21], 1.5 * grid.h, mu)


class TestDifferentiation:
    def test_monotone_decrease_for_smooth_field(self):
        g = Grid(1, 1.0, 512)
        x = g.points[:, 0]
        f = SampledVectorField(g, np.exp(-8 * x ** 2).astype(complex))
        mu = MeasureDensity.lebesgue(g)
        radii = [g.L / 2, g.L / 4, g.L / 8, g.L / 16, 8 * g.h, 4 * g.h]
        curve = differentiation_errors(f, mu, radii)
        vals = [v for _r, v in curve]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-12
        assert vals[-1] < 1e-3
