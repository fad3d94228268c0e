"""The blocked Christ-Goldberg maximal operator.

On 2-D grids whose cell width is a binary fraction the blocked path must
equal the per-point loop it replaced, kept verbatim in `reference_maximal.py`;
on 1-D grids, where that loop subtracts running sums and the blocked path
adds runs, the two agree to a relative 1e-12.  Where h is not a binary
fraction the old 2-D loop tested float distances, which disagree with the
ball rule of the window sums; there the blocked path is checked against a
direct oracle that averages only over the balls holding x.
"""

import numpy as np
import pytest

from mwlp import operators
from mwlp.grids import Grid
from mwlp.operators import BallScheme, christ_goldberg_maximal, dyadic_radii
from mwlp.spaces import SampledVectorField
from mwlp.weight_fields import MatrixWeightField, MeasureDensity, make_power_weight

from reference_maximal import christ_goldberg_maximal as reference_maximal


def _weight(grid, d, rng):
    if d == 1:
        vals = (0.5 + rng.random(grid.num_points)).reshape(-1, 1, 1)
        return MatrixWeightField(grid, vals)
    return make_power_weight(grid, [0.5, -0.25], rotation=lambda p: p[:, 0])


def _field(grid, d, rng):
    m = grid.num_points
    return SampledVectorField(grid, rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d)))


@pytest.mark.parametrize("L", [1.0, 0.1, 1.0 / 3.0, 8.0])
@pytest.mark.parametrize("d", [1, 2])
def test_equals_reference_1d(L, d, rng):
    grid = Grid(1, L, 64)
    w, f = _weight(grid, d, rng), _field(grid, d, rng)
    for p in (2.0, 1.5):
        out = christ_goldberg_maximal(f, w, p).values
        expected = reference_maximal(f, w, p).values
        assert np.all(np.abs(out - expected) <= 1e-12 * expected)


@pytest.mark.parametrize("L, N", [(1.0, 8), (2.0, 8), (0.5, 16)])
@pytest.mark.parametrize("d", [1, 2])
def test_equals_reference_2d_binary_h(L, N, d, rng):
    grid = Grid(2, L, N)
    w, f = _weight(grid, d, rng), _field(grid, d, rng)
    out = christ_goldberg_maximal(f, w, 2.0).values
    assert np.array_equal(out, reference_maximal(f, w, 2.0).values)


@pytest.mark.parametrize("n, N", [(1, 128), (2, 8)])
def test_block_size_does_not_change_values(n, N, rng, monkeypatch):
    grid = Grid(n, 1.0, N)
    w, f = _weight(grid, 2, rng), _field(grid, 2, rng)
    whole = christ_goldberg_maximal(f, w, 2.0).values
    monkeypatch.setattr(operators, "MAXIMAL_BLOCK", 3 * grid.num_points + 1)
    assert np.array_equal(christ_goldberg_maximal(f, w, 2.0).values, whole)
    # the 1-D reference subtracts running sums
    expected = reference_maximal(f, w, 2.0).values
    assert np.all(np.abs(whole - expected) <= (1e-12 if n == 1 else 0.0) * expected)


def test_one_running_sum_per_block_and_one_for_the_counts(rng, monkeypatch):
    # one window-sum call (one table for all radii) per block, and one for
    # the counts the first time the grid is seen
    grid = Grid(1, 1.0, 1024)
    w, f = _weight(grid, 1, rng), _field(grid, 1, rng)
    calls = []
    window_sum = operators._window_sum

    def counted(*args, **kwargs):
        calls.append(1)
        return window_sum(*args, **kwargs)

    monkeypatch.setattr(operators, "_window_sum", counted)
    operators._lebesgue_balls.cache_clear()
    christ_goldberg_maximal(f, w, 2.0)
    # MAXIMAL_BLOCK = 2^18 (cell, point) pairs: 4 blocks of 256 points
    assert len(calls) == 4 + 1
    christ_goldberg_maximal(f, w, 2.0)
    assert len(calls) == 4 + 1 + 4


def test_balls_built_once_per_grid(rng, monkeypatch):
    # the maximal operator and the domination constant share one ball scheme
    # per radius of the grid, whatever the field and the weight
    built = []

    class CountedScheme(BallScheme):
        def __post_init__(self):
            built.append((self.grid, self.r))
            super().__post_init__()

    monkeypatch.setattr(operators, "BallScheme", CountedScheme)
    operators._lebesgue_balls.cache_clear()
    grids = [Grid(1, 1.0, 64), Grid(2, 1.0, 8)]
    for grid in grids + grids:
        for d in (1, 2):
            w, f = _weight(grid, d, rng), _field(grid, d, rng)
            christ_goldberg_maximal(f, w, 1.5)
            operators.cg_domination_constant(f, w, 2.0)
    assert built == [(g, r) for g in grids for r in dyadic_radii(g)]


def test_index_rule_oracle_inexact_h(rng):
    # h = 0.025: float distances between cell centers land on both sides of
    # r = 2h, so the ball holding x must come from the index rule
    grid = Grid(2, 0.1, 8)
    w, f = _weight(grid, 2, rng), _field(grid, 2, rng)
    wp, wm = w.power(0.5), w.power(-0.5)
    g = np.einsum("mij,mj->mi", wm, f.values)
    cells = np.indices(grid.shape).reshape(2, -1).T
    lebesgue = MeasureDensity.lebesgue(grid)
    oracle = np.zeros(grid.num_points)
    for r in dyadic_radii(grid):
        rule = {tuple(int(v) for v in k) for k in BallScheme(grid, r, lebesgue).offsets}
        balls = [[y for y in range(grid.num_points)
                  if tuple((cells[y] - cells[z]).tolist()) in rule]
                 for z in range(grid.num_points)]
        for x in range(grid.num_points):
            phi = np.linalg.norm(g @ wp[x].T, axis=1)
            for ball in balls:
                if x in ball:
                    oracle[x] = max(oracle[x], float(np.mean(phi[ball])))
    out = christ_goldberg_maximal(f, w, 2.0).values
    assert np.max(np.abs(out - oracle) / oracle) < 1e-12


def test_offsets_follow_the_ball_rule():
    grid = Grid(2, 0.1, 16)
    for r in (2 * grid.h, 2.5 * grid.h, 4 * grid.h, 0.07):
        scheme = BallScheme(grid, r, MeasureDensity.lebesgue(grid))
        k = scheme.reach
        expected = [(k1, k2) for k1 in range(-k, k + 1) for k2 in range(-k, k + 1)
                    if k1 * k1 + k2 * k2 < (r / grid.h) ** 2 * (1 - 1e-12)]
        assert [tuple(int(v) for v in o) for o in scheme.offsets] == expected
