"""Property tests of invariants the covering and averaging code relies on."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mwlp.compactness import greedy_cover
from mwlp.grids import Grid
from mwlp.operators import BallScheme, DyadicScheme, ball_average, dyadic_average
from mwlp.spaces import SampledVectorField
from mwlp.weight_fields import MeasureDensity

PROPERTY = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
EPS = np.finfo(float).eps


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 30),
       dim=st.integers(1, 3), radius=st.floats(0.0, 2.0))
def test_greedy_cover_keeps_every_item_within_the_radius(seed, count, dim, radius):
    pts = np.random.default_rng(seed).standard_normal((count, dim))

    def dist(i, j):
        return float(np.linalg.norm(pts[i] - pts[j]))

    centers, assignment, dists = greedy_cover(count, dist, radius)
    assert len(set(centers)) == len(centers)
    for i in range(count):
        assert dists[i] == dist(i, centers[assignment[i]])
        assert dists[i] <= radius


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 2), log_n=st.integers(3, 5),
       L=st.sampled_from([1.0, 0.1, 1.0 / 3.0, 8.0]), cells=st.integers(2, 6),
       lebesgue=st.booleans())
def test_ball_average_maps_constants_to_constants(seed, n, log_n, L, cells, lebesgue):
    # S_r c = (sum of c mu) / (sum of mu) over each ball.  Every window sum is
    # a difference of two running sums over at most M cells (1-D) or a sum by
    # additions only of at most M terms (2-D: runs of a power-of-two table
    # added row by row), so its error is at most M ulp of the total mass;
    # relative to the smallest ball mass, and for numerator and denominator
    # together, that is the bound below.
    rng = np.random.default_rng(seed)
    grid = Grid(n, L, 2 ** log_n)
    dens = np.ones(grid.num_points) if lebesgue else 0.5 + 1.5 * rng.random(grid.num_points)
    mu = MeasureDensity(grid, dens)
    scheme = BallScheme(grid, min(cells, grid.N // 2) * grid.h, mu)
    c = complex(rng.standard_normal(), rng.standard_normal())
    f = SampledVectorField(grid, np.full(grid.num_points, c))
    out = ball_average(f, mu, scheme).values[:, 0]
    cell = grid.h ** grid.n
    ulps = 4 * (grid.num_points + 2) * np.sum(dens) * cell / np.min(scheme.measures)
    assert np.max(np.abs(out - c)) <= ulps * EPS * abs(c)


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 2), log_L=st.integers(-1, 3),
       log_n=st.integers(3, 6), d=st.integers(1, 2), data=st.data())
def test_dyadic_average_is_idempotent(seed, n, log_L, log_n, d, data):
    if n == 2:
        log_n = min(log_n, 4)
    grid = Grid(n, 2.0 ** log_L, 2 ** log_n)
    # h = 2^(log_L + 1 - log_n); the cube side 2^t must hold at least one cell
    m = data.draw(st.integers(log_L + 1 - log_n, log_L))
    t = data.draw(st.integers(log_L + 1 - log_n, m))
    scheme = DyadicScheme(grid, m, t)
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((grid.num_points, d)) + 1j * rng.standard_normal((grid.num_points, d))
    once = dyadic_average(SampledVectorField(grid, vals), scheme)
    assert np.array_equal(dyadic_average(once, scheme).values, once.values)
