"""Tails from one norm pass: each member's per-point norms are evaluated once,
and every tail is the size of those norms with the cells outside a mask
zeroed.  The tables must equal the per-radius tails of `reference_tails.py`
exactly, for the bound, every ladder radius and each route's tail search."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from mwlp.compactness import (
    FunctionFamily,
    build_net_average,
    build_net_dyadic,
    default_radius_ladder,
    moduli_report,
    necessity_check,
    tail_curve,
    tail_modulus,
)
from mwlp.families import gaussian_bumps
from mwlp.grids import Grid
from mwlp.spaces import ExponentField, NormFamily, SampledVectorField, Space
from mwlp.weight_fields import MatrixWeightField, MeasureDensity, make_power_weight

import reference_tails

ROOT = Path(__file__).resolve().parents[1]

GRIDS = {1: (1, 2.0, 64), 2: (2, 2.0, 16)}
SPACES = ("p2", "p2-density", "p0.5", "p0.5-density", "variable")


def random_weight(grid, d, rng):
    """A PSD weight with entries spread over orders of magnitude."""
    m = grid.num_points
    b = rng.standard_normal((m, d, d)) + 1j * rng.standard_normal((m, d, d))
    scale = 10.0 ** rng.uniform(-2.0, 2.0, size=m)
    return MatrixWeightField(grid, np.einsum("mik,mjk->mij", b, b.conj()) * scale[:, None, None])


def make_space(kind, w, rng):
    grid = w.grid
    if kind == "variable":
        pf = ExponentField(grid, 1.0 + 2.0 * rng.random(grid.num_points))
        return Space.variable(NormFamily.from_matrix_weight(w, pf.p_plus), pf)
    p = 2.0 if kind.startswith("p2") else 0.5
    mu = None
    if kind.endswith("density"):
        dens = rng.uniform(0.0, 2.0, size=grid.num_points)
        dens[rng.random(grid.num_points) < 0.2] = 0.0
        mu = MeasureDensity(grid, dens)
    return Space.matrix_weight(w, p, mu)


def problem(n, kind, rng):
    """A grid, a space of the kind and a family whose last member is exactly
    zero outside B(0, L/4) and whose first is the zero field."""
    grid = Grid(*GRIDS[n])
    d = 2
    space = make_space(kind, random_weight(grid, d, rng), rng)
    bumps = list(gaussian_bumps(grid, d, 4, rng))
    inside = grid.inside_ball(grid.L / 4)
    cut = np.where(inside[:, None], bumps[-1].values, 0.0)
    zero = np.zeros((grid.num_points, d), dtype=np.complex128)
    members = [SampledVectorField(grid, zero)] + bumps + [SampledVectorField(grid, cut)]
    return FunctionFamily(members), space


def radii_of(grid):
    return [0.0, grid.h, 3 * grid.h] + default_radius_ladder(grid) + [grid.L - grid.h / 2]


@pytest.mark.parametrize("kind", SPACES)
@pytest.mark.parametrize("n", [1, 2])
def test_tail_curve_equals_per_radius_reference(n, kind, rng):
    family, space = problem(n, kind, rng)
    radii = radii_of(family.grid)
    assert tail_curve(family, radii, space) == reference_tails.tail_curve(family, radii, space)
    for R in radii:
        assert tail_modulus(family, R, space) == reference_tails.tail_curve(family, [R], space)[0]


@pytest.mark.parametrize("kind", SPACES)
@pytest.mark.parametrize("n", [1, 2])
def test_report_bound_and_tails_equal_reference(n, kind, rng):
    family, space = problem(n, kind, rng)
    report = moduli_report(family, space)
    assert report.bound == reference_tails.bound(family, space)
    radii = [R for R, _ in report.tail_curve]
    assert [v for _, v in report.tail_curve] == reference_tails.tail_curve(family, radii, space)


@pytest.mark.parametrize("kind", SPACES)
@pytest.mark.parametrize("n", [1, 2])
def test_member_zero_outside_a_radius_has_zero_tail(n, kind, rng):
    family, space = problem(n, kind, rng)
    grid = family.grid
    cut = FunctionFamily([family[-1]])
    beyond = [grid.L / 4, grid.L / 2, 3 * grid.L / 4]
    assert tail_curve(cut, beyond, space) == [0.0, 0.0, 0.0]
    assert reference_tails.tail_curve(cut, beyond, space) == [0.0, 0.0, 0.0]
    assert tail_curve(cut, [0.0], space)[0] > 0.0


def smooth_family(grid, rng, count=5):
    return gaussian_bumps(grid, 1, count, rng, center_range=(-0.4, 0.4),
                          width_range=(0.15, 0.3))


@pytest.mark.parametrize("p, density", [(2.0, False), (2.0, True), (0.5, False), (0.5, True)])
def test_dyadic_route_tail_search_equals_reference(p, density, rng):
    grid = Grid(1, 2.0, 128)
    w = make_power_weight(grid, [0.5])
    mu = MeasureDensity(grid, 1.0 + grid.points[:, 0] ** 2) if density else None
    space = Space.matrix_weight(w, p, mu)
    family = smooth_family(grid, rng)
    eps = 0.3
    net = build_net_dyadic(family, eps, space)
    m = net.params["m"]
    assert net.params["tail_value"] == reference_tails.tail(family, grid.outside_box(2.0 ** m),
                                                            space)
    # the search takes the first generation under epsilon
    m0 = int(np.ceil(np.log2(4 * grid.h)))
    for earlier in range(m0, m):
        assert not reference_tails.tail(family, grid.outside_box(2.0 ** earlier), space) < eps


@pytest.mark.parametrize("density", [False, True])
def test_average_route_tail_search_equals_reference(density, rng):
    grid = Grid(1, 2.0, 128)
    w = make_power_weight(grid, [0.5])
    mu = MeasureDensity(grid, 1.0 + grid.points[:, 0] ** 2) if density else None
    space = Space.matrix_weight(w, 2.0, mu)
    family = smooth_family(grid, rng)
    eps = 0.3
    net = build_net_average(family, eps, space)
    radii = default_radius_ladder(grid)
    reference = reference_tails.tail_curve(family, radii, space)
    k = radii.index(net.params["R"])
    assert net.params["tail_value"] == reference[k]
    assert all(not t < eps / 3 for t in reference[:k])


def test_necessity_tails_equal_reference(rng):
    grid = Grid(1, 2.0, 128)
    w = make_power_weight(grid, [0.5, 1 / 3], rotation=lambda p: p[:, 0])
    space = Space.matrix_weight(w, 2.0, MeasureDensity(grid, 1.0 + grid.points[:, 0] ** 2))
    family = gaussian_bumps(grid, 2, 6, rng, center_range=(-0.6, 0.6), width_range=(0.1, 0.3))
    report = necessity_check(family, [0.4, 0.2, 0.1], space)
    for row in report.rows:
        assert row.tail_value == reference_tails.tail_curve(family, [row.R], space)[0]


def test_each_member_norms_evaluated_once_per_curve(rng, monkeypatch):
    """The bound and the four ladder tails, as a report asks for them, take
    one per-point norm pass per member."""
    family, space = problem(1, "p0.5", rng)
    calls = []
    point_norms = Space.point_norms

    def counted(self, values):
        calls.append(values.shape)
        return point_norms(self, values)

    monkeypatch.setattr(Space, "point_norms", counted)
    tail_curve(family, [0.0] + default_radius_ladder(family.grid), space)
    assert len(calls) == len(family)


def test_overflow_inside_the_ball_leaves_a_finite_tail_and_no_warning(tmp_path):
    """A member of 1e308 entries inside B(0, R) only: its norms overflow
    there, the mask zeroes them, and the tail beyond R is finite and equal to
    the reference, with no numpy warning on stderr.  Run in a fresh
    interpreter, since pytest records warnings instead of printing them."""
    script = textwrap.dedent("""\
        import numpy as np
        import reference_tails
        from mwlp.compactness import FunctionFamily, tail_curve
        from mwlp.errors import NonFinite
        from mwlp.grids import Grid
        from mwlp.spaces import SampledVectorField, Space
        from mwlp.weight_fields import make_power_weight

        grid = Grid(1, 2.0, 64)
        space = Space.matrix_weight(make_power_weight(grid, [0.5, 0.25]), 2.0)
        big = np.where(grid.inside_ball(0.5)[:, None], 1e308, 1.0) * np.ones((64, 2))
        family = FunctionFamily([SampledVectorField(grid, big)])
        try:  # the member's norm itself overflows
            space.size(family[0])
            raise AssertionError("no overflow")
        except NonFinite:
            pass
        [tail] = tail_curve(family, [0.5], space)
        assert np.isfinite(tail) and tail > 0.0
        assert tail == reference_tails.tail_curve(family, [0.5], space)[0]
        print(repr(tail))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]),
               PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONWARNINGS", None)
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    assert np.isfinite(float(run.stdout))
