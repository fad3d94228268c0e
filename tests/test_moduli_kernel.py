"""The all-shifts kernel behind the translation and twisted moduli.

Every curve is compared for exact equality with the exhaustive per-rung
scan it replaced: the FFT screen may only choose which (member, shift)
pairs to evaluate, never the reported value.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mwlp.compactness import (
    FunctionFamily,
    _diagonalized,
    _l2_screen,
    default_scale_ladder,
    translation_curve,
    twisted_curve,
)
from mwlp.families import gaussian_bumps
from mwlp.grids import Grid
from mwlp.operators import shift_values
from mwlp.spaces import ExponentField, NormFamily, SampledVectorField, Space
from mwlp.weight_fields import MatrixWeightField, MeasureDensity, make_power_weight

from conftest import zero_field

PROPERTY = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def exhaustive_curve(family, scales, space):
    """Reference: every member and every lattice shift, rescanned per rung."""
    grid = family.grid
    out = []
    for r in scales:
        worst = 0.0
        window = grid.shift_window(grid.max_shift(r))
        for f in family:
            for k in window[grid.shifts_within(window, r)]:
                diff = SampledVectorField(grid, shift_values(f.values, grid, k) - f.values)
                worst = max(worst, space.size(diff))
        out.append(worst)
    return out


@st.composite
def problems(draw):
    """A random grid, family, PSD weight, optional density and scale ladder."""
    n = draw(st.sampled_from([1, 2]))
    big_n = draw(st.sampled_from([8, 16, 32] if n == 1 else [8, 16]))
    grid = Grid(n, draw(st.sampled_from([1.0, 2.5])), big_n)
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = grid.num_points
    count = draw(st.integers(1, 3))
    members = [SampledVectorField(grid, rng.standard_normal((m, d))
                                  + 1j * rng.standard_normal((m, d)))
               for _ in range(count)]
    rank = draw(st.integers(1, d))
    b = rng.standard_normal((m, d, rank)) + 1j * rng.standard_normal((m, d, rank))
    # weights spanning orders of magnitude stress the screening margin
    scale = 10.0 ** rng.uniform(-3.0, 3.0, size=m)
    w = MatrixWeightField(grid, np.einsum("mik,mjk->mij", b, b.conj()) * scale[:, None, None])
    mu = None
    if draw(st.booleans()):
        dens = rng.uniform(0.0, 2.0, size=m)
        dens[rng.random(m) < 0.2] = 0.0
        dens[0] = 1.0
        mu = MeasureDensity(grid, dens)
    multiples = draw(st.lists(st.integers(0, big_n + 2), min_size=1, max_size=4))
    scales = [j * grid.h + draw(st.sampled_from([0.0, 0.5 * grid.h])) for j in multiples]
    return FunctionFamily(members), w, mu, scales


@PROPERTY
@given(problems())
def test_l2_curve_equals_exhaustive_scan(problem):
    family, w, mu, scales = problem
    space = Space.matrix_weight(w, 2.0, mu)
    assert translation_curve(family, scales, space) == exhaustive_curve(family, scales, space)


@PROPERTY
@given(problems())
def test_screen_within_stated_margin(problem):
    family, w, mu, scales = problem
    space = Space.matrix_weight(w, 2.0, mu)
    grid = family.grid
    shifts = grid.shift_window(max(grid.max_shift(r) for r in scales))
    screened, margin = _l2_screen(list(family), shifts, space)
    for m, f in enumerate(family):
        for s, k in enumerate(shifts):
            diff = shift_values(f.values, grid, tuple(int(x) for x in k)) - f.values
            direct = space.size(SampledVectorField(grid, diff)) ** 2
            assert abs(screened[m, s] - direct) <= margin[m]


@PROPERTY
@given(problems())
def test_twisted_curve_equals_exhaustive_scan(problem):
    family, w, mu, scales = problem
    d_field, tilted = _diagonalized(family, w)
    reference = exhaustive_curve(tilted, scales, Space.matrix_weight(d_field, 2.0, mu))
    assert twisted_curve(family, Space.matrix_weight(w, 2.0, mu), scales) == reference


@PROPERTY
@given(problems(), st.sampled_from([1.5, 3.0, "variable"]))
def test_direct_path_equals_exhaustive_scan(problem, p):
    family, w, mu, scales = problem
    grid = family.grid
    if p == "variable":
        pf = ExponentField(grid, 1.0 + 2.0 * np.abs(np.sin(np.arange(grid.num_points))))
        space = Space.variable(NormFamily.from_matrix_weight(w, pf.p_plus), pf)
    else:
        space = Space.matrix_weight(w, p, mu)
    assert translation_curve(family, scales, space) == exhaustive_curve(family, scales, space)


@PROPERTY
@given(problems(), st.sampled_from([2.0, 3.0]))
def test_curve_nondecreasing_in_r(problem, p):
    family, w, mu, scales = problem
    curve = translation_curve(family, sorted(scales), Space.matrix_weight(w, p, mu))
    assert all(a <= b for a, b in zip(curve, curve[1:]))


class TestTiesAndZeros:
    @pytest.fixture
    def grid(self):
        return Grid(1, 2.0, 64)

    def test_all_zero_family(self, grid):
        w = MatrixWeightField.constant(grid, np.eye(2))
        fam = FunctionFamily([zero_field(grid, 2)] * 3)
        scales = [grid.h, 4 * grid.h, 3.0 * grid.L]
        assert translation_curve(fam, scales, Space.matrix_weight(w, 2.0)) == [0.0] * 3

    def test_near_ties(self, grid, rng):
        w = make_power_weight(grid, [0.5, 0.25])
        space = Space.matrix_weight(w, 2.0)
        f = gaussian_bumps(grid, 2, 1, rng, center_range=(0.0, 0.0))[0]
        even = SampledVectorField(grid, 0.5 * (f.values + f.values[::-1]))
        # duplicated members, a phase-rotated copy, a symmetric member whose
        # shifts by +k and -k tie, a zero member, and shifts beyond the box,
        # where tau_k f - f = -f for every such k
        fam = FunctionFamily([f, f, f.scaled(1j), even, zero_field(grid, 2)])
        scales = default_scale_ladder(grid) + [2.5 * grid.L]
        assert translation_curve(fam, scales, space) == exhaustive_curve(fam, scales, space)

    def test_rung_without_shifts_reads_zero(self, grid, rng):
        w = MatrixWeightField.constant(grid, [[1.0]])
        fam = gaussian_bumps(grid, 1, 2, rng)
        curve = translation_curve(fam, [0.5 * grid.h, grid.h], Space.matrix_weight(w, 2.0))
        assert curve[0] == 0.0 and curve[1] > 0.0


class TestDirectConfirmation:
    """The screen decides which pairs to evaluate; far fewer than all of them."""

    @pytest.mark.parametrize("n, N, count, notion", [
        (1, 1024, 20, "translation"),
        (1, 1024, 20, "twisted"),
        (2, 64, 6, "translation"),
    ])
    def test_direct_evaluations_per_job(self, n, N, count, notion, monkeypatch):
        grid = Grid(n, 8.0, N)
        w = make_power_weight(grid, [0.5, 1.0 / 3.0], rotation=lambda pts: pts[:, 0])
        fam = gaussian_bumps(grid, 2, count, np.random.default_rng(20260810))
        scales = default_scale_ladder(grid)
        calls = []
        original = Space.size_values

        def counting(self, values):
            calls.append(1)
            return original(self, values)

        monkeypatch.setattr(Space, "size_values", counting)
        if notion == "twisted":
            twisted_curve(fam, Space.matrix_weight(w, 2.0), scales)
        else:
            translation_curve(fam, scales, Space.matrix_weight(w, 2.0))
        window = grid.shift_window(grid.max_shift(max(scales)))
        pairs = count * sum(int(np.sum(grid.shifts_within(window, r))) for r in scales)
        assert 0 < len(calls) <= 2 * len(scales)
        assert len(calls) * 100 < pairs


@pytest.fixture
def direct_calls(monkeypatch):
    """Every Space.size_values call, as one list entry each."""
    calls = []
    original = Space.size_values

    def counting(self, values):
        calls.append(1)
        return original(self, values)

    monkeypatch.setattr(Space, "size_values", counting)
    return calls


class TestOneRungLoop:
    """Outside L^2(W, mu) every (member, shift) pair of a rung is a
    candidate; nested rungs reuse the pairs already evaluated."""

    @pytest.mark.parametrize("p", [1.5, "variable"])
    def test_each_pair_evaluated_once(self, p, rng, direct_calls):
        grid = Grid(1, 2.0, 32)
        w = make_power_weight(grid, [0.5])
        if p == "variable":
            pf = ExponentField(grid, 1.0 + 2.0 * np.abs(np.sin(np.arange(grid.num_points))))
            space = Space.variable(NormFamily.from_matrix_weight(w, pf.p_plus), pf)
        else:
            space = Space.matrix_weight(w, p)
        bumps = gaussian_bumps(grid, 1, 3, rng)
        fam = FunctionFamily(list(bumps) + [zero_field(grid, 1)])
        # an unsorted ladder: the largest rung is neither first nor last
        scales = [4 * grid.h, grid.h, 9.5 * grid.h, 2 * grid.h]
        curve = translation_curve(fam, scales, space)
        window = grid.shift_window(grid.max_shift(max(scales)))
        largest_rung = int(np.sum(grid.shifts_within(window, max(scales))))
        assert len(direct_calls) == len(bumps) * largest_rung
        assert curve == exhaustive_curve(fam, scales, space)


@pytest.mark.parametrize("p", [2.0, 3.0], ids=["screened", "direct"])
def test_shift_window_stops_at_n_cells(p, rng, direct_calls):
    # every shift with some |k_i| >= N measures -f, so a radius far beyond
    # the box gives the value, and the evaluations, of r = 2L
    grid = Grid(1, 1.0, 64)
    space = Space.matrix_weight(make_power_weight(grid, [0.5]), p)
    fam = gaussian_bumps(grid, 1, 4, rng)
    values, counts = [], []
    for r in (2 * grid.L, 50.0):
        del direct_calls[:]
        values.append(translation_curve(fam, [r], space))
        counts.append(len(direct_calls))
    assert values[0] == values[1]
    assert counts[0] == counts[1] > 0
    assert values[0] == exhaustive_curve(fam, [2 * grid.L], space)
