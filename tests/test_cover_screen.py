"""Covers that measure each pair once.

`compactness.greedy_cover` skips a pair only when an earlier center, as a
pivot, proves it no closer than the item's current distance, so its cover
must be `==` the unscreened cover; a net builder's table of (member, center)
distances must give the certificate that a fresh `certify_net` and the
brute-force `reference_certify` give; the averaging route's uniform metric
must keep the bits of `np.linalg.norm` and measure each unordered pair once;
and the default commands must stay within their `Space.dist` budgets."""

import dataclasses
import io
from contextlib import redirect_stderr

import numpy as np
import pytest

from mwlp import cli, compactness
from mwlp.compactness import Certificate, _pair_memo, _uniform_metric, greedy_cover
from mwlp.families import gaussian_bumps
from mwlp.grids import Grid
from mwlp.spaces import ExponentField, NormFamily, Space, rounding_error
from mwlp.weight_fields import make_power_weight

import reference_certify

GRID = Grid(1, 2.0, 128)
#: the exponent of each space, "variable" for L^p(.) with p(x) in [1.5, 2)
EXPONENTS = (0.5, 1.0, 2.0, 3.0, "variable")


def build_space(p) -> Space:
    w = make_power_weight(GRID, [0.5, -0.25], rotation=lambda x: 3 * x[:, 0])
    if p == "variable":
        r2 = np.sum(GRID.points ** 2, axis=1)
        return Space.variable(NormFamily.from_matrix_weight(w, 2.0),
                              ExponentField(GRID, 1.5 + r2 / (1.0 + r2)))
    return Space.matrix_weight(w, p)


def bumps(seed: int, count: int = 16):
    return gaussian_bumps(GRID, 2, count, np.random.default_rng(seed), center_range=(-0.3, 0.3),
                          width_range=(0.2, 0.4), amplitude_range=(0.8, 1.0))


def counted_metric(space, family):
    """The members' distance through `_pair_memo`, and the list of the pairs
    it measured."""
    measured = []

    def dist(i, j):
        measured.append((i, j))
        return space.dist(family[i], family[j])

    return _pair_memo(dist), measured


@pytest.mark.parametrize("p", EXPONENTS)
@pytest.mark.parametrize("seed", [3, 8])
def test_screened_cover_equals_the_unscreened_cover(p, seed):
    space, family = build_space(p), bumps(seed, 24)
    plain, plain_pairs = counted_metric(space, family)
    # a radius at which about a third of the members become centers
    radius = float(np.quantile([plain(i, j) for i in range(24) for j in range(i)], 0.2))
    unscreened = greedy_cover(len(family), plain, radius)
    screened_fn, screened_pairs = counted_metric(space, family)
    screened = greedy_cover(len(family), screened_fn, radius, rounding_error(space))
    assert screened == unscreened
    assert 1 < len(screened[0]) < len(family) / 2
    # every screened pair is one the unscreened cover measured
    assert set(screened_pairs) < set(plain_pairs)


def test_pivot_margin_keeps_a_pair_decided_by_rounding():
    """Items at 0, 1 and 2 on a line, measured with relative errors within
    delta: d(0, 2) reads 2 (1 + delta / 4) and d(1, 2) reads 1 - delta / 4.
    Without the margin, the pivot 0 bounds d(1, 2) below by the measured
    |d(1, 0) - d(2, 0)| = 1 + delta / 2 >= d(1, 0) and skips it, so item 1
    would stay at distance 1 from center 0 and become a center itself."""
    delta = 1e-6
    table = {(0, 1): 1.0, (0, 2): 2.0 * (1 + delta / 4), (1, 2): 1.0 - delta / 4}
    dist = _pair_memo(lambda i, j: table[i, j])
    radius = 1.0 - delta / 8
    screened = greedy_cover(3, dist, radius, delta)
    assert screened == greedy_cover(3, dist, radius)
    assert screened == ([0, 2], [0, 1, 1], [0.0, 1.0 - delta / 4, 0.0])


def test_a_bound_that_is_not_finite_rules_nothing_out():
    """With delta = inf every bound is -inf or nan: the cover measures every
    pair, as the unscreened cover does."""
    pts = np.array([0.0, 0.3, 1.0, 1.4, 2.2, 2.5])
    calls = []

    def dist(i, j):
        calls.append((i, j))
        return float(abs(pts[i] - pts[j]))

    unscreened = greedy_cover(len(pts), dist, 0.35)
    plain_calls = list(calls)
    calls.clear()
    assert greedy_cover(len(pts), dist, 0.35, np.inf) == unscreened
    assert calls == plain_calls


def assert_same_certificate(got: Certificate, expected: Certificate):
    for field in dataclasses.fields(Certificate):
        assert getattr(got, field.name) == getattr(expected, field.name), field.name


#: (route, p, epsilon) with most members assigned to another member's center
NETS = [("dyadic", 0.5, 0.7), ("dyadic", 1.0, 0.5), ("dyadic", 2.0, 0.6), ("dyadic", 3.0, 0.6),
        ("dyadic", "variable", 0.4), ("average", 2.0, 1.0), ("average", 3.0, 1.0)]


@pytest.mark.parametrize("route, p, epsilon", NETS)
def test_certificate_from_the_builders_table(route, p, epsilon, monkeypatch):
    space, family = build_space(p), bumps(3)
    tables = []
    certify = compactness.certify_net

    def recording(family, centers, threshold, space, pairs=None):
        tables.append(None if pairs is None else pairs.copy())
        return certify(family, centers, threshold, space, pairs)

    monkeypatch.setattr(compactness, "certify_net", recording)
    build = compactness.build_net_dyadic if route == "dyadic" else compactness.build_net_average
    net = build(family, epsilon, space)
    [pairs] = tables
    assert net.size < len(family)
    # every entry of the table is the direct distance, and every assigned pair is in it
    for i, k in zip(*np.nonzero(~np.isnan(pairs))):
        assert pairs[i, k] == space.dist(family[i], net.centers[k])
    assert np.count_nonzero(~np.isnan(pairs)) >= len(family)
    threshold = net.c_net * epsilon
    assert_same_certificate(net.certificate, certify(family, net.centers, threshold, space))
    assert_same_certificate(net.certificate,
                            reference_certify.certify_net(family, net.centers, threshold, space))


def complex_values(rng, count: int, points: int, d: int) -> list:
    """Members with entries over six decades, rows shared between members
    (exact-zero differences) and signed zeros in both parts."""
    scale = 10.0 ** rng.uniform(-3.0, 3.0, (points, 1))
    values = [(rng.standard_normal((points, d)) + 1j * rng.standard_normal((points, d))) * scale
              for _ in range(count)]
    for v in values[1:]:
        v[::5] = values[0][::5]
        v[1::7, 0] = complex(-0.0, 0.0)
        v[2::7, -1] = complex(0.0, -0.0)
    values[0][3::7] = complex(-0.0, -0.0)
    return values


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("points", [1, 7, 64, 1000])
def test_uniform_metric_keeps_the_bits_of_linalg_norm(d, points, rng):
    values = complex_values(rng, 4, points, d)
    inside = rng.random(points) < 0.8
    inside[0] = True
    dist = _uniform_metric(values, inside)
    for i in range(4):
        for j in range(4):
            diff = values[i][inside] - values[j][inside]
            expected = float(np.max(np.linalg.norm(diff, axis=1)))
            assert np.float64(dist(i, j)).view(np.int64) == np.float64(expected).view(np.int64)


def test_average_cover_measures_each_unordered_pair_once(monkeypatch):
    """The uniform cover goes through `_pair_memo`: no member is measured
    against itself, and no pair twice."""
    measured = []
    memo = compactness._pair_memo

    def recording(dist):
        def recorded(i, j):
            measured.append((i, j))
            return dist(i, j)
        return memo(recorded)

    monkeypatch.setattr(compactness, "_pair_memo", recording)
    family = bumps(3)
    net = compactness.build_net_average(family, 1.0, build_space(2.0))
    assert net.size > 2
    assert measured and all(i != j for i, j in measured)
    assert len({frozenset(pair) for pair in measured}) == len(measured)
    assert len(measured) < len(family) * (len(family) - 1) // 2


def space_dist_calls(monkeypatch, argv, tmp_path) -> int:
    calls = []
    original = Space.dist

    def counted(self, f, g):
        calls.append(1)
        return original(self, f, g)

    monkeypatch.setattr(Space, "dist", counted)
    with redirect_stderr(io.StringIO()):
        assert cli.main(argv + ["--out", str(tmp_path / "r.json")]) == 0
    return len(calls)


@pytest.mark.parametrize("argv, budget", [(["net"], 550), (["necessity"], 450),
                                          (["net", "--route", "average"], 40)],
                         ids=["net", "necessity", "net-average"])
def test_default_commands_stay_within_their_distance_budgets(argv, budget, monkeypatch,
                                                             tmp_path):
    """Default `net` made 902 Space.dist calls, `necessity` 780 and `net
    --route average` 80 before the covers shared their measurements."""
    assert space_dist_calls(monkeypatch, argv, tmp_path) <= budget
