"""The screened certificate against the brute-force one.

`compactness.certify_net` skips a center only when the zero-function pivot
proves it farther than the nearest distance found so far, so its certificate
must be `==` the brute-force certificate of `reference_certify`, field by
field, in every kind of space; and on the default nets it must skip almost
every center."""

import dataclasses

import numpy as np
import pytest

from mwlp import cli, compactness
from mwlp.compactness import Certificate, FunctionFamily, certify_net
from mwlp.errors import NonFinite
from mwlp.families import gaussian_bumps
from mwlp.grids import Grid
from mwlp.spaces import ExponentField, NormFamily, SampledVectorField, Space
from mwlp.weight_fields import MeasureDensity, make_power_weight

import reference_certify
from conftest import zero_field

#: (grid dimension n, components d, measure, p); p is unused by the variable exponent
SPACES = ([(n, d, "lebesgue", p) for n in (1, 2) for d in (1, 2) for p in (0.5, 1.0, 2.0, 3.0)]
          + [(1, 2, "density", 0.5), (1, 1, "density", 2.0), (2, 2, "density", 3.0),
             (1, 1, "variable", None), (2, 2, "variable", None)])


def build_space(n, d, measure, p):
    grid = Grid(n, 2.0, 128 if n == 1 else 16)
    w = make_power_weight(grid, [0.5, -0.25][:d],
                          rotation=(lambda x: 3 * x[:, 0]) if d == 2 else None)
    r2 = np.sum(grid.points ** 2, axis=1)
    if measure == "density":
        return Space.matrix_weight(w, p, MeasureDensity(grid, 1.0 + r2))
    if measure == "variable":
        return Space.variable(NormFamily.from_matrix_weight(w, 2.0),
                              ExponentField(grid, 1.5 + r2 / (1.0 + r2)))
    return Space.matrix_weight(w, p)


def mirror(f):
    """f(-x): every axis of the grid reversed."""
    grid = f.grid
    values = f.values.reshape(*grid.shape, f.d)
    return SampledVectorField(grid, np.flip(values, axis=tuple(range(grid.n))).reshape(-1, f.d))


def family_and_centers(space, rng):
    """Members of sizes spread over two decades, the zero member among them,
    and centers that tie or nearly tie: perturbed members, members themselves
    (one twice), spatial mirror images, +-h (exactly equal distances from the
    zero member), (1 -+ t) f (equal distances from f up to rounding) and the
    zero center.  Returns the family, the centers and h."""
    grid, d = space.grid, space.d
    bumps = gaussian_bumps(grid, d, 10, rng, center_range=(-0.6, 0.6), width_range=(0.1, 0.4))
    members = [f.scaled(s) for f, s in zip(bumps, 10.0 ** rng.uniform(-1.0, 1.0, len(bumps)))]
    zero = zero_field(grid, d)
    h = SampledVectorField(grid, 0.3 * rng.standard_normal((grid.num_points, d)))
    perturbed = [SampledVectorField(grid, f.values + 0.05 * rng.standard_normal(f.values.shape))
                 for f in members[:4]]
    centers = (perturbed + [members[4], members[5], members[5], mirror(members[6]),
                            mirror(members[7]), h, h.scaled(-1.0), zero]
               + [members[8].scaled(1.0 + s * t) for t in (0.1, 0.3) for s in (-1.0, 1.0)])
    return FunctionFamily(members + [zero]), centers, h


def assert_same_certificate(screened: Certificate, reference: Certificate):
    for field in dataclasses.fields(Certificate):
        assert getattr(screened, field.name) == getattr(reference, field.name), field.name


@pytest.mark.parametrize("n, d, measure, p", SPACES,
                         ids=[f"{n}d-d{d}-{m}-p{p}" for n, d, m, p in SPACES])
def test_screened_certificate_equals_brute_force(n, d, measure, p, rng, monkeypatch):
    space = build_space(n, d, measure, p)
    family, centers, _ = family_and_centers(space, rng)
    reference = reference_certify.certify_net(family, centers, 1.0, space)
    threshold = float(np.median(reference.per_member_distance))
    reference = reference_certify.certify_net(family, centers, threshold, space)

    calls = []
    dist = Space.dist
    monkeypatch.setattr(Space, "dist", lambda self, f, g: calls.append(1) or dist(self, f, g))
    screened = certify_net(family, centers, threshold, space)
    assert_same_certificate(screened, reference)
    assert not screened.passed  # the members above the median fail
    assert len(calls) < len(family) * len(centers)  # the screen skipped some pairs


def test_both_verdicts_and_ties(rng):
    space = build_space(1, 2, "lebesgue", 2.0)
    family, centers, h = family_and_centers(space, rng)
    zero_member = len(family) - 1
    reference = reference_certify.certify_net(family, centers, 1.0, space)
    worst = reference.worst_distance
    for threshold in (worst, 0.5 * worst):
        assert_same_certificate(certify_net(family, centers, threshold, space),
                                reference_certify.certify_net(family, centers, threshold, space))
    # the zero member is a center: the tie between +h and -h never decides
    assert reference.per_member_distance[zero_member] == 0.0
    assert space.dist(family.members[zero_member], h) == space.dist(
        family.members[zero_member], h.scaled(-1.0))


def test_overflowing_pair_certified_at_zero():
    """A member and its only center both 1e308 everywhere: the sizes overflow,
    which rules nothing out, and the direct distance is 0."""
    space = build_space(1, 2, "lebesgue", 2.0)
    big = SampledVectorField(space.grid, np.full((space.grid.num_points, 2), 1e308))
    family = FunctionFamily([big])
    screened = certify_net(family, [big], 0.2, space)
    assert screened.per_member_distance == [0.0]
    assert_same_certificate(screened, reference_certify.certify_net(family, [big], 0.2, space))


def test_overflowing_size_screens_nothing():
    """Beside its equal, the 1e308 member's distance to a zero center
    overflows: the brute force raises, and so must the screen, which cannot
    rule the zero center out with an infinite size."""
    space = build_space(1, 2, "lebesgue", 2.0)
    big = SampledVectorField(space.grid, np.full((space.grid.num_points, 2), 1e308))
    family, centers = FunctionFamily([big]), [big, zero_field(space.grid, 2)]
    with pytest.raises(NonFinite) as reference:
        reference_certify.certify_net(family, centers, 0.2, space)
    with pytest.raises(NonFinite) as screened:
        certify_net(family, centers, 0.2, space)
    assert str(screened.value) == str(reference.value) == "a measured size is inf: the values overflow"


def count_calls(monkeypatch, argv, tmp_path):
    """Space.dist and Space.dist_to_zero calls of `mwlp argv`, in total and
    within certify_net."""
    counts = {"dist": 0, "dist_to_zero": 0}
    for name in counts:
        original = getattr(Space, name)

        def counted(self, *fields, name=name, original=original):
            counts[name] += 1
            return original(self, *fields)

        monkeypatch.setattr(Space, name, counted)
    in_certificate = []
    certify = compactness.certify_net

    def certify_counted(*args):
        before = dict(counts)
        cert = certify(*args)
        in_certificate.append({k: counts[k] - before[k] for k in counts})
        return cert

    monkeypatch.setattr(compactness, "certify_net", certify_counted)
    assert cli.main(argv + ["--out", str(tmp_path / "r.json")]) == 0
    return counts, in_certificate


def test_default_net_certificate_screens_all_but_80(monkeypatch, tmp_path):
    """The default dyadic net: 40 members, 40 centers, 1,600 brute-force pairs."""
    _, in_certificate = count_calls(monkeypatch, ["net"], tmp_path)
    assert in_certificate == [{"dist": in_certificate[0]["dist"], "dist_to_zero": 80}]
    assert in_certificate[0]["dist"] <= 80


def test_default_average_net_makes_at_most_100_distances(monkeypatch, tmp_path):
    counts, in_certificate = count_calls(monkeypatch, ["net", "--route", "average"], tmp_path)
    assert len(in_certificate) == 1
    assert counts["dist"] <= 100
