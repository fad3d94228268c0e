"""Moduli, net construction, certification and the necessity direction."""

import re

import numpy as np
import pytest

from mwlp.compactness import (
    FunctionFamily,
    averaging_modulus,
    build_net_average,
    build_net_dyadic,
    certify_net,
    default_radius_ladder,
    default_scale_ladder,
    moduli_report,
    necessity_check,
    tail_modulus,
    translation_modulus,
    twisted_curve,
    twisted_modulus,
)
from mwlp.errors import (
    ConstantExponentRequired,
    MatrixWeightRequired,
    ModuliTooLarge,
    MwlpError,
    OutOfRange,
    RadiusExceedsBox,
    SchemeMismatch,
    ShapeMismatch,
)
from mwlp.families import gaussian_bumps
from mwlp.grids import Grid
from mwlp.operators import translate
from mwlp.spaces import ExponentField, NormFamily, SampledVectorField, Space
from mwlp.weight_fields import (
    MatrixWeightField,
    MeasureDensity,
    make_power_weight,
)

from conftest import zero_field
from reference_necessity import necessity_rows


@pytest.fixture
def grid():
    return Grid(1, 2.0, 256)


@pytest.fixture
def unweighted(grid):
    w = MatrixWeightField.constant(grid, [[1.0]])
    return Space.matrix_weight(w, 2.0)


def indicator_field(grid, lo, hi):
    """Characteristic function of the box [lo, hi), a field with d = 1."""
    lo = np.atleast_1d(np.asarray(lo, dtype=np.float64))
    hi = np.atleast_1d(np.asarray(hi, dtype=np.float64))
    pts = grid.points
    return SampledVectorField(grid, np.all((pts >= lo) & (pts < hi), axis=1))


def small_family(grid, rng, d=1, count=6):
    return gaussian_bumps(grid, d, count, rng, center_range=(-0.4, 0.4),
                          width_range=(0.15, 0.3))


class TestModuli:
    def test_zero_family(self, grid, unweighted):
        fam = FunctionFamily([zero_field(grid, 1)])
        assert moduli_report(fam, unweighted).bound == 0.0
        assert tail_modulus(fam, 1.0, unweighted) == 0.0
        assert translation_modulus(fam, 2 * grid.h, unweighted) == 0.0

    def test_singleton_bound_is_norm(self, grid, unweighted, rng):
        f = SampledVectorField(grid, rng.standard_normal(256).astype(complex))
        fam = FunctionFamily([f])
        assert moduli_report(fam, unweighted).bound == unweighted.norm(f)

    def test_bound_equals_exhaustive_max(self, grid, unweighted, rng):
        fam = small_family(grid, rng, count=10)
        assert moduli_report(fam, unweighted).bound == max(
            unweighted.norm(f) for f in fam)

    def test_tail_of_supported_family_vanishes(self, grid, unweighted):
        f = indicator_field(grid, (-0.5,), (0.5,))
        assert tail_modulus(FunctionFamily([f]), 1.0, unweighted) == 0.0

    def test_tail_hand_value(self, unweighted, grid):
        # f = chi_[0, 2) e1 with R = 1: the tail is chi_[1, 2), norm 1
        f = indicator_field(grid, (0.0,), (2.0,))
        val = tail_modulus(FunctionFamily([f]), 1.0, unweighted)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_tail_at_zero_is_bound(self, grid, unweighted, rng):
        fam = small_family(grid, rng)
        assert tail_modulus(fam, 0.0, unweighted) == max(unweighted.size(f) for f in fam)

    def test_tail_radius_must_stay_in_box(self, grid, unweighted, rng):
        fam = small_family(grid, rng)
        with pytest.raises(RadiusExceedsBox):
            tail_modulus(fam, grid.L, unweighted)

    def test_translation_constant_boundary_leakage(self, grid, unweighted):
        # constant field: only the strip swept past the boundary contributes
        c = SampledVectorField(grid, np.full(256, 1.0, dtype=complex))
        val = translation_modulus(FunctionFamily([c]), grid.h, unweighted)
        assert val == pytest.approx(np.sqrt(grid.h), rel=1e-10)

    def test_translation_scales_with_gradient(self, grid, unweighted):
        x = grid.points[:, 0]
        f = SampledVectorField(grid, np.exp(-4 * x ** 2).astype(complex))
        fam = FunctionFamily([f])
        v1 = translation_modulus(fam, grid.h, unweighted)
        # ratio to h is stable under refinement
        g2 = Grid(grid.n, grid.L, 2 * grid.N)
        x2 = g2.points[:, 0]
        f2 = SampledVectorField(g2, np.exp(-4 * x2 ** 2).astype(complex))
        w2 = MatrixWeightField.constant(g2, [[1.0]])
        sp2 = Space.matrix_weight(w2, 2.0)
        v2 = translation_modulus(FunctionFamily([f2]), g2.h, sp2)
        assert v1 / grid.h == pytest.approx(v2 / g2.h, rel=0.05)

    def test_monotone_in_family(self, grid, unweighted, rng):
        fam = small_family(grid, rng, count=8)
        sub = FunctionFamily(fam.members[:4])
        for R in (0.5, 1.0):
            assert tail_modulus(sub, R, unweighted) <= tail_modulus(fam, R, unweighted)
        assert (translation_modulus(sub, 2 * grid.h, unweighted)
                <= translation_modulus(fam, 2 * grid.h, unweighted))

    def test_averaging_modulus_constant_zero(self, grid, unweighted):
        c = SampledVectorField(grid, np.full(256, 2.0, dtype=complex))
        val = averaging_modulus(FunctionFamily([c]), unweighted, 8 * grid.h)
        assert val == 0.0

    def test_averaging_modulus_decreasing_curve(self, grid, unweighted, rng):
        fam = small_family(grid, rng)
        vals = [averaging_modulus(fam, unweighted, r)
                for r in (grid.L / 4, grid.L / 8, grid.L / 16)]
        assert vals[2] < vals[1] < vals[0]


    @pytest.mark.parametrize("p", [2.0, 3.0], ids=["screened", "direct"])
    def test_moduli_build_no_field(self, grid, rng, monkeypatch, p):
        """Tails, translation differences and averaging residuals are measured
        as value arrays of the family's checked members."""
        space = Space.matrix_weight(make_power_weight(grid, [0.5, 0.25]), p)
        fam = small_family(grid, rng, d=2, count=3)
        built = []
        original = SampledVectorField.__post_init__

        def counting(self):
            built.append(1)
            original(self)

        monkeypatch.setattr(SampledVectorField, "__post_init__", counting)
        assert tail_modulus(fam, 0.5, space) > 0.0
        assert translation_modulus(fam, 4 * grid.h, space) > 0.0
        assert averaging_modulus(fam, space, 4 * grid.h) > 0.0
        assert built == []

    def test_family_on_another_grid_rejected(self, grid, unweighted, rng):
        other = small_family(Grid(1, 1.0, 256), rng)
        for measure in (lambda: tail_modulus(other, 0.5, unweighted),
                        lambda: translation_modulus(other, 4 * grid.h, unweighted),
                        lambda: averaging_modulus(other, unweighted, 4 * grid.h)):
            with pytest.raises(ShapeMismatch):
                measure()


class TestTwisted:
    def test_d1_equals_translation_exactly(self, grid, rng):
        fam = small_family(grid, rng)
        w = make_power_weight(grid, [0.5])
        sp = Space.matrix_weight(w, 2.0)
        r = 4 * grid.h
        assert twisted_modulus(fam, sp, r) == translation_modulus(fam, r, sp)

    def test_constant_eigenvectors_match_diagonal_translation(self, grid, rng):
        # fixed rotation angle: U(x) constant, so the twisted modulus equals
        # the translation modulus of U^H f in L^p(D); the eigenvalue fields
        # are kept separated so the diagonalization is well-conditioned
        theta = 0.7
        c, s = np.cos(theta), np.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        lam = np.stack([1.0 + grid.points[:, 0] ** 2,
                        7.0 + np.cos(grid.points[:, 0])], axis=1)
        diag = np.zeros((256, 2, 2))
        diag[:, 0, 0], diag[:, 1, 1] = lam[:, 0], lam[:, 1]
        w = MatrixWeightField(grid, (rot @ diag @ rot.T).astype(complex))
        fam = small_family(grid, rng, d=2)
        r = 4 * grid.h
        tw = twisted_modulus(fam, Space.matrix_weight(w, 2.0), r)
        d_field = MatrixWeightField(grid, diag.astype(complex))
        tilted = FunctionFamily([
            SampledVectorField(grid, f.values @ rot) for f in fam])
        tr = translation_modulus(tilted, r, Space.matrix_weight(d_field, 2.0))
        assert tw == pytest.approx(tr, rel=1e-10)

    def test_rotating_weight_differs_from_translation(self, grid, rng):
        w = make_power_weight(grid, [0.5, -0.25], rotation=lambda p: 3 * p[:, 0])
        fam = small_family(grid, rng, d=2)
        sp = Space.matrix_weight(w, 2.0)
        r = 8 * grid.h
        tw = twisted_modulus(fam, sp, r)
        tr = translation_modulus(fam, r, sp)
        assert np.isfinite(tw) and np.isfinite(tr)
        assert tw != pytest.approx(tr, rel=1e-6)

    def test_measures_with_the_space_density(self):
        # a constant density 4 multiplies every L^2 size by exactly 2,
        # the twisted curve's among them
        grid = Grid(1, 8.0, 256)
        w = make_power_weight(grid, [0.5, 1.0 / 3.0], rotation=lambda pts: pts[:, 0])
        fam = gaussian_bumps(grid, 2, 5, np.random.default_rng(20260810))
        plain = moduli_report(fam, Space.matrix_weight(w, 2.0), "twisted")
        mu = MeasureDensity(grid, np.full(grid.num_points, 4.0))
        dense = moduli_report(fam, Space.matrix_weight(w, 2.0, mu), "twisted")
        assert dense.bound == 2.0 * plain.bound
        for got, base in ((dense.tail_curve, plain.tail_curve),
                          (dense.equicontinuity_curve, plain.equicontinuity_curve)):
            assert [v for _, v in got] == [2.0 * v for _, v in base]

    @pytest.mark.parametrize("p", [2.0, 1.5])
    def test_no_second_eigendecomposition(self, grid, rng, monkeypatch, p):
        # D = diag(lambda) comes from the eigensystem the weight already holds
        from mwlp import matrix_core

        w = make_power_weight(grid, [0.5, -0.25], rotation=lambda p: 3 * p[:, 0])
        fam = small_family(grid, rng, d=2)
        calls = []
        original = matrix_core.batched_eigh
        monkeypatch.setattr(matrix_core, "batched_eigh",
                            lambda mats: calls.append(np.shape(mats)) or original(mats))
        twisted_curve(fam, Space.matrix_weight(w, p), [2 * grid.h, 4 * grid.h])
        assert calls == []


class TestDyadicNet:
    def test_singleton(self, grid, unweighted, rng):
        fam = FunctionFamily([small_family(grid, rng)[0]])
        net = build_net_dyadic(fam, 0.2, unweighted)
        assert net.size == 1
        assert net.c_net * net.epsilon <= net.params["projection_error"] + 1e-12

    def test_two_far_members(self, grid, unweighted, rng):
        f = small_family(grid, rng)[0]
        g = translate(f, (1.0,))
        net = build_net_dyadic(FunctionFamily([f, g]), 0.05, unweighted)
        assert net.size == 2

    def test_duplicates_cluster(self, grid, unweighted, rng):
        base = small_family(grid, rng, count=5)
        fam = FunctionFamily([m for m in base for _ in range(6)])
        net = build_net_dyadic(fam, 0.1, unweighted)
        assert net.size == 5

    @pytest.mark.parametrize("notion", ["averaging", "bogus"])
    def test_notion_outside_the_route_rejected(self, grid, unweighted, rng, notion):
        # the dyadic route measures the translation or the twisted modulus only
        fam = small_family(grid, rng)
        with pytest.raises(OutOfRange, match="expected one of translation, twisted$") as err:
            build_net_dyadic(fam, 5.0, unweighted, notion=notion)
        assert isinstance(err.value, MwlpError) and isinstance(err.value, ValueError)

    def test_certificate_always_passes(self, grid, unweighted, rng):
        fam = small_family(grid, rng, count=12)
        net = build_net_dyadic(fam, 0.1, unweighted)
        cert = certify_net(fam, net.centers, net.c_net * net.epsilon, unweighted)
        assert cert == net.certificate and cert.passed
        assert cert.worst_distance <= net.c_net * net.epsilon * (1 + 1e-9)

    def test_each_projection_pair_measured_once(self, grid, unweighted, rng, monkeypatch):
        calls = []
        dist = Space.dist

        def counted(space, f, g):
            calls.append((id(f), id(g)))
            return dist(space, f, g)

        monkeypatch.setattr(Space, "dist", counted)
        fam = small_family(grid, rng, count=12)
        net = build_net_dyadic(fam, 0.1, unweighted)
        members = {id(f) for f in fam}
        # the greedy cover compares projections only; members appear in the
        # projection error, the net distances and the certificate
        cover = [frozenset(c) for c in calls if not members.intersection(c)]
        n = len(fam)
        assert net.size > 1
        assert all(len(pair) == 2 for pair in cover)
        assert len(set(cover)) == len(cover) <= n * (n - 1) // 2

    def test_shrinking_epsilon_never_shrinks_net(self, grid, unweighted, rng):
        fam = small_family(grid, rng, count=12)
        sizes = [build_net_dyadic(fam, eps, unweighted).size
                 for eps in (0.4, 0.2, 0.1)]
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))
        assert sizes[0] < sizes[-1]

    def test_variable_exponent_route(self, grid, rng):
        w = MatrixWeightField.constant(grid, [[1.0]])
        rho = NormFamily.from_matrix_weight(w, 2.0)
        pf = ExponentField(grid, np.where(grid.points[:, 0] < 0, 1.5, 2.5))
        sp = Space.variable(rho, pf)
        fam = small_family(grid, rng, count=5)
        net = build_net_dyadic(fam, 0.15, sp)
        assert certify_net(fam, net.centers, net.c_net * net.epsilon, sp).passed

    def test_quasi_norm_route(self, grid, rng):
        w = MatrixWeightField.constant(grid, [[1.0]])
        sp = Space.matrix_weight(w, 0.5)
        fam = small_family(grid, rng, count=4)
        net = build_net_dyadic(fam, 0.3, sp)
        assert certify_net(fam, net.centers, net.c_net * net.epsilon, sp).passed

    def test_twisted_notion(self, grid, rng):
        w = make_power_weight(grid, [0.5, 0.25], rotation=lambda p: p[:, 0])
        sp = Space.matrix_weight(w, 2.0)
        fam = small_family(grid, rng, d=2, count=5)
        net = build_net_dyadic(fam, 0.2, sp, notion="twisted")
        assert net.params["notion"] == "twisted"
        assert certify_net(fam, net.centers, net.c_net * net.epsilon, sp).passed


class TestAverageNet:
    def test_singleton(self, grid, rng):
        w = MatrixWeightField.constant(grid, [[1.0]])
        fam = FunctionFamily([small_family(grid, rng)[0]])
        net = build_net_average(fam, 0.3, Space.matrix_weight(w, 2.0))
        assert net.size == 1

    def test_budget_split_recorded(self, grid, rng):
        w = MatrixWeightField.constant(grid, [[1.0]])
        fam = small_family(grid, rng, count=6)
        eps = 0.3
        net = build_net_average(fam, eps, Space.matrix_weight(w, 2.0))
        b = net.params["budgets"]
        assert b["tail"] == eps / 3
        assert b["averaging"] == eps / 3
        assert b["uniform_radius"] == eps / net.params["A"]
        assert net.params["tail_value"] < eps / 3
        assert net.params["averaging_value"] < eps / 3
        assert net.params["worst_uniform_distance"] <= b["uniform_radius"]

    def test_scaled_copies_cluster_by_uniform_radius(self, grid):
        # scaled copies of one bump: the uniform clustering radius eps / A
        # keeps the near-equal pair together and separates the distant one
        w = MatrixWeightField.constant(grid, [[1.0]])
        x = grid.points[:, 0]
        bump = np.exp(-x ** 2 / (2 * 0.3 ** 2))
        members = [SampledVectorField(grid, (a * bump).astype(complex))
                   for a in (0.1, 0.15, 0.5)]
        fam = FunctionFamily(members)
        net = build_net_average(fam, 0.3, Space.matrix_weight(w, 2.0))
        assert net.size == 2

    def test_p_below_one_routed_away(self, grid, rng):
        w = MatrixWeightField.constant(grid, [[1.0]])
        fam = small_family(grid, rng)
        with pytest.raises(OutOfRange):
            build_net_average(fam, 0.1, Space.matrix_weight(w, 0.5))

    def test_needs_a_matrix_weight(self, grid, rng):
        w = MatrixWeightField.constant(grid, [[1.0]])
        sp = Space.norm_family(NormFamily.from_matrix_weight(w, 2.0), 2.0)
        fam = small_family(grid, rng, count=3)
        for build in (lambda: build_net_average(fam, 0.1, sp),
                      lambda: necessity_check(fam, [0.2], sp),
                      lambda: moduli_report(fam, sp, notion="twisted")):
            with pytest.raises(MatrixWeightRequired) as info:
                build()
            assert isinstance(info.value, MwlpError)

    def test_variable_exponent_rejected(self, grid, rng):
        w = MatrixWeightField.constant(grid, [[1.0]])
        pf = ExponentField(grid, np.where(grid.points[:, 0] < 0, 1.5, 2.5))
        sp = Space.variable(NormFamily.from_matrix_weight(w, pf.p_plus), pf)
        fam = small_family(grid, rng, count=3)
        with pytest.raises(ConstantExponentRequired):
            build_net_average(fam, 0.3, sp)

    def test_one_ball_scheme_per_radius(self, grid, rng, monkeypatch):
        from mwlp import compactness

        built = []

        class CountedScheme(compactness.BallScheme):
            def __post_init__(self):
                built.append(self.r)
                super().__post_init__()

        monkeypatch.setattr(compactness, "BallScheme", CountedScheme)
        w = make_power_weight(grid, [0.5])
        fam = small_family(grid, rng, count=6)
        net = build_net_average(fam, 0.3, Space.matrix_weight(w, 2.0))
        assert net.params["r"] in built
        assert len(built) == len(set(built))

    def test_density_measure(self, grid, rng):
        w = MatrixWeightField.constant(grid, [[1.0]])
        mu = MeasureDensity(grid, 1.0 + grid.points[:, 0] ** 2 / 2)
        fam = small_family(grid, rng, count=5)
        net = build_net_average(fam, 0.3, Space.matrix_weight(w, 2.0, mu))
        sp = Space.matrix_weight(w, 2.0, mu)
        assert certify_net(fam, net.centers, net.c_net * net.epsilon, sp).passed


class TestLadderSearch:
    """Each route takes the first ladder entry under its budget; when none
    is, ModuliTooLarge names the search and the budget."""

    def test_empty_scale_ladder_names_n(self):
        # L = 8 is a power of two, but at N = 8 the finest scale 2h = 4 exceeds L/4
        grid = Grid(1, 8.0, 8)
        fam = FunctionFamily([indicator_field(grid, -1.0, 1.0)])
        space = Space.matrix_weight(MatrixWeightField.constant(grid, [[1.0]]), 2.0)
        with pytest.raises(SchemeMismatch, match=r"is empty at N = 8 .*need N >= 16$"):
            build_net_dyadic(fam, 0.1, space)

    def test_scale_not_a_power_of_two(self):
        grid = Grid(1, 3.0, 64)  # 2h = 0.1875
        fam = FunctionFamily([indicator_field(grid, -0.5, 0.5)])
        space = Space.matrix_weight(MatrixWeightField.constant(grid, [[1.0]]), 2.0)
        with pytest.raises(SchemeMismatch, match="dyadic nets need L to be a power of two$"):
            build_net_dyadic(fam, 0.1, space)

    def test_dyadic_box_tail(self, rng):
        grid = Grid(1, 3.0, 256)  # L is no power of two: no dyadic box reaches it
        fam = FunctionFamily([indicator_field(grid, 2.25, 2.75)])
        space = Space.matrix_weight(MatrixWeightField.constant(grid, [[1.0]]), 2.0)
        with pytest.raises(ModuliTooLarge, match=r"^no dyadic box keeps the tail under 0\.1$"):
            build_net_dyadic(fam, 0.1, space)

    def test_average_tail_radius(self, grid, unweighted):
        fam = FunctionFamily([indicator_field(grid, 1.6, 1.9)])
        with pytest.raises(ModuliTooLarge, match=r"^no ladder radius keeps the tail under "
                                                 + re.escape(repr(0.3 / 3)) + "$"):
            build_net_average(fam, 0.3, unweighted)

    def test_average_scale(self, grid, unweighted):
        # supported inside B(0, L/8): every tail is 0, and no scale averages
        # the jumps away
        fam = FunctionFamily([indicator_field(grid, -0.2, 0.2)])
        with pytest.raises(ModuliTooLarge, match=r"^no ladder scale keeps the averaging "
                                                 r"modulus under 1e-06$"):
            build_net_average(fam, 3e-6, unweighted)


class TestCertify:
    def test_net_equal_to_family(self, grid, unweighted, rng):
        fam = small_family(grid, rng, count=4)
        cert = certify_net(fam, list(fam), 0.1, unweighted)
        assert cert.passed and cert.worst_distance == 0.0

    def test_zero_net_fails_on_unit_member(self, grid, unweighted, rng):
        f = SampledVectorField(grid, rng.standard_normal(256).astype(complex))
        f = f.scaled(1.0 / unweighted.norm(f))
        cert = certify_net(FunctionFamily([f]), [zero_field(grid, 1)], 0.5, unweighted)
        assert not cert.passed
        assert cert.worst_distance == pytest.approx(1.0, rel=1e-12)

    def test_no_centers_rejected(self, grid, unweighted, rng):
        with pytest.raises(OutOfRange, match="^a net needs at least one center$"):
            certify_net(small_family(grid, rng, count=2), [], 0.5, unweighted)


class TestNecessity:
    def test_singleton_passes_all_epsilons(self, grid, rng):
        w = make_power_weight(grid, [0.5])
        fam = FunctionFamily([small_family(grid, rng)[0]])
        rep = necessity_check(fam, [0.5, 0.2, 0.1], Space.matrix_weight(w, 2.0))
        assert rep.passed

    def test_finite_family_passes(self, grid, rng):
        w = make_power_weight(grid, [0.5, 1 / 3], rotation=lambda p: p[:, 0])
        fam = small_family(grid, rng, d=2, count=8)
        rep = necessity_check(fam, [0.4, 0.2], Space.matrix_weight(w, 2.0))
        assert rep.passed
        for row in rep.rows:
            assert row.tail_value <= row.tail_bound
            assert row.averaging_value <= row.averaging_bound

    def test_s_r_constant_independent_of_scale(self, rng):
        # S_r is linear, so ||S_r(f - c)|| / ||f - c|| is the same for the
        # family scaled by 1e-14, whose differences are all below 1e-13
        grid = Grid(1, 2.0, 1024)
        fam = small_family(grid, rng, count=12)
        sp = Space.matrix_weight(make_power_weight(grid, [0.5]), 2.0)
        cs = {}
        for c in (1.0, 1e-14):
            scaled = FunctionFamily([f.scaled(c) for f in fam])
            rows = necessity_check(scaled, [0.8 * c, 0.4 * c], sp).rows
            cs[c] = [row.measured_s_r_constant for row in rows]
        assert min(cs[1.0]) > 0.5
        assert cs[1e-14] == pytest.approx(cs[1.0], rel=1e-12)

    def test_requires_p_above_one(self, grid, rng):
        w = make_power_weight(grid, [0.5])
        fam = small_family(grid, rng)
        with pytest.raises(OutOfRange):
            necessity_check(fam, [0.1], Space.matrix_weight(w, 1.0))

    def test_certified_family_passes_at_4eps(self, grid, rng):
        # sufficiency -> necessity loop: a family with a certified eps-net
        # passes the necessity table at 4 eps
        w = make_power_weight(grid, [0.5])
        sp = Space.matrix_weight(w, 2.0)
        fam = small_family(grid, rng, count=10)
        eps = 0.1
        net = build_net_dyadic(fam, eps, sp)
        assert certify_net(fam, net.centers, net.c_net * net.epsilon, sp).passed
        rep = necessity_check(fam, [4 * eps], sp)
        assert rep.passed

    def test_each_member_pair_measured_once(self, grid, rng, monkeypatch):
        calls = []
        dist = Space.dist

        def counted(space, f, g):
            calls.append((f, g))
            return dist(space, f, g)

        monkeypatch.setattr(Space, "dist", counted)
        w = make_power_weight(grid, [0.5])
        fam = small_family(grid, rng, count=8)
        rep = necessity_check(fam, [0.4, 0.2, 0.1, 0.05], Space.matrix_weight(w, 2.0))
        n = len(fam)
        assert rep.rows[-1].net_size > 1
        assert 0 < len(calls) <= n * (n - 1) // 2

    # planted defects: each plant breaks one clause of every row and leaves
    # the other holding, so the row's verdict rests on that clause alone
    PLANTED_EPSILONS = [0.15, 0.1, 0.05]

    def _passing_case(self, grid, rng):
        w = make_power_weight(grid, [0.5])
        fam, sp = small_family(grid, rng, count=8), Space.matrix_weight(w, 2.0)
        assert necessity_check(fam, self.PLANTED_EPSILONS, sp).passed
        return fam, sp

    def test_planted_tail_fails_every_row_on_its_tail_clause(self, grid, rng, monkeypatch):
        fam, sp = self._passing_case(grid, rng)
        # every cell lies outside every ladder ball: each tail is the whole norm
        monkeypatch.setattr(Grid, "outside_ball",
                            lambda self, R: np.ones(self.num_points, dtype=bool))
        rep = necessity_check(fam, self.PLANTED_EPSILONS, sp)
        assert rep.passed is False
        for row in rep.rows:
            assert row.passed is False
            assert row.tail_value > row.tail_bound
            assert row.averaging_value <= row.averaging_bound

    def test_planted_residual_fails_every_row_on_its_averaging_clause(self, grid, rng,
                                                                       monkeypatch):
        from mwlp import compactness

        fam, sp = self._passing_case(grid, rng)
        monkeypatch.setattr(compactness, "_averaging_residual", lambda *args: 1.0)
        rep = necessity_check(fam, self.PLANTED_EPSILONS, sp)
        assert rep.passed is False
        for row in rep.rows:
            assert row.passed is False
            assert row.averaging_value > row.averaging_bound
            assert row.tail_value <= row.tail_bound

    @staticmethod
    def _assert_rows_match(fam, epsilons, sp):
        rows = necessity_check(fam, epsilons, sp).rows
        expected = necessity_rows(fam, epsilons, sp)
        assert rows == expected
        assert all(type(r.passed) is bool for r in rows)
        return rows

    @staticmethod
    def _assert_fallbacks(fam, row):
        # every member is a center at a tiny epsilon, and the largest tail
        # and residual are at least epsilon, so some center fails every
        # ladder radius and the smallest scale: both choices are fallbacks
        assert row.net_size == len(fam)
        assert row.R == default_radius_ladder(fam.grid)[-1]
        assert row.tail_value >= row.epsilon
        assert row.r == min(default_scale_ladder(fam.grid))
        assert row.averaging_value >= row.epsilon

    def test_rows_match_reference_1d(self, grid, rng):
        w = make_power_weight(grid, [0.5])
        fam = small_family(grid, rng, count=8)
        rows = self._assert_rows_match(fam, [0.5, 0.2, 0.05, 1e-9],
                                       Space.matrix_weight(w, 2.0))
        self._assert_fallbacks(fam, rows[-1])

    def test_rows_match_reference_2d(self, rng):
        g = Grid(2, 2.0, 32)
        w = make_power_weight(g, [0.5, 1 / 3], rotation=lambda p: p[:, 0])
        mu = MeasureDensity(g, 1.0 + g.radii ** 2 / 2)
        fam = gaussian_bumps(g, 2, 5, rng, center_range=(-0.4, 0.4),
                             width_range=(0.2, 0.4))
        for sp in (Space.matrix_weight(w, 2.0), Space.matrix_weight(w, 2.0, mu)):
            rows = self._assert_rows_match(fam, [0.4, 0.2, 0.1, 1e-9], sp)
            self._assert_fallbacks(fam, rows[-1])

    def test_one_ball_scheme_per_scale(self, grid, rng, monkeypatch):
        from mwlp import compactness

        built = []

        class CountedScheme(compactness.BallScheme):
            def __post_init__(self):
                built.append(self.r)
                super().__post_init__()

        monkeypatch.setattr(compactness, "BallScheme", CountedScheme)
        w = make_power_weight(grid, [0.5])
        fam = small_family(grid, rng, count=8)
        necessity_check(fam, [0.5, 0.2, 0.1, 0.05], Space.matrix_weight(w, 2.0))
        assert built
        assert len(built) == len(set(built))
        assert set(built) <= set(default_scale_ladder(grid))

    def test_variable_exponent_rejected(self, grid, rng):
        w = MatrixWeightField.constant(grid, [[1.0]])
        pf = ExponentField(grid, np.where(grid.points[:, 0] < 0, 1.5, 2.5))
        sp = Space.variable(NormFamily.from_matrix_weight(w, pf.p_plus), pf)
        fam = small_family(grid, rng, count=3)
        with pytest.raises(ConstantExponentRequired):
            necessity_check(fam, [0.2], sp)


class TestModuliReport:
    def test_report_shapes_and_flag(self, grid, rng):
        w = make_power_weight(grid, [0.5])
        sp = Space.matrix_weight(w, 2.0)
        fam = small_family(grid, rng)
        rep = moduli_report(fam, sp, notion="translation")
        assert rep.notion == "translation"
        assert len(rep.tail_curve) == 4
        assert all(v >= 0 for _r, v in rep.tail_curve)
        assert all(v >= 0 for _r, v in rep.equicontinuity_curve)
        rep2 = moduli_report(fam, sp, notion="averaging")
        assert rep2.notion == "averaging"

    def test_unknown_notion_names_the_accepted_ones(self, grid, unweighted, rng):
        fam = small_family(grid, rng)
        with pytest.raises(OutOfRange, match="'bogus'; expected one of "
                                             "translation, twisted, averaging$") as err:
            moduli_report(fam, unweighted, notion="bogus")
        assert isinstance(err.value, MwlpError) and isinstance(err.value, ValueError)
