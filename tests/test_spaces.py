"""Norms, modulars and the Luxemburg construction."""

import warnings

import numpy as np
import pytest

from mwlp import verify
from mwlp.errors import NonFinite, ShapeMismatch
from mwlp.grids import Grid
from mwlp.spaces import (
    ExponentField,
    NormFamily,
    SampledVectorField,
    Space,
    lp_rho_norm,
    lp_w_norm,
    luxemburg_norm,
    modular,
)
from mwlp.weight_fields import MatrixWeightField, MeasureDensity

from conftest import random_psd, zero_field


def random_weight_field(rng, grid, d, definite=True):
    vals = np.stack([random_psd(rng, d, definite=definite)
                     for _ in range(grid.num_points)])
    return MatrixWeightField(grid, vals)


class TestLpWNorm:
    def test_zero_field(self):
        g = Grid(1, 1.0, 16)
        w = MatrixWeightField.constant(g, np.eye(2))
        assert lp_w_norm(zero_field(g, 2), w, 2.0) == 0.0

    def test_indicator_classical_l2(self):
        g = Grid(1, 2.0, 256)
        x = g.points[:, 0]
        f = SampledVectorField(g, ((x >= 0) & (x < 1)).astype(complex))
        w = MatrixWeightField.constant(g, [[1.0]])
        assert lp_w_norm(f, w, 2.0) == pytest.approx(1.0, abs=g.h)

    def test_constant_diag_hand_integral(self):
        g = Grid(1, 1.0, 128)
        w = MatrixWeightField.constant(g, np.diag([4.0, 1.0]))
        f = SampledVectorField(g, np.tile([1.0 + 0j, 0.0], (g.num_points, 1)))
        assert lp_w_norm(f, w, 2.0) == pytest.approx(2 * np.sqrt(2), rel=1e-12)

    def test_d1_equals_scalar_weighted_norm_exactly(self, rng):
        g = Grid(1, 1.0, 64)
        wv = 0.5 + rng.random(64)
        w = MatrixWeightField.diagonal(g, wv[:, None])
        f_vals = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        f = SampledVectorField(g, f_vals)
        direct = (np.sum(wv * np.abs(f_vals) ** 2) * g.h) ** 0.5
        # the Space path forms (w^{1/2} |f|)^2, a few ulp from w |f|^2
        assert lp_w_norm(f, w, 2.0) == Space.matrix_weight(w, 2.0).norm(f)
        assert lp_w_norm(f, w, 2.0) == pytest.approx(direct, rel=1e-14)

    def test_matches_rho_norm_when_derived(self, rng):
        g = Grid(1, 1.0, 32)
        for d in (1, 2, 3):
            w = random_weight_field(rng, g, d)
            f = SampledVectorField(
                g, rng.standard_normal((32, d)) + 1j * rng.standard_normal((32, d)))
            for p in (1.0, 2.0, 3.5):
                rho = NormFamily.from_matrix_weight(w, p)
                assert lp_w_norm(f, w, p) == pytest.approx(
                    lp_rho_norm(f, rho, p), rel=1e-12)

    def test_density_measure(self):
        g = Grid(1, 1.0, 64)
        mu = MeasureDensity(g, 1.0 + g.points[:, 0] ** 2 / 2)
        w = MatrixWeightField.constant(g, [[1.0]])
        ones = SampledVectorField(g, np.ones(64, dtype=complex))
        expected = (2.0 + (2.0 / 3.0) / 2.0) ** 0.5  # integral of 1 + x^2/2
        assert lp_w_norm(ones, w, 2.0, mu) == pytest.approx(expected, rel=1e-4)

    def test_shape_mismatch(self):
        g = Grid(1, 1.0, 16)
        w = MatrixWeightField.constant(g, np.eye(2))
        with pytest.raises(ShapeMismatch):
            lp_w_norm(zero_field(g, 3), w, 2.0)

    @pytest.mark.parametrize("density_grid", [Grid(1, 2.0, 64), Grid(1, 1.0, 32)])
    def test_rho_norm_rejects_a_density_on_another_grid(self, density_grid):
        g = Grid(1, 1.0, 64)
        rho = NormFamily.from_matrix_weight(
            MatrixWeightField.constant(g, [[1.0]]), 2.0)
        f = SampledVectorField(g, np.ones(64, dtype=complex))
        with pytest.raises(ShapeMismatch):
            lp_rho_norm(f, rho, 2.0, MeasureDensity.lebesgue(density_grid))


class TestModular:
    def test_zero(self):
        g = Grid(1, 1.0, 16)
        w = MatrixWeightField.constant(g, [[1.0]])
        rho = NormFamily.from_matrix_weight(w, 2.0)
        pf = ExponentField.constant(g, 2.0)
        assert modular(zero_field(g, 1), rho, pf) == 0.0

    def test_constant_exponent_is_norm_power(self, rng):
        g = Grid(1, 1.0, 32)
        w = random_weight_field(rng, g, 2)
        rho = NormFamily.from_matrix_weight(w, 3.0)
        pf = ExponentField.constant(g, 3.0)
        f = SampledVectorField(
            g, rng.standard_normal((32, 2)) + 1j * rng.standard_normal((32, 2)))
        assert modular(f, rho, pf) == pytest.approx(
            lp_rho_norm(f, rho, 3.0) ** 3, rel=1e-12)

    def test_two_piece_hand_computation(self):
        # p = 2 on x < 0, 3 on x >= 0, f == 2 on [-1, 1): 1*4 + 1*8 = 12
        g = Grid(1, 1.0, 64)
        w = MatrixWeightField.constant(g, [[1.0]])
        rho = NormFamily.from_matrix_weight(w, 2.0)
        pf = ExponentField(g, np.where(g.points[:, 0] < 0, 2.0, 3.0))
        f = SampledVectorField(g, np.full(64, 2.0, dtype=complex))
        assert modular(f, rho, pf) == pytest.approx(12.0, rel=1e-13)

    def test_convex_along_segments(self, rng):
        g = Grid(1, 1.0, 32)
        w = random_weight_field(rng, g, 2)
        rho = NormFamily.from_matrix_weight(w, 2.0)
        pf = ExponentField(g, 1.0 + 2.0 * rng.random(32))
        for _ in range(5):
            f = SampledVectorField(g, rng.standard_normal((32, 2)).astype(complex))
            h = SampledVectorField(g, rng.standard_normal((32, 2)).astype(complex))
            t = rng.random()
            mid = SampledVectorField(g, t * f.values + (1 - t) * h.values)
            assert modular(mid, rho, pf) <= (
                t * modular(f, rho, pf) + (1 - t) * modular(h, rho, pf) + 1e-10)


class TestLuxemburg:
    def test_zero(self):
        g = Grid(1, 1.0, 16)
        w = MatrixWeightField.constant(g, [[1.0]])
        rho = NormFamily.from_matrix_weight(w, 2.0)
        pf = ExponentField.constant(g, 2.0)
        assert luxemburg_norm(zero_field(g, 1), rho, pf) == 0.0

    def test_constant_exponent_matches_norm(self, rng):
        g = Grid(1, 1.0, 32)
        w = random_weight_field(rng, g, 2)
        for p in (1.0, 2.0, 3.0):
            rho = NormFamily.from_matrix_weight(w, p)
            pf = ExponentField.constant(g, p)
            f = SampledVectorField(
                g, rng.standard_normal((32, 2)) + 1j * rng.standard_normal((32, 2)))
            assert luxemburg_norm(f, rho, pf) == pytest.approx(
                lp_rho_norm(f, rho, p), rel=1e-7)

    def test_root_bracketed_hand_case(self):
        # 4 / lam^2 + 8 / lam^3 = 1 has its root in [2, 4]
        g = Grid(1, 1.0, 64)
        w = MatrixWeightField.constant(g, [[1.0]])
        rho = NormFamily.from_matrix_weight(w, 2.0)
        pf = ExponentField(g, np.where(g.points[:, 0] < 0, 2.0, 3.0))
        f = SampledVectorField(g, np.full(64, 2.0, dtype=complex))
        lam = luxemburg_norm(f, rho, pf)
        assert 2.0 < lam < 4.0
        assert 4 / lam ** 2 + 8 / lam ** 3 == pytest.approx(1.0, abs=1e-7)

    def test_norms_evaluated_once(self, rng, monkeypatch):
        g = Grid(1, 1.0, 32)
        rho = NormFamily.from_matrix_weight(random_weight_field(rng, g, 2), 2.0)
        pf = ExponentField(g, 1.0 + 2.0 * rng.random(32))
        f = SampledVectorField(g, rng.standard_normal((32, 2)) + 0j)
        calls = []
        evaluate = rho.evaluate
        monkeypatch.setattr(rho, "evaluate", lambda values: calls.append(1) or evaluate(values))
        assert luxemburg_norm(f, rho, pf) > 0.0
        assert len(calls) == 1

    def test_verify_suite_bisects_on_values(self, monkeypatch):
        # one drawn field, its scaled copy and the bisection's end per
        # instance; the 80 bisection steps measure arrays
        built = []
        original = SampledVectorField.__post_init__

        def counting(self):
            built.append(1)
            original(self)

        monkeypatch.setattr(SampledVectorField, "__post_init__", counting)
        report = verify.suite_luxemburg(np.random.default_rng(0), 5)
        assert report["passed"]
        assert len(built) == 3 * 5

    def test_homogeneity(self, rng):
        g = Grid(1, 1.0, 32)
        w = random_weight_field(rng, g, 2)
        rho = NormFamily.from_matrix_weight(w, 2.0)
        pf = ExponentField(g, 1.0 + 2.0 * rng.random(32))
        f = SampledVectorField(
            g, rng.standard_normal((32, 2)) + 1j * rng.standard_normal((32, 2)))
        base = luxemburg_norm(f, rho, pf)
        for c in (0.3, 2.0, -1.5, 1j):
            assert luxemburg_norm(f.scaled(c), rho, pf) == pytest.approx(
                abs(c) * base, rel=1e-7, abs=1e-8)

    def test_homogeneity_down_to_1e_16(self):
        # no floor on the bracket: the norm keeps scaling below 1e-12
        g = Grid(1, 2.0, 64)
        rho = NormFamily.from_matrix_weight(MatrixWeightField.constant(g, [[1.0]]), 2.0)
        pf = ExponentField.constant(g, 2.0)
        one = SampledVectorField(g, np.ones(64, dtype=complex))
        for c in (1.0, 1e-12, 1e-14, 1e-16):
            f = one.scaled(c)
            want = lp_rho_norm(f, rho, 2.0)
            assert want == pytest.approx(2.0 * c, rel=1e-12, abs=0.0)
            assert luxemburg_norm(f, rho, pf) == pytest.approx(want, rel=1e-7, abs=0.0)

    def test_bisection_converges_below_1e_52(self):
        # the bracket starts near 1 whatever the field's size, so a norm of
        # 2e-70 takes more than 200 halvings to reach
        g = Grid(1, 2.0, 64)
        rho = NormFamily.from_matrix_weight(MatrixWeightField.constant(g, [[1.0]]), 2.0)
        pf = ExponentField.constant(g, 2.0)
        one = SampledVectorField(g, np.ones(64, dtype=complex))
        for c in (1e-55, 1e-70):
            assert luxemburg_norm(one.scaled(c), rho, pf) == pytest.approx(
                2.0 * c, rel=1e-7, abs=0.0)

    @pytest.mark.parametrize("exponent", ["1", "1.5", "variable"])
    def test_homogeneity_up_to_1e200(self, exponent):
        # the bracket's upper end, max(ends) + 1, bounds the norm at every
        # scale; at p = 1.5 from c = 1e15 on, the modular computed there
        # rounds above 1, and the bisection, which never evaluates it there,
        # still meets LUX_TOL
        from mwlp.spaces import LUX_TOL, _luxemburg

        g = Grid(1, 1.0, 64)
        rng = np.random.default_rng(5)
        r = 0.1 + rng.random(64)  # per-point norms: a field of size 1e200 overflows their squares
        pf = (ExponentField(g, 1.0 + 0.5 * rng.random(64)) if exponent == "variable"
              else ExponentField.constant(g, float(exponent)))
        base = _luxemburg(r, pf, g)
        for c in (1e15, 1e20, 1e100, 1e200):
            assert _luxemburg(c * r, pf, g) == pytest.approx(c * base, rel=LUX_TOL, abs=0.0)

    def test_bisection_that_cannot_meet_the_tolerance_raises(self):
        # per-point norms of 1e-318 at p = 1: a norm of 4e-318 is subnormal,
        # where neighbouring floats lie farther apart than LUX_TOL
        from mwlp.spaces import _luxemburg

        g = Grid(1, 2.0, 64)
        with pytest.raises(NonFinite, match="short of the relative tolerance") as exc:
            _luxemburg(np.full(64, 1e-318), ExponentField.constant(g, 1.0), g)
        assert "\n" not in str(exc.value)

    def test_modular_norm_comparison_clauses(self, rng):
        # the four comparison clauses, including the boundary lambda = 1
        for k in range(25):
            g = Grid(1, 1.0, 64)
            d = 1 + k % 3
            w = random_weight_field(rng, g, d)
            pf = ExponentField(g, 1.0 + 3.0 * rng.random(64))
            rho = NormFamily.from_matrix_weight(w, 2.0)
            f = SampledVectorField(
                g, (0.2 + 3.0 * rng.random()) * (
                    rng.standard_normal((64, d)) + 1j * rng.standard_normal((64, d))))
            mod = modular(f, rho, pf)
            nrm = luxemburg_norm(f, rho, pf)
            if nrm <= 1.0:
                assert mod <= nrm + 2e-8
            else:
                assert mod >= nrm - 2e-8
            assert nrm <= mod + 1.0 + 2e-8
            lam = 1.0 if k % 5 == 0 else float(rng.uniform(0.05, 1.0))
            target = lam ** pf.p_plus
            lo, hi = 0.0, 1.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if modular(f.scaled(mid), rho, pf) <= target:
                    lo = mid
                else:
                    hi = mid
            g_scaled = f.scaled(lo)
            assert modular(g_scaled, rho, pf) <= target
            assert luxemburg_norm(g_scaled, rho, pf) <= lam + 2e-8


class TestSpace:
    def test_norm_family_flavor(self, rng):
        g = Grid(1, 1.0, 32)
        w = MatrixWeightField.constant(g, np.eye(2))
        sp = Space.norm_family(NormFamily.from_matrix_weight(w, 2.0), 2.0)
        f = SampledVectorField(g, rng.standard_normal((32, 2)).astype(complex))
        assert sp.weight is None
        assert sp.norm(f) == lp_w_norm(f, w, 2.0)

    def test_variable_space_uses_modular_size(self, rng):
        g = Grid(1, 1.0, 32)
        w = random_weight_field(rng, g, 2)
        rho = NormFamily.from_matrix_weight(w, 2.0)
        pf = ExponentField(g, 1.0 + rng.random(32))
        sp = Space.variable(rho, pf)
        f = SampledVectorField(g, rng.standard_normal((32, 2)).astype(complex))
        assert sp.size(f) == modular(f, rho, pf)
        assert sp.norm(f) == pytest.approx(luxemburg_norm(f, rho, pf))

    def test_quasi_norm_distance_for_small_p(self, rng):
        g = Grid(1, 1.0, 32)
        w = random_weight_field(rng, g, 1)
        sp = Space.matrix_weight(w, 0.5)
        f = SampledVectorField(g, rng.standard_normal(32).astype(complex))
        zero = zero_field(g, 1)
        assert sp.dist(f, zero) == pytest.approx(sp.norm(f) ** 0.5, rel=1e-12)
        # p-power distance is subadditive
        h = SampledVectorField(g, rng.standard_normal(32).astype(complex))
        assert sp.dist(f, h) <= sp.dist(f, zero) + sp.dist(zero, h) + 1e-12

    @pytest.mark.parametrize("density_grid", [Grid(1, 2.0, 64), Grid(1, 1.0, 32)])
    def test_density_on_another_grid_rejected(self, density_grid):
        g = Grid(1, 1.0, 64)
        w = MatrixWeightField.constant(g, [[1.0]])
        mu = MeasureDensity(density_grid, 1.0 + density_grid.radii)
        with pytest.raises(ShapeMismatch):
            Space.matrix_weight(w, 2.0, mu)

    @staticmethod
    def _spaces(g):
        w = MatrixWeightField.constant(g, np.eye(2))
        pf = ExponentField(g, np.where(g.points[:, 0] < 0, 2.0, 3.0))
        return [Space.matrix_weight(w, 2.0),
                Space.variable(NormFamily.from_matrix_weight(w, 2.0), pf)]

    @pytest.mark.parametrize("which", [0, 1], ids=["constant", "variable"])
    def test_overflowing_difference_raises(self, which):
        # both fields are finite; their difference overflows to inf
        g = Grid(1, 1.0, 16)
        space = self._spaces(g)[which]
        f = SampledVectorField(g, np.full((16, 2), 1e308, dtype=complex))
        with np.errstate(all="ignore"), pytest.raises(NonFinite) as exc:
            space.dist(f, f.scaled(-1.0))
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("which", [0, 1], ids=["constant", "variable"])
    def test_overflowing_difference_warns_nothing(self, which):
        g = Grid(1, 1.0, 16)
        space = self._spaces(g)[which]
        f = SampledVectorField(g, np.full((16, 2), 1e308, dtype=complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite):
                space.dist(f, f.scaled(-1.0))

    @pytest.mark.parametrize("which", [0, 1], ids=["constant", "variable"])
    def test_dist_builds_no_field(self, which, rng, monkeypatch):
        g = Grid(1, 1.0, 64)
        space = self._spaces(g)[which]
        f, h = (SampledVectorField(g, rng.standard_normal((64, 2)) + 0j) for _ in range(2))
        built = []
        original = SampledVectorField.__post_init__

        def counting(self):
            built.append(1)
            original(self)

        monkeypatch.setattr(SampledVectorField, "__post_init__", counting)
        assert space.dist(f, h) > 0.0
        assert built == []

    def test_dist_checks_both_fields(self):
        g = Grid(1, 1.0, 16)
        space = self._spaces(g)[0]
        with pytest.raises(ShapeMismatch):
            space.dist(zero_field(g, 2), zero_field(g, 3))
        with pytest.raises(ShapeMismatch):
            space.dist(zero_field(Grid(1, 2.0, 16), 2), zero_field(g, 2))
