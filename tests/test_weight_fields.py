"""Weight fields, cube families and A_p constant estimators."""

import numpy as np
import pytest

from mwlp import matrix_core as mc
from mwlp.errors import (EmptyCubeFamily, MwlpError, NonFinite, NotHermitian, NotInvertible,
                         NotPSD, OutOfRange, ShapeMismatch)
from mwlp.grids import Grid
from mwlp.spaces import ExponentField, SampledVectorField
from mwlp.weight_fields import (
    CubeFamily,
    MatrixWeightField,
    MeasureDensity,
    ScalarWeightField,
    ap_constant,
    make_power_weight,
    scalar_ap_constant,
    scalar_weight_probe,
)

import reference_scalar as ref


class TestFields:
    def test_psd_validation(self):
        g = Grid(1, 1.0, 8)
        bad = np.tile(np.diag([1.0, -0.5]).astype(complex), (8, 1, 1))
        with pytest.raises(NotPSD):
            MatrixWeightField(g, bad)

    def test_psd_error_names_the_eigenvalue_below_its_band(self):
        # -1e-3 lies inside the band of diag(-1e-3, 1e9); -1e-5 is below the
        # band of diag(-1e-5, 1), and the message names that one
        g = Grid(1, 1.0, 8)
        vals = np.tile(np.diag([-1e-3, 1e9]).astype(complex), (8, 1, 1))
        vals[3] = np.diag([-1e-5, 1.0])
        with pytest.raises(NotPSD, match="eigenvalue -1.000e-05 below"):
            MatrixWeightField(g, vals)

    def test_invertible_flag_validation(self):
        # the flag is measured: PSD is fine, and one singular sample clears it
        g = Grid(1, 1.0, 8)
        vals = np.tile(np.diag([1.0, 1e-3]).astype(complex), (8, 1, 1))
        assert MatrixWeightField(g, vals.copy()).invertible
        vals[5, 1, 1] = 0.0
        assert not MatrixWeightField(g, vals.copy()).invertible
        vals[:, 1, 1] = 0.0
        assert not MatrixWeightField(g, vals).invertible

    def test_eigen_fields_constant_diag(self):
        g = Grid(1, 1.0, 16)
        w = MatrixWeightField.constant(g, np.diag([1.0, 4.0]))
        lam, _ = w.eig()
        assert np.allclose(lam[:, 0], 1.0)
        assert np.allclose(lam[:, 1], 4.0)

    def test_eigen_fields_abs_x_times_identity(self):
        g = Grid(1, 1.0, 16)
        r = np.abs(g.points[:, 0])
        vals = r[:, None, None] * np.eye(2)[None]
        w = MatrixWeightField(g, vals.astype(complex))
        lam, _ = w.eig()
        assert np.allclose(lam[:, 0], r, atol=1e-14)
        assert np.allclose(lam[:, 1], r, atol=1e-14)

    def test_rotation_preserves_spectrum(self):
        # W(x) = R(x) diag(1, 1 + x^2) R(x)^H has eigenvalue fields (1, 1+x^2)
        g = Grid(1, 1.0, 64)
        x = g.points[:, 0]
        lam2 = 1.0 + x ** 2
        theta = np.cos(3 * x)
        c, s = np.cos(theta), np.sin(theta)
        rot = np.zeros((64, 2, 2))
        rot[:, 0, 0], rot[:, 0, 1], rot[:, 1, 0], rot[:, 1, 1] = c, -s, s, c
        diag = np.zeros((64, 2, 2))
        diag[:, 0, 0], diag[:, 1, 1] = 1.0, lam2
        vals = np.einsum("mij,mjk,mlk->mil", rot, diag, rot)
        w = MatrixWeightField(g, vals.astype(complex))
        lam, _ = w.eig()
        assert np.max(np.abs(lam[:, 0] - 1.0)) < 1e-10
        assert np.max(np.abs(lam[:, 1] - lam2)) < 1e-10

    def test_power_weight_sorted_spectrum(self):
        g = Grid(1, 1.0, 64)
        w = make_power_weight(g, [0.5, -0.5], rotation=lambda p: p[:, 0])
        lam, _ = w.eig()
        r = np.abs(g.points[:, 0])
        expected = np.sort(np.stack([r ** 0.5, r ** -0.5], axis=1), axis=1)
        assert np.max(np.abs(lam - expected)) < 1e-10

    def test_diagonal_takes_its_eigensystem_as_given(self):
        g = Grid(1, 1.0, 16)
        x = g.points[:, 0]
        lam = np.stack([np.abs(x), 1.0 + x ** 2], axis=1)
        w = MatrixWeightField.diagonal(g, lam)
        assert np.array_equal(w.eig()[0], lam)
        assert np.array_equal(w.eig()[1], np.broadcast_to(np.eye(2), (16, 2, 2)))
        for s in (0.5, -0.5):
            expected = np.zeros((16, 2, 2), dtype=complex)
            expected[:, [0, 1], [0, 1]] = lam ** s
            assert np.array_equal(w.power(s), expected)
        full = MatrixWeightField(g, w.values)
        assert np.allclose(full.power(-0.5), w.power(-0.5), rtol=1e-14, atol=0)

    def test_diagonal_runs_the_clamp_and_invertibility_checks(self):
        g = Grid(1, 1.0, 8)
        with pytest.raises(NotPSD):
            MatrixWeightField.diagonal(g, np.tile([-0.5, 1.0], (8, 1)))
        assert MatrixWeightField.diagonal(g, np.tile([-1e-12, 1.0], (8, 1))).eig()[0][0, 0] == 0.0
        assert not MatrixWeightField.diagonal(g, np.tile([0.0, 1.0], (8, 1))).invertible
        assert MatrixWeightField.diagonal(g, np.tile([0.5, 1.0], (8, 1))).invertible

    @pytest.mark.parametrize("mat", [np.eye(2), np.diag([1.0, 4.0]),
                                     [[2.0, 1j], [-1j, 3.0]],
                                     [[1.0, 0.5, 0.25j], [0.5, 2.0, 0.0], [-0.25j, 0.0, 3.0]]])
    def test_constant_decomposes_one_matrix(self, monkeypatch, mat):
        g = Grid(2, 8.0, 16)
        old = mc.batched_eigh(np.broadcast_to(np.asarray(mat, dtype=complex),
                                              (g.num_points,) + np.shape(mat)).copy())
        seen = []
        eigh = mc.batched_eigh
        monkeypatch.setattr(mc, "batched_eigh", lambda m: seen.append(m.shape[0]) or eigh(m))
        w = MatrixWeightField.constant(g, mat)
        assert seen == [1]
        assert np.array_equal(w.eig()[0], np.maximum(old[0], 0.0))
        assert np.array_equal(w.eig()[1], old[1])
        assert np.array_equal(w.power(-0.5), mc.batched_power_from_eig(*old, -0.5))

    def test_constant_runs_the_hermitian_clamp_and_invertibility_checks(self):
        g = Grid(1, 1.0, 8)
        with pytest.raises(NotHermitian):
            MatrixWeightField.constant(g, [[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(NotPSD):
            MatrixWeightField.constant(g, np.diag([-0.5, 1.0]))
        assert MatrixWeightField.constant(g, np.diag([-1e-12, 1.0])).eig()[0][0, 0] == 0.0
        assert not MatrixWeightField.constant(g, np.diag([0.0, 1.0])).invertible
        assert MatrixWeightField.constant(g, np.diag([2.0, 1.0])).invertible

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan])
    def test_constant_rejects_a_non_finite_matrix_without_a_warning(self, entry):
        with pytest.raises(NonFinite):
            MatrixWeightField.constant(Grid(1, 1.0, 8), [[entry]])

    def test_power_weight_identity(self):
        g = Grid(1, 1.0, 16)
        w = make_power_weight(g, [0.0, 0.0])
        assert np.allclose(w.values, np.eye(2)[None], atol=1e-15)

    @pytest.mark.parametrize("cls, values, error", [
        (SampledVectorField, np.ones((7, 1)), ShapeMismatch),
        (SampledVectorField, np.full(8, np.nan), NonFinite),
        (ExponentField, np.ones((8, 1)), ShapeMismatch),
        (ExponentField, np.full(8, 0.5), OutOfRange),
        (ScalarWeightField, np.full(8, np.inf), NonFinite),
        (ScalarWeightField, -np.ones(8), OutOfRange),
        (MeasureDensity, np.full(8, np.nan), NonFinite),
        (MeasureDensity, -np.ones(8), OutOfRange),
        (MeasureDensity, np.zeros(8), OutOfRange),
        (MatrixWeightField, np.ones((8, 2)), ShapeMismatch),
        (MatrixWeightField, np.ones((8, 2, 3)), ShapeMismatch),
        (MatrixWeightField, np.zeros((8, 0, 0)), OutOfRange),
        (MatrixWeightField, np.zeros((8, 9, 9)), OutOfRange),
        (MatrixWeightField, np.full((8, 1, 1), np.nan), NonFinite),
    ])
    def test_every_rejected_sample_raises_its_toolkit_error(self, cls, values, error):
        with pytest.raises(MwlpError) as info:
            cls(Grid(1, 1.0, 8), values)
        assert type(info.value) is error

    def test_measure_density(self):
        g = Grid(1, 1.0, 16)
        mu = MeasureDensity.lebesgue(g)
        assert mu.total() == 2.0
        with pytest.raises(ValueError):
            MeasureDensity(g, np.zeros(16))


class TestApConstant:
    def test_constant_weight_is_one(self, rng):
        g = Grid(1, 1.0, 64)
        fam = CubeFamily.default(g)
        for c in (1.0, 5.0):
            for d in (1, 2):
                w = MatrixWeightField.constant(g, c * np.eye(d))
                for p in (0.5, 1.0, 2.0, 3.0):
                    assert ap_constant(w, p, fam) == pytest.approx(1.0, abs=1e-12)

    def test_dense_scan_half_power_frozen_value(self):
        # brute-force maximization over interval position and dyadic scale;
        # the sup exceeds the 4/3 attained at origin-anchored intervals
        g = Grid(1, 1.0, 2 ** 12)
        w = make_power_weight(g, [0.5])
        val = ap_constant(w, 2.0, CubeFamily.dense_dyadic(g))
        assert val == pytest.approx(1.4836437560878815, abs=1e-12)
        assert val > 4.0 / 3.0

    def test_dense_scan_matches_independent_oracle(self):
        # direct slice-mean oracle over the same interval inventory
        N, L = 2 ** 10, 1.0
        g = Grid(1, L, N)
        w = make_power_weight(g, [0.5])
        val = ap_constant(w, 2.0, CubeFamily.dense_dyadic(g))
        h = 2 * L / N
        x = ref.centers(L, N)
        wv = np.abs(x) ** 0.5
        g1 = 1.0 / wv
        best = 0.0
        k = 1
        while h * 2 ** k <= 2 * L + 1e-12:
            m = 2 ** k
            for i in range(N - m + 1):
                best = max(best, wv[i:i + m].mean() * g1[i:i + m].mean())
            k += 1
        assert val == pytest.approx(best, rel=1e-12)

    def test_cubic_power_grows_without_bound(self):
        # adding coarser origin-anchored scales multiplies the estimate
        g = Grid(1, 1.0, 2 ** 12)
        w = make_power_weight(g, [3.0])
        vals = []
        for kmax in range(5):
            corners, sides = [], []
            for gen in range(8 - kmax, 13):
                s = 2.0 / 2 ** gen
                corners += [[0.0], [-s]]
                sides += [s, s]
            fam = CubeFamily(np.array(corners), np.array(sides), "anchored subset")
            vals.append(ap_constant(w, 2.0, fam))
        assert all(vals[i + 1] >= vals[i] for i in range(4))
        assert vals[-1] / vals[0] >= 10.0

    def test_cubic_power_grows_under_refinement(self):
        # equivalently: each grid refinement deepens the default family by
        # one origin-anchored scale and the estimate keeps climbing
        vals = []
        for exp in (9, 10, 11, 12, 13):
            g = Grid(1, 1.0, 2 ** exp)
            w = make_power_weight(g, [3.0])
            vals.append(ap_constant(w, 2.0, CubeFamily.default(g)))
        assert all(vals[i + 1] >= vals[i] for i in range(4))
        assert vals[-1] / vals[0] >= 10.0

    def test_monotone_in_cube_family(self):
        g = Grid(1, 1.0, 256)
        w = make_power_weight(g, [0.5])
        full = CubeFamily.default(g)
        half = CubeFamily(full.corners[::2], full.sides[::2], "subset")
        assert ap_constant(w, 2.0, half) <= ap_constant(w, 2.0, full) + 1e-15

    def test_scale_invariance(self):
        g = Grid(1, 1.0, 128)
        fam = CubeFamily.default(g)
        w = make_power_weight(g, [0.5, 1 / 3], rotation=lambda p: p[:, 0])
        w_scaled = MatrixWeightField(g, 7.5 * w.values)
        a = ap_constant(w, 2.0, fam)
        b = ap_constant(w_scaled, 2.0, fam)
        assert b == pytest.approx(a, rel=1e-10)

    def test_d1_matrix_equals_scalar_path_exactly(self):
        g = Grid(1, 1.0, 512)
        fam = CubeFamily.default(g)
        w = make_power_weight(g, [0.5])
        ws = ScalarWeightField(g, w.values[:, 0, 0].real)
        assert ap_constant(w, 2.0, fam) == scalar_ap_constant(ws, 2.0, fam)

    def test_scalar_matches_reference_intervals(self):
        N = 256
        g = Grid(1, 1.0, N)
        rng = np.random.default_rng(3)
        wv = 0.5 + rng.random(N)
        ws = ScalarWeightField(g, wv)
        fam = CubeFamily.default(g)
        val = scalar_ap_constant(ws, 2.5, fam)
        oracle = ref.ap_over_intervals(wv, 2.5, ref.default_intervals(N))
        assert val == pytest.approx(oracle, rel=1e-12)

    def test_small_p_form(self):
        # p <= 1 uses avg(w)/min(w) over each cube for d = 1, in 1-D and 2-D
        for grid in (Grid(1, 1.0, 64), Grid(2, 1.0, 16)):
            rng = np.random.default_rng(11)
            wv = 0.5 + rng.random(grid.num_points)
            w = MatrixWeightField.diagonal(grid, wv[:, None])
            fam = CubeFamily.default(grid)
            val = ap_constant(w, 1.0, fam)
            cells = wv.reshape(grid.shape)
            best = 0.0
            for box in fam.boxes(grid).tolist():
                cube = cells[tuple(slice(i0, i1) for i0, i1 in box)]
                if cube.size:
                    best = max(best, cube.mean() / cube.min())
            assert val == pytest.approx(best, rel=1e-12), grid

    def test_matrix_general_path_vs_scalar_for_scalar_times_identity(self):
        # W = w * I_2: the pairwise norms reduce to (w(x)/w(y))^{1/p}
        g = Grid(1, 1.0, 32)
        rng = np.random.default_rng(5)
        wv = 0.5 + rng.random(32)
        vals = wv[:, None, None] * np.eye(2)[None]
        w2 = MatrixWeightField(g, vals.astype(complex))
        ws = ScalarWeightField(g, wv)
        fam = CubeFamily.default(g)
        assert ap_constant(w2, 2.0, fam) == pytest.approx(
            scalar_ap_constant(ws, 2.0, fam), rel=1e-10)

    def test_requires_invertible_and_nonempty(self):
        g = Grid(1, 1.0, 16)
        w = make_power_weight(g, [0.5])
        singular = MatrixWeightField.constant(g, np.diag([0.0, 1.0]))
        fam = CubeFamily.default(g)
        with pytest.raises(NotInvertible, match="A_p constant requires an invertible weight"):
            ap_constant(singular, 2.0, fam)
        empty = CubeFamily(np.zeros((0, 1)), np.zeros(0), "empty")
        with pytest.raises(EmptyCubeFamily):
            ap_constant(w, 2.0, empty)

    @pytest.mark.parametrize("d", [1, 2])
    def test_family_outside_the_box_holds_no_cells(self, d):
        g = Grid(1, 1.0, 16)
        w = MatrixWeightField.constant(g, np.eye(d))
        outside = CubeFamily(np.array([[2.0], [-3.0]]), np.array([0.5, 1.0]), "outside")
        with pytest.raises(EmptyCubeFamily, match="no cells of the grid"):
            ap_constant(w, 2.0, outside)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_overflow_is_not_reported_as_an_empty_family(self, d):
        # W = w I with w = 1e-300 in one cell: w^{-p'/p} = 1e600 overflows at p = 1.5
        g = Grid(1, 1.0, 16)
        v = np.ones(16)
        v[3] = 1e-300
        w = MatrixWeightField.diagonal(g, np.repeat(v[:, None], d, axis=1))
        with np.errstate(all="ignore"), pytest.raises(NonFinite, match="overflows"):
            ap_constant(w, 1.5, CubeFamily.default(g))

    def test_exponent_out_of_range(self):
        g = Grid(1, 1.0, 16)
        w = make_power_weight(g, [0.5])
        fam = CubeFamily.default(g)
        with pytest.raises(OutOfRange):
            ap_constant(w, 0.0, fam)
        with pytest.raises(OutOfRange):
            scalar_ap_constant(ScalarWeightField(g, np.ones(16)), 1.0, fam)

    def test_2d_grid_path(self):
        g = Grid(2, 1.0, 16)
        w = make_power_weight(g, [0.5])
        fam = CubeFamily.default(g)
        val = ap_constant(w, 2.0, fam)
        assert np.isfinite(val) and val > 1.0


class TestScalarWeightProbe:
    def test_envelopes_finite_and_stable(self):
        # matrix A_p weight: the op-norm envelopes are scalar A_p weights
        probes = []
        for N in (256, 512):
            g = Grid(1, 1.0, N)
            w = make_power_weight(g, [0.5, 1 / 3], rotation=lambda p: p[:, 0])
            probes.append(scalar_weight_probe(w, 2.0, CubeFamily.default(g)))
        for key in ("matrix_ap", "op_norm_ap", "min_eig_ap"):
            assert np.isfinite(probes[0][key])
            drift = abs(probes[1][key] - probes[0][key]) / probes[0][key]
            assert drift < 0.10
