"""Randomized verification suites for the core identities and estimates.

Each suite draws instances from one seeded generator, measures worst-case
residuals, and reports pass/fail; failures are report content, not
exceptions.  Instance counts scale with the requested count; count zero
yields an empty passing report.
"""

from __future__ import annotations

import numpy as np

from . import matrix_core as mc
from .errors import MwlpError
from .grids import Grid
from .operators import (
    cg_domination_constant,
    christ_goldberg_maximal,
    differentiation_errors,
)
from .spaces import (
    ExponentField,
    NormFamily,
    SampledVectorField,
    Space,
    john_ellipsoid,
    john_sandwich,
    lq_norm,
    luxemburg_norm,
    modular,
)
from .weight_fields import (
    CubeFamily,
    MatrixWeightField,
    MeasureDensity,
    make_power_weight,
    scalar_weight_probe,
)
from .families import bump_combinations


def _random_psd(rng, d, definite=False):
    b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    a = b @ b.conj().T
    if definite:
        a = a + 0.05 * np.trace(a).real / d * np.eye(d)
    return a


def suite_spectral_identities(rng, count: int) -> dict:
    """|W^s|_op = (max eig)^s and |W^{-s}|_op^{-1} = (min eig)^s."""
    worst = 0.0
    exponents = (1.0 / 3.0, 0.5, 1.0, 2.0)
    for k in range(count):
        d = 1 + k % 6
        a = _random_psd(rng, d, definite=True)
        lam = np.linalg.eigvalsh(a)
        for s in exponents:
            up = mc.op_norm(mc.mat_power(a, s))
            target = lam[-1] ** s
            worst = max(worst, abs(up - target) / max(target, 1.0))
            down = 1.0 / mc.op_norm(mc.mat_power(a, -s))
            target = lam[0] ** s
            worst = max(worst, abs(down - target) / max(target, 1.0))
    return {"name": "spectral_identities", "instances": count,
            "worst_residual": worst, "passed": bool(worst <= 1e-10)}


def suite_john_sandwich(rng, count: int) -> dict:
    """rho(v) <= |W v| <= sqrt(d) * 1.05 * rho(v) on fresh test vectors."""
    worst_left = 1.0
    worst_right = 0.0
    passed = True
    for k in range(count):
        d = 2 + k % 2
        kind = k % 5
        if kind < 4:
            rho = lq_norm((1.0, 1.5, 3.0, np.inf)[kind])
        else:
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            a += 0.3 * np.eye(d)
            rho = lambda v, a=a: np.linalg.norm(v @ a.T, axis=1)
        w = john_ellipsoid(rho, d, rng=rng)
        left, right, holds = john_sandwich(rho, d, w, 1000, rng)
        worst_left = min(worst_left, left)
        worst_right = max(worst_right, right)
        passed = passed and holds
    return {"name": "john_sandwich", "instances": count,
            "worst_left_ratio": worst_left, "worst_right_ratio": worst_right,
            "passed": bool(passed)}


def _random_modular_instance(rng):
    n_pts = 64
    grid = Grid(1, 1.0, n_pts)
    d = 1 + int(rng.integers(0, 3))
    vals = np.zeros((n_pts, d, d), dtype=np.complex128)
    for i in range(n_pts):
        vals[i] = _random_psd(rng, d, definite=True)
    w = MatrixWeightField(grid, vals, invertible=True)
    p_vals = 1.0 + 3.0 * rng.random(n_pts)
    pf = ExponentField(grid, p_vals)
    rho = NormFamily.from_matrix_weight(w, float(np.mean(p_vals)))
    f = SampledVectorField(grid, rng.standard_normal((n_pts, d))
                           + 1j * rng.standard_normal((n_pts, d)))
    return grid, rho, pf, f


def suite_luxemburg(rng, count: int) -> dict:
    """The four modular/norm comparison clauses plus the boundary case."""
    worst = 0.0
    tol = 2e-8
    for k in range(count):
        _grid, rho, pf, f = _random_modular_instance(rng)
        scale = 0.2 + 3.0 * rng.random()
        f = f.scaled(scale)
        mod = modular(f, rho, pf)
        nrm = luxemburg_norm(f, rho, pf)
        if nrm <= 1.0:
            worst = max(worst, mod - nrm)
        else:
            worst = max(worst, nrm - mod)
        worst = max(worst, nrm - mod - 1.0)
        lam = 1.0 if k % 5 == 0 else float(rng.uniform(0.05, 1.0))
        target = lam ** pf.p_plus
        # the bisection measures mid * f directly in the instance's space
        space = Space.variable(rho, pf)
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if space.size_values(mid * f.values) <= target:
                lo = mid
            else:
                hi = mid
        g = f.scaled(lo)
        if modular(g, rho, pf) <= target:
            worst = max(worst, luxemburg_norm(g, rho, pf) - lam)
    return {"name": "luxemburg_lemma", "instances": count,
            "worst_violation": worst, "tolerance": tol,
            "passed": bool(worst <= tol)}


def suite_scalar_weights(rng, count: int) -> dict:
    """Instance check that the operator-norm envelopes of a matrix A_p
    weight are scalar A_p weights (finite, refinement-stable estimates)."""
    del rng
    results = []
    ok = True
    for n_pts in (512, 1024):
        grid = Grid(1, 1.0, n_pts)
        w = make_power_weight(grid, [0.5, 1.0 / 3.0],
                              rotation=lambda p: p[:, 0], invertible=True)
        probe = scalar_weight_probe(w, 2.0, CubeFamily.default(grid))
        results.append(probe)
        ok = ok and all(np.isfinite(probe[k]) for k in
                        ("matrix_ap", "op_norm_ap", "min_eig_ap"))
    drift = max(abs(results[1][k] - results[0][k]) / results[0][k]
                for k in ("matrix_ap", "op_norm_ap", "min_eig_ap"))
    return {"name": "scalar_weight_envelopes", "instances": 2 if count else 0,
            "estimates": results[-1] if count else None,
            "refinement_drift": drift, "passed": bool(ok and drift < 0.10)}


def suite_averaging_bound(rng, count: int) -> dict:
    """S_r is bounded on L^p(W) for an A_p sample weight; the measured
    ratio must be refinement-stable."""
    from .operators import averaging_bound

    # the same functional parameters are sampled once and evaluated on both
    # grids, so the two measured bounds are comparable
    member_seed = int(rng.integers(2 ** 32))
    values = []
    for n_pts in (512, 1024):
        grid = Grid(1, 2.0, n_pts)
        w = make_power_weight(grid, [0.5, 1.0 / 3.0],
                              rotation=lambda p: p[:, 0], invertible=True)
        fam = bump_combinations(grid, 2, max(count, 4),
                                np.random.default_rng(member_seed))
        radii = [grid.L / 8, grid.L / 16]
        values.append(averaging_bound(list(fam), w, 2.0, radii))
    drift = abs(values[1] - values[0]) / values[0]
    return {"name": "averaging_operator_bound", "instances": max(count, 4),
            "bounds": values, "refinement_drift": drift,
            "passed": bool(np.isfinite(values[-1]) and drift < 0.10)}


def suite_differentiation(rng, count: int) -> dict:
    """sup |S_r f - f| on interior points decreases as r shrinks."""
    del rng
    grid = Grid(1, 1.0, 512)
    pts = grid.points[:, 0]
    f = SampledVectorField(grid, np.exp(-8.0 * pts ** 2).astype(complex))
    mu = MeasureDensity.lebesgue(grid)
    radii = [grid.L / 2, grid.L / 4, grid.L / 8, grid.L / 16, 8 * grid.h, 4 * grid.h]
    curve = differentiation_errors(f, mu, radii)
    vals = [v for _r, v in curve]
    monotone = all(vals[i + 1] <= vals[i] + 1e-12 for i in range(len(vals) - 1))
    return {"name": "lebesgue_differentiation", "instances": 1 if count else 0,
            "curve": curve, "passed": bool(monotone)}


def suite_maximal_bound(rng, count: int) -> dict:
    """Empirical L^q bound of the maximal operator near p (no theoretical
    value asserted; ratios are recorded and must be finite)."""
    grid = Grid(1, 1.0, 128)
    w = make_power_weight(grid, [0.5, -0.25], rotation=lambda p: p[:, 0],
                          invertible=True)
    p = 2.0
    ratios = {}
    fam = bump_combinations(grid, 2, max(min(count, 8), 2), rng)
    pairs = [(christ_goldberg_maximal(f, w, p).values, np.linalg.norm(f.values, axis=1))
             for f in fam]
    for q in (p - 0.25, p, p + 0.25):
        worst = 0.0
        for mf, fv in pairs:
            num = grid.quadrature(mf ** q) ** (1 / q)
            den = grid.quadrature(fv ** q) ** (1 / q)
            if den > 0:
                worst = max(worst, num / den)
        ratios[f"q={q}"] = worst
    finite = all(np.isfinite(v) for v in ratios.values())
    return {"name": "maximal_operator_bound", "instances": len(fam) * 3,
            "measured_ratios": ratios, "passed": bool(finite)}


def suite_ball_domination(rng, count: int) -> dict:
    """|W^{1/p}(x) S_r f(x)| <= C * M_w(W^{1/p} f)(x) with C <= 1."""
    grid = Grid(1, 1.0, 128)
    w = make_power_weight(grid, [0.5, -0.25], rotation=lambda p: p[:, 0],
                          invertible=True)
    worst = 0.0
    fam = bump_combinations(grid, 2, max(min(count, 4), 1), rng)
    for f in fam:
        worst = max(worst, cg_domination_constant(f, w, 2.0))
    return {"name": "ball_average_domination", "instances": len(fam),
            "measured_constant": worst, "passed": bool(worst <= 1.0 + 1e-12)}


SUITES = (
    suite_spectral_identities,
    suite_john_sandwich,
    suite_luxemburg,
    suite_scalar_weights,
    suite_averaging_bound,
    suite_differentiation,
    suite_maximal_bound,
    suite_ball_domination,
)


def verify_lemmas(seed: int, count: int, weight_file: str | None = None) -> dict:
    """Run the randomized suites and aggregate pass/fail with residuals."""
    suites = []
    if count > 0:
        rng = np.random.default_rng(seed)
        for fn in SUITES:
            suites.append(fn(rng, count))
    file_check = None
    if weight_file is not None:
        from . import fieldio

        try:
            field = fieldio.load_field(weight_file, MatrixWeightField)
            file_check = {"path": str(weight_file), "loaded": True,
                          "kind": type(field).__name__, "error": None}
        except MwlpError as exc:  # load_field's message names the file
            file_check = {"path": str(weight_file), "loaded": False,
                          "kind": None, "error": f"{type(exc).__name__}: {exc}"}
    passed = all(s["passed"] for s in suites)
    return {"count": count, "suites": suites, "weight_file_check": file_check,
            "passed": bool(passed)}
