"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance and runtime budget is asserted.
"""

import time

import numpy as np
import pytest

from mwlp.compactness import (
    build_net_average,
    build_net_dyadic,
    certify_net,
    necessity_check,
    tail_modulus,
    translation_modulus,
)
from mwlp.families import bump_combinations, gaussian_bumps
from mwlp.grids import Grid
from mwlp.matrix_core import mat_power, op_norm
from mwlp.operators import averaging_bound, symdiff_measure
from mwlp.spaces import (
    ExponentField,
    NormFamily,
    SampledVectorField,
    Space,
    john_ellipsoid,
    luxemburg_norm,
    modular,
)
from mwlp.weight_fields import (
    CubeFamily,
    MatrixWeightField,
    MeasureDensity,
    ap_constant,
    make_power_weight,
)

from conftest import random_psd
import reference_scalar as ref

SEED = 20260810


def report(num, label, elapsed, detail=""):
    print(f"ACCEPTANCE {num}: PASS ({elapsed:.1f}s) {label} {detail}".rstrip())


@pytest.fixture(scope="module")
def bump_setup():
    """The 40-member Gaussian-bump family with the rotated power weight."""
    grid = Grid(1, 8.0, 4096)
    rng = np.random.default_rng(SEED)
    family = gaussian_bumps(grid, 2, 40, rng, center_range=(-1.0, 1.0),
                            width_range=(0.5, 1.0), amplitude_range=(0.3, 1.0))
    weight = make_power_weight(grid, [0.5, 1.0 / 3.0],
                               rotation=lambda p: p[:, 0])
    return grid, family, weight


def test_criterion_1_spectral_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for k in range(500):
        d = 1 + k % 6
        a = random_psd(rng, d, definite=True)
        lam = np.linalg.eigvalsh(a)
        for s in (1.0 / 3.0, 0.5, 1.0, 2.0):
            up = op_norm(mat_power(a, s))
            worst = max(worst, abs(up - lam[-1] ** s) / max(lam[-1] ** s, 1.0))
            down = 1.0 / op_norm(mat_power(a, -s))
            worst = max(worst, abs(down - lam[0] ** s) / max(lam[0] ** s, 1.0))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 5.0
    report(1, "spectral norm identities over 500 PSD/PD matrices", elapsed,
           f"worst residual {worst:.2e}")


def test_criterion_2_john_sandwich():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)

    def lq(q):
        if np.isinf(q):
            return lambda v: np.max(np.abs(v), axis=1)
        return lambda v: np.sum(np.abs(v) ** q, axis=1) ** (1.0 / q)

    worst_left, worst_right = np.inf, 0.0
    for trial in range(50):
        d = 2 if trial % 2 == 0 else 3
        kind = trial % 5
        if kind < 4:
            rho = lq((1.0, 1.5, 3.0, np.inf)[kind])
        else:
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            a += 0.3 * np.eye(d)
            rho = lambda v, a=a: np.linalg.norm(v @ a.T, axis=1)
        w = john_ellipsoid(rho, d, rng=rng)
        vt = rng.standard_normal((1000, d)) + 1j * rng.standard_normal((1000, d))
        rv = rho(vt)
        wv = np.linalg.norm(vt @ w.T, axis=1)
        worst_left = min(worst_left, float(np.min(wv / rv)))
        worst_right = max(worst_right, float(np.max(wv / (np.sqrt(d) * rv))))
    elapsed = time.perf_counter() - t0
    assert worst_left >= 1.0 - 1e-9, "left sandwich inequality violated"
    assert worst_right <= 1.05, "right sandwich inequality beyond the 5% budget"
    assert elapsed < 30.0
    report(2, "norm-ellipsoid sandwich on 50 random norms", elapsed,
           f"left>= {worst_left:.4f}, right<= sqrt(d)*{worst_right:.4f}")


def test_criterion_3_modular_norm_comparisons():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    tol = 2e-8
    for k in range(100):
        grid = Grid(1, 1.0, 64)
        d = 1 + k % 3
        vals = np.stack([random_psd(rng, d, definite=True) for _ in range(64)])
        w = MatrixWeightField(grid, vals)
        pf = ExponentField(grid, 1.0 + 3.0 * rng.random(64))
        rho = NormFamily.from_matrix_weight(w, 2.0)
        f = SampledVectorField(
            grid, (0.2 + 3.0 * rng.random()) * (
                rng.standard_normal((64, d)) + 1j * rng.standard_normal((64, d))))
        mod = modular(f, rho, pf)
        nrm = luxemburg_norm(f, rho, pf)
        if nrm <= 1.0:
            assert mod <= nrm + tol                      # clause (a)
        else:
            assert mod >= nrm - tol                      # clause (b)
        assert nrm <= mod + 1.0 + tol                    # clause (c)
        lam = 1.0 if k % 5 == 0 else float(rng.uniform(0.05, 1.0))
        target = lam ** pf.p_plus
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if modular(f.scaled(mid), rho, pf) <= target:
                lo = mid
            else:
                hi = mid
        g = f.scaled(lo)
        assert modular(g, rho, pf) <= target
        assert luxemburg_norm(g, rho, pf) <= lam + tol   # clause (d)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(3, "modular/norm comparison clauses on 100 instances", elapsed,
           "boundary lambda=1 included")


def test_criterion_4_sufficiency_dyadic_nets(bump_setup):
    t0 = time.perf_counter()
    grid, family, weight = bump_setup
    space = Space.matrix_weight(weight, 2.0)
    details = []
    for eps in (0.1, 0.05):
        net = build_net_dyadic(family, eps, space)
        cert = certify_net(family, net.centers, net.c_net * eps, space)
        assert cert.passed
        assert net.size <= 40
        details.append(f"eps={eps}: K={net.size}, C_net={net.c_net:.3f}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(4, "dyadic-averaging nets for the 40-bump family", elapsed,
           "; ".join(details))


def test_criterion_5_averaging_nets(bump_setup):
    t0 = time.perf_counter()
    grid, family, weight = bump_setup
    eps = 0.1
    details = []
    for mu in (None, MeasureDensity(grid, 1.0 + grid.points[:, 0] ** 2 / 2)):
        net = build_net_average(family, eps, Space.matrix_weight(weight, 2.0, mu))
        budgets = net.params["budgets"]
        # the proof's budget split is recorded and honored
        assert budgets["tail"] == eps / 3
        assert budgets["averaging"] == eps / 3
        assert budgets["uniform_radius"] == eps / net.params["A"]
        assert net.params["tail_value"] < eps / 3
        assert net.params["averaging_value"] < eps / 3
        assert net.params["worst_uniform_distance"] <= budgets["uniform_radius"]
        space = Space.matrix_weight(weight, 2.0, mu)
        cert = certify_net(family, net.centers, net.c_net * eps, space)
        assert cert.passed
        assert cert.worst_distance <= eps
        label = "lebesgue" if mu is None else "u=1+x^2/2"
        details.append(f"{label}: K={net.size}, worst={cert.worst_distance:.4f}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(5, "ball-averaging nets with the eps/3 budget split", elapsed,
           "; ".join(details))


def test_criterion_6_necessity(bump_setup):
    t0 = time.perf_counter()
    grid, family, weight = bump_setup
    rep = necessity_check(family, [0.2, 0.1, 0.05], Space.matrix_weight(weight, 2.0))
    assert rep.passed
    for row in rep.rows:
        assert row.tail_value <= row.tail_bound
        assert row.averaging_value <= row.averaging_bound
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(6, "necessity direction at eps in {0.2, 0.1, 0.05}", elapsed,
           "; ".join(f"eps={r.epsilon}: R={r.R}, r={r.r}" for r in rep.rows))


def test_criterion_7_averaging_operator_stability():
    t0 = time.perf_counter()
    values = []
    for n_pts in (2048, 4096):
        grid = Grid(1, 2.0, n_pts)
        weight = make_power_weight(grid, [0.5, 1.0 / 3.0],
                                   rotation=lambda p: p[:, 0])
        fields = list(bump_combinations(grid, 2, 50, np.random.default_rng(SEED)))
        radii = [grid.L / 2 ** k for k in range(2, 8)]
        values.append(averaging_bound(fields, weight, 2.0, radii))
    change = abs(values[1] - values[0]) / values[0]
    elapsed = time.perf_counter() - t0
    assert np.isfinite(values[0]) and np.isfinite(values[1])
    assert change < 0.10
    report(7, "averaging operator bound stable under refinement", elapsed,
           f"bounds {values[0]:.6f} -> {values[1]:.6f} ({100 * change:.4f}%)")


def test_criterion_8_scalar_reduction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    n_pts, half = 256, 2.0
    for case in range(20):
        grid = Grid(1, half, n_pts)
        x = grid.points[:, 0]
        wexp = np.zeros(n_pts)
        for _ in range(3):
            c = rng.uniform(-1.0, 1.0)
            s = rng.uniform(0.3, 0.8)
            wexp += rng.uniform(-1.0, 1.0) * np.exp(-(x - c) ** 2 / (2 * s ** 2))
        wv = np.exp(wexp)
        weight = MatrixWeightField(grid, wv.reshape(-1, 1, 1).astype(complex))
        space = Space.matrix_weight(weight, 2.0)
        family = gaussian_bumps(grid, 1, 6, rng, center_range=(-0.5, 0.5),
                                width_range=(0.25, 0.5))
        fs = [f.values[:, 0] for f in family]

        # norms
        for f, fv in zip(family, fs):
            mine = space.norm(f)
            oracle = ref.norm_lp(wv, fv, 2.0, half, n_pts)
            assert mine == pytest.approx(oracle, rel=1e-10)

        # A_p constants over the default interval family
        mine_ap = ap_constant(weight, 2.0, CubeFamily.default(grid))
        oracle_ap = ref.ap_over_intervals(wv, 2.0, ref.default_intervals(n_pts))
        assert mine_ap == pytest.approx(oracle_ap, rel=1e-10)

        # moduli
        R = half / 4
        assert tail_modulus(family, R, space) == pytest.approx(
            max(ref.tail(wv, fv, 2.0, R, half, n_pts) for fv in fs), rel=1e-10)
        r = 4 * grid.h
        assert translation_modulus(family, r, space) == pytest.approx(
            ref.translation_modulus(wv, fs, 2.0, r, half, n_pts), rel=1e-10)

        # net constant and certificate distances
        eps = 0.25
        net = build_net_dyadic(family, eps, space)
        m, t = net.params["m"], net.params["t"]
        oracle_d, oracle_k = ref.greedy_net_distances(wv, fs, 2.0, eps, half, n_pts, m, t)
        assert net.size == oracle_k
        assert net.c_net * eps == pytest.approx(max(oracle_d), rel=1e-10)
        centers = [ref.dyadic_project(fs[k], half, n_pts, m, t)
                   for k in net.params["center_members"]]
        for mine_d, fv in zip(net.certificate.per_member_distance, fs):
            od = min(ref.norm_lp(wv, fv - c, 2.0, half, n_pts) for c in centers)
            assert mine_d == pytest.approx(od, rel=1e-10, abs=1e-12)
    elapsed = time.perf_counter() - t0
    report(8, "d=1 matrix path matches the scalar reference", elapsed,
           "20 cases: norms, A_p, moduli, net distances")


def test_criterion_9_metrical_continuity_probe():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    grid = Grid(1, 1.0, 512)
    mu = MeasureDensity.lebesgue(grid)
    h = grid.h
    cell = h  # one cell volume in one dimension
    for _ in range(100):
        r = rng.uniform(4 * h, 0.3)
        max_center = grid.L - r - 2 * h
        xi = rng.integers(0, 512)
        while abs(grid.points[xi, 0]) > max_center:
            xi = rng.integers(0, 512)
        shift = rng.integers(1, max(2, int(2 * r / h) - 1))
        yi = xi + shift if grid.points[xi, 0] < 0 else xi - shift
        x, y = grid.points[xi], grid.points[yi]
        if abs(x[0] - y[0]) >= 2 * r or abs(y[0]) > max_center:
            continue
        val = symdiff_measure(x, y, r, mu)
        assert abs(val - 2 * abs(x[0] - y[0])) <= cell + 1e-12
    elapsed = time.perf_counter() - t0
    report(9, "symmetric-difference measure = 2|x-y| within one cell", elapsed)


def test_criterion_10_ap_behavior_split():
    t0 = time.perf_counter()
    # stable branch: |x|^{1/2} I under grid refinement
    stable = []
    for n_pts in (2 ** 12, 2 ** 13, 2 ** 14):
        grid = Grid(1, 1.0, n_pts)
        w = make_power_weight(grid, [0.5])
        stable.append(ap_constant(w, 2.0, CubeFamily.default(grid)))
    changes = [abs(stable[i + 1] - stable[i]) / stable[i] for i in range(2)]
    assert all(c < 0.05 for c in changes)

    # divergent branch: |x|^3 I as origin-anchored dyadic scales are added
    grid = Grid(1, 1.0, 2 ** 13)
    w3 = make_power_weight(grid, [3.0])
    grown = []
    for added in range(5):
        corners, sides = [], []
        for gen in range(8 - added, 14):
            s = 2.0 * grid.L / 2 ** gen
            corners += [[0.0], [-s]]
            sides += [s, s]
        fam = CubeFamily(np.array(corners), np.array(sides),
                         f"origin-anchored generations {8 - added}..13")
        grown.append(ap_constant(w3, 2.0, fam))
    assert all(grown[i + 1] >= grown[i] for i in range(4))
    assert grown[-1] / grown[0] >= 10.0
    elapsed = time.perf_counter() - t0
    report(10, "A_p split: |x|^0.5 stable, |x|^3 divergent", elapsed,
           f"changes {[f'{100 * c:.2f}%' for c in changes]}, growth x{grown[-1] / grown[0]:.0f}")
