"""The rounding model `spaces.rounding_error` against measured rounding.

delta must bound the relative error of one norm evaluation, measured against
a 50-digit decimal evaluation of the same stored weight entries, on weights
whose condition numbers reach 1e6 and on values near their null directions,
where the cancellation in W^{1/p} v is worst.  In the spaces the default
scenarios build it must lie below the relative slack of `spaces.within`.
"""

import json
from decimal import Decimal, localcontext

import numpy as np
import pytest

from mwlp import cli
from mwlp.compactness import FunctionFamily, certify_net
from mwlp.grids import Grid
from mwlp.spaces import (
    ExponentField,
    NormFamily,
    SampledVectorField,
    Space,
    rounding_error,
)
from mwlp.weight_fields import MatrixWeightField, MeasureDensity


def ill_conditioned(rng, grid, d):
    """A weight with eigenvalues spread over [1e-6, 1] at every point, and
    values close to the eigenvector of its smallest eigenvalue."""
    m = grid.num_points
    q, _ = np.linalg.qr(rng.standard_normal((m, d, d)) + 1j * rng.standard_normal((m, d, d)))
    lam = np.sort(10.0 ** rng.uniform(-6.0, 0.0, (m, d)), axis=1)
    w = MatrixWeightField(grid, np.einsum("mik,mk,mjk->mij", q, lam, q.conj()))
    values = q[:, :, 0] + 1e-4 * (rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d)))
    return w, values


def exact_point_norms(rho: NormFamily, values: np.ndarray) -> list:
    """|W^{1/p}(x) v(x)| from the family's stored entries, as 50-digit decimals."""
    w = rho._cols.sum(axis=2)  # each entry's parts, Re and i Im, add exactly
    d, m = w.shape[0], w.shape[-1]
    out = []
    for k in range(m):
        sq = Decimal(0)
        for i in range(d):
            re = im = Decimal(0)
            for j in range(d):
                a, b = complex(w[i, j, k]), complex(values[k, j])
                re += Decimal(a.real) * Decimal(b.real) - Decimal(a.imag) * Decimal(b.imag)
                im += Decimal(a.real) * Decimal(b.imag) + Decimal(a.imag) * Decimal(b.real)
            sq += re * re + im * im
        out.append(sq.sqrt())
    return out


def exact_norm(space: Space, values: np.ndarray) -> Decimal:
    """space.norm_values(values) in 50-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        r = exact_point_norms(space.rho, values)
        cell = Decimal(space.grid.h) ** space.grid.n
        if space.is_variable:
            ps = [Decimal(p) for p in space.exponent.values]
            lo, hi = Decimal(0), max(r) * 1000 + 1
            for _ in range(120):  # the root of the modular of f / lam minus 1
                mid = (lo + hi) / 2
                if sum((x / mid) ** p for x, p in zip(r, ps)) * cell <= 1:
                    hi = mid
                else:
                    lo = mid
            return hi
        p = Decimal(space.p)
        mu = [1] * len(r) if space.mu is None else [Decimal(x) for x in space.mu.values]
        return (sum(x ** p * y for x, y in zip(r, mu)) * cell) ** (1 / p)


CASES = [(d, p, density) for d in (1, 2, 3) for p in (0.5, 1.0, 2.0, 3.0)
         for density in (False, True)] + [(d, "variable", False) for d in (1, 2, 3)]


@pytest.mark.parametrize("d, p, density", CASES,
                         ids=[f"d{d}-p{p}{'-mu' if m else ''}" for d, p, m in CASES])
def test_delta_bounds_the_measured_error(d, p, density):
    grid = Grid(1, 2.0, 64)
    rng = np.random.default_rng(d * 100 + (7 if p == "variable" else int(4 * p)) + density)
    w, values = ill_conditioned(rng, grid, d)
    if p == "variable":
        pf = ExponentField(grid, 1.0 + 2.0 * rng.random(grid.num_points))
        space = Space.variable(NormFamily.from_matrix_weight(w, pf.p_plus), pf)
    else:
        mu = MeasureDensity(grid, rng.uniform(0.1, 3.0, grid.num_points)) if density else None
        space = Space.matrix_weight(w, p, mu)
    delta = rounding_error(space)
    assert np.isfinite(delta)
    exact = exact_norm(space, values)
    err = abs(Decimal(space.norm_values(values)) - exact) / exact
    assert float(err) <= delta


def test_singular_weight_screens_nothing(rng):
    """delta is inf on a weight with a zero eigenvalue, so the certificate's
    screen rules no center out and measures every member-center pair."""
    grid = Grid(1, 2.0, 64)
    lam = np.ones((grid.num_points, 2))
    lam[0, 0] = 0.0
    space = Space.matrix_weight(MatrixWeightField.diagonal(grid, lam), 2.0)
    assert space.rho.condition == np.inf and rounding_error(space) == np.inf
    fields = [SampledVectorField(grid, s * rng.standard_normal((grid.num_points, 2)))
              for s in (1.0, 10.0, 100.0)]
    calls = []
    dist = Space.dist
    space.dist = lambda f, g: calls.append(1) or dist(space, f, g)
    certify_net(FunctionFamily(fields), fields, 1.0, space)
    assert len(calls) == len(fields) ** 2


def test_delta_within_the_verdict_slack_in_default_scenarios(tmp_path, monkeypatch):
    spaces = []
    setup = cli._setup

    def recorded(*args, **kwargs):
        space, family = setup(*args, **kwargs)
        spaces.append(space)
        return space, family

    monkeypatch.setattr(cli, "_setup", recorded)

    def run(*argv):
        out = tmp_path / "report.json"
        assert cli.main([*argv, "--out", str(out)]) == 0
        return json.loads(out.read_text())["outputs"]

    net = run("net", "--save-centers", str(tmp_path / "centers"))
    run("net", "--route", "average")
    run("necessity")
    run("certify", "--centers", *net["center_files"], "--c-net", repr(net["c_net"]))
    assert len(spaces) == 4
    for space in spaces:
        assert rounding_error(space) <= 1e-9
