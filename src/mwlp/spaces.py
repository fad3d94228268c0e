"""Norms and modulars on sampled vector fields.

Covers the constant-exponent matrix-weighted norm, the norm families
rho_x(v) = |W^{1/p}(x) v| of a matrix weight, variable-exponent modulars
with the Luxemburg norm and ellipsoidal fitting of a single norm.
All integrals are midpoint-rule quadratures on the field's grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matrix_core as mc
from .errors import DegenerateNorm, NonFinite, OutOfRange, ShapeMismatch
from .grids import Grid
from .weight_fields import MatrixWeightField, MeasureDensity

#: Luxemburg bisection: relative tolerance of the bracket
LUX_TOL = 1e-8

#: ellipsoid fit: duality gap, iteration cap, sphere samples per dimension
MVEE_GAP = 1e-7
MVEE_MAX_ITER = 10_000
JOHN_SAMPLES_PER_DIM = 200
#: fresh unit-sphere directions on which the fitted W is calibrated
JOHN_CALIBRATION_SAMPLES = 2000
#: probe-and-refit rounds of the ellipsoid fit
JOHN_REFINEMENT_ROUNDS = 3
#: margin applied to the calibrated rescaling so the lower sandwich bound
#: survives fresh test directions between calibration samples
JOHN_SCALE_MARGIN = 1.01


def within(value: float, bound: float) -> bool:
    """The verdict rule of every measured value against its bound: the value
    may exceed the bound by a relative 1e-9 and an absolute 1e-15, above the
    rounding of one evaluation (`rounding_error`) in the default scenarios."""
    return value <= bound * (1 + 1e-9) + 1e-15


def rounding_error(space: "Space", fft_length: int = 0) -> float:
    """delta, the relative forward error bound of one `Space.norm_values` or
    `Space.dist` evaluation: the rounding model every margin reads.  First
    order in u = eps / 2, gamma_k ~ k u (N. J. Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., 2002):
      * y = W^{1/p}(x) v (`_column_norms`) sums 2d real products per part:
        |fl(y) - y| <= sqrt(2) gamma_{2d} |W^{1/p}||v| (sec. 3.5), at most
        sqrt(2d) gamma_{2d} kappa |y|, kappa = `NormFamily.condition` (inf
        for a singular weight); |y| from the squares adds gamma_{2d+1};
      * the p-th power, density and cell volume add u each, and numpy's
        pairwise `np.sum` (sec. 4.2; 8-way blocks of up to 128 entries)
        gamma_{ceil(log2 M) + 25}; the p-th root divides these by p, adds u;
      * a Luxemburg norm: LUX_TOL, plus the modular's error over p_-.
    A p < 1 distance, the norm to the p, errs by p delta + u.  Per-point
    norms below about 1e-154 lose digits (their squares are subnormal), and
    overflow raises NonFinite.  Given `fft_length`, the coefficient 8 K T
    of `compactness._l2_screen`'s margin instead: K = l eta / (1 - l eta),
    l = log2(fft_length), eta = u + gamma_4 (sqrt(2) + u), twiddles exact to u.
    """
    u, d = np.finfo(float).eps / 2, space.d
    if fft_length:
        l_eta = np.log2(fft_length) * (1 + 4 * np.sqrt(2)) * u
        return 8 * l_eta / (1 - l_eta) * (d * (d + 1) // 2 + d)
    point = (np.sqrt(2 * d) * 2 * d * space.rho.condition + 2 * d + 1) * u
    quad = (np.ceil(np.log2(space.grid.num_points)) + 28) * u
    if space.is_variable:
        return LUX_TOL + (space.exponent.p_plus * (point + u) + quad) / space.exponent.p_minus + u
    return point + quad / space.p + u


def lq_norm(q: float):
    """The l^q norm, q >= 1 or inf, of each row of a (K, d) batch, as a callable."""
    if np.isinf(q):
        return lambda v: np.max(np.abs(v), axis=1)
    return lambda v: np.sum(np.abs(v) ** q, axis=1) ** (1 / q)


@dataclass
class SampledVectorField:
    """C^d-valued samples at the cell centers of a grid, shape (M, d)."""

    grid: Grid
    values: np.ndarray
    SAMPLE = (np.complex128, 2)  # the samples' dtype and axes, for checks and field files

    def __post_init__(self):
        v = self.values
        if np.ndim(v) == 1:  # one sample per point: a field with d = 1
            v = np.reshape(v, (-1, 1))
        self.values = self.grid.samples(v, *self.SAMPLE, "vector field")

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def scaled(self, c: complex) -> "SampledVectorField":
        return SampledVectorField(self.grid, c * self.values)


@dataclass
class ExponentField:
    """Bounded exponent function p(x) in [1, p_+] sampled at cell centers."""

    grid: Grid
    values: np.ndarray
    SAMPLE = (np.float64, 1)

    def __post_init__(self):
        v = self.values = self.grid.samples(self.values, *self.SAMPLE, "exponent field")
        if np.any(v < 1.0):
            raise OutOfRange("exponents must satisfy p(x) >= 1")
        self.p_plus = float(np.max(v))
        self.p_minus = float(np.min(v))

    @classmethod
    def constant(cls, grid: Grid, p: float) -> "ExponentField":
        return cls(grid, np.full(grid.num_points, float(p)))


class NormFamily:
    """Family of norms rho_x(v) = |W^{1/p}(x) v| on C^d, one per grid point.

    `from_matrix_weight` derives it from a matrix weight; it holds the
    entries of W^{1/p} as the columns of `_entry_columns`, and `evaluate`
    maps an (M, d) value array to the M per-point norms by `_column_norms`.
    """

    def __init__(self, grid: Grid, d: int, cols: np.ndarray, condition: float):
        self.grid = grid
        self.d = d
        self._cols = cols
        self.condition = condition  # largest condition number of W^{1/p}(x); inf if singular

    @classmethod
    def from_matrix_weight(cls, w: MatrixWeightField, p: float) -> "NormFamily":
        lam = w.eig()[0]
        condition = np.max(lam[:, -1] / lam[:, 0]) ** (1 / p) if np.all(lam[:, 0] > 0) else np.inf
        return cls(w.grid, w.d, _entry_columns(w.power(1.0 / p)), condition)

    def evaluate(self, values: np.ndarray) -> np.ndarray:
        """Per-point norms rho_x(values[x]), shape (M,)."""
        return _column_norms(self._cols, values)


def _entry_columns(wp: np.ndarray) -> np.ndarray:
    """Entries w_ij of an (M, d, d) stack as contiguous (M,) columns cols[i, j, k].

    Part k = 0 is Re w_ij; part k = 1, kept only when the stack has a nonzero
    imaginary part, is i Im w_ij; both are complex.  A product with either
    part rounds each real product on its own, so Re w_ij v + i Im w_ij v is
    w_ij v as einsum forms it (a_re b_re - a_im b_im, a_re b_im + a_im b_re).
    A complex multiply by w_ij itself may fuse a product into the sum and
    round differently.
    """
    cols = wp.transpose(1, 2, 0)
    parts = [cols.real.astype(np.complex128)]
    if np.any(cols.imag):
        parts.append(1j * cols.imag)
    out = np.ascontiguousarray(np.stack(parts, axis=2))
    out.setflags(write=False)
    return out


def _column_norms(cols: np.ndarray, values: np.ndarray) -> np.ndarray:
    """|w(x) v| for the columns of `_entry_columns` and values (..., d) that
    broadcast against them.

    y_i = w_i0 v_0 + w_i1 v_1 + ... in j order, then sqrt of the sum over i,
    in i order, of (conj(y_i) y_i).real: the operations and order of
    np.linalg.norm(np.einsum("mij,...mj->...mi", w, v), axis=-1), as d^2
    multiply-adds over the broadcast columns.
    """
    # values[..., j] are views; np.moveaxis would cost more than a short column
    components = [values[..., j] for j in range(values.shape[-1])]
    total = None
    for row in cols:
        y = None
        for parts, vj in zip(row, components):
            term = parts[0] * vj
            for part in parts[1:]:
                term += part * vj
            if y is None:
                y = term
            else:
                y += term
        # out of place, as np.linalg.norm forms it: an in-place multiply of
        # length 1 takes another ufunc loop, which can round differently
        sq = (y.conj() * y).real
        if total is None:
            total = sq
        else:
            total += sq
    return np.sqrt(total)


# ---------------------------------------------------------------------------
# norms and modulars


def lp_w_norm(f: SampledVectorField, w: MatrixWeightField, p: float,
              mu: MeasureDensity | None = None) -> float:
    """|| f ||_{L^p(W)} = ( integral |W^{1/p}(x) f(x)|^p dmu )^{1/p}, mu defaulting
    to Lebesgue measure: the norm of Space.matrix_weight(w, p, mu) for every d."""
    return Space.matrix_weight(w, p, mu).norm(f)


def lp_rho_norm(f: SampledVectorField, rho: NormFamily, p: float,
                mu: MeasureDensity | None = None) -> float:
    """|| f ||_{L^p(rho, mu)}, mu defaulting to Lebesgue measure: Space.norm_family's norm."""
    return Space.norm_family(rho, p, mu).norm(f)


def modular(f: SampledVectorField, rho: NormFamily, pf: ExponentField) -> float:
    """Variable-exponent modular integral of rho_x(f(x))^{p(x)} dx: Space.variable's size."""
    return Space.variable(rho, pf).size(f)


def luxemburg_norm(f: SampledVectorField, rho: NormFamily, pf: ExponentField) -> float:
    """Luxemburg norm inf { lam > 0 : modular(f / lam) <= 1 }: Space.variable's norm."""
    return Space.variable(rho, pf).norm(f)


def _exponent_modular(r: np.ndarray, pf: ExponentField, grid: Grid) -> float:
    """integral of r(x)^{p(x)} dx for per-point norms r (M,)."""
    return grid.quadrature(np.power(r, pf.values))


def _finite(value: float) -> float:
    if not np.isfinite(value):
        raise NonFinite(f"a measured size is {value}: the values overflow")
    return value


def _luxemburg(r: np.ndarray, pf: ExponentField, grid: Grid) -> float:
    """inf { lam > 0 : integral of (r(x) / lam)^{p(x)} dx <= 1 } for per-point norms r (M,).

    The modular of f / lam decreases strictly in lam for nonzero f and lies
    between mu0 lam^{-p_-} and mu0 lam^{-p_+}, mu0 the modular of f: it is
    at least 1 at min(ends), ends = (mu0^{1/p_-}, mu0^{1/p_+}), and below 1
    at max(ends) + 1 > max(1, mu0^{1/p_-}), where it is never evaluated.
    The bisection halves that bracket until it is within LUX_TOL of its
    upper end, however many halvings that takes; NonFinite is raised if its
    midpoint stops falling strictly inside it first, as among subnormals.
    """
    mu0 = _finite(_exponent_modular(r, pf, grid))
    if mu0 == 0.0:
        return 0.0

    ends = (mu0 ** (1.0 / pf.p_minus), mu0 ** (1.0 / pf.p_plus))
    lo, hi = min(ends), max(ends) + 1.0
    while hi - lo > LUX_TOL * hi:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            raise NonFinite(f"Luxemburg bisection stalled at {hi:.3e}, "
                            f"short of the relative tolerance {LUX_TOL:g}")
        if _exponent_modular(r / mid, pf, grid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return float(0.5 * (lo + hi))


# ---------------------------------------------------------------------------
# space descriptor: one object that knows how to size and compare fields


class Space:
    """A weighted function space: evaluates norms, modulars and distances.

    Three flavors:
      * matrix_weight(W, p, mu): L^p(W, mu), constant exponent, the one
        flavor whose `weight` is W (None in the others),
      * norm_family(rho, p, mu): L^p(rho, mu), constant exponent,
      * variable(rho, pf): L^{p(.)}(rho) with the Luxemburg norm; sizes
        are modulars ("bounded in the sense of the modular").

    For p < 1 the distance is the p-th power of the quasi-norm, which is
    subadditive and safe for covering arguments.

    The field methods check each field against the space once; every size
    is then measured on value arrays by `norm_values` and `size_values`,
    which callers holding checked fields use directly.  A size that is not
    finite (finite fields can differ by an overflow) raises NonFinite.
    """

    def __init__(self, grid: Grid, d: int, rho: NormFamily, *, p: float | None = None,
                 exponent: ExponentField | None = None, mu: MeasureDensity | None = None,
                 weight: MatrixWeightField | None = None, label: str = ""):
        if (p is None) == (exponent is None):
            raise OutOfRange("exactly one of p, exponent must be given")
        if exponent is not None and mu is not None:
            raise OutOfRange("variable-exponent spaces are defined against Lebesgue measure")
        if mu is not None and mu.grid != grid:
            raise ShapeMismatch("density grid mismatch")
        if exponent is not None and exponent.grid != grid:
            raise ShapeMismatch("exponent field grid mismatch")
        self.grid = grid
        self.d = d
        self.rho = rho
        self.p = p
        self.exponent = exponent
        self.mu = mu
        self.weight = weight
        self.label = label or "space"

    @classmethod
    def matrix_weight(cls, w: MatrixWeightField, p: float,
                      mu: MeasureDensity | None = None) -> "Space":
        rho = NormFamily.from_matrix_weight(w, p)
        return cls(w.grid, w.d, rho, p=p, mu=mu, weight=w,
                   label=f"L^{p}(W{', mu' if mu else ''})")

    @classmethod
    def norm_family(cls, rho: NormFamily, p: float,
                    mu: MeasureDensity | None = None) -> "Space":
        return cls(rho.grid, rho.d, rho, p=p, mu=mu, label=f"L^{p}(rho{', mu' if mu else ''})")

    @classmethod
    def variable(cls, rho: NormFamily, exponent: ExponentField) -> "Space":
        return cls(rho.grid, rho.d, rho, exponent=exponent,
                   label=f"L^p(.)(rho), p in [{exponent.p_minus}, {exponent.p_plus}]")

    @property
    def is_variable(self) -> bool:
        return self.exponent is not None

    def check(self, f) -> None:
        """Raise ShapeMismatch unless f (a field or a family) has the space's grid and d."""
        if f.grid != self.grid or f.d != self.d:
            raise ShapeMismatch(f"a field with d={f.d} on {f.grid} is not in {self.label}, "
                                f"which has d={self.d} on {self.grid}")

    def norm_values(self, values: np.ndarray) -> float:
        return self._measure(self.point_norms(values), modular_form=False)

    def size_values(self, values: np.ndarray) -> float:
        """Boundedness functional: the modular for variable exponents, else the norm."""
        return self.size_of_norms(self.point_norms(values))

    # values that overflow turn into inf or nan, which _finite reports as one
    # NonFinite; numpy's warnings on the way would only repeat it.  (As a
    # decorator np.errstate costs less than half of a `with` block.)
    @np.errstate(over="ignore", invalid="ignore")
    def point_norms(self, values: np.ndarray) -> np.ndarray:
        """Per-point norms r(x) = rho_x(values[x]), shape (M,)."""
        return self.rho.evaluate(values)

    def size_of_norms(self, r: np.ndarray) -> float:
        """size_values measured from per-point norms r = point_norms(values).

        A size of values restricted to a set is the size of r with the cells
        outside the set zeroed: a zero value has norm +0.0 at every point, so
        both give the same array and the same bits.
        """
        return self._measure(r, modular_form=self.is_variable)

    @np.errstate(over="ignore", invalid="ignore")
    def _measure(self, r: np.ndarray, modular_form: bool) -> float:
        if modular_form:
            return _finite(_exponent_modular(r, self.exponent, self.grid))
        if self.is_variable:
            return _luxemburg(r, self.exponent, self.grid)
        dens = r ** self.p if self.mu is None else r ** self.p * self.mu.values
        return _finite(self.grid.quadrature(dens) ** (1.0 / self.p))

    def norm(self, f: SampledVectorField) -> float:
        self.check(f)
        return self.norm_values(f.values)

    def size(self, f: SampledVectorField) -> float:
        self.check(f)
        return self.size_values(f.values)

    def _metric(self, nrm: float) -> float:
        """The covering metric's value at a norm: the norm, or its p-th power for p < 1."""
        return nrm if self.is_variable or self.p >= 1.0 else nrm ** self.p

    @np.errstate(over="ignore")  # an overflowing difference is reported by _measure
    def dist(self, f: SampledVectorField, g: SampledVectorField) -> float:
        """Covering metric: norm of the difference; modular form for p < 1."""
        self.check(f)
        self.check(g)
        return self._metric(self.norm_values(f.values - g.values))

    def dist_to_zero(self, f: SampledVectorField) -> float:
        """d(f, 0) in the covering metric, or inf where the size overflows: a
        pivot for screening distances, which reports nothing itself."""
        self.check(f)
        try:
            return self._metric(self.norm_values(f.values))
        except NonFinite:
            return np.inf


# ---------------------------------------------------------------------------
# ellipsoidal fit of a single norm (John ellipsoid)


def _mvee_centered(points: np.ndarray) -> np.ndarray:
    """Minimum-volume origin-centered ellipsoid of a symmetric point cloud.

    Khachiyan-style multiplicative updates on the design weights u, with
    the away steps of Todd and Yildirim: with w_j = v_j^H M(u)^{-1} v_j and
    M(u) = sum u_j v_j v_j^H, either the point with the largest w_j gains
    weight, or, when the support point with the smallest w_j is the further
    from the optimality condition w_j = d, that point loses weight (down to
    being dropped).  Both moves take the exact line-search step
    alpha = (w/d - 1)/(w - 1), clamped to keep u >= 0; the away steps take
    weight off points that do not belong to the optimal support, which plain
    updates only shrink geometrically.  M^{-1} and w are maintained by
    rank-one Sherman-Morrison updates with periodic refreshes; points whose
    constraint is clearly slack are pruned, and containment over the full
    input cloud is enforced exactly by a final rescale (so pruning can only
    cost a sliver of optimality, never validity).
    """
    m, d = points.shape
    pts = points
    conj = points.conj()
    # start on d points spanning C^d: greedily the point farthest from the
    # span of those already chosen
    u = np.zeros(m)
    resid = points.copy()
    for _ in range(d):
        j = int(np.einsum("ij,ij->i", resid, resid.conj()).real.argmax())
        u[j] = 1.0 / d
        q = resid[j] / np.linalg.norm(resid[j])
        resid -= (resid @ q.conj())[:, None] * q[None, :]

    def refresh():
        mu_mat = (pts * u[:, None]).T @ conj
        minv = np.linalg.inv(mu_mat)
        w = np.einsum("ji,ij->j", conj, minv @ pts.T).real
        return minv, w

    minv, w = refresh()
    support = np.flatnonzero(u)
    for it in range(MVEE_MAX_ITER):
        r = int(w.argmax())
        wr = float(w[r])
        if wr <= d * (1.0 + MVEE_GAP):
            break
        s = int(support[w[support].argmin()])
        ws, us = float(w[s]), float(u[s])
        away = 1.0 - ws / d > wr / d - 1.0 and us < 1.0
        if away:
            # the largest decrease of u_s that keeps u_s >= 0 drops the point
            drop = -us / (1.0 - us)
            alpha = max((ws / d - 1.0) / (ws - 1.0), drop) if ws > 1.0 else drop
            away = 1.0 + alpha * (ws - 1.0) > 1e-8
        if away:
            r, wr = s, ws
            changed = alpha == drop
        else:
            alpha = (wr / d - 1.0) / (wr - 1.0)
            changed = u[r] == 0.0
        u *= 1.0 - alpha
        u[r] = 0.0 if away and changed else u[r] + alpha
        # Sherman-Morrison update of M^{-1} and of all w_j
        b = minv @ pts[r]
        t = conj @ b
        c = alpha / (1.0 + alpha * (wr - 1.0))
        minv = (minv - c * (b[:, None] * b.conj())) / (1.0 - alpha)
        w -= c * (t.real ** 2 + t.imag ** 2)
        w /= 1.0 - alpha
        if it % 500 == 499:
            if pts.shape[0] > 4 * d:
                keep = (u > 1e-12) | (w > 0.8 * d)
                if np.count_nonzero(keep) >= 2 * d and np.count_nonzero(~keep) > 0:
                    pts = pts[keep]
                    conj = conj[keep]
                    u = u[keep]
                    u /= np.sum(u)
            minv, w = refresh()
            changed = True
        if changed:
            support = np.flatnonzero(u)
    mu_mat = (pts * u[:, None]).T @ conj
    a = np.linalg.inv(mu_mat) / d
    a = 0.5 * (a + a.conj().T)
    # exact containment over the full cloud: scale so max_j v^H A v = 1
    vals = np.einsum("ji,ik,jk->j", points.conj(), a, points).real
    return a / float(np.max(vals))


def john_ellipsoid(rho, d: int, rng: np.random.Generator) -> np.ndarray:
    """Fit a positive-definite W with rho(v) <= |W v| <= sqrt(d)(1+delta) rho(v).

    rho maps a (K, d) batch of vectors to their K norms.  JOHN_SAMPLES_PER_DIM
    random directions per dimension are normalized onto the rho-unit sphere,
    the sample is symmetrized, and the minimum-volume centered ellipsoid of
    the cloud is computed by multiplicative updates.  Because random
    directions can miss the extremal support of spiky unit balls, the fit is
    refined: a probe batch locates the directions where the ellipsoid most
    exceeds the norm and appends them to the sample before refitting.  The
    ellipsoid form is converted to W and rescaled by a single scalar so the
    left inequality is tight on the sample and JOHN_CALIBRATION_SAMPLES fresh
    directions (a 1% margin keeps it valid on further directions).
    """
    sphere_samples = JOHN_SAMPLES_PER_DIM * d

    def unit_sphere(count: int) -> np.ndarray:
        vecs = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
        norms = rho(vecs)
        good = norms > 1e-12
        if not np.all(np.isfinite(norms)) or np.sum(good) < count // 2:
            raise DegenerateNorm("norm oracle produced non-finite or zero values")
        return vecs[good] / norms[good][:, None]

    axes = np.eye(d, dtype=np.complex128)
    axis_norms = rho(axes)
    if np.any(axis_norms <= 1e-12) or not np.all(np.isfinite(axis_norms)):
        raise DegenerateNorm("norm oracle degenerate along coordinate axes")
    sample = np.concatenate([axes / axis_norms[:, None], unit_sphere(sphere_samples)])
    # rank check on the cloud
    gram = sample.conj().T @ sample
    lam = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
    if lam[0] <= 1e-10 * max(lam[-1], 1.0):
        raise DegenerateNorm("sampled sphere points are rank-deficient")

    for _round in range(JOHN_REFINEMENT_ROUNDS):
        symmetrized = np.concatenate([sample, -sample], axis=0)
        a = _mvee_centered(symmetrized)
        w_raw = mc.batched_power_from_eig(*mc.batched_eigh(a[None]), 0.5)[0]
        if _round == JOHN_REFINEMENT_ROUNDS - 1:
            break
        probe = unit_sphere(4 * sphere_samples)
        excess = np.linalg.norm(probe @ w_raw.T, axis=1)  # rho = 1 on the probe
        worst = np.argsort(excess)[-max(sphere_samples // 8, 8):]
        if float(excess[worst[-1]]) <= 1.0 + 1e-9:
            break
        sample = np.concatenate([sample, probe[worst]])

    calib = np.concatenate([sample, unit_sphere(JOHN_CALIBRATION_SAMPLES)], axis=0)
    rho_vals = rho(calib)
    ellip_vals = np.linalg.norm(calib @ w_raw.T, axis=1)
    c = JOHN_SCALE_MARGIN * float(np.max(rho_vals / ellip_vals))
    return c * w_raw


def john_sandwich(rho, d: int, w: np.ndarray, count: int,
                  rng: np.random.Generator) -> tuple[float, float, bool]:
    """Check rho(v) <= |W v| <= sqrt(d) * 1.05 * rho(v) on `count` fresh
    complex Gaussian test vectors: (min |W v| / rho(v), max |W v| /
    (sqrt(d) rho(v)), whether both bounds hold by `within`)."""
    vt = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
    rv = rho(vt)
    wv = np.linalg.norm(vt @ w.T, axis=1)
    left = float(np.min(wv / rv))
    right = float(np.max(wv / (np.sqrt(d) * rv)))
    return left, right, within(1.0, left) and within(right, 1.05)
