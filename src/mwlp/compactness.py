"""Compactness moduli, constructive epsilon-nets and their certificates.

The three moduli (boundedness, tail, equicontinuity in its translation,
twisted and averaging variants) quantify the hypotheses of the covering
constructions; the net builders execute those constructions and measure
the constants they achieve instead of assuming any implicit ones.  Every
net carries a brute-force certificate.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConstantExponentRequired,
    MatrixWeightRequired,
    ModuliTooLarge,
    NotInvertible,
    OutOfRange,
    RadiusExceedsBox,
    SchemeMismatch,
    SelfCertificationFailed,
    ShapeMismatch,
)
from .grids import Grid
from .operators import (
    BallScheme,
    DyadicScheme,
    ball_average,
    ball_average_values,
    dyadic_average,
    dyadic_radii,
    shift_values,
)
from .spaces import SampledVectorField, Space, within
from .weight_fields import MatrixWeightField, MeasureDensity


@dataclass
class FunctionFamily:
    """A finite sampled family sharing one grid, with optional provenance."""

    members: list
    metadata: str = ""

    def __post_init__(self):
        if len(self.members) == 0:
            raise OutOfRange("function family must be nonempty")
        g = self.members[0].grid
        d = self.members[0].d
        for f in self.members:
            if f.grid != g or f.d != d:
                raise ShapeMismatch("family members have inconsistent shapes")

    @property
    def grid(self) -> Grid:
        return self.members[0].grid

    @property
    def d(self) -> int:
        return self.members[0].d

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, k: int) -> SampledVectorField:
        return self.members[k]


#: the equicontinuity notions; dyadic nets accept the first two
NOTIONS = ("translation", "twisted", "averaging")


@dataclass
class ModuliReport:
    """Measured boundedness, tail and equicontinuity curves of a family, with
    the notion, the space's label and the family's metadata.  Its fields are
    its report keys."""

    bound: float
    tail_curve: list
    equicontinuity_curve: list
    notion: str
    space: str
    family: str = ""


@dataclass
class EpsilonNet:
    """Net centers with a per-member certificate.

    Every member was matched to its nearest center; the recorded constant
    c_net is the measured max distance divided by epsilon.  A builder
    attaches the brute-force certificate it checked the net against.
    """

    epsilon: float
    centers: list
    assignment: list
    distances: list
    c_net: float
    route: str
    params: dict = field(default_factory=dict)
    space_label: str = ""
    certificate: Certificate | None = None

    @property
    def size(self) -> int:
        return len(self.centers)


@dataclass
class Certificate:
    """A net's brute-force recheck; its fields are its report keys."""

    passed: bool
    worst_member: int
    worst_distance: float
    threshold: float
    per_member_distance: list


def default_radius_ladder(grid: Grid) -> list[float]:
    L = grid.L
    return [L / 8, L / 4, L / 2, 3 * L / 4]


def default_scale_ladder(grid: Grid) -> list[float]:
    """Dyadic scales 2h, 4h, ... up to L/4."""
    return [s for s in dyadic_radii(grid) if s <= grid.L / 4 * (1 + 1e-12)]


# ---------------------------------------------------------------------------
# moduli


def _restricted(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Values (M, d) on the cells of a mask, zero elsewhere."""
    return np.where(mask[:, None], values, 0.0)


def _tail_table(family: FunctionFamily, masks: list, space: Space) -> list[list[float]]:
    """Per member, the size of f restricted to the cells of each mask.

    Each member's per-point norms r(x) = rho_x(f(x)) are evaluated once, and
    the restriction to a mask is np.where(mask, r, 0.0); only one member's r
    is alive at a time.
    """
    return [[space.size_of_norms(np.where(mask, r, 0.0)) for mask in masks]
            for r in (space.point_norms(f.values) for f in family)]


def tail_curve(family: FunctionFamily, radii: list[float], space: Space) -> list[float]:
    """Tail modulus at every radius of a ladder, in the ladder's order.

    Entry i is the sup over members of the size of f restricted to
    {|x| >= radii[i]}; at radius 0 that is the boundedness modulus, the sup
    of the space sizes (norm, or modular when variable).  Every member's
    per-point norms are evaluated once for the whole ladder.
    """
    grid = family.grid
    for R in radii:
        if R >= grid.L:
            raise RadiusExceedsBox(f"tail radius {R} must be below L={grid.L}")
        if R < 0:
            raise OutOfRange("tail radius must be non-negative")
    space.check(family)
    table = _tail_table(family, [grid.outside_ball(R) for R in radii], space)
    return [max(column) for column in zip(*table)]


def tail_modulus(family: FunctionFamily, R: float, space: Space) -> float:
    """sup over members of the size of f restricted to {|x| >= R} (see tail_curve)."""
    return tail_curve(family, [R], space)[0]


#: safety factor on the stated FFT screening error bound (see _l2_screen)
SCREEN_SLACK = 64.0


def translation_curve(family: FunctionFamily, scales: list[float], space: Space) -> list[float]:
    """Translation modulus at every scale of a ladder, in the ladder's order.

    Entry i is the sup over members f and lattice shifts 0 < |k h| <= scales[i]
    of space.size(tau_k f - f).  Every reported value is one direct
    evaluation of that expression, cached for the nested rungs above.  A
    rung evaluates its candidate (member, shift) pairs: in L^2(W, mu), where
    an FFT screen (_l2_screen) gives every shift's squared size with a
    per-member error bound, those whose screened interval reaches the largest
    lower end of the rung, which hold the maximizer; in other spaces all of
    them.  A shift with some |k_i| >= N measures -f, as a shift by N does, so
    the window stops at N cells per axis.
    """
    grid = family.grid
    space.check(family)
    scales = [float(r) for r in scales]
    if not scales:
        return []
    shifts = grid.shift_window(min(max(grid.max_shift(r) for r in scales), grid.N))
    # a zero member has size exactly 0 at every shift, which the curve's
    # floor of 0.0 already holds
    members = [f for f in family if np.any(f.values)]
    if not members:
        return [0.0] * len(scales)

    @functools.cache
    def direct(m: int, s: int) -> float:
        f = members[m]
        k = tuple(int(x) for x in shifts[s])
        return space.size_values(shift_values(f.values, grid, k) - f.values)

    screen = _l2_screen(members, shifts, space)
    curve = [0.0] * len(scales)
    for i, r in enumerate(scales):
        cols = np.flatnonzero(grid.shifts_within(shifts, r))
        if cols.size == 0:
            continue
        if screen is None:
            candidates = np.ones((len(members), cols.size), dtype=bool)
        else:
            screened, margin = screen
            block = screened[:, cols]
            candidates = block + margin[:, None] >= np.max(block - margin[:, None])
        worst = 0.0
        for m, j in np.argwhere(candidates):
            worst = max(worst, direct(int(m), int(cols[j])))
        curve[i] = worst
    return curve


def _l2_screen(members: list, shifts: np.ndarray, space: Space):
    """Screened ||tau_k f - f||^2 in L^2(W, mu) for every member and shift.

    Returns (screened (K, S), margin (K,)), or None when the space is not
    L^2(W, mu) with rho_x(v) = |W^(1/2)(x) v|.  With Q = mu W, zero fill
    outside the box and h^n the cell volume,

        ||tau_k f - f||^2 / h^n = A(k) - 2 Re B(k) + C,
        A(k) = sum_y f(y)^H Q(y + k) f(y)        (correlation of conj(f_i) f_j with Q_ij)
        B(k) = sum_y f(y)^H (Q f)(y + k)         (correlation of f_i with (Q f)_i)
        C    = sum_x f(x)^H Q(x) f(x),

    so d(d+1)/2 + 2d forward FFTs and one inverse FFT per member on a grid
    zero-padded to the smallest 2^a 3^b 5^c >= N + K cells per axis (K the
    largest shift asked for, at most N; the pad is at most 2N) give every
    shift with |k_i| < N; larger shifts leave no overlap and equal C.  The spectra of Q are shared across members, and each
    member keeps only the window of shifts asked for.

    Error bound: an FFT correlation of arrays a, b of M_pad <= (2N)^n entries
    is exact to c0 eps log2(M_pad) (|a|_2 |b|_1 + |a|_1 |b|_2).  With
    omega = max_x ||W(x)||_op mu(x), E_f = sum_x |f(x)|^2 and M = N^n grid
    points, every A and B term is at most 2 M omega E_f, so the screened
    value and the direct quadrature (whose rounding is smaller still) both
    lie within

        margin_f = SCREEN_SLACK * eps * d^2 * log2(M_pad) * M * omega * E_f * h^n

    of the exact squared size; SCREEN_SLACK covers c0 and the number of
    correlation terms, at most 2 d^2 + 4 d.  The scale uses omega rather
    than W at f's own points, because tau_k f meets W where f does not.
    """
    w = space.weight
    if w is None or space.p != 2.0:
        return None
    grid = w.grid
    n, big_n, d = grid.n, grid.N, w.d
    # a correlation over [0, N) wraps onto shifts |k_i| <= K only if the
    # padded length is below N + K
    pad = (_smooth_length(big_n + min(int(np.max(np.abs(shifts))), big_n)),) * n
    axes = tuple(range(n))
    mu = np.ones(grid.num_points) if space.mu is None else space.mu.values
    q = w.power(1.0) * mu[:, None, None]
    # Q and f_i conj(f_j) are Hermitian in (i, j), so the real part of A
    # needs the pairs i <= j only, off-diagonal ones counted twice
    pairs = [(i, j) for i in range(d) for j in range(i, d)]
    q_hat = [np.fft.fftn(q[:, i, j].reshape(grid.shape), s=pad, axes=axes) for i, j in pairs]
    window = tuple(shifts[:, ax] % pad[ax] for ax in range(n))
    no_overlap = np.any(np.abs(shifts) >= big_n, axis=1)
    cell = grid.h ** n
    omega = float(np.max(w.eig()[0][:, -1] * mu))
    bound = (SCREEN_SLACK * np.finfo(float).eps * d * d * n * np.log2(2 * big_n)
             * grid.num_points * omega * cell)

    def conj_spectrum(values: np.ndarray) -> np.ndarray:
        out = np.fft.fftn(values.reshape(grid.shape), s=pad, axes=axes)
        return np.conjugate(out, out=out)

    screened = np.empty((len(members), len(shifts)))
    margin = np.empty(len(members))
    for m, f in enumerate(members):
        fv = f.values
        qf = np.einsum("mij,mj->mi", q, fv)
        spec = np.zeros(pad, dtype=np.complex128)
        for (i, j), qh in zip(pairs, q_hat):
            t = conj_spectrum(fv[:, i] * fv[:, j].conj())
            t *= qh
            spec += t if i == j else 2.0 * t
        for i in range(d):
            t = conj_spectrum(fv[:, i])
            t *= np.fft.fftn(qf[:, i].reshape(grid.shape), s=pad, axes=axes)
            spec -= 2.0 * t
        corr = np.fft.ifftn(spec).real[window]
        corr[no_overlap] = 0.0
        const = float(np.sum((fv.conj() * qf).real))
        screened[m] = (corr + const) * cell
        margin[m] = bound * float(np.sum(np.abs(fv) ** 2))
    return screened, margin


def _smooth_length(size: int) -> int:
    """The smallest 2^a 3^b 5^c >= size, a length numpy's FFT transforms fast.

    For size <= 2N with N a power of two it is at most 2N.
    """
    length = size
    while True:
        rest = length
        for factor in (2, 3, 5):
            while rest % factor == 0:
                rest //= factor
        if rest == 1:
            return length
        length += 1


def translation_modulus(family: FunctionFamily, r: float, space: Space) -> float:
    """sup over members and lattice shifts 0 < |y| <= r of the size of tau_y f - f."""
    return translation_curve(family, [r], space)[0]


def _diagonalized(family: FunctionFamily, w: MatrixWeightField):
    """Pointwise diagonalization: D(x) = diag(eigenvalues), f~ = U^H f."""
    lam, u = w.eig()
    d_field = MatrixWeightField.diagonal(w.grid, lam, invertible=w.invertible)
    tilted = [
        SampledVectorField(f.grid, np.einsum("mji,mj->mi", u.conj(), f.values))
        for f in family
    ]
    return d_field, FunctionFamily(tilted, metadata=family.metadata + " (diagonalized)")


def twisted_curve(family: FunctionFamily, space: Space, scales: list[float]) -> list[float]:
    """Equicontinuity after pointwise diagonalization at every ladder scale:
    the translation curve of f~ = U^H f in L^p(D, mu), D = diag of the
    eigenvalue functions of the space's weight W, mu the space's density."""
    w, p = _weight_and_exponent(space, "the twisted notion")
    space.check(family)
    d_field, tilted = _diagonalized(family, w)
    return translation_curve(tilted, scales, Space.matrix_weight(d_field, p, space.mu))


def twisted_modulus(family: FunctionFamily, space: Space, r: float) -> float:
    """The twisted modulus at one scale (see twisted_curve)."""
    return twisted_curve(family, space, [r])[0]


def _ball_density(space: Space) -> MeasureDensity:
    """The measure ball averages use: the space's density, else Lebesgue."""
    return space.mu if space.mu is not None else MeasureDensity.lebesgue(space.grid)


def _averaging_residual(f: SampledVectorField, space: Space, scheme: BallScheme,
                        mask: np.ndarray) -> float:
    """The size of (S_r f - f) chi_mask, S_r averaging against the scheme's measure."""
    return space.size_values(_restricted(ball_average(f, scheme).values - f.values, mask))


def averaging_modulus(family: FunctionFamily, space: Space, r: float) -> float:
    """sup over members of ||(S_r f - f) chi_{B(0, L - r)}||.

    S_r averages against the space's measure; the evaluation region
    B(0, L - r) keeps every ball unclipped.
    """
    grid = family.grid
    if r >= grid.L:
        raise RadiusExceedsBox(f"scale r={r} leaves no unclipped ball in the box")
    space.check(family)
    scheme = BallScheme(grid, r, _ball_density(space))
    mask = grid.inside_ball(grid.L - r)
    return max(_averaging_residual(f, space, scheme, mask) for f in family)


def _weight_and_exponent(space: Space, purpose: str) -> tuple[MatrixWeightField, float]:
    """The matrix weight and constant exponent of a space, for a purpose that needs both."""
    if space.is_variable:
        raise ConstantExponentRequired(
            f"{purpose} needs a constant exponent; this space's exponent varies")
    w = space.weight
    if w is None:
        raise MatrixWeightRequired(f"{purpose} requires a matrix weight")
    return w, space.p


def _check_notion(notion: str, accepted: tuple[str, ...]) -> None:
    if notion not in accepted:
        raise OutOfRange(f"unknown equicontinuity notion {notion!r}; "
                         f"expected one of {', '.join(accepted)}")


def moduli_report(family: FunctionFamily, space: Space,
                  notion: str = "translation") -> ModuliReport:
    """Measure the boundedness, tail and equicontinuity curves on the default ladders.

    The bound and the tail curve come from one tail_curve call: the bound is
    its entry at radius 0, and each member's per-point norms are evaluated
    once for the bound and every ladder radius.
    """
    _check_notion(notion, NOTIONS)
    grid = family.grid
    scales = default_scale_ladder(grid)
    radii = default_radius_ladder(grid)
    bound, *tails = tail_curve(family, [0.0] + radii, space)
    tail = list(zip(radii, tails))
    if notion == "translation":
        equi = list(zip(scales, translation_curve(family, scales, space)))
    elif notion == "twisted":
        equi = list(zip(scales, twisted_curve(family, space, scales)))
    else:
        equi = [(r, averaging_modulus(family, space, r)) for r in scales]
    return ModuliReport(bound=bound, tail_curve=tail, equicontinuity_curve=equi, notion=notion,
                        space=space.label, family=family.metadata)


# ---------------------------------------------------------------------------
# greedy covering


def greedy_cover(count: int, dist_fn, radius: float):
    """Greedy farthest-point covering with first-index tie-breaking.

    dist_fn(i, j) must be a metric between items i and j.  Returns
    (center_item_indices, assignment, distances) with every item within
    radius of its assigned center.
    """
    centers = [0]
    dists = np.array([dist_fn(i, 0) for i in range(count)])
    assignment = np.zeros(count, dtype=int)
    while float(np.max(dists)) > radius:
        j = int(np.argmax(dists))
        centers.append(j)
        for i in range(count):
            dij = dist_fn(i, j)
            if dij < dists[i]:
                dists[i] = dij
                assignment[i] = len(centers) - 1
    return centers, assignment.tolist(), dists.tolist()


def _pair_memo(dist):
    """A symmetric metric dist(i, j) measured at most once per unordered pair,
    with dist(i, i) = 0 never measured."""
    measured = functools.cache(dist)
    return lambda i, j: 0.0 if i == j else measured(min(i, j), max(i, j))


def _first_under(measured, budget: float, what: str) -> tuple:
    """The first (x, value) of an iterable of pairs along a ladder with
    value < budget; the search is the covering proofs' choice of a tail radius
    or a scale.  A generator of pairs is measured only up to that rung."""
    for x, value in measured:
        if value < budget:
            return x, value
    raise ModuliTooLarge(f"{what} under {budget}")


# ---------------------------------------------------------------------------
# net builders


def _self_certified(family: FunctionFamily, space: Space, epsilon: float, centers: list,
                    assignment: list, route: str, params: dict) -> EpsilonNet:
    """The net of the given centers and assignment, with each member's measured
    distance to its center, c_net their max over epsilon, and the brute-force
    certificate attached, which a freshly built net must pass."""
    distances = [space.dist(f, centers[a]) for f, a in zip(family, assignment)]
    net = EpsilonNet(epsilon=epsilon, centers=centers, assignment=assignment,
                     distances=distances, c_net=max(distances) / epsilon, route=route,
                     params=params, space_label=space.label)
    cert = certify_net(family, net, space)
    if not cert.passed:
        raise SelfCertificationFailed(
            f"freshly built {route} net failed its own certificate: worst distance "
            f"{cert.worst_distance!r} above {cert.threshold!r}")
    net.certificate = cert
    return net


def build_net_dyadic(family: FunctionFamily, epsilon: float, space: Space,
                     notion: str = "translation") -> EpsilonNet:
    """Constructive net via dyadic averaging.

    Picks the smallest outer generation m with the tail beyond the box
    [-2^m, 2^m)^n under epsilon and the finest ladder scale 2^t, whose
    translation (or twisted) modulus must be under epsilon, projects every
    member to its piecewise-constant average, and covers the projections
    greedily at radius epsilon.  Certificate distances are measured in the
    ambient space against the piecewise-constant centers.
    """
    _check_notion(notion, NOTIONS[:2])
    grid = family.grid
    space.check(family)
    # outer generation: dyadic half-widths from 4h up to L
    m0 = int(np.ceil(np.log2(max(4 * grid.h, 1e-12))))
    generations = list(itertools.takewhile(lambda m: 2.0 ** m <= grid.L * (1 + 1e-12),
                                           itertools.count(m0)))
    table = _tail_table(family, [grid.outside_box(2.0 ** m) for m in generations], space)
    chosen_m, tail_value = _first_under(
        zip(generations, map(max, zip(*table))), epsilon, "no dyadic box keeps the tail")

    # the ladder doubles from 2h, so either every scale is a power of two or
    # none is; both moduli are nondecreasing in the scale, so the finest
    # scale is the only one that can keep the modulus under epsilon
    scales = [s for s in default_scale_ladder(grid) if s <= 2.0 ** chosen_m]
    s = scales[0] if scales else 0.0
    chosen_t = int(round(np.log2(s))) if scales else 0
    if not scales or abs(2.0 ** chosen_t - s) > 1e-9 * s:
        raise SchemeMismatch(
            "no ladder scale is an exact power of two on this grid; "
            "dyadic nets need L to be a power of two")
    if notion == "twisted":
        equi_value = twisted_modulus(family, space, s)
    else:
        equi_value = translation_modulus(family, s, space)
    if not equi_value < epsilon:
        raise ModuliTooLarge(f"no ladder scale keeps the {notion} modulus under {epsilon}")

    scheme = DyadicScheme(grid, chosen_m, chosen_t)
    projections = [dyadic_average(f, scheme) for f in family]
    proj_err = max(space.dist(f, g) for f, g in zip(family, projections))
    dist_fn = _pair_memo(lambda i, j: space.dist(projections[i], projections[j]))
    center_idx, assignment, _proj_d = greedy_cover(len(family), dist_fn, epsilon)
    centers = [projections[k] for k in center_idx]
    return _self_certified(family, space, epsilon, centers, assignment, "dyadic", {
        "m": chosen_m,
        "t": chosen_t,
        "num_cubes": scheme.num_cubes,
        "notion": notion,
        "tail_value": tail_value,
        "equicontinuity_value": equi_value,
        "projection_error": proj_err,
        "center_members": [int(k) for k in center_idx],
    })


def build_net_average(family: FunctionFamily, epsilon: float, space: Space) -> EpsilonNet:
    """Constructive net via ball averaging with the epsilon/3 budget split.

    Chooses R with tail under epsilon/3 and r with the averaging modulus on
    B(0, R) under epsilon/3, then clusters the averaged members in the
    uniform norm at radius epsilon / A, where
    A = 3 (integral over B(0, R) of ||W||_op dmu)^{1/p}.  Centers are the
    averaged representatives restricted to B(0, R).  The space must be
    L^p(W, mu) with a constant exponent.
    """
    w, p = _weight_and_exponent(space, "the averaging route")
    if p < 1.0:
        raise OutOfRange("the averaging route needs p >= 1; use the dyadic route for p < 1")
    if p == 1.0 and not w.invertible:
        raise NotInvertible("p = 1 needs an invertible weight with bounded inverse")
    grid = family.grid
    space.check(family)
    dens = _ball_density(space)

    radii = default_radius_ladder(grid)
    chosen_R, tail_value = _first_under(
        zip(radii, tail_curve(family, radii, space)), epsilon / 3,
        "no ladder radius keeps the tail")

    # the averaging modulus on B(0, R); the last scale averaged is the chosen
    # one, whose averaged members are clustered below
    inside = grid.inside_ball(chosen_R)

    @functools.lru_cache(maxsize=1)
    def averaged_at(r: float) -> list:
        scheme = BallScheme(grid, r, dens)
        return [ball_average(f, scheme) for f in family]

    chosen_r, avg_value = _first_under(
        ((r, max(space.size_values(_restricted(g.values - f.values, inside))
                 for f, g in zip(family, averaged_at(r))))
         for r in default_scale_ladder(grid)
         if r < chosen_R and chosen_R + r <= grid.L * (1 + 1e-12)),
        epsilon / 3, "no ladder scale keeps the averaging modulus")
    averaged = averaged_at(chosen_r)

    op_norms = w.op_norm_field().values
    a_const = 3.0 * float(np.sum(op_norms[inside] * dens.values[inside])
                          * grid.h ** grid.n) ** (1.0 / p)

    stacked = np.stack([g.values for g in averaged])[:, inside]

    def dist_uniform(i: int, j: int) -> float:
        diff = stacked[i] - stacked[j]
        return float(np.max(np.linalg.norm(diff, axis=1)))

    uniform_radius = epsilon / a_const
    center_idx, assignment, uniform_d = greedy_cover(len(family), dist_uniform, uniform_radius)
    centers = [SampledVectorField(grid, _restricted(averaged[k].values, inside))
               for k in center_idx]
    return _self_certified(family, space, epsilon, centers, assignment, "average", {
        "R": chosen_R,
        "r": chosen_r,
        "A": a_const,
        "budgets": {
            "tail": epsilon / 3,
            "averaging": epsilon / 3,
            "uniform_radius": uniform_radius,
        },
        "tail_value": tail_value,
        "averaging_value": avg_value,
        "worst_uniform_distance": float(np.max(uniform_d)),
        "center_members": [int(k) for k in center_idx],
    })


def certify_net(family: FunctionFamily, net: EpsilonNet, space: Space) -> Certificate:
    """Brute-force recomputation of the covering property.

    For every member, the distance to its nearest center is recomputed and
    checked against the net's c_net * epsilon.  The worst member is
    reported either way.
    """
    threshold = net.c_net * net.epsilon
    dists = []
    for f in family:
        dmin = min(space.dist(f, g) for g in net.centers)
        dists.append(dmin)
    worst_idx = int(np.argmax(dists))
    worst = float(dists[worst_idx])
    return Certificate(passed=within(worst, threshold), worst_member=worst_idx,
                       worst_distance=worst, threshold=threshold, per_member_distance=dists)


# ---------------------------------------------------------------------------
# necessity direction


@dataclass
class NecessityRow:
    """One epsilon of the necessity table; its fields are its report keys."""

    epsilon: float
    net_size: int
    R: float
    r: float
    tail_value: float
    tail_bound: float
    averaging_value: float
    averaging_bound: float
    measured_s_r_constant: float
    passed: bool


@dataclass
class NecessityReport:
    """The necessity table, the space's label and the documented A_p value;
    its fields are its report keys."""

    rows: list
    passed: bool
    space: str
    ap_constant: float | None = None


def necessity_check(family: FunctionFamily, epsilons: list[float], space: Space,
                    ap_value: float | None = None) -> NecessityReport:
    """Mirror the necessity argument: from an epsilon-net of members, derive a
    tail radius R and an averaging scale r, then verify the family moduli
    against the triangle-inequality bounds with measured constants.

    The space must be L^p(W, mu) with a constant p > 1; ap_value, if
    supplied, documents the A_p estimate of the weight over the family used
    (the check itself does not recompute it).  Each member's per-point
    norms are evaluated once per call, and its tail beyond every ladder
    radius is a masked size of them (tail_curve's table); each member pair's
    distance and each (member, scale) averaging residual is measured at most
    once, against one ball scheme per scale.
    """
    _, p = _weight_and_exponent(space, "the necessity check")
    if not p > 1:
        raise OutOfRange("the necessity characterization needs p > 1")
    grid = family.grid
    space.check(family)
    radii = default_radius_ladder(grid)
    scales = default_scale_ladder(grid)
    dens = _ball_density(space)
    tails = _tail_table(family, [grid.outside_ball(R) for R in radii], space)

    @functools.cache
    def scheme_at(r: float) -> tuple[BallScheme, np.ndarray]:
        """The ball scheme of scale r and its unclipped region B(0, L - r)."""
        return BallScheme(grid, r, dens), grid.inside_ball(grid.L - r)

    @functools.cache
    def residual(i: int, r: float) -> float:
        return _averaging_residual(family[i], space, *scheme_at(r))

    dist_fn = _pair_memo(lambda i, j: space.dist(family[i], family[j]))
    rows = []
    for eps in epsilons:
        center_idx, assignment, _d = greedy_cover(len(family), dist_fn, eps)

        # tail radius from the centers: R = max over centers of the smallest
        # ladder radius whose center tail is below eps
        k_star = max(next((k for k, t in enumerate(tails[c]) if t < eps), len(radii) - 1)
                     for c in center_idx)
        tail_val = max(t[k_star] for t in tails)
        tail_bound = 2.0 * eps

        # averaging scale from the centers: the largest ladder scale below L/2
        # at which every center is eps-close to its average
        r_star = next((r for r in sorted(scales, reverse=True)
                       if r < grid.L / 2 and all(residual(c, r) < eps for c in center_idx)),
                      min(scales))

        # measured boundedness constant of S_r on the member-center differences
        scheme, inside = scheme_at(r_star)
        cs = 0.0
        for i, f in enumerate(family):
            diff = f.values - family[center_idx[assignment[i]]].values
            denom = space.norm_values(diff)
            if denom <= 1e-13:
                continue
            averaged = _restricted(ball_average_values(diff, scheme), inside)
            cs = max(cs, space.norm_values(averaged) / denom)
        avg_val = max(residual(i, r_star) for i in range(len(family)))
        avg_bound = (2.0 + cs) * eps
        passed = within(tail_val, tail_bound) and within(avg_val, avg_bound)
        rows.append(NecessityRow(
            epsilon=eps, net_size=len(center_idx), R=radii[k_star], r=r_star,
            tail_value=tail_val, tail_bound=tail_bound,
            averaging_value=avg_val, averaging_bound=avg_bound,
            measured_s_r_constant=cs, passed=passed,
        ))
    return NecessityReport(rows=rows, passed=all(r.passed for r in rows),
                           space=space.label, ap_constant=ap_value)
