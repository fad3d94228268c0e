"""Reference tails, kept as the oracle for `compactness.tail_curve` and the
routes' tail searches.

This is the tail code as it was before the one-pass tables: every tail zeroes
the member's values outside the mask and measures them with
`Space.size_values`, so each (member, mask) pair evaluates the per-point
norms afresh.  The one-pass code must reproduce it exactly.  Slow and plain."""

import numpy as np


def tail(family, mask, space) -> float:
    """sup over members of the size of f restricted to the cells of mask."""
    return max(space.size_values(np.where(mask[:, None], f.values, 0.0)) for f in family)


def tail_curve(family, radii, space) -> list[float]:
    """The tail beyond every radius, one per-radius pass each."""
    return [tail(family, family.grid.outside_ball(R), space) for R in radii]


def bound(family, space) -> float:
    """sup over members of the space size (norm, or modular when variable)."""
    return max(space.size(f) for f in family)
