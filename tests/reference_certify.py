"""Reference certificate, kept as the oracle for `compactness.certify_net`.

This is the certificate as it was before the screen: each member's nearest
distance is the minimum of a direct `Space.dist` to every center, so it makes
|family| x |centers| evaluations.  The screened code must reproduce it
exactly.  Slow and plain."""

import numpy as np

from mwlp.compactness import Certificate
from mwlp.spaces import within


def certify_net(family, centers, threshold, space) -> Certificate:
    """The brute-force certificate of centers at threshold."""
    dists = [min(space.dist(f, g) for g in centers) for f in family]
    worst_idx = int(np.argmax(dists))
    worst = float(dists[worst_idx])
    return Certificate(passed=within(worst, threshold), worst_member=worst_idx,
                       worst_distance=worst, threshold=threshold, per_member_distance=dists)
