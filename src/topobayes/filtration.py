"""Sublevel-set persistence of 1-D signals in dimension zero.

A sampled signal is read as a piecewise-linear function. Sweeping the level
upward, every local minimum starts a connected component of the sublevel set
and every merge at a local maximum kills the younger of the two components
that meet there (elder rule); the surviving component is paired with the
global maximum. Runs of equal consecutive samples are collapsed to a single
vertex first, and only the local extrema are kept: a vertex between a lower and
a higher neighbour starts no component and ends none. Padded with +inf at both
ends, the extrema alternate between minima and maxima, and one stack over them
pairs each minimum with the maximum where it dies (rainflow counting). Ties
between distinct vertices break toward the smaller sample index, which is
swept first and is the elder, so the output is deterministic.

sublevel_pd returns (birth, death) pairs as an (n, 2) array; the one diagram
type, PersistenceDiagram, holds their tilted form (birth - min birth, death -
birth) in the wedge {(b, p) : b >= 0, p >= 0}. The tilt offset is stored so
the pairs can be recovered, which is what the bottleneck distance works in.
"""

import bisect
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, pairs_array


@dataclass(frozen=True, eq=False)
class PersistenceDiagram:
    """Tilted diagram: (birth, persistence) points in the nonnegative wedge.

    b_min is the birth offset removed by the tilt; keeping it makes the
    transform invertible for a single diagram. Every point's b^2 + p^2 must be
    finite, so no coordinate exceeds about 1.34e154: scoring a point uses it.
    """

    points: np.ndarray
    b_min: float = 0.0

    def __post_init__(self):
        points = pairs_array(self.points, "diagram points")
        if not np.all(np.isfinite(points)):
            raise ValidationError("diagram points must be finite")
        # finite points can still overflow it, and a point scored with an infinite b^2 + p^2
        # would score NaN
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite((points * points).sum(axis=1))):
                raise ValidationError("diagram point too large: its b^2 + p^2 is not finite")
        if points.size and points.min() < 0:
            raise ValidationError("diagram points must lie in the wedge b, p >= 0")
        if not np.isfinite(self.b_min):
            raise ValidationError("b_min must be finite")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "b_min", float(self.b_min))

    def __len__(self):
        return len(self.points)


def sublevel_pd(signal) -> np.ndarray:
    """Persistence pairs of the sublevel-set filtration of a sampled signal.

    Accepts a Signal or any 1-D value sequence. Returns an (n, 2) float array
    of (birth, death) pairs, one per local minimum of the piecewise-linear
    interpolation, the global minimum being paired with the global maximum.
    Pairs are sorted by (birth, death). Runs in O(n) plus the final sort, via
    a stack over the alternating local extrema; of equal values the later
    vertex is the younger.
    """
    values = np.asarray(getattr(signal, "samples", signal), dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise ValidationError("signal needs at least 2 samples")
    if not np.all(np.isfinite(values)):
        raise ValidationError("signal contains a non-finite sample")

    # drop repeats of equal consecutive samples (keeps component topology)
    w = values[np.concatenate([[True], values[1:] != values[:-1]])]
    # pad both ends with +inf and keep the pads and the local extrema: a vertex between a lower
    # and a higher neighbour only joins the lower one's component, and dropping it keeps the
    # order of the rest; x reads inf, min, max, ..., min, inf
    v = np.concatenate([[np.inf], w, [np.inf]])
    up = v[1:] > v[:-1]  # not np.diff, whose difference overflows near the double range
    keep = np.ones(len(v), bool)
    keep[1:-1] = up[1:] != up[:-1]
    x = v[keep].tolist()  # the stack reads one value at a time, and Python floats read faster

    # rainflow counting (ASTM E1049): an inner minimum-maximum pair nested between its outer
    # neighbours a and d pairs off, as the minimum's component merges there first and is the
    # younger; of equal values the earlier vertex is swept first and is the elder
    pairs = []
    s = []
    for d in x:
        while len(s) >= 3:
            a, b, c = s[-3:]
            if len(s) % 2 and b > d and c < a:  # the minimum b dies at c
                pairs.append((b, c))
            elif not len(s) % 2 and c >= a and b <= d:  # the minimum c dies at b
                pairs.append((c, b))
            else:
                break
            del s[-2:]
        s.append(d)
    pairs.append((float(w.min()), float(w.max())))  # essential component

    arr = np.array(pairs)
    return arr[np.lexsort((arr[:, 1], arr[:, 0]))]


def tilt(pairs) -> PersistenceDiagram:
    """Map (birth, death) pairs, array-like of shape (n, 2), into the wedge.

    Each pair becomes (birth - b_min, death - birth) where b_min is the
    smallest birth in this diagram. An empty diagram tilts to an empty
    diagram with b_min 0 (no shift applied). PersistenceDiagram refuses a
    non-finite pair and a death before its birth.
    """
    pairs = pairs_array(pairs, "diagram pairs")
    if len(pairs) == 0:
        return PersistenceDiagram(np.zeros((0, 2)), 0.0)
    b_min = float(pairs[:, 0].min())
    with np.errstate(over="ignore", invalid="ignore"):  # PersistenceDiagram rejects inf and NaN
        pts = np.column_stack([pairs[:, 0] - b_min, pairs[:, 1] - pairs[:, 0]])
    return PersistenceDiagram(pts, b_min)


def untilt(diagram: PersistenceDiagram) -> np.ndarray:
    """Inverse of tilt using the stored b_min: the (n, 2) array of (birth, death) pairs."""
    b = diagram.points[:, 0] + diagram.b_min
    d = b + diagram.points[:, 1]
    return np.column_stack([b, d])


def bottleneck_distance(d1: PersistenceDiagram, d2: PersistenceDiagram) -> float:
    """Bottleneck distance, computed in (birth, death) coordinates.

    Points may be matched to each other at their l-infinity distance or left
    unmatched and charged their l-infinity distance to the diagonal,
    (death - birth) / 2. Symmetric; zero for equal multisets (and for
    diagrams that differ only in zero-persistence points, which sit on the
    diagonal). Solved exactly by bisect over the sorted candidate values, with
    bipartite matching feasibility checks (Hopcroft-Karp); memory grows with
    the product of the two diagram sizes.
    """
    A, B = untilt(d1), untilt(d2)
    diag_a = (A[:, 1] - A[:, 0]) / 2.0
    diag_b = (B[:, 1] - B[:, 0]) / 2.0
    direct = np.maximum(
        np.abs(A[:, None, 0] - B[None, :, 0]),
        np.abs(A[:, None, 1] - B[None, :, 1]),
    )
    candidates = np.unique(np.concatenate([[0.0], direct.ravel(), diag_a, diag_b]))

    def feasible(t):
        adj = direct <= t
        # a matching saturating both sides exists iff each side can be
        # saturated on its own (Mendelsohn-Dulmage)
        return _saturates(adj, diag_a > t) and _saturates(adj.T, diag_b > t)

    # the largest candidate is always feasible, so it is never tested
    i = bisect.bisect_left(candidates, True, hi=len(candidates) - 1, key=feasible)
    return float(candidates[i])


def _saturates(adj: np.ndarray, need: np.ndarray) -> bool:
    """Can every row in `need` be matched to a distinct column?"""
    # imported here: csgraph adds a tenth of a second and ~10 MB to
    # `import topobayes`, which only the bottleneck distance needs
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    matched = maximum_bipartite_matching(csr_matrix(adj[need]), perm_type="column")
    return bool(np.all(matched >= 0))
