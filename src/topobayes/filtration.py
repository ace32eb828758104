"""Sublevel-set persistence of 1-D signals in dimension zero.

A sampled signal is read as a piecewise-linear function. Sweeping the level
upward, every local minimum starts a connected component of the sublevel set
and every merge at a local maximum kills the younger of the two components
that meet there (elder rule); the surviving component is paired with the
global maximum. Runs of equal samples are collapsed to one vertex and only the
local extrema are kept. Padded with +inf at both ends, they alternate between
minima and maxima, and one stack over them pairs each minimum with the maximum
where it dies (rainflow counting). The stack holds its top two values in local
variables and the rest on a NaN, whose comparisons are false, so it needs no
length test; pairs go flat into one list. Ties between distinct vertices break
toward the smaller sample index, which is swept first and is the elder.

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
        # b^2 + p^2 is NaN or inf where a coordinate is, or where it overflows; either scores NaN
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite((points * points).sum(axis=1))):
                raise ValidationError("diagram points must be finite, with b^2 + p^2 finite")
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
    vertex is the younger. This is the one check of samples: 1-D, at least 2, all finite.
    """
    values = np.asarray(getattr(signal, "samples", signal), dtype=float)
    if values.ndim != 1:
        raise ValidationError(f"signal must be 1-D, not {values.ndim}-D")
    if values.size < 2:
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

    # rainflow counting (ASTM E1049): a minimum-maximum pair b, c nested between rest[-1] and
    # the next extremum pairs off, as the minimum's component merges there first and is the
    # younger; of equal values the earlier vertex is swept first and is the elder
    flat, rest, b, c = [], [np.nan], np.nan, x[0]
    for m, M in zip(x[1::2], x[2::2]):  # each minimum and the maximum (or pad) after it
        while b > m and c < rest[-1]:  # the minimum b dies at c
            flat += b, c
            c, b = rest.pop(), rest.pop()
        rest.append(b)
        b, c = c, m
        while c >= rest[-1] and b <= M:  # the minimum c dies at b
            flat += c, b
            c, b = rest.pop(), rest.pop()
        rest.append(b)
        b, c = c, M
    flat += float(w.min()), float(w.max())  # essential component

    arr = np.array(flat).reshape(-1, 2)  # one flat list builds faster than a list of pairs
    return arr[np.lexsort((arr[:, 1], arr[:, 0]))]


def tilt(pairs) -> PersistenceDiagram:
    """Map (birth, death) pairs, array-like of shape (n, 2), into the wedge.

    Each pair becomes (birth - b_min, death - birth) where b_min is the
    smallest birth in this diagram. An empty diagram tilts to an empty
    diagram with b_min 0 (no shift applied). PersistenceDiagram refuses a
    non-finite pair and a death before its birth.
    """
    pairs = pairs_array(pairs, "diagram pairs")
    b_min = float(pairs[:, 0].min()) if len(pairs) else 0.0
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
    diagonal). Solved exactly as the smallest feasible candidate value, each test
    a bipartite matching (Hopcroft-Karp) of the points the diagonal does not take:
    a lower bound is tested first, then a bisection over the usable candidates
    above it. Peak memory is about 16 B per pair of points: n x m distances, one temporary.
    """
    A, B = untilt(d1), untilt(d2)
    diag_a = (A[:, 1] - A[:, 0]) / 2.0
    diag_b = (B[:, 1] - B[:, 0]) / 2.0
    direct = np.abs(np.subtract.outer(A[:, 0], B[:, 0]))
    gap = np.subtract.outer(A[:, 1], B[:, 1])
    np.maximum(direct, np.abs(gap, out=gap), out=direct)
    del gap  # built in place, so at most two n x m float arrays exist at once

    def feasible(t):
        # a matching saturating both sides exists iff each side can be saturated on its own
        # (Mendelsohn-Dulmage); a point that the diagonal takes at t needs no match
        return _saturates(direct[diag_a > t] <= t) and _saturates((direct[:, diag_b > t] <= t).T)

    # every point is matched, at no less than its nearest distance across, or sent to the
    # diagonal, so the largest of each point's smaller cost is a lower bound and a candidate
    low = max(np.minimum(diag_a, direct.min(axis=1, initial=np.inf)).max(initial=0.0),
              np.minimum(diag_b, direct.min(axis=0, initial=np.inf)).max(initial=0.0))
    if feasible(low):
        return float(low)
    # a test sees only edges from points whose diagonal cost exceeds t, so the least feasible
    # t is a diagonal cost or an edge within one end's; the largest, a diagonal cost, is untested
    candidates = direct[((direct <= diag_a[:, None]) | (direct <= diag_b)) & (direct > low)]
    candidates = np.concatenate([candidates, diag_a[diag_a > low], diag_b[diag_b > low]])
    candidates.sort()  # in place, and repeats left in: neither changes the least feasible value
    i = bisect.bisect_left(candidates, True, hi=len(candidates) - 1, key=feasible)
    return float(candidates[i])


def _saturates(sub: np.ndarray) -> bool:
    """Can every row of the boolean matrix sub be matched to a distinct column? Its CSR graph
    is built from the flat indices of sub's True entries, which run row by row."""
    # imported here: csgraph adds ~0.1 s and ~10 MB to `import topobayes`, and only this needs it
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    edges = np.flatnonzero(sub)
    indptr = np.searchsorted(edges, np.arange(len(sub) + 1) * sub.shape[1])
    graph = csr_matrix((np.ones(len(edges), bool), edges % sub.shape[1], indptr), sub.shape)
    return bool(np.all(maximum_bipartite_matching(graph, perm_type="column") >= 0))
