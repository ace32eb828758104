"""Sublevel-set persistence of 1-D signals in dimension zero.

A sampled signal is read as a piecewise-linear function. Sweeping the level
upward, every local minimum starts a connected component of the sublevel set
and every merge at a local maximum kills the younger of the two components
that meet there (elder rule); the surviving component is paired with the
global maximum. Runs of equal consecutive samples are collapsed to a single
vertex first, and ties between distinct vertices break toward the smaller
sample index, so the output is deterministic.

Diagrams come in two forms: raw (birth, death) pairs, and the tilted
representation (birth - min birth, death - birth) living in the wedge
{(b, p) : b >= 0, p >= 0}. The tilt offset is stored so raw coordinates can
be recovered, which is what the bottleneck distance works in.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, json_floats


@dataclass(frozen=True, eq=False)
class RawDiagram:
    """Multiset of (birth, death) pairs with death >= birth."""

    pairs: np.ndarray

    def __post_init__(self):
        pairs = np.asarray(self.pairs, dtype=float).reshape(-1, 2)
        if not np.all(np.isfinite(pairs)):
            raise ValidationError("diagram pairs must be finite")
        if np.any(pairs[:, 1] < pairs[:, 0]):
            raise ValidationError("death must be >= birth in every pair")
        object.__setattr__(self, "pairs", pairs)

    def __len__(self):
        return len(self.pairs)


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
        points = np.asarray(self.points, dtype=float).reshape(-1, 2)
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


def _collapse_plateaus(values: np.ndarray) -> np.ndarray:
    """Drop repeats of equal consecutive samples (keeps component topology)."""
    keep = np.concatenate([[True], values[1:] != values[:-1]])
    return values[keep]


def sublevel_pd(signal) -> RawDiagram:
    """Persistence pairs of the sublevel-set filtration of a sampled signal.

    Accepts a Signal or any 1-D value sequence. Returns one (birth, death)
    pair per local minimum of the piecewise-linear interpolation, the global
    minimum being paired with the global maximum. Pairs are sorted by
    (birth, death). Runs in O(n log n) via a sorted sweep with union-find.
    """
    values = np.asarray(getattr(signal, "samples", signal), dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise ValidationError("signal needs at least 2 samples")
    if not np.all(np.isfinite(values)):
        raise ValidationError("signal contains a non-finite sample")

    w = _collapse_plateaus(values)
    n = len(w)
    if n == 1:  # constant signal: one degenerate essential pair
        return RawDiagram(np.array([[w[0], w[0]]]))

    order = np.lexsort((np.arange(n), w))  # by value, then by index
    parent = np.arange(n)
    birth_val = np.empty(n)
    birth_idx = np.empty(n, dtype=int)
    active = np.zeros(n, dtype=bool)

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    pairs = []
    for v in order:
        active[v] = True
        birth_val[v] = w[v]
        birth_idx[v] = v
        for u in (v - 1, v + 1):
            if 0 <= u < n and active[u]:
                ru, rv = find(u), find(v)
                if ru == rv:
                    continue
                # elder rule: the component with the larger (birth, index)
                # key is younger and dies at the current level
                if (birth_val[ru], birth_idx[ru]) <= (birth_val[rv], birth_idx[rv]):
                    old, young = ru, rv
                else:
                    old, young = rv, ru
                if not (birth_val[young] == w[v] and birth_idx[young] == v):
                    pairs.append((birth_val[young], w[v]))
                parent[young] = old
    pairs.append((float(w.min()), float(w.max())))  # essential component

    arr = np.array(pairs)
    arr = arr[np.lexsort((arr[:, 1], arr[:, 0]))]
    return RawDiagram(arr)


def tilt(raw: RawDiagram) -> PersistenceDiagram:
    """Map (birth, death) pairs into the wedge.

    Each pair becomes (birth - b_min, death - birth) where b_min is the
    smallest birth in this diagram. An empty diagram tilts to an empty
    diagram with b_min 0 (no shift applied).
    """
    if len(raw) == 0:
        return PersistenceDiagram(np.zeros((0, 2)), 0.0)
    b_min = float(raw.pairs[:, 0].min())
    with np.errstate(over="ignore"):  # PersistenceDiagram rejects what overflows
        pts = np.column_stack([raw.pairs[:, 0] - b_min, raw.pairs[:, 1] - raw.pairs[:, 0]])
    return PersistenceDiagram(pts, b_min)


def untilt(diagram: PersistenceDiagram) -> RawDiagram:
    """Inverse of tilt using the stored b_min."""
    b = diagram.points[:, 0] + diagram.b_min
    d = b + diagram.points[:, 1]
    return RawDiagram(np.column_stack([b, d]))


def bottleneck_distance(d1: PersistenceDiagram, d2: PersistenceDiagram) -> float:
    """Bottleneck distance, computed in (birth, death) coordinates.

    Points may be matched to each other at their l-infinity distance or left
    unmatched and charged their l-infinity distance to the diagonal,
    (death - birth) / 2. Symmetric; zero for equal multisets (and for
    diagrams that differ only in zero-persistence points, which sit on the
    diagonal). Solved exactly by a binary search over candidate values with
    bipartite matching feasibility checks (Hopcroft-Karp); memory grows with
    the product of the two diagram sizes.
    """
    return _bottleneck_pairs(untilt(d1).pairs, untilt(d2).pairs)


def _bottleneck_pairs(A: np.ndarray, B: np.ndarray) -> float:
    nA, nB = len(A), len(B)
    diag_a = (A[:, 1] - A[:, 0]) / 2.0
    diag_b = (B[:, 1] - B[:, 0]) / 2.0
    if nA == 0 or nB == 0:  # every point goes to the diagonal
        return float(np.concatenate([diag_a, diag_b]).max(initial=0.0))

    direct = np.maximum(
        np.abs(A[:, None, 0] - B[None, :, 0]),
        np.abs(A[:, None, 1] - B[None, :, 1]),
    )
    candidates = np.unique(np.concatenate([[0.0], direct.ravel(), diag_a, diag_b]))

    def feasible(t):
        adj = direct <= t
        need_a = np.where(diag_a > t)[0]
        need_b = np.where(diag_b > t)[0]
        # a matching saturating both sides exists iff each side can be
        # saturated on its own (Mendelsohn-Dulmage)
        return _saturates(adj, need_a) and _saturates(adj.T, need_b)

    lo, hi = 0, len(candidates) - 1  # the largest candidate is always feasible
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(candidates[lo])


def _saturates(adj: np.ndarray, need: np.ndarray) -> bool:
    """Can every row in `need` be matched to a distinct column?"""
    # imported here: csgraph adds a tenth of a second and ~10 MB to
    # `import topobayes`, which only the bottleneck distance needs
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    matched = maximum_bipartite_matching(csr_matrix(adj[need]), perm_type="column")
    return bool(np.all(matched >= 0))


def diagram_to_json(diagram: PersistenceDiagram) -> dict:
    """Wire format: {"b_min": r, "points": [[b, p], ...]} in tilted coordinates."""
    return {
        "b_min": float(diagram.b_min),
        "points": [[float(b), float(p)] for b, p in diagram.points],
    }


def diagram_from_json(obj) -> PersistenceDiagram:
    if not isinstance(obj, dict) or "points" not in obj:
        raise ValidationError("diagram JSON needs a 'points' list")
    pts = json_floats(obj["points"], "diagram points", None, 2)
    return PersistenceDiagram(pts, json_floats(obj.get("b_min", 0.0), "diagram 'b_min'"))
