"""Shared test oracles, independent of the implementations they check.

brute_sublevel_pairs  -- persistence by re-enumerating sublevel components
                         at every level (no union-find)
brute_bottleneck      -- minimum over all partial matchings, enumerated
naive_grid_mass       -- literal 2-D midpoint integral of a mixture
separable_grid_mass   -- the same midpoint sum, factored per axis so large
                         mixtures stay affordable
sample_ppp_diagram    -- draw a diagram from a Poisson process with a known
                         Gaussian-mixture intensity
"""

import itertools

import numpy as np
import pytest
from hypothesis import settings
from scipy.special import ndtr

from topobayes import GaussianMixtureIntensity, PersistenceDiagram, log_eval_intensity

# selected in CI with --hypothesis-profile=ci: every run replays the same examples, so a
# failure there reproduces from its log; local runs keep drawing new ones
settings.register_profile("ci", derandomize=True)


def brute_sublevel_pairs(values):
    """Persistence pairs from a from-scratch component sweep.

    At each sample value r, the sublevel set {i : v_i <= r} is recomputed and
    its maximal runs compared against the previous level's runs; a run's
    birth is the smallest value it contains, and when runs merge at level r
    all but the oldest die there. The surviving run pairs the global minimum
    with the global maximum. Assumes distinct values. O(n^2).
    """
    v = [float(x) for x in values]
    n = len(v)
    pairs = []
    prev_runs = []
    for r in sorted(set(v)):
        mask = [x <= r for x in v]
        runs = []
        i = 0
        while i < n:
            if mask[i]:
                j = i
                while j + 1 < n and mask[j + 1]:
                    j += 1
                runs.append((i, j))
                i = j + 1
            else:
                i += 1
        for a, b in runs:
            contained = [pr for pr in prev_runs if a <= pr[0] and pr[1] <= b]
            if len(contained) >= 2:
                births = sorted(min(v[x] for x in range(p0, p1 + 1)) for p0, p1 in contained)
                for bk in births[1:]:
                    pairs.append((bk, r))
        prev_runs = runs
    pairs.append((min(v), max(v)))
    return sorted(pairs)


def brute_bottleneck(pairs_a, pairs_b):
    """Bottleneck distance by enumerating every partial matching.

    Unmatched points pay their l-infinity distance to the diagonal,
    (death - birth) / 2. Only usable for tiny diagrams.
    """
    A = [tuple(p) for p in pairs_a]
    B = [tuple(p) for p in pairs_b]

    def linf(p, q):
        return max(abs(p[0] - q[0]), abs(p[1] - q[1]))

    def diag(p):
        return (p[1] - p[0]) / 2.0

    best = np.inf
    nA, nB = len(A), len(B)
    for k in range(min(nA, nB) + 1):
        for sub_a in itertools.combinations(range(nA), k):
            for sub_b in itertools.permutations(range(nB), k):
                cost = 0.0
                for i, j in zip(sub_a, sub_b):
                    cost = max(cost, linf(A[i], B[j]))
                for i in set(range(nA)) - set(sub_a):
                    cost = max(cost, diag(A[i]))
                for j in set(range(nB)) - set(sub_b):
                    cost = max(cost, diag(B[j]))
                best = min(best, cost)
    return float(best)


def naive_grid_mass(mixture, box, n):
    """Literal midpoint-rule integral of the intensity, exp(log_eval_intensity), over [0, box]^2."""
    h = box / n
    axis = (np.arange(n) + 0.5) * h
    total = 0.0
    # chunk the grid rows to bound memory on fine grids
    for rows in np.array_split(axis, max(1, n // 64)):
        X = np.stack(np.meshgrid(rows, axis, indexing="ij"), axis=-1)
        total += float(np.exp(log_eval_intensity(mixture, X)).sum())
    return total * h * h


def separable_grid_mass(mixture, box, n):
    """The same midpoint sum as naive_grid_mass, factored per axis.

    For isotropic components the double sum over the grid is a product of two
    single-axis sums, so this equals the naive double sum up to float
    reassociation. Components sharing a variance (a fitted model has only a
    few distinct ones) are summed together, 256 components at a time,
    which keeps mixtures with tens of thousands of components affordable.
    """
    h = box / n
    axis = (np.arange(n) + 0.5) * h

    def axis_sums(centers, v):
        # exp(x) is exactly 0.0 in double precision for x < -745.2, so nodes
        # farther than `reach` from every center of a chunk add nothing
        reach = np.sqrt(2.0 * v * 746.0)
        order = np.argsort(centers)
        sums = np.empty(len(centers))
        for idx in np.array_split(order, -(-len(order) // 256)):
            c = centers[idx]
            lo, hi = np.searchsorted(axis, [c[0] - reach, c[-1] + reach])
            d = np.subtract.outer(c, axis[lo:hi])  # in place from here: exp is the cost
            d *= d
            d *= -0.5 / v
            sums[idx] = np.exp(d, out=d).sum(axis=1) * h
        return sums

    total = 0.0
    for v in np.unique(mixture.variances):
        sel = mixture.variances == v
        w, mu = mixture.weights[sel], mixture.means[sel]
        z = ndtr(mu[:, 0] / np.sqrt(v)) * ndtr(mu[:, 1] / np.sqrt(v))
        gb, gp = axis_sums(mu[:, 0], v), axis_sums(mu[:, 1], v)
        total += float((w * gb * gp / (2.0 * np.pi * v * z)).sum())
    return total


def sample_ppp_diagram(rng, mixture):
    """One diagram from the Poisson process with the given intensity.

    Cardinality is Poisson(total mass); points are i.i.d. from the normalized
    mixture, drawn per component by rejection against the wedge.
    """
    lam = float(mixture.weights.sum())
    n = rng.poisson(lam)
    if n == 0:
        return PersistenceDiagram(np.zeros((0, 2)))
    probs = mixture.weights / lam
    pts = []
    for _ in range(n):
        j = rng.choice(len(probs), p=probs)
        scale = np.sqrt(mixture.variances[j])
        while True:
            x = rng.normal(mixture.means[j], scale)
            if x[0] >= 0 and x[1] >= 0:
                pts.append(x)
                break
    return PersistenceDiagram(np.array(pts))


def random_mixture(rng, max_components=4, mean_hi=8.0, var_lo=0.2, var_hi=4.0):
    k = int(rng.integers(1, max_components + 1))
    return GaussianMixtureIntensity(
        rng.uniform(0.5, 3.0, k),
        rng.uniform(0.0, mean_hi, (k, 2)),
        rng.uniform(var_lo, var_hi, k),
    )


def random_distinct_signal(rng, max_len=64):
    """Random signal with all sample values distinct."""
    n = int(rng.integers(2, max_len + 1))
    while True:
        vals = rng.normal(size=n)
        if len(np.unique(vals)) == n:
            return vals


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
