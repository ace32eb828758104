"""Oracles for the closed-form posterior (the quadrature route and the dense update) and for
the persistence sweep.

restricted_normal_pdf -- one wedge-restricted Gaussian density, the
                         one-component case of eval_intensity
quadrature_nodes      -- cell-center axes of posterior_quadrature's grid
posterior_quadrature  -- the posterior intensity operator evaluated by direct
                         numerical integration, independent of the
                         conjugate-update algebra of posterior_intensity
dense_posterior       -- posterior_intensity as it was before it selected the
                         kept components from their weights alone: every
                         array of all (point, component) pairs built, then
                         pruned; its output must match byte for byte
sublevel_pd           -- the union-find sweep that filtration.sublevel_pd
                         replaced, as it was before it read birth keys off the
                         union-find roots: per-vertex birth values, birth
                         indices and reached flags, and lexsort; its pairs must
                         match byte for byte
bottleneck_distance   -- the search that filtration.bottleneck_distance replaced: a plain
                         bisection over all candidate values, each test's graph a dense
                         csr_matrix(adj[need]); its distances must match byte for byte
mixture_to_json       -- the wire formats of a mixture, a class model and a diagram, as dicts
model_to_json            of Python values, written as topobayes wrote them before the CLI
diagram_to_json          filled row templates; json.dumps(..., indent=2, sort_keys=True) of one
                         is the file the CLI must write byte for byte
stratified_folds      -- classifier.stratified_folds as it was before each fold's training set
                         became the complement of its test set: per-label index lists, and
                         every other chunk concatenated per fold; its folds must match byte
                         for byte
cv_tally              -- cross_validate's per-fold accuracies and confusion matrix as it tallied
                         them before the confusion matrix came from one Counter: a numpy count
                         array filled in a loop over the held-out entries
"""

import bisect

import numpy as np

from topobayes import GaussianMixtureIntensity, PosteriorConfig, ValidationError, eval_intensity
from topobayes import posterior
from topobayes.filtration import untilt
from topobayes.intensity import log_wedge_mass, wedge_rectangle
from topobayes.posterior import _flatten_observations


def restricted_normal_pdf(x, mean, var):
    """Density at x of N(mean, var*I) restricted and renormalized to the wedge.

    Zero outside the wedge; x is one (b, p) point or an array of shape
    (..., 2). Raises ValidationError unless var > 0.
    """
    return eval_intensity(GaussianMixtureIntensity.single(1.0, mean, var), x)


def quadrature_nodes(bounds, resolution):
    """Cell-center axes of the evaluation grid used by posterior_quadrature."""
    b_lo, p_lo, b_hi, p_hi = wedge_rectangle(bounds)
    nb, npts = (resolution, resolution) if isinstance(resolution, int) else resolution
    if min(nb, npts) < 1:
        raise ValidationError("quadrature resolution must be at least 1 per axis")
    hb = (b_hi - b_lo) / nb
    hp = (p_hi - p_lo) / npts
    return b_lo + (np.arange(nb) + 0.5) * hb, p_lo + (np.arange(npts) + 0.5) * hp


def posterior_quadrature(prior: GaussianMixtureIntensity, observations,
                         cfg: PosteriorConfig, bounds, resolution) -> np.ndarray:
    """Direct numerical evaluation of the posterior intensity operator.

    Returns the posterior intensity on the cell-center grid given by
    quadrature_nodes(bounds, resolution), entry [i, j] at (b_i, p_j). The
    per-observation normalizer integral over the wedge is computed by the
    midpoint rule on an internal uniform grid sized to retain essentially
    all prior and kernel mass. Independent of the conjugate-update algebra,
    which makes it the validation oracle for posterior_intensity; grids
    coarser than 32 per axis are rejected as too coarse for that use.
    """
    if np.min(resolution) < 32:
        raise ValidationError("resolution below 32 is too coarse for oracle use")
    b_axis, p_axis = quadrature_nodes(bounds, resolution)
    X = np.stack(np.meshgrid(b_axis, p_axis, indexing="ij"), axis=-1)

    m = len(observations)
    Y = _flatten_observations(observations)

    out = (1.0 - cfg.alpha) * eval_intensity(prior, X)
    if cfg.alpha == 0.0 or len(Y) == 0:
        return out

    # internal midpoint grid over [0, B]^2 covering prior and kernel support
    so = cfg.sigma_obs
    B = max(float(bounds[2]), float(bounds[3]))
    if prior.n_components:
        B = max(B, float(np.max(prior.means + 8.0 * np.sqrt(prior.variances)[:, None])))
    B = max(B, float(np.max(Y + 8.0 * np.sqrt(so))))
    spacing = np.sqrt(so) / 8.0
    if prior.n_components:
        spacing = min(spacing, float(np.sqrt(prior.variances.min()) / 8.0))
    n_int = int(np.clip(np.ceil(B / spacing), 256, 2400))
    h = B / n_int
    axis = (np.arange(n_int) + 0.5) * h
    U = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    prior_at_U = eval_intensity(prior, U)

    prior_at_X = eval_intensity(prior, X)
    for y in Y:
        kernel_at_U = restricted_normal_pdf(U, y, so)
        evidence = float((kernel_at_U * prior_at_U).sum() * h * h)
        denom = eval_intensity(cfg.clutter, y) + cfg.alpha * evidence
        if denom <= 0:
            continue
        out += (cfg.alpha / m) * restricted_normal_pdf(X, y, so) * prior_at_X / denom
    return out


def dense_posterior(prior: GaussianMixtureIntensity, observations,
                    cfg: PosteriorConfig) -> GaussianMixtureIntensity:
    """posterior_intensity, building the (T, K) and (T, K, 2) arrays of all T observed points
    against all K prior components, then pruning them by posterior's constants as they are
    at the call. About 130 B per pair."""
    m = len(observations)
    Y = _flatten_observations(observations)
    K = prior.n_components

    out_w = [(1.0 - cfg.alpha) * prior.weights]
    out_mu = [prior.means]
    out_v = [prior.variances]

    T = len(Y)
    if T > 0 and K > 0 and cfg.alpha > 0:
        c = prior.weights
        mu = prior.means
        var = prior.variances
        so = cfg.sigma_obs

        v_post = var * so / (var + so)                                   # (K,)
        mu_post = (so * mu[None, :, :] + var[None, :, None] * Y[:, None, :]) / (
            var[None, :, None] + so
        )                                                                 # (T,K,2)

        # evidence of y under component k, in log space: the unrestricted
        # Gaussian product evidence times the ratio of wedge masses coming
        # from the three renormalized-restricted factors
        d2 = ((Y[:, None, :] - mu[None, :, :]) ** 2).sum(axis=2)          # (T,K)
        log_q = (
            -np.log(2.0 * np.pi * (var + so))[None, :]
            - d2 / (2.0 * (var + so))[None, :]
            + log_wedge_mass(mu_post[:, :, 0], mu_post[:, :, 1], v_post[None, :])
            - log_wedge_mass(mu[:, 0], mu[:, 1], var)[None, :]
            - log_wedge_mass(Y[:, 0], Y[:, 1], so)[:, None]
        )
        q = np.exp(log_q)                                                 # (T,K)

        denom = eval_intensity(cfg.clutter, Y) + cfg.alpha * (q * c).sum(axis=1)  # (T,)
        safe = denom > 0  # a point with zero clutter and zero evidence carries no update
        scale = np.zeros(T)
        with np.errstate(over="ignore"):
            scale[safe] = (cfg.alpha / m) / denom[safe]
            # a point whose scale * c overflows takes its weights as c q / denom times alpha / m
            far = np.isinf(scale * c.max())
        scale[far] = 0.0

        w_new = scale[:, None] * c[None, :] * q                           # (T,K)
        w_new[far] = cfg.alpha / m * (c * q[far] / denom[far, None])
        out_w.append(w_new.reshape(-1))
        out_mu.append(mu_post.reshape(-1, 2))
        out_v.append(np.broadcast_to(v_post, (T, K)).reshape(-1))

    W = np.concatenate(out_w)
    MU = np.concatenate(out_mu, axis=0)
    V = np.concatenate(out_v)
    return _dense_pruned(W, MU, V)


def _dense_pruned(W, MU, V) -> GaussianMixtureIntensity:
    total = W.sum()
    keep = W > posterior._PRUNE_REL_WEIGHT * total
    W, MU, V = W[keep], MU[keep], V[keep]
    cap = posterior._MAX_COMPONENTS
    if len(W) > cap:
        # keep the heaviest components, preserving their original order
        idx = np.sort(np.argpartition(W, len(W) - cap)[len(W) - cap:])
        W, MU, V = W[idx], MU[idx], V[idx]
    return GaussianMixtureIntensity(W, MU, V)


def _collapse_plateaus(values: np.ndarray) -> np.ndarray:
    """Drop repeats of equal consecutive samples (keeps component topology)."""
    keep = np.concatenate([[True], values[1:] != values[:-1]])
    return values[keep]


def sublevel_pd(signal) -> np.ndarray:
    """Persistence pairs of the sublevel-set filtration of a sampled signal.

    Accepts a Signal or any 1-D value sequence. Returns an (n, 2) float array
    of (birth, death) pairs, one per local minimum of the piecewise-linear
    interpolation, the global minimum being paired with the global maximum.
    Pairs are sorted by (birth, death). Runs in O(n log n) via a sorted sweep
    with union-find.
    """
    values = np.asarray(getattr(signal, "samples", signal), dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise ValidationError("signal needs at least 2 samples")
    if not np.all(np.isfinite(values)):
        raise ValidationError("signal contains a non-finite sample")

    w = _collapse_plateaus(values)
    n = len(w)
    if n == 1:  # constant signal: one degenerate essential pair
        return np.array([[w[0], w[0]]])

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
    return arr[np.lexsort((arr[:, 1], arr[:, 0]))]


def bottleneck_distance(d1, d2) -> float:
    """Bottleneck distance of two tilted diagrams by bisection over every sorted candidate
    value, as filtration.bottleneck_distance found it before it tested a lower bound first
    and built its graphs' CSR arrays itself."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    def saturates(adj, need):
        matched = maximum_bipartite_matching(csr_matrix(adj[need]), perm_type="column")
        return bool(np.all(matched >= 0))

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
        return saturates(adj, diag_a > t) and saturates(adj.T, diag_b > t)

    # the largest candidate is always feasible, so it is never tested
    i = bisect.bisect_left(candidates, True, hi=len(candidates) - 1, key=feasible)
    return float(candidates[i])


def mixture_to_json(g: GaussianMixtureIntensity) -> dict:
    """Wire format: {"components": [{"w": c, "mu": [b, p], "var": s}, ...]}."""
    return {
        "components": [
            {"w": float(w), "mu": [float(m[0]), float(m[1])], "var": float(v)}
            for w, m, v in zip(g.weights, g.means, g.variances)
        ]
    }


def model_to_json(model) -> dict:
    """Wire format: {"label": str, "lambda": total mass, "posterior": mixture_to_json}."""
    return {
        "label": model.label,
        "lambda": float(model.lam),
        "posterior": mixture_to_json(model.posterior),
    }


def diagram_to_json(diagram) -> dict:
    """Wire format: {"b_min": r, "points": [[b, p], ...]} in tilted coordinates."""
    return {
        "b_min": float(diagram.b_min),
        "points": [[float(b), float(p)] for b, p in diagram.points],
    }


def stratified_folds(data, seed=0) -> list:
    """(train_indices, test_indices) pairs of sorted global indices, one per fold."""
    rng = np.random.default_rng(seed)
    k = data.k_folds
    by_label = {lab: [] for lab in data.labels}
    for i, (_, lab) in enumerate(data.entries):
        by_label[lab].append(i)
    chunks = {
        lab: np.array_split(rng.permutation(np.asarray(idx)), k)
        for lab, idx in by_label.items()
    }
    folds = []
    for f in range(k):
        test = np.concatenate([chunks[lab][f] for lab in data.labels])
        train = np.concatenate(
            [chunks[lab][g] for lab in data.labels for g in range(k) if g != f]
        )
        folds.append((np.sort(train), np.sort(test)))
    return folds


def cv_tally(data, folds, predicted):
    """(per_fold, confusion) of cross_validate's report, from each fold's predicted labels."""
    labels = data.labels
    lab_pos = {lab: i for i, lab in enumerate(labels)}
    per_fold = []
    confusion = np.zeros((len(labels), len(labels)), dtype=int)
    for (_, test_idx), fold_labels in zip(folds, predicted):
        correct = 0
        for i, label in zip(test_idx, fold_labels):
            true_lab = data.entries[i][1]
            confusion[lab_pos[true_lab], lab_pos[label]] += 1
            correct += label == true_lab
        per_fold.append(correct / len(test_idx))
    return [float(a) for a in per_fold], confusion.tolist()
