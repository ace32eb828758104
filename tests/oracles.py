"""Oracles for the closed-form posterior (the quadrature route and the dense update) and for
the persistence sweep.

restricted_normal_pdf -- one wedge-restricted Gaussian density, the
                         one-component case of exp(log_eval_intensity)
quadrature_nodes      -- cell-center axes of posterior_quadrature's grid
posterior_quadrature  -- the posterior intensity operator evaluated by direct
                         numerical integration, independent of the
                         conjugate-update algebra of posterior_intensity
dense_posterior       -- posterior_intensity as it was before it selected the
                         kept components from their weights alone: every
                         array of all (point, component) pairs built, then
                         pruned; its output must match byte for byte
concatenated_posterior -- posterior_intensity as it built its kept components before it wrote
                         them into its output arrays in place: group (ii)'s means as one
                         expression over gathered copies, then concatenated after group (i)'s,
                         and likewise the variances; its output must match byte for byte
sublevel_pd           -- the union-find sweep that filtration.sublevel_pd
                         replaced, as it was before it read birth keys off the
                         union-find roots: per-vertex birth values, birth
                         indices and reached flags, and lexsort; its pairs must
                         match byte for byte
bottleneck_distance   -- the search that filtration.bottleneck_distance replaced: a plain
                         bisection over all candidate values, unfiltered, each test's graph
                         a dense csr_matrix(adj[need]); its distances must match byte for byte
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
log_kernel_constants  -- GaussianMixtureIntensity's (coef, log_norm, reach) as it computed them
                         before it wrote the (4, K) coefficients into one array in place: an
                         np.vstack of each row's temporaries; they must match byte for byte
CheckedSignal         -- signals.Signal and signals.add_noise as they were when a Signal checked
add_noise                its samples and rate and add_noise read the power off Signal.power();
                         the noisy samples must match byte for byte
BandSpec              -- a band and signals.generate_band_signal as they were when a band was a
generate_band_signal     frozen dataclass that checked 0 < f_low < f_high as it was built, and
                         the generator checked Nyquist; samples and refusals must match byte
                         for byte
"""

import bisect
from dataclasses import dataclass

import numpy as np

from topobayes import GaussianMixtureIntensity, PosteriorConfig, ValidationError, log_eval_intensity
from topobayes import posterior
from topobayes.filtration import untilt
from topobayes.intensity import log_wedge_mass, total_mass, wedge_rectangle
from topobayes.posterior import _flatten_observations
from topobayes.errors import MAX_SIZE
from topobayes.cli import check_rate
from topobayes.signals import Signal


def restricted_normal_pdf(x, mean, var):
    """Density at x of N(mean, var*I) restricted and renormalized to the wedge.

    Zero outside the wedge; x is one (b, p) point or an array of shape
    (..., 2). Raises ValidationError unless var > 0.
    """
    return np.exp(log_eval_intensity(GaussianMixtureIntensity([1.0], [mean], [var]), x))


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

    out = (1.0 - cfg.alpha) * np.exp(log_eval_intensity(prior, X))
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
    prior_at_U = np.exp(log_eval_intensity(prior, U))

    prior_at_X = np.exp(log_eval_intensity(prior, X))
    for y in Y:
        kernel_at_U = restricted_normal_pdf(U, y, so)
        evidence = float((kernel_at_U * prior_at_U).sum() * h * h)
        denom = np.exp(log_eval_intensity(cfg.clutter, y)) + cfg.alpha * evidence
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

        with np.errstate(over="ignore"):  # +inf is the clutter's float limit, as in posterior
            clutter = np.exp(log_eval_intensity(cfg.clutter, Y))
        denom = clutter + cfg.alpha * (q * c).sum(axis=1)  # (T,)
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


def concatenated_posterior(prior: GaussianMixtureIntensity, observations,
                           cfg: PosteriorConfig) -> GaussianMixtureIntensity:
    """posterior_intensity with its kept components built by concatenation, each of group (ii)'s
    means as (sigma_obs * mu + var * y) / (var + sigma_obs) over gathered copies; the weights and
    the kept indices come from posterior._kept_weights."""
    Y = _flatten_observations(observations)
    K, mu, var, so = prior.n_components, prior.means, prior.variances, cfg.sigma_obs
    v_post = var * so / (var + so)
    weights, keep = posterior._kept_weights(prior, Y, cfg, v_post, len(observations))
    n = np.searchsorted(keep, K)  # kept components of group (i) come first
    t, k = np.divmod(keep[n:] - K, K)
    conjugate = (so * mu[k] + var[k][..., None] * Y[t]) / (var[k][..., None] + so)
    means = np.concatenate([mu[keep[:n]], conjugate])
    return GaussianMixtureIntensity(weights, means, np.concatenate([var[keep[:n]], v_post[k]]))


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
    and built its graphs' CSR arrays itself. It lacks the candidate filter: every one of the
    n x m edge lengths is listed, not only those no longer than one end's diagonal cost, and
    each test thresholds the whole matrix, not only the rows that it must saturate."""
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


def model_to_json(label, g: GaussianMixtureIntensity) -> dict:
    """Wire format: {"label": str, "lambda": total mass, "posterior": mixture_to_json}."""
    return {
        "label": label,
        "lambda": total_mass(g),
        "posterior": mixture_to_json(g),
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


def log_kernel_constants(weights, means, variances):
    """(coef, log_norm, reach) of the components (weights, means, variances), given as arrays,
    built as GaussianMixtureIntensity built them from an np.vstack; coef may hold a value that
    is not finite, where the mixture refuses the components."""
    w, mu, v = weights, means, variances
    with np.errstate(over="ignore", invalid="ignore"):
        log_norm = (np.log(w) - np.log(2.0 * np.pi * v)
                    - log_wedge_mass(mu[:, 0], mu[:, 1], v))
        s = -0.5 / v
        coef = np.vstack([-2.0 * s * mu.T, s,
                          s * (mu ** 2).sum(axis=1) + log_norm])
    return coef, log_norm, max(coef.max(initial=0.0), -coef.min(initial=0.0))


@dataclass(frozen=True, eq=False)
class CheckedSignal:
    """signals.Signal as it was when it checked its fields: it refuses fewer than 2 samples, a
    non-finite one and a bad rate, and holds the samples as floats and the rate as a float."""

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size < 2:
            raise ValidationError("signal has too few samples (need at least 2)")
        if not np.all(np.isfinite(samples)):
            raise ValidationError("signal contains a non-finite sample")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", check_rate(self.sample_rate))

    def power(self) -> float:
        """Mean squared amplitude."""
        return float(np.mean(self.samples**2))


def add_noise(signal: CheckedSignal, snr_db: float, seed: int) -> CheckedSignal:
    """signal plus zero-mean white Gaussian noise of variance power / 10**(snr_db / 10)."""
    if not -3000.0 <= snr_db <= 3000.0:
        raise ValidationError("snr_db must lie in [-3000, 3000] dB")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(len(signal.samples))
    sigma = np.sqrt(signal.power() / 10.0 ** (snr_db / 10.0))
    return CheckedSignal(signal.samples + sigma * z, signal.sample_rate)


@dataclass(frozen=True)
class BandSpec:
    """Frequency band for the sinusoid-sum generator.

    The Nyquist constraint f_high < sample_rate / 2 is checked at generation
    time, when the sample rate is known.
    """

    f_low: float
    f_high: float

    def __post_init__(self):
        if not (0 < self.f_low < self.f_high):
            raise ValidationError(
                f"band needs 0 < f_low < f_high, got [{self.f_low}, {self.f_high}]"
            )


def generate_band_signal(band: BandSpec, duration: float, sample_rate: float,
                         seed: int) -> Signal:
    """Random sum of three sinusoids with frequencies inside the band, at unit RMS power."""
    if not (0 < duration < np.inf and 0 < sample_rate < np.inf):
        raise ValidationError("duration and sample_rate must be positive and finite")
    if band.f_high >= sample_rate / 2:
        raise ValidationError(
            f"f_high {band.f_high} Hz is not below the Nyquist rate "
            f"{sample_rate / 2} Hz"
        )
    samples = duration * sample_rate
    if not samples * 8 <= MAX_SIZE:  # inf too; checked before any array is made
        raise ValidationError("duration * sample_rate gives more samples than an array can hold")
    n = int(round(samples))
    if n < 2:
        raise ValidationError("duration * sample_rate must yield at least 2 samples")
    rng = np.random.default_rng(seed)
    freqs = rng.uniform(band.f_low, band.f_high, 3)
    phases = rng.uniform(0.0, 2.0 * np.pi, 3)
    amps = rng.uniform(0.5, 1.5, 3)
    t = np.arange(n) / sample_rate
    x = np.zeros(n)
    for f, ph, a in zip(freqs, phases, amps):
        x += a * np.sin(2.0 * np.pi * f * t + ph)
    rms = np.sqrt(np.mean(x**2))
    if rms == 0.0:  # degenerate draw, cannot normalize
        raise ValidationError("generated signal is identically zero")
    return Signal(x / rms)
