"""Posterior intensity of a Poisson diagram process given observed diagrams.

The prior process has a Gaussian-mixture intensity on the wedge. Each prior
feature is observed in a diagram with probability alpha, blurred by an
isotropic Gaussian kernel of variance sigma_obs; observed points that belong
to no prior feature are explained by a clutter intensity. Conditioning on m
observed diagrams updates the prior intensity to

    (1 - alpha) * prior(x)
    + (alpha / m) * sum_y  kernel(x; y) * prior(x) / (clutter(y) + alpha * E(y))

where E(y) integrates kernel * prior over the wedge. With wedge-restricted
Gaussian components the update stays inside the mixture family, so it can be
computed in closed form (`posterior_intensity`). The test suite evaluates the
same operator by direct numerical integration, an independent check of the
closed form.

The observation kernel is the wedge-restricted Gaussian centered at the
observed point, i.e. its normalizer is anchored at the observation. Under
this convention the conjugate update below is exact, which the quadrature
route certifies rather than assumes.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, pairs_array
from .intensity import GaussianMixtureIntensity, log_eval_intensity, log_wedge_mass

# a posterior gains prior components per observed point; components below this share of the
# total mass are dropped, then at most this many of the heaviest are kept, bounding model size
_PRUNE_REL_WEIGHT = 1e-10
_MAX_COMPONENTS = 100_000
# (observed point, prior component) pairs per chunk of the weights, whose arrays take a few MB;
# a chunk holds at least one point's K pairs, so past K = 2**16 components it grows with K
_CHUNK_PAIRS = 2 ** 16


def default_clutter() -> GaussianMixtureIntensity:
    """Broad, low-weight background for unassociated observed points."""
    return GaussianMixtureIntensity([0.1], [(3.0, 3.0)], [20.0])


def default_prior() -> GaussianMixtureIntensity:
    """Uninformative single-component prior, unit mass, centered at (3, 3)."""
    return GaussianMixtureIntensity([1.0], [(3.0, 3.0)], [20.0])


@dataclass(frozen=True)
class PosteriorConfig:
    """Observation model for the posterior update.

    alpha      -- probability that a prior feature shows up in a diagram
    sigma_obs  -- variance of the observation kernel around a feature
    clutter    -- intensity of observed points tied to no prior feature
    """

    alpha: float
    sigma_obs: float
    clutter: GaussianMixtureIntensity = field(default_factory=default_clutter)

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ValidationError("alpha must lie in [0, 1]")
        # far past any kernel width: keeps the update's products of variances and means finite
        if not 0 < self.sigma_obs <= 1e300:
            raise ValidationError("sigma_obs must lie in (0, 1e300]")


def _flatten_observations(observations) -> np.ndarray:
    """Stack all observed points, preserving (diagram, point) order."""
    if len(observations) == 0:
        raise ValidationError("need at least one observed diagram")
    Y = np.concatenate([pairs_array(d.points, "observed points") for d in observations])
    if Y.size and Y.min() < 0:
        raise ValidationError("observed points must lie in the wedge")
    return Y


def _conjugate_means(mu, var, y, so, out=None):
    """Means of the conjugate products of components (mu, var) with observed points y, in out."""
    out = np.multiply(y, var[..., None], out=out)  # (var y + so mu) / (var + so), in place
    return np.divide(np.add(out, so * mu, out=out), var[..., None] + so, out=out)


def posterior_intensity(prior: GaussianMixtureIntensity, observations,
                        cfg: PosteriorConfig) -> GaussianMixtureIntensity:
    """Closed-form Gaussian-mixture posterior intensity.

    Two groups of components are produced, in a deterministic order:

    (i)  every prior component j, reweighted by (1 - alpha) * c_j, for the
         features that went unobserved;
    (ii) for every observed point y (diagrams in order, points in order) and
         every prior component j, the conjugate product component with
             variance  var_j * sigma_obs / (var_j + sigma_obs)
             mean      (sigma_obs * mu_j + var_j * y) / (var_j + sigma_obs)
             weight    (alpha / m) * c_j q_j(y) / (clutter(y) + alpha * sum_k c_k q_k(y))
         where q_k(y) is the wedge-corrected Gaussian evidence of y under
         component k.

    Components below 1e-10 of the total weight are dropped, then the 100,000
    heaviest are kept in their original order. Only the weights of all T x K
    (point, component) pairs are computed, in one pass of at most 2**16 pairs at a
    time (one point's K pairs where K > 2**16), into one array of 8 B per pair;
    means and variances are built for the kept components alone, in place in the
    output arrays. Picking the 100,000 heaviest holds 17 B more per pair above the
    relative cut. Pure function; the output does not depend on how the work is
    split or on BLAS's thread count. An update that would overflow is a ValidationError.
    """
    Y = _flatten_observations(observations)
    K, mu, var, so = prior.n_components, prior.means, prior.variances, cfg.sigma_obs
    # var * sigma_obs, sigma_obs * |mu| and var * |y| at their largest: an overflow guts the update
    with np.errstate(over="ignore"):
        big = var.max(initial=0.0) * np.array([so, Y.max(initial=0.0)])  # Y is in the wedge
        if not np.all(np.isfinite([*big, so * np.abs(mu).max(initial=0.0)])):
            raise ValidationError("sigma_obs, prior and points overflow the update's products")
    v_post = var * so / (var + so)                                        # (K,)
    # the pairs' arrays go with the frame that picks the kept components, before those are built
    weights, keep = _kept_weights(prior, Y, cfg, v_post, len(observations))
    n = np.searchsorted(keep, K)  # kept components of group (i) come first
    t, k = np.divmod(keep[n:] - K, K)
    means, variances = np.empty((len(keep), 2)), np.empty(len(keep))
    means[:n], variances[:n] = mu[keep[:n]], var[keep[:n]]  # group (i): at most K rows
    np.take(v_post, k, out=variances[n:])
    _conjugate_means(mu[k], var[k], np.take(Y, t, axis=0, out=means[n:]), so, out=means[n:])
    del keep, t, k  # the kept components' indices go before the mixture builds its constants
    return GaussianMixtureIntensity(weights, means, variances)


def _kept_weights(prior, Y, cfg, v_post, m) -> tuple:
    """The weights of the components posterior_intensity keeps, and their indices in its output
    order; of all pairs only the weights are computed, a chunk of pairs at a time."""
    K, T = prior.n_components, len(Y)
    c, mu, var, so = prior.weights, prior.means, prior.variances, cfg.sigma_obs
    update = T > 0 and K > 0 and cfg.alpha > 0
    W = np.empty(K + T * K if update else K)  # weights in output order: (i), then (ii) by y
    W[:K] = (1.0 - cfg.alpha) * c
    if update:
        Q = W[K:].reshape(T, K)  # holds q until it is turned into the weights
        # evidence of y under component k, in log space: the unrestricted
        # Gaussian product evidence times the ratio of wedge masses coming
        # from the three renormalized-restricted factors
        log_2pi_v = np.log(2.0 * np.pi * (var + so))
        log_mass_prior = log_wedge_mass(mu[:, 0], mu[:, 1], var)
        log_mass_y = log_wedge_mass(Y[:, 0], Y[:, 1], so)
        with np.errstate(over="ignore"):  # all at once: its bytes cannot move with chunks
            clutter = np.exp(log_eval_intensity(cfg.clutter, Y))  # +inf is its float limit
        step = max(1, _CHUNK_PAIRS // K)
        for lo in range(0, T, step):
            y = Y[lo:lo + step]
            mu_post = _conjugate_means(mu, var, y[:, None, :], so)         # (rows,K,2)
            with np.errstate(over="ignore"):  # a pair too far apart for d2 has q = 0, its limit
                d2 = ((y[:, None, :] - mu[None, :, :]) ** 2).sum(axis=2)  # (rows,K)
            log_q = (
                -log_2pi_v[None, :]
                - d2 / (2.0 * (var + so))[None, :]
                + log_wedge_mass(mu_post[:, :, 0], mu_post[:, :, 1], v_post[None, :])
                - log_mass_prior[None, :]
                - log_mass_y[lo:lo + step, None]
            )
            q = np.exp(log_q, out=Q[lo:lo + step])
            # numpy's pairwise sum along each row, in an order set by K alone: neither the chunking
            # nor BLAS's threads can move a denominator's last bit, as a matrix product's could
            denom = clutter[lo:lo + step] + cfg.alpha * np.multiply(q, c, out=log_q).sum(axis=1)
            # a point with zero clutter and zero evidence carries no update; where a subnormal denom
            # overflows scale * c, the weights, each at most 1 / m, are c q / denom times alpha / m
            with np.errstate(over="ignore"):
                scale = np.divide(cfg.alpha / m, denom, out=np.zeros(len(y)), where=denom > 0)
                far = np.isinf(scale * c.max())
                np.multiply(scale[:, None] * c, q, out=q, where=~far[:, None])
                q[far] = cfg.alpha / m * (c * q[far] / denom[far, None])

    kept = W > _PRUNE_REL_WEIGHT * W.sum()
    cut = np.count_nonzero(kept) - _MAX_COMPONENTS
    # if too many are left, the heaviest of them, in their original order
    heavy = np.sort(np.argpartition(W[kept], cut)[cut:]) if cut > 0 else slice(None)
    keep = np.flatnonzero(kept)[heavy]
    return W[keep], keep
