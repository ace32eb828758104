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
computed in closed form (`posterior_intensity`); `posterior_quadrature`
evaluates the same operator by direct numerical integration and serves as an
independent check of the closed form.

The observation kernel is the wedge-restricted Gaussian centered at the
observed point, i.e. its normalizer is anchored at the observation. Under
this convention the conjugate update below is exact, which the quadrature
route certifies rather than assumes.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .intensity import (
    GaussianMixtureIntensity,
    eval_intensity,
    log_wedge_mass,
    restricted_normal_pdf,
    wedge_rectangle,
)


def default_clutter() -> GaussianMixtureIntensity:
    """Broad, low-weight background for unassociated observed points."""
    return GaussianMixtureIntensity.single(0.1, (3.0, 3.0), 20.0)


def default_prior() -> GaussianMixtureIntensity:
    """Uninformative single-component prior, unit mass, centered at (3, 3)."""
    return GaussianMixtureIntensity.single(1.0, (3.0, 3.0), 20.0)


@dataclass(frozen=True)
class PosteriorConfig:
    """Observation model for the posterior update.

    alpha      -- probability that a prior feature shows up in a diagram
    sigma_obs  -- variance of the observation kernel around a feature
    clutter    -- intensity of observed points tied to no prior feature
    max_components / prune_rel_weight -- mixture size controls: components
        below prune_rel_weight times the total mass are dropped, then the
        smallest-weight components are pruned down to max_components
    """

    alpha: float
    sigma_obs: float
    clutter: GaussianMixtureIntensity = field(default_factory=default_clutter)
    max_components: int = 100_000
    prune_rel_weight: float = 1e-10

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ValidationError("alpha must lie in [0, 1]")
        if not 0 < self.sigma_obs < np.inf:
            raise ValidationError("sigma_obs must be positive and finite")
        if self.max_components < 1:
            raise ValidationError("max_components must be positive")


def _flatten_observations(observations) -> np.ndarray:
    """Stack all observed points, preserving (diagram, point) order."""
    if len(observations) == 0:
        raise ValidationError("need at least one observed diagram")
    chunks = []
    for d in observations:
        pts = np.asarray(d.points, dtype=float).reshape(-1, 2)
        if pts.size and pts.min() < 0:
            raise ValidationError("observed points must lie in the wedge")
        chunks.append(pts)
    return np.concatenate(chunks, axis=0) if chunks else np.zeros((0, 2))


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

    Components are pruned per the config. Pure function; the output order is
    independent of any evaluation schedule.
    """
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

        denom = eval_intensity(cfg.clutter, Y) + cfg.alpha * (q @ c)      # (T,)
        safe = denom > 0  # a point with zero clutter and zero evidence carries no update
        scale = np.zeros(T)
        scale[safe] = (cfg.alpha / m) / denom[safe]

        w_new = scale[:, None] * c[None, :] * q                           # (T,K)
        out_w.append(w_new.reshape(-1))
        out_mu.append(mu_post.reshape(-1, 2))
        out_v.append(np.broadcast_to(v_post, (T, K)).reshape(-1))

    W = np.concatenate(out_w)
    MU = np.concatenate(out_mu, axis=0)
    V = np.concatenate(out_v)
    return _pruned_mixture(W, MU, V, cfg)


def _pruned_mixture(W, MU, V, cfg) -> GaussianMixtureIntensity:
    total = W.sum()
    keep = W > cfg.prune_rel_weight * total
    W, MU, V = W[keep], MU[keep], V[keep]
    if len(W) > cfg.max_components:
        # keep the heaviest components, preserving their original order
        idx = np.sort(np.argpartition(W, len(W) - cfg.max_components)[len(W) - cfg.max_components:])
        W, MU, V = W[idx], MU[idx], V[idx]
    if len(W) == 0:
        return GaussianMixtureIntensity.empty()
    return GaussianMixtureIntensity(W, MU, V)


def quadrature_nodes(bounds, resolution):
    """Cell-center axes of the evaluation grid used by posterior_quadrature."""
    b_lo, p_lo, b_hi, p_hi = wedge_rectangle(bounds)
    nb, npts = (resolution, resolution) if isinstance(resolution, int) else resolution
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
    nb, npts = (resolution, resolution) if isinstance(resolution, int) else resolution
    if min(nb, npts) < 32:
        raise ValidationError("resolution below 32 is too coarse for oracle use")
    b_axis, p_axis = quadrature_nodes(bounds, (nb, npts))
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
