"""The quadrature route to the posterior, kept as an oracle for the closed form.

restricted_normal_pdf -- one wedge-restricted Gaussian density, the
                         one-component case of eval_intensity
quadrature_nodes      -- cell-center axes of posterior_quadrature's grid
posterior_quadrature  -- the posterior intensity operator evaluated by direct
                         numerical integration, independent of the
                         conjugate-update algebra of posterior_intensity
"""

import numpy as np

from topobayes import GaussianMixtureIntensity, PosteriorConfig, ValidationError, eval_intensity
from topobayes.intensity import wedge_rectangle
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
