"""Gaussian-mixture intensities of Poisson point processes on the wedge.

All intensities live on the closed quadrant W = {(b, p) : b >= 0, p >= 0} of
birth-persistence space. Mixture components are isotropic Gaussians truncated
to W and renormalized to unit mass there, so a component's weight is the
expected number of points it contributes and the total mass of a mixture is
the plain sum of its weights.

Evaluation is vectorized over points; a log-space variant is provided for
densities far below the double-precision underflow threshold. Everything is
immutable and pure, hence thread-safe.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, logsumexp, ndtr

from .errors import ValidationError


def wedge_mass(mean_b, mean_p, var):
    """Mass of the isotropic Gaussian N((mean_b, mean_p), var*I) on the wedge.

    The axis-aligned covariance factorizes the integral into a product of
    two one-sided normal CDFs, Phi(mean_b / s) * Phi(mean_p / s) with
    s = sqrt(var). Always in (0, 1]; tends to 1 as the mean moves deep into
    the wedge. Broadcasts over array arguments.
    """
    s = np.sqrt(var)
    return ndtr(np.asarray(mean_b, dtype=float) / s) * ndtr(
        np.asarray(mean_p, dtype=float) / s
    )


def log_wedge_mass(mean_b, mean_p, var):
    """log of wedge_mass, safe for means far outside the wedge."""
    s = np.sqrt(var)
    return log_ndtr(np.asarray(mean_b, dtype=float) / s) + log_ndtr(
        np.asarray(mean_p, dtype=float) / s
    )


def restricted_normal_pdf(x, mean, var):
    """Density of the wedge-restricted Gaussian at x.

    Zero outside the wedge; inside, the isotropic normal density divided by
    its wedge mass, so the function integrates to one over the wedge. x may
    be a single (b, p) point or an array of shape (..., 2).
    """
    if var <= 0:
        raise ValidationError("variance must be positive")
    x = np.asarray(x, dtype=float)
    mean = np.asarray(mean, dtype=float)
    scalar = x.ndim == 1
    pts = x.reshape(-1, 2)
    inside = (pts[:, 0] >= 0) & (pts[:, 1] >= 0)
    d2 = ((pts - mean) ** 2).sum(axis=1)
    dens = np.exp(-d2 / (2.0 * var)) / (
        2.0 * np.pi * var * wedge_mass(mean[0], mean[1], var)
    )
    out = np.where(inside, dens, 0.0)
    return float(out[0]) if scalar else out.reshape(x.shape[:-1])


@dataclass(frozen=True, eq=False)
class GaussianMixtureIntensity:
    """Weighted sum of wedge-restricted isotropic Gaussians.

    weights   -- (K,) strictly positive expected-count masses
    means     -- (K, 2) component centers in (birth, persistence) coordinates
    variances -- (K,) strictly positive isotropic variances (covariance var*I)

    An empty mixture (K = 0) is allowed and evaluates to zero everywhere.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        v = np.atleast_1d(np.asarray(self.variances, dtype=float))
        try:
            mu = np.asarray(self.means, dtype=float).reshape(len(w), 2)
        except ValueError:
            raise ValidationError("means must have one (b, p) pair per weight") from None
        if len(v) != len(w):
            raise ValidationError("weights and variances must have equal length")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(mu)) and np.all(np.isfinite(v))):
            raise ValidationError("mixture parameters must be finite")
        if np.any(w <= 0):
            raise ValidationError("component weights must be strictly positive")
        if np.any(v <= 0):
            raise ValidationError("component variances must be strictly positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "variances", v)

    @classmethod
    def empty(cls) -> "GaussianMixtureIntensity":
        return cls(np.zeros(0), np.zeros((0, 2)), np.zeros(0))

    @classmethod
    def single(cls, weight, mean, var) -> "GaussianMixtureIntensity":
        return cls(np.array([weight]), np.array([mean], dtype=float), np.array([var]))

    @property
    def n_components(self) -> int:
        return len(self.weights)


def eval_intensity(g: GaussianMixtureIntensity, x):
    """Mixture intensity at x: sum_j c_j * restricted_normal_pdf(x; mu_j, var_j).

    x may be one point or an array of shape (..., 2); returns a float or an
    array of shape x.shape[:-1]. Exactly zero outside the wedge.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 1
    pts = x.reshape(-1, 2)
    if g.n_components == 0:
        out = np.zeros(len(pts))
    else:
        d2 = ((pts[:, None, :] - g.means[None, :, :]) ** 2).sum(axis=2)
        norm = 2.0 * np.pi * g.variances * wedge_mass(
            g.means[:, 0], g.means[:, 1], g.variances
        )
        out = (np.exp(-d2 / (2.0 * g.variances)) / norm) @ g.weights
        inside = (pts[:, 0] >= 0) & (pts[:, 1] >= 0)
        out = np.where(inside, out, 0.0)
    return float(out[0]) if scalar else out.reshape(x.shape[:-1])


def log_eval_intensity(g: GaussianMixtureIntensity, x):
    """log of eval_intensity, evaluated stably via logsumexp.

    Returns -inf outside the wedge and for the empty mixture.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 1
    pts = x.reshape(-1, 2)
    if g.n_components == 0:
        out = np.full(len(pts), -np.inf)
    else:
        d2 = ((pts[:, None, :] - g.means[None, :, :]) ** 2).sum(axis=2)
        log_comp = (
            -np.log(2.0 * np.pi * g.variances)
            - d2 / (2.0 * g.variances)
            - log_wedge_mass(g.means[:, 0], g.means[:, 1], g.variances)
        )
        out = logsumexp(log_comp + np.log(g.weights), axis=1)
        inside = (pts[:, 0] >= 0) & (pts[:, 1] >= 0)
        out = np.where(inside, out, -np.inf)
    return float(out[0]) if scalar else out.reshape(x.shape[:-1])


def total_mass(g: GaussianMixtureIntensity) -> float:
    """Expected number of points: the sum of component weights.

    Exact because every restricted component integrates to one on the wedge.
    """
    return float(g.weights.sum())


def wedge_rectangle(bounds):
    """Validated (b_lo, p_lo, b_hi, p_hi) floats of a rectangle inside the wedge."""
    b_lo, p_lo, b_hi, p_hi = (float(v) for v in bounds)
    if b_lo < 0 or p_lo < 0:
        raise ValidationError("grid bounds must lie inside the wedge")
    if not (b_hi > b_lo and p_hi > p_lo):
        raise ValidationError("grid bounds are degenerate")
    return b_lo, p_lo, b_hi, p_hi


def grid_axes(bounds, resolution):
    """Inclusive linspace axes for a rectangle inside the wedge.

    bounds is (b_lo, p_lo, b_hi, p_hi); resolution an int or (nb, np) pair,
    each at least 2. Returns (b_axis, p_axis).
    """
    b_lo, p_lo, b_hi, p_hi = wedge_rectangle(bounds)
    if isinstance(resolution, int):
        nb = npts = resolution
    else:
        nb, npts = resolution
    if nb < 2 or npts < 2:
        raise ValidationError("grid resolution must be at least 2x2")
    return np.linspace(b_lo, b_hi, nb), np.linspace(p_lo, p_hi, npts)


def intensity_grid(g: GaussianMixtureIntensity, bounds, resolution) -> np.ndarray:
    """Scaled intensity map over a rectangle inside the wedge.

    Samples the intensity on the grid_axes grid and divides by its maximum,
    giving values in [0, 1]; an identically zero field is returned as zeros.
    Entry [i, j] is the scaled intensity at (b_axis[i], p_axis[j]).
    """
    b_axis, p_axis = grid_axes(bounds, resolution)
    grid = np.stack(np.meshgrid(b_axis, p_axis, indexing="ij"), axis=-1)
    vals = eval_intensity(g, grid)
    peak = vals.max()
    if peak <= 0:
        return np.zeros_like(vals)
    return vals / peak


def mixture_to_json(g: GaussianMixtureIntensity) -> dict:
    """Wire format: {"components": [{"w": c, "mu": [b, p], "var": s}, ...]}."""
    return {
        "components": [
            {"w": float(w), "mu": [float(m[0]), float(m[1])], "var": float(v)}
            for w, m, v in zip(g.weights, g.means, g.variances)
        ]
    }


def mixture_from_json(obj) -> GaussianMixtureIntensity:
    if not isinstance(obj, dict) or not isinstance(obj.get("components"), list):
        raise ValidationError("mixture JSON needs a 'components' list")
    comps = obj["components"]
    if len(comps) == 0:
        return GaussianMixtureIntensity.empty()
    try:
        w = np.array([float(c["w"]) for c in comps])
        mu = np.array([[float(c["mu"][0]), float(c["mu"][1])] for c in comps])
        v = np.array([float(c["var"]) for c in comps])
    except (KeyError, TypeError, ValueError, IndexError):
        raise ValidationError("mixture JSON has malformed components") from None
    return GaussianMixtureIntensity(w, mu, v)
