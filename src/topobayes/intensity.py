"""Gaussian-mixture intensities of Poisson point processes on the wedge.

All intensities live on the closed quadrant W = {(b, p) : b >= 0, p >= 0} of
birth-persistence space. Mixture components are isotropic Gaussians truncated
to W and renormalized to unit mass there, so a component's weight is the
expected number of points it contributes and the total mass of a mixture is
the plain sum of its weights.

All evaluation goes through one log-space kernel sum, log_eval_intensity;
eval_intensity is its exp. It takes one matrix product per chunk of rows,
into one work array of chunk x K that every chunk reuses, so its working
memory is about 2 MB for any number of points. Per-component constants are
computed once, when the mixture is built. Everything is immutable or pure,
hence thread-safe.
"""

from dataclasses import dataclass

import numpy as np

from .errors import MAX_SIZE, ValidationError, pairs_array

# rows per chunk of log_eval_intensity: its (rows, K) work array stays near
# 2**18 doubles (2 MB, within a core's L2 cache) whatever K is
_CHUNK_ELEMENTS = 2 ** 18


def log_wedge_mass(mean_b, mean_p, var):
    """log of the mass of the isotropic Gaussian N((mean_b, mean_p), var*I) on the wedge.

    The axis-aligned covariance factorizes the integral into a product of
    two one-sided normal CDFs, Phi(mean_b / s) * Phi(mean_p / s) with
    s = sqrt(var), so the log is a sum of log_ndtr terms: always <= 0, tends
    to 0 as the mean moves deep into the wedge, and stays finite far outside
    it, where the mass itself underflows. Broadcasts over array arguments.
    """
    from scipy.special import log_ndtr  # imported here: most of import time; generate, pd skip it
    s = np.sqrt(var)
    return log_ndtr(np.asarray(mean_b, dtype=float) / s) + log_ndtr(
        np.asarray(mean_p, dtype=float) / s
    )


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
        mu = pairs_array(self.means, "means")
        if len(mu) != len(w):
            raise ValidationError("means must have one (b, p) pair per weight")
        if len(v) != len(w):
            raise ValidationError("weights and variances must have equal length")
        # a finite total mass implies finite weights, and keeps a model's lambda finite;
        # a sum that overflows is rejected here rather than warned about
        with np.errstate(over="ignore"):
            mass = w.sum()
        if not (np.isfinite(mass) and np.all(np.isfinite(mu)) and np.all(np.isfinite(v))):
            raise ValidationError("mixture parameters and total mass must be finite")
        if np.any(w <= 0):
            raise ValidationError("component weights must be strictly positive")
        if np.any(v <= 0):
            raise ValidationError("component variances must be strictly positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "variances", v)
        # (4, K) coefficients of each log kernel, log_norm - |x - mu|^2 / (2v), in
        # (b, p, b^2 + p^2, 1); log_norm, the kernel's maximum (at mu); the largest |coefficient|
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is rejected below
            log_norm = (np.log(w) - np.log(2.0 * np.pi * v)
                        - log_wedge_mass(mu[:, 0], mu[:, 1], v))
            s = -0.5 / v
            coef = np.vstack([-2.0 * s * mu.T, s,
                              s * (mu ** 2).sum(axis=1) + log_norm])
        # finite parameters can still overflow a log kernel, which would score NaN everywhere
        if not np.all(np.isfinite(coef)):
            raise ValidationError("mixture component too extreme: its log kernel is not finite")
        object.__setattr__(self, "_log_kernel_constants",
                           (coef, log_norm, max(coef.max(initial=0.0), -coef.min(initial=0.0))))

    @classmethod
    def empty(cls) -> "GaussianMixtureIntensity":
        return cls(np.zeros(0), np.zeros((0, 2)), np.zeros(0))

    @classmethod
    def single(cls, weight, mean, var) -> "GaussianMixtureIntensity":
        return cls(np.array([weight]), np.array([mean], dtype=float), np.array([var]))

    @property
    def n_components(self) -> int:
        return len(self.weights)


def log_eval_intensity(g: GaussianMixtureIntensity, x):
    """log of the mixture intensity at x, stable far below underflow.

    x may be one point or an array of shape (..., 2); returns a float or an
    array of shape x.shape[:-1]. -inf outside the wedge and for the empty
    mixture. Each chunk of rows takes one matrix product against the
    mixture's coefficients, then a max-shifted log-sum-exp per row. A row
    whose product could overflow takes each kernel in its own form instead.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (2,):  # a reshape to pairs would silently regroup or drop coordinates
        raise ValidationError("points must have shape (..., 2)")
    pts = x.reshape(-1, 2)
    out = np.full(len(pts), -np.inf)
    if g.n_components:
        coef, log_norm, reach = g._log_kernel_constants
        step = max(1, _CHUNK_ELEMENTS // g.n_components)
        # every chunk's product goes into this one array; a new array per chunk would be made
        # while the last one is still alive, doubling the peak
        work = np.empty((min(step, len(pts)), g.n_components))
        for lo in range(0, len(pts), step):
            p = pts[lo:lo + step]
            # a far row, where a term of the product could pass 2**1021 and a sum of four such
            # overflow, has its terms overwritten: log_norm - |x - mu|^2 / (2 var), -inf at worst
            with np.errstate(over="ignore", invalid="ignore"):
                rows = np.column_stack([p, (p * p).sum(axis=1), np.ones(len(p))])
                far = np.abs(rows).max(axis=1) * reach > 2.0 ** 1021
                t = np.matmul(rows, coef, out=work[:len(p)])
                if far.any():
                    t[far] = log_norm - ((p[far, None] - g.means) ** 2).sum(axis=2) / (
                        2.0 * g.variances)
            # |x - mu|^2 >= 0 caps each term at log_norm; cancellation can overshoot
            np.minimum(t, log_norm, out=t)
            # a peak held finite: a row whose terms are all -inf sums to 0, scoring -inf, not NaN
            peak = np.maximum(t.max(axis=1), np.finfo(float).min)
            t -= peak[:, None]
            np.exp(t, out=t)
            with np.errstate(divide="ignore"):
                out[lo:lo + step] = peak + np.log(t.sum(axis=1))
        out[(pts[:, 0] < 0) | (pts[:, 1] < 0)] = -np.inf
    return float(out[0]) if x.ndim == 1 else out.reshape(x.shape[:-1])


def eval_intensity(g: GaussianMixtureIntensity, x):
    """Mixture intensity at x: sum_j c_j times the wedge-restricted N(mu_j, var_j*I) density.

    Same shapes as log_eval_intensity; exactly zero outside the wedge.
    """
    return np.exp(log_eval_intensity(g, x))


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
    # a corner's b^2 + p^2 must be finite, as a diagram point's is: scoring uses it
    if not (b_lo < b_hi and p_lo < p_hi and b_hi * b_hi + p_hi * p_hi < np.inf):
        raise ValidationError("grid bounds must be non-degenerate, with b^2 + p^2 finite")
    return b_lo, p_lo, b_hi, p_hi


def intensity_grid(g: GaussianMixtureIntensity, bounds, resolution) -> np.ndarray:
    """Scaled intensity map over a rectangle inside the wedge.

    bounds is (b_lo, p_lo, b_hi, p_hi); resolution an int or (nb, np) pair,
    each at least 2. Samples the intensity on inclusive linspace axes
    b_axis, p_axis and divides by its maximum, giving values in [0, 1]; an
    identically zero field is returned as zeros. Entry [i, j] is the scaled
    intensity at (b_axis[i], p_axis[j]).
    """
    b_lo, p_lo, b_hi, p_hi = wedge_rectangle(bounds)
    if isinstance(resolution, int):
        nb = npts = resolution
    else:
        nb, npts = resolution
    # the (nb, npts, 2) points are the largest array, checked before any array is made
    if not (2 <= nb and 2 <= npts and nb * npts * 16 <= MAX_SIZE):
        raise ValidationError("grid resolution must be at least 2x2, and its grid fit an array")
    b_axis, p_axis = np.linspace(b_lo, b_hi, nb), np.linspace(p_lo, p_hi, npts)
    grid = np.stack(np.meshgrid(b_axis, p_axis, indexing="ij"), axis=-1)
    vals = eval_intensity(g, grid)
    peak = vals.max()
    if peak <= 0:
        return np.zeros_like(vals)
    return vals / peak
