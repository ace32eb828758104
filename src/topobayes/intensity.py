"""Gaussian-mixture intensities of Poisson point processes on the wedge.

All intensities live on the closed quadrant W = {(b, p) : b >= 0, p >= 0} of
birth-persistence space. Mixture components are isotropic Gaussians truncated
to W and renormalized to unit mass there, so a component's weight is the
expected number of points it contributes and the total mass of a mixture is
the plain sum of its weights.

All evaluation goes through one log-space kernel sum, log_eval_intensity, one
loop for every mixture, the empty one's too; eval_intensity is its exp. It takes
one matrix product per chunk of 2**17 / K rows, but at least two, into one work
array reused by every chunk: 1 MB up to K = 2**16, and two rows of K above. Each
point's (b, p, b^2 + p^2, 1) row and far test are made once per block of whole
chunks, 2**15 points of 5 values or one chunk, which outweighs the array below
K = 16: made per chunk, their small numpy calls would hold the GIL that
cross_validate's fold threads queue for. Per-component constants are computed
once, when the mixture is built. All is immutable or pure, so thread-safe.
"""

from dataclasses import dataclass

import numpy as np

from .errors import MAX_SIZE, ValidationError, pairs_array

# rows per chunk of log_eval_intensity: a (rows, K) work array of 2**17 doubles (1 MB, in a
# core's L2 beside the (4, K) coefficients), but two rows at least: one takes BLAS's vector kernel
_CHUNK_ELEMENTS = 2 ** 17


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

    The empty mixture (K = 0), GaussianMixtureIntensity([], [], []), is zero everywhere.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        v = np.atleast_1d(np.asarray(self.variances, dtype=float))
        mu = pairs_array(self.means, "means")
        if not len(w) == len(mu) == len(v):
            raise ValidationError("weights, (b, p) means and variances must have equal length")
        # a finite total mass implies finite weights, and keeps a model's lambda finite;
        # a sum that overflows, or is inf - inf, is rejected here rather than warned about
        with np.errstate(over="ignore", invalid="ignore"):
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
            coef = np.empty((4, len(w)))  # rows written in place: a stack would copy each row
            s = np.divide(-0.5, v, out=coef[2])
            np.multiply(-2.0 * s, mu.T, out=coef[:2])
            coef[3] = s * (mu ** 2).sum(axis=1) + log_norm
        # finite parameters can still overflow a log kernel, which would score NaN everywhere
        if not np.all(np.isfinite(coef)):
            raise ValidationError("mixture component too extreme: its log kernel is not finite")
        object.__setattr__(self, "_log_kernel_constants",
                           (coef, log_norm, max(coef.max(initial=0.0), -coef.min(initial=0.0))))

    @classmethod
    def single(cls, weight, mean, var) -> "GaussianMixtureIntensity":
        return cls(np.array([weight]), np.array([mean], dtype=float), np.array([var]))

    @property
    def n_components(self) -> int:
        return len(self.weights)


def log_eval_intensity(g: GaussianMixtureIntensity, x):
    """log of the mixture intensity at x, stable far below underflow.

    x may be one point or an array of shape (..., 2); returns a float or an array of shape
    x.shape[:-1]: -inf outside the wedge and for the empty mixture, else NaN at a NaN coordinate.
    Each chunk of rows takes one matrix product against the mixture's coefficients, then a
    max-shifted log-sum-exp per row; the empty mixture takes the same loop, its rows summing no
    term. A row whose product could overflow takes each kernel in its own form instead. Rows and
    that test are built per block of whole chunks, so their small calls hold the GIL once a block.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (2,):  # a reshape to pairs would silently regroup or drop coordinates
        raise ValidationError("points must have shape (..., 2)")
    pts = x.reshape(-1, 2)
    out = np.empty(len(pts))  # every row is written by the loop
    coef, log_norm, reach = g._log_kernel_constants
    step = max(2, _CHUNK_ELEMENTS // max(1, g.n_components))
    block = max(step, 2 ** 15 // step * step)  # whole chunks, so the same products
    # every chunk's product goes into this one array; a new array per chunk would be made
    # while the last one is still alive, doubling the peak
    work = np.empty((min(step, len(pts)), g.n_components))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(0, len(pts), block):
            p, o = pts[start:start + block], out[start:start + block]
            rows = np.column_stack([p, (p * p).sum(axis=1), np.ones(len(p))])
            # |b|, |p| <= max(b^2 + p^2, 1), so this bounds every term of a row's product: a
            # far row, where a term could pass 2**1021 and a sum of four such overflow, has
            # its terms overwritten by log_norm - |x - mu|^2 / (2 var), -inf at worst
            far = np.maximum(rows[:, 2], 1.0) * reach > 2.0 ** 1021
            for lo in range(0, len(p), step):
                r, f = rows[lo:lo + step], far[lo:lo + step]
                t = np.matmul(r, coef, out=work[:len(r)])
                if f.any():
                    t[f] = log_norm - ((r[f, None, :2] - g.means) ** 2).sum(axis=2) / (
                        2.0 * g.variances)
                # |x - mu|^2 >= 0 caps each term at log_norm; cancellation can overshoot
                np.minimum(t, log_norm, out=t)
                # a finite peak: a row of -inf terms sums to 0, scoring -inf, not NaN
                peak = t.max(axis=1, initial=np.finfo(float).min)
                t -= peak[:, None]
                np.exp(t, out=t)
                np.add(peak, np.log(t.sum(axis=1)), out=o[lo:lo + step])
    out[(pts[:, 0] < 0) | (pts[:, 1] < 0)] = -np.inf
    return float(out[0]) if x.ndim == 1 else out.reshape(x.shape[:-1])


def eval_intensity(g: GaussianMixtureIntensity, x):
    """Mixture intensity at x: sum_j c_j times the wedge-restricted N(mu_j, var_j*I) density.

    Shapes and NaN as log_eval_intensity; exactly 0 outside the wedge, +inf past the float range.
    """
    with np.errstate(over="ignore"):  # +inf is the intensity's float limit, not a fault
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

    bounds is (b_lo, p_lo, b_hi, p_hi); resolution the (nb, np) pair of axis
    sizes, each at least 2. Samples the log intensity l on inclusive linspace
    axes b_axis, p_axis and scales it in log space, exp(l - max l), into [0, 1]:
    the peak cell is 1 even where the intensity under- or overflows, and only the
    empty mixture's field is zeros. Entry [i, j] is the scaled value at
    (b_axis[i], p_axis[j]).
    """
    b_lo, p_lo, b_hi, p_hi = wedge_rectangle(bounds)
    nb, npts = resolution
    # the (nb, npts, 2) points are the largest array, checked before any array is made
    if not (2 <= nb and 2 <= npts and nb * npts * 16 <= MAX_SIZE):
        raise ValidationError("grid resolution must be at least 2x2, and its grid fit an array")
    b_axis, p_axis = np.linspace(b_lo, b_hi, nb), np.linspace(p_lo, p_hi, npts)
    grid = np.stack(np.meshgrid(b_axis, p_axis, indexing="ij"), axis=-1)
    logs = log_eval_intensity(g, grid)
    return np.exp(logs - logs.max(initial=np.finfo(float).min))
