"""Reference results the benchmark checks the program against.

These are written from the model definitions, not from topobayes' code, and
use only numpy and scipy, so a change to the package cannot move both sides
of a check at once:

- ``critical_values``: the births of a 0-dimensional sublevel diagram of a
  sampled signal are exactly its local-minimum values, one pair per local
  minimum, and every death is a local-maximum value.
- ``posterior``: the closed-form posterior intensity for a prior mixture,
  with the package's pruning rule (relative weight floor, then the heaviest
  ``max_components`` kept in order).
- ``log_density``: the Poisson process log density of a diagram under a
  Gaussian mixture restricted to the wedge, chunked over components.
"""

import numpy as np
from scipy.special import gammaln, log_ndtr


# the package's default prior and clutter: (weights, means, variances)
DEFAULT_PRIOR = (np.array([1.0]), np.array([[3.0, 3.0]]), np.array([20.0]))
DEFAULT_CLUTTER = (np.array([0.1]), np.array([[3.0, 3.0]]), np.array([20.0]))


def critical_values(values):
    """(local minima, local maxima) of a sampled signal, plateaus collapsed."""
    v = np.asarray(values, dtype=float)
    w = v[np.concatenate([[True], np.diff(v) != 0])]
    if len(w) == 1:
        return w, w
    lo_l = np.concatenate([[np.inf], w[:-1]])
    lo_r = np.concatenate([w[1:], [np.inf]])
    hi_l = np.concatenate([[-np.inf], w[:-1]])
    hi_r = np.concatenate([w[1:], [-np.inf]])
    return w[(w < lo_l) & (w < lo_r)], w[(w > hi_l) & (w > hi_r)]


def diagram_problems(values, points, b_min):
    """Ways a tilted diagram differs from the critical values of its signal."""
    minima, maxima = critical_values(values)
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    births = pts[:, 0] + b_min
    deaths = births + pts[:, 1]
    tol = 1e-12 * max(1.0, float(np.max(np.abs(values))))
    if len(pts) != len(minima):
        return [f"{len(pts)} pairs for {len(minima)} local minima"]
    problems = []
    if np.max(np.abs(np.sort(births) - np.sort(minima))) > tol:
        problems.append("births differ from the local-minimum values")
    levels = np.sort(np.concatenate([maxima, [np.max(values)]]))
    idx = np.clip(np.searchsorted(levels, deaths), 1, len(levels) - 1)
    nearest = np.minimum(np.abs(levels[idx] - deaths), np.abs(levels[idx - 1] - deaths))
    if len(levels) > 1 and np.max(nearest) > tol:
        problems.append("a death is not a local-maximum value")
    if np.any(pts[:, 1] < 0):
        problems.append("negative persistence")
    return problems


def _log_wedge(mb, mp, var):
    s = np.sqrt(var)
    return log_ndtr(mb / s) + log_ndtr(mp / s)


def _log_mixture(x, w, mu, var, chunk=20_000):
    """log sum_j w_j N(x; mu_j, var_j I) / wedge_mass_j for each row of x."""
    x = np.asarray(x, dtype=float).reshape(-1, 2)
    log_c = np.log(w) - np.log(2.0 * np.pi * var) - _log_wedge(mu[:, 0], mu[:, 1], var)
    best = np.full(len(x), -np.inf)
    acc = np.zeros(len(x))
    for lo in range(0, len(w), chunk):
        sl = slice(lo, lo + chunk)
        d2 = (x[:, None, 0] - mu[None, sl, 0]) ** 2 + (x[:, None, 1] - mu[None, sl, 1]) ** 2
        terms = log_c[None, sl] - d2 / (2.0 * var[None, sl])
        top = np.maximum(best, terms.max(axis=1))
        acc = acc * np.exp(best - top) + np.exp(terms - top[:, None]).sum(axis=1)
        best = top
    out = best + np.log(acc)
    inside = (x[:, 0] >= 0) & (x[:, 1] >= 0)
    return np.where(inside, out, -np.inf)


def posterior(prior, observations, alpha, sigma_obs, clutter,
              max_components=100_000, prune_rel_weight=1e-10):
    """Closed-form posterior mixture (w, mu, var) given observed point sets.

    prior and clutter are (w, mu, var) triples; observations is a list of
    (n_i, 2) arrays of tilted points.
    """
    c, mu, var = (np.asarray(a, dtype=float) for a in prior)
    so = float(sigma_obs)
    y = np.concatenate([np.asarray(o, dtype=float).reshape(-1, 2) for o in observations])
    m = len(observations)

    ws, mus, vs = [(1.0 - alpha) * c], [mu], [var]
    if len(y) and alpha > 0:
        v_post = var * so / (var + so)
        mu_post = (so * mu[None, :, :] + var[None, :, None] * y[:, None, :]) / (var[None, :, None] + so)
        d2 = ((y[:, None, :] - mu[None, :, :]) ** 2).sum(axis=2)
        log_q = (
            -np.log(2.0 * np.pi * (var + so))[None, :]
            - d2 / (2.0 * (var + so))[None, :]
            + _log_wedge(mu_post[:, :, 0], mu_post[:, :, 1], v_post[None, :])
            - _log_wedge(mu[:, 0], mu[:, 1], var)[None, :]
            - _log_wedge(y[:, 0], y[:, 1], so)[:, None]
        )
        q = np.exp(log_q)
        denom = np.exp(_log_mixture(y, *clutter)) + alpha * (q @ c)
        scale = np.where(denom > 0, (alpha / m) / np.where(denom > 0, denom, 1.0), 0.0)
        ws.append((scale[:, None] * c[None, :] * q).reshape(-1))
        mus.append(mu_post.reshape(-1, 2))
        vs.append(np.broadcast_to(v_post, (len(y), len(c))).reshape(-1))

    W, MU, V = np.concatenate(ws), np.concatenate(mus), np.concatenate(vs)
    keep = W > prune_rel_weight * W.sum()
    W, MU, V = W[keep], MU[keep], V[keep]
    if len(W) > max_components:
        idx = np.sort(np.argsort(W, kind="stable")[len(W) - max_components:])
        W, MU, V = W[idx], MU[idx], V[idx]
    return W, MU, V


def log_density(points, w, mu, var):
    """Poisson process log density of one diagram under a mixture intensity."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    lam = float(np.sum(w))
    if len(pts) == 0:
        return -lam
    logs = _log_mixture(pts, np.asarray(w, float), np.asarray(mu, float), np.asarray(var, float))
    if np.any(np.isneginf(logs)):
        return float("-inf")
    return float(-lam - gammaln(len(pts) + 1) + logs.sum())


def vote(log_densities, threshold=1.0):
    """Pairwise Bayes-factor voting for two classes: (label, votes)."""
    (a, la), (b, lb) = sorted(log_densities.items())
    log_c = np.log(threshold)
    lbf = 0.0 if la == lb == -np.inf else la - lb
    votes = {a: int(lbf > log_c), b: int(lbf < log_c)}
    winner = min((a, b), key=lambda lab: (-votes[lab], -log_densities[lab], lab))
    return winner, votes
