"""Every function topobayes exports, called with numeric edge values: each call returns a value
its docstring documents or raises ValidationError, and none warns.

Each numeric argument, and each number inside an array, a diagram or a mixture, is drawn from
nan, +-inf, 0, -1, 1.5 and 1e308, and from 2, a plain value that lets a call pass its checks so
that the edges in its other arguments reach the arithmetic. A diagram, mixture or config built
from the numbers is built inside the call, so its own refusal counts as the call's. Arguments of
a wrong Python type, such as a string for a number, are out of scope: the functions document
numbers and arrays, and refusing every other type is not their contract.
"""

import inspect
import itertools
import math
import warnings

import numpy as np
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import topobayes
from topobayes import (
    GaussianMixtureIntensity,
    LabeledDataset,
    PersistenceDiagram,
    PosteriorConfig,
    Signal,
    ValidationError,
    add_noise,
    bottleneck_distance,
    classify,
    cross_validate,
    default_clutter,
    default_prior,
    diagram_log_density,
    generate_band_signal,
    intensity_grid,
    log_bayes_factor,
    log_eval_intensity,
    posterior_intensity,
    stratified_folds,
    sublevel_pd,
    tilt,
    total_mass,
    untilt,
)

NAN, INF = math.nan, math.inf
_NUMBER = st.sampled_from([NAN, INF, -INF, 0, -1, 1.5, 1e308, 2])
_PAIRS = st.lists(st.tuples(_NUMBER, _NUMBER), max_size=3)
# a diagram's points and b_min; a mixture's weights, (b, p) means and variances, of K components
_DIAGRAM = st.tuples(_PAIRS, _NUMBER)
_MIXTURE = st.integers(0, 2).flatmap(lambda k: st.tuples(
    st.lists(_NUMBER, min_size=k, max_size=k),
    st.lists(st.tuples(_NUMBER, _NUMBER), min_size=k, max_size=k),
    st.lists(_NUMBER, min_size=k, max_size=k)))
_CONFIG = st.tuples(_NUMBER, _NUMBER)  # alpha, sigma_obs
_DATASET = st.tuples(st.lists(_DIAGRAM, min_size=4, max_size=4), _NUMBER)  # a, a, b, b; k_folds


def diagram(points, b_min):
    return PersistenceDiagram(np.array(points, dtype=float).reshape(-1, 2), b_min)


def mixture(weights, means, variances):
    return GaussianMixtureIntensity(weights, np.array(means, dtype=float).reshape(-1, 2),
                                    variances)


def dataset(diagrams, k_folds):
    return LabeledDataset(tuple(zip((diagram(*d) for d in diagrams), "aabb")), k_folds)


def _is_float(x):
    return type(x) is float


# name -> (strategy of the raw arguments, the call on them that checks what it returns)
_CALLS = {}


def calls(*strategies):
    def register(fn):
        _CALLS[fn.__name__.removeprefix("call_")] = (st.tuples(*strategies), fn)
        return fn
    return register


@calls(st.dictionaries(st.sampled_from("abc"), _NUMBER, min_size=2), _NUMBER)
def call_classify(log_densities, threshold_c):
    label, votes = classify(log_densities, threshold_c)
    # every pair of classes casts one vote, but on an exact tie of log BF and log threshold_c
    ties = sum((0.0 if a == b == -INF else a - b) == math.log(threshold_c)
               for a, b in itertools.combinations(log_densities.values(), 2))
    assert label in log_densities and list(votes) == sorted(log_densities)
    assert sum(votes.values()) == math.comb(len(votes), 2) - ties


@calls(_DATASET, _MIXTURE, _CONFIG, _NUMBER, _NUMBER)
def call_cross_validate(data, prior, config, threshold_c, seed):
    report = cross_validate(dataset(*data), mixture(*prior), PosteriorConfig(*config),
                            threshold_c, seed)
    assert 0.0 <= report["accuracy"] <= 1.0
    assert sum(map(sum, report["confusion"])) == 4


@calls(_DIAGRAM, _MIXTURE)
def call_diagram_log_density(d, g):
    score = diagram_log_density(diagram(*d), mixture(*g))
    assert _is_float(score) and score < INF  # -inf where the intensity vanishes at a point


@calls(_DIAGRAM, _MIXTURE, _MIXTURE)
def call_log_bayes_factor(d, g_i, g_j):
    lbf = log_bayes_factor(diagram(*d), mixture(*g_i), mixture(*g_j))
    assert _is_float(lbf) and not math.isnan(lbf)


@calls(_DATASET, _NUMBER)
def call_stratified_folds(data, seed):
    folds = stratified_folds(dataset(*data), seed)
    tested = np.sort(np.concatenate([test for _, test in folds]))
    assert np.array_equal(tested, np.arange(4))
    assert all(np.array_equal(np.union1d(train, test), np.arange(4)) for train, test in folds)


@calls(_DIAGRAM, _DIAGRAM)
def call_bottleneck_distance(d1, d2):
    dist = bottleneck_distance(diagram(*d1), diagram(*d2))
    assert _is_float(dist) and 0.0 <= dist < INF


@calls(st.lists(_NUMBER, max_size=4) | st.lists(st.lists(_NUMBER, min_size=2, max_size=2),
                                                  max_size=3))
def call_sublevel_pd(samples):
    pairs = sublevel_pd(samples)
    assert pairs.ndim == 2 and pairs.shape[1] == 2 and np.all(np.isfinite(pairs))
    assert np.all(pairs[:, 0] <= pairs[:, 1])


@calls(_PAIRS)
def call_tilt(pairs):
    d = tilt(pairs)
    assert d.points.shape == (len(pairs), 2) and (pairs or d.b_min == 0.0)


@calls(_DIAGRAM)
def call_untilt(d):
    pairs = untilt(diagram(*d))
    assert pairs.shape == (len(d[0]), 2) and np.all(np.isfinite(pairs))
    assert np.all(pairs[:, 0] <= pairs[:, 1])


@calls(_MIXTURE, _PAIRS)
def call_log_eval_intensity(g, x):
    g, x = mixture(*g), np.array(x, dtype=float).reshape(-1, 2)
    result = log_eval_intensity(g, x)
    assert result.shape == x.shape[:-1]
    outside = (x[..., 0] < 0) | (x[..., 1] < 0)
    nan = np.isnan(x).any(axis=-1) & ~outside & (g.n_components > 0)
    assert np.array_equal(np.isnan(result), nan)
    assert np.all(result[outside] == -INF) and not np.any(result == INF)


@calls(_MIXTURE, st.tuples(_NUMBER, _NUMBER, _NUMBER, _NUMBER), st.tuples(_NUMBER, _NUMBER))
def call_intensity_grid(g, bounds, resolution):
    grid = intensity_grid(mixture(*g), bounds, resolution)
    assert grid.shape == resolution and np.all((0.0 <= grid) & (grid <= 1.0))


@calls(_MIXTURE)
def call_total_mass(g):
    mass = total_mass(mixture(*g))
    assert _is_float(mass) and 0.0 <= mass < INF


@calls()
def call_default_clutter():
    assert total_mass(default_clutter()) == 0.1


@calls()
def call_default_prior():
    assert total_mass(default_prior()) == 1.0


@calls(_MIXTURE, st.lists(_DIAGRAM, max_size=2), _CONFIG)
def call_posterior_intensity(prior, observations, config):
    posterior = posterior_intensity(mixture(*prior), [diagram(*d) for d in observations],
                                    PosteriorConfig(*config))
    assert isinstance(posterior, GaussianMixtureIntensity)


@calls(st.lists(_NUMBER, max_size=4), _NUMBER, _NUMBER)
def call_add_noise(samples, snr_db, seed):
    noisy = add_noise(Signal(np.array(samples, dtype=float)), snr_db, seed)
    assert noisy.samples.shape == (len(samples),) and np.all(np.isfinite(noisy.samples))


@calls(st.tuples(_NUMBER, _NUMBER), _NUMBER, _NUMBER, _NUMBER)
def call_generate_band_signal(band, duration, sample_rate, seed):
    signal = generate_band_signal(band, duration, sample_rate, seed)
    assert np.all(np.isfinite(signal.samples))
    assert math.isclose(np.mean(signal.samples ** 2), 1.0)


def test_every_exported_function_is_called():
    exported = {name for name, value in vars(topobayes).items() if inspect.isfunction(value)}
    assert exported == set(_CALLS)


@given(st.one_of([st.tuples(st.just(name), args) for name, (args, _) in _CALLS.items()]))
# each but the last two used to return an undocumented value, raise another exception or warn;
# the last two pin a wrong dimension's refusal and an empty diagram
@example(("classify", ({"a": NAN, "b": -1.0}, 1.0)))  # "a" won with 0 votes
@example(("classify", ({"a": -1.0, "b": NAN}, 1.0)))
@example(("classify", ({"a": INF, "b": INF}, 1.0)))
@example(("generate_band_signal", ((8.0, 13.0), 2.0, 256.0, -1)))  # numpy's ValueError
@example(("generate_band_signal", ((8.0, 13.0), 2.0, 256.0, 1.5)))  # SeedSequence's TypeError
@example(("add_noise", ([0.5, -1.0, 2.0], 0.0, -1)))
@example(("add_noise", ([0.5, -1.0, 2.0], 0.0, 1.5)))
@example(("stratified_folds", (([([[0.0, 1.0]], 0.0)] * 4, 2), -1)))
@example(("stratified_folds", (([([[0.0, 1.0]], 0.0)] * 4, 2), 1.5)))
@example(("total_mass", (([INF, -INF], [(0, 0), (0, 0)], [1.5, 1.5]),)))  # the sum inf - inf
@example(("add_noise", ([0, INF, 2], 0, 2)))  # its noise was inf - inf
@example(("add_noise", ([NAN, 2], 0, 0)))  # NaN samples came back
@example(("add_noise", ([], 0, 0)))  # np.mean's "Mean of empty slice"
# a sum of three log intensities of about -8.5e307, and a grid whose log peak is about 713, past
# log(max float), 709.78
@example(("diagram_log_density", (([(1.3e154, 0)] * 3, 0), ([1.0], [(0, 0)], [1.0]))))
@example(("intensity_grid", (([1e308], [(0, 0)], [0.01]), (0, 0, 1, 1), (2, 2))))
@example(("sublevel_pd", ([[1.0, 1.0, 1.0]] * 3,)))
@example(("tilt", ([],)))
@settings(max_examples=400, deadline=None)
def test_returns_a_documented_value_or_refuses(call):
    name, args = call
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            _CALLS[name][1](*args)
        except ValidationError:
            event(f"{name}: refused")  # shown by --hypothesis-show-statistics
            return
    event(f"{name}: returned")
