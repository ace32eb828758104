"""Poisson-density scoring of diagrams and Bayes-factor classification.

A fitted class is a (label, posterior intensity) pair; the posterior's total
mass lambda is the expected number of points. A diagram D is scored by the
Poisson point-process log density

    log p(D) = -lambda - log(|D|!) + sum_{x in D} log intensity(x)

and two classes are compared through the log Bayes factor, the difference of
their log densities. Multiclass decisions use one vote per unordered pair of
classes; evaluation is by stratified k-fold cross validation.
"""

import itertools
import math
import os
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError, seeded_rng
from .filtration import PersistenceDiagram
from .intensity import (
    GaussianMixtureIntensity,
    log_eval_intensity,
    total_mass,
)
from .posterior import PosteriorConfig, posterior_intensity


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Labeled diagrams and the fold count for cross validation; stratified_folds checks both."""

    entries: tuple
    k_folds: int

    @property
    def labels(self) -> list:
        if not all(isinstance(lab, str) for _, lab in self.entries):  # else sorted raises TypeError
            raise ValidationError("class labels must be strings")
        return sorted({lab for _, lab in self.entries})


def diagram_log_density(d: PersistenceDiagram, g: GaussianMixtureIntensity) -> float:
    """Log Poisson-process density of a diagram under the intensity g.

    Returns -inf when any point falls where the intensity vanishes (outside
    the wedge, or under an empty mixture). The factorial term uses log-gamma
    so diagrams with hundreds of points stay in range.
    """
    from scipy.special import gammaln  # imported here, as in intensity.log_wedge_mass
    logs = log_eval_intensity(g, d.points)
    with np.errstate(over="ignore"):  # a sum past the float range is -inf, the density's limit
        return float(-total_mass(g) - gammaln(len(logs) + 1) + logs.sum())


def _log_ratio(li: float, lj: float) -> float:
    """li - lj for two log densities; 0 when both densities are zero."""
    return 0.0 if li == lj == -math.inf else li - lj


def log_bayes_factor(d: PersistenceDiagram, g_i: GaussianMixtureIntensity,
                     g_j: GaussianMixtureIntensity) -> float:
    """log of the ratio of posterior predictive densities, g_i over g_j.

    When both densities are zero there is no evidence either way and the
    result is defined as 0.
    """
    return _log_ratio(diagram_log_density(d, g_i), diagram_log_density(d, g_j))


class ClassifyResult(NamedTuple):
    label: str
    votes: dict


def check_threshold(threshold_c):
    """Refuse a Bayes-factor threshold that is not positive and finite."""
    if not 0 < threshold_c < math.inf:
        raise ValidationError("threshold_c must be positive and finite")


def check_folds(k_folds, class_sizes):
    """Refuse a fold count that is not an integer of at least 2, or more than a class's entries."""
    if not isinstance(k_folds, (int, np.integer)) or k_folds < 2:
        raise ValidationError("k_folds must be an integer of at least 2")
    for lab, n in class_sizes.items():
        if n < k_folds:
            raise ValidationError(f"class {lab!r} has {n} entries, fewer than k_folds={k_folds}")


def classify(log_densities, threshold_c: float = 1.0) -> ClassifyResult:
    """Assign a diagram to a class by pairwise Bayes-factor voting on its log densities.

    log_densities maps each class label to the diagram's log density under that class's
    posterior, as diagram_log_density scores it. For each pair of labels a < b, a gets one vote
    when log BF(a, b) exceeds log(threshold_c), b when it falls below, neither when equal: at
    threshold_c = 1 the larger evidence wins, else a needs a Bayes factor above threshold_c and
    b takes the rest. Most votes win; ties go to the larger total log density, then the smaller
    label. The label and its votes, keyed in sorted label order, ignore the mapping's order.
    """
    check_threshold(threshold_c)
    if len(log_densities) < 2:
        raise ValidationError("need at least 2 class models")
    if not all(isinstance(lab, str) for lab in log_densities):
        raise ValidationError("class labels must be strings")
    if not all(ld < math.inf for ld in log_densities.values()):  # a NaN fails too
        raise ValidationError("log densities must be below +inf, and not NaN")
    ld = dict(sorted(log_densities.items()))
    log_c = math.log(threshold_c)

    votes = dict.fromkeys(ld, 0)
    for a, b in itertools.combinations(ld, 2):
        lbf = _log_ratio(ld[a], ld[b])
        if lbf > log_c:
            votes[a] += 1
        elif lbf < log_c:
            votes[b] += 1
    winner = min(ld, key=lambda lab: (-votes[lab], -ld[lab], lab))
    return ClassifyResult(winner, votes)


def stratified_folds(data: LabeledDataset, seed: int = 0) -> list:
    """Seeded per-class partition into data.k_folds folds, an integer of at least 2.

    Each class's entries are shuffled once and split into k nearly equal chunks; fold f tests on
    every class's chunk f and trains on the rest. Returns a list of (train_indices, test_indices)
    pairs of sorted global indices. Every entry appears in exactly one test fold, so a class of
    fewer than k entries, which would leave a test fold without any of them, is refused.
    """
    check_folds(data.k_folds, Counter(lab for _, lab in data.entries))
    rng = seeded_rng(seed)
    members = [[i for i, (_, lab) in enumerate(data.entries) if lab == label]
               for label in data.labels]
    chunks = [np.array_split(rng.permutation(idx), data.k_folds) for idx in members]
    tests = [np.sort(np.concatenate([c[f] for c in chunks])) for f in range(data.k_folds)]
    return [(np.setdiff1d(np.arange(len(data.entries)), test), test) for test in tests]


def usable_cpus() -> int:
    """The number of CPUs this process may run on, as taskset limits it."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return cpus or 1


def _fold_labels(fold, data: LabeledDataset, prior, cfg, threshold_c) -> list:
    """Labels predicted for a fold's held-out entries, scored by one class's posterior at a time."""
    train_idx, test_idx = fold
    scores = [{} for _ in test_idx]
    for lab in data.labels:
        training = [data.entries[i][0] for i in train_idx if data.entries[i][1] == lab]
        g = posterior_intensity(prior, training, cfg)
        for ld, i in zip(scores, test_idx):
            ld[lab] = diagram_log_density(data.entries[i][0], g)
        del g  # a rebinding would keep it alive through the next class's fit
    return [classify(ld, threshold_c).label for ld in scores]


def cross_validate(data: LabeledDataset, prior: GaussianMixtureIntensity,
                   cfg: PosteriorConfig, threshold_c: float = 1.0,
                   seed: int = 0) -> dict:
    """Stratified k-fold cross validation of the Bayes-factor classifier.

    Per fold, one posterior per class is fitted on the training portion, scores every held-out
    diagram and goes before the next class's is fitted; then each held-out diagram is classified
    on its log densities. The reported accuracy is the average of the fold accuracies. The
    confusion matrix has true labels on rows and predicted labels on columns, both in sorted
    label order, aggregated over folds. Deterministic given the split seed. A bad threshold_c, and
    then what stratified_folds refuses, is refused before anything is fitted.

    The folds run on one thread per usable CPU, never more than there are folds, and no
    process-wide setting is changed. The report does not depend on the thread count.
    """
    from concurrent.futures import ThreadPoolExecutor  # not loaded by import topobayes.cli

    labels = data.labels
    if len(labels) < 2:
        raise ValidationError("cross validation needs at least two classes")
    check_threshold(threshold_c)  # before any posterior is fitted
    folds = stratified_folds(data, seed)
    with ThreadPoolExecutor(min(len(folds), usable_cpus())) as pool:
        predicted = list(pool.map(
            lambda fold: _fold_labels(fold, data, prior, cfg, threshold_c), folds))
    truth = [[data.entries[i][1] for i in test_idx] for _, test_idx in folds]
    per_fold = [sum(a == b for a, b in zip(t, p)) / len(t) for t, p in zip(truth, predicted)]
    pairs = Counter(zip(itertools.chain(*truth), itertools.chain(*predicted)))
    return {
        "accuracy": float(np.mean(per_fold)),
        "per_fold": per_fold,
        "labels": labels,
        "confusion": [[pairs[t, p] for p in labels] for t in labels],
        "k_folds": int(data.k_folds),
        "seed": int(seed),
        "config": {"alpha": float(cfg.alpha), "sigma_obs": float(cfg.sigma_obs),
                   "threshold_c": float(threshold_c)},
    }
