"""Poisson-density scoring of diagrams and Bayes-factor classification.

A fitted class model is a posterior intensity, whose total mass lambda is
the expected number of points. A diagram D is scored by the Poisson
point-process log density

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

from .errors import ValidationError
from .filtration import PersistenceDiagram
from .intensity import (
    GaussianMixtureIntensity,
    log_eval_intensity,
    total_mass,
)
from .posterior import PosteriorConfig, posterior_intensity


@dataclass(frozen=True, eq=False)
class ClassModel:
    """A fitted class: a label and its posterior intensity."""

    label: str
    posterior: GaussianMixtureIntensity

    @property
    def lam(self) -> float:
        """Total mass of the posterior, the expected number of points."""
        return total_mass(self.posterior)


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Labeled diagrams plus the fold count used for cross validation."""

    entries: tuple
    k_folds: int

    def __post_init__(self):
        entries = tuple((d, str(lab)) for d, lab in self.entries)
        if not isinstance(self.k_folds, int) or self.k_folds < 2:
            raise ValidationError("k_folds must be an integer of at least 2")
        for lab, n in Counter(lab for _, lab in entries).items():
            if n < self.k_folds:
                raise ValidationError(
                    f"class {lab!r} has {n} entries, fewer than k_folds={self.k_folds}"
                )
        object.__setattr__(self, "entries", entries)

    @property
    def labels(self) -> list:
        return sorted({lab for _, lab in self.entries})


def fit_class_model(training, prior: GaussianMixtureIntensity,
                    cfg: PosteriorConfig, label) -> ClassModel:
    """Fit one class by conditioning the prior on its training diagrams."""
    post = posterior_intensity(prior, training, cfg)
    return ClassModel(label=str(label), posterior=post)


def diagram_log_density(d: PersistenceDiagram, model: ClassModel) -> float:
    """Log Poisson-process density of a diagram under a fitted model.

    Returns -inf when any point falls where the intensity vanishes (outside
    the wedge, or under an empty mixture). The factorial term uses log-gamma
    so diagrams with hundreds of points stay in range.
    """
    from scipy.special import gammaln  # imported here, as in intensity.log_wedge_mass
    pts = d.points
    if len(pts) == 0:
        return -model.lam
    logs = log_eval_intensity(model.posterior, pts)
    return float(-model.lam - gammaln(len(pts) + 1) + logs.sum())


def _log_ratio(li: float, lj: float) -> float:
    """li - lj for two log densities; 0 when both densities are zero."""
    return 0.0 if li == lj == -math.inf else li - lj


def log_bayes_factor(d: PersistenceDiagram, model_i: ClassModel,
                     model_j: ClassModel) -> float:
    """log of the ratio of posterior predictive densities, i over j.

    When both densities are zero there is no evidence either way and the
    result is defined as 0.
    """
    return _log_ratio(diagram_log_density(d, model_i), diagram_log_density(d, model_j))


class ClassifyResult(NamedTuple):
    label: str
    votes: dict
    log_densities: dict


def classify(d: PersistenceDiagram, models, threshold_c: float = 1.0) -> ClassifyResult:
    """Assign a diagram to a class by pairwise Bayes-factor voting.

    For every unordered pair of classes, the class with the larger evidence
    gets one vote: i when log BF(i, j) exceeds log(threshold_c), j when it
    falls below, no vote on an exact tie. The label with most votes wins;
    vote ties break toward the larger total log density, then toward the
    lexicographically smallest label. The full evidence trail is returned.
    Invariant under permutation of the models list.
    """
    if len(models) < 2:
        raise ValidationError("need at least 2 class models")
    if not 0 < threshold_c < math.inf:
        raise ValidationError("threshold_c must be positive and finite")
    labels = [m.label for m in models]
    if len(set(labels)) != len(labels):
        raise ValidationError("class labels must be distinct")
    by_label = {m.label: m for m in models}
    order = sorted(labels)
    log_c = math.log(threshold_c)

    ld = {lab: diagram_log_density(d, by_label[lab]) for lab in order}
    votes = {lab: 0 for lab in order}
    for a, b in itertools.combinations(order, 2):
        lbf = _log_ratio(ld[a], ld[b])
        if lbf > log_c:
            votes[a] += 1
        elif lbf < log_c:
            votes[b] += 1
    winner = min(order, key=lambda lab: (-votes[lab], -ld[lab], lab))
    return ClassifyResult(winner, votes, ld)


def stratified_folds(data: LabeledDataset, seed: int = 0) -> list:
    """Seeded per-class partition into data.k_folds folds.

    Each class's entries are shuffled once and split into k nearly equal
    chunks; fold f tests on every class's chunk f. Returns a list of
    (train_indices, test_indices) pairs of sorted global indices. Every
    entry appears in exactly one test fold.
    """
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


def usable_cpus() -> int:
    """The number of CPUs this process may run on, as taskset limits it."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return cpus or 1


def _openblas_set_threads():
    """numpy's OpenBLAS setter of its thread count, which returns the count it replaces; None
    where numpy's BLAS has none (MKL, Accelerate, OpenBLAS before 0.3.27)."""
    import ctypes
    from numpy.linalg import _umath_linalg
    # dlsym on a library's handle also searches its dependencies, numpy's BLAS among them
    return getattr(ctypes.CDLL(_umath_linalg.__file__), "openblas_set_num_threads_local", None)


def _fold_labels(fold, data: LabeledDataset, prior, cfg, threshold_c) -> list:
    """Labels predicted for a fold's held-out entries by one model per class fitted on the rest."""
    train_idx, test_idx = fold
    models = []
    for lab in data.labels:
        training = [data.entries[i][0] for i in train_idx if data.entries[i][1] == lab]
        models.append(fit_class_model(training, prior, cfg, lab))
    return [classify(data.entries[i][0], models, threshold_c).label for i in test_idx]


def cross_validate(data: LabeledDataset, prior: GaussianMixtureIntensity,
                   cfg: PosteriorConfig, threshold_c: float = 1.0,
                   seed: int = 0) -> dict:
    """Stratified k-fold cross validation of the Bayes-factor classifier.

    Per fold, one model per class is fitted on the training portion and the
    held-out diagrams are classified; the reported accuracy is the average
    of the fold accuracies. The confusion matrix has true labels on rows and
    predicted labels on columns, both in sorted label order, aggregated over
    folds. Deterministic given the split seed.

    The folds run on one thread per usable CPU, with numpy's OpenBLAS held to
    one thread meanwhile and then restored; where OpenBLAS cannot be set, on
    one thread. The report does not depend on either count.
    """
    from concurrent.futures import ThreadPoolExecutor  # not loaded by import topobayes.cli

    labels = data.labels
    if len(labels) < 2:
        raise ValidationError("cross validation needs at least two classes")
    folds = stratified_folds(data, seed)
    set_threads = _openblas_set_threads()
    # the folds' products would each be split over BLAS's own threads, oversubscribing the CPUs
    workers = min(len(folds), usable_cpus()) if set_threads else 1
    held = set_threads(1) if set_threads else None
    try:
        with ThreadPoolExecutor(workers) as pool:
            predicted = list(pool.map(
                lambda fold: _fold_labels(fold, data, prior, cfg, threshold_c), folds))
    finally:
        if set_threads:
            set_threads(held)
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
    return {
        "accuracy": float(np.mean(per_fold)),
        "per_fold": [float(a) for a in per_fold],
        "labels": labels,
        "confusion": confusion.tolist(),
        "k_folds": data.k_folds,
        "seed": int(seed),
        "config": {
            "alpha": float(cfg.alpha),
            "sigma_obs": float(cfg.sigma_obs),
            "threshold_c": float(threshold_c),
        },
    }
