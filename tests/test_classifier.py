import concurrent.futures
import json
import math
import os
import subprocess
import sys
import textwrap
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from topobayes import (
    GaussianMixtureIntensity,
    LabeledDataset,
    PersistenceDiagram,
    PosteriorConfig,
    ValidationError,
    classify,
    cross_validate,
    diagram_log_density,
    log_bayes_factor,
    log_eval_intensity,
    posterior_intensity,
    stratified_folds,
    total_mass,
)
from topobayes import classifier
from topobayes.cli import model_arrays, model_from_arrays
from conftest import sample_ppp_diagram, separable_grid_mass
import oracles
from oracles import mixture_to_json, model_to_json


def mixture_at(mean, lam=5.0, var=0.5):
    return GaussianMixtureIntensity([lam], [mean], [var])


def model_at(mean, label="m", lam=5.0, var=0.5):
    return label, mixture_at(mean, lam, var)


def diagram(*points):
    return PersistenceDiagram(np.array(points, dtype=float))


EMPTY = PersistenceDiagram(np.zeros((0, 2)))


class TestDiagramLogDensity:
    def test_empty_diagram(self):
        g = mixture_at((2.0, 2.0), lam=3.5)
        assert diagram_log_density(EMPTY, g) == -3.5

    def test_single_point(self):
        g = mixture_at((2.0, 2.0), lam=3.5)
        x = (2.5, 1.5)
        v = log_eval_intensity(g, x)
        assert diagram_log_density(diagram(x), g) == pytest.approx(-3.5 + v, rel=1e-12)

    def test_point_permutation_invariant(self, rng):
        g = mixture_at((2.0, 2.0))
        pts = rng.uniform(0, 5, (6, 2))
        a = diagram_log_density(PersistenceDiagram(pts), g)
        b = diagram_log_density(PersistenceDiagram(pts[::-1]), g)
        assert a == pytest.approx(b, rel=1e-14)

    def test_empty_model_scores_minus_inf(self):
        empty = GaussianMixtureIntensity([], [], [])
        assert diagram_log_density(diagram((1.0, 1.0)), empty) == -np.inf
        assert diagram_log_density(EMPTY, empty) == 0.0
        # log 1 is +0.0, which the classify report writes as 0.0, not -0.0
        assert math.copysign(1.0, diagram_log_density(EMPTY, empty)) == 1.0

    def test_a_sum_past_the_float_range_is_minus_inf_quietly(self):
        # each log intensity is about -8.5e307; their sum overflowed with a RuntimeWarning
        d = diagram(*[(1.3e154, 0.0)] * 3)
        assert diagram_log_density(d, mixture_at((0.0, 0.0), lam=1.0, var=1.0)) == -np.inf

    def test_monte_carlo_prefers_true_model(self, rng):
        # sampler as oracle: diagrams drawn from a known process score higher
        # on average under that process than under a mean-shifted copy
        truth = GaussianMixtureIntensity(
            [4.0, 3.0], [[2.0, 2.0], [5.0, 1.0]], [0.5, 0.5]
        )
        shifted = GaussianMixtureIntensity(
            [4.0, 3.0], [[3.5, 3.5], [6.5, 2.5]], [0.5, 0.5]
        )
        diffs = []
        for _ in range(300):
            d = sample_ppp_diagram(rng, truth)
            diffs.append(diagram_log_density(d, truth) - diagram_log_density(d, shifted))
        assert np.mean(diffs) > 0
        assert np.mean(np.array(diffs) > 0) > 0.9


class TestLogBayesFactor:
    def test_identical_models_give_zero(self, rng):
        g = mixture_at((2.0, 2.0))
        for _ in range(20):
            d = PersistenceDiagram(rng.uniform(0, 5, (4, 2)))
            assert log_bayes_factor(d, g, g) == 0.0

    def test_antisymmetry_exact(self, rng):
        a = mixture_at((2.0, 2.0))
        b = mixture_at((4.0, 1.0), lam=7.0)
        for _ in range(50):
            d = PersistenceDiagram(rng.uniform(0, 6, (int(rng.integers(0, 6)), 2)))
            assert log_bayes_factor(d, a, b) == -log_bayes_factor(d, b, a)

    def test_diagram_near_model_i_scores_positive(self, rng):
        a = mixture_at((1.0, 1.0))
        b = mixture_at((6.0, 6.0))
        d = sample_ppp_diagram(rng, a)
        assert log_bayes_factor(d, a, b) > 0

    def test_double_minus_inf_defined_as_zero(self):
        none_a = GaussianMixtureIntensity([], [], [])
        none_b = GaussianMixtureIntensity([], [], [])
        assert log_bayes_factor(diagram((1.0, 1.0)), none_a, none_b) == 0.0


class TestFitClassModel:
    def setup_method(self):
        self.prior = GaussianMixtureIntensity([1.0], [(3.0, 3.0)], [20.0])

    def test_alpha_zero_keeps_prior(self):
        cfg = PosteriorConfig(alpha=0.0, sigma_obs=1.0)
        g = posterior_intensity(self.prior, [diagram((1.0, 1.0))], cfg)
        assert np.array_equal(g.weights, self.prior.weights)
        assert total_mass(g) == total_mass(self.prior)

    def test_duplicated_diagram_changes_nothing(self):
        # the update averages over diagrams, so m identical copies match m=1
        cfg = PosteriorConfig(alpha=0.7, sigma_obs=0.5)
        d = diagram((2.0, 2.0), (4.0, 1.0))
        one = posterior_intensity(self.prior, [d], cfg)
        two = posterior_intensity(self.prior, [d, d], cfg)
        pts = np.random.default_rng(0).uniform(0, 6, (50, 2))
        assert np.allclose(
            log_eval_intensity(one, pts),
            log_eval_intensity(two, pts),
            rtol=1e-10,
        )
        assert total_mass(one) == pytest.approx(total_mass(two), rel=1e-12)

    def test_lambda_matches_quadrature(self):
        cfg = PosteriorConfig(alpha=0.7, sigma_obs=0.5)
        g = posterior_intensity(
            self.prior, [diagram((2.0, 2.0), (4.0, 1.0)), diagram((3.0, 2.5))], cfg,
        )
        box = float(np.max(g.means) + 8 * np.sqrt(g.variances.max()))
        quad = separable_grid_mass(g, box, 4000)
        assert total_mass(g) == pytest.approx(quad, rel=1e-4)

    def test_empty_training_rejected(self):
        cfg = PosteriorConfig(alpha=0.7, sigma_obs=0.5)
        with pytest.raises(ValidationError):
            posterior_intensity(self.prior, [], cfg)

    def test_model_json_roundtrip(self):
        cfg = PosteriorConfig(alpha=0.7, sigma_obs=0.5)
        g = posterior_intensity(self.prior, [diagram((2.0, 2.0))], cfg)
        label, back = model_from_arrays(model_arrays(model_to_json("x", g)))
        assert label == "x"
        assert total_mass(back) == total_mass(g)
        assert np.array_equal(back.weights, g.weights)
        assert np.array_equal(back.means, g.means)


def scored(d, models):
    """{label: log density of d} under each (label, mixture) of models, as classify takes it."""
    return {label: diagram_log_density(d, g) for label, g in models}


class TestScore:
    MODELS = (model_at((1.0, 1.0), "a"), model_at((4.0, 2.0), "b", lam=3.0),
              ("empty", GaussianMixtureIntensity([], [], [])))

    def test_list_and_one_pass_generator_give_each_density(self, rng):
        diagrams = [sample_ppp_diagram(rng, self.MODELS[i % 2][1]) for i in range(5)] + [EMPTY]
        from_list = classifier.score(diagrams, list(self.MODELS))
        from_generator = classifier.score(diagrams, (m for m in self.MODELS))
        assert len(from_list) == len(diagrams)
        for d, got, again in zip(diagrams, from_list, from_generator, strict=True):
            assert list(got) == list(again) == [label for label, _ in self.MODELS]
            for label, g in self.MODELS:
                want = diagram_log_density(d, g)
                assert repr(got[label]) == repr(again[label]) == repr(want)
        assert classifier.score([], iter(self.MODELS)) == []

    def test_repeated_label_refused_before_it_scores(self, rng, monkeypatch):
        diagrams = [sample_ppp_diagram(rng, self.MODELS[0][1]) for _ in range(3)]
        density_once = classifier.diagram_log_density
        calls = []

        def counting(d, g):
            calls.append(g)
            return density_once(d, g)

        monkeypatch.setattr(classifier, "diagram_log_density", counting)
        a, b, _ = self.MODELS
        repeated = ("a", mixture_at((9.0, 9.0)))
        with pytest.raises(ValidationError, match=r"^class labels must be distinct$"):
            classifier.score(diagrams, iter([a, b, repeated, b]))
        assert [id(g) for g in calls] == [id(a[1])] * 3 + [id(b[1])] * 3


class TestClassify:
    def test_two_class_margin(self, rng):
        a = model_at((1.0, 1.0), "a")
        b = model_at((6.0, 6.0), "b")
        d = sample_ppp_diagram(rng, a[1])
        result = classify(scored(d, [a, b]))
        assert result.label == "a"
        assert result.votes == {"a": 1, "b": 0}

    def test_identical_models_tie_breaks_to_first_label(self):
        g = GaussianMixtureIntensity([2.0], [(2.0, 2.0)], [1.0])
        m1 = ("x", g)
        m2 = ("y", g)
        result = classify(scored(diagram((2.0, 2.0)), [m1, m2]))
        assert result.votes == {"x": 0, "y": 0}  # exact tie casts no vote
        assert result.label == "x"  # broken by label order
        # and the mapping's order does not matter
        assert classify(scored(diagram((2.0, 2.0)), [m2, m1])).label == "x"

    def test_three_class_majority(self, rng):
        a = model_at((1.0, 1.0), "a")
        b = model_at((4.0, 4.0), "b")
        c = model_at((9.0, 9.0), "c")
        d = diagram((1.2, 1.1))  # closest to a, then b, then c
        result = classify(scored(d, [a, b, c]))
        assert result.votes == {"a": 2, "b": 1, "c": 0}
        assert result.label == "a"

    def test_permutation_invariance(self, rng):
        models = [model_at((1.0, 1.0), "a"), model_at((4.0, 2.0), "b"),
                  model_at((2.0, 5.0), "c")]
        for _ in range(10):
            d = PersistenceDiagram(rng.uniform(0, 6, (5, 2)))
            base = classify(scored(d, models), threshold_c=2.0)
            perm = [models[i] for i in rng.permutation(3)]
            # the whole result, its votes in sorted label order, whatever the mapping's order
            assert classify(scored(d, perm), threshold_c=2.0) == base
            assert list(base.votes) == ["a", "b", "c"]

    def test_vote_away_from_threshold_one_follows_label_order(self):
        # for threshold_c != 1 the earlier-sorted label of a pair needs a Bayes factor above c,
        # and the later one takes the rest: the same densities under other names vote otherwise
        assert classify({"a": 0.5, "b": 0.0}, 3.0) == ("b", {"a": 0, "b": 1})
        assert classify({"z": 0.5, "b": 0.0}, 3.0) == ("z", {"b": 0, "z": 1})

    def test_renamed_labels_keep_decisions_at_threshold_one(self, rng):
        # at threshold_c = 1 a pair's vote goes to the larger evidence, whatever the names; the
        # densities are distinct, since an exact tie breaks toward the smaller label
        names = ["a", "b", "c", "m", "y", "z"]
        for _ in range(200):
            n = int(rng.integers(2, 6))
            values = rng.normal(0.0, 2.0, n)
            if rng.random() < 0.3:
                values[0] = -np.inf  # a zero density
            labels = rng.permutation(names)[:n].tolist()
            rename = dict(zip(labels, rng.permutation(names)[:n].tolist()))
            base = classify(dict(zip(labels, values)))
            renamed = classify({rename[lab]: v for lab, v in zip(labels, values)})
            assert renamed.label == rename[base.label]
            assert renamed.votes == {rename[lab]: v for lab, v in base.votes.items()}

    def test_weight_identity_scaling_keeps_argmax(self, rng):
        models = [model_at((1.0, 1.0), "a"), model_at((5.0, 3.0), "b")]
        scaled = [
            (label, GaussianMixtureIntensity(g.weights * 1.0, g.means, g.variances))
            for label, g in models
        ]
        for _ in range(10):
            d = PersistenceDiagram(rng.uniform(0, 6, (4, 2)))
            assert classify(scored(d, models)).label == classify(scored(d, scaled)).label

    def test_needs_two_models(self):
        for log_densities in ({}, {"a": -1.0}):
            with pytest.raises(ValidationError, match="need at least 2 class models"):
                classify(log_densities)
        # labels that do not sort together are refused before they are sorted
        with pytest.raises(ValidationError, match=r"^class labels must be strings$"):
            classify({1: -1.0, "a": -2.0})

    def test_threshold_must_be_positive(self):
        for c in (0.0, -1.0, np.nan, np.inf):
            # refused before the count of classes is looked at
            for log_densities in ({}, {"a": -1.0, "b": -2.0}):
                with pytest.raises(ValidationError, match="threshold_c must be positive"):
                    classify(log_densities, threshold_c=c)


def clustered_dataset(rng, n_per_class, k, centers, var=0.05):
    entries = []
    for label, center in centers.items():
        g = GaussianMixtureIntensity([6.0], [center], [var])
        for _ in range(n_per_class):
            entries.append((sample_ppp_diagram(rng, g), label))
    return LabeledDataset(tuple(entries), k)


class TestCrossValidate:
    def setup_method(self):
        self.prior = GaussianMixtureIntensity([1.0], [(3.0, 3.0)], [20.0])
        self.cfg = PosteriorConfig(alpha=0.7, sigma_obs=0.1)

    def test_separated_clusters_classify_perfectly(self, rng):
        # clusters 20 sigma apart force the density ordering
        data = clustered_dataset(rng, 20, 4, {"lo": (0.5, 1.0), "hi": (0.5, 8.0)})
        report = cross_validate(data, self.prior, self.cfg, seed=3)
        assert report["accuracy"] == 1.0
        assert np.trace(np.array(report["confusion"])) == 40

    def test_identical_classes_near_chance(self, rng):
        g = GaussianMixtureIntensity([6.0], [(2.0, 2.0)], [0.5])
        entries = []
        for label in ("a", "b"):
            for _ in range(30):
                entries.append((sample_ppp_diagram(rng, g), label))
        data = LabeledDataset(tuple(entries), 5)
        report = cross_validate(data, self.prior, self.cfg, seed=1)
        # 3 sigma of binomial noise around chance for 60 bernoulli trials
        assert abs(report["accuracy"] - 0.5) <= 3 * 0.5 / np.sqrt(60)

    def test_fold_assignment_is_partition(self, rng):
        data = clustered_dataset(rng, 12, 4, {"lo": (0.5, 1.0), "hi": (0.5, 8.0)})
        folds = stratified_folds(data, seed=9)
        seen = np.concatenate([test for _, test in folds])
        assert sorted(seen) == list(range(len(data.entries)))
        for train, test in folds:
            assert set(train) | set(test) == set(range(len(data.entries)))
            assert not set(train) & set(test)

    def test_confusion_rows_sum_to_class_counts(self, rng):
        data = clustered_dataset(rng, 15, 3, {"lo": (0.5, 1.0), "hi": (0.5, 8.0)})
        report = cross_validate(data, self.prior, self.cfg, seed=2)
        conf = np.array(report["confusion"])
        assert conf.sum(axis=1).tolist() == [15, 15]
        assert 0.0 <= report["accuracy"] <= 1.0

    def test_deterministic_given_seed(self, rng):
        data = clustered_dataset(rng, 10, 5, {"lo": (0.5, 1.0), "hi": (0.5, 8.0)})
        r1 = cross_validate(data, self.prior, self.cfg, seed=4)
        r2 = cross_validate(data, self.prior, self.cfg, seed=4)
        assert r1 == r2

    def test_same_report_and_densities_on_one_and_three_threads(self, rng, monkeypatch):
        # overlapping classes, so some held-out diagrams are misclassified
        data = clustered_dataset(rng, 12, 4, {"lo": (1.0, 1.0), "hi": (1.0, 1.3)}, var=0.2)
        classify_once = classifier.classify
        runs = []
        for cpus in (1, 3):
            densities = []

            def recording(log_densities, threshold_c=1.0):
                densities.append(repr(dict(sorted(log_densities.items()))))
                return classify_once(log_densities, threshold_c)

            monkeypatch.setattr(classifier, "usable_cpus", lambda: cpus)
            monkeypatch.setattr(classifier, "classify", recording)
            runs.append((cross_validate(data, self.prior, self.cfg, seed=5), Counter(densities)))
        # one vote per held-out diagram; the folds' threads may finish in any order
        assert sum(runs[0][1].values()) == len(data.entries)
        assert 0.5 < runs[0][0]["accuracy"] < 1.0
        assert runs[0] == runs[1]

    def test_bad_threshold_refused_before_any_fit(self, rng, monkeypatch):
        data = clustered_dataset(rng, 6, 3, {"lo": (0.5, 1.0), "hi": (0.5, 8.0)})
        fit_once = classifier.posterior_intensity
        fits = []

        def counting(prior, training, cfg):
            fits.append(len(training))
            return fit_once(prior, training, cfg)

        monkeypatch.setattr(classifier, "posterior_intensity", counting)
        for c in (0.0, np.nan, np.inf):
            with pytest.raises(ValidationError, match=r"^threshold_c must be positive and finite$"):
                cross_validate(data, self.prior, self.cfg, threshold_c=c)
        assert fits == []
        cross_validate(data, self.prior, self.cfg, threshold_c=2.0)
        assert len(fits) == 3 * 2  # a fit per fold and class, once the threshold is good

    def test_holds_one_posterior_at_a_time(self, rng, monkeypatch):
        # a fold's posterior of one class is let go before the next class's is fitted; the folds
        # run one after another on one thread, so every posterior fitted before is dead by then
        data = clustered_dataset(rng, 8, 4, {"a": (0.5, 1.0), "b": (0.5, 8.0), "c": (3.0, 3.0)})
        fit_once = classifier.posterior_intensity
        refs = []

        def recording(prior, training, cfg):
            assert [r() for r in refs] == [None] * len(refs), len(refs)
            g = fit_once(prior, training, cfg)
            refs.append(weakref.ref(g))
            return g

        monkeypatch.setattr(classifier, "usable_cpus", lambda: 1)
        monkeypatch.setattr(classifier, "posterior_intensity", recording)
        report = cross_validate(data, self.prior, self.cfg, seed=1)
        assert len(refs) == 4 * 3
        assert report["accuracy"] > 0.5

    def test_fold_error_reaches_caller_as_is(self, rng, monkeypatch):
        data = clustered_dataset(rng, 8, 4, {"lo": (0.5, 1.0), "hi": (0.5, 8.0)})
        fit_once = classifier.posterior_intensity
        fault = ValidationError("one fold fails")
        held_out, held_out_label = data.entries[0]
        held_out_class = [d for d, lab in data.entries if lab == held_out_label]

        def failing_fit(prior, training, cfg):
            # fails only in the fold that holds entry 0 out
            if (any(d is training[0] for d in held_out_class)
                    and not any(d is held_out for d in training)):
                raise fault
            return fit_once(prior, training, cfg)

        monkeypatch.setattr(classifier, "usable_cpus", lambda: 3)
        monkeypatch.setattr(classifier, "posterior_intensity", failing_fit)
        with pytest.raises(ValidationError) as caught:
            cross_validate(data, self.prior, self.cfg)
        assert caught.value is fault

    @pytest.mark.parametrize("k_folds, workers", [(4, 3), (2, 2)])
    def test_one_thread_per_cpu_never_more_than_folds(self, rng, monkeypatch, k_folds, workers):
        data = clustered_dataset(rng, 4, k_folds, {"lo": (0.5, 1.0), "hi": (0.5, 8.0)})
        sizes = []

        class SizedPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(classifier, "usable_cpus", lambda: 3)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SizedPool)
        cross_validate(data, self.prior, self.cfg)
        assert sizes == [workers]

    def test_numpy_integer_fold_count_same_as_int(self, rng):
        data = clustered_dataset(rng, 6, 3, {"lo": (0.5, 1.0), "hi": (0.5, 8.0)})
        as_numpy = LabeledDataset(data.entries, np.int64(3))
        for (train, test), (train_np, test_np) in zip(stratified_folds(data, 2),
                                                      stratified_folds(as_numpy, 2), strict=True):
            assert np.array_equal(train, train_np) and np.array_equal(test, test_np)
        assert (json.dumps(cross_validate(data, self.prior, self.cfg, seed=2))
                == json.dumps(cross_validate(as_numpy, self.prior, self.cfg, seed=2)))

    def test_fold_model_densities_same_at_one_and_two_blas_threads(self):
        code = textwrap.dedent("""
            import hashlib
            import numpy as np
            import topobayes as tb
            rng = np.random.default_rng(5)
            entries = [(tb.PersistenceDiagram(rng.uniform(0.2, 6, (40, 2))), lab)
                       for lab in "ab" for _ in range(20)]
            data = tb.LabeledDataset(tuple(entries), 4)
            train, test = tb.stratified_folds(data, 0)[0]
            prior = tb.GaussianMixtureIntensity([1.0, 0.5, 0.5], [[3, 3], [1, 2], [4, 1]],
                                                [20.0, 2.0, 3.0])
            fold = [data.entries[i][0] for i in train if data.entries[i][1] == "a"]
            held_out = [data.entries[i][0] for i in test]
            rng = np.random.default_rng(7)
            # about 14k components: each scoring product is then split over BLAS's threads
            training = [tb.PersistenceDiagram(rng.uniform(0.2, 6.0, (156, 2))) for _ in range(90)]
            tests = [tb.PersistenceDiagram(rng.uniform(0.2, 6.0, (156, 2))) for _ in range(4)]
            # 100 prior components: each point's denominator is then a sum that a BLAS product
            # would split over its threads
            big = tb.GaussianMixtureIntensity(rng.uniform(0.5, 2.0, 100),
                                              rng.uniform(0.2, 6.0, (100, 2)),
                                              rng.uniform(0.5, 4.0, 100))
            long = [tb.PersistenceDiagram(rng.uniform(0.2, 6.0, (5_003, 2)))]
            one = tb.GaussianMixtureIntensity([1.0], [(3.0, 3.0)], [20.0])
            cfg = tb.PosteriorConfig(alpha=0.7, sigma_obs=0.2)
            for train, prior, scored in ((fold, prior, held_out), (training, one, tests),
                                         (long, big, tests)):
                g = tb.posterior_intensity(prior, train, cfg)
                logs = np.array([tb.diagram_log_density(d, g) for d in scored])
                arrays = b"".join(a.tobytes() for a in (g.weights, g.means, g.variances, logs))
                print(g.n_components, hashlib.sha256(arrays).hexdigest())
        """)
        src = Path(__file__).resolve().parent.parent / "src"
        outs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads}
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        sizes = [int(line.split()[0]) for line in outs[0].splitlines()]
        assert outs[0] == outs[1]
        assert sizes[0] > 1000 and sizes[1:] == [90 * 156 + 1, 100_000]

    def test_undersized_class_rejected(self, rng):
        g = GaussianMixtureIntensity([4.0], [(2.0, 2.0)], [0.5])
        entries = [(sample_ppp_diagram(rng, g), "a") for _ in range(3)]
        entries += [(sample_ppp_diagram(rng, g), "b") for _ in range(10)]
        with pytest.raises(ValidationError):
            stratified_folds(LabeledDataset(tuple(entries), 5))
        with pytest.raises(ValidationError):  # one fold leaves nothing to train on
            stratified_folds(LabeledDataset(tuple(entries), 1))

    @pytest.mark.parametrize("k_folds, message, hi", [
        (1, r"^k_folds must be an integer of at least 2$", "hi"),
        (True, r"^k_folds must be an integer of at least 2$", "hi"),
        (np.True_, r"^k_folds must be an integer of at least 2$", "hi"),
        (2.0, r"^k_folds must be an integer of at least 2$", "hi"),
        (5, r"^class 'lo' has 4 entries, fewer than k_folds=5$", "hi"),
        # labels that do not sort together are refused before they are sorted
        (2, r"^class labels must be strings$", 1),
    ])
    def test_fold_split_refuses_before_any_fit(self, rng, monkeypatch, k_folds, message, hi):
        # a LabeledDataset is a plain record; the fold split checks it, and cross_validate
        # makes the split before it fits anything
        entries = clustered_dataset(rng, 4, 2, {"lo": (0.5, 1.0), hi: (0.5, 8.0)}).entries
        data = LabeledDataset(entries, k_folds)

        def unfitted(prior, training, cfg):
            raise AssertionError("a posterior was fitted")

        monkeypatch.setattr(classifier, "posterior_intensity", unfitted)
        with pytest.raises(ValidationError, match=message):
            stratified_folds(data)
        with pytest.raises(ValidationError, match=message):
            cross_validate(data, self.prior, self.cfg)

    def test_single_class_rejected(self, rng):
        g = GaussianMixtureIntensity([4.0], [(2.0, 2.0)], [0.5])
        entries = [(sample_ppp_diagram(rng, g), "a") for _ in range(10)]
        data = LabeledDataset(tuple(entries), 5)
        with pytest.raises(ValidationError):
            cross_validate(data, self.prior, self.cfg)


class TestFoldOracle:
    """The folds and the report's tallies against the loop versions they replaced."""

    LABELS = ("a", "b", 'say "hi"', "naïve ☃", "x\x00", "x", "")

    def test_folds_byte_identical_to_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            k = int(rng.integers(2, 7))
            labels = rng.choice(len(self.LABELS), int(rng.integers(1, 5)), replace=False)
            entry_labels = [self.LABELS[i] for i in labels
                            for _ in range(int(rng.integers(k, k + 16)))]
            rng.shuffle(entry_labels)
            data = LabeledDataset(tuple((EMPTY, lab) for lab in entry_labels), k)
            seed = int(rng.integers(0, 2**40))
            got, want = stratified_folds(data, seed), oracles.stratified_folds(data, seed)
            assert len(got) == len(want) == k
            for pair, want_pair in zip(got, want):
                for a, b in zip(pair, want_pair):
                    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())

    def test_report_tallies_equal_oracle(self, rng):
        # three overlapping classes of uneven size, so some held-out diagrams are misclassified
        entries = []
        for label, center, n in (("lo", (1.0, 1.0), 9), ("mid", (1.0, 1.2), 13),
                                 ("hi", (1.0, 1.4), 17)):
            g = GaussianMixtureIntensity([6.0], [center], [0.2])
            entries += [(sample_ppp_diagram(rng, g), label) for _ in range(n)]
        data = LabeledDataset(tuple(entries), 4)
        prior = GaussianMixtureIntensity([1.0], [(3.0, 3.0)], [20.0])
        cfg = PosteriorConfig(alpha=0.7, sigma_obs=0.1)
        report = cross_validate(data, prior, cfg, seed=6)
        folds = oracles.stratified_folds(data, 6)
        predicted = []
        for train, test in folds:  # each fold's class posteriors, fitted on its training entries
            posteriors = [(lab, posterior_intensity(
                prior, [data.entries[i][0] for i in train if data.entries[i][1] == lab], cfg))
                for lab in data.labels]
            scores = classifier.score([data.entries[i][0] for i in test], posteriors)
            predicted.append([classify(ld).label for ld in scores])
        per_fold, confusion = oracles.cv_tally(data, folds, predicted)
        assert 0.0 < report["accuracy"] < 1.0
        assert report["per_fold"] == per_fold
        assert report["confusion"] == confusion
        assert report["accuracy"] == float(np.mean(per_fold))
        assert all(type(a) is float for a in report["per_fold"])
        assert all(type(n) is int for row in report["confusion"] for n in row)


class TestClassModelType:
    def test_lambda_must_match_mass(self):
        g = GaussianMixtureIntensity([2.0], [(1.0, 1.0)], [1.0])
        obj = {"label": "x", "posterior": mixture_to_json(g)}
        assert total_mass(model_from_arrays(model_arrays(obj))[1]) == 2.0
        assert total_mass(model_from_arrays(model_arrays({**obj, "lambda": 2.0}))[1]) == 2.0
        for bad in (3.0, 2.0 + 1e-9, "x", "2.0", None, float("nan"), float("inf"), 10**400):
            with pytest.raises(ValidationError):
                model_from_arrays(model_arrays({**obj, "lambda": bad}))
