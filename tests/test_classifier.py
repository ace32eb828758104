import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from topobayes import (
    ClassModel,
    GaussianMixtureIntensity,
    LabeledDataset,
    PersistenceDiagram,
    PosteriorConfig,
    ValidationError,
    classify,
    cross_validate,
    diagram_log_density,
    fit_class_model,
    log_bayes_factor,
    log_eval_intensity,
    stratified_folds,
    total_mass,
)
from topobayes import classifier
from topobayes.cli import model_from_json
from conftest import sample_ppp_diagram, separable_grid_mass
import oracles
from oracles import mixture_to_json, model_to_json


def model_at(mean, label="m", lam=5.0, var=0.5):
    g = GaussianMixtureIntensity.single(lam, mean, var)
    return ClassModel(label=label, posterior=g)


def diagram(*points):
    return PersistenceDiagram(np.array(points, dtype=float))


EMPTY = PersistenceDiagram(np.zeros((0, 2)))


class TestDiagramLogDensity:
    def test_empty_diagram(self):
        m = model_at((2.0, 2.0), lam=3.5)
        assert diagram_log_density(EMPTY, m) == -3.5

    def test_single_point(self):
        m = model_at((2.0, 2.0), lam=3.5)
        x = (2.5, 1.5)
        v = log_eval_intensity(m.posterior, x)
        assert diagram_log_density(diagram(x), m) == pytest.approx(-3.5 + v, rel=1e-12)

    def test_point_permutation_invariant(self, rng):
        m = model_at((2.0, 2.0))
        pts = rng.uniform(0, 5, (6, 2))
        a = diagram_log_density(PersistenceDiagram(pts), m)
        b = diagram_log_density(PersistenceDiagram(pts[::-1]), m)
        assert a == pytest.approx(b, rel=1e-14)

    def test_empty_model_scores_minus_inf(self):
        empty_model = ClassModel("none", GaussianMixtureIntensity.empty())
        assert diagram_log_density(diagram((1.0, 1.0)), empty_model) == -np.inf
        assert diagram_log_density(EMPTY, empty_model) == 0.0

    def test_monte_carlo_prefers_true_model(self, rng):
        # sampler as oracle: diagrams drawn from a known process score higher
        # on average under that process than under a mean-shifted copy
        truth = GaussianMixtureIntensity(
            [4.0, 3.0], [[2.0, 2.0], [5.0, 1.0]], [0.5, 0.5]
        )
        shifted = GaussianMixtureIntensity(
            [4.0, 3.0], [[3.5, 3.5], [6.5, 2.5]], [0.5, 0.5]
        )
        m_true = ClassModel("t", truth)
        m_shift = ClassModel("s", shifted)
        diffs = []
        for _ in range(300):
            d = sample_ppp_diagram(rng, truth)
            diffs.append(diagram_log_density(d, m_true) - diagram_log_density(d, m_shift))
        assert np.mean(diffs) > 0
        assert np.mean(np.array(diffs) > 0) > 0.9


class TestLogBayesFactor:
    def test_identical_models_give_zero(self, rng):
        m = model_at((2.0, 2.0))
        for _ in range(20):
            d = PersistenceDiagram(rng.uniform(0, 5, (4, 2)))
            assert log_bayes_factor(d, m, m) == 0.0

    def test_antisymmetry_exact(self, rng):
        a = model_at((2.0, 2.0), "a")
        b = model_at((4.0, 1.0), "b", lam=7.0)
        for _ in range(50):
            d = PersistenceDiagram(rng.uniform(0, 6, (int(rng.integers(0, 6)), 2)))
            assert log_bayes_factor(d, a, b) == -log_bayes_factor(d, b, a)

    def test_diagram_near_model_i_scores_positive(self, rng):
        a = model_at((1.0, 1.0), "a")
        b = model_at((6.0, 6.0), "b")
        d = sample_ppp_diagram(rng, a.posterior)
        assert log_bayes_factor(d, a, b) > 0

    def test_double_minus_inf_defined_as_zero(self):
        none_a = ClassModel("a", GaussianMixtureIntensity.empty())
        none_b = ClassModel("b", GaussianMixtureIntensity.empty())
        assert log_bayes_factor(diagram((1.0, 1.0)), none_a, none_b) == 0.0


class TestFitClassModel:
    def setup_method(self):
        self.prior = GaussianMixtureIntensity.single(1.0, (3.0, 3.0), 20.0)

    def test_alpha_zero_keeps_prior(self):
        cfg = PosteriorConfig(alpha=0.0, sigma_obs=1.0)
        m = fit_class_model([diagram((1.0, 1.0))], self.prior, cfg, "x")
        assert np.array_equal(m.posterior.weights, self.prior.weights)
        assert m.lam == total_mass(self.prior)

    def test_duplicated_diagram_changes_nothing(self):
        # the update averages over diagrams, so m identical copies match m=1
        cfg = PosteriorConfig(alpha=0.7, sigma_obs=0.5)
        d = diagram((2.0, 2.0), (4.0, 1.0))
        one = fit_class_model([d], self.prior, cfg, "x")
        two = fit_class_model([d, d], self.prior, cfg, "x")
        pts = np.random.default_rng(0).uniform(0, 6, (50, 2))
        assert np.allclose(
            log_eval_intensity(one.posterior, pts),
            log_eval_intensity(two.posterior, pts),
            rtol=1e-10,
        )
        assert one.lam == pytest.approx(two.lam, rel=1e-12)

    def test_lambda_matches_quadrature(self):
        cfg = PosteriorConfig(alpha=0.7, sigma_obs=0.5)
        m = fit_class_model(
            [diagram((2.0, 2.0), (4.0, 1.0)), diagram((3.0, 2.5))],
            self.prior, cfg, "x",
        )
        box = float(np.max(m.posterior.means) + 8 * np.sqrt(m.posterior.variances.max()))
        quad = separable_grid_mass(m.posterior, box, 4000)
        assert m.lam == pytest.approx(quad, rel=1e-4)

    def test_empty_training_rejected(self):
        cfg = PosteriorConfig(alpha=0.7, sigma_obs=0.5)
        with pytest.raises(ValidationError):
            fit_class_model([], self.prior, cfg, "x")

    def test_model_and_scores_same_at_one_and_two_blas_threads(self):
        set_threads = classifier._openblas_set_threads()
        if set_threads is None:
            pytest.skip("numpy's BLAS has no openblas_set_num_threads_local")
        # about 14k components: each scoring product is then split over BLAS's threads
        rng = np.random.default_rng(7)
        training = [PersistenceDiagram(rng.uniform(0.2, 6.0, (156, 2))) for _ in range(90)]
        tests = [PersistenceDiagram(rng.uniform(0.2, 6.0, (156, 2))) for _ in range(4)]
        # 100 prior components: each point's denominator is then a sum that a BLAS product
        # would split over its threads
        big = GaussianMixtureIntensity(rng.uniform(0.5, 2.0, 100), rng.uniform(0.2, 6.0, (100, 2)),
                                       rng.uniform(0.5, 4.0, 100))
        long = [PersistenceDiagram(rng.uniform(0.2, 6.0, (5_003, 2)))]
        cfg = PosteriorConfig(alpha=0.7, sigma_obs=0.2)
        for train, prior, size in ((training, self.prior, 90 * 156 + 1),
                                   (long, big, 100_000)):
            runs = []
            before = set_threads(1)
            try:
                for threads in (1, 2):
                    set_threads(threads)
                    g = fit_class_model(train, prior, cfg, "x").posterior
                    logs = np.array([diagram_log_density(d, ClassModel("x", g)) for d in tests])
                    runs.append((g.weights.tobytes(), g.means.tobytes(), g.variances.tobytes(),
                                 logs.tobytes()))
            finally:
                set_threads(before)
            assert g.n_components == size
            assert runs[0] == runs[1]

    def test_model_json_roundtrip(self):
        cfg = PosteriorConfig(alpha=0.7, sigma_obs=0.5)
        m = fit_class_model([diagram((2.0, 2.0))], self.prior, cfg, "x")
        back = model_from_json(model_to_json(m))
        assert back.label == m.label
        assert back.lam == m.lam
        assert np.array_equal(back.posterior.weights, m.posterior.weights)
        assert np.array_equal(back.posterior.means, m.posterior.means)


class TestClassify:
    def test_two_class_margin(self, rng):
        a = model_at((1.0, 1.0), "a")
        b = model_at((6.0, 6.0), "b")
        d = sample_ppp_diagram(rng, a.posterior)
        result = classify(d, [a, b])
        assert result.label == "a"
        assert result.votes == {"a": 1, "b": 0}

    def test_identical_models_tie_breaks_to_first_label(self):
        g = GaussianMixtureIntensity.single(2.0, (2.0, 2.0), 1.0)
        m1 = ClassModel("x", g)
        m2 = ClassModel("y", g)
        result = classify(diagram((2.0, 2.0)), [m1, m2])
        assert result.votes == {"x": 0, "y": 0}  # exact tie casts no vote
        assert result.label == "x"  # broken by label order
        # and the list order does not matter
        assert classify(diagram((2.0, 2.0)), [m2, m1]).label == "x"

    def test_three_class_majority(self, rng):
        a = model_at((1.0, 1.0), "a")
        b = model_at((4.0, 4.0), "b")
        c = model_at((9.0, 9.0), "c")
        d = diagram((1.2, 1.1))  # closest to a, then b, then c
        result = classify(d, [a, b, c])
        assert result.votes == {"a": 2, "b": 1, "c": 0}
        assert result.label == "a"

    def test_permutation_invariance(self, rng):
        models = [model_at((1.0, 1.0), "a"), model_at((4.0, 2.0), "b"),
                  model_at((2.0, 5.0), "c")]
        for _ in range(10):
            d = PersistenceDiagram(rng.uniform(0, 6, (5, 2)))
            base = classify(d, models)
            perm = [models[i] for i in rng.permutation(3)]
            assert classify(d, perm).label == base.label

    def test_weight_identity_scaling_keeps_argmax(self, rng):
        models = [model_at((1.0, 1.0), "a"), model_at((5.0, 3.0), "b")]
        scaled = [
            ClassModel(m.label,
                       GaussianMixtureIntensity(m.posterior.weights * 1.0,
                                                m.posterior.means,
                                                m.posterior.variances))
            for m in models
        ]
        for _ in range(10):
            d = PersistenceDiagram(rng.uniform(0, 6, (4, 2)))
            assert classify(d, models).label == classify(d, scaled).label

    def test_needs_two_models(self):
        with pytest.raises(ValidationError):
            classify(EMPTY, [model_at((1.0, 1.0), "a")])

    def test_threshold_must_be_positive(self):
        models = [model_at((1.0, 1.0), "a"), model_at((2.0, 2.0), "b")]
        for c in (0.0, np.nan, np.inf):
            with pytest.raises(ValidationError):
                classify(EMPTY, models, threshold_c=c)

    def test_duplicate_labels_rejected(self):
        models = [model_at((1.0, 1.0), "a"), model_at((2.0, 2.0), "a")]
        with pytest.raises(ValidationError):
            classify(EMPTY, models)


def clustered_dataset(rng, n_per_class, k, centers, var=0.05):
    entries = []
    for label, center in centers.items():
        g = GaussianMixtureIntensity.single(6.0, center, var)
        for _ in range(n_per_class):
            entries.append((sample_ppp_diagram(rng, g), label))
    return LabeledDataset(tuple(entries), k)


class TestCrossValidate:
    def setup_method(self):
        self.prior = GaussianMixtureIntensity.single(1.0, (3.0, 3.0), 20.0)
        self.cfg = PosteriorConfig(alpha=0.7, sigma_obs=0.1)

    def test_separated_clusters_classify_perfectly(self, rng):
        # clusters 20 sigma apart force the density ordering
        data = clustered_dataset(rng, 20, 4, {"lo": (0.5, 1.0), "hi": (0.5, 8.0)})
        report = cross_validate(data, self.prior, self.cfg, seed=3)
        assert report["accuracy"] == 1.0
        assert np.trace(np.array(report["confusion"])) == 40

    def test_identical_classes_near_chance(self, rng):
        g = GaussianMixtureIntensity.single(6.0, (2.0, 2.0), 0.5)
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
            densities = {}

            def recording(d, models, threshold_c=1.0):
                result = classify_once(d, models, threshold_c)
                densities[id(d)] = repr(result.log_densities)
                return result

            monkeypatch.setattr(classifier, "usable_cpus", lambda: cpus)
            monkeypatch.setattr(classifier, "classify", recording)
            runs.append((cross_validate(data, self.prior, self.cfg, seed=5), densities))
        assert len(runs[0][1]) == len(data.entries)
        assert 0.5 < runs[0][0]["accuracy"] < 1.0
        assert runs[0] == runs[1]

    def test_blas_held_to_one_thread_and_restored(self, rng, monkeypatch):
        set_threads = classifier._openblas_set_threads()
        if set_threads is None:
            pytest.skip("numpy's BLAS has no openblas_set_num_threads_local")
        data = clustered_dataset(rng, 8, 4, {"lo": (0.5, 1.0), "hi": (0.5, 8.0)})
        fit_once = classifier.fit_class_model
        held_counts = []
        fault = ValidationError("one fold fails")
        held_out, held_out_label = data.entries[0]

        def recording_fit(training, prior, cfg, label):
            held_counts.append(set_threads(1))  # sets the count it should already be
            return fit_once(training, prior, cfg, label)

        def failing_fit(training, prior, cfg, label):
            # fails only in the fold that holds entry 0 out
            if label == held_out_label and not any(d is held_out for d in training):
                raise fault
            return fit_once(training, prior, cfg, label)

        monkeypatch.setattr(classifier, "usable_cpus", lambda: 3)
        before = set_threads(2)
        try:
            monkeypatch.setattr(classifier, "fit_class_model", recording_fit)
            cross_validate(data, self.prior, self.cfg)
            assert held_counts == [1] * 8
            assert set_threads(2) == 2
            monkeypatch.setattr(classifier, "fit_class_model", failing_fit)
            with pytest.raises(ValidationError) as caught:
                cross_validate(data, self.prior, self.cfg)
            assert caught.value is fault
            assert set_threads(2) == 2
        finally:
            set_threads(before)

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
            training = [data.entries[i][0] for i in train if data.entries[i][1] == "a"]
            cfg = tb.PosteriorConfig(alpha=0.7, sigma_obs=0.2)
            model = tb.fit_class_model(training, prior, cfg, "a")
            logs = np.array([tb.diagram_log_density(data.entries[i][0], model) for i in test])
            g = model.posterior
            print(g.n_components, hashlib.sha256(logs.tobytes() + g.weights.tobytes()
                                                 + g.means.tobytes()).hexdigest())
        """)
        src = Path(__file__).resolve().parent.parent / "src"
        outs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads}
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1] and int(outs[0].split()[0]) > 1000

    def test_undersized_class_rejected(self, rng):
        g = GaussianMixtureIntensity.single(4.0, (2.0, 2.0), 0.5)
        entries = [(sample_ppp_diagram(rng, g), "a") for _ in range(3)]
        entries += [(sample_ppp_diagram(rng, g), "b") for _ in range(10)]
        with pytest.raises(ValidationError):
            LabeledDataset(tuple(entries), 5)
        with pytest.raises(ValidationError):  # one fold leaves nothing to train on
            LabeledDataset(tuple(entries), 1)

    def test_single_class_rejected(self, rng):
        g = GaussianMixtureIntensity.single(4.0, (2.0, 2.0), 0.5)
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
            g = GaussianMixtureIntensity.single(6.0, center, 0.2)
            entries += [(sample_ppp_diagram(rng, g), label) for _ in range(n)]
        data = LabeledDataset(tuple(entries), 4)
        prior = GaussianMixtureIntensity.single(1.0, (3.0, 3.0), 20.0)
        cfg = PosteriorConfig(alpha=0.7, sigma_obs=0.1)
        report = cross_validate(data, prior, cfg, seed=6)
        folds = oracles.stratified_folds(data, 6)
        predicted = [classifier._fold_labels(f, data, prior, cfg, 1.0) for f in folds]
        per_fold, confusion = oracles.cv_tally(data, folds, predicted)
        assert 0.0 < report["accuracy"] < 1.0
        assert report["per_fold"] == per_fold
        assert report["confusion"] == confusion
        assert report["accuracy"] == float(np.mean(per_fold))
        assert all(type(a) is float for a in report["per_fold"])
        assert all(type(n) is int for row in report["confusion"] for n in row)


class TestClassModelType:
    def test_lambda_must_match_mass(self):
        g = GaussianMixtureIntensity.single(2.0, (1.0, 1.0), 1.0)
        obj = {"label": "x", "posterior": mixture_to_json(g)}
        assert model_from_json(obj).lam == 2.0
        assert model_from_json({**obj, "lambda": 2.0}).lam == 2.0
        for bad in (3.0, 2.0 + 1e-9, "x", "2.0", None, float("nan"), float("inf"), 10**400):
            with pytest.raises(ValidationError):
                model_from_json({**obj, "lambda": bad})
