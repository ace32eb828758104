"""End-to-end acceptance gate for the package.

Every test prints one PASS/FAIL line with its measured quantities, so
`pytest tests/test_acceptance.py -v -s` reads as a checklist. The heavy
classification experiment (criteria 5 and 8) shares module-scoped fixtures.
"""

import time

import numpy as np
import pytest
from scipy.stats import binomtest

from topobayes import (
    ALPHA_BAND,
    BETA_BAND,
    ClassModel,
    GaussianMixtureIntensity,
    LabeledDataset,
    PersistenceDiagram,
    PosteriorConfig,
    add_noise,
    bottleneck_distance,
    cross_validate,
    default_clutter,
    default_prior,
    diagram_log_density,
    eval_intensity,
    fit_class_model,
    generate_band_signal,
    log_bayes_factor,
    posterior_intensity,
    stratified_folds,
    sublevel_pd,
    tilt,
)
from conftest import brute_sublevel_pairs, sample_ppp_diagram, separable_grid_mass
from oracles import posterior_quadrature, quadrature_nodes

# experiment constants: dataset seeds are fixed here; the observation-kernel
# bandwidth was tuned once on signals from a disjoint seed range (base
# 700000) and is frozen
SEED_BASE = 20260
N_PER_CLASS = 100
DURATION = 2.0
RATE = 256.0
ALPHA_OBS = 0.7
TUNED_SIGMA_OBS = 0.2
K_FOLDS = 10
SPLIT_SEED = 0


def report(name, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def _signal_diagram(band, gen_seed, noise_seed, snr_db):
    sig = generate_band_signal(band, DURATION, RATE, gen_seed)
    noisy = add_noise(sig, snr_db, noise_seed)
    return tilt(sublevel_pd(noisy))


@pytest.fixture(scope="module")
def eeg_datasets():
    """100 alpha + 100 beta diagrams at SNR 5 and 3 dB, fixed seeds."""
    datasets = {}
    for snr in (5.0, 3.0):
        entries = []
        for label, band, offset in (("alpha", ALPHA_BAND, 0), ("beta", BETA_BAND, 50_000)):
            for i in range(N_PER_CLASS):
                d = _signal_diagram(
                    band, SEED_BASE + offset + i, SEED_BASE + offset + 25_000 + i, snr
                )
                entries.append((d, label))
        datasets[snr] = LabeledDataset(tuple(entries), K_FOLDS)
    return datasets


@pytest.fixture(scope="module")
def experiment_config():
    return PosteriorConfig(
        alpha=ALPHA_OBS, sigma_obs=TUNED_SIGMA_OBS, clutter=default_clutter()
    )


@pytest.fixture(scope="module")
def cv_reports(eeg_datasets, experiment_config):
    reports = {}
    for snr in (5.0, 3.0):
        start = time.perf_counter()
        rep = cross_validate(
            eeg_datasets[snr], default_prior(), experiment_config, 1.0, SPLIT_SEED
        )
        reports[snr] = (rep, time.perf_counter() - start)
    return reports


def test_criterion_1_posterior_oracle_equivalence():
    """Closed-form mixture vs direct operator quadrature on a 200x200 grid."""
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    worst = 0.0
    for trial, alpha in enumerate([0.3, 0.7, 1.0, 0.3, 0.7]):
        k = int(rng.integers(1, 4))
        variances = rng.uniform(0.3, 2.0, k)
        low = 3.0 * np.sqrt(variances)  # means at least 3 sigma from the boundary
        means = np.column_stack([rng.uniform(low, low + 6.0), rng.uniform(low, low + 6.0)])
        prior = GaussianMixtureIntensity(rng.uniform(0.5, 2.0, k), means, variances)
        cfg = PosteriorConfig(alpha=alpha, sigma_obs=float(rng.uniform(0.3, 1.5)))
        n_obs = int(rng.integers(1, 6))
        obs = [PersistenceDiagram(rng.uniform(2.0, 9.0, (n_obs, 2)))]

        bounds, res = (0.0, 0.0, 12.0, 12.0), 200
        grid = posterior_quadrature(prior, obs, cfg, bounds, res)
        post = posterior_intensity(prior, obs, cfg)
        b_axis, p_axis = quadrature_nodes(bounds, res)
        X = np.stack(np.meshgrid(b_axis, p_axis, indexing="ij"), axis=-1)
        closed = eval_intensity(post, X)
        rel = float(np.abs(closed - grid).max() / np.abs(grid).max())
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-3 and elapsed < 30.0
    report(
        "criterion 1 posterior oracle equivalence",
        ok,
        f"worst sup-norm rel diff {worst:.2e} (< 1e-3), elapsed {elapsed:.1f}s (< 30s)",
    )
    assert worst < 1e-3
    assert elapsed < 30.0


def test_criterion_2_posterior_identities():
    """alpha = 0 keeps the prior exactly; an empty observation scales it."""
    prior = GaussianMixtureIntensity(
        [1.0, 0.5, 2.0], [[2.0, 3.0], [5.0, 1.0], [1.0, 6.0]], [1.0, 2.0, 0.7]
    )
    obs = [PersistenceDiagram([[1.0, 1.0], [2.0, 2.0]])]
    p0 = posterior_intensity(prior, obs, PosteriorConfig(alpha=0.0, sigma_obs=1.0))
    identical = (
        np.array_equal(p0.weights, prior.weights)
        and np.array_equal(p0.means, prior.means)
        and np.array_equal(p0.variances, prior.variances)
    )

    alpha = 0.6
    p_empty = posterior_intensity(
        prior, [PersistenceDiagram(np.zeros((0, 2)))],
        PosteriorConfig(alpha=alpha, sigma_obs=1.0),
    )
    scaled = (
        np.array_equal(p_empty.weights, (1.0 - alpha) * prior.weights)
        and np.array_equal(p_empty.means, prior.means)
        and np.array_equal(p_empty.variances, prior.variances)
    )
    report(
        "criterion 2 posterior identities",
        identical and scaled,
        f"alpha=0 exact: {identical}, empty observation exact: {scaled}",
    )
    assert identical and scaled


def test_criterion_3_filtration_oracle():
    """Union-find diagrams match brute-force component enumeration exactly."""
    rng = np.random.default_rng(314)
    start = time.perf_counter()
    checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 65))
        vals = rng.normal(size=n)
        while len(np.unique(vals)) < n:
            vals = rng.normal(size=n)
        got = sorted(map(tuple, sublevel_pd(vals)))
        want = brute_sublevel_pairs(vals)
        assert got == want  # exact multiset equality, both copy sample values
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 200 and elapsed < 10.0
    report(
        "criterion 3 filtration oracle",
        ok,
        f"{checked}/200 random signals exact, elapsed {elapsed:.1f}s (< 10s)",
    )
    assert elapsed < 10.0


def test_criterion_4_stability():
    """Bottleneck distance is bounded by the sup-norm signal perturbation."""
    rng = np.random.default_rng(2718)
    worst = {0.01: 0.0, 0.1: 0.0}
    for _ in range(50):
        n = int(rng.integers(16, 65))
        vals = rng.normal(size=n)
        base = tilt(sublevel_pd(vals))
        for eps in (0.01, 0.1):
            noise = rng.uniform(-1.0, 1.0, n)
            noise *= eps / np.abs(noise).max()
            perturbed = tilt(sublevel_pd(vals + noise))
            dist = bottleneck_distance(base, perturbed)
            worst[eps] = max(worst[eps], dist)
            assert dist <= eps + 1e-12
    ok = all(worst[eps] <= eps + 1e-12 for eps in worst)
    report(
        "criterion 4 stability",
        ok,
        f"worst distances {worst[0.01]:.4f} (eps 0.01), {worst[0.1]:.4f} (eps 0.1)",
    )


def test_criterion_5_classification_at_desk_scale(cv_reports):
    """10-fold CV on the synthetic two-band dataset at 5 and 3 dB SNR."""
    rep5, t5 = cv_reports[5.0]
    rep3, t3 = cv_reports[3.0]
    acc5, acc3 = rep5["accuracy"], rep3["accuracy"]
    ok = acc5 >= 0.90 and acc5 >= acc3 - 0.02 and t5 < 300.0
    report(
        "criterion 5 classification at desk scale",
        ok,
        f"accuracy {acc5:.3f} @5dB (>= 0.90), {acc3:.3f} @3dB "
        f"(trend ok: {acc5 >= acc3 - 0.02}), elapsed {t5:.0f}s (< 300s)",
    )
    assert acc5 >= 0.90
    assert acc5 >= acc3 - 0.02
    assert t5 < 300.0


def test_criterion_6_bayes_factor_algebra():
    """Antisymmetry of the log Bayes factor and unit factor for equal models."""
    rng = np.random.default_rng(555)
    prior = default_prior()
    cfg = PosteriorConfig(alpha=0.6, sigma_obs=0.4)
    m1 = fit_class_model(
        [PersistenceDiagram(rng.uniform(0, 4, (5, 2)))], prior, cfg, "one"
    )
    m2 = fit_class_model(
        [PersistenceDiagram(rng.uniform(2, 8, (4, 2)))], prior, cfg, "two"
    )
    exact = 0
    for _ in range(100):
        d = PersistenceDiagram(rng.uniform(0, 8, (int(rng.integers(0, 8)), 2)))
        anti = log_bayes_factor(d, m1, m2) == -log_bayes_factor(d, m2, m1)
        unit = log_bayes_factor(d, m1, m1) == 0.0
        exact += anti and unit
    report(
        "criterion 6 Bayes factor algebra",
        exact == 100,
        f"{exact}/100 cases exact (antisymmetry and unit factor)",
    )
    assert exact == 100


def test_criterion_7_density_sanity():
    """Sampled diagrams prefer their true model over a mean-shifted one."""
    rng = np.random.default_rng(777)
    var = 0.5
    shift = 2.0 * np.sqrt(var)
    truth = GaussianMixtureIntensity(
        [4.0, 3.0], [[2.0, 2.0], [5.0, 1.5]], [var, var]
    )
    shifted = GaussianMixtureIntensity(
        [4.0, 3.0], np.array([[2.0, 2.0], [5.0, 1.5]]) + shift, [var, var]
    )
    m_t = ClassModel("true", truth)
    m_s = ClassModel("shifted", shifted)
    diffs = np.array([
        diagram_log_density(d, m_t) - diagram_log_density(d, m_s)
        for d in (sample_ppp_diagram(rng, truth) for _ in range(1000))
    ])
    wins = int((diffs > 0).sum())
    pvalue = binomtest(wins, 1000, 0.5, alternative="greater").pvalue
    ok = diffs.mean() > 0 and pvalue < 0.01
    report(
        "criterion 7 density sanity",
        ok,
        f"mean log-density edge {diffs.mean():.2f}, wins {wins}/1000, "
        f"sign-test p {pvalue:.2e} (< 0.01)",
    )
    assert diffs.mean() > 0
    assert pvalue < 0.01


def test_criterion_8_mass_consistency(eeg_datasets, experiment_config):
    """Total mass of every fold model matches grid quadrature of its intensity."""
    start = time.perf_counter()
    worst = 0.0
    n_models = 0
    for snr in (5.0, 3.0):
        data = eeg_datasets[snr]
        for train_idx, _ in stratified_folds(data, SPLIT_SEED):
            for label in data.labels:
                training = [
                    data.entries[i][0] for i in train_idx if data.entries[i][1] == label
                ]
                model = fit_class_model(
                    training, default_prior(), experiment_config, label
                )
                g = model.posterior
                box = float(np.max(g.means) + 8.0 * np.sqrt(g.variances.max()))
                quad = separable_grid_mass(g, box, 3200)
                rel = abs(quad - model.lam) / model.lam
                worst = max(worst, rel)
                n_models += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4
    report(
        "criterion 8 mass consistency",
        ok,
        f"worst rel error {worst:.2e} (< 1e-4) over {n_models} fold models, "
        f"elapsed {elapsed:.0f}s",
    )
    assert worst < 1e-4
