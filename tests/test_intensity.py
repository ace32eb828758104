import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topobayes import (
    GaussianMixtureIntensity,
    ValidationError,
    eval_intensity,
    intensity_grid,
    log_eval_intensity,
    mixture_from_json,
    mixture_to_json,
    restricted_normal_pdf,
    total_mass,
    wedge_mass,
)
from conftest import naive_grid_mass, random_mixture, separable_grid_mass


class TestRestrictedNormal:
    def test_origin_mean_quadrant_symmetry(self):
        # mean at the corner: a quarter of the Gaussian lies in the wedge
        var = 1.7
        x = np.array([0.4, 0.9])
        unrestricted = np.exp(-(x @ x) / (2 * var)) / (2 * np.pi * var)
        assert restricted_normal_pdf(x, (0.0, 0.0), var) == pytest.approx(
            4.0 * unrestricted, rel=1e-12
        )

    def test_broad_prior_wedge_mass(self):
        # frozen from 2-D midpoint quadrature of the raw Gaussian over the
        # wedge (the double sum factors per axis for an isotropic kernel)
        got = wedge_mass(3.0, 3.0, 20.0)
        assert got == pytest.approx(0.5607501, abs=1e-6)
        h = 60.0 / 6000
        axis = (np.arange(6000) + 0.5) * h
        one_axis = float(np.exp(-((axis - 3.0) ** 2) / (2 * 20.0)).sum()) * h
        quad = one_axis**2 / (2 * np.pi * 20.0)
        assert got == pytest.approx(quad, rel=1e-5)

    def test_zero_outside_wedge(self):
        assert restricted_normal_pdf((-1.0, 1.0), (3.0, 3.0), 2.0) == 0.0
        assert restricted_normal_pdf((1.0, -1e-9), (3.0, 3.0), 2.0) == 0.0

    def test_boundary_included(self):
        assert restricted_normal_pdf((0.0, 0.0), (1.0, 1.0), 1.0) > 0.0

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValidationError):
            restricted_normal_pdf((1.0, 1.0), (1.0, 1.0), 0.0)

    @given(
        st.floats(-5, 15, allow_nan=False),
        st.floats(-5, 15, allow_nan=False),
        st.floats(0.05, 30, allow_nan=False),
    )
    @settings(max_examples=150)
    def test_wedge_mass_in_unit_interval(self, mb, mp, var):
        z = wedge_mass(mb, mp, var)
        assert 0.0 < z <= 1.0

    def test_wedge_mass_tends_to_one_deep_inside(self):
        var = 2.0
        values = [wedge_mass(c, c, var) for c in (1.0, 3.0, 6.0, 12.0)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, abs=1e-8)


class TestEvalIntensity:
    def test_empty_mixture_is_zero(self):
        g = GaussianMixtureIntensity.empty()
        assert eval_intensity(g, (1.0, 1.0)) == 0.0
        assert total_mass(g) == 0.0
        assert log_eval_intensity(g, (1.0, 1.0)) == -np.inf

    def test_weight_scales_linearly(self):
        g1 = GaussianMixtureIntensity.single(2.0, (2.0, 3.0), 1.5)
        x = (1.0, 2.5)
        assert eval_intensity(g1, x) == pytest.approx(
            2.0 * restricted_normal_pdf(x, (2.0, 3.0), 1.5), rel=1e-12
        )

    def test_mirrored_components_are_swap_symmetric(self):
        g = GaussianMixtureIntensity(
            [1.0, 1.0], [[1.0, 4.0], [4.0, 1.0]], [0.8, 0.8]
        )
        for x in [(0.5, 2.0), (3.0, 1.0), (2.2, 2.9)]:
            assert eval_intensity(g, x) == pytest.approx(
                eval_intensity(g, (x[1], x[0])), rel=1e-12
            )

    def test_concatenation_is_pointwise_sum(self, rng):
        g1 = random_mixture(rng)
        g2 = random_mixture(rng)
        both = GaussianMixtureIntensity(
            np.concatenate([g1.weights, g2.weights]),
            np.concatenate([g1.means, g2.means]),
            np.concatenate([g1.variances, g2.variances]),
        )
        pts = rng.uniform(0, 8, (40, 2))
        assert np.allclose(
            eval_intensity(both, pts),
            eval_intensity(g1, pts) + eval_intensity(g2, pts),
            rtol=1e-12,
        )

    def test_nonnegative_and_zero_outside(self, rng):
        g = random_mixture(rng)
        pts = rng.uniform(-4, 8, (200, 2))
        vals = eval_intensity(g, pts)
        assert np.all(vals >= 0)
        outside = (pts[:, 0] < 0) | (pts[:, 1] < 0)
        assert np.all(vals[outside] == 0)

    def test_log_survives_underflow(self):
        g = GaussianMixtureIntensity.single(1.0, (1.0, 1.0), 0.01)
        far = (400.0, 400.0)
        assert eval_intensity(g, far) == 0.0  # linear evaluation underflows
        assert np.isfinite(log_eval_intensity(g, far))


def oracle_log_intensity(g, pts):
    """log intensity by a loop over components with direct differences.

    Each component contributes log(w) - log(2 pi v) - |x - mu|^2 / (2v)
    - log Phi(mu_b / s) - log Phi(mu_p / s); the terms are reduced per point
    with a max shift. Uses math and numpy only, no package code.
    """
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    terms = []
    for w, (mb, mp), v in zip(g.weights, g.means, g.variances):
        s = math.sqrt(v)
        log_phi = sum(math.log(0.5 * math.erfc(-m / (s * math.sqrt(2.0)))) for m in (mb, mp))
        d2 = (pts[:, 0] - mb) ** 2 + (pts[:, 1] - mp) ** 2
        terms.append(math.log(w) - math.log(2.0 * math.pi * v) - d2 / (2.0 * v) - log_phi)
    if not terms:
        return np.full(len(pts), -np.inf)
    terms = np.array(terms)
    peak = terms.max(axis=0)
    out = peak + np.log(np.exp(terms - peak).sum(axis=0))
    out[(pts[:, 0] < 0) | (pts[:, 1] < 0)] = -np.inf
    return out


class TestLogKernelOracle:
    """log_eval_intensity against oracle_log_intensity.

    The core expands |x - mu|^2 = |x|^2 - 2 x.mu + |mu|^2, which costs a few
    ulps of the largest term divided by 2v: below 1e-12 absolute for points
    and means within [0, 8]^2 and variances of at least 0.2.
    """

    def test_random_mixtures(self, rng):
        for _ in range(20):
            g = random_mixture(rng, max_components=12)
            pts = rng.uniform(0, 8, (60, 2))
            assert np.allclose(log_eval_intensity(g, pts), oracle_log_intensity(g, pts),
                               rtol=0, atol=1e-12)
            assert np.allclose(eval_intensity(g, pts), np.exp(oracle_log_intensity(g, pts)),
                               rtol=1e-12, atol=0)

    def test_far_outside_the_support(self):
        g = GaussianMixtureIntensity([1.0, 2.0], [[1.0, 1.0], [2.0, 0.5]], [0.01, 0.02])
        far = np.array([[400.0, 400.0], [0.0, 900.0], [1e4, 3.0]])
        got = log_eval_intensity(g, far)
        assert np.all(np.isfinite(got))
        assert np.allclose(got, oracle_log_intensity(g, far), rtol=1e-12, atol=0)
        assert np.all(eval_intensity(g, far) == 0.0)

    def test_at_a_mean_with_large_coordinates(self, rng):
        # |x|^2 ~ 1e8 here, so the expanded distance is off by ~1e-8 and may
        # come out negative; clamped, no term can exceed its value at the mean
        means = rng.uniform(1e3, 1e4, (40, 2))
        for mean in means:
            g = GaussianMixtureIntensity.single(1.5, mean, 0.5)
            got = log_eval_intensity(g, mean)
            want = float(oracle_log_intensity(g, mean)[0])
            assert got <= want + 1e-13
            assert got == pytest.approx(want, abs=1e-6)

    def test_wedge_boundary_and_outside(self, rng):
        g = random_mixture(rng, max_components=6)
        pts = np.array([[0.0, 0.0], [0.0, 2.5], [3.0, 0.0], [-1e-12, 1.0], [1.0, -0.5], [-2.0, -2.0]])
        got = log_eval_intensity(g, pts)
        want = oracle_log_intensity(g, pts)
        assert np.all(np.isfinite(got[:3]))
        assert np.allclose(got[:3], want[:3], rtol=0, atol=1e-12)
        assert np.all(got[3:] == -np.inf) and np.all(want[3:] == -np.inf)
        assert np.all(eval_intensity(g, pts[3:]) == 0.0)

    def test_empty_mixture(self):
        g = GaussianMixtureIntensity.empty()
        pts = np.ones((3, 4, 2))
        assert log_eval_intensity(g, pts).shape == (3, 4)
        assert np.all(log_eval_intensity(g, pts) == -np.inf)
        assert np.all(oracle_log_intensity(g, pts) == -np.inf)
        assert np.all(eval_intensity(g, pts) == 0.0)

    def test_scalar_input(self, rng):
        g = random_mixture(rng)
        got = log_eval_intensity(g, (1.25, 2.5))
        assert isinstance(got, float)
        assert got == pytest.approx(float(oracle_log_intensity(g, (1.25, 2.5))[0]), abs=1e-12)

    @pytest.mark.parametrize("n_points", [5, 6, 7, 12, 13, 19])
    def test_point_counts_straddling_a_chunk(self, rng, monkeypatch, n_points):
        # 10 components and 64-element chunks give 6 rows per chunk
        monkeypatch.setattr("topobayes.intensity._CHUNK_ELEMENTS", 64)
        g = GaussianMixtureIntensity(rng.uniform(0.5, 3.0, 10), rng.uniform(0, 8, (10, 2)),
                                     rng.uniform(0.2, 4.0, 10))
        pts = rng.uniform(-1, 8, (n_points, 2))
        got = log_eval_intensity(g, pts)
        want = oracle_log_intensity(g, pts)
        assert np.array_equal(np.isneginf(got), np.isneginf(want))
        finite = np.isfinite(want)
        assert np.allclose(got[finite], want[finite], rtol=0, atol=1e-12)


def test_scoring_memory_is_bounded():
    # 150 points against 100k components: the full (points, K) array alone
    # would be 120 MB; the chunked core keeps its work array near 2 MB
    rng = np.random.default_rng(7)
    k = 100_000
    g = GaussianMixtureIntensity(rng.uniform(1e-6, 1e-4, k), rng.uniform(0, 6, (k, 2)),
                                 rng.uniform(0.05, 0.3, k))
    pts = rng.uniform(0, 6, (150, 2))
    tracemalloc.start()
    try:
        logs = log_eval_intensity(g, pts)
        vals = eval_intensity(g, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(logs)) and np.all(vals > 0)
    assert peak < 64 * 2**20


class TestTotalMass:
    def test_weight_sum(self):
        g = GaussianMixtureIntensity(
            [1.0, 2.0, 0.5], [[1, 1], [2, 2], [3, 3]], [1.0, 1.0, 1.0]
        )
        assert total_mass(g) == 3.5

    def test_quadrature_agrees_for_random_mixtures(self, rng):
        for _ in range(20):
            g = random_mixture(rng)
            box = float(np.max(g.means) + 8 * np.sqrt(g.variances.max()))
            quad = separable_grid_mass(g, box, 4000)
            assert quad == pytest.approx(total_mass(g), rel=1e-4)

    def test_separable_equals_naive_grid_sum(self, rng):
        # the fast factored oracle is literally the same midpoint double sum
        for _ in range(3):
            g = random_mixture(rng, max_components=3)
            box = float(np.max(g.means) + 8 * np.sqrt(g.variances.max()))
            assert separable_grid_mass(g, box, 400) == pytest.approx(
                naive_grid_mass(g, box, 400), rel=1e-11
            )


class TestIntensityGrid:
    def test_peak_cell_is_one(self):
        g = GaussianMixtureIntensity.single(3.0, (2.0, 2.0), 0.5)
        grid = intensity_grid(g, (0, 0, 4, 4), 33)
        assert grid.max() == 1.0

    def test_zero_mixture_gives_zeros(self):
        grid = intensity_grid(GaussianMixtureIntensity.empty(), (0, 0, 4, 4), 16)
        assert np.all(grid == 0)

    def test_argmax_cell_near_mean(self):
        g = GaussianMixtureIntensity.single(1.0, (1.5, 2.5), 0.3)
        nb = npts = 41
        grid = intensity_grid(g, (0, 0, 4, 4), (nb, npts))
        i, j = np.unravel_index(np.argmax(grid), grid.shape)
        b_axis = np.linspace(0, 4, nb)
        p_axis = np.linspace(0, 4, npts)
        cell = 4 / (nb - 1)
        assert abs(b_axis[i] - 1.5) <= cell
        assert abs(p_axis[j] - 2.5) <= cell

    def test_degenerate_bounds_rejected(self):
        g = GaussianMixtureIntensity.single(1.0, (1, 1), 1.0)
        with pytest.raises(ValidationError):
            intensity_grid(g, (0, 0, 0, 4), 16)
        with pytest.raises(ValidationError):
            intensity_grid(g, (-1, 0, 4, 4), 16)
        with pytest.raises(ValidationError):
            intensity_grid(g, (0, 0, np.inf, 3), 16)
        with pytest.raises(ValidationError):
            intensity_grid(g, (0, 0, 4, 4), 1)


class TestMixtureType:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            GaussianMixtureIntensity([0.0], [[1, 1]], [1.0])
        with pytest.raises(ValidationError):
            GaussianMixtureIntensity([1.0], [[1, 1]], [-1.0])
        with pytest.raises(ValidationError):
            GaussianMixtureIntensity([1.0, 2.0], [[1, 1]], [1.0, 1.0])
        with pytest.raises(ValidationError):  # finite weights, total mass overflows
            GaussianMixtureIntensity([1e308, 1e308], [[1, 1], [2, 2]], [1.0, 1.0])

    @pytest.mark.parametrize("mean, var", [
        ((1e10, 1.0), 1e-300),    # the linear coefficient mean / var overflows
        ((-1e200, 1.0), 1e-200),  # the log wedge mass is -inf, so log_norm is +inf
        ((1.0, 1.0), 5e-324),     # -1 / (2 var) overflows
    ])
    def test_rejects_component_whose_log_kernel_overflows(self, mean, var):
        # each scored NaN at every point when the mixture accepted it
        with pytest.raises(ValidationError, match="log kernel"):
            GaussianMixtureIntensity.single(1.0, mean, var)

    def test_json_roundtrip(self, rng):
        g = random_mixture(rng)
        back = mixture_from_json(mixture_to_json(g))
        assert np.array_equal(back.weights, g.weights)
        assert np.array_equal(back.means, g.means)
        assert np.array_equal(back.variances, g.variances)

    def test_json_empty_roundtrip(self):
        back = mixture_from_json(mixture_to_json(GaussianMixtureIntensity.empty()))
        assert back.n_components == 0

    def test_json_malformed(self):
        good = {"w": 1.0, "mu": [0.5, 0.5], "var": 1.0}
        for component in (
            {"w": 1.0},
            {"w": 1.0, "mu": [1.0], "var": 1.0},
            {"w": 1.0, "mu": 2.0, "var": 1.0},
            {"w": [1.0], "mu": [1.0, 2.0], "var": 1.0},
            {"w": {}, "mu": [1.0, 2.0], "var": 1.0},
            {"w": "abc", "mu": [1.0, 2.0], "var": 1.0},
            {"w": 10 ** 400, "mu": [1.0, 2.0], "var": 1.0},  # too large for a float
            {"w": None, "mu": [1.0, 2.0], "var": 1.0},
            [1.0, [1.0, 2.0], 1.0],
            # read as numbers before: a string of two digits as a mean, a bool, a numeric string
            {"w": 1.0, "mu": "12", "var": 1.0},
            {"w": True, "mu": [1.0, 2.0], "var": 1.0},
            {"w": "1.0", "mu": [1.0, 2.0], "var": 1.0},
            {"w": 1.0, "mu": [1.0, 2.0, 3.0], "var": 1.0},
        ):
            with pytest.raises(ValidationError):
                mixture_from_json({"components": [good, component]})
