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
    total_mass,
)
from topobayes import intensity
from topobayes.intensity import log_wedge_mass
from topobayes.cli import mixture_from_json
from conftest import naive_grid_mass, random_mixture, separable_grid_mass
from oracles import log_kernel_constants, mixture_to_json, restricted_normal_pdf


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
        got = np.exp(log_wedge_mass(3.0, 3.0, 20.0))
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
        z = np.exp(log_wedge_mass(mb, mp, var))
        assert 0.0 < z <= 1.0

    def test_wedge_mass_tends_to_one_deep_inside(self):
        var = 2.0
        values = [np.exp(log_wedge_mass(c, c, var)) for c in (1.0, 3.0, 6.0, 12.0)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, abs=1e-8)

    def test_log_wedge_mass_finite_where_mass_underflows(self):
        # at b = -40 standard deviations the mass is about 1e-350, below the smallest double;
        # the log follows the Mills-ratio series log Phi(-x) = -x^2/2 - log(x sqrt(2 pi))
        # + log(1 - 1/x^2 + 3/x^4 - 15/x^6), whose next term is below 1e-10 at x = 40
        got = log_wedge_mass(-40.0, 3.0, 1.0)
        assert np.exp(got) == 0.0
        x = 40.0
        tail = -x * x / 2 - math.log(x * math.sqrt(2 * math.pi)) + math.log1p(
            -1 / x**2 + 3 / x**4 - 15 / x**6)
        assert got == pytest.approx(tail + math.log(0.5 * math.erfc(-3.0 / math.sqrt(2))),
                                    rel=1e-11)


class TestEvalIntensity:
    def test_empty_mixture_is_zero(self):
        g = GaussianMixtureIntensity([], [], [])
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

    def test_past_the_float_range_is_plus_inf_quietly(self):
        # a finite log peak of about 713.3, past log(max float): exp overflowed with a warning
        g = GaussianMixtureIntensity.single(1e308, (0.0, 0.0), 0.01)
        assert 709.8 < log_eval_intensity(g, (0.0, 0.0)) < np.inf
        assert eval_intensity(g, (0.0, 0.0)) == np.inf


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
        g = GaussianMixtureIntensity([], [], [])
        pts = np.ones((3, 4, 2))
        assert log_eval_intensity(g, pts).shape == (3, 4)
        assert np.all(log_eval_intensity(g, pts) == -np.inf)
        assert np.all(oracle_log_intensity(g, pts) == -np.inf)
        assert np.all(eval_intensity(g, pts) == 0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_empty_mixture_scores_minus_inf_everywhere(self):
        # the empty mixture takes the scoring loop: its rows sum no term, inside the wedge and
        # out, at NaN and at infinity alike
        g = GaussianMixtureIntensity([], [], [])
        pts = [[1.0, 1.0], [-1.0, 2.0], [np.nan, 1.0], [np.inf, 0.0], [1e300, 1e300]]
        assert log_eval_intensity(g, pts).tolist() == [-np.inf] * 5
        assert [log_eval_intensity(g, p) for p in pts] == [-np.inf] * 5
        assert log_eval_intensity(g, np.empty((0, 2))).shape == (0,)

    def test_scalar_input(self, rng):
        g = random_mixture(rng)
        got = log_eval_intensity(g, (1.25, 2.5))
        assert isinstance(got, float)
        assert got == pytest.approx(float(oracle_log_intensity(g, (1.25, 2.5))[0]), abs=1e-12)
        # a last axis other than 2 is not points, whatever its size or the array's
        for bad in ([1.0, 2.0, 3.0, 4.0], np.ones((3, 3)), np.ones((0,)), 1.0, np.ones((2, 1))):
            with pytest.raises(ValidationError, match="shape"):
                log_eval_intensity(g, bad)
            with pytest.raises(ValidationError, match="shape"):
                eval_intensity(g, bad)

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


def _same_constants(g, w, mu, v):
    coef, log_norm, reach = g._log_kernel_constants
    want = log_kernel_constants(w, mu, v)
    assert coef.shape == want[0].shape == (4, len(w))
    assert coef.tobytes() == want[0].tobytes() and log_norm.tobytes() == want[1].tobytes()
    assert reach == want[2]


class TestKernelConstantsOracle:
    """The (4, K) coefficients, written row by row into one array, against the np.vstack of
    temporaries they were built from before: byte for byte, and refused exactly where that
    construction held a value that was not finite."""

    @pytest.mark.parametrize("k", [0, 1, 14_000, 100_000])
    def test_seeded_mixtures(self, k):
        rng = np.random.default_rng(k)
        w, mu, v = rng.uniform(1e-6, 2.0, k), rng.uniform(-1.0, 8.0, (k, 2)), rng.uniform(0.01, 20.0, k)
        _same_constants(GaussianMixtureIntensity(w, mu, v), w, mu, v)

    @pytest.mark.parametrize("mean, variances", [
        # |mu|^2 / (2 v) passes the double range below v = 0.278, and below v = 2.8e-9
        ((1e154, 0.0), np.geomspace(1e-3, 1e3, 120)),
        ((1e150, 1.0), np.geomspace(1e-12, 1e-6, 120)),
        # log_ndtr(-1e154 / sqrt(v)) falls to -inf below v = 0.278
        ((-1e154, 3.0), np.geomspace(1e-3, 1e3, 120)),
        # 2 pi v, in log_norm, passes it above v = 2.9e307
        ((1.0, 1.0), np.geomspace(1e306, 1e308, 120)),
    ])
    def test_components_either_side_of_the_guard(self, mean, variances):
        kept = refused = 0
        for var in variances:
            w, mu, v = np.array([1.5]), np.array([mean]), np.array([var])
            if np.all(np.isfinite(log_kernel_constants(w, mu, v)[0])):
                _same_constants(GaussianMixtureIntensity(w, mu, v), w, mu, v)
                kept += 1
            else:
                with pytest.raises(ValidationError, match="log kernel is not finite"):
                    GaussianMixtureIntensity(w, mu, v)
                refused += 1
        assert kept and refused, (kept, refused)


class TestFarRows:
    """A row whose b^2 + p^2, times a kernel's coefficient, passes the double range overflowed the
    product: a warning, and NaN where every term fell to -inf. Such a row is scored from each
    kernel's own form, log_norm - |x - mu|^2 / (2 var), and every other row keeps its bytes."""

    G = GaussianMixtureIntensity([0.3, 1.0], [[3.0, 3.0], [1.0, 2.0]], [20.0, 0.2])

    def test_a_point_near_the_double_range(self):
        # the narrow kernel's term is below -1.8e308, so -inf; the broad one's is -4.225e306
        got = log_eval_intensity(self.G, (1.0, 1.3e154))
        assert got == pytest.approx(-(1.3e154 - 3.0) ** 2 / 40.0, rel=1e-12)

    def test_a_row_whose_every_term_is_minus_inf(self):
        narrow = GaussianMixtureIntensity.single(1.0, (1.0, 2.0), 0.2)
        got = log_eval_intensity(narrow, np.array([[1.0, 1.3e154], [1e154, 1e154]]))
        assert got.tolist() == [-np.inf, -np.inf]
        assert eval_intensity(narrow, (1.0, 1.3e154)) == 0.0

    @pytest.mark.parametrize("chunk", [2 ** 18, 4, 6])  # 2 and 3 rows a chunk
    def test_other_rows_keep_their_bytes(self, rng, monkeypatch, chunk):
        monkeypatch.setattr("topobayes.intensity._CHUNK_ELEMENTS", chunk)
        near = rng.uniform(0, 8, (9, 2))
        far = np.array([[1.0, 1.3e154], [1e154, 0.5], [1e300, 0.0]])
        both = np.insert(near, [2, 5, 5], far, axis=0)
        got = log_eval_intensity(self.G, both)
        assert np.delete(got, [2, 6, 7]).tobytes() == log_eval_intensity(self.G, near).tobytes()
        assert np.all(got[[2, 6]] < -1e300) and got[7] == -np.inf

    def test_a_row_whose_product_overflows_and_whose_term_does_not(self):
        # -|x|^2 / (2 var) is below -1.8e308 here, and -|x - mu|^2 / (2 var) is -4.2e305
        g = GaussianMixtureIntensity.single(1.0, (1e150, 1.0), 3e-9)
        want = g._log_kernel_constants[1][0] - (1.05e150 - 1e150) ** 2 / 6e-9
        assert log_eval_intensity(g, (1.05e150, 1.0)) == pytest.approx(want, rel=1e-12)


def test_scoring_memory_is_bounded():
    # 150 points against 100k components: the full (points, K) array alone
    # would be 120 MB; the chunked core keeps a work array of two rows, 1.6 MB
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
    assert peak < 1.25 * 2 * k * 8


def test_one_component_scoring_memory_is_bounded():
    # at K = 1 a chunk is 2**17 rows, so the arrays made per row outweigh the one-column work
    # array; b^2 + p^2 alone bounds a row's terms, so no (rows, 4) table of absolute values is
    # made beside the row table
    rng = np.random.default_rng(9)
    g = GaussianMixtureIntensity.single(2.0, (1.0, 2.0), 0.5)
    pts = rng.uniform(0, 6, (120_000, 2))
    tracemalloc.start()
    try:
        logs = log_eval_intensity(g, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(logs))
    assert peak < 9.2 * 2 ** 20


def test_scoring_holds_one_chunk_array():
    # every chunk's product goes into one work array of 2**17 / K rows, 1 MB, so no chunk's
    # array is still alive while the next one is made
    rng = np.random.default_rng(8)
    k = 14_247
    g = GaussianMixtureIntensity(rng.uniform(1e-4, 1e-2, k), rng.uniform(0, 6, (k, 2)),
                                 rng.uniform(0.05, 0.3, k))
    pts = rng.uniform(0, 6, (150, 2))
    chunk_bytes = (intensity._CHUNK_ELEMENTS // k) * k * 8
    tracemalloc.start()
    try:
        logs = log_eval_intensity(g, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(logs))
    assert peak < 1.25 * chunk_bytes


def test_many_point_scoring_memory_is_bounded():
    # 10**6 points at K = 16: the 8 MB result, and point rows for one block of 2**15 points at a
    # time; rows for every point at once would be 32 MB more
    rng = np.random.default_rng(10)
    g = GaussianMixtureIntensity(rng.uniform(0.1, 2.0, 16), rng.uniform(0, 6, (16, 2)),
                                 rng.uniform(0.05, 0.3, 16))
    pts = rng.uniform(0, 6, (10 ** 6, 2))
    tracemalloc.start()
    try:
        logs = log_eval_intensity(g, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(logs))
    assert peak < 8 * len(pts) + 6 * 2 ** 20


class TestChunkRows:
    """A chunk holds 2**17 / K rows, but never fewer than two: a one-row product takes BLAS's
    vector kernel, which was slower at the 100k cap and can round the last bit otherwise."""

    @staticmethod
    def _chunk_rows(monkeypatch):
        """The row count of every matrix product the scorer takes from here on."""
        rows, matmul = [], np.matmul
        def spy(a, b, out):
            rows.append(len(a))
            return matmul(a, b, out=out)
        monkeypatch.setattr(np, "matmul", spy)
        return rows

    def test_the_cap_keeps_its_two_row_chunks_and_bytes(self, monkeypatch):
        # the 100k-component posteriors fit makes: 2**18 / K gave two rows too, and so the
        # same products; an odd point count leaves a last chunk of one row, as it always did
        rng = np.random.default_rng(9)
        k = 100_000
        g = GaussianMixtureIntensity(rng.uniform(1e-6, 1e-4, k), rng.uniform(0, 6, (k, 2)),
                                     rng.uniform(0.05, 0.3, k))
        pts = rng.uniform(0, 6, (151, 2))
        rows = self._chunk_rows(monkeypatch)
        got = log_eval_intensity(g, pts)
        assert rows == [2] * 75 + [1]
        monkeypatch.setattr("topobayes.intensity._CHUNK_ELEMENTS", 2 ** 18)
        assert log_eval_intensity(g, pts).tobytes() == got.tobytes()

    @pytest.mark.parametrize("k", [2 ** 16 + 1, 2 ** 17 + 1])  # 2**17 // k is 1, then 0
    def test_a_rule_of_one_row_or_none_gives_two(self, monkeypatch, k):
        g = GaussianMixtureIntensity(np.full(k, 1e-5), np.full((k, 2), 2.0), np.ones(k))
        rows = self._chunk_rows(monkeypatch)
        log_eval_intensity(g, np.full((6, 2), 1.0))
        assert rows == [2, 2, 2]

    def test_a_small_mixture_takes_2_to_the_17_over_k_rows(self, monkeypatch):
        g = GaussianMixtureIntensity([1.0, 2.0, 0.5], [[1, 1], [2, 2], [3, 3]], [1.0] * 3)
        rows = self._chunk_rows(monkeypatch)
        log_eval_intensity(g, np.ones((2 ** 16, 2)))
        assert rows == [2 ** 17 // 3, 2 ** 16 - 2 ** 17 // 3]

    @pytest.mark.parametrize("k, chunk_rows, block", [
        (16, [8192] * 4 + [7232], 32768),  # 2**15 points a block: four chunks of 8192 rows
        (1000, [131] * 305 + [45], 32750),  # 250 chunks of 131 rows, the most under 2**15 points
    ])
    def test_blocks_keep_whole_chunks(self, monkeypatch, k, chunk_rows, block):
        # point rows are built per block of whole chunks, so the products, and the scores, are
        # those of the chunks alone, and a block scored on its own gives the same bytes
        rng = np.random.default_rng(k)
        g = GaussianMixtureIntensity(rng.uniform(0.1, 2.0, k), rng.uniform(0, 6, (k, 2)),
                                     rng.uniform(0.05, 0.3, k))
        x = rng.uniform(0, 6, (40_000, 2))
        rows = self._chunk_rows(monkeypatch)
        got = log_eval_intensity(g, x)
        assert rows == chunk_rows
        apart = np.concatenate([log_eval_intensity(g, x[:block]), log_eval_intensity(g, x[block:])])
        assert apart.tobytes() == got.tobytes()

    def test_point_rows_are_built_once_per_block(self, monkeypatch):
        # 150 points are 17 chunks of 9 rows at K = 14,247 but one block: built per chunk, the
        # rows' small numpy calls held the GIL 17 times, and cross_validate's fold threads queued
        rng = np.random.default_rng(8)
        k = 14_247
        g = GaussianMixtureIntensity(rng.uniform(1e-4, 1e-2, k), rng.uniform(0, 6, (k, 2)),
                                     rng.uniform(0.05, 0.3, k))
        built, column_stack = [], np.column_stack
        def spy(arrays):
            built.append(len(arrays[0]))
            return column_stack(arrays)
        monkeypatch.setattr(np, "column_stack", spy)
        assert np.all(np.isfinite(log_eval_intensity(g, rng.uniform(0, 6, (150, 2)))))
        assert built == [150]


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
        grid = intensity_grid(g, (0, 0, 4, 4), (33, 33))
        assert grid.max() == 1.0

    def test_zero_mixture_gives_zeros(self):
        grid = intensity_grid(GaussianMixtureIntensity([], [], []), (0, 0, 4, 4), (16, 16))
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
            intensity_grid(g, (0, 0, 0, 4), (16, 16))
        with pytest.raises(ValidationError):
            intensity_grid(g, (-1, 0, 4, 4), (16, 16))
        with pytest.raises(ValidationError):
            intensity_grid(g, (0, 0, np.inf, 3), (16, 16))
        with pytest.raises(ValidationError):
            intensity_grid(g, (0, 0, 4, 4), (1, 1))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_peak_past_the_float_range_is_scaled(self):
        # a log peak of about 713, past log(max float): the grid was refused, where a linear
        # scaling by inf / inf would have made it NaN
        g = GaussianMixtureIntensity.single(1e308, (0.0, 0.0), 0.01)
        grid = intensity_grid(g, (0, 0, 1, 1), (2, 2))
        logs = log_eval_intensity(g, [[[0, 0], [0, 1]], [[1, 0], [1, 1]]])
        assert np.all(np.isfinite(grid)) and grid[0, 0] == grid.max() == 1.0
        assert np.array_equal(grid, np.exp(logs - logs.max()))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_field_that_underflows_is_scaled_not_zero(self):
        # the intensity underflows on every cell, and the linear grid was all zeros
        g = GaussianMixtureIntensity.single(1.0, (10.0, 10.0), 0.01)
        axis = np.linspace(0, 1, 3)
        cells = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1)
        assert np.all(eval_intensity(g, cells) == 0)
        grid = intensity_grid(g, (0, 0, 1, 1), (3, 3))
        logs = log_eval_intensity(g, cells)
        assert grid[2, 2] == grid.max() == 1.0
        # the peak's neighbours, (0.5, 1) and (1, 0.5), are exp(-9.25 / 0.02) = 1.38e-201
        assert grid[1, 2] == grid[2, 1] == pytest.approx(1.38e-201, rel=1e-2)
        assert np.array_equal(grid, np.exp(logs - logs.max()))


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
        for variances in ([1.0], [1.0, 2.0, 3.0]):
            with pytest.raises(ValidationError,
                               match=r"weights, \(b, p\) means and variances must have equal"):
                GaussianMixtureIntensity([1.0, 2.0], [[1, 1], [2, 2]], variances)

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
        back = mixture_from_json(mixture_to_json(GaussianMixtureIntensity([], [], [])))
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
