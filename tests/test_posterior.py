import tracemalloc
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topobayes import (
    GaussianMixtureIntensity,
    PersistenceDiagram,
    PosteriorConfig,
    ValidationError,
    default_clutter,
    default_prior,
    log_eval_intensity,
    posterior_intensity,
    total_mass,
)
from topobayes import posterior
from oracles import concatenated_posterior, dense_posterior, posterior_quadrature, quadrature_nodes


def tiny_clutter():
    return GaussianMixtureIntensity([1e-12], [(3.0, 3.0)], [20.0])


def diagram(*points):
    return PersistenceDiagram(np.array(points, dtype=float))


def components_multiset(g):
    return sorted(
        (round(w, 12), round(m[0], 12), round(m[1], 12), round(v, 12))
        for w, m, v in zip(g.weights, g.means, g.variances)
    )


@pytest.mark.parametrize("make, weight", [(default_prior, 1.0), (default_clutter, 0.1)])
def test_default_mixtures_are_pinned(make, weight):
    # every model file is fitted with these two: each array's dtype, shape and bytes
    g = make()
    for got, want in ((g.weights, [weight]), (g.means, [[3.0, 3.0]]), (g.variances, [20.0])):
        want = np.array(want, dtype=np.float64)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestPosteriorIdentities:
    def test_alpha_zero_returns_prior_exactly(self, rng):
        prior = GaussianMixtureIntensity(
            [1.0, 0.5], [[2.0, 3.0], [5.0, 1.0]], [1.0, 2.0]
        )
        cfg = PosteriorConfig(alpha=0.0, sigma_obs=1.0)
        post = posterior_intensity(prior, [diagram((1.0, 1.0), (2.0, 2.0))], cfg)
        assert np.array_equal(post.weights, prior.weights)
        assert np.array_equal(post.means, prior.means)
        assert np.array_equal(post.variances, prior.variances)

    def test_empty_observation_scales_prior(self):
        prior = GaussianMixtureIntensity(
            [1.0, 0.5], [[2.0, 3.0], [5.0, 1.0]], [1.0, 2.0]
        )
        cfg = PosteriorConfig(alpha=0.7, sigma_obs=1.0)
        post = posterior_intensity(prior, [PersistenceDiagram(np.zeros((0, 2)))], cfg)
        assert np.array_equal(post.weights, (1.0 - 0.7) * prior.weights)
        assert np.array_equal(post.means, prior.means)

    def test_single_observation_conjugate_update(self):
        # one feature at (5,5), certain observation at (6,6), no clutter:
        # the posterior is dominated by one component at the precision-
        # weighted midpoint, up to wedge-boundary corrections
        prior = GaussianMixtureIntensity([1.0], [(5.0, 5.0)], [1.0])
        cfg = PosteriorConfig(alpha=1.0, sigma_obs=1.0, clutter=tiny_clutter())
        post = posterior_intensity(prior, [diagram((6.0, 6.0))], cfg)
        j = int(np.argmax(post.weights))
        assert post.weights[j] == pytest.approx(1.0, abs=1e-3)
        assert post.means[j] == pytest.approx([5.5, 5.5], abs=1e-3)
        assert post.variances[j] == pytest.approx(0.5, abs=1e-3)


class TestPosteriorStructure:
    def test_pointwise_at_least_unobserved_share(self, rng):
        prior = GaussianMixtureIntensity(
            [1.0, 2.0], [[2.0, 2.0], [4.0, 5.0]], [0.8, 1.5]
        )
        cfg = PosteriorConfig(alpha=0.6, sigma_obs=0.5)
        post = posterior_intensity(prior, [diagram((2.5, 2.5), (4.0, 4.0))], cfg)
        pts = rng.uniform(0, 8, (100, 2))
        assert np.all(
            np.exp(log_eval_intensity(post, pts))
            >= (1 - 0.6) * np.exp(log_eval_intensity(prior, pts)) - 1e-15
        )

    def test_total_mass_bound(self, rng):
        prior = GaussianMixtureIntensity(
            [1.0, 2.0], [[2.0, 2.0], [4.0, 5.0]], [0.8, 1.5]
        )
        cfg = PosteriorConfig(alpha=0.6, sigma_obs=0.5)
        obs = [diagram((2.5, 2.5), (4.0, 4.0)), diagram((1.0, 1.0))]
        post = posterior_intensity(prior, obs, cfg)
        n_points, m = 3, 2
        assert total_mass(post) <= (1 - 0.6) * total_mass(prior) + n_points / m + 1e-12

    def test_certain_observation_weights_sum_to_one_per_point(self):
        # zero clutter, alpha 1, one diagram: the normalizer equals the
        # numerator sum, so each observed point contributes exactly unit mass
        prior = GaussianMixtureIntensity(
            [1.0, 3.0], [[2.0, 2.0], [5.0, 4.0]], [1.0, 0.5]
        )
        cfg = PosteriorConfig(
            alpha=1.0, sigma_obs=0.7, clutter=GaussianMixtureIntensity([], [], [])
        )
        obs = [diagram((2.0, 3.0), (4.0, 4.0), (1.0, 1.0))]
        post = posterior_intensity(prior, obs, cfg)
        # group (i) disappears (weight 0), group (ii) has K=2 comps per point
        assert post.n_components == 6
        per_point = post.weights.reshape(3, 2).sum(axis=1)
        assert per_point == pytest.approx([1.0, 1.0, 1.0], rel=1e-12)

    def test_exchangeable_in_diagrams_and_points(self):
        prior = GaussianMixtureIntensity(
            [1.0, 2.0], [[2.0, 2.0], [4.0, 5.0]], [0.8, 1.5]
        )
        cfg = PosteriorConfig(alpha=0.5, sigma_obs=0.4)
        d1 = diagram((1.0, 2.0), (3.0, 1.0))
        d2 = diagram((4.0, 4.0))
        d1_swapped = diagram((3.0, 1.0), (1.0, 2.0))
        a = posterior_intensity(prior, [d1, d2], cfg)
        b = posterior_intensity(prior, [d2, d1_swapped], cfg)
        assert components_multiset(a) == components_multiset(b)

    def test_clutter_damps_every_update_weight(self):
        prior = GaussianMixtureIntensity([1.0], [(3.0, 3.0)], [1.0])
        obs = [diagram((3.5, 3.5))]

        def update_weights(clutter_w):
            clutter = GaussianMixtureIntensity([clutter_w], [(3.0, 3.0)], [20.0])
            cfg = PosteriorConfig(alpha=0.7, sigma_obs=0.5, clutter=clutter)
            post = posterior_intensity(prior, obs, cfg)
            return post.weights[1:]  # group (ii) weights

        w1 = update_weights(0.1)
        w10 = update_weights(1.0)
        assert np.all(w10 < w1)

    def test_deterministic_component_order(self):
        prior = GaussianMixtureIntensity(
            [1.0, 2.0], [[2.0, 2.0], [4.0, 5.0]], [0.8, 1.5]
        )
        cfg = PosteriorConfig(alpha=0.5, sigma_obs=0.4)
        obs = [diagram((1.0, 2.0), (3.0, 1.0)), diagram((4.0, 4.0))]
        a = posterior_intensity(prior, obs, cfg)
        b = posterior_intensity(prior, obs, cfg)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.means, b.means)

    def test_component_cap(self, monkeypatch):
        monkeypatch.setattr(posterior, "_MAX_COMPONENTS", 5)
        prior = GaussianMixtureIntensity([1.0], [(3.0, 3.0)], [20.0])
        cfg = PosteriorConfig(alpha=0.7, sigma_obs=0.3)
        obs = [diagram(*[(1.0 + 0.1 * i, 1.0 + 0.05 * i) for i in range(20)])]
        post = posterior_intensity(prior, obs, cfg)
        assert post.n_components == 5

    def test_rejects_no_observations(self):
        prior = GaussianMixtureIntensity([1.0], [(3.0, 3.0)], [20.0])
        cfg = PosteriorConfig(alpha=0.5, sigma_obs=1.0)
        with pytest.raises(ValidationError):
            posterior_intensity(prior, [], cfg)

    def test_rejects_points_outside_wedge(self):
        prior = GaussianMixtureIntensity([1.0], [(3.0, 3.0)], [20.0])
        cfg = PosteriorConfig(alpha=0.5, sigma_obs=1.0)
        fake = SimpleNamespace(points=np.array([[-1.0, 2.0]]))
        with pytest.raises(ValidationError):
            posterior_intensity(prior, [fake], cfg)

    def test_rejects_points_that_are_not_pairs(self):
        # a (2, 3) array of points was regrouped into 3 observed points
        prior = GaussianMixtureIntensity([1.0], [(3.0, 3.0)], [20.0])
        cfg = PosteriorConfig(alpha=0.5, sigma_obs=1.0)
        fake = SimpleNamespace(points=np.arange(6.0).reshape(2, 3))
        with pytest.raises(ValidationError, match=r"^observed points must have shape \(n, 2\)$"):
            posterior_intensity(prior, [fake], cfg)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            PosteriorConfig(alpha=1.5, sigma_obs=1.0)
        with pytest.raises(ValidationError):
            PosteriorConfig(alpha=0.5, sigma_obs=0.0)
        with pytest.raises(ValidationError):
            PosteriorConfig(alpha=0.5, sigma_obs=np.inf)
        with pytest.raises(ValidationError):  # the update's products would overflow
            PosteriorConfig(alpha=0.5, sigma_obs=1e301)

    def test_widest_kernel_updates_without_overflow(self):
        cfg = PosteriorConfig(alpha=0.7, sigma_obs=1e300)
        post = posterior_intensity(posterior.default_prior(), [diagram((1.0, 2.0))], cfg)
        assert np.all(np.isfinite(post.weights)) and np.all(np.isfinite(post.variances))

    @pytest.mark.parametrize("mean, var, point, sigma_obs", [
        ((3.0, 3.0), 1e10, (1.0, 2.0), 1e300),  # var * sigma_obs
        ((1e10, 3.0), 1.0, (1.0, 2.0), 1e300),  # sigma_obs * |mu|
        ((3.0, 3.0), 1e160, (1e150, 2.0), 1e-10),  # var * |y|
    ])
    def test_an_update_that_overflows_is_rejected(self, mean, var, point, sigma_obs):
        # var * sigma_obs overflowed v_post: it warned and returned the (1 - alpha) prior alone
        prior = GaussianMixtureIntensity([1.0], [mean], [var])
        with pytest.raises(ValidationError, match="overflow"):
            posterior_intensity(prior, [diagram(point)], PosteriorConfig(0.7, sigma_obs))


class TestFarPoints:
    """A point tens of units from every prior and clutter component has a subnormal
    denominator, where (alpha / m) / denom overflows; its weights are still at most 1 / m."""

    NO_CLUTTER = PosteriorConfig(alpha=0.7, sigma_obs=0.2,
                                 clutter=GaussianMixtureIntensity([], [], []))

    def update(self, prior, obs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning either
            return posterior_intensity(prior, obs, self.NO_CLUTTER)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("weight", [1.0, 10.0])  # 10: scale finite, scale * c not
    def test_far_point_weighs_one_over_m(self, m, weight):
        prior = GaussianMixtureIntensity([weight], [(3.0, 3.0)], [1.0])
        obs = [diagram((3.0, 3.0), (32.5, 32.5))] + [diagram((3.0, 3.0))] * (m - 1)
        post = self.update(prior, obs)
        assert post.n_components == 2 + m and np.all(np.isfinite(post.weights))
        assert post.weights[0] == pytest.approx(0.3 * weight)
        # each point's weights sum to 1 / m with one prior component and no clutter
        assert post.weights[1:] == pytest.approx([1 / m] * (m + 1), rel=1e-6)

    def test_point_too_far_for_its_squared_distance_gets_no_weight(self):
        # ((y - mu) ** 2).sum() overflowed and warned; the pair's q is 0, its limit
        prior = GaussianMixtureIntensity([1.0], [(1.3e154, 0.0)], [1.0])
        post = self.update(prior, [diagram((0.0, 1.3e154))])
        assert post.weights.tolist() == [pytest.approx(0.3)] and np.all(np.isfinite(post.means))

    def test_other_components_keep_their_bytes(self):
        prior = GaussianMixtureIntensity([1.0], [(3.0, 3.0)], [1.0])
        near = self.update(prior, [diagram((3.0, 3.0), (4.0, 2.0))])
        both = self.update(prior, [diagram((3.0, 3.0), (4.0, 2.0), (32.5, 32.5))])
        assert both.weights[:3].tobytes() == near.weights.tobytes()
        assert both.means[:3].tobytes() == near.means.tobytes()


class TestQuadratureOracle:
    def test_alpha_zero_equals_prior_on_nodes_exactly(self):
        prior = GaussianMixtureIntensity(
            [1.0, 0.5], [[2.0, 3.0], [5.0, 1.0]], [1.0, 2.0]
        )
        cfg = PosteriorConfig(alpha=0.0, sigma_obs=1.0)
        bounds, res = (0, 0, 10, 10), 48
        grid = posterior_quadrature(prior, [diagram((2.0, 2.0))], cfg, bounds, res)
        b_axis, p_axis = quadrature_nodes(bounds, res)
        X = np.stack(np.meshgrid(b_axis, p_axis, indexing="ij"), axis=-1)
        assert np.array_equal(grid, np.exp(log_eval_intensity(prior, X)))

    def test_closed_form_matches_quadrature(self):
        # the oracle contract: direct numerical evaluation of the posterior
        # operator agrees with the conjugate mixture to quadrature accuracy
        prior = GaussianMixtureIntensity(
            [1.0, 1.5], [[4.0, 5.0], [6.0, 3.0]], [1.0, 0.6]
        )
        cfg = PosteriorConfig(alpha=0.7, sigma_obs=0.5)
        obs = [diagram((4.5, 4.5), (6.0, 2.5)), diagram((5.0, 5.0))]
        bounds, res = (0, 0, 12, 12), 64
        grid = posterior_quadrature(prior, obs, cfg, bounds, res)
        post = posterior_intensity(prior, obs, cfg)
        b_axis, p_axis = quadrature_nodes(bounds, res)
        X = np.stack(np.meshgrid(b_axis, p_axis, indexing="ij"), axis=-1)
        closed = np.exp(log_eval_intensity(post, X))
        rel = np.abs(closed - grid).max() / np.abs(grid).max()
        assert rel < 1e-3

    def test_growing_clutter_shrinks_update_term(self):
        prior = GaussianMixtureIntensity([1.0], [(4.0, 4.0)], [1.0])
        obs = [diagram((4.2, 4.2))]
        bounds, res = (0, 0, 9, 9), 48
        b_axis, p_axis = quadrature_nodes(bounds, res)
        X = np.stack(np.meshgrid(b_axis, p_axis, indexing="ij"), axis=-1)

        def update_part(clutter_w):
            clutter = GaussianMixtureIntensity([clutter_w], [(4.0, 4.0)], [10.0])
            cfg = PosteriorConfig(alpha=0.7, sigma_obs=0.5, clutter=clutter)
            grid = posterior_quadrature(prior, obs, cfg, bounds, res)
            return grid - (1 - 0.7) * np.exp(log_eval_intensity(prior, X))

        small = update_part(0.05)
        large = update_part(0.5)
        mask = small > small.max() * 1e-6
        assert np.all(large[mask] < small[mask])

    def test_nodes_reject_resolution_below_one(self):
        for res in (0, -3, (4, 0)):
            with pytest.raises(ValidationError):
                quadrature_nodes((0, 0, 5, 5), res)

    def test_coarse_grid_rejected(self):
        prior = GaussianMixtureIntensity([1.0], [(3.0, 3.0)], [20.0])
        cfg = PosteriorConfig(alpha=0.5, sigma_obs=1.0)
        with pytest.raises(ValidationError):
            posterior_quadrature(prior, [diagram((1.0, 1.0))], cfg, (0, 0, 5, 5), 16)


_CLUTTERS = {
    "default": posterior.default_clutter,
    "none": lambda: GaussianMixtureIntensity([], [], []),  # far points then have a zero denominator
    "tiny": tiny_clutter,
    "heavy": lambda: GaussianMixtureIntensity([5.0, 2.0], [[1.0, 1.0], [4.0, 0.5]], [0.5, 3.0]),
}


class TestSelectThenBuild:
    """posterior_intensity computes only the weights of all pairs, then builds the kept
    components; dense_posterior builds every pair's component, then prunes. Byte for byte equal."""

    @settings(max_examples=80, deadline=None)
    @given(K=st.sampled_from([0, 1, 3, 16, 64]),
           sizes=st.lists(st.integers(0, 300), min_size=1, max_size=4),
           alpha=st.sampled_from([0.0, 0.7, 1.0]) | st.floats(0.0, 1.0),
           sigma_obs=st.sampled_from([0.2, 1.0]) | st.floats(1e-3, 10.0),
           clutter=st.sampled_from(sorted(_CLUTTERS)),
           cap=st.sampled_from([1, 7, 100, 5_000, 100_000]),
           decimals=st.sampled_from([None, 1, 0]),  # rounded points tie in weight
           spread=st.sampled_from([6.0, 60.0]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_the_dense_oracle(self, K, sizes, alpha, sigma_obs, clutter, cap, decimals,
                                      spread, seed):
        rng = np.random.default_rng(seed)
        prior = GaussianMixtureIntensity(rng.uniform(0.1, 2.0, K), rng.uniform(0.0, 8.0, (K, 2)),
                                         rng.uniform(0.1, 4.0, K))
        obs = []
        for n in sizes:
            pts = rng.uniform(0.0, spread, (n, 2))
            obs.append(diagram(*(pts if decimals is None else np.round(pts, decimals))))
        cfg = PosteriorConfig(alpha=alpha, sigma_obs=sigma_obs, clutter=_CLUTTERS[clutter]())

        def outcome(update):
            try:
                g = update(prior, obs, cfg)
            # both raise alike, or neither; a RuntimeWarning, as from a point whose denominator
            # is subnormal (spread 60), fails the test
            except ValidationError as e:
                return type(e), str(e)
            return g.n_components, g.weights.tobytes(), g.means.tobytes(), g.variances.tobytes()

        with mock.patch.object(posterior, "_MAX_COMPONENTS", cap):
            assert outcome(posterior_intensity) == outcome(dense_posterior)

    def test_chunks_end_inside_the_points(self, monkeypatch):
        # 5 points of 3 components in chunks of 2 points: the last chunk is short
        monkeypatch.setattr(posterior, "_CHUNK_PAIRS", 6)
        prior = GaussianMixtureIntensity([1.0, 0.5, 2.0], [[1.0, 2.0], [3.0, 1.0], [0.5, 0.5]],
                                         [0.5, 1.0, 2.0])
        obs = [diagram((1.0, 1.0), (2.0, 0.5), (0.25, 3.0)), diagram((4.0, 4.0), (1.5, 1.5))]
        cfg = PosteriorConfig(alpha=0.7, sigma_obs=0.3)
        got, want = posterior_intensity(prior, obs, cfg), dense_posterior(prior, obs, cfg)
        assert got.n_components == 3 + 5 * 3
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.means.tobytes() == want.means.tobytes()

    @pytest.mark.parametrize("alpha", [0.0, 0.7, 1.0])
    @pytest.mark.parametrize("K, points", [(None, 120_000), (None, 2_000), (16, 2_000),
                                           (64, 2_000)])
    def test_kept_components_match_the_concatenating_oracle(self, K, points, alpha):
        # the default prior (K = 1) at 120k points, where the 100,000 cap binds, and at 2k
        # points; seeded 16- and 64-component priors, the 64 also past the cap
        rng = np.random.default_rng(points + (K or 1))
        prior = default_prior() if K is None else GaussianMixtureIntensity(
            rng.uniform(0.1, 2.0, K), rng.uniform(0.0, 8.0, (K, 2)), rng.uniform(0.1, 4.0, K))
        obs = [PersistenceDiagram(rng.uniform(0.0, 6.0, (80, 2))) for _ in range(points // 80)]
        cfg = PosteriorConfig(alpha=alpha, sigma_obs=0.2)
        got = posterior_intensity(prior, obs, cfg)
        for want in (concatenated_posterior(prior, obs, cfg), dense_posterior(prior, obs, cfg)):
            assert got.weights.tobytes() == want.weights.tobytes()
            assert got.means.tobytes() == want.means.tobytes()
            assert got.variances.tobytes() == want.variances.tobytes()
        if alpha and points * (K or 1) > posterior._MAX_COMPONENTS:
            assert got.n_components == posterior._MAX_COMPONENTS

    def test_fit_holds_a_weight_per_pair(self):
        # the dense update held about 130 B per (point, component) pair: 160 MB here
        rng = np.random.default_rng(0)
        K, T = 64, 20_000
        prior = GaussianMixtureIntensity(rng.uniform(0.1, 2.0, K), rng.uniform(0.0, 8.0, (K, 2)),
                                         rng.uniform(0.1, 4.0, K))
        obs = [diagram(*rng.uniform(0.0, 6.0, (T // 100, 2))) for _ in range(100)]
        cfg = PosteriorConfig(alpha=0.7, sigma_obs=0.2)
        posterior_intensity(prior, obs[:1], cfg)  # scipy.special loads outside the trace
        tracemalloc.start()
        try:
            post = posterior_intensity(prior, obs, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert post.n_components == 100_000
        # 8 B per pair for the weights, 17 B more per pair that passes the relative cut (at most
        # all of them) while the 100,000 heaviest are picked, and 16 MB for the arrays of a
        # chunk of pairs and for building the kept components
        assert peak < 25 * K * T + 16e6, peak

    def test_fit_lets_go_of_the_pairs_before_building_the_mixture(self):
        # default prior, 120k observed points, 100k components kept: the pairs' weights, the
        # points, their clutter and evidence and the last chunk's arrays, 20.1 MB at their peak
        # alongside the kept components, go before the mixture computes its own constants
        rng = np.random.default_rng(1)
        obs = [PersistenceDiagram(rng.uniform(0.0, 6.0, (160, 2))) for _ in range(750)]
        cfg = PosteriorConfig(alpha=0.7, sigma_obs=0.2)
        posterior_intensity(default_prior(), obs[:1], cfg)  # scipy.special loads outside the trace
        tracemalloc.start()
        try:
            post = posterior_intensity(default_prior(), obs, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert post.n_components == 100_000
        assert peak < 16e6, peak
