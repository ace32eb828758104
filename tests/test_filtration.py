import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from topobayes import (
    ALPHA_BAND,
    BETA_BAND,
    GaussianMixtureIntensity,
    PersistenceDiagram,
    ValidationError,
    add_noise,
    bottleneck_distance,
    generate_band_signal,
    sublevel_pd,
    tilt,
    untilt,
)
from topobayes.cli import diagram_from_json
from topobayes import filtration
from conftest import brute_bottleneck, brute_sublevel_pairs, random_distinct_signal
import oracles
from oracles import diagram_to_json


def pairs_of(pairs):
    return sorted(map(tuple, pairs))


class TestSublevelPD:
    def test_two_dips(self):
        # frozen from the component-sweep oracle
        assert pairs_of(sublevel_pd([0, -1, 0, -2, 0])) == [(-2.0, 0.0), (-1.0, 0.0)]
        assert brute_sublevel_pairs([0, -1, 0, -2, 0]) == [(-2.0, 0.0), (-1.0, 0.0)]

    def test_monotone(self):
        assert pairs_of(sublevel_pd([0, 1, 2, 3])) == [(0.0, 3.0)]

    def test_constant(self):
        assert pairs_of(sublevel_pd([5.0, 5.0, 5.0])) == [(5.0, 5.0)]

    def test_plateau_collapse(self):
        # the inner plateau is one vertex; same diagram as without repeats
        assert pairs_of(sublevel_pd([0, -1, -1, 0, -2, 0])) == pairs_of(
            sublevel_pd([0, -1, 0, -2, 0])
        )

    def test_matches_bruteforce_on_random_signals(self, rng):
        for _ in range(60):
            vals = random_distinct_signal(rng)
            got = pairs_of(sublevel_pd(vals))
            want = brute_sublevel_pairs(vals)
            assert got == want  # exact: both copy input values

    def test_deaths_are_local_maxima(self, rng):
        for _ in range(30):
            vals = random_distinct_signal(rng)
            n = len(vals)
            maxima = {vals[i] for i in range(n)
                      if (i == 0 or vals[i] > vals[i - 1])
                      and (i == n - 1 or vals[i] > vals[i + 1])}
            maxima.add(max(vals))
            for _, death in sublevel_pd(vals):
                assert death in maxima

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            sublevel_pd([1.0])
        with pytest.raises(ValidationError):
            sublevel_pd([0.0, np.inf])

    @given(st.lists(st.integers(-100, 100), min_size=2, max_size=48, unique=True))
    @settings(max_examples=120, deadline=None)
    def test_pair_count_equals_local_minima(self, vals):
        n = len(vals)
        minima = sum(
            1
            for i in range(n)
            if (i == 0 or vals[i] < vals[i - 1]) and (i == n - 1 or vals[i] < vals[i + 1])
        )
        assert len(sublevel_pd(np.asarray(vals, float))) == minima


def _runs(values):
    """Signals of 2 to a few hundred samples, each value repeated a drawn number of times."""
    return st.lists(st.tuples(values, st.integers(1, 8)), min_size=1, max_size=60).map(
        lambda runs: np.repeat([v for v, _ in runs], [k for _, k in runs])).filter(
        lambda x: len(x) >= 2)


_SWEEP_SIGNALS = st.one_of(
    st.builds(lambda n, seed: np.random.default_rng(seed).standard_normal(n),
              st.integers(2, 300), st.integers(0, 2 ** 32 - 1)),
    st.lists(st.integers(-3, 3).map(float), min_size=2, max_size=300).map(np.array),
    _runs(st.integers(-2, 2).map(float)),
    _runs(st.sampled_from([-0.0, 0.0, -1.0, 1.0])),
    st.lists(st.sampled_from([-0.0, 0.0, -1.0, 1.0]), min_size=2, max_size=300).map(np.array),
    # neighbours whose difference overflows: the extrema are found without subtracting
    st.lists(st.sampled_from([1e308, -1e308, 5e307, -5e307, 0.0, 1.0]), min_size=2,
             max_size=300).map(np.array),
    # long monotone runs, whose inner vertices the sweep drops
    st.builds(lambda n, run, seed: np.cumsum(np.random.default_rng(seed).exponential(size=n)
                                             * np.resize(np.repeat([1.0, -1.0], run), n)),
              st.integers(2, 300), st.integers(1, 60), st.integers(0, 2 ** 32 - 1)),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2,
             max_size=2).map(np.array),
)


class TestSweepOracle:
    """sublevel_pd against tests/oracles.py's union-find, which kept each vertex's birth value,
    birth index and reached flag: the same pairs, in the same order, to the byte, signed zeros
    and ties included."""

    @given(_SWEEP_SIGNALS)
    # ties between signed zeros: each fails if the stack's b > d, c >= a or b <= d gains or
    # loses its equality
    @example(np.array([-0.0, 1.0, 0.0]))
    @example(np.array([-0.0, 1.0, -0.0]))
    @example(np.array([-0.0, 1.0, -0.0, 1.0, 0.0]))
    @settings(max_examples=400, deadline=None)
    def test_pairs_match_the_oracle_byte_for_byte(self, x):
        got, want = sublevel_pd(x), oracles.sublevel_pd(x)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    # the drawn signals hold at most 300 samples, so their stacks stay shallow
    @pytest.mark.parametrize("x", [
        # swings that grow: each minimum pairs off as soon as the next, lower one comes
        np.array([(-1.0) ** i * i for i in range(4000)]),
        # swings that shrink: the stack holds every extremum until the final pad pops them all
        np.array([(-1.0) ** i * i for i in range(4000)])[::-1],
        # a recording as long as the diagrams benchmark's, 200 s at 256 Hz
        add_noise(generate_band_signal(ALPHA_BAND, 200.0, 256.0, 0), 5.0, 1).samples,
    ], ids=["growing", "shrinking", "recording"])
    def test_deep_stacks_match_the_oracle_byte_for_byte(self, x):
        got, want = sublevel_pd(x), oracles.sublevel_pd(x)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestTilt:
    def test_examples(self):
        d = tilt([[-2, 0], [-1, 0]])
        assert sorted(map(tuple, d.points)) == [(0.0, 2.0), (1.0, 1.0)]
        assert d.b_min == -2.0

        d = tilt([[0, 3]])
        assert sorted(map(tuple, d.points)) == [(0.0, 3.0)]

        d = tilt([[5, 7], [6, 6.5]])
        assert sorted(map(tuple, d.points)) == [(0.0, 2.0), (1.0, 0.5)]

    def test_empty(self):
        d = tilt(np.zeros((0, 2)))
        assert len(d) == 0 and d.b_min == 0.0

    def test_untilt_roundtrip(self, rng):
        for _ in range(20):
            k = int(rng.integers(1, 8))
            b = rng.normal(size=k)
            d = b + rng.uniform(0, 3, k)
            pairs = np.column_stack([b, d])
            back = untilt(tilt(pairs))
            assert np.allclose(sorted(map(tuple, back)), sorted(map(tuple, pairs)))

    @given(
        st.lists(
            st.tuples(
                st.floats(-50, 50, allow_nan=False),
                st.floats(0, 20, allow_nan=False),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_lands_in_wedge_and_keeps_cardinality(self, bd):
        pairs = [[b, b + p] for b, p in bd]
        d = tilt(pairs)
        assert len(d) == len(pairs)
        assert np.all(d.points >= 0)


class TestBottleneck:
    def test_identity(self, rng):
        pts = rng.uniform(0, 5, (6, 2))
        d = PersistenceDiagram(pts, b_min=-1.0)
        assert bottleneck_distance(d, d) == 0.0

    @pytest.mark.parametrize("pairs1, pairs2, want", [
        ([(0.0, 2.0)], [], 1.0), ([], [(0.0, 2.0)], 1.0), ([], [], 0.0),
    ], ids=["point-empty", "empty-point", "empty-empty"])
    def test_single_point_vs_empty(self, pairs1, pairs2, want):
        # frozen from the brute-force matching oracle: diagonal cost p/2, exactly
        got = bottleneck_distance(PersistenceDiagram(pairs1), PersistenceDiagram(pairs2))
        assert got == want
        assert got == pytest.approx(brute_bottleneck(pairs1, pairs2), abs=1e-12)

    def test_two_point_example(self):
        # frozen from the brute-force matching oracle (0.1: the direct match
        # of the perturbed point dominates)
        d1 = PersistenceDiagram([[0.0, 2.0], [1.0, 1.0]])
        d2 = PersistenceDiagram([[0.0, 2.1], [1.0, 1.0]])
        want = brute_bottleneck([(0.0, 2.0), (1.0, 2.0)], [(0.0, 2.1), (1.0, 2.0)])
        got = bottleneck_distance(d1, d2)
        assert got == pytest.approx(0.1, abs=1e-12)
        assert got == pytest.approx(want, abs=1e-12)

    def test_matches_bruteforce_on_random_diagrams(self, rng):
        for _ in range(40):
            nA, nB = rng.integers(0, 4, 2)
            A = np.column_stack([rng.uniform(0, 4, nA), rng.uniform(0, 4, nA)])
            A[:, 1] += A[:, 0]
            B = np.column_stack([rng.uniform(0, 4, nB), rng.uniform(0, 4, nB)])
            B[:, 1] += B[:, 0]
            d1, d2 = tilt(A), tilt(B)
            got = bottleneck_distance(d1, d2)
            want = brute_bottleneck(list(map(tuple, A)), list(map(tuple, B)))
            assert got == pytest.approx(want, abs=1e-12)

    def test_symmetry(self, rng):
        for _ in range(10):
            d1 = tilt(sublevel_pd(rng.normal(size=16)))
            d2 = tilt(sublevel_pd(rng.normal(size=16)))
            assert bottleneck_distance(d1, d2) == bottleneck_distance(d2, d1)

    def test_stability_small(self, rng):
        # sup-norm perturbation of the signal moves the diagram by no more
        for _ in range(10):
            vals = rng.normal(size=32)
            eps = 0.05
            noise = rng.uniform(-1, 1, 32)
            noise *= eps / np.abs(noise).max()
            d1 = tilt(sublevel_pd(vals))
            d2 = tilt(sublevel_pd(vals + noise))
            assert bottleneck_distance(d1, d2) <= eps + 1e-12

    def test_large_interleaved_ring(self):
        # 1,200 vs 1,200 points alternating around a circle far above the
        # diagonal: every point must be matched, and augmenting paths can run
        # the length of the ring
        theta = 2 * np.pi * np.arange(2400) / 2400
        ring = np.column_stack([50 * np.cos(theta), 200 + 50 * np.sin(theta)])
        gap = np.abs(np.diff(ring, axis=0, append=ring[:1])).max()
        d1, d2 = tilt(ring[0::2]), tilt(ring[1::2])
        dist = bottleneck_distance(d1, d2)
        assert np.isfinite(dist)
        assert dist == bottleneck_distance(d2, d1)
        assert dist <= gap + 1e-12


def _lower_bound(A, B):
    """The largest, over both sides' points, of the smaller of its diagonal cost and its nearest
    l-infinity distance across: no matching costs less."""
    def side(P, Q):
        return [min((d - b) / 2, *(max(abs(b - c), abs(d - e)) for c, e in Q)) for b, d in P]
    return max([0.0, *side(A, B), *side(B, A)])


def _random_pairs(family, n, rng):
    """n (birth, death) pairs of one of four families; integer and tenths abound in ties."""
    b, p = {
        "uniform": lambda: rng.uniform(0, 4, (2, n)),
        "integer": lambda: rng.integers(0, 6, (2, n)).astype(float),
        "tenths": lambda: np.round(rng.uniform(0, 2, (2, n)), 1),
        "exponential": lambda: rng.exponential(1.0, (2, n)),
    }[family]()
    return np.column_stack([b, b + p])


class TestBisectionOracle:
    """bottleneck_distance against tests/oracles.py's plain bisection over every candidate, each
    test's graph a dense csr_matrix: the same float, byte for byte."""

    @pytest.mark.parametrize("family", ["uniform", "integer", "tenths", "exponential"])
    def test_distances_match_the_oracle_byte_for_byte(self, family):
        rng = np.random.default_rng([2026, *family.encode()])
        # both sides empty, then each side empty once, then 0-40 points a side
        sizes = [(0, 0), (0, 7), (7, 0), *rng.integers(0, 41, (250, 2))]
        for n1, n2 in sizes:
            d1, d2 = tilt(_random_pairs(family, n1, rng)), tilt(_random_pairs(family, n2, rng))
            got, want = bottleneck_distance(d1, d2), oracles.bottleneck_distance(d1, d2)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (n1, n2)

    # 4 s at 256 Hz and 5 dB, the diagrams benchmark's pairs: about 300 points a side, where the
    # candidate filter and the tests of only the rows that must be matched cut the most
    @pytest.mark.parametrize("kind, seed", [
        *(("perturbed", seed) for seed in range(4)), *(("alpha-beta", seed) for seed in range(4)),
    ])
    def test_recording_pairs_match_the_oracle_byte_for_byte(self, kind, seed):
        rng = np.random.default_rng([2026, seed, kind == "perturbed"])

        def recording(band):
            sig = generate_band_signal(band, 4.0, 256.0, int(rng.integers(2**62)))
            return add_noise(sig, 5.0, int(rng.integers(2**62))).samples

        if kind == "perturbed":  # a recording and its copy moved by less than 0.1 per sample
            a = recording((ALPHA_BAND, BETA_BAND)[seed % 2])
            b = a + rng.uniform(-0.1, 0.1, len(a))
        else:
            a, b = recording(ALPHA_BAND), recording(BETA_BAND)
        d1, d2 = tilt(sublevel_pd(a)), tilt(sublevel_pd(b))
        assert min(len(d1), len(d2)) > 200
        for x, y in ((d1, d2), (d2, d1)):
            got, want = bottleneck_distance(x, y), oracles.bottleneck_distance(x, y)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("A, B, at_bound", [
        # the perturbed point's nearest match is its distance: the bound passes its one test
        ([(0.0, 2.0), (1.0, 1.5)], [(0.0, 2.1), (1.0, 1.5)], True),
        # both points' nearest match is the one point across, so one goes to the diagonal at 5:
        # the bound 0 fails, and the bisection runs above it
        ([(0.0, 10.0), (0.0, 10.0)], [(0.0, 10.0)], False),
    ], ids=["distance_is_the_bound", "distance_above_the_bound"])
    def test_both_branches(self, A, B, at_bound):
        got = bottleneck_distance(tilt(A), tilt(B))
        assert got == oracles.bottleneck_distance(tilt(A), tilt(B))
        assert got == pytest.approx(brute_bottleneck(A, B), abs=1e-12)
        assert (got == _lower_bound(A, B)) is at_bound
        assert got >= _lower_bound(A, B)

    @pytest.mark.parametrize("perturbed", [True, False], ids=["at_the_bound", "bisected"])
    def test_peak_memory_per_pair_of_points(self, perturbed, monkeypatch):
        # about 1,000 points a side; a perturbed copy's distance is the lower bound, which one
        # test settles, while two independent signals need the bisection
        rng = np.random.default_rng(44)
        x = rng.standard_normal(3000)
        y = x + rng.uniform(-0.1, 0.1, 3000) if perturbed else rng.standard_normal(3000)
        d1, d2 = tilt(sublevel_pd(x)), tilt(sublevel_pd(y))
        tests = []
        saturates = filtration._saturates
        monkeypatch.setattr(filtration, "_saturates", lambda sub: tests.append(1) or saturates(sub))
        import scipy.sparse.csgraph  # noqa: F401 -- loaded outside the trace, as in any process after it
        tracemalloc.start()
        try:
            bottleneck_distance(d1, d2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (len(tests) == 2) is perturbed  # the bound's one test checks both sides
        # the n x m distances and one temporary while they are built; the full candidate list
        # and three n x m float arrays at once took 33 B
        assert peak <= 20 * len(d1) * len(d2), peak / (len(d1) * len(d2))


class TestDiagramJSON:
    def test_roundtrip(self):
        d = PersistenceDiagram([[0.0, 2.0], [1.5, 0.25]], b_min=-3.25)
        back = diagram_from_json(diagram_to_json(d))
        assert back.b_min == d.b_min
        assert np.array_equal(back.points, d.points)

    def test_malformed(self):
        with pytest.raises(ValidationError):
            diagram_from_json({"points": "nope"})
        with pytest.raises(ValidationError):
            diagram_from_json([1, 2, 3])
        # each was read as a diagram before: numbers as strings or bools, points reshaped into pairs
        for bad in ({"points": [["1", "2"]]}, {"points": [[True, 1.0]]}, {"points": [1.0, 2.0]},
                    {"points": [[1.0, 2.0, 3.0, 4.0]]}, {"points": [], "b_min": True},
                    {"points": [], "b_min": "0.5"}, {"points": [[10**400, 1.0]]}):
            with pytest.raises(ValidationError):
                diagram_from_json(bad)


_NOT_FINITE = r"^diagram points must be finite, with b\^2 \+ p\^2 finite$"


class TestDiagramTypes:
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # inf - inf must be refused quietly
    @pytest.mark.parametrize("pairs, message", [
        ([[1.0, 0.5]], "wedge"), ([[0, np.inf]], _NOT_FINITE), ([[np.nan, 1]], _NOT_FINITE),
        ([[np.inf, np.inf]], _NOT_FINITE), ([[-np.inf, 0]], _NOT_FINITE),
        ([[0, 1e308]], _NOT_FINITE),
    ], ids=["death_before_birth", "infinite_death", "nan_birth", "both_infinite",
            "birth_minus_infinity", "squared_norm_overflows"])
    def test_tilt_rejects_a_pair_outside_every_diagram(self, pairs, message):
        with pytest.raises(ValidationError, match=message):
            tilt(pairs)

    @pytest.mark.parametrize("make", [
        lambda x: PersistenceDiagram(x).points,
        lambda x: tilt(x).points,
        # one weight per two coordinates: the count a reshape to pairs accepted
        lambda x: GaussianMixtureIntensity(np.ones(np.size(x) // 2), x,
                                           np.ones(np.size(x) // 2)).means,
    ], ids=["diagram_points", "tilt_pairs", "mixture_means"])
    def test_only_n_by_2_arrays_are_read_as_pairs(self, make):
        # a reshape to pairs regrouped each of these into points without a word
        for x in ([[0, 1, 2, 3]], np.zeros((3, 2, 2)), [0.0, 1.0], [[0.0], [1.0]]):
            with pytest.raises(ValidationError, match=r"shape \(n, 2\)"):
                make(x)
        for empty in ([], np.zeros((0, 2))):
            assert make(empty).shape == (0, 2)

    def test_tilted_rejects_outside_wedge(self):
        with pytest.raises(ValidationError):
            PersistenceDiagram([[-0.1, 1.0]])
        with pytest.raises(ValidationError):
            PersistenceDiagram([[0.1, -1.0]])

    def test_tilted_rejects_a_point_whose_squared_norm_overflows(self):
        # scoring such a point computed b^2 + p^2 = inf, and its log density was NaN
        PersistenceDiagram([[1.34e154, 0.0], [9e153, 9e153]])
        # a NaN or infinite coordinate makes it NaN or inf too, and is refused by the same test
        for point in ([1e308, 1e308], [1e154, 1e154], [0.0, 1.35e154], [np.nan, 1.0],
                      [np.inf, 0.0], [0.0, -np.inf]):
            with pytest.raises(ValidationError, match=_NOT_FINITE):
                PersistenceDiagram([[1.0, 1.0], point])

    def test_tilt_of_a_pair_past_the_float_range_is_rejected_quietly(self):
        # 1e308 - (-1e308) overflows: the diagram is rejected, without a RuntimeWarning
        pairs = sublevel_pd([1e308, -1e308, 1e308])
        with pytest.raises(ValidationError, match="finite"):
            tilt(pairs)
