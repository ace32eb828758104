import json

import numpy as np
import pytest

from topobayes import (
    ALPHA_BAND,
    BETA_BAND,
    DataFileError,
    Signal,
    ValidationError,
    add_noise,
    generate_band_signal,
    sublevel_pd,
)
from topobayes.cli import check_rate, load_signal, main, signal_from_json
import oracles


def dominant_frequency(signal, rate):
    """FFT-periodogram oracle: frequency of the largest nonzero-bin peak of a signal sampled at
    rate Hz."""
    spec = np.abs(np.fft.rfft(signal.samples)) ** 2
    freqs = np.fft.rfftfreq(len(signal.samples), d=1.0 / rate)
    spec[0] = 0.0  # ignore DC
    return freqs[np.argmax(spec)]


class TestGenerateBandSignal:
    @pytest.mark.parametrize("band,lo,hi", [(ALPHA_BAND, 8.0, 13.0), (BETA_BAND, 13.0, 30.0)])
    def test_dominant_fft_peak_inside_band(self, band, lo, hi):
        for seed in range(10):
            sig = generate_band_signal(band, 2.0, 256.0, seed=seed)
            f = dominant_frequency(sig, 256.0)
            assert lo <= f <= hi

    def test_same_seed_bit_identical(self):
        a = generate_band_signal(ALPHA_BAND, 2.0, 256.0, seed=7)
        b = generate_band_signal(ALPHA_BAND, 2.0, 256.0, seed=7)
        assert np.array_equal(a.samples, b.samples)

    def test_different_seed_differs(self):
        a = generate_band_signal(ALPHA_BAND, 2.0, 256.0, seed=7)
        b = generate_band_signal(ALPHA_BAND, 2.0, 256.0, seed=8)
        assert not np.array_equal(a.samples, b.samples)

    def test_unit_rms(self):
        for seed in range(5):
            sig = generate_band_signal(BETA_BAND, 1.0, 200.0, seed=seed)
            assert abs(np.sqrt(np.mean(sig.samples ** 2)) - 1.0) < 1e-9

    def test_nyquist_rejected(self):
        with pytest.raises(ValidationError):
            generate_band_signal(ALPHA_BAND, 2.0, 20.0, seed=0)  # 13 Hz >= 10 Hz

    def test_too_short_rejected(self):
        with pytest.raises(ValidationError):
            generate_band_signal(ALPHA_BAND, 0.001, 256.0, seed=0)

    def test_bad_band_rejected(self):
        with pytest.raises(ValidationError):
            generate_band_signal((13.0, 8.0), 2.0, 256.0, seed=0)
        with pytest.raises(ValidationError):
            generate_band_signal((0.0, 8.0), 2.0, 256.0, seed=0)

    def test_identically_zero_draw_rejected(self, monkeypatch):
        # no seed is known to draw such a signal, so a generator that draws only zeros stands in
        class Zeros:
            def uniform(self, low, high, size):
                return np.zeros(size)

        monkeypatch.setattr("topobayes.signals.seeded_rng", lambda seed: Zeros())
        with pytest.raises(ValidationError, match="generated signal is identically zero"):
            generate_band_signal(ALPHA_BAND, 2.0, 256.0, seed=0)


class TestGenerateBandSignalOracle:
    """generate_band_signal against tests/oracles.py's generator of the BandSpec dataclass, which
    checked 0 < f_low < f_high when the band was built: the same samples, byte for byte, and the
    same refusals, message for message."""

    @pytest.mark.parametrize("band", [ALPHA_BAND, BETA_BAND], ids=["alpha", "beta"])
    def test_samples_match(self, band):
        for duration in (1.0, 2.0, 7.3):
            for rate in (128.0, 200.0, 256.0, 1000.0):
                for seed in range(20):
                    got = generate_band_signal(band, duration, rate, seed)
                    want = oracles.generate_band_signal(oracles.BandSpec(*band), duration, rate,
                                                        seed)
                    assert got.samples.tobytes() == want.samples.tobytes(), (duration, rate, seed)

    @pytest.mark.parametrize("band, duration, rate", [
        ((13.0, 8.0), 2.0, 256.0),
        ((0.0, 8.0), 2.0, 256.0),
        ((-1.0, 8.0), 2.0, 256.0),
        ((10.0, 10.0), 2.0, 256.0),
        ((np.nan, 13.0), 2.0, 256.0),
        ((8.0, np.nan), 2.0, 256.0),
        ((8.0, 13.0), 2.0, 26.0),
        ((8.0, 13.0), 2.0, 20.0),
        ((13.0, 8.0), 0.0, 256.0),
        ((np.nan, 13.0), -1.0, 20.0),
        ((8.0, 13.0), 0.0, 256.0),
        ((8.0, 13.0), 2.0, np.inf),
        ((8.0, 13.0), 0.001, 256.0),
        ((8.0, 13.0), 1e300, 256.0),
    ], ids=["reversed", "f_low-zero", "f_low-negative", "f_low-equals-f_high", "nan-f_low",
            "nan-f_high", "f_high-at-nyquist", "f_high-above-nyquist", "bad-band-and-duration",
            "nan-band-bad-duration-and-nyquist", "zero-duration", "infinite-rate",
            "under-2-samples", "too-many-samples"])
    def test_refusals_match(self, band, duration, rate):
        with pytest.raises(Exception) as want:
            oracles.generate_band_signal(oracles.BandSpec(*band), duration, rate, 0)
        with pytest.raises(Exception) as got:
            generate_band_signal(band, duration, rate, 0)
        assert (got.type, str(got.value)) == (want.type, str(want.value))
        assert got.type is ValidationError


class TestAddNoise:
    def test_snr_zero_means_equal_power(self):
        sig = generate_band_signal(ALPHA_BAND, 2.0, 256.0, seed=3)  # 512 samples
        noisy = add_noise(sig, 0.0, seed=4)
        noise_power = np.mean((noisy.samples - sig.samples) ** 2)
        assert 0.9 <= noise_power / np.mean(sig.samples ** 2) <= 1.1

    def test_high_snr_vanishing_noise(self):
        sig = generate_band_signal(ALPHA_BAND, 2.0, 256.0, seed=3)
        noisy = add_noise(sig, 60.0, seed=4)
        rel = np.sqrt(np.mean((noisy.samples - sig.samples) ** 2) / np.mean(sig.samples ** 2))
        assert rel < 0.01

    def test_db_ratio_between_snr_levels(self):
        # same seed, same base signal: the normal draw is shared, so the
        # empirical variance ratio equals the dB formula almost exactly
        sig = generate_band_signal(BETA_BAND, 2.0, 256.0, seed=3)
        n5 = add_noise(sig, 5.0, seed=9).samples - sig.samples
        n3 = add_noise(sig, 3.0, seed=9).samples - sig.samples
        ratio = np.mean(n5**2) / np.mean(n3**2)
        assert ratio == pytest.approx(10 ** (-0.2), rel=1e-12)

    def test_noise_independent_of_signal_content(self):
        # two different unit-power signals, same seed: identical noise
        a = generate_band_signal(ALPHA_BAND, 2.0, 256.0, seed=1)
        b = generate_band_signal(BETA_BAND, 2.0, 256.0, seed=2)
        na = add_noise(a, 5.0, seed=11).samples - a.samples
        nb = add_noise(b, 5.0, seed=11).samples - b.samples
        assert np.allclose(na, nb, rtol=1e-12, atol=1e-15)

    def test_deterministic(self):
        sig = generate_band_signal(ALPHA_BAND, 2.0, 256.0, seed=1)
        assert np.array_equal(add_noise(sig, 5.0, 2).samples, add_noise(sig, 5.0, 2).samples)


class TestAddNoiseOracle:
    @pytest.mark.parametrize("band", [ALPHA_BAND, BETA_BAND], ids=["alpha", "beta"])
    def test_samples_match_the_checked_signal_oracle(self, band):
        for snr_db in (-20.0, 0.0, 5.0, 40.0):
            for seed in range(60):
                sig = generate_band_signal(band, 2.0, 256.0, seed=seed)
                want = oracles.add_noise(oracles.CheckedSignal(sig.samples, 256.0),
                                         snr_db, seed + 1000)
                got = add_noise(sig, snr_db, seed + 1000)
                assert got.samples.tobytes() == want.samples.tobytes(), (snr_db, seed)


class TestSignalType:
    """Signal is a plain record: sublevel_pd checks its samples, given as an array or a Signal,
    and check_rate a rate read from a file."""

    def test_rejects_short(self):
        for signal in (np.array([1.0]), Signal(np.array([1.0]))):
            with pytest.raises(ValidationError, match="at least 2 samples"):
                sublevel_pd(signal)

    def test_rejects_a_wrong_dimension_naming_it(self):
        # a 2-D array was refused as too short to have 2 samples
        for signal, ndim in ((np.ones((3, 3)), 2), (np.float64(1.0), 0)):
            with pytest.raises(ValidationError, match=rf"^signal must be 1-D, not {ndim}-D$"):
                sublevel_pd(signal)

    def test_rejects_nonfinite(self):
        for signal in (np.array([1.0, np.nan]), Signal(np.array([1.0, np.nan]))):
            with pytest.raises(ValidationError, match="non-finite"):
                sublevel_pd(signal)

    def test_rejects_bad_rate(self):
        for rate in (0.0, "128", "abc", [1], None, True, 10**400):  # 10**400: too large for a float
            with pytest.raises(ValidationError):
                check_rate(rate)


class TestLoadSignal:
    """load_signal parses a CSV signal's samples; pd refuses one that sublevel_pd cannot take,
    with exit 2 and one error line naming the file."""

    def test_csv_parse_identity(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("0\n1\n0\n")
        samples = load_signal(p)
        assert samples.dtype == float and np.array_equal(samples, [0.0, 1.0, 0.0])

    def test_csv_optional_header(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("amplitude\n0.5\n-0.5\n")
        assert np.array_equal(load_signal(p), [0.5, -0.5])

    def test_byte_order_mark_is_not_a_header(self, tmp_path):
        # Excel's "CSV UTF-8" export starts the file with one; the first sample is a minimum
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text("0.5\n1.5\n-1.0\n2.0\n")
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert np.array_equal(load_signal(bom), load_signal(plain))
        assert main(["pd", str(plain), str(bom), "--out", str(tmp_path / "pd")]) == 0
        assert ((tmp_path / "pd" / "bom.pd.json").read_bytes()
                == (tmp_path / "pd" / "plain.pd.json").read_bytes())

    def test_blank_lines_are_skipped(self, tmp_path, capsys):
        # blank and whitespace-only lines between values, after the header and at the end
        plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
        plain.write_text("amplitude\n0.5\n1.5\n-1.0\n2.0\n")
        spaced.write_text("amplitude\n\n0.5\n  \n1.5\n\t\n-1.0\n\n\n2.0\n \n\n")
        assert np.array_equal(load_signal(spaced), [0.5, 1.5, -1.0, 2.0])
        assert main(["pd", str(plain), str(spaced), "--out", str(tmp_path / "pd")]) == 0
        assert ((tmp_path / "pd" / "spaced.pd.json").read_bytes()
                == (tmp_path / "pd" / "plain.pd.json").read_bytes())
        # a skipped line still counts, so a header after a leading blank line is line 2
        late = tmp_path / "late.csv"
        late.write_text("\namplitude\n0.5\n1.5\n")
        assert main(["pd", str(late), "--out", str(tmp_path / "late")]) == 2
        assert capsys.readouterr().err == f"error: {late}: malformed line 2: 'amplitude'\n"

    def test_nan_row_reports_nonfinite(self, tmp_path, capsys):
        p = tmp_path / "s.csv"
        p.write_text("0\nNaN\n1\n")
        assert np.array_equal(load_signal(p), [0.0, np.nan, 1.0], equal_nan=True)
        assert main(["pd", str(p), "--out", str(tmp_path / "pd")]) == 2
        assert capsys.readouterr().err == f"error: {p}: signal contains a non-finite sample\n"

    # sublevel_pd is pd's one check of the sample count, for CSV and JSON signals alike
    @pytest.mark.parametrize("name, text", [
        ("s.csv", ""),
        ("s.json", '{"rate": 128, "samples": [0]}'),
    ], ids=["csv", "json"])
    def test_empty_file_reports_too_few(self, tmp_path, capsys, name, text):
        p = tmp_path / name
        p.write_text(text)
        assert main(["pd", str(p), "--out", str(tmp_path / "pd")]) == 2
        assert capsys.readouterr().err == f"error: {p}: signal needs at least 2 samples\n"

    def test_malformed_line_reported(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("0\n1\nbroken\n")
        with pytest.raises(DataFileError, match="malformed"):
            load_signal(p)

    def test_non_utf8_reported(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_bytes(b"0\n\xb5\n")  # Latin-1 micro sign
        with pytest.raises(DataFileError, match="not UTF-8 text"):
            load_signal(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFileError, match="no such file"):
            load_signal(tmp_path / "absent.csv")


class TestSignalFromJson:
    def test_roundtrip(self):
        samples = signal_from_json(json.loads('{"rate": 128.0, "samples": [0.0, 1.5, -2.0]}'))
        assert samples.dtype == float and np.array_equal(samples, [0.0, 1.5, -2.0])

    @pytest.mark.parametrize("obj", [
        [0.0, 1.0],
        {"rate": 128.0},
        {"samples": [0.0, 1.0]},
        {"rate": 128.0, "samples": "12"},  # a string of digits is not two samples
        {"rate": 128.0, "samples": [0.0, "1"]},
        {"rate": 128.0, "samples": [0.0, True]},
        {"rate": 128.0, "samples": [0.0, [1.0]]},
        {"rate": 128.0, "samples": [0.0, 10**400]},  # too large for a float
        {"rate": 10**400, "samples": [0.0, 1.0]},
        {"rate": "128", "samples": [0.0, 1.0]},
        {"rate": -1, "samples": [0.0, 1.0]},
        {"rate": 128.0, "samples": [0.0]},
        {"rate": 128.0, "samples": [0.0, float("nan")]},
    ])
    def test_malformed(self, obj):
        # what pd reads of a JSON signal: sublevel_pd refuses too few or non-finite samples
        with pytest.raises(ValidationError):
            sublevel_pd(signal_from_json(obj))
