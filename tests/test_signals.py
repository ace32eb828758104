import json

import numpy as np
import pytest

from topobayes import (
    ALPHA_BAND,
    BETA_BAND,
    BandSpec,
    DataFileError,
    Signal,
    ValidationError,
    add_noise,
    generate_band_signal,
    load_signal,
    signal_from_json,
)


def dominant_frequency(signal):
    """FFT-periodogram oracle: frequency of the largest nonzero-bin peak."""
    spec = np.abs(np.fft.rfft(signal.samples)) ** 2
    freqs = np.fft.rfftfreq(len(signal.samples), d=1.0 / signal.sample_rate)
    spec[0] = 0.0  # ignore DC
    return freqs[np.argmax(spec)]


class TestGenerateBandSignal:
    @pytest.mark.parametrize("band,lo,hi", [(ALPHA_BAND, 8.0, 13.0), (BETA_BAND, 13.0, 30.0)])
    def test_dominant_fft_peak_inside_band(self, band, lo, hi):
        for seed in range(10):
            sig = generate_band_signal(band, 2.0, 256.0, seed=seed)
            f = dominant_frequency(sig)
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
            assert abs(np.sqrt(sig.power()) - 1.0) < 1e-9

    def test_nyquist_rejected(self):
        with pytest.raises(ValidationError):
            generate_band_signal(ALPHA_BAND, 2.0, 20.0, seed=0)  # 13 Hz >= 10 Hz

    def test_too_short_rejected(self):
        with pytest.raises(ValidationError):
            generate_band_signal(ALPHA_BAND, 0.001, 256.0, seed=0)

    def test_bad_band_rejected(self):
        with pytest.raises(ValidationError):
            BandSpec(13.0, 8.0)
        with pytest.raises(ValidationError):
            BandSpec(0.0, 8.0)
        with pytest.raises(ValidationError):
            BandSpec(8.0, 13.0, n_components=0)


class TestAddNoise:
    def test_snr_zero_means_equal_power(self):
        sig = generate_band_signal(ALPHA_BAND, 2.0, 256.0, seed=3)  # 512 samples
        noisy = add_noise(sig, 0.0, seed=4)
        noise_power = np.mean((noisy.samples - sig.samples) ** 2)
        assert 0.9 <= noise_power / sig.power() <= 1.1

    def test_high_snr_vanishing_noise(self):
        sig = generate_band_signal(ALPHA_BAND, 2.0, 256.0, seed=3)
        noisy = add_noise(sig, 60.0, seed=4)
        rel = np.sqrt(np.mean((noisy.samples - sig.samples) ** 2) / sig.power())
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


class TestSignalType:
    def test_rejects_short(self):
        with pytest.raises(ValidationError):
            Signal([1.0], 10.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            Signal([1.0, np.nan], 10.0)

    def test_rejects_bad_rate(self):
        for rate in (0.0, "128", "abc", [1], None, True, 10**400):  # 10**400: too large for a float
            with pytest.raises(ValidationError):
                Signal([1.0, 2.0], rate)


class TestLoadSignal:
    def test_csv_parse_identity(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("0\n1\n0\n")
        sig = load_signal(p, rate=100.0)
        assert np.array_equal(sig.samples, [0.0, 1.0, 0.0])
        assert sig.sample_rate == 100.0

    def test_csv_optional_header(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("amplitude\n0.5\n-0.5\n")
        sig = load_signal(p, rate=50.0)
        assert np.array_equal(sig.samples, [0.5, -0.5])

    def test_nan_row_reports_nonfinite(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("0\nNaN\n1\n")
        with pytest.raises(DataFileError, match="non-finite sample"):
            load_signal(p, rate=100.0)

    def test_empty_file_reports_too_few(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("")
        with pytest.raises(DataFileError, match="too few samples"):
            load_signal(p, rate=100.0)

    def test_malformed_line_reported(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("0\n1\nbroken\n")
        with pytest.raises(DataFileError, match="malformed"):
            load_signal(p, rate=100.0)

    def test_csv_requires_rate(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("0\n1\n")
        with pytest.raises(ValidationError):
            load_signal(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFileError, match="no such file"):
            load_signal(tmp_path / "absent.csv", rate=1.0)


class TestSignalFromJson:
    def test_roundtrip(self):
        sig = signal_from_json(json.loads('{"rate": 128.0, "samples": [0.0, 1.5, -2.0]}'))
        assert sig.sample_rate == 128.0
        assert np.array_equal(sig.samples, [0.0, 1.5, -2.0])

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
        with pytest.raises(ValidationError):
            signal_from_json(obj)
