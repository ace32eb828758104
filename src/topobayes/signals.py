"""Band-limited synthetic test signals and signal file loading.

The generator produces EEG-like oscillatory signals as random sums of
sinusoids inside a frequency band, normalized to unit RMS power. White
Gaussian noise can be added at a requested SNR in dB (0 dB means equal
signal and noise power). Recorded signals are read from CSV or decoded from JSON.
All randomness is seeded, so every function here is a pure function of its
arguments and safe to call concurrently.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import MAX_SIZE, DataFileError, ValidationError, json_floats


@dataclass(frozen=True, eq=False)
class Signal:
    """Uniformly sampled real time series.

    samples -- 1-D float array, at least 2 finite values
    sample_rate -- sampling frequency in Hz, > 0
    """

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size < 2:
            raise ValidationError("signal has too few samples (need at least 2)")
        if not np.all(np.isfinite(samples)):
            raise ValidationError("signal contains a non-finite sample")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", check_rate(self.sample_rate))

    def __len__(self):
        return len(self.samples)

    def power(self) -> float:
        """Mean squared amplitude."""
        return float(np.mean(self.samples**2))


def check_rate(value) -> float:
    """value as a sample rate in Hz: a finite, positive real number, and not a bool."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    try:
        rate = float(value) if real else np.nan
    except OverflowError:  # an integer too large for a float
        rate = np.inf
    if not 0 < rate < np.inf:
        raise ValidationError("sample rate must be a positive finite number")
    return rate


@dataclass(frozen=True)
class BandSpec:
    """Frequency band for the sinusoid-sum generator.

    The Nyquist constraint f_high < sample_rate / 2 is checked at generation
    time, when the sample rate is known.
    """

    f_low: float
    f_high: float

    def __post_init__(self):
        if not (0 < self.f_low < self.f_high):
            raise ValidationError(
                f"band needs 0 < f_low < f_high, got [{self.f_low}, {self.f_high}]"
            )


ALPHA_BAND = BandSpec(8.0, 13.0)
BETA_BAND = BandSpec(13.0, 30.0)


def generate_band_signal(band: BandSpec, duration: float, sample_rate: float,
                         seed: int) -> Signal:
    """Random sum of three sinusoids with frequencies inside the band.

    Frequencies are drawn uniformly in [f_low, f_high], phases uniformly in
    [0, 2*pi), amplitudes uniformly in [0.5, 1.5] (unit mean). The sum is
    rescaled to unit RMS power. Deterministic for a fixed seed.
    """
    if not (0 < duration < np.inf and 0 < sample_rate < np.inf):
        raise ValidationError("duration and sample_rate must be positive and finite")
    if band.f_high >= sample_rate / 2:
        raise ValidationError(
            f"f_high {band.f_high} Hz is not below the Nyquist rate "
            f"{sample_rate / 2} Hz"
        )
    samples = duration * sample_rate
    if not samples * 8 <= MAX_SIZE:  # inf too; checked before any array is made
        raise ValidationError("duration * sample_rate gives more samples than an array can hold")
    n = int(round(samples))
    if n < 2:
        raise ValidationError("duration * sample_rate must yield at least 2 samples")
    rng = np.random.default_rng(seed)
    freqs = rng.uniform(band.f_low, band.f_high, 3)
    phases = rng.uniform(0.0, 2.0 * np.pi, 3)
    amps = rng.uniform(0.5, 1.5, 3)
    t = np.arange(n) / sample_rate
    x = np.zeros(n)
    for f, ph, a in zip(freqs, phases, amps):
        x += a * np.sin(2.0 * np.pi * f * t + ph)
    rms = np.sqrt(np.mean(x**2))
    if rms == 0.0:  # degenerate draw, cannot normalize
        raise ValidationError("generated signal is identically zero")
    return Signal(x / rms, sample_rate)


def add_noise(signal: Signal, snr_db: float, seed: int) -> Signal:
    """Add zero-mean white Gaussian noise at the requested SNR.

    Noise variance is signal_power / 10**(snr_db / 10), so 0 dB gives equal
    signal and noise power. The standard-normal draw depends only on the
    seed and the sample count; the signal content enters through the scale
    factor alone.
    """
    # a bound far past any physical SNR keeps 10**(snr_db/10) and the noise inside float range
    if not -3000.0 <= snr_db <= 3000.0:
        raise ValidationError("snr_db must lie in [-3000, 3000] dB")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(len(signal.samples))
    sigma = np.sqrt(signal.power() / 10.0 ** (snr_db / 10.0))
    return Signal(signal.samples + sigma * z, signal.sample_rate)


def load_signal(path, rate: float | None = None) -> Signal:
    """Read a CSV signal: one amplitude per line with an optional single header
    line. CSV carries no sample rate, so `rate` must be supplied."""
    p = Path(path)
    if not p.exists():
        raise DataFileError(f"{p}: no such file")
    if rate is None:
        raise ValidationError("csv signals need an explicit sample rate")
    values = _parse_csv(p)
    try:
        return Signal(values, rate)
    except ValidationError as e:
        raise DataFileError(f"{p}: {e}") from None


def signal_from_json(obj) -> Signal:
    """Wire format: {"rate": <Hz>, "samples": [<number>, ...]}."""
    if not isinstance(obj, dict):
        raise ValidationError("expected an object with 'rate' and 'samples'")
    return Signal(json_floats(obj.get("samples"), "'samples'", None), obj.get("rate"))


def _parse_csv(p: Path) -> list:
    values = []
    seen_data = False
    try:
        text = p.read_text()
    except UnicodeDecodeError as e:
        raise DataFileError(f"{p}: not UTF-8 text ({e})") from None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            values.append(float(line))
            seen_data = True
        except ValueError:
            if not seen_data and ln == 1:
                continue  # single optional header line
            raise DataFileError(f"{p}: malformed line {ln}: {line!r}") from None
    return values
