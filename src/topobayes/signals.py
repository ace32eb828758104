"""Band-limited synthetic test signals.

The generator produces EEG-like oscillatory signals as random sums of sinusoids inside a
frequency band, normalized to unit RMS power. White Gaussian noise can be added at a requested
SNR in dB (0 dB means equal signal and noise power). Each function checks only its own
arguments; the CLI reads recorded signals from CSV or JSON files and checks a file's sample
rate. All randomness is seeded, so every function here is a pure function of its arguments and
safe to call concurrently.
"""

from dataclasses import dataclass

import numpy as np

from .errors import MAX_SIZE, ValidationError, seeded_rng


@dataclass(frozen=True, eq=False)
class Signal:
    """Uniformly sampled real time series, as the generators return it; the caller has the rate.

    samples -- 1-D float array; sublevel_pd checks them (at least 2, finite)
    """

    samples: np.ndarray


# the paper's two EEG rhythms, each an (f_low, f_high) pair in Hz
ALPHA_BAND = (8.0, 13.0)
BETA_BAND = (13.0, 30.0)


def generate_band_signal(band, duration: float, sample_rate: float, seed: int) -> Signal:
    """Random sum of three sinusoids with frequencies inside band, an (f_low, f_high) pair in Hz.

    The whole band is checked here: 0 < f_low < f_high first, then f_high below Nyquist.
    Frequencies are drawn uniformly in [f_low, f_high], phases uniformly in
    [0, 2*pi), amplitudes uniformly in [0.5, 1.5] (unit mean). The sum is
    rescaled to unit RMS power. Deterministic for a fixed seed.
    """
    f_low, f_high = band
    if not (0 < f_low < f_high):
        raise ValidationError(f"band needs 0 < f_low < f_high, got [{f_low}, {f_high}]")
    if not (0 < duration < np.inf and 0 < sample_rate < np.inf):
        raise ValidationError("duration and sample_rate must be positive and finite")
    if f_high >= sample_rate / 2:
        raise ValidationError(f"f_high {f_high} Hz is not below the Nyquist rate "
                              f"{sample_rate / 2} Hz")
    samples = duration * sample_rate
    if not samples * 8 <= MAX_SIZE:  # inf too; checked before any array is made
        raise ValidationError("duration * sample_rate gives more samples than an array can hold")
    n = int(round(samples))
    if n < 2:
        raise ValidationError("duration * sample_rate must yield at least 2 samples")
    rng = seeded_rng(seed)
    freqs = rng.uniform(f_low, f_high, 3)
    phases = rng.uniform(0.0, 2.0 * np.pi, 3)
    amps = rng.uniform(0.5, 1.5, 3)
    t = np.arange(n) / sample_rate
    x = np.zeros(n)
    for f, ph, a in zip(freqs, phases, amps):
        x += a * np.sin(2.0 * np.pi * f * t + ph)
    rms = np.sqrt(np.mean(x**2))
    if rms == 0.0:  # degenerate draw, cannot normalize
        raise ValidationError("generated signal is identically zero")
    return Signal(x / rms)


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
    x = np.asarray(signal.samples, dtype=float)
    z = seeded_rng(seed).standard_normal(len(x))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow: refused below; no samples: 0/0
        noisy = x + np.sqrt((x**2).sum() / len(x) / 10.0 ** (snr_db / 10.0)) * z
    if not np.all(np.isfinite(noisy)):
        raise ValidationError("signal and noise samples must be finite")
    return Signal(noisy)
