"""PCM audio input/output and synthetic harmonic test tones.

Audio is represented as mono float64 in [-1, 1].  Only the two sample
rates whose frequency-axis constants are exact (44.1 kHz and 48 kHz)
are accepted; no resampling is performed.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.io import wavfile

from .errors import DomainError, FormatError

SUPPORTED_RATES = (44100, 48000)

INT16_SCALE = 32768.0
FADE_S = 0.01           # fade length of a synthetic tone


@dataclass
class AudioClip:
    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise DomainError("AudioClip samples must be one-dimensional")
        if not np.all(np.isfinite(self.samples)):
            raise DomainError("AudioClip samples must be finite")
        if int(self.sample_rate_hz) not in SUPPORTED_RATES:
            raise DomainError(
                f"unsupported sample rate {self.sample_rate_hz}; "
                f"expected one of {SUPPORTED_RATES}"
            )
        self.sample_rate_hz = int(self.sample_rate_hz)

    @property
    def duration_s(self):
        return len(self.samples) / self.sample_rate_hz


def read_wav(path):
    """Read a RIFF WAV file as a mono AudioClip.

    16-bit integer and 32-bit float PCM are supported; multi-channel
    input is averaged to mono.
    """
    try:
        rate, data = wavfile.read(path)
    except OSError:
        raise
    except Exception as exc:
        # SciPy's parser also fails on a malformed header with
        # struct.error, ZeroDivisionError, TypeError or UnboundLocalError.
        raise FormatError(f"cannot parse WAV file {path}: {exc}") from exc
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / INT16_SCALE
    elif data.dtype == np.float32:
        samples = data.astype(np.float64)
    else:
        raise FormatError(
            f"unsupported WAV sample format {data.dtype} in {path}; "
            "expected int16 or float32"
        )
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    if not np.all(np.isfinite(samples)):
        raise FormatError(f"non-finite samples in {path}")
    return AudioClip(samples, rate)


def write_wav(clip, path, dtype="int16"):
    """Write an AudioClip to a WAV file.

    Samples outside [-1, 1] are clamped with a warning.  ``dtype`` may
    be "int16" (default) or "float32".
    """
    samples = clip.samples
    if len(samples) and (samples.max() > 1.0 or samples.min() < -1.0):
        warnings.warn("samples outside [-1, 1] clipped on write", stacklevel=2)
        samples = np.clip(samples, -1.0, 1.0)
    if dtype == "int16":
        data = np.clip(np.round(samples * INT16_SCALE),
                       -INT16_SCALE, INT16_SCALE - 1).astype(np.int16)
    elif dtype == "float32":
        data = samples.astype(np.float32)
    else:
        raise DomainError(f"unsupported output dtype {dtype!r}")
    wavfile.write(path, clip.sample_rate_hz, data)


def partial_frequencies(f1_hz, n_partials, b=0.0):
    """Frequencies of the first ``n_partials`` partials of a stiff string.

    Partial h sits at (1 + b h^2)^(1/2) * h * f1.
    """
    h = np.arange(1, n_partials + 1, dtype=np.float64)
    return np.sqrt(1.0 + b * h**2) * h * f1_hz


def synth_harmonic_tone(f1_hz, amplitudes, b, duration_s, sample_rate_hz,
                        phases=None):
    """Synthesize a harmonic tone with optional string inharmonicity.

    The output is the sum over partials of ``amplitudes[h] * sin(2 pi
    f_h t + phases[h])``, peak-normalized to 0.5, with a ``FADE_S``
    raised-cosine fade at both ends to avoid clicks.  Partials at or
    above the Nyquist frequency are dropped.
    """
    if f1_hz <= 0:
        raise DomainError("fundamental frequency must be positive")
    amplitudes = np.asarray(amplitudes, dtype=np.float64)
    if phases is None:
        phases = np.zeros_like(amplitudes)
    phases = np.asarray(phases, dtype=np.float64)
    freqs = partial_frequencies(f1_hz, len(amplitudes), b)
    keep = freqs < sample_rate_hz / 2.0
    n = int(round(duration_s * sample_rate_hz))
    t = np.arange(n) / sample_rate_hz
    x = np.zeros(n)
    for a, f, ph in zip(amplitudes[keep], freqs[keep], phases[keep]):
        x += a * np.sin(2.0 * np.pi * f * t + ph)
    peak = np.abs(x).max()
    if peak > 0:
        x *= 0.5 / peak
    n_fade = min(int(round(FADE_S * sample_rate_hz)), n // 2)
    if n_fade > 0:
        ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(n_fade) / n_fade)
        x[:n_fade] *= ramp
        x[-n_fade:] *= ramp[::-1]
    return AudioClip(x, sample_rate_hz)
