"""Gaussian-window STFT magnitude spectrograms and Griffin-Lim inversion.

The analysis window is a Gaussian of standard deviation ``zeta``
samples truncated at +/- ``halfwidth * zeta``; the FFT size equals the
window length, so one frequency bin spans ``sample_rate / n_fft`` Hz
(3.90625 Hz at 48 kHz with the default constants).  Magnitudes are not
squared: the grid is positively homogeneous in the input signal.  Every
grid records as ``stft`` the :class:`StftConfig` whose frames it holds;
its ``axis`` is that config, or for a log spectrogram the
:class:`LogAxis` it was rendered on.
"""

from dataclasses import dataclass, fields

import numpy as np

from .audio import AudioClip
from .errors import ConfigError, DomainError

PGM_DYNAMIC_RANGE_DB = 100.0    # grey scale of save_pgm, dB below peak
#: Frames that :func:`stft_complex` windows and transforms at a time;
#: its windowed copy holds this many frames, not the whole signal's.
STFT_BLOCK_FRAMES = 16


def _check_positive(config):
    """Every field of the window and axis configs is a positive,
    finite number."""
    for field in fields(config):
        value = getattr(config, field.name)
        if not (np.isfinite(value) and value > 0):
            raise ConfigError(f"{type(config).__name__}.{field.name} must "
                              f"be positive and finite, got {value!r}")


@dataclass
class StftConfig:
    sample_rate_hz: int = 48000
    zeta_samples: float = 1024.0
    hop_samples: int = 256
    window_halfwidth: float = 6.0

    def __post_init__(self):
        _check_positive(self)
        span = 2.0 * self.window_halfwidth * self.zeta_samples
        if not np.isfinite(span) or self.window_length < 2:
            raise ConfigError("the analysis window (zeta_samples times "
                              "window_halfwidth) must round to a finite "
                              "length of at least two samples")

    @property
    def window_length(self):
        n = int(round(2.0 * self.window_halfwidth * self.zeta_samples))
        return n + (n % 2)

    @property
    def n_bins(self):
        return self.window_length // 2 + 1

    @property
    def bin_hz(self):
        return self.sample_rate_hz / self.window_length

    @property
    def frame_period_s(self):
        return self.hop_samples / self.sample_rate_hz

    @property
    def sigma_nil(self):
        # Fourier pair of the window: std 1/(2 pi zeta) in cycles/sample,
        # i.e. window_length/(2 pi zeta) frequency bins.
        return 1.0 / (2.0 * np.pi * self.zeta_samples)

    def window(self):
        n = self.window_length
        t = np.arange(n) - n // 2
        return np.exp(-(t.astype(np.float64) ** 2)
                      / (2.0 * self.zeta_samples**2))


@dataclass
class LogAxis:
    """alpha(f) = alpha0 * log2(f / f0), with f in linear STFT bins."""

    f0: float = 5.12        # reference frequency in linear-bin units
    alpha0: float = 102.4   # bins per octave
    n_bins: int = 1024

    def __post_init__(self):
        _check_positive(self)

    def alpha(self, f_bins):
        return self.alpha0 * np.log2(f_bins / self.f0)

    def frequency(self, alpha):
        return self.f0 * 2.0 ** (alpha / self.alpha0)


@dataclass
class SpectrogramGrid:
    values: np.ndarray
    stft: StftConfig         # the STFT whose frames the grid holds
    log_axis: LogAxis = None  # the frequency axis of a log spectrogram

    @property
    def axis(self):
        return self.stft if self.log_axis is None else self.log_axis

    frame_period_s = property(lambda self: self.stft.frame_period_s)
    n_bins = property(lambda self: self.values.shape[0])
    n_frames = property(lambda self: self.values.shape[1])


def checked_axis(grid, kind, expected=None):
    """``grid.axis``, checked to be a ``kind`` and, if given, ``expected``."""
    if not isinstance(grid.axis, kind):
        raise DomainError(f"the spectrogram's axis is not a {kind.__name__}")
    if expected is not None and expected != grid.axis:
        raise DomainError(f"{expected} differs from the spectrogram's axis")
    return grid.axis


def _frame(x, cfg):
    n = cfg.window_length
    hop = cfg.hop_samples
    n_frames = 1 + (len(x) - 1) // hop
    pad = np.concatenate([np.zeros(n // 2, dtype=x.dtype), x,
                          np.zeros(n, dtype=x.dtype)])
    # A strided view: no index matrix and no copy of the frames.
    windows = np.lib.stride_tricks.sliding_window_view(pad, n)
    return windows[::hop][:n_frames], n_frames


def stft_complex(x, cfg):
    """Complex STFT, shape [n_bins, n_frames]; frame t is centered at
    sample t*hop (edges zero-padded)."""
    x = np.asarray(x, dtype=np.float64)
    if len(x) < cfg.window_length:
        raise DomainError(
            f"signal of {len(x)} samples is shorter than the "
            f"{cfg.window_length}-sample analysis window"
        )
    frames, n_frames = _frame(x, cfg)
    window = cfg.window()
    spec = np.empty((n_frames, cfg.n_bins), dtype=np.complex128)
    for lo in range(0, n_frames, STFT_BLOCK_FRAMES):
        block = frames[lo:lo + STFT_BLOCK_FRAMES]
        spec[lo:lo + STFT_BLOCK_FRAMES] = np.fft.rfft(block * window, axis=1)
    return spec.T


def istft(spec, cfg, length):
    """Least-squares inverse of :func:`stft_complex`.

    Overlap-adds windowed inverse FFTs and normalizes by the summed
    squared window, which inverts a consistent STFT exactly away from
    the signal edges.
    """
    n = cfg.window_length
    hop = cfg.hop_samples
    w = cfg.window()
    n_frames = spec.shape[1]
    frames = np.fft.irfft(spec.T, n=n, axis=1)
    total = n // 2 + length + n
    num = np.zeros(total)
    den = np.zeros(total)
    wsq = w * w
    for t in range(n_frames):
        lo = t * hop
        num[lo:lo + n] += frames[t] * w
        den[lo:lo + n] += wsq
    out = num / np.maximum(den, 1e-30)
    return out[n // 2:n // 2 + length]


def stft_magnitude(clip, cfg):
    """Magnitude spectrogram plus the phase grid of the input.

    Returns ``(grid, phase)`` where the grid holds the (non-squared)
    STFT modulus on a linear frequency axis and ``phase`` the matching
    phase angles, retained for Griffin-Lim initialization.  ``cfg``
    must be made for the clip's sample rate.
    """
    if clip.sample_rate_hz != cfg.sample_rate_hz:
        raise DomainError(
            f"clip sampled at {clip.sample_rate_hz} Hz, STFT configured "
            f"for {cfg.sample_rate_hz} Hz"
        )
    spec = stft_complex(clip.samples, cfg)
    grid = SpectrogramGrid(np.abs(spec), cfg)
    return grid, np.angle(spec)


def griffin_lim(target_magnitude, initial_phase, iterations, length=None):
    """Phase retrieval by alternating magnitude imposition and
    STFT-consistency projection.

    Each iteration imposes the target magnitude on the current complex
    spectrogram, inverts it, and re-analyzes the resulting signal.  The
    spectrogram mismatch is non-increasing across iterations, and a
    consistent magnitude/phase pair is a fixed point.  The STFT is the
    grid's ``axis``, which must be a :class:`StftConfig`.
    """
    cfg = checked_axis(target_magnitude, StftConfig)
    mag = target_magnitude.values
    if mag.shape != initial_phase.shape:
        raise DomainError("magnitude and phase grids differ in shape")
    if iterations < 1:
        raise DomainError("iterations must be >= 1")
    if length is None:
        length = 1 + (mag.shape[1] - 1) * cfg.hop_samples
    phase = initial_phase
    x = None
    for iteration in range(iterations):
        x = istft(mag * np.exp(1j * phase), cfg, length)
        if iteration + 1 < iterations:
            phase = np.angle(stft_complex(x, cfg))
    return AudioClip(np.clip(x, -1.0, 1.0), cfg.sample_rate_hz)


def save_pgm(grid, path):
    """Export a spectrogram as a binary PGM image.

    Amplitudes are log-compressed over ``PGM_DYNAMIC_RANGE_DB`` below
    the grid maximum; louder values map to darker pixels.
    """
    v = np.asarray(grid.values, dtype=np.float64)
    peak = v.max()
    if peak <= 0:
        db = np.full_like(v, -PGM_DYNAMIC_RANGE_DB)
    else:
        db = 20.0 * np.log10(np.maximum(v / peak, 1e-300))
        db = np.clip(db, -PGM_DYNAMIC_RANGE_DB, 0.0)
    gray = np.round(-db / PGM_DYNAMIC_RANGE_DB * 255.0).astype(np.uint8)
    gray = gray[::-1]  # low frequencies at the bottom
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (gray.shape[1], gray.shape[0]))
        fh.write(gray.tobytes())
