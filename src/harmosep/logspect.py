"""Sparsity-based log-frequency spectrogram.

Each frame of the linear-frequency STFT magnitude spectrogram is
decomposed into Gaussian peaks by the pursuit algorithm, and the peaks
are re-rendered on a logarithmic frequency axis alpha(f) = alpha0 *
log2(f / f0), a :class:`~harmosep.stft.LogAxis`.  With the default
constants (f0 = 5.12 bins, alpha0 = 102.4, 1024 bins) the axis spans 10
octaves; at 48 kHz that is 20 Hz .. 20.48 kHz.  Because a pitch change
moves every partial by the same alpha offset, instrument sounds become
shift-invariant patterns.  ``U`` and the cache carry the axis and the
STFT of ``Z``, so training and separation read both from ``U``.
"""

import struct

import numpy as np

from .errors import ConfigError, FormatError
from .kernels import (CUTOFF_SIGMAS, gaussian_accumulate, gaussian_adjoint,
                      gaussian_curvature, gaussian_forward)
# Unused here, but kept bound: perfbench/tracer.py times each kernel
# under the name of the module that calls it.
from .kernels import gaussian_backprop  # noqa: F401
from .optim import BoxSpec
from .pursuit import PursuitConfig, pursue
from .stft import LogAxis, SpectrogramGrid, StftConfig, checked_axis

#: Bounds of the width parameter of both pattern families, as multiples
#: of the analysis window's own Fourier width sigma_nil.
WIDTH_RANGE = (0.25, 4.0)


class GaussianPeakFamily:
    """Single-pattern family of Gaussian peaks with free width.

    theta = (sigma,) in cycles/sample; the peak's standard deviation on
    the bin axis is sigma * window_length.  theta_nil matches the
    analysis window's own Fourier width, and the box allows widths
    between a quarter of and four times that value.
    """

    n_patterns = 1
    n_params = 1

    def __init__(self, sigma_nil, bin_scale):
        self.sigma_nil = float(sigma_nil)
        self.bin_scale = float(bin_scale)
        self.theta_nil = np.array([self.sigma_nil])
        self.theta_box = BoxSpec(
            np.array([WIDTH_RANGE[0] * self.sigma_nil]),
            np.array([WIDTH_RANGE[1] * self.sigma_nil]),
        )

    def stds(self, thetas):
        """Peak standard deviations in bins for the widths ``thetas``."""
        return thetas[:, 0] * self.bin_scale

    def accumulate(self, out, atoms):
        gaussian_accumulate(out, atoms.mu, atoms.a, self.stds(atoms.theta))
        return out

    def forward(self, length, atoms):
        return gaussian_forward(length, atoms.mu, atoms.a,
                                self.stds(atoms.theta))

    def adjoint(self, weights, cache, atoms):
        ip_g, ip_dc, ip_ds = gaussian_adjoint(weights, cache)
        a = atoms.a
        return ip_g, a * ip_dc, (a * ip_ds * self.bin_scale)[:, None]

    def curvature(self, row_weights, cache, atoms):
        sq_g, sq_dc, sq_ds = gaussian_curvature(row_weights, cache)
        a2 = atoms.a**2
        return sq_g, a2 * sq_dc, (a2 * sq_ds * self.bin_scale**2)[:, None]

    def support_halfwidth(self):
        return CUTOFF_SIGMAS * self.theta_box.upper[0] * self.bin_scale


def gaussian_family(stft_cfg):
    """Pattern family matching the STFT's own peak shape."""
    return GaussianPeakFamily(stft_cfg.sigma_nil, stft_cfg.window_length)


def transform_config(**overrides):
    """Pursuit hyperparameters for the spectrogram transform.

    High sparsity budget, un-lifted loss (q = 1) and peak preselection;
    lam = 1 keeps iterating as long as the loss strictly decreases.
    """
    defaults = dict(q=1.0, lam=1.0, n_pre=1000, n_spr=1000, n_itr=20,
                    selector="peaks", max_evals=300, floor_rel=1e-6)
    defaults.update(overrides)
    return PursuitConfig(**defaults)


def to_log_spectrogram(Z, axis=None, stft_cfg=None, pursuit_cfg=None):
    """Convert a linear-axis magnitude spectrogram to the log axis.

    Runs the Gaussian-peak pursuit independently per frame and renders
    each identified peak as a Gaussian of unchanged amplitude and bin
    width at alpha(mu).  Peaks at non-positive frequencies or outside
    the representable octave range are dropped.  ``stft_cfg`` may only
    restate ``Z.axis``.  Returns ``(U, atoms_per_frame)``, with ``U.axis``
    the ``axis``, ``U.stft`` that of ``Z`` and the pursuit's
    :class:`Atoms` of each frame.
    """
    if axis is None:
        axis = LogAxis()
    if pursuit_cfg is None:
        pursuit_cfg = transform_config()
    family = gaussian_family(checked_axis(Z, StftConfig, stft_cfg))
    m = axis.n_bins
    n_frames = Z.values.shape[1]
    U = np.zeros((m, n_frames))
    atoms_per_frame = []
    for t in range(n_frames):
        atoms = pursue(Z.values[:, t], family, pursuit_cfg).atoms
        atoms_per_frame.append(atoms)
        positive = atoms.mu > 0.0
        alpha = axis.alpha(atoms.mu[positive])
        inside = (alpha >= 0.0) & (alpha < m)
        if np.any(inside):
            gaussian_accumulate(U[:, t], alpha[inside],
                                atoms.a[positive][inside],
                                family.stds(atoms.theta[positive])[inside])
    return SpectrogramGrid(U, Z.stft, axis), atoms_per_frame


_CACHE_MAGIC = b"HSLS"
_CACHE_VERSION = 2
_CACHE_HEADER = struct.Struct("<4sIIIII4d")


def save_log_cache(path, grid):
    """Write a log-spectrogram to the binary cache format.

    Layout: magic "HSLS", version, n_bins, n_frames, sample rate, hop
    (uint32 LE), then f0, alpha0, zeta, window halfwidth as float64,
    then the values as row-major float32.
    """
    axis = checked_axis(grid, LogAxis)
    stft = grid.stft
    header = _CACHE_HEADER.pack(_CACHE_MAGIC, _CACHE_VERSION,
                                grid.values.shape[0], grid.values.shape[1],
                                stft.sample_rate_hz, stft.hop_samples,
                                axis.f0, axis.alpha0, stft.zeta_samples,
                                stft.window_halfwidth)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(grid.values,
                                      dtype=np.float32).tobytes())


def load_log_cache(path):
    """Read a file written by :func:`save_log_cache`; any malformed
    content raises :class:`FormatError`."""
    with open(path, "rb") as fh:
        raw = fh.read(_CACHE_HEADER.size)
        if len(raw) < _CACHE_HEADER.size:
            raise FormatError(f"truncated cache file {path}")
        (magic, version, m, n_frames, rate, hop, f0, alpha0, zeta,
         halfwidth) = _CACHE_HEADER.unpack(raw)
        if magic != _CACHE_MAGIC:
            raise FormatError(f"{path} is not a log-spectrogram cache")
        if version != _CACHE_VERSION:
            raise FormatError(f"unsupported cache version {version} in "
                              f"{path}; transform the audio again")
        payload = fh.read()
    try:
        stft = StftConfig(rate, zeta, hop, halfwidth)
        axis = LogAxis(f0, alpha0, m)
    except ConfigError as exc:
        raise FormatError(f"{exc} in {path}") from None
    if len(payload) != 4 * m * n_frames:
        raise FormatError(f"cache payload size mismatch in {path}")
    data = np.frombuffer(payload, dtype=np.float32)
    if not (np.all(np.isfinite(data)) and np.all(data >= 0.0)):
        raise FormatError(f"cache values must be finite and nonnegative "
                          f"in {path}")
    values = data.reshape(m, n_frames).astype(np.float64)
    return SpectrogramGrid(values, stft, axis)
