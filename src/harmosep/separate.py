"""Source separation of a mixture with a learned dictionary.

Every frame of the mixture's log-frequency spectrogram is decomposed by
sparse pursuit over the kept dictionary columns.  The identified tones
are re-rendered per instrument on the linear frequency axis, sharpened
by spectral masking against the mixture magnitude, and turned back into
audio by Griffin-Lim with the mixture phase as the starting point.
"""

from dataclasses import dataclass

import numpy as np

from .audio import partial_frequencies
from .dictlearn import Dictionary, harmonic_family, training_config
from .errors import DomainError
from .kernels import gaussian_accumulate
from .pursuit import pursue
from .stft import (LogAxis, SpectrogramGrid, StftConfig, checked_axis,
                   griffin_lim)

MASK_EPSILON = 1e-12


@dataclass
class SeparationResult:
    atoms_per_frame: list        # Atoms per frame; eta indexes the kept set
    inst_spectrograms: list      # linear-axis SpectrogramGrid per instrument
    masked_spectrograms: list    # same shape, after spectral masking
    signals: list                # one AudioClip per instrument


def reconstruct_instrument(atoms_per_frame, eta, family, shape):
    """Render one instrument's identified tones on the linear axis.

    Each atom of pattern ``eta`` contributes one Gaussian per partial,
    centered at ``sqrt(1 + b h^2) h f1`` bins (f1 recovered from the
    shift on ``family.axis``) with the atom's bin-domain width; partials
    beyond the grid end fall off the rasterizer.
    """
    out = np.zeros(shape)
    for t, atoms in enumerate(atoms_per_frame):
        for j in np.flatnonzero(atoms.eta == eta):
            sigma, b = atoms.theta[j]
            # A Python float: 2.0 ** x on it rounds as libm's pow does,
            # which NumPy's vectorised power does not always match.
            f1 = family.axis.frequency(float(atoms.mu[j]))
            centers = partial_frequencies(f1, family.n_har, b)
            amps = atoms.a[j] * family.D[:, eta]
            stds = np.full(family.n_har, sigma * family.bin_scale)
            gaussian_accumulate(out[:, t], centers, amps, stds)
    return out


def apply_mask(inst, total, mixture):
    """Rescale one instrument's model grid by its share of the mixture:
    ``inst / (total + MASK_EPSILON) * mixture`` elementwise."""
    return inst / (total + MASK_EPSILON) * mixture


def separate(U, Z, phase, dictionary, kept, n_spr, *, stft_cfg=None,
             use_mask=True, gl_iters=1, length=None, pursuit_overrides=None):
    """Separate a mixture into per-instrument audio clips.

    ``U`` is the mixture's log-frequency spectrogram, ``Z`` and
    ``phase`` its linear magnitude and phase grids, all made by one STFT
    (``stft_cfg`` may only restate it), ``kept`` the dictionary columns
    to use and ``n_spr`` the per-instrument tone budget per frame.
    Outputs follow the order of ``kept``.
    """
    checked_axis(U, LogAxis)
    stft_cfg = checked_axis(Z, StftConfig, stft_cfg)
    if U.stft != stft_cfg:
        raise DomainError("log and linear spectrograms come from different "
                          "STFTs")
    kept = np.asarray(kept, dtype=np.int64)
    if len(kept) == 0:
        raise DomainError("no dictionary columns to separate with")
    if U.values.shape[1] != Z.values.shape[1]:
        raise DomainError("log and linear spectrograms disagree in frames")
    if Z.values.shape != phase.shape:
        raise DomainError("magnitude and phase grids differ in shape")
    family = harmonic_family(Dictionary(dictionary.D[:, kept]),
                             axis=U.axis, stft_cfg=U.stft)
    cfg = training_config(n_spr, **(pursuit_overrides or {}))
    atoms_per_frame = [pursue(U.values[:, t], family, cfg).atoms
                       for t in range(U.values.shape[1])]
    parts = [reconstruct_instrument(atoms_per_frame, k, family,
                                    Z.values.shape)
             for k in range(len(kept))]
    total = np.zeros_like(Z.values)
    for part in parts:
        total += part
    masked = [apply_mask(part, total, Z.values) for part in parts]

    def grid(values):
        return SpectrogramGrid(values, stft_cfg)

    chosen = masked if use_mask else parts
    signals = [griffin_lim(grid(v), phase, gl_iters, length=length)
               for v in chosen]
    return SeparationResult(atoms_per_frame,
                            [grid(p) for p in parts],
                            [grid(m) for m in masked],
                            signals)
