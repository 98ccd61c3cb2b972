"""Blind source separation for polyphonic music by sparse pursuit of
shifted continuous patterns over a log-frequency spectrogram.

Importing the package caps the BLAS/OpenMP thread pools at one thread
unless the environment already sets them: the pursuit's vector
operations are too small to split, and a second BLAS thread only slows
L-BFGS-B on a busy machine.  This holds only if NumPy is not yet
imported.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .audio import AudioClip, read_wav, synth_harmonic_tone, write_wav
from .dictlearn import (Dictionary, HarmonicPatternFamily, harmonic_family,
                        init_column, load_dictionary, save_dictionary,
                        train)
from .errors import (ConfigError, DomainError, FormatError, HarmosepError,
                     OptimizationError)
from .logspect import (GaussianPeakFamily, gaussian_family, load_log_cache,
                       save_log_cache, to_log_spectrogram, transform_config)
from .metrics import BssScores, bss_eval, format_report, project
from .optim import AdamState, BoxSpec, adam_step, minimize_box
from .pursuit import (Atoms, PursuitConfig, PursuitResult, loss, pursue,
                      select_peaks, select_xcorr)
from .separate import (SeparationResult, apply_mask,
                       reconstruct_instrument, separate)
from .stft import (LogAxis, SpectrogramGrid, StftConfig, griffin_lim, istft,
                   save_pgm, stft_complex, stft_magnitude)

__version__ = "0.1.0"
