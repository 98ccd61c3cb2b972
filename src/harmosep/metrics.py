"""Blind source separation quality metrics.

Each estimated signal is decomposed by orthogonal projection onto the
reference signals: the component along the matching reference
(s_target), the remaining component inside the span of all references
(e_interf), and the residual outside that span (e_artif).  From these,

    SDR = 10 log10 ||s_target||^2 / ||e_interf + e_artif||^2
    SIR = 10 log10 ||s_target||^2 / ||e_interf||^2
    SAR = 10 log10 ||s_target + e_interf||^2 / ||e_artif||^2

The estimate-to-reference assignment is the permutation that maximizes
the mean SIR.  All ratios are scale-invariant in the estimate.
"""

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import DomainError

# Energies below this fraction of the working scale count as exact
# zeros, yielding +/- infinite ratios instead of noise-dominated ones.
ZERO_ENERGY_REL = 1e-20


@dataclass
class BssScores:
    sdr_db: np.ndarray
    sir_db: np.ndarray
    sar_db: np.ndarray
    permutation: tuple   # permutation[i] = reference index for estimate i


def project(x, basis):
    """Orthogonal projection of ``x`` onto span(basis).

    ``basis`` is a [n, length] array of signals; rank deficiency is
    handled by the least-squares pseudo-solution.
    """
    x = np.asarray(x, dtype=np.float64)
    B = np.atleast_2d(np.asarray(basis, dtype=np.float64))
    if x.size == 0:
        raise DomainError("cannot project a zero-length signal")
    if B.shape[1] != x.shape[0]:
        raise DomainError("basis and signal lengths differ")
    # Least squares on B^T itself: the normal equations B B^T square the
    # condition number and lose components along nearly parallel rows.
    coef, *_ = np.linalg.lstsq(B.T, x, rcond=None)
    return coef @ B


def _db_ratio(num, den, scale):
    floor = ZERO_ENERGY_REL * scale
    if num <= floor:
        return -np.inf
    if den <= floor:
        return np.inf
    return 10.0 * np.log10(num / den)


def _decompose(estimate, proj_all, ref):
    denom = float(ref @ ref)
    if denom == 0.0:
        s_target = np.zeros_like(ref)
    else:
        s_target = (float(estimate @ ref) / denom) * ref
    e_interf = proj_all - s_target
    e_artif = estimate - proj_all
    scale = float(estimate @ estimate) + float(s_target @ s_target)
    p_target = float(s_target @ s_target)
    noise = e_interf + e_artif
    sdr = _db_ratio(p_target, float(noise @ noise), scale)
    sir = _db_ratio(p_target, float(e_interf @ e_interf), scale)
    ti = s_target + e_interf
    sar = _db_ratio(float(ti @ ti), float(e_artif @ e_artif), scale)
    return sdr, sir, sar


def _as_matrix(signals):
    rows = [np.asarray(getattr(s, "samples", s), dtype=np.float64)
            for s in signals]
    length = max(len(r) for r in rows)
    return np.stack([np.pad(r, (0, length - len(r))) for r in rows])


def bss_eval(references, estimates):
    """Evaluate separated signals against the true sources.

    Both arguments are lists of AudioClips of one sample rate (or plain
    vectors) of equal count; estimates are zero-padded or truncated to
    the reference length.  Scores are reported per estimate under the
    best permutation.
    """
    if len(references) == 0 or len(estimates) == 0:
        raise DomainError("there are no signals to evaluate")
    if len({getattr(s, "sample_rate_hz", None)
            for s in [*references, *estimates]} - {None}) > 1:
        raise DomainError("the clips differ in sample rate")
    R = _as_matrix(references)
    E = _as_matrix(estimates)
    if E.shape[0] != R.shape[0]:
        raise DomainError("estimate and reference counts differ")
    if E.shape[1] != R.shape[1]:
        length = R.shape[1]
        E = E[:, :length] if E.shape[1] > length else \
            np.pad(E, ((0, 0), (0, length - E.shape[1])))
    n = R.shape[0]
    if not np.any(R):
        raise DomainError("all reference signals are silent")
    table = np.empty((n, n, 3))
    for i in range(n):
        proj_all = project(E[i], R)
        for j in range(n):
            table[i, j] = _decompose(E[i], proj_all, R[j])
    best = None
    for perm in permutations(range(n)):
        sirs = np.array([table[i, perm[i], 1] for i in range(n)])
        finite = sirs[np.isfinite(sirs)]
        score = finite.mean() if len(finite) else 0.0
        score += np.count_nonzero(sirs == np.inf) * 1e6
        score -= np.count_nonzero(sirs == -np.inf) * 1e6
        if best is None or score > best[0]:
            best = (score, perm)
    perm = best[1]
    picked = np.array([table[i, perm[i]] for i in range(n)])
    return BssScores(picked[:, 0], picked[:, 1], picked[:, 2], perm)


def _fmt(value):
    if value == np.inf:
        return "inf"
    if value == -np.inf:
        return "-inf"
    return f"{value:+.2f}"


def format_report(scores):
    """Line-oriented key-value report of the per-instrument metrics."""
    lines = []
    for i in range(len(scores.sdr_db)):
        lines.append(
            f"instrument={i} reference={scores.permutation[i]} "
            f"sdr_db={_fmt(scores.sdr_db[i])} "
            f"sir_db={_fmt(scores.sir_db[i])} "
            f"sar_db={_fmt(scores.sar_db[i])}"
        )
    return "\n".join(lines)
