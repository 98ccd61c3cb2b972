"""Harmonic instrument model and stochastic dictionary learning.

An instrument is a column of relative harmonic amplitudes D[:, eta] in
[0, 1].  On the log-frequency axis a tone played by instrument eta is
the pattern

    y(alpha) = sum_h D[h, eta] * G(alpha - mu - off_h(b); sigma)

where off_h(b) = alpha0 * log2((1 + b h^2)^(1/2) h) is the pitch-
invariant offset of partial h (b is the string inharmonicity), mu the
log position of the fundamental, and G a Gaussian of the peak width
inherited from the spectrogram transform.

Training alternates sparse pursuit on random time frames with a
modified-Adam update of the dictionary, reinitializing rarely-used
columns at regular intervals.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, FormatError
from .kernels import (CUTOFF_SIGMAS, gaussian_accumulate, gaussian_adjoint,
                      gaussian_backprop, gaussian_curvature,
                      gaussian_forward)
from .logspect import WIDTH_RANGE
from .optim import AdamState, BoxSpec, adam_step
from .pursuit import PursuitConfig, loss, pursue
from .stft import LogAxis, checked_axis, is_count

DEFAULT_N_HAR = 25
DEFAULT_PRUNE_INTERVAL = 500
# Upper bound of the inharmonicity b, for training and separation alike.
DEFAULT_B_MAX = 5e-3


@dataclass
class Dictionary:
    D: np.ndarray

    def __post_init__(self):
        self.D = np.asarray(self.D, dtype=np.float64)
        if self.D.ndim != 2 or self.D.size == 0:
            raise DomainError("dictionary must be a non-empty 2-D matrix")
        if not (np.all(np.isfinite(self.D)) and self.D.min() >= 0.0
                and self.D.max() <= 1.0):
            raise DomainError("dictionary entries must lie in [0, 1]")

    n_har = property(lambda self: self.D.shape[0])
    n_pat = property(lambda self: self.D.shape[1])


class HarmonicPatternFamily:
    """Pattern family of harmonic combs parameterized by a dictionary.

    theta = (sigma, b): peak width (cycles/sample, as in the Gaussian
    family, within the same ``WIDTH_RANGE`` of sigma_nil) and
    inharmonicity in [0, DEFAULT_B_MAX].
    """

    n_params = 2

    def __init__(self, D, axis, sigma_nil, bin_scale):
        # A read-only copy: ``train`` updates its dictionary in place.
        self.D = np.array(D, dtype=np.float64)
        self.D.flags.writeable = False
        self.axis = axis
        self.sigma_nil = float(sigma_nil)
        self.bin_scale = float(bin_scale)
        self.n_har, self.n_patterns = self.D.shape
        self.theta_nil = np.array([self.sigma_nil, 0.0])
        self.theta_box = BoxSpec(
            np.array([WIDTH_RANGE[0] * self.sigma_nil, 0.0]),
            np.array([WIDTH_RANGE[1] * self.sigma_nil, DEFAULT_B_MAX]),
        )
        h = np.arange(1, self.n_har + 1, dtype=np.float64)
        self._log2_h = np.log2(h)
        self._h2 = h**2

    def partial_offsets(self, b, partial=slice(None)):
        """Log-axis offsets of the partials (or of the indices
        ``partial``) from the fundamental; ``b`` broadcasts against them."""
        return self.axis.alpha0 * (
            self._log2_h[partial]
            + 0.5 * np.log2(1.0 + b * self._h2[partial]))

    def _bumps(self, atoms):
        """One Gaussian per live partial, an (atom, partial) pair with
        ``D[h, eta] != 0``, in row-major order; the others add exactly
        nothing, so they get no window.  Returns the centres, amplitudes
        and stds and each bump's ``(atom, partial, weight)``."""
        weights = self.D[:, atoms.eta].T
        atom, partial = owners = np.nonzero(weights)
        weight = weights[owners]
        centers = atoms.mu[atom] + self.partial_offsets(
            atoms.theta[atom, 1], partial)
        stds = atoms.theta[atom, 0] * self.bin_scale
        return centers, atoms.a[atom] * weight, stds, owners + (weight,)

    def accumulate(self, out, atoms):
        centers, amps, stds, _ = self._bumps(atoms)
        return gaussian_accumulate(out, centers, amps, stds)

    def forward(self, length, atoms):
        centers, amps, stds, owners = self._bumps(atoms)
        values, lo, cache = gaussian_forward(length, centers, amps, stds)
        return values, lo, (cache, owners)

    def _chain(self, per_bump, ctx, atoms, power):
        """The chain rule from the live bumps' (value, centre, std) terms
        to the atoms' (a, mu, sigma, b), with every factor (the weight
        ``D[h, eta]``, amplitude, bin scale and d(offset)/db) to the power
        ``power``: 2 for the curvature, which leaves out the cross terms
        of overlapping partials.  Each term is summed by rows of a zero
        ``(n_atoms, n_har)`` grid, in the order of a sum over all."""
        _, (atom, partial, weight) = ctx
        i_g, i_dc, i_ds = per_bump
        b, h2 = atoms.theta[atom, 1], self._h2[partial]
        doff = self.axis.alpha0 * 0.5 * h2 / ((1.0 + b * h2) * np.log(2.0))
        w = weight**power
        w_dc = w * i_dc
        grid = np.zeros((4, len(atoms), self.n_har))
        grid[:, atom, partial] = w * i_g, w_dc, w * i_ds, w_dc * doff**power
        g, dc, ds, db = grid.sum(axis=2)
        a = atoms.a**power
        return g, a * dc, np.stack([a * ds * self.bin_scale**power, a * db],
                                   axis=1)

    def adjoint(self, weights_vec, ctx, atoms):
        return self._chain(gaussian_adjoint(weights_vec, ctx[0]), ctx,
                           atoms, 1)

    def curvature(self, row_weights, ctx, atoms):
        return self._chain(gaussian_curvature(row_weights, ctx[0]), ctx,
                           atoms, 2)

    def dict_backprop(self, weights_vec, atoms):
        """Gradient of the loss with respect to the dictionary entries,
        with the atoms' own parameters held fixed; ``weights_vec`` spans
        the whole grid.  Every partial takes part: a zero entry of ``D``
        still has a gradient."""
        g = np.zeros_like(self.D)
        centers = atoms.mu[:, None] + self.partial_offsets(atoms.theta[:, 1:])
        stds = np.repeat(atoms.theta[:, 0] * self.bin_scale, self.n_har)
        ip_g, _, _ = gaussian_backprop(weights_vec, centers.ravel(), stds)
        np.add.at(g.T, atoms.eta,
                  atoms.a[:, None] * ip_g.reshape(centers.shape))
        return g

    def support_halfwidth(self):
        top = self.partial_offsets(DEFAULT_B_MAX)[-1]
        return top + CUTOFF_SIGMAS * self.theta_box.upper[0] * self.bin_scale


def harmonic_family(dictionary, axis, stft_cfg):
    """Build the harmonic pattern family for a dictionary on the log
    axis ``axis``, with the peak width of the window of ``stft_cfg``."""
    return HarmonicPatternFamily(dictionary.D, axis, stft_cfg.sigma_nil,
                                 stft_cfg.window_length)


def init_column(rng, n_har=DEFAULT_N_HAR):
    """Random dictionary column: uniform entries damped by a random
    power-law decay d[h] / h^e with Pareto-distributed e >= 1."""
    e = 1.0 + rng.pareto(0.5)
    d = rng.random(n_har)
    h = np.arange(1, n_har + 1, dtype=np.float64)
    # exp form underflows to 0 gracefully for extreme tail draws of e
    return d * np.exp(-e * np.log(h))


@dataclass
class TrainState:
    adam: AdamState
    amp_acc: np.ndarray          # cumulative identified amplitude per column
    head_start: int
    n_ins: int


def training_config(n_spr, **overrides):
    """Pursuit hyperparameters for training and separation: lifted loss
    with q = 1/2, cross-correlation preselection of a single candidate
    per iteration."""
    defaults = dict(q=0.5, lam=0.9, n_pre=1, n_spr=n_spr,
                    selector="xcorr", max_evals=200, floor_rel=1e-6)
    defaults.update(overrides)
    return PursuitConfig(**defaults)


def _prune(dictionary, state, rng):
    ratio = state.amp_acc / np.maximum(
        state.adam.tau - state.head_start, 0.5)
    order = np.argsort(-ratio, kind="stable")
    kept = np.sort(order[:state.n_ins])
    for eta in order[state.n_ins:]:
        dictionary.D[:, eta] = init_column(rng, dictionary.n_har)
        state.adam.reset_column(eta)
        state.amp_acc[eta] = 0.0
    return kept


def train(U, n_ins, n_spr, n_trn, seed, *, n_har=DEFAULT_N_HAR,
          prune_interval=DEFAULT_PRUNE_INTERVAL, stft_cfg=None,
          pursuit_overrides=None):
    """Learn a dictionary from a log-frequency spectrogram.

    Patterns live on ``U.axis``, with the peak width of the window of
    ``U.stft``; ``stft_cfg`` may only restate ``U.stft``.
    Runs ``n_trn`` stochastic steps: draw a random frame, identify
    tones by pursuit, accumulate the found amplitudes, and take one
    modified-Adam step on the dictionary.  Every ``prune_interval``
    steps the columns with the lowest amplitude-per-iteration ratio are
    reinitialized, keeping ``n_ins`` columns intact.  Returns the final
    ``(Dictionary, kept_column_indices)``.
    """
    checked_axis(U, LogAxis)
    if stft_cfg is not None and stft_cfg != U.stft:
        raise DomainError(f"{stft_cfg} differs from the spectrogram's STFT")
    if not all(is_count(n) for n in (n_ins, n_trn, n_har, prune_interval)):
        raise ConfigError("n_ins, n_trn, n_har and the prune interval must "
                          "be integers >= 1")
    if not is_count(seed, least=0):
        raise ConfigError(f"the seed must be an integer >= 0, got {seed!r}")
    if n_trn % prune_interval != 0:
        raise ConfigError("n_trn must be a multiple of the prune interval")
    if U.values.shape[1] == 0:
        raise DomainError("empty spectrogram")
    n_pat = 2 * n_ins
    rng = np.random.default_rng(seed)
    dictionary = Dictionary(
        np.stack([init_column(rng, n_har) for _ in range(n_pat)], axis=1))
    state = TrainState(adam=AdamState.zeros(n_har, n_pat),
                       amp_acc=np.zeros(n_pat),
                       head_start=prune_interval // 2,
                       n_ins=n_ins)
    cfg = training_config(n_spr, **(pursuit_overrides or {}))
    n_frames = U.values.shape[1]
    kept = np.arange(n_ins)
    for step in range(n_trn):
        t = int(rng.integers(n_frames))
        family = harmonic_family(dictionary, axis=U.axis, stft_cfg=U.stft)
        result = pursue(U.values[:, t], family, cfg)
        atoms = result.atoms
        if len(atoms):
            state.amp_acc += np.bincount(atoms.eta, atoms.a, minlength=n_pat)
            _, _, _, _, g = loss(U.values[:, t], atoms, family, cfg,
                                 with_dict_grad=True)
            adam_step(dictionary.D, state.adam, g)
        if (step + 1) % prune_interval == 0:
            kept = _prune(dictionary, state, rng)
    return dictionary, kept


_DICT_MAGIC = "harmosep-dict"
_DICT_VERSION = 1


def save_dictionary(path, dictionary, kept):
    """Versioned text format: header lines, then one line of n_har
    decimal floats per column.  Deterministic byte-for-byte for equal
    inputs."""
    lines = [f"{_DICT_MAGIC} {_DICT_VERSION}",
             f"n_har {dictionary.n_har}",
             f"n_pat {dictionary.n_pat}",
             "kept " + " ".join(str(int(k)) for k in kept)]
    for eta in range(dictionary.n_pat):
        lines.append(" ".join(repr(float(v))
                              for v in dictionary.D[:, eta]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _header_value(line, key, path):
    fields = line.split()
    if len(fields) != 2 or fields[0] != key:
        raise FormatError(f"expected '{key} <integer>' in {path}")
    try:
        return int(fields[1])
    except ValueError:
        raise FormatError(f"{key} is not an integer in {path}") from None


def load_dictionary(path):
    """Read a file written by :func:`save_dictionary`; any malformed
    content raises :class:`FormatError`."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except UnicodeDecodeError:
        raise FormatError(f"{path} is not a dictionary file") from None
    if not lines or not lines[0].startswith(_DICT_MAGIC):
        raise FormatError(f"{path} is not a dictionary file")
    if len(lines) < 4:
        raise FormatError(f"truncated dictionary header in {path}")
    version = _header_value(lines[0], _DICT_MAGIC, path)
    if version != _DICT_VERSION:
        raise FormatError(f"unsupported dictionary version {version}")
    n_har = _header_value(lines[1], "n_har", path)
    n_pat = _header_value(lines[2], "n_pat", path)
    if n_har < 1 or n_pat < 1:
        raise FormatError(f"empty dictionary in {path}")
    kept_fields = lines[3].split()
    if kept_fields[0] != "kept":
        raise FormatError(f"expected the kept columns in {path}")
    rows = lines[4:]
    if len(rows) != n_pat:
        raise FormatError(f"expected {n_pat} columns in {path}")
    try:
        kept = [int(v) for v in kept_fields[1:]]
        columns = [[float(v) for v in row.split()] for row in rows]
    except ValueError:
        raise FormatError(f"non-numeric entry in {path}") from None
    if any(not 0 <= k < n_pat for k in kept):
        raise FormatError(f"kept column out of range in {path}")
    if len(set(kept)) != len(kept):
        raise FormatError(f"repeated kept column in {path}")
    if any(len(col) != n_har for col in columns):
        raise FormatError(f"column length mismatch in {path}")
    try:
        return (Dictionary(np.array(columns).T),
                np.array(kept, dtype=np.int64))
    except DomainError as exc:
        raise FormatError(f"{exc} in {path}") from None
