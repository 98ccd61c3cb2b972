"""Greedy sparse pursuit of shifted continuous patterns.

A sampled nonnegative spectrum is approximated by a sparse linear
combination of continuous, parameterized patterns at real-valued
shifts.  Candidates are preselected on the integer grid (by
cross-correlation with the patterns, or by picking residual peaks),
then all amplitudes, shifts and pattern parameters are refined jointly
against the lifted squared loss

    L = sum_s ((Y[s] + delta)^q - (delta + sum_j a_j y_j(s - mu_j))^q)^2

with q in (0, 1] and the constant delta = :data:`DELTA`.  Per pattern
index, only the ``n_spr`` strongest atoms are kept; the loop stops once
an iteration fails to shrink the loss by the factor ``1 - lam``, or
after ``cfg.iterations(n_patterns)``.

Atoms exist in one form only, :class:`Atoms`: parallel arrays of
amplitudes ``a``, shifts ``mu``, pattern indices ``eta`` and parameter
rows ``theta``.  The pursuit refines them in place, :func:`pursue`
returns them in its :class:`PursuitResult`, and :func:`loss`, the
spectrogram transform, dictionary training and separation all read
them as they are.

Pattern families are duck-typed; see :class:`GaussianPeakFamily` in
:mod:`harmosep.logspect` for the reference implementation.  A family is
built on the geometry of its grid (the harmonic family keeps the log
axis as ``axis``).  Required surface, with ``atoms`` an :class:`Atoms`::

    n_patterns, n_params : int
    theta_nil            : (n_params,) default parameters
    theta_box            : BoxSpec over the parameters
    forward(length, atoms)       -> (values, lo, ctx)
    adjoint(weights, ctx, atoms) -> (grad_a, grad_mu, grad_theta)
    accumulate(out, atoms)       # adds the model to out
    sampled_pattern(eta)         -> (offsets, values) at theta_nil
    support_halfwidth()          -> float

``forward`` evaluates the model on its span: ``values`` holds the model
on the samples ``lo <= s < lo + len(values)`` of a grid of ``length``
samples, and the model is zero elsewhere on the grid.  ``adjoint``
takes ``weights`` = dL/dmodel on that same span, with the ``ctx`` of
the forward pass, and returns the gradients of the atoms' parameters.
The loss therefore touches only the span on each evaluation; the
lifted target and the error of the empty model are computed once per
pursuit.  Families backed by a dictionary additionally expose
``dict_backprop(weights, atoms)`` with weights on the whole grid.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .optim import BoxSpec, minimize_box

DELTA = 1e-10
#: A residual peak must dominate the samples within this radius to be
#: picked by :func:`select_peaks`.
PEAK_RADIUS = 3


@dataclass
class PursuitConfig:
    q: float = 0.5
    lam: float = 0.9
    n_pre: int = 1
    n_spr: int = 1
    n_itr: int = None        # defaults to 2 * n_spr * n_patterns
    selector: str = "xcorr"  # "xcorr" or "peaks"
    max_evals: int = 400
    # Candidates (and refined atoms) whose lifted amplitude falls below
    # this fraction of the frame's lifted maximum are treated as numeric
    # noise.  0 disables the floor.
    floor_rel: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.q <= 1.0:
            raise DomainError("q must lie in (0, 1]")
        if not 0.0 < self.lam <= 1.0:
            raise DomainError("lam must lie in (0, 1]")
        for name in ("n_pre", "n_spr", "max_evals"):
            if not getattr(self, name) >= 1:
                raise DomainError(f"{name} must be >= 1")
        if self.n_itr is not None and not self.n_itr >= 1:
            raise DomainError("n_itr must be None or >= 1")
        if not (np.isfinite(self.floor_rel) and self.floor_rel >= 0.0):
            raise DomainError("floor_rel must be finite and >= 0")

    def iterations(self, n_patterns):
        if self.n_itr is not None:
            return self.n_itr
        return max(1, 2 * self.n_spr * n_patterns)


@dataclass(eq=False)
class Atoms:
    """The atoms of a pursuit as parallel arrays: amplitudes ``a``,
    shifts ``mu``, pattern indices ``eta`` (int64) and parameter rows
    ``theta`` of shape ``(n, n_params)``."""

    a: np.ndarray
    mu: np.ndarray
    eta: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=np.float64)
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.eta = np.asarray(self.eta, dtype=np.int64)
        self.theta = np.asarray(self.theta, dtype=np.float64)

    @classmethod
    def empty(cls, n_params):
        return cls(np.zeros(0), np.zeros(0), np.zeros(0, dtype=np.int64),
                   np.zeros((0, n_params)))

    def __len__(self):
        return len(self.a)

    def copy(self):
        return Atoms(self.a.copy(), self.mu.copy(), self.eta.copy(),
                     self.theta.copy())

    def extend(self, a, mu, eta, theta):
        self.a = np.concatenate([self.a, a])
        self.mu = np.concatenate([self.mu, mu])
        self.eta = np.concatenate([self.eta, eta])
        self.theta = np.concatenate([self.theta, theta])

    def keep(self, mask):
        self.a = self.a[mask]
        self.mu = self.mu[mask]
        self.eta = self.eta[mask]
        self.theta = self.theta[mask]


@dataclass
class PursuitResult:
    atoms: Atoms
    loss: float


def _model(length, atoms, family):
    out = np.zeros(length)
    if len(atoms):
        family.accumulate(out, atoms)
    return out


class _Target:
    """The per-pursuit invariants of the loss for one sample vector:
    the lifted target ``(Y + DELTA)^q`` and the lifted error ``e0`` of
    the empty model."""

    def __init__(self, Y, cfg):
        self.lifted = (Y + DELTA) ** cfg.q
        # Lifted as the loss lifts a model sample that is exactly zero.
        self.e0 = self.lifted - (np.zeros(len(Y)) + DELTA) ** cfg.q


def loss(Y, atoms, family, cfg, with_dict_grad=False):
    """Lifted squared loss and its analytic gradients.

    ``Y`` is the sample vector, or the :class:`_Target` that
    :func:`pursue` builds from it once.  Returns ``(value, grad_a,
    grad_mu, grad_theta)`` and, when requested and supported by the
    family, the gradient with respect to the dictionary entries as a
    trailing element.
    """
    if not isinstance(Y, _Target):
        Y = _Target(np.asarray(Y, dtype=np.float64), cfg)
    q = cfg.q
    # The model is zero off its span, where the error is e0's.
    err = Y.e0.copy()
    if len(atoms):
        model, lo, ctx = family.forward(len(err), atoms)
        hi = lo + len(model)
        shifted = model + DELTA
        np.subtract(Y.lifted[lo:hi], shifted ** q, out=err[lo:hi])
        # dL/dmodel on the span
        weights = -2.0 * q * err[lo:hi] * shifted ** (q - 1.0)
        g_a, g_mu, g_theta = family.adjoint(weights, ctx, atoms)
    else:
        lo, weights = 0, np.zeros(0)
        g_a = np.zeros(0)
        g_mu = np.zeros(0)
        g_theta = np.zeros((0, family.n_params))
    value = float(err @ err)
    if with_dict_grad:
        grid_weights = np.zeros(len(err))
        grid_weights[lo:lo + len(weights)] = weights
        g_dict = family.dict_backprop(grid_weights, atoms)
        return value, g_a, g_mu, g_theta, g_dict
    return value, g_a, g_mu, g_theta


def lifted_residual(Y, atoms, family, cfg):
    model = _model(len(Y), atoms, family)
    return Y ** cfg.q - model ** cfg.q


def select_xcorr(residual, family, cfg, n_pick, floor=0.0):
    """Pick the shift/pattern pairs with the largest cross-correlation
    between the lifted residual and the lifted sampled patterns.

    Amplitudes are initialized from the correlation value; candidates
    whose amplitude would be non-positive are skipped.
    """
    m = len(residual)
    best = []
    for eta in range(family.n_patterns):
        offsets, values = family.sampled_pattern(eta)
        yq = values ** cfg.q
        norm = np.linalg.norm(yq)
        if norm == 0.0:
            continue
        # rho[mu] = sum_i r[i] yq[i - mu] / ||yq||, evaluated for every
        # integer mu on the grid; correlate() slides yq across r.
        corr = np.correlate(residual, yq, mode="full")
        mus_all = np.arange(len(corr)) - (len(yq) - 1) - offsets[0]
        inside = (mus_all >= 0) & (mus_all < m)
        rho = corr[inside] / norm
        mus = mus_all[inside]
        for k in np.argsort(rho)[::-1][:n_pick]:
            amp_base = rho[k] / norm
            if amp_base <= floor:
                continue
            best.append((rho[k], float(mus[k]), eta,
                         amp_base ** (1.0 / cfg.q)))
    best.sort(key=lambda t: -t[0])
    best = best[:n_pick]
    a = np.array([b[3] for b in best])
    mu = np.array([b[1] for b in best])
    eta = np.array([b[2] for b in best], dtype=np.int64)
    theta = np.tile(family.theta_nil, (len(best), 1))
    return a, mu, eta, theta


def select_peaks(residual, family, cfg, n_pick, floor=0.0):
    """Pick the largest strictly positive local maxima of the residual.

    A sample qualifies when it dominates its neighborhood of radius
    :data:`PEAK_RADIUS` (non-strictly to the right, strictly to the
    left, so a flat plateau contributes its lowest index only once).  Peak
    heights seed the amplitudes; the pattern index is always 0.
    """
    r = np.asarray(residual, dtype=np.float64)
    m = len(r)
    ok = r > max(floor, 0.0)
    for k in range(1, PEAK_RADIUS + 1):
        right = np.empty(m)
        right[:m - k] = r[k:]
        right[m - k:] = -np.inf
        left = np.empty(m)
        left[k:] = r[:m - k]
        left[:k] = -np.inf
        ok &= (r >= right) & (r > left)
    idx = np.nonzero(ok)[0]
    if len(idx) > n_pick:
        idx = idx[np.argsort(r[idx])[::-1][:n_pick]]
    a = r[idx].astype(np.float64)
    mu = idx.astype(np.float64)
    eta = np.zeros(len(idx), dtype=np.int64)
    theta = np.tile(family.theta_nil, (len(idx), 1))
    return a, mu, eta, theta


_SELECTORS = {"xcorr": select_xcorr, "peaks": select_peaks}


def _refine(target, atoms, family, cfg):
    """Jointly refine (a, mu, theta) of all atoms with L-BFGS-B; the
    pursuit calls it with at least one atom."""
    n = len(atoms)
    n_par = family.n_params
    x0 = np.concatenate([atoms.a, atoms.mu, atoms.theta.ravel()])
    lower = np.concatenate([np.zeros(n), np.full(n, -np.inf),
                            np.tile(family.theta_box.lower, n)])
    upper = np.concatenate([np.full(n, np.inf), np.full(n, np.inf),
                            np.tile(family.theta_box.upper, n)])

    def objective(x):
        atoms.a = x[:n]
        atoms.mu = x[n:2 * n]
        atoms.theta = x[2 * n:].reshape(n, n_par)
        v, g_a, g_mu, g_theta = loss(target, atoms, family, cfg)
        return v, np.concatenate([g_a, g_mu, g_theta.ravel()])

    x, f = minimize_box(objective, x0, BoxSpec(lower, upper),
                        max_evals=cfg.max_evals)
    atoms.a = x[:n]
    atoms.mu = x[n:2 * n]
    atoms.theta = x[2 * n:].reshape(n, n_par)
    return f


def _sparsify(atoms, n_patterns, n_spr):
    keep = np.zeros(len(atoms), dtype=bool)
    for eta in range(n_patterns):
        members = np.nonzero(atoms.eta == eta)[0]
        if len(members) > n_spr:
            members = members[np.argsort(atoms.a[members])[::-1][:n_spr]]
        keep[members] = True
    atoms.keep(keep)


def pursue(Y, family, cfg):
    """Run the full pursuit loop on one sample vector.

    Returns a :class:`PursuitResult` with the accepted atoms and the
    final loss value.
    """
    Y = np.asarray(Y, dtype=np.float64)
    if len(Y) == 0:
        raise DomainError("pursuit input must not be empty")
    if not np.all(np.isfinite(Y)):
        raise DomainError("pursuit input must be finite")
    if np.any(Y < 0):
        raise DomainError("pursuit input must be nonnegative")
    target = _Target(Y, cfg)
    selector = _SELECTORS[cfg.selector]
    atoms = Atoms.empty(family.n_params)
    prev_loss, *_ = loss(target, atoms, family, cfg)
    hw = family.support_halfwidth()
    # Noise floor in lifted amplitude units, relative to the frame peak.
    lifted_peak = float(np.max(target.lifted))
    floor = cfg.floor_rel * lifted_peak
    amp_floor = floor ** (1.0 / cfg.q) if floor > 0.0 else 0.0
    # Below this the fit is at machine precision and the relative
    # lam-improvement test is dominated by rounding noise.
    loss_floor = len(Y) * (np.finfo(np.float64).eps * lifted_peak) ** 2
    for _ in range(cfg.iterations(family.n_patterns)):
        if prev_loss <= loss_floor:
            break
        residual = lifted_residual(Y, atoms, family, cfg)
        cand = selector(residual, family, cfg, cfg.n_pre, floor)
        if len(cand[0]) == 0:
            break
        snapshot = atoms.copy()
        atoms.extend(*cand)
        cur_loss = _refine(target, atoms, family, cfg)
        n_before = len(atoms)
        _sparsify(atoms, family.n_patterns, cfg.n_spr)
        if len(atoms) != n_before:
            cur_loss = _refine(target, atoms, family, cfg)
        # Drop dead atoms and shifts that left the sampled support.
        atoms.keep((atoms.a > amp_floor)
                   & (atoms.mu > -hw) & (atoms.mu < len(Y) - 1 + hw))
        if cur_loss >= cfg.lam * prev_loss:
            atoms = snapshot
            break
        prev_loss = cur_loss
    final_loss, *_ = loss(target, atoms, family, cfg)
    return PursuitResult(atoms, final_loss)
