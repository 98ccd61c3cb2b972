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
after ``cfg.iterations(n_patterns)``, and says why in its result.

L-BFGS-B refines scaled variables: each variable is divided by
``1 / sqrt((J^T J)_ii)``, the diagonal scaling of Moré (1978), with J
the Jacobian of the residual ``(Y + delta)^q - (delta + model)^q`` at
the refine's start.  The scales cost one forward pass per refine, and
without them most refines ended at their evaluation cap.

Atoms exist in one form only, :class:`Atoms`: parallel arrays of
amplitudes ``a``, shifts ``mu``, pattern indices ``eta`` and parameter
rows ``theta``.  They are values: a refine returns new atoms and
leaves the ones it was given as they were, :func:`pursue` keeps its
last accepted set and returns it in its :class:`PursuitResult`, and
:func:`loss`, the spectrogram transform, dictionary training and
separation all read them as they are.

Pattern families are duck-typed; see :class:`GaussianPeakFamily` in
:mod:`harmosep.logspect` for the reference implementation.  A family is
built on the geometry of its grid (the harmonic family keeps the log
axis as ``axis``).  Required surface, nine members, with ``atoms`` an
:class:`Atoms`::

    n_patterns, n_params : int
    theta_nil            : (n_params,) default parameters
    theta_box            : BoxSpec over the parameters
    forward(length, atoms)       -> (values, lo, ctx)
    adjoint(weights, ctx, atoms) -> (grad_a, grad_mu, grad_theta)
    curvature(row_weights, ctx, atoms) -> (sq_a, sq_mu, sq_theta)
    accumulate(out, atoms)       # adds the model to out
    support_halfwidth()          -> float

``forward`` evaluates the model on its span: ``values`` holds the model
on the samples ``lo <= s < lo + len(values)`` of a grid of ``length``
samples, and the model is zero elsewhere on the grid.  ``adjoint``
takes ``weights`` = dL/dmodel on that same span, with the ``ctx`` of
the forward pass, and returns the gradients of the atoms' parameters.
``curvature`` takes per-sample weights ``w`` on the span and returns,
per parameter, the squared norm of ``w`` times the model's partial
derivative: the diagonal of J^T J for the row weights ``w``.  It is
exact for single peaks; the harmonic family leaves out the cross terms
of partials whose windows overlap.
The loss therefore touches only the span on each evaluation; the
lifted target and the error of the empty model are computed once per
pursuit.  Families backed by a dictionary additionally expose
``dict_backprop(weights, atoms)`` with weights on the whole grid.
Every method must accept zero atoms: they reach the kernels as zero
bumps, which ``kernels._windows`` alone handles.
:func:`select_xcorr` samples each pattern as the family's own
``forward`` of a unit atom at ``theta_nil``, so preselection and
refinement see the same model; it samples them once per family object.
"""

import weakref
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OptimizationError
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
        if self.selector not in _SELECTORS:
            raise DomainError(f"selector must be one of {sorted(_SELECTORS)}")
        for name in ("n_pre", "n_spr", "max_evals", "n_itr"):
            value = getattr(self, name)
            if not (isinstance(value, (int, np.integer)) and value >= 1
                    or name == "n_itr" and value is None):
                raise DomainError(f"{name} must be an integer >= 1")
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

    def __getitem__(self, mask):
        return Atoms(self.a[mask], self.mu[mask], self.eta[mask],
                     self.theta[mask])

    def extended(self, a, mu, eta, theta):
        """These atoms followed by the given ones."""
        return Atoms(np.concatenate([self.a, a]),
                     np.concatenate([self.mu, mu]),
                     np.concatenate([self.eta, eta]),
                     np.concatenate([self.theta, theta]))


#: Why :func:`pursue` stopped, as ``PursuitResult.stop`` names it.
STOP_REASONS = ("plateau", "loss floor", "no candidate", "iteration cap",
                "refine failed")


@dataclass
class PursuitResult:
    atoms: Atoms
    loss: float     # the loss of ``atoms``, carried from the loop
    evals: int      # loss evaluations spent
    stop: str       # one of STOP_REASONS


class _Target:
    """The per-pursuit invariants for one sample vector: the lifted
    target ``(Y + DELTA)^q``, the lifted error ``e0`` of the empty model
    and its loss, and ``Y^q`` for the selectors' residual."""

    def __init__(self, Y, cfg):
        self.lifted = (Y + DELTA) ** cfg.q
        # Lifted as the loss lifts a model sample that is exactly zero.
        self.e0 = self.lifted - (np.zeros(len(Y)) + DELTA) ** cfg.q
        self.empty_loss = float(self.e0 @ self.e0)
        self.powered = Y ** cfg.q


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
    model, lo, ctx = family.forward(len(err), atoms)
    hi = lo + len(model)
    shifted = model + DELTA
    np.subtract(Y.lifted[lo:hi], shifted ** q, out=err[lo:hi])
    # dL/dmodel on the span
    weights = -2.0 * q * err[lo:hi] * shifted ** (q - 1.0)
    g_a, g_mu, g_theta = family.adjoint(weights, ctx, atoms)
    value = float(err @ err)
    if with_dict_grad:
        grid_weights = np.zeros(len(err))
        grid_weights[lo:lo + len(weights)] = weights
        g_dict = family.dict_backprop(grid_weights, atoms)
        return value, g_a, g_mu, g_theta, g_dict
    return value, g_a, g_mu, g_theta


def lifted_residual(target, atoms, family, cfg):
    model = family.accumulate(np.zeros_like(target.powered), atoms)
    return target.powered - model ** cfg.q


def _sampled_pattern(family, eta):
    """Pattern ``eta`` at ``theta_nil`` on the integer offsets of its
    span: the family's ``forward`` of a unit atom at the centre of a
    grid wide enough for its whole support."""
    c = int(np.ceil(family.support_halfwidth()))
    atom = Atoms([1.0], [c], [eta], family.theta_nil[None, :])
    values, lo, _ = family.forward(2 * c + 1, atom)
    return np.arange(lo, lo + len(values)) - c, values


# The lifted patterns of :func:`_lifted_patterns`, per family object and
# q.  Weak keys let a family and its patterns go together: ``train``
# builds a family on every step.
_PATTERNS = weakref.WeakKeyDictionary()


def _lifted_patterns(family, q):
    """Per pattern index, the offsets of its sampled span, the lifted
    samples and their norm.  They are sampled once per family object,
    whose patterns must not change while it lives."""
    per_q = _PATTERNS.setdefault(family, {})
    if q not in per_q:
        patterns = []
        for eta in range(family.n_patterns):
            offsets, values = _sampled_pattern(family, eta)
            yq = values ** q
            patterns.append((offsets, yq, np.linalg.norm(yq)))
        per_q[q] = patterns
    return per_q[q]


def select_xcorr(residual, family, cfg, n_pick, floor=0.0):
    """Pick the shift/pattern pairs with the largest cross-correlation
    between the lifted residual and the lifted sampled patterns.

    Amplitudes are initialized from the correlation value; candidates
    whose amplitude would be non-positive are skipped.
    """
    m = len(residual)
    best = []
    for eta, (offsets, yq, norm) in enumerate(
            _lifted_patterns(family, cfg.q)):
        if norm == 0.0:
            continue
        # rho[mu] = sum_i r[i] yq[i - mu] / ||yq||; correlate() slides
        # yq across r, and its entry k is the shift k - offsets[-1].  The
        # span ends at or past the shift (no partial lies below the
        # fundamental), so offsets[-1] >= 0.  A span that starts past
        # the shift (a comb without its fundamental) makes rho shorter
        # than m: the shifts it lacks put the whole pattern past the
        # grid, where rho would be zero.
        corr = np.correlate(residual, yq, mode="full")
        rho = corr[offsets[-1]:offsets[-1] + m] / norm
        for mu in np.argsort(rho)[::-1][:n_pick]:
            amp_base = rho[mu] / norm
            if amp_base <= floor:
                continue
            best.append((rho[mu], float(mu), eta,
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
    padded = np.full(m + 2 * PEAK_RADIUS, -np.inf)
    padded[PEAK_RADIUS:PEAK_RADIUS + m] = r
    ok = r > max(floor, 0.0)
    for k in range(1, PEAK_RADIUS + 1):
        ok &= ((r >= padded[PEAK_RADIUS + k:PEAK_RADIUS + k + m])
               & (r > padded[PEAK_RADIUS - k:PEAK_RADIUS - k + m]))
    idx = np.nonzero(ok)[0]
    if len(idx) > n_pick:
        idx = idx[np.argsort(r[idx])[::-1][:n_pick]]
    a = r[idx].astype(np.float64)
    mu = idx.astype(np.float64)
    eta = np.zeros(len(idx), dtype=np.int64)
    theta = np.tile(family.theta_nil, (len(idx), 1))
    return a, mu, eta, theta


_SELECTORS = {"xcorr": select_xcorr, "peaks": select_peaks}


# A curvature entry below this fraction of the largest of its kind (an
# atom of zero amplitude, or one off the grid) takes that largest value.
_CURVATURE_FLOOR = 1e-12


def _scales(target, atoms, family, cfg):
    """Per refine variable, ``1 / sqrt(diag(J^T J))`` at ``atoms``, with
    J the Jacobian of the loss's residual, laid out as :func:`_refine`'s
    ``x``.  Raises :class:`OptimizationError`, with no valid iterate, if
    the model or its curvature is not finite."""
    model, _, ctx = family.forward(len(target.lifted), atoms)
    row_weights = cfg.q * (model + DELTA) ** (cfg.q - 1.0)
    c_a, c_mu, c_theta = family.curvature(row_weights, ctx, atoms)
    # One row per kind: amplitudes, shifts, then each parameter.
    kinds = np.vstack([c_a, c_mu, c_theta.T])
    # At q = 1 the row weights are 1 whatever the model, so a NaN model
    # shows only in the model itself.
    if not (np.isfinite(model).all() and np.isfinite(kinds).all()):
        raise OptimizationError("the refine's start has no finite scales")
    top = kinds.max(axis=1, keepdims=True)
    kinds = np.where(kinds < _CURVATURE_FLOOR * top, top, kinds)
    # A kind with no curvature at all keeps its natural units.
    kinds[top[:, 0] == 0.0] = 1.0
    return 1.0 / np.sqrt(np.concatenate([kinds[0], kinds[1],
                                         kinds[2:].T.ravel()]))


def _refine(target, atoms, family, cfg):
    """Jointly refine (a, mu, theta) of all atoms with L-BFGS-B; the
    pursuit calls it with at least one atom.

    L-BFGS-B works on ``x / s``, with ``s`` the scales that
    :func:`_scales` takes at the clipped start (Moré's diagonal
    scaling), so that its relative-decrease test can end the refine
    before ``cfg.max_evals``.  Returns ``(atoms, loss, evals)``: new
    refined atoms inside the box, their loss and the number of loss
    evaluations spent; the given atoms are left as they are.  If the
    loss turns NaN, the refined atoms are the best valid iterate; if
    there is none, the start's scales included, they are the given
    atoms themselves and the loss is ``inf``, which ends the pursuit.
    """
    n = len(atoms)
    n_par = family.n_params
    box = BoxSpec(
        np.concatenate([np.zeros(n), np.full(n, -np.inf),
                        np.tile(family.theta_box.lower, n)]),
        np.concatenate([np.full(2 * n, np.inf),
                        np.tile(family.theta_box.upper, n)]))
    x0 = box.clip(np.concatenate([atoms.a, atoms.mu, atoms.theta.ravel()]))

    def at(x):
        return Atoms(x[:n], x[n:2 * n], atoms.eta, x[2 * n:].reshape(n, n_par))

    # The atoms every evaluation writes its point into: one per refine,
    # as a new Atoms per evaluation costs measurable time.
    trial = at(x0)
    # One gradient buffer for every evaluation; minimize_box reads it
    # before the next evaluation overwrites it.
    grad = np.empty(len(x0))
    grad_theta = grad[2 * n:].reshape(n, n_par)
    evals = 0

    def objective(y):
        nonlocal evals
        evals += 1
        x = y * scale
        trial.a = x[:n]
        trial.mu = x[n:2 * n]
        trial.theta = x[2 * n:].reshape(n, n_par)
        v, g_a, g_mu, g_theta = loss(target, trial, family, cfg)
        grad[:n] = g_a
        grad[n:2 * n] = g_mu
        grad_theta[...] = g_theta
        np.multiply(grad, scale, out=grad)
        return v, grad

    try:
        scale = _scales(target, trial, family, cfg)
        y, f = minimize_box(objective, x0 / scale,
                            BoxSpec(box.lower / scale, box.upper / scale),
                            max_evals=cfg.max_evals)
    except OptimizationError as err:
        y, f = err.best_x, err.best_f
    if y is None:
        return atoms, np.inf, evals
    x = box.clip(y * scale)
    refined = at(x)
    if not np.array_equal(x, y * scale):
        # y * scale rounded past a bound of the box; the atoms the box
        # clipped back carry their own loss.
        f = loss(target, refined, family, cfg)[0]
        evals += 1
    return refined, f, evals


def _strongest(atoms, n_patterns, n_spr):
    """The mask of the ``n_spr`` atoms of largest amplitude per
    pattern index."""
    keep = np.zeros(len(atoms), dtype=bool)
    for eta in range(n_patterns):
        members = np.nonzero(atoms.eta == eta)[0]
        if len(members) > n_spr:
            members = members[np.argsort(atoms.a[members])[::-1][:n_spr]]
        keep[members] = True
    return keep


def pursue(Y, family, cfg):
    """Run the full pursuit loop on one sample vector.

    Returns a :class:`PursuitResult` with the accepted atoms, their
    loss, the loss evaluations spent and why the loop stopped; a
    non-finite loss raises :class:`OptimizationError`.
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
    # The loss of ``atoms`` as their last refine left them, before drops.
    atoms_loss, dropped = target.empty_loss, False
    evals, stop = 0, "iteration cap"
    hw = family.support_halfwidth()
    # Noise floor in lifted amplitude units, relative to the frame peak.
    lifted_peak = float(np.max(target.lifted))
    floor = cfg.floor_rel * lifted_peak
    amp_floor = floor ** (1.0 / cfg.q)
    # Below this the fit is at machine precision and the relative
    # lam-improvement test is dominated by rounding noise.
    loss_floor = len(Y) * (np.finfo(np.float64).eps * lifted_peak) ** 2
    for _ in range(cfg.iterations(family.n_patterns)):
        if atoms_loss <= loss_floor:
            stop = "loss floor"
            break
        residual = lifted_residual(target, atoms, family, cfg)
        cand = selector(residual, family, cfg, cfg.n_pre, floor)
        if len(cand[0]) == 0:
            stop = "no candidate"
            break
        trial, cur_loss, spent = _refine(target, atoms.extended(*cand),
                                         family, cfg)
        evals += spent
        strongest = _strongest(trial, family.n_patterns, cfg.n_spr)
        # An infinite loss is a refine without a valid iterate; the
        # plateau test below then ends the pursuit at ``atoms``.
        if not strongest.all() and np.isfinite(cur_loss):
            trial, cur_loss, spent = _refine(target, trial[strongest],
                                             family, cfg)
            evals += spent
        if cur_loss >= cfg.lam * atoms_loss:
            stop = "plateau" if np.isfinite(cur_loss) else "refine failed"
            break
        # Drop dead atoms and shifts that left the sampled support.
        live = ((trial.a > amp_floor)
                & (trial.mu > -hw) & (trial.mu < len(Y) - 1 + hw))
        atoms, atoms_loss, dropped = trial[live], cur_loss, not live.all()
    if dropped:
        atoms_loss, *_ = loss(target, atoms, family, cfg)
        evals += 1
        if not np.isfinite(atoms_loss):
            raise OptimizationError("the pursued atoms' loss is not finite")
    return PursuitResult(atoms, atoms_loss, evals, stop)
