"""Optimizers used by the pipeline.

``minimize_box``, the pursuit's refinement step, drives SciPy's
compiled L-BFGS-B routine ``setulb`` (the one that
``scipy.optimize.minimize(method="L-BFGS-B")`` calls) in its own
reverse-communication loop: it evaluates the same points as
``minimize`` without that call's Python layers.  ``setulb`` is private
to SciPy, so a property test in ``tests/test_optim.py`` pins the loop
to ``minimize``, bit for bit.

``adam_step`` implements the modified Adam update for dictionary
columns: first moments are tracked per entry but a single second-moment
estimate is shared by each column (the mean of the squared column
gradient), which preserves the relative scaling of the harmonics within
a column; its constants live on :class:`AdamState`.
"""

from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.optimize._lbfgsb import setulb

from .errors import DomainError, OptimizationError


@dataclass
class BoxSpec:
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=np.float64)
        self.upper = np.asarray(self.upper, dtype=np.float64)
        if np.any(self.lower > self.upper):
            raise DomainError("box lower bound exceeds upper bound")

    def clip(self, x):
        return np.clip(x, self.lower, self.upper)


# L-BFGS-B's settings, as ``minimize`` set them from ``ftol=1e-15`` and
# ``gtol=1e-12``: correction pairs kept, the relative reduction of f
# (in units of the machine epsilon) and the projected gradient that
# count as converged, and line-search steps per iteration.
_CORRECTIONS = 10
_FACTR = 1e-15 / np.finfo(float).eps
_PGTOL = 1e-12
_LINE_SEARCH_STEPS = 20
# setulb's task codes: evaluate f and g at x; a new iterate is ready.
_TASK_FG = 3
_TASK_NEW_X = 1
# setulb's bound type per variable, indexed [finite lower, finite upper]:
# 0 free, 1 lower only, 2 both, 3 upper only.
_BOUND_TYPE = np.array([[0, 3], [1, 2]], dtype=np.int32)


def minimize_box(objective, x0, box, max_evals=1000):
    """Box-constrained quasi-Newton minimization.

    ``objective`` maps a parameter vector to ``(value, gradient)``.
    Returns ``(x, f)`` for the best iterate seen, which never exceeds
    ``f(x0)`` and always lies inside the box.  A NaN objective value
    raises :class:`OptimizationError` carrying the last valid iterate.

    This is L-BFGS-B as ``scipy.optimize.minimize(method="L-BFGS-B",
    jac=True, options={"maxfun": max_evals, "maxiter": max_evals,
    "ftol": 1e-15, "gtol": 1e-12})`` runs it, without that call's
    Python layers: the objective is evaluated once at the clipped
    ``x0``, a request for the point evaluated last is answered from
    that evaluation, and the run stops at a new iterate once the
    iterations reach ``max_evals`` or the evaluations exceed it.  Both
    evaluate the same points and return the same ``(x, f)``.
    """
    x = box.clip(np.asarray(x0, dtype=np.float64))
    n = len(x)
    finite_lower = ~np.isinf(box.lower)
    finite_upper = ~np.isinf(box.upper)
    nbd = _BOUND_TYPE[finite_lower.astype(np.intp),
                      finite_upper.astype(np.intp)]
    low = np.where(finite_lower, box.lower, 0.0)
    up = np.where(finite_upper, box.upper, 0.0)
    best_x, best_f = None, np.inf

    def evaluate(point):
        nonlocal best_x, best_f
        # The objective gets its own copy; ``point`` stays as evaluated.
        f, g = objective(point.copy())
        if np.isnan(f) or np.isnan(g).any():
            raise OptimizationError("objective returned NaN",
                                    best_x=best_x, best_f=best_f)
        if f < best_f:
            best_x, best_f = point, f
        return f, np.asarray(g, dtype=np.float64)

    last_x = x.copy()
    last_f, last_g = evaluate(last_x)
    evals, iterations = 1, 0
    f, g = np.array(0.0), np.zeros(n)
    m = _CORRECTIONS
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task = np.zeros(2, dtype=np.int32)
    ln_task = np.zeros(2, dtype=np.int32)
    lsave = np.zeros(4, dtype=np.int32)
    isave = np.zeros(44, dtype=np.int32)
    dsave = np.zeros(29)
    while True:
        setulb(m, x, low, up, nbd, f, g, _FACTR, _PGTOL, wa, iwa, task,
               lsave, isave, dsave, _LINE_SEARCH_STEPS, ln_task)
        if task[0] == _TASK_FG:
            if not (x == last_x).all():
                last_x = x.copy()
                last_f, last_g = evaluate(last_x)
                evals += 1
            # setulb may overwrite g in place; the answer stays intact.
            f, g = last_f, last_g.copy()
        elif task[0] == _TASK_NEW_X:
            iterations += 1
            if iterations >= max_evals or evals > max_evals:
                break
        else:
            break
    return box.clip(best_x), best_f


@dataclass
class AdamState:
    """Moment estimates and per-column step counts for one dictionary."""

    v1: np.ndarray          # [n_har, n_pat] first moments
    v2: np.ndarray          # [n_pat] shared second moments
    tau: np.ndarray         # [n_pat] step counts
    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    epsilon: ClassVar[float] = 1e-8
    kappa: ClassVar[float] = 1e-3

    @classmethod
    def zeros(cls, n_har, n_pat):
        return cls(v1=np.zeros((n_har, n_pat)), v2=np.zeros(n_pat),
                   tau=np.zeros(n_pat, dtype=np.int64))

    def reset_column(self, eta):
        self.v1[:, eta] = 0.0
        self.v2[eta] = 0.0
        self.tau[eta] = 0


def adam_step(D, state, gradient):
    """One modified-Adam update of every dictionary column, in place.

    Per column: the step count is incremented, moments are updated (the
    second moment from the column-mean squared gradient), bias correction
    uses the column's own count, and the column is clamped to [0, 1].
    A non-finite gradient raises before any update.  Returns ``(D, state)``.
    """
    g = np.asarray(gradient, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(g).all(axis=0))
    if len(bad):
        raise DomainError(f"non-finite gradient for column {bad[0]}")
    state.tau += 1
    state.v1[...] = state.beta1 * state.v1 + (1.0 - state.beta1) * g
    # Contiguous columns and int64 powers round as a per-column loop did.
    g2 = np.mean(np.ascontiguousarray(g.T) ** 2, axis=1)
    state.v2[...] = state.beta2 * state.v2 + (1.0 - state.beta2) * g2
    v1_hat = state.v1 / (1.0 - state.beta1 ** state.tau)
    v2_hat = state.v2 / (1.0 - state.beta2 ** state.tau)
    D -= state.kappa * v1_hat / np.sqrt(v2_hat + state.epsilon)
    np.clip(D, 0.0, 1.0, out=D)
    return D, state
