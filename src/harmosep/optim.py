"""Optimizers used by the pipeline.

``minimize_box`` is a thin, defensive wrapper around L-BFGS-B for the
pursuit refinement step.  ``adam_step`` implements the modified Adam
update for dictionary columns: first moments are tracked per entry but
a single second-moment estimate is shared by each column (the mean of
the squared column gradient), which preserves the relative scaling of
the harmonics within a column.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, minimize

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


def minimize_box(objective, x0, box, max_evals=1000):
    """Box-constrained quasi-Newton minimization.

    ``objective`` maps a parameter vector to ``(value, gradient)``.
    Returns ``(x, f)`` for the best iterate seen, which never exceeds
    ``f(x0)`` and always lies inside the box.  A NaN objective value
    raises :class:`OptimizationError` carrying the last valid iterate.
    """
    x0 = box.clip(np.asarray(x0, dtype=np.float64))
    best = {"x": None, "f": np.inf}

    def wrapped(x):
        f, g = objective(x)
        if np.isnan(f) or np.any(np.isnan(g)):
            raise OptimizationError("objective returned NaN",
                                    best_x=best["x"], best_f=best["f"])
        if f < best["f"]:
            best["x"] = x.copy()
            best["f"] = f
        return f, np.asarray(g, dtype=np.float64)

    wrapped(x0)
    res = minimize(wrapped, x0, jac=True, method="L-BFGS-B",
                   bounds=Bounds(box.lower, box.upper),
                   options={"maxfun": max_evals, "maxiter": max_evals,
                            "ftol": 1e-15, "gtol": 1e-12})
    if res.fun < best["f"]:
        best["x"], best["f"] = res.x, res.fun
    return box.clip(best["x"]), best["f"]


@dataclass
class AdamState:
    """Moment estimates and per-column step counts for one dictionary."""

    v1: np.ndarray          # [n_har, n_pat] first moments
    v2: np.ndarray          # [n_pat] shared second moments
    tau: np.ndarray         # [n_pat] step counts
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    kappa: float = 1e-3

    @classmethod
    def zeros(cls, n_har, n_pat, **kwargs):
        return cls(v1=np.zeros((n_har, n_pat)), v2=np.zeros(n_pat),
                   tau=np.zeros(n_pat, dtype=np.int64), **kwargs)

    def reset_column(self, eta):
        self.v1[:, eta] = 0.0
        self.v2[eta] = 0.0
        self.tau[eta] = 0


def adam_step(D, state, gradient, active_columns=None):
    """One modified-Adam update of the dictionary matrix, in place.

    Per active column: the step count is incremented, moments are
    updated (the second moment from the column-mean squared gradient),
    bias correction uses the column's own count, and the column is
    clamped to [0, 1] afterwards.  Returns ``(D, state)``.
    """
    g = np.asarray(gradient, dtype=np.float64)
    if active_columns is None:
        active_columns = range(D.shape[1])
    for eta in active_columns:
        if not np.all(np.isfinite(g[:, eta])):
            raise DomainError(f"non-finite gradient for column {eta}")
        state.tau[eta] += 1
        state.v1[:, eta] = (state.beta1 * state.v1[:, eta]
                            + (1.0 - state.beta1) * g[:, eta])
        state.v2[eta] = (state.beta2 * state.v2[eta]
                         + (1.0 - state.beta2) * np.mean(g[:, eta] ** 2))
        t = state.tau[eta]
        v1_hat = state.v1[:, eta] / (1.0 - state.beta1**t)
        v2_hat = state.v2[eta] / (1.0 - state.beta2**t)
        D[:, eta] -= state.kappa * v1_hat / np.sqrt(v2_hat + state.epsilon)
        np.clip(D[:, eta], 0.0, 1.0, out=D[:, eta])
    return D, state
