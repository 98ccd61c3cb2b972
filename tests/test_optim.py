import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import Bounds, minimize

from harmosep.errors import DomainError, OptimizationError
from harmosep.optim import AdamState, BoxSpec, adam_step, minimize_box


def quadratic(target):
    def objective(x):
        d = x - target
        return float(d @ d), 2.0 * d
    return objective


def test_minimize_box_unconstrained_minimum_inside():
    box = BoxSpec(np.full(3, -10.0), np.full(3, 10.0))
    x, f = minimize_box(quadratic(np.array([1.0, -2.0, 3.0])),
                        np.zeros(3), box)
    assert np.allclose(x, [1, -2, 3], atol=1e-6)
    assert f < 1e-10


def test_minimize_box_respects_bounds():
    box = BoxSpec(np.zeros(2), np.ones(2))
    x, f = minimize_box(quadratic(np.array([2.0, -1.0])),
                        np.array([0.5, 0.5]), box)
    assert np.allclose(x, [1.0, 0.0], atol=1e-8)


def test_minimize_box_never_worse_than_start():
    # a nasty objective: flat except for a narrow well
    def objective(x):
        v = float(np.sum(1.0 - np.exp(-50.0 * (x - 0.3) ** 2)))
        g = 100.0 * (x - 0.3) * np.exp(-50.0 * (x - 0.3) ** 2)
        return v, g
    box = BoxSpec(np.array([-5.0]), np.array([5.0]))
    x0 = np.array([4.0])
    _, f = minimize_box(objective, x0, box)
    assert f <= objective(x0)[0]


def test_minimize_box_nan_raises_with_best_iterate():
    calls = {"n": 0}

    def objective(x):
        calls["n"] += 1
        if calls["n"] > 3:
            return np.nan, np.zeros_like(x)
        d = x - 1.0
        return float(d @ d), 2.0 * d

    box = BoxSpec(np.array([-5.0]), np.array([5.0]))
    with pytest.raises(OptimizationError) as info:
        minimize_box(objective, np.array([0.0]), box)
    assert info.value.best_x is not None
    assert np.isfinite(info.value.best_f)


def scipy_minimize_box(objective, x0, box, max_evals=1000):
    """``minimize_box`` written on ``scipy.optimize.minimize``: the
    reference that its own loop over the compiled L-BFGS-B routine must
    match bit for bit."""
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

    minimize(wrapped, x0, jac=True, method="L-BFGS-B",
             bounds=Bounds(box.lower, box.upper),
             options={"maxfun": max_evals, "maxiter": max_evals,
                      "ftol": 1e-15, "gtol": 1e-12})
    return box.clip(best["x"]), best["f"]


def weighted_quadratic(rng, n):
    w = rng.uniform(0.1, 10.0, size=n)
    c = rng.normal(scale=3.0, size=n)

    def objective(x):
        d = x - c
        return float(w @ (d * d)), 2.0 * w * d
    return objective


def rosenbrock_chain(rng, n):
    c = rng.normal(scale=3.0, size=n)

    def objective(x):
        r = x[1:] - x[:-1] ** 2
        v = 100.0 * (r @ r) + np.sum((1.0 - x[:-1]) ** 2) \
            + 0.01 * np.sum((x - c) ** 2)
        g = 0.02 * (x - c)
        g[1:] += 200.0 * r
        g[:-1] += -400.0 * x[:-1] * r - 2.0 * (1.0 - x[:-1])
        return float(v), g
    return objective


def random_box(rng, n):
    """Free, one-sided, finite and fixed variables, mixed."""
    lower = rng.normal(size=n) - 1.0
    upper = lower + rng.uniform(0.0, 3.0, size=n) * (rng.random(n) < 0.9)
    return BoxSpec(np.where(rng.random(n) < 0.5, -np.inf, lower),
                   np.where(rng.random(n) < 0.5, np.inf, upper))


def refine_box(rng, n):
    """``pursuit._refine``'s layout: amplitudes in [0, inf), free
    shifts, then the atoms' parameter rows in a finite box."""
    n_par = int(rng.integers(1, 3))
    n_atoms = max(1, n // (2 + n_par))
    lower = rng.uniform(0.0, 1.0, size=n_par)
    upper = lower + rng.uniform(0.0, 2.0, size=n_par)
    return BoxSpec(
        np.concatenate([np.zeros(n_atoms), np.full(n_atoms, -np.inf),
                        np.tile(lower, n_atoms)]),
        np.concatenate([np.full(2 * n_atoms, np.inf),
                        np.tile(upper, n_atoms)]))


def run_recorded(minimizer, objective, x0, box, max_evals, nan_at):
    """The points ``minimizer`` evaluated, and how it ended: returned
    ``(x, f)`` or raised with ``(best_x, best_f)``.  The objective
    returns NaN at its ``nan_at``-th evaluation."""
    points = []

    def recorded(x):
        points.append(x.copy())
        if len(points) == nan_at:
            return np.nan, np.zeros_like(x)
        return objective(x)

    try:
        x, f = minimizer(recorded, x0, box, max_evals=max_evals)
    except OptimizationError as err:
        return points, "raised", err.best_x, err.best_f
    return points, "returned", x, f


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300),
       layout=st.sampled_from([random_box, refine_box]),
       make_objective=st.sampled_from([weighted_quadratic,
                                       rosenbrock_chain]),
       max_evals=st.integers(1, 60),
       nan_at=st.none() | st.integers(1, 60))
def test_minimize_box_matches_scipy_minimize_bitwise(seed, n, layout,
                                                     make_objective,
                                                     max_evals, nan_at):
    rng = np.random.default_rng(seed)
    box = layout(rng, n)
    n = len(box.lower)
    objective = make_objective(rng, n)
    x0 = rng.normal(scale=2.0, size=n)
    ours = run_recorded(minimize_box, objective, x0, box, max_evals, nan_at)
    ref = run_recorded(scipy_minimize_box, objective, x0, box, max_evals,
                       nan_at)
    points, ending, x, f = ours
    ref_points, ref_ending, ref_x, ref_f = ref
    assert len(points) == len(ref_points)
    assert all(np.array_equal(p, q) for p, q in zip(points, ref_points))
    assert ending == ref_ending
    assert (x is None and ref_x is None) or np.array_equal(x, ref_x)
    assert f == ref_f


def test_minimize_box_with_every_variable_fixed_evaluates_once():
    box = BoxSpec(np.arange(3.0), np.arange(3.0))
    for minimizer in (minimize_box, scipy_minimize_box):
        points, ending, x, f = run_recorded(
            minimizer, weighted_quadratic(np.random.default_rng(0), 3),
            np.zeros(3), box, 30, None)
        assert len(points) == 1 and ending == "returned"
        assert np.array_equal(x, box.lower)


def test_box_validates_ordering():
    with pytest.raises(DomainError):
        BoxSpec(np.array([1.0]), np.array([0.0]))


def reference_adam(D, g, state_ref, kappa=1e-3, b1=0.9, b2=0.999,
                   eps=1e-8):
    """Textbook Adam for a single scalar parameter."""
    m, v, t = state_ref
    t += 1
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    mh = m / (1 - b1**t)
    vh = v / (1 - b2**t)
    D = np.clip(D - kappa * mh / np.sqrt(vh + eps), 0.0, 1.0)
    return D, (m, v, t)


def test_adam_matches_textbook_for_single_entry_columns(rng):
    # with one harmonic per column the column-mean second moment is the
    # ordinary per-parameter second moment
    n_pat = 3
    D = rng.random((1, n_pat))
    state = AdamState.zeros(1, n_pat)
    refs = [(0.0, 0.0, 0) for _ in range(n_pat)]
    Dref = D.copy()
    for _ in range(50):
        g = rng.normal(size=(1, n_pat))
        adam_step(D, state, g)
        for eta in range(n_pat):
            Dref[0, eta], refs[eta] = reference_adam(Dref[0, eta],
                                                     g[0, eta], refs[eta])
    assert np.allclose(D, Dref, atol=1e-12)


def test_adam_constant_gradient_unit_ratio():
    # constant gradient: the bias-corrected ratio approaches
    # g / sqrt(mean(g^2)), so every entry moves by kappa * that ratio
    D = np.full((4, 1), 0.5)
    state = AdamState.zeros(4, 1)
    g = np.array([[3.0], [-3.0], [3.0], [-3.0]])
    prev = D.copy()
    for i in range(200):
        prev = D.copy()
        adam_step(D, state, g)
    step = prev - D
    expect = state.kappa * g[:, 0] / np.sqrt(np.mean(g[:, 0] ** 2))
    assert np.allclose(step[:, 0], expect, rtol=1e-4)


def test_adam_clamps_to_unit_box():
    D = np.array([[0.999], [0.001]])
    state = AdamState.zeros(2, 1)
    for _ in range(100):
        adam_step(D, state, np.array([[-10.0], [10.0]]))
    assert D[0, 0] == 1.0
    assert D[1, 0] == 0.0


def per_column_adam_step(D, state, g):
    """The per-column loop that ``adam_step`` computes with array
    operations; the reference it must match bit for bit."""
    for eta in range(D.shape[1]):
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


@pytest.mark.parametrize("seed", range(40))
def test_adam_step_equals_per_column_loop(seed):
    rng = np.random.default_rng(seed)
    n_har, n_pat = int(rng.integers(1, 60)), int(rng.integers(1, 9))
    D = rng.random((n_har, n_pat))
    D_ref = D.copy()
    state = AdamState.zeros(n_har, n_pat)
    ref = AdamState.zeros(n_har, n_pat)
    for _ in range(int(rng.integers(1, 80))):
        g = rng.normal(size=(n_har, n_pat)) * 10.0 ** rng.uniform(-6, 3)
        adam_step(D, state, g)
        per_column_adam_step(D_ref, ref, g)
        if rng.random() < 0.1:
            eta = int(rng.integers(n_pat))
            state.reset_column(eta)
            ref.reset_column(eta)
        assert np.array_equal(D, D_ref)
        assert np.array_equal(state.v1, ref.v1)
        assert np.array_equal(state.v2, ref.v2)
        assert np.array_equal(state.tau, ref.tau)


def test_adam_rejects_non_finite_gradient():
    D = np.full((2, 2), 0.5)
    state = AdamState.zeros(2, 2)
    with pytest.raises(DomainError, match="column 1"):
        adam_step(D, state, np.array([[1.0, np.nan], [1.0, 0.0]]))
    # Nothing moved, not even the finite column before the bad one.
    assert np.all(D == 0.5) and np.all(state.tau == 0)
    assert np.all(state.v1 == 0.0) and np.all(state.v2 == 0.0)


def test_reset_column_zeroes_state():
    state = AdamState.zeros(2, 2)
    adam_step(np.full((2, 2), 0.5), state, np.ones((2, 2)))
    state.reset_column(0)
    assert state.tau[0] == 0 and np.all(state.v1[:, 0] == 0)
    assert state.v2[0] == 0 and state.tau[1] == 1
