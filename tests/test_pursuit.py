import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from harmosep import pursuit
from harmosep.dictlearn import Dictionary, harmonic_family
from harmosep.errors import DomainError, OptimizationError
from harmosep.kernels import sample_gaussian
from harmosep.logspect import (GaussianPeakFamily, gaussian_family,
                               transform_config)
from harmosep.pursuit import (DELTA, Atoms, PursuitConfig, loss, pursue,
                              select_peaks, select_xcorr)
from harmosep.stft import LogAxis, StftConfig


def family(sigma_nil=2.0):
    # bin_scale 1 keeps theta directly in bin units for readability
    return GaussianPeakFamily(sigma_nil=sigma_nil, bin_scale=1.0)


def test_config_validation():
    with pytest.raises(DomainError):
        PursuitConfig(q=0.0)
    with pytest.raises(DomainError):
        PursuitConfig(lam=1.5)
    for bad in (dict(n_pre=0), dict(n_spr=0), dict(n_spr=-1),
                dict(max_evals=0), dict(n_itr=0), dict(floor_rel=-1e-6),
                dict(floor_rel=np.nan), dict(floor_rel=np.inf)):
        with pytest.raises(DomainError):
            PursuitConfig(**bad)
    assert PursuitConfig(n_spr=3).iterations(2) == 12
    assert PursuitConfig(n_itr=7).iterations(2) == 7


def test_loss_of_empty_model_is_lifted_energy():
    # The families' kernels handle zero atoms; loss has no special case.
    cfg = PursuitConfig(q=0.5)
    Y = np.abs(np.random.default_rng(0).normal(size=50))
    expect = np.sum(((Y + DELTA) ** 0.5 - DELTA ** 0.5) ** 2)
    for name, make in sorted(_FAMILIES.items()):
        fam = make()
        empty = Atoms.empty(fam.n_params)
        v, g_a, g_mu, g_th = loss(Y, empty, fam, cfg)
        assert v == pytest.approx(expect)
        assert len(g_a) == 0 and len(g_mu) == 0
        assert g_th.shape == (0, fam.n_params)
        if name == "harmonic":
            *_, g_dict = loss(Y, empty, fam, cfg, with_dict_grad=True)
            assert g_dict.shape == fam.D.shape
            assert not g_dict.any()


def test_loss_gradients_match_finite_differences(rng):
    fam = family()
    cfg = PursuitConfig(q=0.5)
    Y = np.abs(rng.normal(size=120)) * 0.1
    arrays = Atoms([0.8, 1.3], [30.3, 77.9], [0, 0], [[2.4], [1.6]])
    _, g_a, g_mu, g_th = loss(Y, arrays, fam, cfg)
    h = 1e-6
    for j in range(2):
        for vec, g in ((arrays.a, g_a[j]), (arrays.mu, g_mu[j]),
                       (arrays.theta[:, 0], g_th[j, 0])):
            vec[j] += h
            fp = loss(Y, arrays, fam, cfg)[0]
            vec[j] -= 2 * h
            fm = loss(Y, arrays, fam, cfg)[0]
            vec[j] += h
            num = (fp - fm) / (2 * h)
            assert abs(num - g) <= 1e-5 * max(abs(num), 1e-3)


@pytest.mark.parametrize("q", [0.5, 1.0])
@pytest.mark.parametrize("kind", ["peak", "harmonic"])
def test_select_xcorr_locates_shifted_pattern(kind, q):
    # The frame is the family's own model of one atom at theta_nil, so
    # the correlation peaks at the atom and recovers its amplitude.
    fam = _FAMILIES[kind]()
    eta = fam.n_patterns - 1
    Y = fam.accumulate(np.zeros(260), Atoms([2.0], [41.0], [eta],
                                            fam.theta_nil[None, :]))
    cfg = PursuitConfig(q=q)
    a, mu, etas, theta = select_xcorr(Y ** q, fam, cfg, 1)
    assert len(a) == 1
    assert mu[0] == 41.0 and etas[0] == eta
    assert a[0] == pytest.approx(2.0, rel=1e-12)
    assert np.array_equal(theta[0], fam.theta_nil)


def test_select_xcorr_skips_negative_residual():
    fam = family()
    cfg = PursuitConfig(q=1.0)
    a, *_ = select_xcorr(-np.ones(50), fam, cfg, 3)
    assert len(a) == 0


def test_select_peaks_dominance_radius():
    fam = family()
    cfg = PursuitConfig(q=1.0)
    r = np.zeros(40)
    r[10] = 1.0
    r[12] = 0.9   # within radius 3 of the larger peak: suppressed
    r[20] = 0.5
    a, mu, _, _ = select_peaks(r, fam, cfg, 10)
    assert sorted(mu) == [10.0, 20.0]


def test_select_peaks_plateau_counted_once():
    fam = family()
    cfg = PursuitConfig(q=1.0)
    r = np.zeros(30)
    r[14:17] = 1.0
    a, mu, _, _ = select_peaks(r, fam, cfg, 10)
    assert list(mu) == [14.0]


def test_select_peaks_ranks_by_height():
    fam = family()
    cfg = PursuitConfig(q=1.0)
    r = np.zeros(50)
    heights = {5: 0.2, 15: 0.9, 25: 0.5, 35: 0.7}
    for i, h in heights.items():
        r[i] = h
    a, mu, _, _ = select_peaks(r, fam, cfg, 2)
    assert sorted(mu) == [15.0, 35.0]


def test_selector_floor_drops_noise():
    fam = family()
    cfg = PursuitConfig(q=1.0)
    r = np.zeros(50)
    r[10] = 1.0
    r[30] = 1e-9
    a, mu, _, _ = select_peaks(r, fam, cfg, 10, floor=1e-6)
    assert list(mu) == [10.0]


def test_pursue_recovers_two_atoms_exactly():
    fam = family()
    Y = sample_gaussian(np.array([60.25, 130.6]), np.array([1.0, 0.55]),
                        np.array([2.3, 1.7]), 200)
    cfg = PursuitConfig(q=1.0, lam=1.0, n_pre=1, n_spr=2, n_itr=10,
                        selector="xcorr", max_evals=500)
    res = pursue(Y, fam, cfg)
    assert len(res.atoms) == 2
    order = np.argsort(res.atoms.mu)
    mu, a = res.atoms.mu[order], res.atoms.a[order]
    assert mu[0] == pytest.approx(60.25, abs=1e-4)
    assert a[0] == pytest.approx(1.0, abs=1e-4)
    assert mu[1] == pytest.approx(130.6, abs=1e-4)
    assert a[1] == pytest.approx(0.55, abs=1e-4)
    assert res.loss < 1e-8
    assert res.atoms.a.sum() == pytest.approx(1.55, abs=1e-3)


def test_pursue_respects_sparsity_budget():
    fam = family()
    centers = np.array([20.0, 60.0, 100.0, 140.0, 180.0])
    Y = sample_gaussian(centers, np.ones(5), np.full(5, 2.0), 220)
    cfg = PursuitConfig(q=1.0, lam=1.0, n_pre=5, n_spr=3, n_itr=6,
                        selector="peaks")
    res = pursue(Y, fam, cfg)
    assert len(res.atoms) <= 3


def test_pursue_zero_input_yields_no_atoms():
    fam = family()
    res = pursue(np.zeros(100), fam, PursuitConfig())
    assert len(res.atoms) == 0
    assert res.atoms.a.sum() == 0.0


def test_pursue_rejects_negative_input():
    with pytest.raises(DomainError):
        pursue(np.array([1.0, -0.5]), family(), PursuitConfig())


def test_pursue_rejects_empty_input():
    with pytest.raises(DomainError):
        pursue(np.zeros(0), family(), PursuitConfig())


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pursue_rejects_non_finite_input(bad):
    Y = np.zeros(50)
    Y[20] = bad
    with pytest.raises(DomainError):
        pursue(Y, family(), PursuitConfig())


def test_pursue_termination_restores_previous_atoms():
    # one clean bump: after the first iteration the loss is ~0; the
    # second iteration cannot improve by the factor lam and must leave
    # the single-atom solution intact
    fam = family()
    Y = sample_gaussian(np.array([50.0]), np.array([1.0]),
                        np.array([2.0]), 100)
    cfg = PursuitConfig(q=1.0, lam=0.9, n_pre=1, n_spr=4, n_itr=10,
                        selector="xcorr")
    res = pursue(Y, fam, cfg)
    assert len(res.atoms) == 1


@pytest.fixture
def counted(monkeypatch):
    """Counts calls of ``pursuit.loss`` and of the objectives that the
    refines pass to ``pursuit.minimize_box``."""
    calls = {"loss": 0, "objective": 0}
    real_loss, real_minimize = pursuit.loss, pursuit.minimize_box

    def counted_loss(*args, **kwargs):
        calls["loss"] += 1
        return real_loss(*args, **kwargs)

    def counted_minimize(objective, *args, **kwargs):
        def counted_objective(x):
            calls["objective"] += 1
            return objective(x)
        return real_minimize(counted_objective, *args, **kwargs)

    monkeypatch.setattr(pursuit, "loss", counted_loss)
    monkeypatch.setattr(pursuit, "minimize_box", counted_minimize)
    return calls


def test_pursue_evaluates_the_loss_only_inside_its_refines(counted):
    # No atom is dropped after a refine, so the loss that pursue returns
    # is the one its last accepted refine computed.
    Y = sample_gaussian(np.array([60.25, 130.6]), np.array([1.0, 0.55]),
                        np.array([2.3, 1.7]), 200)
    cfg = PursuitConfig(q=1.0, lam=1.0, n_pre=1, n_spr=2, n_itr=3,
                        selector="xcorr", max_evals=60)
    res = pursue(Y, family(), cfg)
    assert len(res.atoms) == 2
    assert counted["objective"] > 0
    assert counted["loss"] == counted["objective"]


def test_pursue_raises_on_a_non_finite_loss_after_a_drop(counted,
                                                          nan_on_call):
    # A one-sample spike just above the amplitude floor is picked, but no
    # peak of the family is narrower than half a bin: the refine fits it
    # with an amplitude of about 0.965 of its height, below the floor.
    # Pursue drops it and evaluates the loss once more, in its last
    # forward.
    Y = sample_gaussian(np.array([50.0]), np.array([1.0]),
                        np.array([2.0]), 100)
    Y[80] = 0.102
    cfg = PursuitConfig(q=1.0, lam=1.0, n_pre=4, n_spr=8, n_itr=1,
                        selector="peaks", max_evals=40, floor_rel=0.1)
    clean = nan_on_call(family(), None)
    res = pursue(Y, clean, cfg)
    assert len(res.atoms) == 1 and res.atoms.mu[0] == pytest.approx(50.0)
    assert counted["loss"] == counted["objective"] + 1 == res.evals
    assert np.isfinite(res.loss)
    with pytest.raises(OptimizationError):
        pursue(Y, nan_on_call(family(), clean.calls), cfg)


def _harmonic_family():
    D = np.array([[1.0, 0.6], [0.5, 1.0], [0.2, 0.3]])
    return harmonic_family(Dictionary(D), LogAxis(), StftConfig())


_FAMILIES = {"peak": family, "harmonic": _harmonic_family}


def _theta_in_box(draw, fam, n):
    lower, upper = fam.theta_box.lower, fam.theta_box.upper
    unit = draw(st.lists(st.floats(0.0, 1.0), min_size=fam.n_params * n,
                         max_size=fam.n_params * n))
    return lower + (upper - lower) * np.reshape(unit, (n, fam.n_params))


@st.composite
def _family_atoms(draw, length=300):
    """A family and atoms of it on the grid, straddling an edge, or off
    the grid."""
    fam = _FAMILIES[draw(st.sampled_from(sorted(_FAMILIES)))]()
    n = draw(st.integers(0, 4))
    hw = fam.support_halfwidth()
    end = length - 1.0
    shift = st.one_of(st.floats(0.0, end),
                      st.floats(-hw, hw), st.floats(end - hw, end + hw),
                      st.floats(-1e6, -hw), st.floats(end + hw, 1e6))
    atoms = Atoms(draw(st.lists(st.floats(0.0, 2.0), min_size=n,
                                max_size=n)),
                  draw(st.lists(shift, min_size=n, max_size=n)),
                  draw(st.lists(st.integers(0, fam.n_patterns - 1),
                                min_size=n, max_size=n)),
                  _theta_in_box(draw, fam, n))
    return fam, atoms, length


@settings(max_examples=100, deadline=None)
@given(_family_atoms())
def test_forward_on_its_span_equals_accumulate(problem):
    # The selector's residual comes from accumulate, the loss from
    # forward: both must see the same model, to the last bit.
    fam, atoms, length = problem
    values, lo, _ = fam.forward(length, atoms)
    assert 0 <= lo and lo + len(values) <= length
    placed = np.zeros(length)
    placed[lo:lo + len(values)] = values
    assert np.array_equal(placed, fam.accumulate(np.zeros(length), atoms))


@st.composite
def _pursuit_problems(draw, length=260):
    """A family, a frame of its own atoms plus nonnegative noise, and a
    pursuit configuration."""
    fam = _FAMILIES[draw(st.sampled_from(sorted(_FAMILIES)))]()
    n = draw(st.integers(0, 4))

    def floats(lo, hi):
        return st.lists(st.floats(lo, hi), min_size=n, max_size=n)

    theta = _theta_in_box(draw, fam, n)
    Y = np.zeros(length)
    if n:
        fam.accumulate(Y, Atoms(draw(floats(0.0, 2.0)),
                                draw(floats(0.0, length - 1.0)),
                                draw(st.lists(
                                    st.integers(0, fam.n_patterns - 1),
                                    min_size=n, max_size=n)),
                                theta))
    Y += draw(arrays(np.float64, length, elements=st.floats(0.0, 0.05)))
    cfg = PursuitConfig(q=draw(st.sampled_from([0.5, 1.0])),
                        lam=draw(st.sampled_from([0.9, 1.0])),
                        n_pre=draw(st.integers(1, 3)),
                        n_spr=draw(st.integers(1, 2)),
                        n_itr=draw(st.integers(1, 4)),
                        selector=draw(st.sampled_from(["xcorr", "peaks"])),
                        max_evals=40)
    return fam, Y, cfg


@settings(max_examples=40, deadline=None)
@given(_pursuit_problems())
def test_pursue_invariants(problem):
    fam, Y, cfg = problem
    res = pursue(Y, fam, cfg)
    atoms = res.atoms
    n_pat = fam.n_patterns
    assert np.all(atoms.a >= 0.0)
    assert atoms.theta.shape == (len(atoms), fam.n_params)
    assert np.all((atoms.theta >= fam.theta_box.lower)
                  & (atoms.theta <= fam.theta_box.upper))
    assert np.all(np.bincount(atoms.eta, minlength=n_pat) <= cfg.n_spr)
    assert res.loss <= loss(Y, Atoms.empty(fam.n_params), fam, cfg)[0]
    # The carried loss is the loss of the atoms; the tolerance covers
    # a recovered best iterate that the box clipped.
    assert np.isfinite(res.loss)
    assert res.loss == pytest.approx(loss(Y, atoms, fam, cfg)[0],
                                     rel=1e-12, abs=0)


def _grid_residual(Y, atoms, fam, q):
    """The loss's residual on the whole grid."""
    values, lo, _ = fam.forward(len(Y), atoms)
    model = np.zeros(len(Y))
    model[lo:lo + len(values)] = values
    return (Y + DELTA) ** q - (model + DELTA) ** q


def _curvature_problems():
    # Peaks may overlap: each column of J belongs to one atom.  The
    # harmonic atoms' partials (0, 102.4 and 162.3 bins above mu) have
    # windows that do not overlap.
    peaks = Atoms([1.3, 0.6], [40.2, 45.9], [0, 0], [[2.3], [1.4]])
    combs = Atoms([1.1, 0.7], [30.3, 260.8], [0, 1],
                  [[1.8e-4, 1e-3], [1.4e-4, 4e-3]])
    return [("peak", peaks), ("harmonic", combs)]


@pytest.mark.parametrize("q", [0.5, 1.0])
@pytest.mark.parametrize("kind, atoms", _curvature_problems())
def test_curvature_is_the_jacobians_squared_column_norms(kind, atoms, q):
    fam = _FAMILIES[kind]()
    length = 500
    Y = np.abs(np.random.default_rng(3).normal(size=length)) * 0.1
    values, lo, ctx = fam.forward(length, atoms)
    row_weights = q * (values + DELTA) ** (q - 1.0)
    c_a, c_mu, c_theta = fam.curvature(row_weights, ctx, atoms)
    got = np.concatenate([c_a, c_mu, c_theta.ravel()])
    x = np.concatenate([atoms.a, atoms.mu, atoms.theta.ravel()])
    n, n_par = len(atoms), fam.n_params
    expect = np.empty(len(x))
    for i in range(len(x)):
        h = 1e-6 * max(abs(x[i]), 1e-3)
        columns = []
        for sign in (1.0, -1.0):
            xs = x.copy()
            xs[i] += sign * h
            probe = Atoms(xs[:n], xs[n:2 * n], atoms.eta,
                          xs[2 * n:].reshape(n, n_par))
            columns.append(_grid_residual(Y, probe, fam, q))
        column = (columns[0] - columns[1]) / (2.0 * h)
        expect[i] = column @ column
    assert np.all(got > 0.0)
    assert got == pytest.approx(expect, rel=1e-6)


def _three_peak_frame():
    """Three clean peaks at the desk STFT's scale, two of them close."""
    fam = gaussian_family(StftConfig(hop_samples=2048))
    atoms = Atoms([50.0, 20.0, 8.0], [300.3, 420.7, 433.1], [0, 0, 0],
                  np.tile(fam.theta_nil, (3, 1)))
    return fam, fam.accumulate(np.zeros(StftConfig().n_bins), atoms)


def test_scaled_refine_converges_before_its_cap(monkeypatch):
    # Unscaled, each of three refines ran into the cap of 60 evaluations
    # and the pursuit kept 9 atoms at a loss of 1e-4.
    fam, Y = _three_peak_frame()
    cfg = transform_config(n_itr=3, max_evals=60, n_pre=10, n_spr=10)
    spent, real_refine = [], pursuit._refine

    def recorded_refine(*args):
        value, evals = real_refine(*args)
        spent.append(evals)
        return value, evals

    monkeypatch.setattr(pursuit, "_refine", recorded_refine)
    res = pursue(Y, fam, cfg)
    assert spent[0] < cfg.max_evals
    assert len(res.atoms) == 3
    assert np.sort(res.atoms.mu) == pytest.approx([300.3, 420.7, 433.1],
                                                  abs=1e-5)
    assert res.evals == sum(spent)
    assert res.loss < 1e-9


def _one_atom_frame(fam):
    return fam.accumulate(np.zeros(300), Atoms([1.0], [60.4], [0],
                                               fam.theta_nil[None, :]))


@pytest.mark.parametrize("q", [0.5, 1.0])
@pytest.mark.parametrize("kind", sorted(_FAMILIES))
def test_zero_and_off_grid_atoms_get_finite_scales(kind, q):
    fam = _FAMILIES[kind]()
    Y = _one_atom_frame(fam) + 0.01
    cfg = PursuitConfig(q=q, max_evals=40)
    target = pursuit._Target(Y, cfg)
    theta = np.tile(fam.theta_nil, (3, 1))
    for atoms in (Atoms([0.8, 0.0, 0.5], [61.0, 120.0, -1e4], [0, 0, 0],
                        theta),
                  Atoms([0.0, 0.5], [120.0, -1e4], [0, 0], theta[:2])):
        scale = pursuit._scales(target, atoms, fam, cfg)
        assert scale.shape == (len(atoms) * (2 + fam.n_params),)
        assert np.all(np.isfinite(scale)) and np.all(scale > 0.0)
        start = loss(target, atoms, fam, cfg)[0]
        refined = atoms.copy()
        value, evals = pursuit._refine(target, refined, fam, cfg)
        assert evals > 0
        assert value <= start
        assert value == pytest.approx(loss(target, refined, fam, cfg)[0],
                                      rel=1e-12, abs=0)
        assert np.all(refined.a >= 0.0)
        assert np.all((refined.theta >= fam.theta_box.lower)
                      & (refined.theta <= fam.theta_box.upper))


@pytest.mark.parametrize("q", [0.5, 1.0])
@pytest.mark.parametrize("kind", sorted(_FAMILIES))
def test_nan_in_the_curvature_forward_is_no_valid_iterate(kind, q,
                                                          nan_on_call):
    fam = _FAMILIES[kind]()
    Y = _one_atom_frame(fam)
    cfg = PursuitConfig(q=q, max_evals=40)
    target = pursuit._Target(Y, cfg)
    atoms = Atoms([0.9], [61.0], [0], fam.theta_nil[None, :])
    assert pursuit._scales(target, atoms, nan_on_call(fam, 1), cfg) is None
    refined = atoms.copy()
    assert pursuit._refine(target, refined, nan_on_call(fam, 1),
                           cfg) == (np.inf, 0)
    for name in ("a", "mu", "eta", "theta"):
        assert np.array_equal(getattr(refined, name), getattr(atoms, name))


def test_select_xcorr_samples_each_pattern_once_per_family(nan_on_call):
    fam = _FAMILIES["harmonic"]()
    counted = nan_on_call(fam, None)
    cfg = PursuitConfig(q=0.5)
    residual = np.abs(np.random.default_rng(0).normal(size=400))
    first = select_xcorr(residual, counted, cfg, 2)
    assert counted.calls == fam.n_patterns
    again = select_xcorr(residual, counted, cfg, 2)
    assert counted.calls == fam.n_patterns
    for x, y in zip(first, again):
        assert np.array_equal(x, y)
    select_xcorr(residual, counted, PursuitConfig(q=1.0), 2)
    assert counted.calls == 2 * fam.n_patterns
    # The patterns do not keep their family alive.
    ref = weakref.ref(counted)
    del counted
    gc.collect()
    assert ref() is None


def test_pursue_says_why_it_stopped(nan_on_call):
    fam = family()
    one = sample_gaussian(np.array([50.0]), np.array([1.0]),
                          np.array([2.0]), 100)
    two = sample_gaussian(np.array([30.0, 70.0]), np.array([1.0, 0.6]),
                          np.array([2.0, 2.0]), 100)
    xcorr = dict(q=1.0, n_pre=1, n_spr=4, selector="xcorr")
    peaks, three = _three_peak_frame()
    cases = [
        ("no candidate", three, peaks,
         transform_config(n_itr=3, max_evals=60, n_pre=10, n_spr=10)),
        ("iteration cap", two, fam, PursuitConfig(lam=1.0, n_itr=1,
                                                  **xcorr)),
        ("loss floor", one, fam, PursuitConfig(lam=1.0, n_itr=3, **xcorr)),
        ("plateau", two + 0.01, fam, PursuitConfig(lam=0.5, n_itr=5,
                                                   **xcorr)),
        # The peak selector calls no forward, so the first is the first
        # refine's curvature.
        ("refine failed", one, nan_on_call(fam, 1),
         PursuitConfig(q=1.0, n_itr=3, selector="peaks")),
    ]
    assert sorted(c[0] for c in cases) == sorted(pursuit.STOP_REASONS)
    for stop, Y, fam, cfg in cases:
        res = pursue(Y, fam, cfg)
        assert res.stop == stop
        assert np.isfinite(res.loss)
