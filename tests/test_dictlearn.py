import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harmosep.dictlearn import (Dictionary, TrainState, harmonic_family,
                                init_column, load_dictionary,
                                save_dictionary, train, _prune)
from harmosep.errors import ConfigError, DomainError, FormatError
from harmosep.kernels import (gaussian_accumulate, gaussian_adjoint,
                              gaussian_backprop, gaussian_curvature,
                              gaussian_forward)
from harmosep.optim import AdamState
from harmosep.pursuit import Atoms, PursuitConfig, loss, select_xcorr
from harmosep.stft import LogAxis, SpectrogramGrid, StftConfig


def _family(D):
    return harmonic_family(Dictionary(D), LogAxis(), StftConfig())


def test_dictionary_validates_entries():
    with pytest.raises(DomainError):
        Dictionary(np.array([[1.5]]))
    with pytest.raises(DomainError):
        Dictionary(np.zeros(3))
    with pytest.raises(DomainError):
        Dictionary(np.zeros((0, 2)))
    d = Dictionary(np.full((4, 2), 0.5))
    assert d.n_har == 4 and d.n_pat == 2


def test_dictionary_rejects_nan():
    with pytest.raises(DomainError):
        Dictionary([[np.nan, 0.5]])


class _StubRng:
    """Deterministic stand-in exposing the two draws init_column uses."""

    def __init__(self, pareto_value, uniform):
        self._p = pareto_value
        self._u = np.asarray(uniform)

    def pareto(self, shape):
        assert shape == 0.5
        return self._p

    def random(self, n):
        return self._u[:n]


def test_init_column_formula():
    col = init_column(_StubRng(1.0, np.full(5, 0.8)), n_har=5)
    # e = 1 + 1 = 2: entries 0.8 / h^2
    assert np.allclose(col, 0.8 / np.arange(1, 6) ** 2)
    # fundamental is the raw uniform draw regardless of the exponent
    assert col[0] == 0.8


def test_init_column_envelope_decreasing(rng):
    cols = np.stack([init_column(rng) for _ in range(10000)])
    assert cols.max() < 1.0 and cols.min() >= 0.0
    mean = cols.mean(axis=0)
    assert np.all(np.diff(mean) < 0)


def test_init_column_exponent_distribution(rng):
    # e = 1 + Pareto(shape 0.5) has P(e >= 2) = 2^-0.5
    e = 1.0 + rng.pareto(0.5, size=100000)
    assert np.all(e >= 1.0)
    assert np.mean(e >= 2.0) == pytest.approx(2 ** -0.5, abs=0.01)


def test_harmonic_offsets():
    fam = _family(np.full((25, 1), 0.5))
    offs = fam.partial_offsets(0.0)
    assert offs[0] == 0.0
    assert offs[1] == pytest.approx(102.4)
    offs_b = fam.partial_offsets(3.25e-4)
    assert offs_b[9] == pytest.approx(
        102.4 * np.log2(10 * np.sqrt(1.0325)))


def test_harmonic_family_single_partial_pattern():
    D = np.zeros((4, 1))
    D[0, 0] = 1.0
    fam = _family(D)
    out = np.zeros(500)
    fam.accumulate(out, Atoms([2.0], [250.0], [0], fam.theta_nil[None, :]))
    assert np.argmax(out) == 250
    assert out[250] == pytest.approx(2.0, rel=1e-6)


def test_dict_gradient_matches_finite_differences(rng):
    D = rng.random((6, 2))
    fam = _family(D)
    cfg = PursuitConfig(q=0.5)
    Y = np.abs(rng.normal(size=1024)) * 0.1
    arrays = Atoms([0.8, 0.6], [400.3, 550.1], [0, 1],
                   [fam.theta_nil, [fam.sigma_nil, 1e-4]])
    _, _, _, _, gD = loss(Y, arrays, fam, cfg, with_dict_grad=True)
    h = 1e-6
    for hh in range(6):
        for eta in range(2):
            Dp = D.copy(); Dp[hh, eta] += h
            fp = loss(Y, arrays, _family(Dp), cfg)[0]
            Dm = D.copy(); Dm[hh, eta] -= h
            fm = loss(Y, arrays, _family(Dm), cfg)[0]
            num = (fp - fm) / (2 * h)
            assert abs(num - gD[hh, eta]) <= 1e-5 * max(abs(num), 1e-3)


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and \
        x.tobytes() == y.tobytes()


class _GridReference:
    """The harmonic model written over the whole ``(n_atoms, n_har)``
    grid: every partial's offset, its weight ``D[h, eta]`` and
    d(offset)/db, with the zero-weight partials dropped only where the
    bumps go to the kernels and scattered back as zeros."""

    def __init__(self, fam, atoms):
        h = np.arange(1, fam.n_har + 1, dtype=np.float64)
        h2 = h**2
        b = atoms.theta[:, 1][:, None]
        alpha0 = fam.axis.alpha0
        centers = atoms.mu[:, None] + alpha0 * (np.log2(h)
                                                + 0.5 * np.log2(1.0 + b * h2))
        self.weights = fam.D[:, atoms.eta].T
        self.live = self.weights != 0.0
        stds = np.repeat(atoms.theta[:, 0] * fam.bin_scale, fam.n_har)
        self.all_bumps = centers.ravel(), stds
        self.bumps = (centers[self.live],
                      (atoms.a[:, None] * self.weights)[self.live],
                      stds[self.live.ravel()])
        self.doff = alpha0 * 0.5 * h2 / ((1.0 + b * h2) * np.log(2.0))
        self.fam, self.atoms = fam, atoms

    def chain(self, per_bump, power):
        dweights = self.weights**power
        a = self.atoms.a**power
        i_g, i_dc, i_ds = grid = np.zeros((3,) + self.live.shape)
        grid[:, self.live] = per_bump
        dw_dc = dweights * i_dc
        i_sigma = a * (dweights * i_ds).sum(axis=1) * \
            self.fam.bin_scale**power
        i_b = a * (dw_dc * self.doff**power).sum(axis=1)
        return ((dweights * i_g).sum(axis=1), a * dw_dc.sum(axis=1),
                np.stack([i_sigma, i_b], axis=1))

    def dict_backprop(self, weights_vec):
        g = np.zeros_like(self.fam.D)
        ip_g, _, _ = gaussian_backprop(weights_vec, *self.all_bumps)
        np.add.at(g.T, self.atoms.eta,
                  self.atoms.a[:, None] * ip_g.reshape(self.weights.shape))
        return g


@st.composite
def _sparse_dictionaries(draw):
    """A dictionary with zero entries, and possibly an all-zero column
    and a zero fundamental."""
    n_har = draw(st.integers(1, 25))
    n_pat = draw(st.integers(1, 3))
    entries = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    D = np.reshape(draw(st.lists(entries, min_size=n_har * n_pat,
                                 max_size=n_har * n_pat)), (n_har, n_pat))
    if draw(st.booleans()):
        D[:, draw(st.integers(0, n_pat - 1))] = 0.0
    if draw(st.booleans()):
        D[0, draw(st.integers(0, n_pat - 1))] = 0.0
    return D


LENGTH = 1024


@settings(max_examples=200, deadline=None)
@given(_sparse_dictionaries(), st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_live_bumps_match_the_full_grid_bitwise(D, n, seed):
    # Zero atoms included: every array then has length 0.
    fam = _family(D)
    rng = np.random.default_rng(seed)
    lower, upper = fam.theta_box.lower, fam.theta_box.upper
    atoms = Atoms(rng.uniform(0.0, 2.0, n), rng.uniform(-50.0, LENGTH, n),
                  rng.integers(0, fam.n_patterns, n),
                  lower + (upper - lower) * rng.random((n, 2)))
    ref = _GridReference(fam, atoms)

    values, lo, ctx = fam.forward(LENGTH, atoms)
    ref_values, ref_lo, ref_cache = gaussian_forward(LENGTH, *ref.bumps)
    assert lo == ref_lo and _same_bits(values, ref_values)

    out = rng.random(LENGTH)
    expect = gaussian_accumulate(out.copy(), *ref.bumps)
    assert _same_bits(fam.accumulate(out, atoms), expect)

    w = rng.normal(size=len(values))
    for got, per_bump, power in (
            (fam.adjoint(w, ctx, atoms), gaussian_adjoint(w, ref_cache), 1),
            (fam.curvature(w, ctx, atoms),
             gaussian_curvature(w, ref_cache), 2)):
        for g, r in zip(got, ref.chain(per_bump, power)):
            assert _same_bits(g, r)

    whole = rng.normal(size=LENGTH)
    assert _same_bits(fam.dict_backprop(whole, atoms),
                      ref.dict_backprop(whole))


def test_family_keeps_its_own_dictionary(rng):
    # Training changes its dictionary in place after each step; a family
    # built before must keep the patterns it was built with, which its
    # preselection samples once.
    dictionary = Dictionary(rng.random((6, 2)))
    original = dictionary.D.copy()
    fam = harmonic_family(dictionary, LogAxis(), StftConfig())
    atoms = Atoms([0.8, 0.6], [400.3, 550.1], [0, 1],
                  [fam.theta_nil, [fam.sigma_nil, 1e-4]])
    before = fam.forward(1024, atoms)[:2]
    dictionary.D *= 0.5
    dictionary.D[0] = 1.0
    assert not fam.D.flags.writeable
    assert np.array_equal(fam.D, original)
    after = fam.forward(1024, atoms)[:2]
    assert after[1] == before[1] and np.array_equal(after[0], before[0])
    residual = fam.accumulate(np.zeros(1024), atoms) ** 0.5
    cfg = PursuitConfig(q=0.5)
    fresh = _family(original)
    for got, expect in zip(select_xcorr(residual, fam, cfg, 2),
                           select_xcorr(residual, fresh, cfg, 2)):
        assert np.array_equal(got, expect)


def test_prune_keeps_top_ranked_columns():
    D = Dictionary(np.full((3, 4), 0.5))
    state = TrainState(adam=AdamState.zeros(3, 4),
                       amp_acc=np.array([5.0, 1.0, 8.0, 0.5]),
                       head_start=250, n_ins=2)
    state.adam.tau[:] = 500
    rng = np.random.default_rng(0)
    kept = _prune(D, state, rng)
    assert list(kept) == [0, 2]
    # pruned columns were reinitialized and their state zeroed
    assert state.amp_acc[1] == 0.0 and state.amp_acc[3] == 0.0
    assert state.adam.tau[1] == 0 and state.adam.tau[3] == 0
    assert np.all(state.amp_acc[[0, 2]] == [5.0, 8.0])
    assert state.adam.tau[0] == 500


def _log_grid(values):
    return SpectrogramGrid(values, StftConfig(), LogAxis(5.12, 102.4))


def test_train_zero_spectrogram_is_inert():
    U = _log_grid(np.zeros((1024, 5)))
    d, kept = train(U, n_ins=1, n_spr=1, n_trn=20, seed=0,
                    prune_interval=10, n_har=8)
    assert np.all(np.isfinite(d.D))
    assert d.D.min() >= 0.0 and d.D.max() <= 1.0
    assert list(kept) == [0]


def test_train_validates_inputs():
    U = _log_grid(np.zeros((1024, 5)))
    with pytest.raises(ConfigError):
        train(U, 1, 1, n_trn=7, seed=0, prune_interval=5)
    with pytest.raises(ConfigError):
        train(U, n_ins=0, n_spr=1, n_trn=10, seed=0, prune_interval=10)
    with pytest.raises(ConfigError):
        train(U, 1, 1, n_trn=10, seed=0, prune_interval=0)
    # a negative or fractional seed or count, and a negative schedule
    for seed, n_ins, n_trn in ((-1, 1, 2), (1.5, 1, 2), (0, 1.5, 2),
                               (0, 1, -2)):
        with pytest.raises(ConfigError):
            train(U, n_ins, 1, n_trn, seed, prune_interval=1)
    with pytest.raises(DomainError):
        train(_log_grid(np.zeros((1024, 0))), 1, 1, 10, 0,
              prune_interval=10)
    # a linear-axis grid, and a window U was not made with
    with pytest.raises(DomainError):
        train(SpectrogramGrid(np.zeros((1024, 5)), StftConfig()), 1, 1, 10,
              0, prune_interval=10)
    with pytest.raises(DomainError):
        train(U, 1, 1, 10, 0, prune_interval=10,
              stft_cfg=StftConfig(window_halfwidth=4.0))


def test_train_is_deterministic():
    rng = np.random.default_rng(7)
    values = np.zeros((1024, 4))
    fam = _family(np.full((8, 1), 0.5))
    for t in range(4):
        fam.accumulate(values[:, t], Atoms([0.5], [300.0 + 40 * t], [0],
                                           fam.theta_nil[None, :]))
    U = _log_grid(values)
    kwargs = dict(n_ins=1, n_spr=1, n_trn=10, seed=3, prune_interval=10,
                  n_har=8, pursuit_overrides=dict(max_evals=40))
    d1, k1 = train(U, **kwargs)
    d2, k2 = train(U, **kwargs)
    assert np.array_equal(d1.D, d2.D)
    assert np.array_equal(k1, k2)


def test_dictionary_file_round_trip(tmp_path, rng):
    d = Dictionary(rng.random((25, 4)))
    kept = np.array([1, 3])
    p1 = tmp_path / "a.dict"
    p2 = tmp_path / "b.dict"
    save_dictionary(p1, d, kept)
    save_dictionary(p2, d, kept)
    assert p1.read_bytes() == p2.read_bytes()
    back, kept_back = load_dictionary(p1)
    assert np.array_equal(back.D, d.D)
    assert np.array_equal(kept_back, kept)


def test_dictionary_file_rejects_garbage(tmp_path):
    path = tmp_path / "x.dict"
    path.write_text("something else\n")
    with pytest.raises(FormatError):
        load_dictionary(path)
    path.write_text("harmosep-dict 99\nn_har 1\nn_pat 1\nkept 0\n0.5\n")
    with pytest.raises(FormatError):
        load_dictionary(path)
    path.write_text("harmosep-dict 1\nn_har 1\nn_pat 2\nkept 0 0\n0.5\n0.25\n")
    with pytest.raises(FormatError):
        load_dictionary(path)
