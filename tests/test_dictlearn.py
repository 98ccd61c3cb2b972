import numpy as np
import pytest

from harmosep.dictlearn import (Dictionary, TrainState, harmonic_family,
                                init_column, load_dictionary,
                                save_dictionary, train, _prune)
from harmosep.errors import ConfigError, DomainError, FormatError
from harmosep.optim import AdamState
from harmosep.pursuit import Atoms, PursuitConfig, loss
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
