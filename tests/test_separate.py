import importlib
import warnings

import numpy as np
import pytest

from harmosep.audio import partial_frequencies
from harmosep.dictlearn import Dictionary, harmonic_family
from harmosep.errors import DomainError
from harmosep.fixtures import reed_spec, string_spec, two_instrument_fixture
from harmosep.kernels import gaussian_accumulate
from harmosep.logspect import to_log_spectrogram, transform_config
from harmosep.pursuit import Atoms
from harmosep.separate import (MASK_EPSILON, apply_mask,
                               reconstruct_instrument, separate)
from harmosep.stft import (LogAxis, SpectrogramGrid, StftConfig, griffin_lim,
                           stft_magnitude)


def _family(D):
    return harmonic_family(Dictionary(D), LogAxis(), StftConfig())


def test_reconstruct_single_partial_atom():
    D = np.zeros((4, 1))
    D[0, 0] = 1.0
    fam = _family(D)
    axis = LogAxis()
    atom = Atoms([2.0], [axis.alpha(10.24)], [0], [[fam.sigma_nil, 0.0]])
    out = reconstruct_instrument([atom], 0, fam, (100, 1))
    assert out[10, 0] == pytest.approx(2.0, rel=1e-2)
    assert np.argmax(out[:, 0]) == 10


def test_reconstruct_partials_at_harmonic_bins():
    D = np.zeros((3, 1))
    D[:, 0] = [1.0, 0.5, 0.25]
    fam = _family(D)
    axis = LogAxis()
    atom = Atoms([1.0], [axis.alpha(50.0)], [0], [[fam.sigma_nil, 0.0]])
    out = reconstruct_instrument([atom], 0, fam, (400, 1))
    for h, amp in ((1, 1.0), (2, 0.5), (3, 0.25)):
        assert out[50 * h, 0] == pytest.approx(amp, rel=2e-2)


def test_reconstruct_ignores_other_patterns():
    fam = _family(np.full((2, 2), 0.5))
    atom = Atoms([1.0], [300.0], [1], [[fam.sigma_nil, 0.0]])
    out = reconstruct_instrument([atom], 0, fam, (500, 1))
    assert np.all(out == 0.0)


def test_reconstruct_drops_partials_beyond_grid():
    D = np.ones((10, 1))
    fam = _family(D)
    axis = LogAxis()
    # fundamental at bin 50: partials 6..10 land beyond a 300-bin grid
    atom = Atoms([1.0], [axis.alpha(50.0)], [0], [[fam.sigma_nil, 0.0]])
    out = reconstruct_instrument([atom], 0, fam, (300, 1))
    assert out[250, 0] == pytest.approx(1.0, rel=2e-2)
    assert np.all(np.isfinite(out))


@pytest.mark.parametrize("alpha0, mu", [(0.001, 2.0), (0.01, 8.0)])
def test_reconstruct_skips_atoms_far_past_the_grid(alpha0, mu):
    # 2 ** (mu / alpha0) overflows a float at alpha0 = 0.001 and an
    # int64 window slot at alpha0 = 0.01; such a fundamental renders
    # nothing on the grid.
    fam = harmonic_family(Dictionary(np.ones((3, 1))), LogAxis(alpha0=alpha0),
                          StftConfig())
    atom = Atoms([1.0], [mu], [0], [fam.theta_nil])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = reconstruct_instrument([atom], 0, fam, (100, 2))
    assert np.all(out == 0.0)


def test_reconstruct_skips_zero_partials_with_the_same_stems():
    # A partial with D[h, eta] == 0 adds exactly 0.0 wherever its window
    # lies, so leaving it out keeps every bit of the stems.  So does an
    # atom whose fundamental lies past the grid by more than a window's
    # reach; the last frame holds one just inside that reach and one
    # just outside.
    D = np.array([[0.0, 0.9], [0.7, 0.0], [0.0, 0.0], [0.3, 1.0],
                  [0.0, 0.2]])
    fam = _family(D)
    axis = LogAxis()
    edge = 400.0 + 8.0 * fam.sigma_nil * fam.bin_scale
    frames = [Atoms([1.0, 0.4, 0.8], [axis.alpha(40.0), axis.alpha(41.3),
                                      axis.alpha(55.0)], [0, 0, 1],
                    [[fam.sigma_nil, 0.0], [1.3 * fam.sigma_nil, 2e-3],
                     [fam.sigma_nil, 1e-3]]),
              Atoms.empty(2),
              Atoms([0.6], [axis.alpha(30.7)], [1],
                    [[0.8 * fam.sigma_nil, 0.0]]),
              Atoms([1.0, 1.0], [axis.alpha(edge), axis.alpha(edge + 3.0)],
                    [1, 1], np.tile(fam.theta_nil, (2, 1)))]
    shape = (400, len(frames))
    for eta in range(D.shape[1]):
        every = np.zeros(shape)
        for t, atoms in enumerate(frames):
            for j in np.flatnonzero(atoms.eta == eta):
                sigma, b = atoms.theta[j]
                f1 = axis.frequency(float(atoms.mu[j]))
                gaussian_accumulate(
                    every[:, t], partial_frequencies(f1, fam.n_har, b),
                    atoms.a[j] * D[:, eta],
                    np.full(fam.n_har, sigma * fam.bin_scale))
        assert every.any()
        assert np.array_equal(
            reconstruct_instrument(frames, eta, fam, shape), every)
    assert every[:, -1].any()


def test_apply_mask_single_instrument_recovers_mixture(rng):
    inst = rng.random((20, 4)) + 0.5
    Z = rng.random((20, 4)) + 0.5
    masked = apply_mask(inst, inst, Z)
    assert np.allclose(masked, Z, rtol=1e-6)


def test_apply_mask_half_share():
    inst = np.full((5, 5), 0.3)
    total = np.full((5, 5), 0.6)
    Z = np.full((5, 5), 2.0)
    assert np.allclose(apply_mask(inst, total, Z), 1.0, rtol=1e-9)


def test_apply_mask_zero_model_stays_zero():
    Z = np.ones((3, 3))
    masked = apply_mask(np.zeros((3, 3)), np.zeros((3, 3)), Z)
    assert np.all(masked == 0.0)


def test_masked_parts_conserve_mixture(rng):
    parts = [rng.random((10, 3)), rng.random((10, 3))]
    total = parts[0] + parts[1]
    Z = rng.random((10, 3)) * 2
    masked = [apply_mask(p, total, Z) for p in parts]
    assert np.allclose(masked[0] + masked[1],
                       Z * total / (total + MASK_EPSILON))
    assert np.all(masked[0] + masked[1] <= Z * (1 + 1e-9))


def _silent_setup():
    scfg = StftConfig()
    n_frames = 3
    U = SpectrogramGrid(np.zeros((1024, n_frames)), scfg,
                        LogAxis(5.12, 102.4))
    Z = SpectrogramGrid(np.zeros((scfg.n_bins, n_frames)), scfg)
    phase = np.zeros((scfg.n_bins, n_frames))
    return scfg, U, Z, phase


def test_separate_silence_yields_silence():
    scfg, U, Z, phase = _silent_setup()
    d = Dictionary(np.full((4, 2), 0.5))
    res = separate(U, Z, phase, d, [0, 1], 1, stft_cfg=scfg)
    assert len(res.signals) == 2
    for sig in res.signals:
        assert np.all(sig.samples == 0.0)
    assert all(len(a) == 0 for a in res.atoms_per_frame)


def test_separate_validates_shapes(monkeypatch):
    scfg, U, Z, phase = _silent_setup()
    d = Dictionary(np.full((4, 2), 0.5))
    with pytest.raises(DomainError):
        separate(U, Z, phase[:, :-1], d, [0, 1], 1, stft_cfg=scfg)
    with pytest.raises(DomainError):
        separate(U, Z, phase, d, [], 1, stft_cfg=scfg)
    U_bad = SpectrogramGrid(np.zeros((1024, 5)), scfg, LogAxis(5.12, 102.4))
    with pytest.raises(DomainError):
        separate(U_bad, Z, phase, d, [0], 1, stft_cfg=scfg)
    # U on a linear axis, Z on a log axis, a config Z was not made with
    with pytest.raises(DomainError):
        separate(Z, Z, phase, d, [0], 1)
    with pytest.raises(DomainError):
        separate(U, U, phase[:1024], d, [0], 1)
    with pytest.raises(DomainError):
        separate(U, Z, phase, d, [0], 1,
                 stft_cfg=StftConfig(zeta_samples=512.0))
    # U of as many frames as Z, from another window
    other = StftConfig(zeta_samples=512.0)
    U_other, _ = to_log_spectrogram(
        SpectrogramGrid(np.zeros((other.n_bins, 3)), other))
    with pytest.raises(DomainError):
        separate(U_other, Z, phase, d, [0], 1)
    # kept out of range, negative, not an integer, repeated
    for kept in ([5], [-1], [0.5], [0, 0]):
        with pytest.raises(DomainError):
            separate(U, Z, phase, d, kept, 1)
    # Griffin-Lim's arguments, refused before any frame is pursued
    monkeypatch.setattr(importlib.import_module("harmosep.separate"),
                        "pursue", None)
    for gl in (dict(gl_iters=0), dict(gl_iters=1.5), dict(length=0),
               dict(length=-5)):
        with pytest.raises(DomainError):
            separate(U, Z, phase, d, [0], 1, **gl)


@pytest.mark.parametrize("use_mask", [False, True])
def test_separate_resynthesizes_the_chosen_spectrograms(use_mask):
    mix, _ = two_instrument_fixture(duration_s=1.0)
    scfg = StftConfig(hop_samples=4096)
    Z, phase = stft_magnitude(mix, scfg)
    U, _ = to_log_spectrogram(Z, pursuit_cfg=transform_config(
        n_pre=20, n_spr=20, n_itr=1, max_evals=30))
    D = np.zeros((10, 2))
    for col, spec in enumerate((reed_spec(), string_spec())):
        D[:len(spec.amplitudes), col] = spec.amplitudes
    n = len(mix.samples)
    res = separate(U, Z, phase, Dictionary(D), [0, 1], 1,
                   use_mask=use_mask, gl_iters=2, length=n)
    # The mask changes the parts, so the two paths are told apart.
    assert not np.array_equal(res.inst_spectrograms[0].values,
                              res.masked_spectrograms[0].values)
    chosen = res.masked_spectrograms if use_mask else res.inst_spectrograms
    for grid, signal in zip(chosen, res.signals):
        expect = griffin_lim(grid, phase, 2, length=n)
        assert np.array_equal(signal.samples, expect.samples)
