import numpy as np
import pytest

from harmosep import logspect, pursuit
from harmosep.errors import DomainError, FormatError
from harmosep.kernels import sample_gaussian
from harmosep.logspect import (gaussian_family, load_log_cache,
                               save_log_cache, to_log_spectrogram,
                               transform_config)
from harmosep.stft import LogAxis, SpectrogramGrid, StftConfig


def test_axis_mapping_constants():
    axis = LogAxis()
    assert axis.alpha(5.12) == 0.0
    assert axis.alpha(10.24) == pytest.approx(102.4)
    assert axis.frequency(1024.0) == pytest.approx(5.12 * 2 ** 10)
    # ten octaves span the axis
    assert axis.alpha(5.12 * 2 ** 10) == pytest.approx(1024.0)


def test_gaussian_family_shape():
    # The family renders its peaks with the shared kernel; at theta_nil
    # that is a unit Gaussian of the analysis window's bin width.
    cfg = StftConfig()
    fam = gaussian_family(cfg)
    std = np.array([fam.theta_nil[0] * cfg.window_length])
    v = sample_gaussian(np.array([50.0]), np.ones(1), std, 101)
    assert v[50] == 1.0
    assert np.array_equal(v[:50], v[51:][::-1])
    # half height at the closed-form half-width
    halfwidth = fam.sigma_nil * cfg.window_length * np.sqrt(2 * np.log(2))
    v = sample_gaussian(np.array([50.0 - halfwidth]), np.ones(1), std, 101)
    assert v[50] == pytest.approx(0.5)


def test_gaussian_family_box():
    fam = gaussian_family(StftConfig())
    assert fam.theta_box.lower[0] == pytest.approx(0.25 * fam.sigma_nil)
    assert fam.theta_box.upper[0] == pytest.approx(4 * fam.sigma_nil)


def _line_grid(center_bins, amps, n_frames=3):
    cfg = StftConfig()
    std = cfg.sigma_nil * cfg.window_length
    col = sample_gaussian(np.asarray(center_bins, dtype=np.float64),
                          np.asarray(amps, dtype=np.float64),
                          np.full(len(center_bins), std), cfg.n_bins)
    Z = np.tile(col[:, None], (1, n_frames))
    return SpectrogramGrid(Z, cfg)


def test_single_line_maps_to_expected_log_bin():
    Z = _line_grid([10.24], [1.0])
    U, atoms = to_log_spectrogram(Z, pursuit_cfg=transform_config(n_itr=3))
    assert U.values.shape == (1024, 3)
    for frame_atoms in atoms:
        tops = frame_atoms.mu[frame_atoms.a > 0.5]
        assert len(tops) == 1
        alpha = LogAxis().alpha(tops[0])
        assert alpha == pytest.approx(102.4, abs=0.1)
    assert abs(np.argmax(U.values[:, 1]) - 102) <= 1


def test_two_lines_log_distance():
    f1, f2 = 112.4, 253.7
    Z = _line_grid([f1, f2], [1.0, 0.8])
    U, atoms = to_log_spectrogram(Z, pursuit_cfg=transform_config(n_itr=3))
    axis = LogAxis()
    strong = np.sort(atoms[0].mu[atoms[0].a > 0.4])
    assert len(strong) == 2
    d = axis.alpha(strong[1]) - axis.alpha(strong[0])
    assert d == pytest.approx(102.4 * np.log2(f2 / f1), abs=0.2)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_nan_in_one_frame_is_recovered_in_that_frame(monkeypatch, k,
                                                     nan_on_call):
    # The first refine's forward calls are its curvature (k = 1) and then
    # its evaluations.  At k = 1 and at its first evaluation (k = 2) it
    # has no valid iterate, so the middle frame ends empty; later NaNs
    # keep the refine's best iterate.
    Z = _line_grid([10.24, 40.0], [1.0, 0.5])
    Z.values *= [1.0, 0.7, 0.4]
    cfg = transform_config(n_itr=3)
    clean, clean_atoms = to_log_spectrogram(Z, pursuit_cfg=cfg)
    frames = iter(range(3))
    poisoned = []

    def pursue_poisoning_the_middle_frame(Y, family, cfg):
        if next(frames) == 1:
            family = nan_on_call(family, k)
            poisoned.append(family)
        return pursuit.pursue(Y, family, cfg)

    monkeypatch.setattr(logspect, "pursue", pursue_poisoning_the_middle_frame)
    U, atoms = to_log_spectrogram(Z, pursuit_cfg=cfg)
    assert poisoned[0].calls >= k
    for t in (0, 2):
        assert np.array_equal(U.values[:, t], clean.values[:, t])
        for name in ("a", "mu", "eta", "theta"):
            assert np.array_equal(getattr(atoms[t], name),
                                  getattr(clean_atoms[t], name))
    assert np.all(np.isfinite(U.values[:, 1]))
    for name in ("a", "mu", "theta"):
        assert np.all(np.isfinite(getattr(atoms[1], name)))
    if k <= 2:
        assert len(atoms[1]) == 0
    else:
        assert len(atoms[1]) > 0


def test_transform_checks_its_grid(monkeypatch):
    Z = _line_grid([10.24], [1.0], n_frames=1)
    U, _ = to_log_spectrogram(Z, pursuit_cfg=transform_config(n_itr=1))
    assert U.stft == Z.stft and U.axis == LogAxis()
    with pytest.raises(DomainError):
        to_log_spectrogram(U)
    with pytest.raises(DomainError):
        to_log_spectrogram(Z, stft_cfg=StftConfig(zeta_samples=512.0))
    same, _ = to_log_spectrogram(Z, stft_cfg=StftConfig(),
                                 pursuit_cfg=transform_config(n_itr=1))
    assert np.array_equal(same.values, U.values)
    # an axis that is not a LogAxis, refused before any frame is pursued
    monkeypatch.setattr(logspect, "pursue", None)
    with pytest.raises(DomainError):
        to_log_spectrogram(Z, axis=StftConfig())


def test_zero_spectrogram_stays_zero():
    cfg = StftConfig()
    Z = SpectrogramGrid(np.zeros((cfg.n_bins, 2)), cfg)
    U, atoms = to_log_spectrogram(Z, pursuit_cfg=transform_config(n_itr=2))
    assert np.all(U.values == 0.0)
    assert all(len(a) == 0 for a in atoms)


def test_out_of_range_peaks_dropped():
    # line below f0's bin: alpha negative, must not appear
    Z = _line_grid([2.0], [1.0], n_frames=1)
    U, _ = to_log_spectrogram(Z, pursuit_cfg=transform_config(n_itr=2))
    assert np.all(U.values == 0.0)


def test_cache_round_trip(tmp_path, rng):
    values = rng.random((64, 7))
    stft = StftConfig(sample_rate_hz=44100, zeta_samples=512.5,
                      hop_samples=1024, window_halfwidth=4.0)
    grid = SpectrogramGrid(values.astype(np.float32).astype(np.float64),
                           stft, LogAxis(5.12, 102.4, 64))
    path = tmp_path / "u.hsls"
    save_log_cache(path, grid)
    back = load_log_cache(path)
    assert np.array_equal(back.values, grid.values)
    assert back.axis == LogAxis(5.12, 102.4, 64)
    assert back.stft == stft
    assert back.frame_period_s == 1024 / 44100


def test_cache_rejects_linear_axis(tmp_path):
    grid = SpectrogramGrid(np.zeros((4, 4)), StftConfig())
    with pytest.raises(DomainError):
        save_log_cache(tmp_path / "z.hsls", grid)


def test_cache_rejects_garbage(tmp_path):
    path = tmp_path / "bad.hsls"
    path.write_bytes(b"not a cache")
    with pytest.raises(FormatError):
        load_log_cache(path)


def test_cache_rejects_truncated_payload(tmp_path):
    grid = SpectrogramGrid(np.ones((8, 8)), StftConfig(),
                           LogAxis(5.12, 102.4))
    path = tmp_path / "trunc.hsls"
    save_log_cache(path, grid)
    raw = path.read_bytes()
    path.write_bytes(raw[:-10])
    with pytest.raises(FormatError):
        load_log_cache(path)
