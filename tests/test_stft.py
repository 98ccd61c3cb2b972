import numpy as np
import pytest

from harmosep.audio import AudioClip, synth_harmonic_tone
from harmosep.errors import ConfigError, DomainError
from harmosep.stft import (STFT_BLOCK_FRAMES, LogAxis, SpectrogramGrid,
                           StftConfig, _frame, griffin_lim, istft, save_pgm,
                           stft_complex, stft_magnitude)


@pytest.fixture
def cfg():
    return StftConfig()


def test_config_constants(cfg):
    assert cfg.window_length == 12288
    assert cfg.bin_hz == pytest.approx(3.90625)
    assert cfg.frame_period_s == pytest.approx(256 / 48000)
    assert cfg.sigma_nil == pytest.approx(1.0 / (2 * np.pi * 1024))


BAD_FIELDS = [
    (StftConfig, "hop_samples", 0),
    (StftConfig, "hop_samples", -256),
    (StftConfig, "zeta_samples", 0.0),
    (StftConfig, "zeta_samples", np.nan),
    (StftConfig, "zeta_samples", 0.01),      # the window rounds to 0
    (StftConfig, "window_halfwidth", 0.0),
    (StftConfig, "window_halfwidth", np.inf),
    (StftConfig, "sample_rate_hz", 0),
    (LogAxis, "f0", -1.0),
    (LogAxis, "alpha0", 0.0),
    (LogAxis, "n_bins", 0),
    (StftConfig, "hop_samples", 1500.5),
    (StftConfig, "sample_rate_hz", 48000.0),
    (LogAxis, "n_bins", 10.5),
]


@pytest.mark.parametrize("config, field, value", BAD_FIELDS,
                         ids=[f"{c.__name__}.{f}={v}"
                              for c, f, v in BAD_FIELDS])
def test_configs_reject_non_positive_fields(config, field, value):
    with pytest.raises(ConfigError):
        config(**{field: value})


def test_window_is_unit_peak_gaussian(cfg):
    w = cfg.window()
    assert len(w) == cfg.window_length
    assert w.max() == 1.0
    # value one std away from the center
    assert w[cfg.window_length // 2 + 1024] == pytest.approx(
        np.exp(-0.5), rel=1e-3)


def test_sinusoid_peak_bin(cfg):
    clip = synth_harmonic_tone(1000.0, [1.0], 0.0, 0.6, 48000)
    grid, phase = stft_magnitude(clip, cfg)
    assert grid.values.shape[0] == cfg.n_bins
    assert phase.shape == grid.values.shape
    col = grid.values[:, grid.values.shape[1] // 2]
    assert abs(np.argmax(col) - 1000.0 / cfg.bin_hz) <= 1


def test_magnitude_positive_homogeneity(cfg, rng):
    x = rng.normal(size=20000)
    a, _ = stft_magnitude(AudioClip(0.01 * x, 48000), cfg)
    b, _ = stft_magnitude(AudioClip(0.03 * x, 48000), cfg)
    assert np.allclose(b.values, 3.0 * a.values, rtol=1e-10, atol=1e-12)


def test_istft_inverts_stft(cfg, rng):
    x = rng.normal(size=30000) * 0.1
    spec = stft_complex(x, cfg)
    y = istft(spec, cfg, len(x))
    interior = slice(cfg.window_length, len(x) - cfg.window_length)
    err = np.linalg.norm(y[interior] - x[interior])
    assert err / np.linalg.norm(x[interior]) < 1e-10


@pytest.mark.parametrize("extra_frames", [-1, 0, 1, 5])
def test_blockwise_stft_equals_one_transform_of_all_frames(rng,
                                                           extra_frames):
    # Frame counts around two whole blocks of STFT_BLOCK_FRAMES.
    cfg = StftConfig(zeta_samples=16.0, hop_samples=8)
    n_frames = 2 * STFT_BLOCK_FRAMES + extra_frames
    x = rng.normal(size=1 + (n_frames - 1) * cfg.hop_samples)
    spec = stft_complex(x, cfg)
    frames, _ = _frame(x, cfg)
    whole = np.fft.rfft(frames * cfg.window()[None, :], axis=1).T
    assert spec.shape == (cfg.n_bins, n_frames)
    assert np.array_equal(spec, whole)


def test_short_clip_rejected(cfg):
    with pytest.raises(DomainError):
        stft_complex(np.zeros(100), cfg)


def test_griffin_lim_zero_magnitude_is_silent(cfg):
    clip = synth_harmonic_tone(500.0, [1.0], 0.0, 0.4, 48000)
    grid, phase = stft_magnitude(clip, cfg)
    grid.values[:] = 0.0
    out = griffin_lim(grid, phase, 1, length=len(clip.samples))
    assert np.all(out.samples == 0.0)


def test_griffin_lim_consistent_pair_is_fixed_point(cfg):
    clip = synth_harmonic_tone(700.0, [1.0, 0.3], 0.0, 1.0, 48000)
    grid, phase = stft_magnitude(clip, cfg)
    out = griffin_lim(grid, phase, 1, length=len(clip.samples))
    interior = slice(cfg.window_length, len(clip.samples) - cfg.window_length)
    rel = (np.linalg.norm(out.samples[interior] - clip.samples[interior])
           / np.linalg.norm(clip.samples[interior]))
    assert rel < 1e-6


def test_griffin_lim_error_non_increasing(cfg, rng):
    clip = synth_harmonic_tone(600.0, [1.0], 0.0, 0.4, 48000)
    grid, _ = stft_magnitude(clip, cfg)
    # mismatched starting phase
    phase = rng.uniform(-np.pi, np.pi, grid.values.shape)
    errors = []
    for iters in range(1, 6):
        out = griffin_lim(grid, phase, iters, length=len(clip.samples))
        mag, _ = stft_magnitude(out, cfg)
        errors.append(np.linalg.norm(mag.values - grid.values))
    assert all(b <= a * (1 + 1e-9) for a, b in zip(errors, errors[1:]))


def test_griffin_lim_validates_arguments(cfg):
    clip = synth_harmonic_tone(500.0, [1.0], 0.0, 0.4, 48000)
    grid, phase = stft_magnitude(clip, cfg)
    with pytest.raises(DomainError):
        griffin_lim(grid, phase[:, :-1], 1)
    for iterations, length in ((0, None), (1.5, None), (1, 0), (1, -5)):
        with pytest.raises(DomainError):
            griffin_lim(grid, phase, iterations, length=length)
    log_grid = SpectrogramGrid(grid.values, grid.stft, LogAxis())
    with pytest.raises(DomainError):
        griffin_lim(log_grid, phase, 1)


def test_stft_follows_the_clip_sample_rate():
    clip = synth_harmonic_tone(500.0, [1.0], 0.0, 0.4, 44100)
    with pytest.raises(DomainError):
        stft_magnitude(clip, StftConfig(hop_samples=2048))
    cfg = StftConfig(sample_rate_hz=44100, hop_samples=2048)
    grid, phase = stft_magnitude(clip, cfg)
    assert grid.stft == cfg and grid.axis == cfg
    assert grid.frame_period_s == 2048 / 44100
    assert griffin_lim(grid, phase, 1).sample_rate_hz == 44100


def test_save_pgm(tmp_path, cfg):
    clip = synth_harmonic_tone(500.0, [1.0], 0.0, 0.4, 48000)
    grid, _ = stft_magnitude(clip, cfg)
    path = tmp_path / "spec.pgm"
    save_pgm(grid, path)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n")
    header, rest = raw.split(b"\n", 1)
    dims, rest = rest.split(b"\n", 1)
    w, h = map(int, dims.split())
    assert (w, h) == (grid.values.shape[1], grid.values.shape[0])
