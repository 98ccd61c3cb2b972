import numpy as np
import pytest
from scipy.io import wavfile

from harmosep.audio import (AudioClip, partial_frequencies, read_wav,
                            synth_harmonic_tone, write_wav)
from harmosep.errors import DomainError, FormatError


def test_silence_round_trip(tmp_path):
    path = tmp_path / "zero.wav"
    write_wav(AudioClip(np.zeros(1000), 48000), path)
    clip = read_wav(path)
    assert clip.sample_rate_hz == 48000
    assert np.all(clip.samples == 0.0)


def test_stereo_channels_cancel(tmp_path):
    path = tmp_path / "stereo.wav"
    x = (np.random.default_rng(0).random(500) * 2 - 1).astype(np.float32)
    wavfile.write(path, 44100, np.stack([x, -x], axis=1))
    clip = read_wav(path)
    assert np.allclose(clip.samples, 0.0, atol=1e-7)


def test_int16_round_trip_error(tmp_path, rng):
    x = rng.uniform(-1, 1, 1000)
    path = tmp_path / "noise.wav"
    write_wav(AudioClip(x, 48000), path)
    back = read_wav(path)
    assert np.max(np.abs(back.samples - x)) <= 2.0 ** -15


def test_float32_round_trip(tmp_path, rng):
    x = rng.uniform(-1, 1, 1000).astype(np.float32).astype(np.float64)
    path = tmp_path / "f32.wav"
    write_wav(AudioClip(x, 48000), path, dtype="float32")
    back = read_wav(path)
    assert np.array_equal(back.samples, x)


def test_out_of_range_clamped_with_warning(tmp_path):
    path = tmp_path / "hot.wav"
    clip = AudioClip(np.array([0.0, 1.5, -2.0]), 48000)
    with pytest.warns(UserWarning):
        write_wav(clip, path)
    back = read_wav(path)
    assert back.samples.max() <= 1.0
    assert abs(back.samples[1] - 1.0) < 1e-4


def test_unsupported_rate_rejected():
    with pytest.raises(DomainError):
        AudioClip(np.zeros(10), 22050)


def test_unsupported_sample_format(tmp_path):
    path = tmp_path / "u8.wav"
    wavfile.write(path, 48000, np.zeros(100, dtype=np.uint8))
    with pytest.raises(FormatError):
        read_wav(path)


def test_truncated_data_chunk_rejected(tmp_path):
    path = tmp_path / "cut.wav"
    write_wav(AudioClip(np.zeros(48000), 48000), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) // 2])
    with pytest.raises(FormatError, match="Reached EOF prematurely"):
        read_wav(path)


def test_unknown_chunk_skipped_with_warning(tmp_path):
    path = tmp_path / "extra.wav"
    write_wav(AudioClip(np.zeros(100), 48000), path)
    raw = bytearray(path.read_bytes() + b"abcd" + (4).to_bytes(4, "little")
                    + bytes(4))
    raw[4:8] = (len(raw) - 8).to_bytes(4, "little")
    path.write_bytes(raw)
    with pytest.warns(wavfile.WavFileWarning, match="not understood"):
        clip = read_wav(path)
    assert len(clip.samples) == 100


def test_partial_frequencies_harmonic():
    f = partial_frequencies(100.0, 4)
    assert np.allclose(f, [100, 200, 300, 400])


def test_partial_frequencies_inharmonic():
    b = 3.25e-4
    f = partial_frequencies(100.0, 10, b)
    assert np.isclose(f[9], np.sqrt(1 + b * 100) * 1000)
    assert np.all(np.diff(f / np.arange(1, 11)) > 0)


def test_synth_tone_is_periodic_and_normalized():
    clip = synth_harmonic_tone(480.0, [1.0, 0.5], 0.0, 0.5, 48000)
    assert clip.duration_s == pytest.approx(0.5)
    assert np.abs(clip.samples).max() == pytest.approx(0.5, abs=1e-6)
    # 480 Hz at 48 kHz: period is exactly 100 samples
    body = clip.samples[1000:-1000]
    assert np.allclose(body[:-100], body[100:], atol=1e-9)


def test_synth_drops_partials_above_nyquist():
    # only partial, 26 kHz, sits above the 24 kHz Nyquist limit
    clip = synth_harmonic_tone(13000.0, [0.0, 1.0], 0.0, 0.1, 48000)
    assert np.all(clip.samples == 0.0)


def test_synth_fade_in_starts_at_zero():
    clip = synth_harmonic_tone(1000.0, [1.0], 0.0, 0.1, 48000,
                               phases=np.array([np.pi / 2]))
    assert abs(clip.samples[0]) < 1e-12
    assert abs(clip.samples[-1]) < 1e-3


def test_synth_rejects_bad_fundamental():
    with pytest.raises(DomainError):
        synth_harmonic_tone(0.0, [1.0], 0.0, 0.1, 48000)
