"""Malformed dictionary, log-spectrogram cache and WAV files must raise
FormatError, never another exception type."""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from harmosep.audio import AudioClip, read_wav, write_wav
from harmosep.dictlearn import Dictionary, load_dictionary, save_dictionary
from harmosep.errors import DomainError, FormatError
from harmosep.logspect import load_log_cache, save_log_cache
from harmosep.stft import LogAxis, SpectrogramGrid, StftConfig

DICT_HEAD = "harmosep-dict 1\nn_har 2\nn_pat 1\n"


@pytest.mark.parametrize("text", [
    "harmosep-dict 1\nn_har 2\n",                  # truncated header
    "harmosep-dict 1\nn_har two\nn_pat 1\nkept 0\n0.5 0.25\n",
    DICT_HEAD + "kept 0\n0.5 zero\n",               # non-numeric entry
    DICT_HEAD + "kept x\n0.5 0.25\n",
    DICT_HEAD + "kept 7\n0.5 0.25\n",               # kept out of range
    DICT_HEAD + "kept -1\n0.5 0.25\n",
    DICT_HEAD + "kept 0\n0.5\n",                    # short column
    DICT_HEAD + "kept 0\nnan 0.25\n",               # entry not in [0, 1]
    "harmosep-dict 1\nn_har 0\nn_pat 0\nkept\n",     # empty dictionary
])
def test_dictionary_loader_rejects(tmp_path, text):
    path = tmp_path / "bad.dict"
    path.write_text(text)
    with pytest.raises(FormatError):
        load_dictionary(path)


def test_dictionary_loader_rejects_non_utf8(tmp_path):
    path = tmp_path / "bad.dict"
    path.write_bytes(DICT_HEAD.encode() + b"kept 0\n\xff\xfe 0.5\n")
    with pytest.raises(FormatError):
        load_dictionary(path)


def _cache_bytes(tmp_path, values):
    path = tmp_path / "u.hsls"
    save_log_cache(path, SpectrogramGrid(values, StftConfig(),
                                         LogAxis(5.12, 102.4)))
    return path


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_cache_loader_rejects_bad_values(tmp_path, bad):
    values = np.ones((4, 3))
    values[2, 1] = bad
    with pytest.raises(FormatError):
        load_log_cache(_cache_bytes(tmp_path, values))


def test_cache_loader_rejects_bad_axis(tmp_path):
    # f0, the first float of the header, replaced by NaN.
    raw = _cache_bytes(tmp_path, np.ones((2, 2))).read_bytes()
    path = tmp_path / "axis.hsls"
    head = struct.Struct("<4sIIIII")
    path.write_bytes(raw[:head.size] + struct.pack("<d", np.nan)
                     + raw[head.size + 8:])
    with pytest.raises(FormatError):
        load_log_cache(path)


def test_cache_loader_rejects_zero_bins(tmp_path):
    # A well-formed header of 0 bins x 3 frames and its empty payload:
    # magic, version, n_bins, n_frames, sample rate, hop, then f0,
    # alpha0, zeta, window halfwidth.
    path = tmp_path / "empty.hsls"
    path.write_bytes(struct.pack("<4sIIIII4d", b"HSLS", 2, 0, 3, 48000, 256,
                                 5.12, 102.4, 1024.0, 6.0))
    with pytest.raises(FormatError):
        load_log_cache(path)


def test_cache_loader_rejects_version_1(tmp_path):
    # Version 1 stored the frame period but not the analysis window.
    path = tmp_path / "v1.hsls"
    path.write_bytes(struct.pack("<4sIII3d", b"HSLS", 1, 4, 3, 5.12, 102.4,
                                 256 / 48000)
                     + np.ones(12, dtype=np.float32).tobytes())
    with pytest.raises(FormatError, match="version 1"):
        load_log_cache(path)


def _valid_files():
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp) / "d.dict"
        save_dictionary(d, Dictionary(np.array([[0.5, 1.0], [0.25, 0.0]])),
                        [1])
        c = _cache_bytes(Path(tmp), np.arange(6.0).reshape(3, 2))
        valid = {"dictionary": [d.read_bytes()], "cache": [c.read_bytes()],
                 "wav": []}
        clip = AudioClip(np.linspace(-0.5, 0.5, 8), 48000)
        for dtype in ("int16", "float32"):
            w = Path(tmp) / f"{dtype}.wav"
            write_wav(clip, w, dtype=dtype)
            valid["wav"].append(w.read_bytes())
        return valid


VALID = _valid_files()
LOADERS = {"dictionary": load_dictionary, "cache": load_log_cache,
           "wav": read_wav}
# An unsupported sample rate is a DomainError of AudioClip.
ACCEPTED = {"wav": (FormatError, DomainError)}


def _edits(valid):
    """Replace ``valid[i:j]`` with a few arbitrary bytes: truncates,
    inserts, overwrites and duplicates parts of a valid file."""
    n = len(valid)
    return st.tuples(st.integers(0, n), st.integers(0, n),
                     st.binary(max_size=8)).map(
        lambda t: valid[:t[0]] + t[2] + valid[t[1]:])


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@pytest.mark.parametrize("kind", sorted(LOADERS))
@given(data=st.data())
def test_loaders_raise_only_format_error(tmp_path, kind, data):
    valid = st.sampled_from(VALID[kind]).flatmap(_edits)
    raw = data.draw(st.one_of(st.binary(max_size=200), valid))
    path = tmp_path / "fuzz"
    path.write_bytes(raw)
    try:
        LOADERS[kind](path)
    except ACCEPTED.get(kind, FormatError):
        pass


def test_float32_wav_with_a_signalling_nan_raises_format_error(tmp_path):
    # Two bytes inserted into the float32 samples make one of them a
    # signalling NaN, whose cast to float64 warns.
    raw = VALID["wav"][1]
    path = tmp_path / "snan.wav"
    path.write_bytes(raw[:68] + b"\x80\x7f" + raw[68:])
    with pytest.raises(FormatError):
        read_wav(path)
