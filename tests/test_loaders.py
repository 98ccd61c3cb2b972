"""Malformed dictionary and log-spectrogram cache files must raise
FormatError, never another exception type."""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from harmosep.dictlearn import Dictionary, load_dictionary, save_dictionary
from harmosep.errors import FormatError
from harmosep.logspect import load_log_cache, save_log_cache
from harmosep.stft import LogAxis, SpectrogramGrid

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
    save_log_cache(path, SpectrogramGrid(values, LogAxis(5.12, 102.4), 0.01))
    return path


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_cache_loader_rejects_bad_values(tmp_path, bad):
    values = np.ones((4, 3))
    values[2, 1] = bad
    with pytest.raises(FormatError):
        load_log_cache(_cache_bytes(tmp_path, values))


def test_cache_loader_rejects_bad_axis(tmp_path):
    raw = _cache_bytes(tmp_path, np.ones((2, 2))).read_bytes()
    path = tmp_path / "axis.hsls"
    head = struct.Struct("<4sIII")
    path.write_bytes(raw[:head.size] + struct.pack("<3d", np.nan, 102.4, 0.01)
                     + raw[head.size + 24:])
    with pytest.raises(FormatError):
        load_log_cache(path)


def test_cache_loader_rejects_zero_bins(tmp_path):
    # A well-formed header of 0 bins x 3 frames and its empty payload.
    path = tmp_path / "empty.hsls"
    path.write_bytes(struct.pack("<4sIII3d", b"HSLS", 1, 0, 3, 5.12, 102.4,
                                 0.01))
    with pytest.raises(FormatError):
        load_log_cache(path)


def _valid_files():
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp) / "d.dict"
        save_dictionary(d, Dictionary(np.array([[0.5, 1.0], [0.25, 0.0]])),
                        [1])
        c = _cache_bytes(Path(tmp), np.arange(6.0).reshape(3, 2))
        return {"dictionary": d.read_bytes(), "cache": c.read_bytes()}


VALID = _valid_files()
LOADERS = {"dictionary": load_dictionary, "cache": load_log_cache}


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
    raw = data.draw(st.one_of(st.binary(max_size=200), _edits(VALID[kind])))
    path = tmp_path / "fuzz"
    path.write_bytes(raw)
    try:
        LOADERS[kind](path)
    except FormatError:
        pass
