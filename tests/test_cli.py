import numpy as np
import pytest

from harmosep.audio import read_wav
from harmosep.cli import DEFAULTS, load_config, main
from harmosep.errors import ConfigError
from harmosep.logspect import load_log_cache

FAST_TRANSFORM = ["--set", "transform_n_spr=40", "--set",
                  "transform_n_pre=40", "--set", "transform_n_itr=2"]


def test_load_config_defaults():
    cfg = load_config()
    assert cfg == DEFAULTS


def test_load_config_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("n_ins = 3  # comment\nseed=9\n\n# full-line comment\n")
    cfg = load_config(path, overrides=["seed=11"])
    assert cfg["n_ins"] == 3
    assert cfg["seed"] == 11
    assert cfg["n_spr"] == DEFAULTS["n_spr"]


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("bogus=1\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_rejects_bad_value():
    with pytest.raises(ConfigError):
        load_config(overrides=["n_ins=three"])
    with pytest.raises(ConfigError):
        load_config(overrides=["use_mask=maybe"])


def test_load_config_checks_training_schedule():
    with pytest.raises(ConfigError):
        load_config(overrides=["n_trn=123"])


def test_bool_values_parse():
    assert load_config(overrides=["use_mask=off"])["use_mask"] is False
    assert load_config(overrides=["use_mask=1"])["use_mask"] is True


def test_usage_errors_exit_1(capsys):
    assert main(["no-such-command"]) == 1
    assert main(["transform"]) == 1
    assert main(["--set", "bogus=1", "synth", "--outdir", "/tmp"]) == 1


def test_synth_mixture_is_exact_sum(tmp_path):
    out = tmp_path / "fix"
    code = main(["synth", "--outdir", str(out), "--duration", "1.0"])
    assert code == 0
    mix = read_wav(out / "mix.wav")
    r0 = read_wav(out / "ref0.wav")
    r1 = read_wav(out / "ref1.wav")
    assert np.array_equal(mix.samples, r0.samples + r1.samples)


def test_synth_is_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    main(["synth", "--outdir", str(a), "--duration", "0.5"])
    main(["synth", "--outdir", str(b), "--duration", "0.5"])
    assert (a / "mix.wav").read_bytes() == (b / "mix.wav").read_bytes()


def test_synth_octave_fixture(tmp_path):
    out = tmp_path / "oct"
    assert main(["synth", "--outdir", str(out), "--kind", "octave",
                 "--duration", "0.5"]) == 0
    mix = read_wav(out / "mix.wav")
    assert len(mix.samples) == 24000


@pytest.fixture(scope="module")
def short_fixture(tmp_path_factory):
    out = tmp_path_factory.mktemp("clip")
    main(["synth", "--outdir", str(out), "--duration", "1.0"])
    return out


def test_transform_writes_cache_and_pgm(short_fixture, tmp_path):
    cache = tmp_path / "mix.hsls"
    pgm = tmp_path / "mix.pgm"
    code = main(FAST_TRANSFORM + ["--set", "hop=4096",
                                  "transform", str(short_fixture / "mix.wav"),
                                  "-o", str(cache), "--pgm", str(pgm)])
    assert code == 0
    grid = load_log_cache(cache)
    assert grid.values.shape[0] == 1024
    assert pgm.read_bytes().startswith(b"P5\n")


def test_transform_corrupt_wav_leaves_no_output(tmp_path):
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"RIFFgarbage")
    cache = tmp_path / "out.hsls"
    code = main(["transform", str(bad), "-o", str(cache)])
    assert code == 2
    assert not cache.exists()
    assert not list(tmp_path.glob(".harmosep-tmp-*"))


def test_missing_input_exits_2(tmp_path):
    assert main(["transform", str(tmp_path / "none.wav"),
                 "-o", str(tmp_path / "o.hsls")]) == 2
    assert main(["separate", str(tmp_path / "none.wav"),
                 str(tmp_path / "none.dict")]) == 2


def test_train_requires_schedule_multiple(tmp_path):
    # config validation fires before any file access
    assert main(["--set", "n_trn=123", "train", "x.hsls",
                 "-o", str(tmp_path / "d.txt")]) == 1


def test_train_deterministic_bytes(short_fixture, tmp_path):
    cache = tmp_path / "mix.hsls"
    main(FAST_TRANSFORM + ["--set", "hop=4096",
                           "transform", str(short_fixture / "mix.wav"),
                           "-o", str(cache)])
    args = ["--set", "n_trn=40", "--set", "prune_interval=20",
            "--set", "n_har=10", "--set", "n_ins=1",
            "train", str(cache)]
    d1 = tmp_path / "d1.txt"
    d2 = tmp_path / "d2.txt"
    assert main(args + ["-o", str(d1)]) == 0
    assert main(args + ["-o", str(d2)]) == 0
    assert d1.read_bytes() == d2.read_bytes()


def test_eval_identical_files(short_fixture, capsys):
    ref = str(short_fixture / "ref0.wav")
    code = main(["eval", "--refs", ref, "--ests", ref])
    assert code == 0
    out = capsys.readouterr().out
    assert "sdr_db=inf" in out


def test_readme_workflow_end_to_end(short_fixture, tmp_path, capsys):
    small = FAST_TRANSFORM + ["--set", "hop=4096", "--set", "n_trn=4",
                              "--set", "prune_interval=2"]
    mix = str(short_fixture / "mix.wav")
    cache = tmp_path / "mix.hsls"
    dictionary = tmp_path / "dict.txt"
    stems = tmp_path / "stems"
    assert main(small + ["transform", mix, "-o", str(cache)]) == 0
    assert main(small + ["train", str(cache), "-o", str(dictionary)]) == 0
    assert main(small + ["separate", mix, str(dictionary),
                         "--outdir", str(stems)]) == 0
    ests = [stems / f"mix.inst{k}.wav" for k in range(2)]
    assert all(read_wav(p).samples.size == read_wav(mix).samples.size
               for p in ests)
    capsys.readouterr()
    assert main(["eval", "--refs", str(short_fixture / "ref0.wav"),
                 str(short_fixture / "ref1.wav"),
                 "--ests", *map(str, ests)]) == 0
    assert "sdr_db=" in capsys.readouterr().out
