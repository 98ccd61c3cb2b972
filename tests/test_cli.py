import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harmosep
from harmosep.audio import AudioClip, read_wav, write_wav
from harmosep.cli import DEFAULTS, load_config, main
from harmosep.dictlearn import save_dictionary, train
from harmosep.errors import ConfigError
from harmosep.logspect import load_log_cache
from harmosep.metrics import bss_eval
from harmosep.stft import StftConfig

FAST_TRANSFORM = ["--set", "transform_n_spr=40", "--set",
                  "transform_n_pre=40", "--set", "transform_n_itr=2"]
# Training on 6 s of the seed-0 fixture with TRANSFER_CONFIG, then
# separating that same recording, scores 19.4 and 21.4 dB; the floor
# leaves 10 dB below the lower of the two for the change of recording.
TRANSFER_CONFIG = ["--set", "hop=4096", "--set", "transform_n_spr=20",
                   "--set", "transform_n_pre=20", "--set",
                   "transform_n_itr=1", "--set", "n_trn=120",
                   "--set", "prune_interval=60", "--set", "n_har=10"]
TRANSFER_SDR_FLOOR_DB = 19.4 - 10.0


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


@pytest.mark.parametrize("kind, duration", [
    ("octave", "0"), ("octave", "-1"), ("octave", "1e-9"),
    ("octave", "nan"), ("octave", "inf"),
    ("standard", "nan"), ("standard", "inf"), ("standard", "0"),
    ("standard", "1e-9"),
])
def test_synth_duration_without_samples_exits_2(tmp_path, capsys, kind,
                                                duration):
    code = main(["synth", "--outdir", str(tmp_path / "out"), "--kind", kind,
                 "--duration", duration])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("harmosep:") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


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


@pytest.fixture(scope="module")
def short_cache(short_fixture, tmp_path_factory):
    cache = tmp_path_factory.mktemp("cache") / "mix.hsls"
    assert main(FAST_TRANSFORM + ["--set", "hop=4096", "transform",
                                  str(short_fixture / "mix.wav"),
                                  "-o", str(cache)]) == 0
    return cache


@pytest.mark.parametrize("command, setting", [
    ("transform", "hop=0"),
    ("transform", "hop=-256"),
    ("transform", "zeta=0"),
    ("transform", "zeta=1e308"),
    ("transform", "window_halfwidth=0"),
    ("transform", "log_bins=0"),
    ("transform", "alpha0=0"),
    ("transform", "f0=-1"),
    ("train", "prune_interval=0"),
    ("train", "n_har=0"),
    ("train", "seed=-1"),
])
def test_out_of_range_value_exits_1(short_fixture, short_cache, tmp_path,
                                    capsys, command, setting):
    source = {"transform": short_fixture / "mix.wav",
              "train": short_cache}[command]
    code = main(FAST_TRANSFORM + ["--set", "hop=4096", "--set", setting,
                                  command, str(source),
                                  "-o", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    assert setting.split("=")[0] in err
    assert list(tmp_path.iterdir()) == []


def test_missing_input_exits_2(tmp_path):
    assert main(["transform", str(tmp_path / "none.wav"),
                 "-o", str(tmp_path / "o.hsls")]) == 2
    assert main(["separate", str(tmp_path / "none.wav"),
                 str(tmp_path / "none.dict")]) == 2


def test_config_file_not_utf8_exits_1(tmp_path, capsys):
    config = tmp_path / "bin.cfg"
    config.write_bytes(b"seed=1\n\xff\xfe\x00\x81\n")
    assert main(["--config", str(config), "train", "x.hsls",
                 "-o", str(tmp_path / "d.txt")]) == 1
    assert "Traceback" not in capsys.readouterr().err
    with pytest.raises(ConfigError):
        load_config(config)


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


def test_train_uses_the_configured_window(short_fixture, tmp_path):
    # The harmonic family's peak width comes from the analysis window,
    # so training must use the window the transform used: the cache
    # carries it, and train reads no window keys.
    window = StftConfig(window_halfwidth=4, hop_samples=4096)
    cache = tmp_path / "mix.hsls"
    assert main(FAST_TRANSFORM + ["--set", "window_halfwidth=4",
                                  "--set", "hop=4096", "transform",
                                  str(short_fixture / "mix.wav"),
                                  "-o", str(cache)]) == 0
    U = load_log_cache(cache)
    assert U.stft == window
    budget = ["--set", "n_trn=4", "--set", "prune_interval=2",
              "--set", "n_har=10", "--set", "n_ins=1"]
    from_cli = tmp_path / "cli.txt"
    assert main(budget + ["train", str(cache), "-o", str(from_cli)]) == 0
    for stft_cfg in (None, window):
        dictionary, kept = train(U, 1, 1, 4, 0, n_har=10, prune_interval=2,
                                 stft_cfg=stft_cfg)
        from_library = tmp_path / "library.txt"
        save_dictionary(from_library, dictionary, kept)
        assert from_cli.read_bytes() == from_library.read_bytes()


def test_eval_identical_files(short_fixture, capsys):
    ref = str(short_fixture / "ref0.wav")
    code = main(["eval", "--refs", ref, "--ests", ref])
    assert code == 0
    out = capsys.readouterr().out
    assert "sdr_db=inf" in out


def test_eval_refuses_clips_of_different_sample_rates(tmp_path, capsys):
    t = np.arange(4800)
    for name, rate in (("a48.wav", 48000), ("a44.wav", 44100)):
        write_wav(AudioClip(0.3 * np.sin(2 * np.pi * 440.0 * t / rate), rate),
                  tmp_path / name)
    code = main(["eval", "--refs", str(tmp_path / "a48.wav"),
                 "--ests", str(tmp_path / "a44.wav")])
    captured = capsys.readouterr()
    assert code == 2
    assert "sample rate" in captured.err and "Traceback" not in captured.err
    assert "sdr_db" not in captured.out


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


@pytest.mark.parametrize("alpha0", ["0.001", "0.01"])
def test_separate_on_a_coarse_log_axis(short_fixture, tmp_path, alpha0):
    # Bins this wide put trained fundamentals where 2 ** (mu / alpha0)
    # overflows a float (0.001) or an int64 window slot (0.01).
    small = ["--set", "hop=4096", "--set", "transform_n_spr=10", "--set",
             "transform_n_pre=10", "--set", "transform_n_itr=1", "--set",
             "n_trn=4", "--set", "prune_interval=2", "--set",
             f"alpha0={alpha0}"]
    mix = str(short_fixture / "mix.wav")
    cache, dictionary = tmp_path / "mix.hsls", tmp_path / "dict.txt"
    assert main(small + ["transform", mix, "-o", str(cache)]) == 0
    assert main(small + ["train", str(cache), "-o", str(dictionary)]) == 0
    env = dict(os.environ,
               PYTHONPATH=str(Path(harmosep.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-m", "harmosep.cli", *small, "separate", mix,
         str(dictionary), "--outdir", str(tmp_path / "stems")],
        env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert "Traceback" not in run.stderr
    assert "RuntimeWarning" not in run.stderr


def test_dictionary_transfers_to_another_recording(tmp_path):
    # The paper's claim: a dictionary learned on one recording separates
    # another recording of the same instruments without retraining.
    train_clip = tmp_path / "seed0"
    other_clip = tmp_path / "seed1"
    assert main(["--set", "seed=0", "synth", "--outdir", str(train_clip),
                 "--duration", "6"]) == 0
    assert main(["--set", "seed=1", "synth", "--outdir", str(other_clip),
                 "--duration", "3"]) == 0
    cache = tmp_path / "seed0.hsls"
    dictionary = tmp_path / "dict.txt"
    stems = tmp_path / "stems"
    assert main(TRANSFER_CONFIG + ["transform", str(train_clip / "mix.wav"),
                                   "-o", str(cache)]) == 0
    assert main(TRANSFER_CONFIG + ["train", str(cache),
                                   "-o", str(dictionary)]) == 0
    assert main(TRANSFER_CONFIG + ["separate", str(other_clip / "mix.wav"),
                                   str(dictionary),
                                   "--outdir", str(stems)]) == 0
    refs = [read_wav(other_clip / f"ref{k}.wav") for k in range(2)]
    ests = [read_wav(stems / f"mix.inst{k}.wav") for k in range(2)]
    assert bss_eval(refs, ests).sdr_db.min() >= TRANSFER_SDR_FLOOR_DB


@pytest.mark.parametrize("given, expected", [(None, "1"), ("2", "2")])
def test_importing_the_package_caps_blas_threads(given, expected):
    # The console script imports the package before its cli module.
    env = {k: v for k, v in os.environ.items()
           if not k.endswith("_THREADS")}
    env["PYTHONPATH"] = str(Path(harmosep.__file__).parents[1])
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    out = subprocess.run(
        [sys.executable, "-c", "import os, harmosep.cli; "
         "print(os.environ['OPENBLAS_NUM_THREADS'], "
         "os.environ['OMP_NUM_THREADS'])"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == [expected, "1"]
