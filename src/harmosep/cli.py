"""Batch command-line front end.

Commands::

    harmosep transform  input.wav -o cache.hsls [--pgm out.pgm]
    harmosep train      cache.hsls -o dict.txt
    harmosep separate   input.wav dict.txt --outdir DIR
    harmosep eval       --refs r0.wav r1.wav --ests e0.wav e1.wav
    harmosep synth      --outdir DIR [--kind standard|octave]

All numeric knobs live in a flat ``key=value`` config file selected
with ``--config``; individual ``--set key=value`` flags override the
file, which overrides the defaults.  Every command is deterministic
given its inputs, config and seed.  Exit codes: 0 success, 1 usage or
configuration error, 2 data error.
"""

import argparse
import os
import sys
import tempfile

import numpy as np

from . import dictlearn, fixtures, logspect, metrics
from .audio import read_wav, write_wav
from .errors import ConfigError, HarmosepError
from .separate import separate
from .stft import LogAxis, StftConfig, save_pgm, stft_magnitude

_TRANSFORM = logspect.transform_config()
DEFAULTS = {
    "hop": StftConfig.hop_samples,
    "zeta": StftConfig.zeta_samples,
    "window_halfwidth": StftConfig.window_halfwidth,
    "f0": LogAxis.f0,
    "alpha0": LogAxis.alpha0,
    "log_bins": LogAxis.n_bins,
    "n_ins": 2,
    "n_spr": 1,
    "n_trn": 2000,
    "seed": 0,
    "n_har": dictlearn.DEFAULT_N_HAR,
    "prune_interval": dictlearn.DEFAULT_PRUNE_INTERVAL,
    "transform_n_spr": _TRANSFORM.n_spr,
    "transform_n_pre": _TRANSFORM.n_pre,
    "transform_n_itr": _TRANSFORM.n_itr,
    "use_mask": True,
    "gl_iters": 1,
}


def _parse_value(key, text):
    default = DEFAULTS[key]
    if isinstance(default, bool):
        low = text.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"cannot parse boolean {key}={text!r}")
    try:
        return type(default)(text)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key}={text!r}") from exc


def load_config(path=None, overrides=()):
    """Merge defaults, a key=value config file, and --set overrides (in
    increasing precedence)."""
    cfg = dict(DEFAULTS)

    def apply(key, value, origin):
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r} ({origin})")
        cfg[key] = _parse_value(key, value)

    if path is not None:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(
                        f"{path}:{lineno}: expected key=value")
                apply(*line.split("=", 1), origin=f"{path}:{lineno}")
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        apply(*item.split("=", 1), origin="--set")
    # Every integer key counts something, except the seed.
    for key, value in cfg.items():
        least = 0 if key == "seed" else 1
        if type(value) is int and value < least:
            raise ConfigError(f"{key} must be at least {least}, "
                              f"got {value}")
    # The window and the axis check their own fields.
    stft_config(cfg, StftConfig.sample_rate_hz)
    log_axis(cfg)
    if cfg["n_trn"] % cfg["prune_interval"] != 0:
        raise ConfigError("n_trn must be a multiple of prune_interval")
    return cfg


def stft_config(cfg, sample_rate_hz):
    return StftConfig(sample_rate_hz=sample_rate_hz,
                      zeta_samples=cfg["zeta"], hop_samples=cfg["hop"],
                      window_halfwidth=cfg["window_halfwidth"])


def log_axis(cfg):
    return LogAxis(f0=cfg["f0"], alpha0=cfg["alpha0"],
                   n_bins=cfg["log_bins"])


def _atomic_write(path, writer):
    """Write through a temp file in the target directory so failed runs
    leave no partial output behind."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".harmosep-tmp-")
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _transform(clip, cfg):
    scfg = stft_config(cfg, clip.sample_rate_hz)
    Z, phase = stft_magnitude(clip, scfg)
    pursuit_cfg = logspect.transform_config(
        n_spr=cfg["transform_n_spr"], n_pre=cfg["transform_n_pre"],
        n_itr=cfg["transform_n_itr"])
    U, _ = logspect.to_log_spectrogram(Z, log_axis(cfg),
                                       pursuit_cfg=pursuit_cfg)
    return U, Z, phase


def cmd_transform(args, cfg):
    clip = read_wav(args.input)
    U, _, _ = _transform(clip, cfg)
    _atomic_write(args.output,
                  lambda tmp: logspect.save_log_cache(tmp, U))
    if args.pgm:
        _atomic_write(args.pgm, lambda tmp: save_pgm(U, tmp))
    print(f"wrote {args.output}: {U.n_bins} bins x {U.n_frames} frames")
    return 0


def cmd_train(args, cfg):
    U = logspect.load_log_cache(args.cache)
    # The sample rate enters neither the peak width nor the window.
    scfg = stft_config(cfg, StftConfig.sample_rate_hz)
    dictionary, kept = dictlearn.train(
        U, cfg["n_ins"], cfg["n_spr"], cfg["n_trn"], cfg["seed"],
        n_har=cfg["n_har"], prune_interval=cfg["prune_interval"],
        stft_cfg=scfg)
    _atomic_write(args.output,
                  lambda tmp: dictlearn.save_dictionary(tmp, dictionary,
                                                        kept))
    print(f"wrote {args.output}: kept columns "
          + " ".join(str(k) for k in kept))
    return 0


def cmd_separate(args, cfg):
    clip = read_wav(args.input)
    dictionary, kept = dictlearn.load_dictionary(args.dictionary)
    U, Z, phase = _transform(clip, cfg)
    result = separate(U, Z, phase, dictionary, kept, cfg["n_spr"],
                      use_mask=cfg["use_mask"], gl_iters=cfg["gl_iters"],
                      length=len(clip.samples))
    os.makedirs(args.outdir, exist_ok=True)
    stem = os.path.splitext(os.path.basename(args.input))[0]
    for k, signal in enumerate(result.signals):
        path = os.path.join(args.outdir, f"{stem}.inst{k}.wav")
        _atomic_write(path, lambda tmp, s=signal:
                      write_wav(s, tmp, dtype="float32"))
        n_atoms = sum(np.count_nonzero(atoms.eta == k)
                      for atoms in result.atoms_per_frame)
        print(f"wrote {path} ({n_atoms} tones)")
    return 0


def cmd_eval(args, cfg):
    refs = [read_wav(p) for p in args.refs]
    ests = [read_wav(p) for p in args.ests]
    lengths = {len(c.samples) for c in refs} | {len(c.samples)
                                               for c in ests}
    if len(lengths) > 1:
        print("warning: length mismatch, padding with silence",
              file=sys.stderr)
    scores = metrics.bss_eval(refs, ests)
    print(metrics.format_report(scores))
    return 0


def cmd_synth(args, cfg):
    if args.kind == "standard":
        mix, refs = fixtures.two_instrument_fixture(
            duration_s=args.duration, seed=cfg["seed"])
    else:
        mix, refs = fixtures.octave_overlap_fixture(
            duration_s=args.duration)
    os.makedirs(args.outdir, exist_ok=True)
    out = [("mix.wav", mix)] + [(f"ref{k}.wav", r)
                                for k, r in enumerate(refs)]
    for name, clip in out:
        path = os.path.join(args.outdir, name)
        _atomic_write(path, lambda tmp, c=clip:
                      write_wav(c, tmp, dtype="float32"))
        print(f"wrote {path}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser():
    parser = _Parser(prog="harmosep",
                     description="Sparse-pursuit source separation for "
                                 "polyphonic music.")
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        dest="overrides", help="override one config key")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="wav -> log-spectrogram cache")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--pgm", help="also export a PGM rendering")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("train", help="cache -> dictionary file")
    p.add_argument("cache")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("separate", help="wav + dictionary -> stems")
    p.add_argument("input")
    p.add_argument("dictionary")
    p.add_argument("--outdir", default=".")
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("eval", help="score stems against references")
    p.add_argument("--refs", nargs="+", required=True)
    p.add_argument("--ests", nargs="+", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate synthetic test material")
    p.add_argument("--outdir", default=".")
    p.add_argument("--kind", choices=("standard", "octave"),
                   default="standard")
    p.add_argument("--duration", type=float, default=20.0)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config, args.overrides)
        return args.func(args, cfg)
    except SystemExit as exc:
        return exc.code or 0
    except ConfigError as exc:
        print(f"harmosep: {exc}", file=sys.stderr)
        return 1
    except (OSError, HarmosepError) as exc:
        print(f"harmosep: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
