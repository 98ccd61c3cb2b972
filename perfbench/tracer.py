"""Span tracer that wraps harmosep's functions where they are looked up.

The package itself is not edited.  Each entry of :data:`BINDINGS` names
a namespace (a module or a dict) and a key in it; while a
:class:`Tracer` is installed that key holds a wrapper recording one
span per call.  Wrapping the binding rather than the function object
matters: ``logspect`` and ``dictlearn`` import the same kernel
functions under their own names, so wrapping each binding tells the
Gaussian-peak family (``kernels.peak.*``) from the harmonic family
(``kernels.harm.*``).

A span is ``(name, start, end, parent, run, info)``: ``parent`` is the
index of the enclosing span (-1 at top level), ``run`` the job the span
belongs to, and ``info`` a small summary of the arguments or result
taken by the binding's probe, or the exception's name when the call
raised.  Spans stay in memory until :meth:`Tracer.save`.
"""

import importlib
import math
import time

import numpy as np

from harmosep import kernels


def _window_width(stds):
    """Window width in samples, as ``kernels._windows`` cuts it."""
    if len(stds) == 0:
        return 0
    return 2 * (int(math.ceil(kernels.CUTOFF_SIGMAS * float(np.max(stds))))
                + 1) + 1


# Window-sized arrays each kernel materializes, in bytes per window
# element.  Evaluating the windows makes int64 indices, a bool mask and
# four float64 arrays (distances, their squares, the exponent, the
# Gaussian); forward and accumulate add the amplitude product and the
# scatter index; the adjoint makes clipped indices and five float64
# arrays (gathered and masked weights, three weighted products);
# backprop does both without the forward's two.
_BYTES_PER_ELEM = {"forward": 8 + 1 + 4 * 8 + 2 * 8,
                   "accumulate": 8 + 1 + 4 * 8 + 2 * 8,
                   "adjoint": 8 + 5 * 8,
                   "backprop": 8 + 1 + 4 * 8 + 8 + 5 * 8}


def _kernel_probe(kind):
    """Bumps and window elements of one kernel call, from its
    arguments only."""
    def probe(args, kwargs, result):
        if kind == "adjoint":
            cache = args[1]
            if cache is None:
                return (0, 0, 0)
            idx = cache[0]
            return (idx.shape[0], idx.size,
                    idx.size * _BYTES_PER_ELEM[kind])
        # forward(length, centers, amps, stds), accumulate(out, centers,
        # amps, stds), backprop(weights, centers, stds)
        centers = args[1]
        stds = args[2] if kind == "backprop" else args[3]
        n = len(centers)
        elems = n * _window_width(np.asarray(stds))
        return (n, elems, elems * _BYTES_PER_ELEM[kind])
    return probe


def _n_atoms(args, kwargs, result):
    return len(args[1])


def _pursue_probe(args, kwargs, result):
    return (len(result.atoms), args[2].n_spr)


def _select_probe(args, kwargs, result):
    return len(result[0])


def _minimize_probe(args, kwargs, result):
    return kwargs.get("max_evals", 1000)


def _frames_probe(args, kwargs, result):
    return result.shape[1]


_KERNELS = ("forward", "adjoint", "accumulate", "backprop")

# (span name, module, key or (dict attribute, key), probe)
BINDINGS = (
    ("stft.stft_magnitude", "harmosep.stft", "stft_magnitude", None),
    ("stft.stft_complex", "harmosep.stft", "stft_complex", _frames_probe),
    ("stft.istft", "harmosep.stft", "istft", None),
    ("stft.griffin_lim", "harmosep.separate", "griffin_lim", None),
    ("logspect.to_log_spectrogram", "harmosep.logspect",
     "to_log_spectrogram", None),
    ("logspect.pursue", "harmosep.logspect", "pursue", _pursue_probe),
    *((f"kernels.peak.{k}", "harmosep.logspect", f"gaussian_{k}",
       _kernel_probe(k)) for k in _KERNELS),
    *((f"kernels.harm.{k}", "harmosep.dictlearn", f"gaussian_{k}",
       _kernel_probe(k)) for k in _KERNELS),
    ("kernels.render.accumulate", "harmosep.separate",
     "gaussian_accumulate", _kernel_probe("accumulate")),
    ("pursuit.loss", "harmosep.pursuit", "loss", _n_atoms),
    ("pursuit.lifted_residual", "harmosep.pursuit", "lifted_residual",
     None),
    ("pursuit.refine", "harmosep.pursuit", "_refine", None),
    ("pursuit.select", "harmosep.pursuit", ("_SELECTORS", "xcorr"),
     _select_probe),
    ("pursuit.select", "harmosep.pursuit", ("_SELECTORS", "peaks"),
     _select_probe),
    ("optim.minimize_box", "harmosep.pursuit", "minimize_box",
     _minimize_probe),
    ("optim.adam_step", "harmosep.dictlearn", "adam_step", None),
    ("dictlearn.train", "harmosep.dictlearn", "train", None),
    ("dictlearn.pursue", "harmosep.dictlearn", "pursue", _pursue_probe),
    ("dictlearn.dict_grad", "harmosep.dictlearn", "loss", _n_atoms),
    ("dictlearn.harmonic_family", "harmosep.dictlearn", "harmonic_family",
     None),
    ("separate.harmonic_family", "harmosep.separate", "harmonic_family",
     None),
    ("separate.separate", "harmosep.separate", "separate", None),
    ("separate.pursue", "harmosep.separate", "pursue", _pursue_probe),
    ("separate.reconstruct", "harmosep.separate", "reconstruct_instrument",
     None),
    ("separate.apply_mask", "harmosep.separate", "apply_mask", None),
    ("metrics.bss_eval", "harmosep.metrics", "bss_eval", None),
)


def _namespace(module_name, key):
    # importlib, not ``import harmosep.separate as m``: the package
    # re-exports the function ``separate``, which shadows the submodule
    # as a package attribute.
    module = importlib.import_module(module_name)
    if isinstance(key, tuple):
        return getattr(module, key[0]), key[1]
    return module, key


def _get(ns, key):
    return ns[key] if isinstance(ns, dict) else getattr(ns, key)


def _set(ns, key, value):
    if isinstance(ns, dict):
        ns[key] = value
    else:
        setattr(ns, key, value)


class Tracer:
    """Records spans while installed; a context manager that restores
    every wrapped binding on exit."""

    def __init__(self):
        self.names = sorted({b[0] for b in BINDINGS})
        self.spans = []
        self.run = 0
        self._stack = []
        self._saved = []

    def __enter__(self):
        for name, module_name, key, probe in BINDINGS:
            ns, k = _namespace(module_name, key)
            original = _get(ns, k)
            self._saved.append((ns, k, original))
            _set(ns, k, self._wrapper(name, original, probe))
        return self

    def __exit__(self, *exc):
        while self._saved:
            ns, k, original = self._saved.pop()
            _set(ns, k, original)
        return False

    def _wrapper(self, name, original, probe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                spans[idx] = (name, start, clock(), parent, self.run,
                              type(exc).__name__)
                raise
            finally:
                stack.pop()
            end = clock()
            info = probe(args, kwargs, result) if probe else None
            spans[idx] = (name, start, end, parent, self.run, info)
            return result

        traced.__wrapped__ = original
        return traced

    def calls(self):
        """Number of spans per name."""
        counts = dict.fromkeys(self.names, 0)
        for span in self.spans:
            counts[span[0]] += 1
        return counts

    def save(self, path):
        """Write the spans as arrays; ``info`` is kept as text."""
        ids = {n: i for i, n in enumerate(self.names)}
        np.savez(path,
                 names=np.array(self.names),
                 name=np.array([ids[s[0]] for s in self.spans],
                               dtype=np.int32),
                 start=np.array([s[1] for s in self.spans]),
                 end=np.array([s[2] for s in self.spans]),
                 parent=np.array([s[3] for s in self.spans],
                                 dtype=np.int64),
                 run=np.array([s[4] for s in self.spans], dtype=np.int32),
                 info=np.array([repr(s[5]) for s in self.spans]))
