"""Per-layer metrics computed from a tracer's spans.

Every metric is a total or a mean per traced job, so runs with a
different number of traced jobs stay comparable.  A layer a workload
does not reach reports 0.  A ``.ptail`` metric is the highest whole
percentile with at least ten samples beyond it; which percentile that
is, and the sample count, are returned beside the metrics.
"""

import math
from collections import defaultdict

import numpy as np

# Metric name -> unit, in report order.
UNITS = {
    "pursuit.loss_calls": "count",
    "pursuit.loss_us.mean": "us",
    "pursuit.loss_self_us.mean": "us",
    "pursuit.atoms_per_loss.mean": "count",
    "pursuit.select_calls": "count",
    "pursuit.select_s": "s",
    "pursuit.refines_per_pursue": "count",
    "pursuit.accepted_frac": "ratio",
    "kernels.peak.calls": "count",
    "kernels.peak.s": "s",
    "kernels.peak.bumps_per_call": "count",
    "kernels.harm.calls": "count",
    "kernels.harm.s": "s",
    "kernels.harm.bumps_per_call": "count",
    "kernels.accumulate_s": "s",
    "kernels.window_elems": "count",
    "kernels.computed_bytes": "B",
    "optim.refine_calls": "count",
    "optim.refine_self_s": "s",
    "optim.evals_per_refine.mean": "count",
    "optim.budget_hit_frac": "ratio",
    "optim.optimization_errors": "count",
    "optim.adam_step_s": "s",
    "logspect.self_s": "s",
    "logspect.frame_ms.p50": "ms",
    "logspect.frame_ms.ptail": "ms",
    "logspect.atoms_per_frame.mean": "count",
    "logspect.atoms_per_frame.max": "count",
    "logspect.budget_full_frac": "ratio",
    "dictlearn.steps": "count",
    "dictlearn.step_ms.p50": "ms",
    "dictlearn.step_ms.ptail": "ms",
    "dictlearn.self_s": "s",
    "dictlearn.dict_grad_s": "s",
    "dictlearn.family_builds": "count",
    "dictlearn.empty_step_frac": "ratio",
    "separate.frame_ms.p50": "ms",
    "separate.frame_ms.ptail": "ms",
    "separate.atoms_per_frame.mean": "count",
    "separate.reconstruct_s": "s",
    "separate.mask_s": "s",
    "separate.self_s": "s",
    "stft.frames": "count",
    "stft.stft_complex_calls": "count",
    "stft.stft_complex_s": "s",
    "stft.istft_calls": "count",
    "stft.istft_s": "s",
    "stft.griffin_lim_s": "s",
    "metrics.bss_eval_s": "s",
    "trace.overhead_frac": "ratio",
}


def tail(values):
    """``(p50, ptail, pct, n)``: ``pct`` is the highest whole percentile
    with at least ten samples beyond it, and ``ptail`` its value."""
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0, 0
    pct = max(0, math.floor(100.0 * (1.0 - 10.0 / n)))
    return (float(np.percentile(values, 50)),
            float(np.percentile(values, pct)), pct, n)


class _Spans:
    """Index of spans by name with durations, self times and children."""

    def __init__(self, spans, runs):
        keep = [i for i, s in enumerate(spans) if s[4] in runs]
        self.spans = spans
        self.dur = {}
        child_time = defaultdict(float)
        self.children = defaultdict(list)
        self.by_name = defaultdict(list)
        for i in keep:
            name, start, end, parent = spans[i][:4]
            self.dur[i] = end - start
            self.by_name[name].append(i)
            if parent >= 0:
                child_time[parent] += end - start
                self.children[parent].append(i)
        # Children run inside their parent on one thread, so the part
        # of the parent they cover is the sum of their durations.
        self.self_time = {i: d - child_time[i] for i, d in self.dur.items()}

    def ids(self, *names):
        return [i for n in names for i in self.by_name.get(n, ())]

    def count(self, *names):
        return len(self.ids(*names))

    def total(self, *names):
        return sum(self.dur[i] for i in self.ids(*names))

    def self_total(self, *names):
        return sum(self.self_time[i] for i in self.ids(*names))

    def info(self, *names):
        """Probe summaries of the calls that returned; a call that
        raised carries the exception's name instead."""
        return [self.spans[i][5] for i in self.ids(*names)
                if not isinstance(self.spans[i][5], str)]

    def raised(self, name, exception):
        return sum(self.spans[i][5] == exception for i in self.ids(name))

    def durations(self, *names):
        return np.array([self.dur[i] for i in self.ids(*names)])


def _mean(values):
    return float(np.mean(values)) if len(values) else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, runs, overhead_frac):
    """All metrics of :data:`UNITS` over the spans of the given runs,
    and ``{metric: (percentile, sample count)}`` for the ``.ptail``
    metrics."""
    s = _Spans(spans, set(runs))
    n_jobs = len(runs)
    out = {}
    samples = {}

    def timing(prefix, values_ms):
        p50, ptail, pct, n = tail(values_ms)
        out[prefix + ".p50"] = p50
        out[prefix + ".ptail"] = ptail
        samples[prefix + ".ptail"] = (pct, n)

    loss = s.ids("pursuit.loss")
    pursues = ("logspect.pursue", "dictlearn.pursue", "separate.pursue")
    out["pursuit.loss_calls"] = len(loss) / n_jobs
    out["pursuit.loss_us.mean"] = 1e6 * _mean([s.dur[i] for i in loss])
    out["pursuit.loss_self_us.mean"] = 1e6 * _mean(
        [s.self_time[i] for i in loss])
    out["pursuit.atoms_per_loss.mean"] = _mean(s.info("pursuit.loss"))
    out["pursuit.select_calls"] = s.count("pursuit.select") / n_jobs
    out["pursuit.select_s"] = s.total("pursuit.select") / n_jobs
    out["pursuit.refines_per_pursue"] = _ratio(s.count("pursuit.refine"),
                                               s.count(*pursues))
    out["pursuit.accepted_frac"] = _ratio(
        sum(a for a, _ in s.info(*pursues)), sum(s.info("pursuit.select")))

    kernel_names = {fam: [f"kernels.{fam}.{k}" for k in
                          ("forward", "adjoint", "accumulate", "backprop")]
                    for fam in ("peak", "harm")}
    all_kernels = (kernel_names["peak"] + kernel_names["harm"]
                   + ["kernels.render.accumulate"])
    for fam, names in kernel_names.items():
        out[f"kernels.{fam}.calls"] = s.count(*names) / n_jobs
        out[f"kernels.{fam}.s"] = s.total(*names) / n_jobs
        out[f"kernels.{fam}.bumps_per_call"] = _mean(
            [info[0] for info in s.info(*names)])
    out["kernels.accumulate_s"] = s.total(
        "kernels.peak.accumulate", "kernels.harm.accumulate",
        "kernels.render.accumulate") / n_jobs
    kinfo = s.info(*all_kernels)
    out["kernels.window_elems"] = sum(k[1] for k in kinfo) / n_jobs
    out["kernels.computed_bytes"] = sum(k[2] for k in kinfo) / n_jobs

    refines = s.ids("optim.minimize_box")
    evals = [sum(1 for c in s.children[i]
                 if s.spans[c][0] == "pursuit.loss") for i in refines]
    budgets = [s.spans[i][5] for i in refines]
    out["optim.refine_calls"] = len(refines) / n_jobs
    out["optim.refine_self_s"] = s.self_total("optim.minimize_box") / n_jobs
    out["optim.evals_per_refine.mean"] = _mean(evals)
    out["optim.budget_hit_frac"] = _ratio(
        sum(isinstance(b, int) and e >= b for e, b in zip(evals, budgets)),
        len(refines))
    out["optim.optimization_errors"] = s.raised(
        "optim.minimize_box", "OptimizationError") / n_jobs
    out["optim.adam_step_s"] = s.total("optim.adam_step") / n_jobs

    frames = s.info("logspect.pursue")
    out["logspect.self_s"] = s.self_total(
        "logspect.to_log_spectrogram") / n_jobs
    timing("logspect.frame_ms", 1e3 * s.durations("logspect.pursue"))
    out["logspect.atoms_per_frame.mean"] = _mean([a for a, _ in frames])
    out["logspect.atoms_per_frame.max"] = max((a for a, _ in frames),
                                              default=0)
    out["logspect.budget_full_frac"] = _ratio(
        sum(a >= budget for a, budget in frames), len(frames))

    steps = s.ids("dictlearn.pursue")
    gaps = []
    for train in s.ids("dictlearn.train"):
        starts = [s.spans[c][1] for c in s.children[train]
                  if s.spans[c][0] == "dictlearn.pursue"]
        gaps.extend(np.diff(starts))
    out["dictlearn.steps"] = len(steps) / n_jobs
    timing("dictlearn.step_ms", 1e3 * np.array(gaps))
    out["dictlearn.self_s"] = s.self_total("dictlearn.train") / n_jobs
    out["dictlearn.dict_grad_s"] = s.total("dictlearn.dict_grad") / n_jobs
    out["dictlearn.family_builds"] = s.count(
        "dictlearn.harmonic_family") / n_jobs
    out["dictlearn.empty_step_frac"] = _ratio(
        sum(a == 0 for a, _ in s.info("dictlearn.pursue")), len(steps))

    timing("separate.frame_ms", 1e3 * s.durations("separate.pursue"))
    out["separate.atoms_per_frame.mean"] = _mean(
        [a for a, _ in s.info("separate.pursue")])
    out["separate.reconstruct_s"] = s.total("separate.reconstruct") / n_jobs
    out["separate.mask_s"] = s.total("separate.apply_mask") / n_jobs
    out["separate.self_s"] = s.self_total("separate.separate") / n_jobs

    out["stft.frames"] = sum(s.info("stft.stft_complex")) / n_jobs
    out["stft.stft_complex_calls"] = s.count("stft.stft_complex") / n_jobs
    out["stft.stft_complex_s"] = s.total("stft.stft_complex") / n_jobs
    out["stft.istft_calls"] = s.count("stft.istft") / n_jobs
    out["stft.istft_s"] = s.total("stft.istft") / n_jobs
    out["stft.griffin_lim_s"] = s.total("stft.griffin_lim") / n_jobs

    out["metrics.bss_eval_s"] = s.total("metrics.bss_eval") / n_jobs
    out["trace.overhead_frac"] = overhead_frac
    return {k: out[k] for k in UNITS}, samples
