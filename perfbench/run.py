"""harmosep benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload desk --seed 0 --seconds 38 --trace 0

Run it from the repository root; it imports the package from ``src/``.
The load is a closed loop on one thread: jobs of the named workload run
back to back until the next one would end after ``--seconds``, with at
least one job.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced jobs of the same seed and
reports the per-layer metrics, computed from spans recorded around the
package's functions (see tracer.py), plus the tracing overhead.

Every job's outputs are checked and hashed; all jobs of a run must
give the same digest.  Human-readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record, with the environment, is
also written to ``perfbench/out/``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Set-ups timed before each job; with two to five jobs a run times eight
# to twenty, spread over the whole run rather than bunched at its start,
# so that one slow second of the machine does not decide setup_s.
SETUPS_PER_JOB = 4
END_TO_END_UNITS = {"setup_s": "s", "rtf": "x", "transform_s": "s",
                    "peak_rss_mb": "MB"}
# Stages and quality figures that not every workload has; reported on
# their own lines and in the record, not in the final JSON.
STAGE_UNITS = {"train_s": "s", "separate_s": "s", "eval_s": "s",
               "sdr_db_mean": "dB", "sdr_db_min": "dB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke runs the same code paths on tiny inputs")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def cap_threads():
    """Give BLAS and OpenMP pools one thread; must run before NumPy is
    imported.

    The load is one single-threaded job at a time.  Its vector
    operations are too small to split, and a second OpenBLAS thread
    only spins: it doubles the CPU time, adds about 5% to the wall time
    and makes the wall time follow whatever else runs on the machine.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def git_commit():
    """The checked-out commit, read from ``.git`` without running git;
    ``unknown`` outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(args):
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_commit": git_commit(),
            "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
            "workload": args.workload, "size": args.size, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def peak_rss_mb():
    """Peak resident set of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def timed_setup(wl, workload, seed, times):
    """Set the inputs up once; appends the time taken to ``times``."""
    t0 = time.perf_counter()
    inputs = wl.setup(workload, seed)
    times.append(time.perf_counter() - t0)
    return inputs


def closed_loop(seconds, step):
    """Call ``step()`` back to back until the next call, judged by the
    median so far, would end after ``seconds``; at least once."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(step())
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > seconds:
            return results


def guarded(job):
    """Run one job; a job that raises counts as failed and the loop goes
    on."""
    import workloads as wl
    t0 = time.perf_counter()
    try:
        return job()
    except Exception:
        return wl.JobResult({}, time.perf_counter() - t0, None, None,
                            ["raised " + traceback.format_exc()])


def measure(args, workload, setup_times):
    """Timed jobs, and the traced jobs with their tracer when tracing.

    Before each job the inputs are set up ``SETUPS_PER_JOB`` times
    again, timed into ``setup_times``; the job uses the last of them.
    """
    import workloads as wl
    from tracer import Tracer

    def job():
        for _ in range(SETUPS_PER_JOB):
            inputs = timed_setup(wl, workload, args.seed, setup_times)
        return guarded(lambda: wl.run_job(workload, inputs, OUT))

    if not args.trace:
        return closed_loop(args.seconds, job), [], None
    tracer = Tracer()

    def pair():
        plain = job()
        tracer.run += 1
        with tracer:
            traced = job()
        return plain, traced

    pairs = closed_loop(args.seconds, pair)
    calls = tracer.calls()
    silent = [n for n in workload.expect if calls[n] == 0]
    if silent:
        raise RuntimeError("traced wrappers recorded no calls: "
                           + ", ".join(silent))
    return [p[0] for p in pairs], [p[1] for p in pairs], tracer


def run(args):
    import numpy as np
    import layers
    import workloads as wl

    table = wl.SMOKE if args.size == "smoke" else wl.WORKLOADS
    workload = table[args.workload]
    OUT.mkdir(exist_ok=True)
    # Lazy initialisation in NumPy and SciPy costs the first job of a
    # process close to a second; a smoke-size job pays it untimed.
    smoke = wl.SMOKE[args.workload]
    wl.run_job(smoke, wl.setup(smoke, args.seed), OUT)
    setup_times = []
    timed, traced, tracer = measure(args, workload, setup_times)

    jobs = timed + traced
    digests = [j.digest for j in jobs if j.digest is not None]
    reference = digests[0] if digests else None
    for j in jobs:
        if j.digest not in (None, reference):
            j.failures.append("output digest differs from the first job")
    failures = [f for j in jobs for f in j.failures]
    n_failed = sum(1 for j in jobs if j.failures)
    ok = [j for j in timed if not j.failures]
    if not ok:
        raise RuntimeError("every timed job failed:\n" + "\n".join(failures))

    def median(name):
        values = [j.stages[name] for j in ok if name in j.stages]
        return statistics.median(values) if values else None

    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "rtf": statistics.median(j.wall_s for j in ok) / workload.duration_s,
        "transform_s": median("transform_s"),
        "peak_rss_mb": peak_rss_mb(),
    }
    sdr = ok[0].sdr_db
    extra = {"train_s": median("train_s"), "separate_s": median("separate_s"),
             "eval_s": median("eval_s"),
             "sdr_db_mean": None if sdr is None else float(np.mean(sdr)),
             "sdr_db_min": None if sdr is None else float(np.min(sdr))}
    record = {"env": environment(args), "digest": reference,
              "failures": failures, "setup_times_s": setup_times,
              "jobs": [{"wall_s": j.wall_s, "traced": k >= len(timed),
                        **j.stages} for k, j in enumerate(jobs)],
              "end_to_end": end_to_end, "stages": extra}

    if args.trace:
        overhead = (statistics.median(j.wall_s for j in traced)
                    / statistics.median(j.wall_s for j in timed) - 1.0)
        per_layer, samples = layers.layer_metrics(
            tracer.spans, range(1, tracer.run + 1), overhead)
        record["per_layer"] = per_layer
        record["ptail_samples"] = {k: {"percentile": p, "n": n}
                                   for k, (p, n) in samples.items()}
        tracer.save(OUT / f"{args.workload}-seed{args.seed}.spans.npz")
        reported = {k: (v, layers.UNITS[k]) for k, v in per_layer.items()}
    else:
        samples = {}
        reported = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end.items()}

    print("env " + json.dumps(record["env"], sort_keys=True))
    print(f"digest {reference}")
    for name, value in extra.items():
        if value is not None:
            print(f"{name} {value:.6g} {STAGE_UNITS[name]}")
    print(f"failed_frac {n_failed / len(jobs):.6g} ratio "
          f"({n_failed} of {len(jobs)} jobs)")
    for failure in failures:
        print(f"FAILED {failure}")
    for name, (value, unit) in reported.items():
        note = " (p%d of %d)" % samples[name] if name in samples else ""
        print(f"{name} {value:.6g} {unit}{note}")
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": not failures, "attempted": len(jobs), "failed": n_failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in reported.items()}}))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "harmosep" / "__init__.py").is_file():
        print(f"perfbench: no harmosep package under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    cap_threads()
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
