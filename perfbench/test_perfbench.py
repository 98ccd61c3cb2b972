"""Tests of the benchmark itself, on the smoke size of each workload.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import BINDINGS, Tracer, _get, _namespace  # noqa: E402


def _bindings():
    return [_get(*_namespace(module, key)) for _, module, key, _ in BINDINGS]


def test_tracer_restores_every_binding():
    before = _bindings()
    with Tracer():
        during = _bindings()
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, _bindings()))


def test_tracer_restores_bindings_after_an_error():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            1 / 0
    assert all(a is b for a, b in zip(before, _bindings()))


def test_self_time_subtracts_children():
    spans = [("separate.separate", 0.0, 10.0, -1, 1, None),
             ("separate.pursue", 1.0, 3.0, 0, 1, (1, 1)),
             ("separate.pursue", 4.0, 8.0, 0, 1, (2, 1)),
             ("separate.separate", 20.0, 21.0, -1, 2, None)]
    out, samples = layers.layer_metrics(spans, [1], 0.0)
    assert out["separate.self_s"] == pytest.approx(4.0)
    assert samples["separate.frame_ms.ptail"] == (0, 2)
    assert out["separate.atoms_per_frame.mean"] == pytest.approx(1.5)


def test_calls_that_raised_are_counted_not_summarized():
    spans = [("optim.minimize_box", 0.0, 1.0, -1, 1, 45),
             ("optim.minimize_box", 1.0, 2.0, -1, 1, "OptimizationError"),
             ("separate.pursue", 2.0, 3.0, -1, 1, "DomainError")]
    out, _ = layers.layer_metrics(spans, [1], 0.0)
    assert out["optim.optimization_errors"] == 1
    assert out["optim.refine_calls"] == 2
    assert out["separate.atoms_per_frame.mean"] == 0.0


def test_tail_percentile_keeps_ten_samples_beyond():
    p50, ptail, pct, n = layers.tail(list(range(200)))
    assert (pct, n) == (95, 200)
    assert sum(v > ptail for v in range(200)) >= 10
    assert layers.tail([]) == (0.0, 0.0, 0, 0)


@pytest.mark.parametrize("name", sorted(wl.SMOKE))
def test_smoke_job_traced_and_untraced_agree(name, tmp_path):
    workload = wl.SMOKE[name]
    inputs = wl.setup(workload, 3)
    plain = wl.run_job(workload, inputs, tmp_path)
    tracer = Tracer()
    tracer.run = 1
    with tracer:
        traced = wl.run_job(workload, inputs, tmp_path)
    assert plain.failures == [] and traced.failures == []
    assert plain.digest == traced.digest
    calls = tracer.calls()
    assert [n for n in workload.expect if calls[n] == 0] == []
    metrics, _ = layers.layer_metrics(tracer.spans, [1], 0.0)
    assert list(metrics) == list(layers.UNITS)
    if not workload.separates:
        assert metrics["kernels.harm.calls"] == 0
        assert metrics["dictlearn.steps"] == 0


def test_smoke_sizes_cover_every_workload():
    assert set(wl.SMOKE) == set(wl.WORKLOADS)
    for name, smoke in wl.SMOKE.items():
        full = wl.WORKLOADS[name]
        assert (bool(smoke.n_trn), smoke.separates, smoke.expect) == \
            (bool(full.n_trn), full.separates, full.expect)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_seed_only_reorders_frames(name):
    workload = wl.WORKLOADS[name]

    def frames(seed):
        mix, _ = wl.fixture(workload.n_slots, seed)
        Z, _ = wl.stft.stft_magnitude(mix, workload.stft_cfg)
        return Z.values

    a, b = frames(1), frames(2)
    assert not np.array_equal(a, b)
    assert sorted(map(bytes, np.ascontiguousarray(a.T))) == \
        sorted(map(bytes, np.ascontiguousarray(b.T)))


def test_masked_parts_check_catches_a_broken_mask(tmp_path):
    workload = wl.SMOKE["separate-oracle"]
    inputs = wl.setup(workload, 0)
    mask = wl.separate_mod.apply_mask
    wl.separate_mod.apply_mask = lambda inst, total, mix: inst
    try:
        job = wl.run_job(workload, inputs, tmp_path)
    finally:
        wl.separate_mod.apply_mask = mask
    assert "masked parts do not sum to the mixture" in job.failures


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_the_declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    proc = _run(ROOT, "--workload", "separate-oracle", "--seed", "1",
                "--seconds", "1", "--trace", trace, "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}


def test_command_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed",
         "0", "--seconds", "1", "--trace", "0"], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
