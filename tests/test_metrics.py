import numpy as np
import pytest

from harmosep.errors import DomainError
from harmosep.metrics import bss_eval, format_report, project


def sine(freq, n=4800, rate=48000, phase=0.0):
    t = np.arange(n) / rate
    return np.sin(2 * np.pi * freq * t + phase)


def test_project_recovers_span_member(rng):
    basis = rng.normal(size=(2, 500))
    x = 0.3 * basis[0] - 1.2 * basis[1]
    assert np.allclose(project(x, basis), x, atol=1e-10)


def test_project_annihilates_orthogonal_component():
    basis = np.zeros((1, 100))
    basis[0, 0] = 1.0
    x = np.zeros(100)
    x[1] = 5.0
    assert np.allclose(project(x, basis), 0.0)


def test_project_residual_orthogonality(rng):
    basis = rng.normal(size=(2, 400))
    x = rng.normal(size=400)
    r = x - project(x, basis)
    for b in basis:
        assert abs(r @ b) < 1e-8 * np.linalg.norm(r) * np.linalg.norm(b)


def test_project_keeps_component_along_nearly_parallel_rows():
    # The normal equations B B^T square the condition number (here about
    # 1e9) and lost this in-span component entirely.
    basis = np.array([[1.0, 0.0, 0.0], [1.0, 1e-9, 0.0]])
    x = basis[1] - basis[0]
    err = np.linalg.norm(project(x, basis) - x) / np.linalg.norm(x)
    assert err < 1e-5


def test_project_rejects_empty():
    with pytest.raises(DomainError):
        project(np.zeros(0), np.zeros((1, 0)))


def test_perfect_estimates_score_infinite():
    refs = [sine(440.0), sine(660.0)]
    scores = bss_eval(refs, refs)
    assert scores.permutation == (0, 1)
    assert np.all(scores.sdr_db == np.inf)
    assert np.all(scores.sir_db == np.inf)


def test_swapped_estimates_resolve_permutation():
    refs = [sine(440.0), sine(660.0)]
    scores = bss_eval(refs, refs[::-1])
    assert scores.permutation == (1, 0)
    assert np.all(scores.sdr_db == np.inf)


def test_scale_invariance(rng):
    refs = [sine(440.0), sine(660.0)]
    ests = [r + 0.1 * rng.normal(size=len(r)) for r in refs]
    s1 = bss_eval(refs, ests)
    s2 = bss_eval(refs, [7.3 * e for e in ests])
    assert np.allclose(s1.sdr_db, s2.sdr_db, atol=1e-9)
    assert np.allclose(s1.sir_db, s2.sir_db, atol=1e-9)
    assert np.allclose(s1.sar_db, s2.sar_db, atol=1e-9)


def test_orthogonal_noise_sdr_is_20db():
    ref = sine(440.0)
    # 90 degree shifted copy is orthogonal over whole periods
    noise = sine(440.0, phase=np.pi / 2)
    noise *= np.sqrt(0.01 * (ref @ ref) / (noise @ noise))
    scores = bss_eval([ref], [ref + noise])
    assert scores.sdr_db[0] == pytest.approx(20.0, abs=0.1)


def test_phase_shifted_sinusoid_scores_minus_infinity():
    ref = sine(440.0)
    est = sine(440.0, phase=np.pi / 2)
    scores = bss_eval([ref], [est])
    assert scores.sdr_db[0] == -np.inf
    assert scores.sir_db[0] == -np.inf


def test_length_mismatch_padded():
    ref = sine(440.0, n=4800)
    est = np.concatenate([ref, np.zeros(100)])
    scores = bss_eval([ref], [est])
    assert scores.sdr_db[0] == np.inf


def test_count_mismatch_rejected():
    with pytest.raises(DomainError):
        bss_eval([sine(440.0)], [sine(440.0), sine(660.0)])


def test_empty_lists_rejected():
    for references, estimates in (([], []), ([], [sine(440.0)]),
                                  ([sine(440.0)], [])):
        with pytest.raises(DomainError):
            bss_eval(references, estimates)


def test_silent_references_rejected():
    with pytest.raises(DomainError):
        bss_eval([np.zeros(100)], [np.ones(100)])


def test_report_formatting():
    refs = [sine(440.0), sine(660.0)]
    text = format_report(bss_eval(refs, refs))
    lines = text.splitlines()
    assert len(lines) == 2
    assert "sdr_db=inf" in lines[0]
    assert "reference=0" in lines[0]
