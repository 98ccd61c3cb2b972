"""Release acceptance gate.

Each test pins one end-to-end quality criterion at a fixed tolerance and
runtime budget.  The thresholds are contractual: do not relax them to
make a failing build pass.
"""

import time

import numpy as np
import pytest

from harmosep.audio import AudioClip, synth_harmonic_tone
from harmosep.cli import main
from harmosep.dictlearn import (Dictionary, harmonic_family, train,
                                training_config)
from harmosep.fixtures import two_instrument_fixture
from harmosep.kernels import sample_gaussian
from harmosep.logspect import (GaussianPeakFamily, to_log_spectrogram,
                               transform_config)
from harmosep.metrics import bss_eval
from harmosep.optim import AdamState, adam_step
from harmosep.pursuit import Atoms, PursuitConfig, loss, pursue
from harmosep.separate import separate
from harmosep.stft import LogAxis, StftConfig, griffin_lim, stft_complex, \
    stft_magnitude

DESK_STFT = StftConfig(hop_samples=2048)
DESK_TRANSFORM = dict(n_pre=60, n_spr=60, n_itr=3, max_evals=30,
                      floor_rel=1e-4)


def _log_spectrogram(clip, stft_cfg=DESK_STFT):
    Z, phase = stft_magnitude(clip, stft_cfg)
    U, _ = to_log_spectrogram(Z, stft_cfg=stft_cfg,
                              pursuit_cfg=transform_config(**DESK_TRANSFORM))
    return U, Z, phase


def _peak_centroid(column, guess, halfwidth=5):
    """Refine a peak location by local amplitude-weighted averaging."""
    lo = max(int(round(guess)) - halfwidth, 0)
    hi = min(int(round(guess)) + halfwidth + 1, len(column))
    w = column[lo:hi]
    assert w.sum() > 0.0
    return float((np.arange(lo, hi) * w).sum() / w.sum())


def test_criterion_1_pursuit_exactness():
    start = time.monotonic()
    family = GaussianPeakFamily(sigma_nil=2.0, bin_scale=1.0)
    Y = sample_gaussian(np.array([60.25, 130.6]), np.array([1.0, 0.55]),
                        np.array([2.3, 1.7]), 200)
    cfg = PursuitConfig(q=1.0, lam=1.0, n_pre=1, n_spr=2, n_itr=10,
                        selector="xcorr", max_evals=500)
    res = pursue(Y, family, cfg)
    assert len(res.atoms) == 2
    order = np.argsort(res.atoms.mu)
    got = zip(res.atoms.mu[order], res.atoms.a[order])
    for (mu, a), (shift, amp) in zip(got, ((60.25, 1.0), (130.6, 0.55))):
        assert mu == pytest.approx(shift, abs=1e-4)
        assert a == pytest.approx(amp, abs=1e-4)
    assert res.loss < 1e-8
    assert time.monotonic() - start < 5.0


def test_criterion_2_analytic_gradients():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    axis = LogAxis()
    stft_cfg = StftConfig()
    cfg = PursuitConfig(q=0.5)
    n = 160
    for _ in range(50):
        n_har = int(rng.integers(2, 6))
        D = rng.random((n_har, 2)) * 0.9 + 0.1
        family = harmonic_family(Dictionary(D), axis=axis,
                                 stft_cfg=stft_cfg)
        Y = np.abs(rng.normal(size=n)) * 0.1
        n_atoms = int(rng.integers(1, 3))
        atoms = [(float(rng.uniform(0.5, 2.0)),
                  float(rng.uniform(20.0, 100.0)),
                  int(rng.integers(0, 2)),
                  [float(rng.uniform(0.5, 2.0)) * family.sigma_nil,
                   float(rng.uniform(0.0, 2e-4))])
                 for _ in range(n_atoms)]
        arrays = Atoms(*zip(*atoms))
        _, g_a, g_mu, g_th, g_D = loss(Y, arrays, family, cfg,
                                       with_dict_grad=True)

        def perturbed_loss():
            # A family keeps its own copy of D: build one on the
            # perturbed entries.
            return loss(Y, arrays, harmonic_family(Dictionary(D), axis=axis,
                                                   stft_cfg=stft_cfg),
                        cfg)[0]

        def numeric(vec, j, h):
            vec[j] += h
            fp = perturbed_loss()
            vec[j] -= 2.0 * h
            fm = perturbed_loss()
            vec[j] += h
            return (fp - fm) / (2.0 * h)

        checks = []
        for j in range(n_atoms):
            checks.append((arrays.a, j, 1e-6, g_a[j]))
            checks.append((arrays.mu, j, 1e-6, g_mu[j]))
            checks.append((arrays.theta[:, 0], j,
                           1e-6 * family.sigma_nil, g_th[j, 0]))
            checks.append((arrays.theta[:, 1], j, 1e-7, g_th[j, 1]))
        for h_idx in range(n_har):
            for eta in range(2):
                checks.append((D[:, eta], h_idx, 1e-6, g_D[h_idx, eta]))
        for vec, j, h, analytic in checks:
            num = numeric(vec, j, h)
            denom = max(abs(num), abs(analytic), 1e-3)
            assert abs(num - analytic) / denom < 1e-5
    assert time.monotonic() - start < 30.0


def test_criterion_3_log_axis_covariance():
    start = time.monotonic()
    axis = LogAxis()
    centers = []
    for f_hz in (440.0, 880.0):
        tone = synth_harmonic_tone(f_hz, [1.0], 0.0, 1.0, 48000)
        U, _, _ = _log_spectrogram(tone)
        profile = U.values[:, U.values.shape[1] // 2]
        guess = axis.alpha(f_hz / DESK_STFT.bin_hz)
        centers.append(_peak_centroid(profile, guess))
    assert centers[1] - centers[0] == pytest.approx(102.4, abs=0.2)
    assert time.monotonic() - start < 30.0


def test_criterion_4_inharmonicity_fit():
    start = time.monotonic()
    axis = LogAxis()
    b_true = 3.25e-4
    f1_hz = 196.0
    n_har = 10
    amplitudes = 1.0 / np.arange(1, n_har + 1)
    tone = synth_harmonic_tone(f1_hz, amplitudes, b_true, 0.6, 48000)
    U, _, _ = _log_spectrogram(tone)
    frame = U.values[:, U.values.shape[1] // 2]

    D = amplitudes[:, None]
    family = harmonic_family(Dictionary(D), axis=axis, stft_cfg=DESK_STFT)
    cfg = training_config(1, max_evals=400)
    res = pursue(frame, family, cfg)
    assert len(res.atoms) == 1
    b_hat = res.atoms.theta[0, 1]
    assert b_hat == pytest.approx(b_true, rel=0.2)

    f1_bins = f1_hz / DESK_STFT.bin_hz
    h = np.arange(1, n_har + 1, dtype=np.float64)
    true_alpha = axis.alpha(np.sqrt(1.0 + b_true * h**2) * h * f1_bins)
    predicted = res.atoms.mu[0] + family.partial_offsets(b_hat)
    measured = np.array([_peak_centroid(frame, t) for t in true_alpha])
    assert np.all(np.abs(predicted - measured) < 1.0)
    assert time.monotonic() - start < 60.0


def _textbook_adam(x, g, m, v, t, kappa=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    t += 1
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    m_hat = m / (1.0 - b1**t)
    v_hat = v / (1.0 - b2**t)
    x = np.clip(x - kappa * m_hat / np.sqrt(v_hat + eps), 0.0, 1.0)
    return x, m, v, t


def test_criterion_5_modified_adam_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(3)
    # one harmonic per column: the column-mean second moment degenerates
    # to the per-parameter one and the update must equal textbook Adam
    D = rng.random((1, 4))
    ref = D.copy()
    state = AdamState.zeros(1, 4)
    m = np.zeros(4)
    v = np.zeros(4)
    t = np.zeros(4, dtype=np.int64)
    for _ in range(100):
        g = rng.normal(size=(1, 4))
        adam_step(D, state, g)
        for eta in range(4):
            ref[0, eta], m[eta], v[eta], t[eta] = _textbook_adam(
                ref[0, eta], g[0, eta], m[eta], v[eta], t[eta])
    assert np.max(np.abs(D - ref)) < 1e-12

    # constant column gradient: the bias-corrected first moment over the
    # root of the column-mean second moment converges to g / rms(g), the
    # per-column analog of the +/-1 sign ratio
    g = np.array([[0.4], [-0.2], [0.1]])
    D2 = np.full((3, 1), 0.5)
    state2 = AdamState.zeros(3, 1)
    prev = D2.copy()
    for _ in range(200):
        prev = D2.copy()
        adam_step(D2, state2, g)
    step = prev - D2
    expected = state2.kappa * g[:, 0] / np.sqrt(np.mean(g[:, 0] ** 2))
    assert np.allclose(step[:, 0], expected, atol=1e-6)

    # scripted reference of the column-mean rule itself
    rng = np.random.default_rng(11)
    D3 = rng.random((3, 2))
    ref3 = D3.copy()
    state3 = AdamState.zeros(3, 2)
    m3 = np.zeros((3, 2))
    v3 = np.zeros(2)
    for step_no in range(1, 31):
        g = rng.normal(size=(3, 2))
        adam_step(D3, state3, g)
        m3 = 0.9 * m3 + 0.1 * g
        v3 = 0.999 * v3 + 0.001 * np.mean(g**2, axis=0)
        m_hat = m3 / (1.0 - 0.9**step_no)
        v_hat = v3 / (1.0 - 0.999**step_no)
        ref3 = np.clip(ref3 - 1e-3 * m_hat / np.sqrt(v_hat + 1e-8),
                       0.0, 1.0)
    assert np.max(np.abs(D3 - ref3)) < 1e-12
    assert time.monotonic() - start < 5.0


@pytest.fixture(scope="module")
def blind_runs():
    start = time.monotonic()
    mix, refs = two_instrument_fixture(duration_s=20.0, seed=0)
    U, Z, phase = _log_spectrogram(mix)
    runs = []
    for seed in range(5):
        dictionary, kept = train(U, 2, 1, 2000, seed,
                                 stft_cfg=DESK_STFT,
                                 pursuit_overrides=dict(max_evals=45))
        res = separate(U, Z, phase, dictionary, kept, 1,
                       stft_cfg=DESK_STFT, length=len(mix.samples),
                       pursuit_overrides=dict(max_evals=45))
        unmasked = [griffin_lim(grid, phase, 1, length=len(mix.samples))
                    for grid in res.inst_spectrograms]
        runs.append((bss_eval(refs, res.signals),
                     bss_eval(refs, unmasked)))
    return runs, time.monotonic() - start


def test_criterion_6_blind_separation_quality(blind_runs):
    runs, elapsed = blind_runs
    best = max(runs, key=lambda pair: np.mean(pair[0].sdr_db))
    assert np.all(best[0].sdr_db > 10.0)
    improved = sum(np.mean(masked.sdr_db) > np.mean(unmasked.sdr_db)
                   for masked, unmasked in runs)
    assert improved >= 4
    assert elapsed < 15 * 60


def test_criterion_7_bss_metrics():
    start = time.monotonic()
    n = 48000
    t = np.arange(n) / 48000.0
    refs = [AudioClip(np.sin(2 * np.pi * 400.0 * t), 48000),
            AudioClip(np.sin(2 * np.pi * 625.0 * t), 48000)]
    noise = np.cos(2 * np.pi * 400.0 * t)        # orthogonal to both refs

    # 20 dB case: orthogonal noise at 1/100 of the reference energy
    est = AudioClip(refs[0].samples + 0.1 * noise, 48000)
    scores = bss_eval(refs[:1], [est])
    assert scores.sdr_db[0] == pytest.approx(20.0, abs=0.1)
    assert scores.sar_db[0] == pytest.approx(20.0, abs=0.1)

    # scale invariance
    scaled = bss_eval(refs[:1], [AudioClip(37.0 * est.samples, 48000)])
    assert scaled.sdr_db[0] == pytest.approx(scores.sdr_db[0], abs=1e-9)

    # permutation is chosen by mean SIR
    ests = [AudioClip(refs[1].samples + 0.01 * noise, 48000),
            AudioClip(refs[0].samples + 0.01 * noise, 48000)]
    swapped = bss_eval(refs, ests)
    assert list(swapped.permutation) == [1, 0]
    assert time.monotonic() - start < 10.0


def test_criterion_8_griffin_lim():
    start = time.monotonic()
    cfg = StftConfig(hop_samples=2048)
    rng = np.random.default_rng(5)
    n = 40000
    x = 0.3 * np.sin(2 * np.pi * 700.0 * np.arange(n) / 48000.0)
    spec = stft_complex(x, cfg)
    grid, phase = stft_magnitude(AudioClip(x, 48000), cfg)

    # a consistent magnitude/phase pair is a fixed point
    out = griffin_lim(grid, phase, 1, length=n)
    interior = slice(cfg.window_length, n - cfg.window_length)
    err = np.linalg.norm(out.samples[interior] - x[interior])
    assert err / np.linalg.norm(x[interior]) < 1e-6

    # spectrogram mismatch is non-increasing on inconsistent input
    bad_phase = rng.uniform(-np.pi, np.pi, size=spec.shape)
    errors = []
    for iters in range(1, 6):
        y = griffin_lim(grid, bad_phase, iters, length=n)
        mag = np.abs(stft_complex(y.samples, cfg))
        errors.append(np.linalg.norm(mag - grid.values))
    for previous, current in zip(errors, errors[1:]):
        assert current <= previous * (1.0 + 1e-9)
    assert time.monotonic() - start < 30.0


def test_criterion_9_training_determinism(tmp_path):
    out = tmp_path / "clip"
    assert main(["synth", "--outdir", str(out), "--duration", "1.0"]) == 0
    cache = tmp_path / "mix.hsls"
    fast = ["--set", "transform_n_spr=40", "--set", "transform_n_pre=40",
            "--set", "transform_n_itr=2", "--set", "hop=4096"]
    assert main(fast + ["transform", str(out / "mix.wav"),
                        "-o", str(cache)]) == 0
    args = ["--set", "n_trn=40", "--set", "prune_interval=20",
            "--set", "n_har=10", "--set", "n_ins=1", "train", str(cache)]
    first = tmp_path / "first.txt"
    second = tmp_path / "second.txt"
    assert main(args + ["-o", str(first)]) == 0
    assert main(args + ["-o", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
