import numpy as np
import pytest

from harmosep.errors import DomainError
from harmosep.kernels import sample_gaussian
from harmosep.logspect import GaussianPeakFamily
from harmosep.pursuit import (PursuitAtom, PursuitConfig, atoms_to_arrays,
                              loss, pursue, select_peaks, select_xcorr)


def family(sigma_nil=2.0):
    # bin_scale 1 keeps theta directly in bin units for readability
    return GaussianPeakFamily(sigma_nil=sigma_nil, bin_scale=1.0)


def test_config_validation():
    with pytest.raises(DomainError):
        PursuitConfig(q=0.0)
    with pytest.raises(DomainError):
        PursuitConfig(lam=1.5)
    with pytest.raises(DomainError):
        PursuitConfig(delta=0.0)
    assert PursuitConfig(n_spr=3).iterations(2) == 12
    assert PursuitConfig(n_itr=7).iterations(2) == 7


def test_loss_of_empty_model_is_lifted_energy():
    fam = family()
    cfg = PursuitConfig(q=0.5, delta=1e-10)
    Y = np.abs(np.random.default_rng(0).normal(size=50))
    v, g_a, g_mu, g_th = loss(Y, atoms_to_arrays([], 1), fam, cfg)
    expect = np.sum(((Y + cfg.delta) ** 0.5 - cfg.delta ** 0.5) ** 2)
    assert v == pytest.approx(expect)
    assert len(g_a) == 0


def test_loss_gradients_match_finite_differences(rng):
    fam = family()
    cfg = PursuitConfig(q=0.5)
    Y = np.abs(rng.normal(size=120)) * 0.1
    atoms = [PursuitAtom(0.8, 30.3, 0, np.array([2.4])),
             PursuitAtom(1.3, 77.9, 0, np.array([1.6]))]
    arrays = atoms_to_arrays(atoms, 1)
    _, g_a, g_mu, g_th = loss(Y, arrays, fam, cfg)
    h = 1e-6
    for j in range(2):
        for vec, g in ((arrays.a, g_a[j]), (arrays.mu, g_mu[j]),
                       (arrays.theta[:, 0], g_th[j, 0])):
            vec[j] += h
            fp = loss(Y, arrays, fam, cfg)[0]
            vec[j] -= 2 * h
            fm = loss(Y, arrays, fam, cfg)[0]
            vec[j] += h
            num = (fp - fm) / (2 * h)
            assert abs(num - g) <= 1e-5 * max(abs(num), 1e-3)


def test_select_xcorr_locates_shifted_pattern():
    fam = family()
    cfg = PursuitConfig(q=1.0)
    Y = sample_gaussian(np.array([41.0]), np.array([2.0]),
                        np.array([2.0]), 100)
    a, mu, eta, theta = select_xcorr(Y, fam, cfg, 1)
    assert len(a) == 1
    assert mu[0] == 41.0
    assert a[0] == pytest.approx(2.0, rel=0.05)
    assert eta[0] == 0 and theta[0, 0] == fam.theta_nil[0]


def test_select_xcorr_skips_negative_residual():
    fam = family()
    cfg = PursuitConfig(q=1.0)
    a, *_ = select_xcorr(-np.ones(50), fam, cfg, 3)
    assert len(a) == 0


def test_select_peaks_dominance_radius():
    fam = family()
    cfg = PursuitConfig(q=1.0, n_dom=3)
    r = np.zeros(40)
    r[10] = 1.0
    r[12] = 0.9   # within radius 3 of the larger peak: suppressed
    r[20] = 0.5
    a, mu, _, _ = select_peaks(r, fam, cfg, 10)
    assert sorted(mu) == [10.0, 20.0]


def test_select_peaks_plateau_counted_once():
    fam = family()
    cfg = PursuitConfig(q=1.0, n_dom=2)
    r = np.zeros(30)
    r[14:17] = 1.0
    a, mu, _, _ = select_peaks(r, fam, cfg, 10)
    assert list(mu) == [14.0]


def test_select_peaks_ranks_by_height():
    fam = family()
    cfg = PursuitConfig(q=1.0, n_dom=1)
    r = np.zeros(50)
    heights = {5: 0.2, 15: 0.9, 25: 0.5, 35: 0.7}
    for i, h in heights.items():
        r[i] = h
    a, mu, _, _ = select_peaks(r, fam, cfg, 2)
    assert sorted(mu) == [15.0, 35.0]


def test_selector_floor_drops_noise():
    fam = family()
    cfg = PursuitConfig(q=1.0, n_dom=1)
    r = np.zeros(50)
    r[10] = 1.0
    r[30] = 1e-9
    a, mu, _, _ = select_peaks(r, fam, cfg, 10, floor=1e-6)
    assert list(mu) == [10.0]


def test_pursue_recovers_two_atoms_exactly():
    fam = family()
    Y = sample_gaussian(np.array([60.25, 130.6]), np.array([1.0, 0.55]),
                        np.array([2.3, 1.7]), 200)
    cfg = PursuitConfig(q=1.0, lam=1.0, n_pre=1, n_spr=2, n_itr=10,
                        selector="xcorr", max_evals=500)
    res = pursue(Y, fam, cfg)
    assert len(res.atoms) == 2
    got = sorted(res.atoms, key=lambda at: at.shift)
    assert got[0].shift == pytest.approx(60.25, abs=1e-4)
    assert got[0].amplitude == pytest.approx(1.0, abs=1e-4)
    assert got[1].shift == pytest.approx(130.6, abs=1e-4)
    assert got[1].amplitude == pytest.approx(0.55, abs=1e-4)
    assert res.loss < 1e-8
    assert res.amplitude_sums[0] == pytest.approx(1.55, abs=1e-3)


def test_pursue_respects_sparsity_budget():
    fam = family()
    centers = np.array([20.0, 60.0, 100.0, 140.0, 180.0])
    Y = sample_gaussian(centers, np.ones(5), np.full(5, 2.0), 220)
    cfg = PursuitConfig(q=1.0, lam=1.0, n_pre=5, n_spr=3, n_itr=6,
                        selector="peaks", n_dom=3)
    res = pursue(Y, fam, cfg)
    assert len(res.atoms) <= 3


def test_pursue_zero_input_yields_no_atoms():
    fam = family()
    res = pursue(np.zeros(100), fam, PursuitConfig())
    assert res.atoms == []
    assert res.amplitude_sums[0] == 0.0


def test_pursue_rejects_negative_input():
    with pytest.raises(DomainError):
        pursue(np.array([1.0, -0.5]), family(), PursuitConfig())


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pursue_rejects_non_finite_input(bad):
    Y = np.zeros(50)
    Y[20] = bad
    with pytest.raises(DomainError):
        pursue(Y, family(), PursuitConfig())


def test_pursue_termination_restores_previous_atoms():
    # one clean bump: after the first iteration the loss is ~0; the
    # second iteration cannot improve by the factor lam and must leave
    # the single-atom solution intact
    fam = family()
    Y = sample_gaussian(np.array([50.0]), np.array([1.0]),
                        np.array([2.0]), 100)
    cfg = PursuitConfig(q=1.0, lam=0.9, n_pre=1, n_spr=4, n_itr=10,
                        selector="xcorr")
    res = pursue(Y, fam, cfg)
    assert len(res.atoms) == 1
