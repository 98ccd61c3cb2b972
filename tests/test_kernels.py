import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from harmosep.kernels import (CUTOFF_SIGMAS, gaussian_accumulate,
                              gaussian_adjoint, gaussian_forward)
from harmosep.logspect import GaussianPeakFamily
from harmosep.pursuit import PursuitAtom, PursuitConfig, atoms_to_arrays, \
    loss

LENGTH = 120


def _centers(length):
    """Bump centers inside the grid, straddling either edge, and far
    outside it (L-BFGS-B leaves the shifts unbounded)."""
    return st.one_of(st.floats(0.0, length - 1.0),
                     st.floats(-40.0, 40.0),
                     st.floats(length - 40.0, length + 40.0),
                     st.floats(-1e6, -200.0),
                     st.floats(length + 200.0, 1e6))


@st.composite
def _bumps(draw, length=LENGTH):
    n = draw(st.integers(1, 6))
    centers = np.array(draw(st.lists(_centers(length), min_size=n,
                                     max_size=n)))
    amps = np.array(draw(st.lists(st.floats(0.0, 3.0), min_size=n,
                                  max_size=n)))
    stds = np.array(draw(st.lists(st.floats(0.3, 5.0), min_size=n,
                                  max_size=n)))
    return centers, amps, stds


def _dense(length, centers, amps, stds):
    """The bumps on the whole grid, each cut at its window as the
    kernels cut it."""
    halfwidth = int(np.ceil(CUTOFF_SIGMAS * np.max(stds))) + 1
    s = np.arange(length)[None, :]
    near = np.abs(s - np.round(centers)[:, None]) <= halfwidth
    g = np.exp(-(s - centers[:, None]) ** 2 / (2.0 * stds[:, None] ** 2))
    return (amps[:, None] * np.where(near, g, 0.0)).sum(axis=0)


@settings(max_examples=200, deadline=None)
@given(_bumps(), st.integers(0, 2**32 - 1))
def test_adjoint_identity(bumps, seed):
    centers, amps, stds = bumps
    values, lo, cache = gaussian_forward(LENGTH, centers, amps, stds)
    assert 0 <= lo and lo + len(values) <= LENGTH
    full = np.zeros(LENGTH)
    full[lo:lo + len(values)] = values
    assert np.allclose(full, _dense(LENGTH, centers, amps, stds),
                       rtol=1e-12, atol=1e-12)
    w = np.random.default_rng(seed).normal(size=len(values))
    ip_g, ip_dc, ip_ds = gaussian_adjoint(w, cache)
    assert ip_g.shape == ip_dc.shape == ip_ds.shape == (len(centers),)
    assert w @ values == pytest.approx(ip_g @ amps, rel=1e-12, abs=1e-12)


def test_bumps_off_the_grid_give_an_empty_span():
    for centers in ([-1e5], [1e5], [-1e5, 1e5]):
        centers = np.array(centers)
        ones = np.ones(len(centers))
        values, lo, cache = gaussian_forward(50, centers, ones, ones)
        # Bumps on both sides span the grid between them.
        assert len(values) == (50 if len(centers) == 2 else 0)
        assert np.all(values == 0.0) and 0 <= lo <= 50 - len(values)
        ip_g, ip_dc, ip_ds = gaussian_adjoint(np.ones(len(values)), cache)
        assert np.all(ip_g == 0.0) and np.all(ip_dc == 0.0)
        assert np.all(ip_ds == 0.0)
        out = np.full(50, 2.0)
        assert np.array_equal(gaussian_accumulate(out, centers, ones, ones),
                              np.full(50, 2.0))


@pytest.mark.parametrize("far", [np.nan, np.inf, -np.inf, 1e300, -1e300,
                                 2.0**62, -2.0**62])
def test_non_finite_and_huge_centers_stay_off_the_grid(far):
    ones = np.ones(2)
    with np.errstate(invalid="ignore"):
        values, lo, _ = gaussian_forward(50, np.array([far, 20.0]), ones,
                                         ones)
    out = np.zeros(50)
    out[lo:lo + len(values)] = values
    assert np.array_equal(out, gaussian_accumulate(
        np.zeros(50), np.array([20.0]), ones[:1], ones[:1]))


def _reference_loss(Y, a, mu, stds, q, delta):
    """The lifted loss and its gradients evaluated on the whole grid:
    every window entry off the grid is masked out, and the model, the
    error and the weights cover all samples."""
    length = len(Y)
    halfwidth = int(np.ceil(CUTOFF_SIGMAS * np.max(stds))) + 1
    idx = (np.round(mu).astype(np.int64)[:, None]
           + np.arange(-halfwidth, halfwidth + 1)[None, :])
    valid = (idx >= 0) & (idx < length)
    d = idx - mu[:, None]
    g = np.exp(-(d * d) / (2.0 * stds[:, None] ** 2))
    model = np.zeros(length)
    model += np.bincount(np.where(valid, idx, length).ravel(),
                         weights=(a[:, None] * g).ravel(),
                         minlength=length + 1)[:length]
    err = (Y + delta) ** q - (model + delta) ** q
    weights = -2.0 * q * err * (model + delta) ** (q - 1.0)
    wg = np.where(valid, weights[np.clip(idx, 0, length - 1)], 0.0) * g
    inv_var = 1.0 / stds**2
    ip_dc = (wg * d).sum(axis=1) * inv_var
    ip_ds = (wg * d * d).sum(axis=1) * inv_var / stds
    return float(err @ err), wg.sum(axis=1), a * ip_dc, a * ip_ds


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, LENGTH, elements=st.floats(0.0, 10.0)),
       _bumps(), st.sampled_from([0.5, 1.0, 0.3]))
def test_span_loss_equals_full_length_reference(Y, bumps, q):
    mu, a, stds = bumps
    family = GaussianPeakFamily(sigma_nil=1.0, bin_scale=1.0)
    cfg = PursuitConfig(q=q)
    atoms = atoms_to_arrays([PursuitAtom(a[k], mu[k], 0, stds[k:k + 1])
                             for k in range(len(a))], 1)
    value, g_a, g_mu, g_theta = loss(Y, atoms, family, cfg)
    ref = _reference_loss(Y, a, mu, stds, q, cfg.delta)
    # Same arithmetic in the same order: equal to the last bit.
    assert value == ref[0]
    assert np.array_equal(g_a, ref[1])
    assert np.array_equal(g_mu, ref[2])
    assert np.array_equal(g_theta[:, 0], ref[3])
