import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from harmosep.kernels import (CUTOFF_SIGMAS, gaussian_accumulate,
                              gaussian_adjoint, gaussian_backprop,
                              gaussian_curvature, gaussian_forward)
from harmosep.logspect import GaussianPeakFamily
from harmosep.pursuit import DELTA, Atoms, PursuitConfig, loss

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


def _halfwidths(stds):
    """Each bump's own window half-width, as the kernels cut it."""
    return np.array([int(np.ceil(CUTOFF_SIGMAS * s)) + 1 for s in stds])


def _dense(length, centers, amps, stds):
    """The bumps on the whole grid, each cut at its own window as the
    kernels cut it."""
    s = np.arange(length)[None, :]
    near = (np.abs(s - np.round(centers)[:, None])
            <= _halfwidths(stds)[:, None])
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


def _samples(slots, lo, n):
    """The grid sample each window entry reads, -1 for the padding."""
    return np.where((slots >= 1) & (slots <= n), slots + lo - 1, -1)


@settings(max_examples=200, deadline=None)
@given(_bumps(), st.integers(0, 2**32 - 1))
def test_a_bump_among_others_is_evaluated_as_alone(bumps, seed):
    # A bump's window, its forward contribution and its adjoint and
    # curvature terms do not depend on the other bumps of the call, to
    # the last bit.  The forward adds the bumps sample by sample in
    # their order.
    centers, amps, stds = bumps
    values, lo, cache = gaussian_forward(LENGTH, centers, amps, stds)
    slots, d, g, _, starts = cache
    ends = np.append(starts[1:], len(g))
    w = np.random.default_rng(seed).normal(size=len(values))
    together = gaussian_adjoint(w, cache) + gaussian_curvature(w, cache)
    summed = np.zeros(LENGTH)
    for k in range(len(centers)):
        one = slice(k, k + 1)
        v_k, lo_k, c_k = gaussian_forward(LENGTH, centers[one], amps[one],
                                          stds[one])
        seg = slice(starts[k], ends[k])
        assert np.array_equal(_samples(c_k[0], lo_k, len(v_k)),
                              _samples(slots[seg], lo, len(values)))
        assert np.array_equal(c_k[1], d[seg])
        assert np.array_equal(c_k[2], g[seg])
        summed[lo_k:lo_k + len(v_k)] += v_k
        w_k = w[lo_k - lo:lo_k - lo + len(v_k)]
        alone = gaussian_adjoint(w_k, c_k) + gaussian_curvature(w_k, c_k)
        assert [x[k] for x in together] == [y[0] for y in alone]
    full = np.zeros(LENGTH)
    full[lo:lo + len(values)] = values
    assert np.array_equal(full, summed)


def test_bumps_off_the_grid_give_an_empty_span():
    # Zero bumps take the same path: an empty span and empty windows.
    for centers in ([-1e5], [1e5], [-1e5, 1e5], []):
        centers = np.array(centers)
        ones = np.ones(len(centers))
        values, lo, cache = gaussian_forward(50, centers, ones, ones)
        # Bumps on both sides span the grid between them.
        assert len(values) == (50 if len(centers) == 2 else 0)
        assert np.all(values == 0.0) and 0 <= lo <= 50 - len(values)
        assert values.dtype == np.float64
        for ips in (gaussian_adjoint(np.ones(len(values)), cache),
                    gaussian_curvature(np.ones(len(values)), cache),
                    gaussian_backprop(np.ones(50), centers, ones)):
            for ip in ips:
                assert ip.shape == centers.shape and np.all(ip == 0.0)
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


def _window_sum(x):
    """One window's sum, in the order the kernels sum each segment of
    their flat windows."""
    return np.add.reduceat(x, [0])[0]


def _reference_loss(Y, a, mu, stds, q, delta):
    """The lifted loss and its gradients evaluated on the whole grid,
    one bump at a time: every window entry off the grid is masked out,
    and the model, the error and the weights cover all samples."""
    length = len(Y)
    idx = [round(m) + np.arange(-h, h + 1)
           for m, h in zip(mu, _halfwidths(stds))]
    valid = [(i >= 0) & (i < length) for i in idx]
    d = [i - m for i, m in zip(idx, mu)]
    # stds ** 2 of the array: a NumPy scalar's ** goes through pow(),
    # which can round x * x differently.
    g = [np.exp(-(dk * dk) / v) for dk, v in zip(d, 2.0 * stds**2)]
    model = np.zeros(length)
    model += np.bincount(
        np.concatenate([np.where(v, i, length) for v, i in zip(valid, idx)]),
        weights=np.concatenate([ak * gk for ak, gk in zip(a, g)]),
        minlength=length + 1)[:length]
    err = (Y + delta) ** q - (model + delta) ** q
    weights = -2.0 * q * err * (model + delta) ** (q - 1.0)
    wg = [np.where(v, weights[np.clip(i, 0, length - 1)], 0.0) * gk
          for v, i, gk in zip(valid, idx, g)]
    inv_var = 1.0 / stds**2
    ip_g = np.array([_window_sum(w) for w in wg])
    ip_dc = np.array([_window_sum(w * dk) for w, dk in zip(wg, d)])
    ip_ds = np.array([_window_sum(w * dk * dk) for w, dk in zip(wg, d)])
    return (float(err @ err), ip_g, a * (ip_dc * inv_var),
            a * (ip_ds * inv_var / stds))


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, LENGTH, elements=st.floats(0.0, 10.0)),
       _bumps(), st.sampled_from([0.5, 1.0, 0.3]))
def test_span_loss_equals_full_length_reference(Y, bumps, q):
    mu, a, stds = bumps
    family = GaussianPeakFamily(sigma_nil=1.0, bin_scale=1.0)
    cfg = PursuitConfig(q=q)
    atoms = Atoms(a, mu, np.zeros(len(a), dtype=np.int64), stds[:, None])
    value, g_a, g_mu, g_theta = loss(Y, atoms, family, cfg)
    ref = _reference_loss(Y, a, mu, stds, q, DELTA)
    # Same arithmetic in the same order: equal to the last bit.
    assert value == ref[0]
    assert np.array_equal(g_a, ref[1])
    assert np.array_equal(g_mu, ref[2])
    assert np.array_equal(g_theta[:, 0], ref[3])
