"""Memory-kernel closed forms and absorption tables against scipy oracles."""

import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from waveguide_scatter import (
    DEFAULT_QUAD,
    PulseProfile,
    QuadratureSpec,
    h_closed_form,
    weighted_h_norm_integral,
)
from waveguide_scatter import kernel
from waveguide_scatter.kernel import _window_kernel


def test_unchecked_kernel_equals_the_checked_one_bit_for_bit():
    rng = np.random.default_rng(34)
    tp = rng.uniform(0.0, 30.0, 500)
    tau = tp + rng.exponential(3.0, 500)
    tau[:5] = tp[:5]  # d = 0
    for g in [2.0, 2.0 + 1e-8, 2.0 - 1e-8, *rng.uniform(0.01, 20.0, 6)]:
        assert np.array_equal(kernel._h(tau, tp, g), h_closed_form(tau, tp, g))
        assert float(kernel._h(tau[7], tp[7], g)) == h_closed_form(float(tau[7]), float(tp[7]), g)


@pytest.mark.parametrize("tau,tau_prev", [
    (1.0, 1.5), (1.0, -0.1), (np.array([1.0, 2.0]), np.array([0.5, 2.5]))])
def test_closed_form_rejects_misordered_or_negative_times(tau, tau_prev):
    # a bad bandwidth: test_observables::test_bandwidth_must_be_finite_and_positive
    with pytest.raises(ValueError, match="h requires tau_prev"):
        h_closed_form(tau, tau_prev, 1.0)


def test_closed_form_spot_values():
    # bandwidth matched to the emitter: sqrt(2) t exp(-t)
    assert h_closed_form(1.0, 0.0, 2.0) == pytest.approx(0.520260095022889,
                                                         abs=1e-14)
    assert h_closed_form(1.0, 0.0, 2.0) == pytest.approx(
        math.sqrt(2.0) * math.exp(-1.0), abs=1e-14)
    # generic bandwidth spot values
    assert h_closed_form(1.0, 0.0, 1.0) == pytest.approx(0.4773024370823822,
                                                         abs=1e-14)
    assert h_closed_form(2.0, 1.0, 1.0) == pytest.approx(0.28949856204602503,
                                                         abs=1e-14)
    # empty window
    assert h_closed_form(1.3, 1.3, 0.7) == pytest.approx(0.0, abs=1e-14)


def test_matched_bandwidth_profile_along_time():
    ts = np.linspace(0.0, 6.0, 25)
    np.testing.assert_allclose(h_closed_form(ts, np.zeros_like(ts), 2.0),
                               math.sqrt(2.0) * ts * np.exp(-ts), atol=1e-13)


def test_closed_form_vectorizes():
    ts = np.linspace(0.5, 4.0, 11)
    starts = np.linspace(0.0, 0.4, 11)
    vec = h_closed_form(ts, starts, 1.7)
    pointwise = np.array([h_closed_form(float(b), float(a), 1.7)
                          for b, a in zip(ts, starts)])
    np.testing.assert_allclose(vec, pointwise, atol=1e-14)


# bandwidth pairs whose h must agree: the matched bandwidth against either
# side of it, and on each side of g = 2 two bandwidths 4e-12 apart around
# |1 - g/2| = 1e-6, where the closed form once switched to a series branch
_STRADDLES = ((2.0, 2.0 - 1e-7), (2.0, 2.0 + 1e-7),
              (1.999998000002, 1.999997999998), (2.000001999998, 2.000002000002))


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 20.0), st.floats(0.0, 1.0))
def test_closed_form_continuous_across_matched_bandwidth(b, frac):
    a = frac * b  # 0 <= tau_prev <= tau_i
    for g1, g2 in _STRADDLES:
        assert abs(h_closed_form(b, a, g1) - h_closed_form(b, a, g2)) <= 1e-7


def _h_reference(tau_i: float, tau_prev: float, gamma: float) -> float:
    """The closed form's difference quotient in 40-digit decimal arithmetic.

    Every float converts to its decimal exactly, and x = 1 - g/2 is exact
    in floats too near g = 2, so the quotient cancels only in digits the
    40 carry: near g = 2 +- 1e-8 about 32 survive."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        g, ti, tp = (decimal.Decimal(v) for v in (gamma, tau_i, tau_prev))
        x = 1 - g / 2
        h = g.sqrt() * ((-ti * g / 2).exp() - (-ti + tp * x).exp()) / x
        return float(h)


@pytest.mark.parametrize("gamma", [2.0 - 1e-8, 2.0 + 1e-8, 2.0 - 1e-6, 2.0 + 1e-6,
                                   2.0 - 3e-6, 2.0 + 3e-6, 2.0 - 1e-5, 2.0 + 1e-5,
                                   2.0 - 1e-3, 2.0 + 1e-3, 0.1, 1.0, 30.0])
def test_closed_form_is_accurate_to_rounding_at_every_bandwidth(gamma):
    # the kernel is within 1e-15 of its largest value from a 40-digit
    # reference, through g = 2 and over long spans at small g
    rng = np.random.default_rng(int(gamma * 1e9) % 2**32)
    t_end = 800.0 if gamma < 1.0 else 30.0
    ti = np.concatenate([rng.uniform(0.0, t_end, 150), rng.uniform(0.0, 4.0, 50)])
    tp = ti * np.concatenate([rng.uniform(0.0, 1.0, 190), np.zeros(5), np.ones(5)])
    with np.errstate(all="raise", under="ignore"):
        got = h_closed_form(ti, tp, gamma)
    ref = np.array([_h_reference(a, b, gamma) for a, b in zip(ti, tp)])
    assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_convolve_matches_closed_form_random_sweep():
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for _ in range(300):
        gamma = float(rng.uniform(0.05, 12.0))
        a = float(rng.uniform(0.0, 3.0))
        b = a + float(rng.uniform(0.0, 4.0))
        p = PulseProfile.exponential(gamma)
        qv, _ = quad(lambda s: math.exp(-(b - s)) * p.value(s).real, a, b, limit=200)
        cv = h_closed_form(b, a, gamma)
        worst = max(worst, abs(qv - cv))
    assert worst <= 1e-8


def test_convolve_generic_profile_against_scipy():
    # memory-weighted window integral of a non-exponential envelope
    t_max = 12.0
    norm = math.sqrt(2.0 / t_max)

    def env(t):
        t = np.asarray(t)
        return norm * np.sin(math.pi * t / t_max) * (t <= t_max)

    p = PulseProfile.from_callable(lambda t: env(t), t_max=t_max,
                                   norm_tol=1e-6)
    a, b = 0.8, 3.1
    ours = complex(_window_kernel(p, b, a, DEFAULT_QUAD))
    ref, _ = quad(lambda s: math.exp(-(b - s)) * float(env(s)), a, b,
                  limit=200)
    assert ours.real == pytest.approx(ref, abs=1e-8)
    assert ours.imag == pytest.approx(0.0, abs=1e-12)


# -- absorption tables of non-exponential profiles ------------------------------

def _scipy_window(p, lo, hi, breaks=()):
    """K(p; lo, hi) by scipy quad, split at the breakpoints inside the window."""
    edges = [lo, *(x for x in breaks if lo < x < hi), hi]
    total = 0.0 + 0.0j
    for a, b in zip(edges[:-1], edges[1:]):
        for part, unit in ((np.real, 1.0), (np.imag, 1j)):
            val, _ = quad(lambda s: math.exp(-(hi - s)) * float(part(p.value(s))), a, b,
                          epsabs=1e-15, epsrel=1e-13, limit=200)
            total += unit * val
    return total


def _windows(t_end, rng):
    """Random windows on [0, t_end], windows from 0, empty ones and ones 1e-9 wide."""
    lo = rng.uniform(0.0, t_end, 40)
    hi = lo + rng.uniform(0.0, t_end - lo)
    narrow = rng.uniform(0.0, t_end - 1e-9, 6)
    return (np.concatenate([lo, np.zeros(4), narrow, [1.0, t_end]]),
            np.concatenate([hi, rng.uniform(0.0, t_end, 4), narrow + 1e-9, [1.0, t_end]]))


def test_sampled_table_is_exact_for_the_linear_interpolant():
    # a grid that starts after 0 with uneven steps, a complex envelope, and
    # windows that run past t_max (where the photon has gone)
    rng = np.random.default_rng(5)
    grid = np.concatenate([[0.7], 0.7 + np.cumsum(rng.uniform(0.05, 0.4, 60))])
    values = np.exp(-0.5 * (grid - 4.0) ** 2 + 0.8j * grid)
    values /= math.sqrt(PulseProfile.from_samples(grid, values, norm_tol=math.inf).norm_sq())
    p = PulseProfile.from_samples(grid, values)
    lo, hi = _windows(p.t_max + 3.0, rng)
    ours = _window_kernel(p, hi, lo, DEFAULT_QUAD)
    assert np.any(lo < grid[0]) and np.any(hi > p.t_max)
    for a, b, value in zip(lo, hi, ours):
        assert abs(value - _scipy_window(p, a, b, grid)) <= 1e-13, (a, b)
    # the same photon 750 later: windows from 0 start far before its grid
    late = PulseProfile.from_samples(grid + 750.0, values)
    shifted = _window_kernel(late, hi + 750.0, np.where(lo > 0.0, lo + 750.0, 0.0), DEFAULT_QUAD)
    np.testing.assert_allclose(shifted, ours, rtol=0.0, atol=1e-11)


@pytest.mark.parametrize("shape", ["gaussian", "sine"])
def test_callable_table_matches_scipy(shape):
    if shape == "gaussian":
        p = PulseProfile.from_callable(
            lambda t: math.pi ** -0.25 * np.exp(-0.5 * (np.asarray(t) - 6.0) ** 2), t_max=14.0)
    else:
        p = PulseProfile.from_callable(
            lambda t: math.sqrt(2.0 / 12.0) * np.sin(math.pi * np.asarray(t) / 12.0), t_max=12.0,
            norm_tol=1e-6)
    rng = np.random.default_rng(9)
    lo, hi = _windows(p.t_max + 2.0, rng)
    ours = _window_kernel(p, hi, lo, DEFAULT_QUAD)
    for a, b, value in zip(lo, hi, ours):
        assert abs(value - _scipy_window(p, a, b, [p.t_max])) <= 1e-12, (a, b)


def test_callable_table_is_built_once_per_profile_and_quadrature(monkeypatch):
    calls = []
    engine = kernel.integrate
    monkeypatch.setattr(kernel, "integrate",
                        lambda *a, **k: calls.append(1) or engine(*a, **k))
    p = PulseProfile.from_callable(
        lambda t: math.pi ** -0.25 * np.exp(-0.5 * (np.asarray(t) - 6.0) ** 2), t_max=14.0)
    first = _window_kernel(p, np.array([3.0, 7.5]), np.array([1.0, 2.0]), DEFAULT_QUAD)
    assert len(calls) == 1
    _window_kernel(p, 9.0, 0.0, DEFAULT_QUAD)
    assert len(calls) == 1
    # each value depends on its own window only, not on the other points
    assert _window_kernel(p, 7.5, 2.0, DEFAULT_QUAD) == first[1]
    _window_kernel(p, 9.0, 0.0, QuadratureSpec(rel_tol=1e-12))
    assert len(calls) == 2


def test_weighted_norm_integral_spot_values():
    # m = 0, matched bandwidth, from the wavefront: 4 / (1*2*4) = 1/2
    assert weighted_h_norm_integral(0, 2.0, 0.0) == pytest.approx(0.5,
                                                                  abs=1e-14)
    # m = 1, unit bandwidth: 4 / (2*3*5) = 2/15
    assert weighted_h_norm_integral(1, 1.0, 0.0) == pytest.approx(2.0 / 15.0,
                                                                  abs=1e-14)


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("gamma", [0.3, 1.0, 2.0, 6.0])
def test_weighted_norm_integral_against_scipy(m, gamma):
    tau_p = 0.4
    closed = weighted_h_norm_integral(m, gamma, tau_p)

    def integrand(tau):
        return math.exp(-m * gamma * tau) * h_closed_form(tau, tau_p, gamma) ** 2

    ref, _ = quad(integrand, tau_p, np.inf, limit=400)
    assert closed == pytest.approx(ref, abs=1e-10)
