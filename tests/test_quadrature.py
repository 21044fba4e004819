"""Quadrature engine against scipy and closed-form integrals."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from waveguide_scatter import (
    ConvergenceError,
    QuadratureSpec,
    integrate,
    integrate_2d_box,
    integrate_semi_infinite,
    quadrature,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=0)


def test_integrate_exponential():
    val = integrate(lambda x: np.exp(-x), 0.0, 10.0)
    assert complex(val).real == pytest.approx(1.0 - math.exp(-10.0), abs=1e-12)
    assert complex(val).imag == 0.0


def test_integrate_oscillatory_against_scipy():
    def f(x):
        return np.cos(7.0 * x) * np.exp(-0.3 * x)

    ours = complex(integrate(f, 0.0, 12.0, panel_width=0.5)).real
    ref, _ = quad(f, 0.0, 12.0, limit=300)
    assert ours == pytest.approx(ref, abs=1e-11)


def test_integrate_degenerate_interval_and_bad_bounds():
    assert integrate(lambda x: x, 3.0, 3.0) == 0.0
    for a, b in ((2.0, 1.0), (0.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError):
            integrate(lambda x: x, a, b)
    for a, scale in ((math.nan, 1.0), (-math.inf, 1.0), (0.0, 0.0), (0.0, math.inf),
                     (0.0, math.nan)):
        with pytest.raises(ValueError):
            integrate_semi_infinite(lambda x: np.exp(-x), a, scale=scale)


def test_non_finite_integrand_fails_after_one_round():
    calls = []

    def f(x):
        calls.append(x.size)
        return np.where(x > 0.3, np.nan, 1.0)

    with pytest.raises(ConvergenceError, match="non-finite"):
        integrate(f, 0.0, 1.0)
    assert len(calls) == 1
    calls.clear()
    with pytest.raises(ConvergenceError, match="non-finite"):
        integrate_semi_infinite(f, 0.0)
    assert len(calls) == 1


def test_vector_valued_rows_equal_scalar_integrals():
    rates = np.array([0.5, 1.0, 3.0])

    def f(x):
        return np.exp(-rates[:, None] * x) * np.cos(2.0 * x)

    rows = integrate(f, 0.0, 6.0, panel_width=0.5)
    assert rows.shape == rates.shape
    for rate, row in zip(rates, rows):
        scalar = integrate(lambda x: np.exp(-rate * x) * np.cos(2.0 * x), 0.0, 6.0,
                           panel_width=0.5)
        assert row == pytest.approx(scalar, rel=1e-10, abs=1e-13)


def test_semi_infinite_exponential_tail():
    for a in (0.0, 1.5, 4.0):
        val = complex(integrate_semi_infinite(lambda x: np.exp(-x), a)).real
        assert val == pytest.approx(math.exp(-a), rel=1e-9)


def test_semi_infinite_resolves_tiny_magnitudes():
    # integrands far below the absolute tolerance must still come out
    # with full relative accuracy
    amp = 1e-18
    val = complex(integrate_semi_infinite(lambda x: amp * np.exp(-x), 0.0)).real
    assert val == pytest.approx(amp, rel=1e-9)


def test_semi_infinite_delayed_support():
    # support that begins well away from the lower limit must not be
    # mistaken for a decayed tail
    def f(x):
        x = np.asarray(x)
        return np.where(x < 6.0, 0.0, np.exp(-(x - 6.0)))

    val = complex(integrate_semi_infinite(f, 0.0, scale=1.0)).real
    assert val == pytest.approx(1.0, rel=1e-8)


def test_semi_infinite_vector_rows_equal_scalar_integrals():
    # rows of very different size (the slowest ~e^-200 below the others)
    # and an all-zero row each stop against their own running total
    amps = np.array([1.0, math.exp(-200.0), 0.0, 3.0])
    rates = np.array([1.0, 0.1, 2.0, 0.25])

    def f(x):
        return amps[:, None] * np.exp(-rates[:, None] * x)

    rows = integrate_semi_infinite(f, 0.0)
    assert rows.shape == amps.shape
    assert rows[2] == 0.0
    for amp, rate, row in zip(amps, rates, rows):
        scalar = integrate_semi_infinite(lambda x: amp * np.exp(-rate * x), 0.0)
        assert row == pytest.approx(scalar, rel=1e-12, abs=0.0)
        assert row.real == pytest.approx(amp / rate, rel=1e-9, abs=0.0)


def test_semi_infinite_vector_that_keeps_contributing_fails():
    def f(x):
        return np.stack([np.exp(-x), np.ones_like(x)])

    with pytest.raises(ConvergenceError, match="kept contributing") as err:
        integrate_semi_infinite(f, 0.0)
    assert err.value.estimate > 0.0


def test_2d_box_factorizes():
    def f(x, y):
        return np.exp(-x) * np.cos(y)

    val = complex(integrate_2d_box(f, (0.0, 3.0), (0.0, 1.0)))
    exact = (1.0 - math.exp(-3.0)) * math.sin(1.0)
    assert val.real == pytest.approx(exact, abs=1e-11)
    assert integrate_2d_box(f, (0.0, 0.0), (0.0, 1.0)) == 0.0


def test_2d_box_meets_a_tight_tolerance_across_kinks():
    def f(x, y):
        return np.abs(x - 0.377) * np.abs(y - 0.611)

    tight = QuadratureSpec(rel_tol=1e-14, abs_tol=1e-16)
    val = complex(integrate_2d_box(f, (0.0, 1.0), (0.0, 1.0), tight))
    exact = (0.377 ** 2 + 0.623 ** 2) / 2 * (0.611 ** 2 + 0.389 ** 2) / 2
    assert abs(val - exact) <= 1e-16 + 1e-14 * exact


def test_2d_box_node_budget_fails_fast():
    # an unreachable tolerance must raise instead of refining until the
    # value mesh exhausts memory
    sizes = []

    def f(x, y):
        x, y = np.broadcast_arrays(x, y)
        sizes.append(x.size)
        return x * y + 1e-13 * np.sin(1e9 * (x + math.pi * y))

    tight = QuadratureSpec(rel_tol=1e-16, abs_tol=1e-16)
    with pytest.raises(ConvergenceError):
        integrate_2d_box(f, (0.0, 1.0), (0.0, 1.0), tight)
    assert max(sizes) <= quadrature._MAX_PANELS * 15
