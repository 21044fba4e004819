"""Quadrature engine against scipy and closed-form integrals."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from waveguide_scatter import (
    ConvergenceError,
    QuadratureSpec,
    gauss_legendre_nodes,
    integrate,
    integrate_2d_box,
    integrate_semi_infinite,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=0)


def test_gauss_legendre_nodes_integrate_polynomials_exactly():
    x, w = gauss_legendre_nodes(6, -1.5, 2.5)
    for k in range(0, 12):
        exact = (2.5 ** (k + 1) - (-1.5) ** (k + 1)) / (k + 1)
        assert float(np.sum(w * x ** k)) == pytest.approx(exact, rel=1e-13)


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
    with pytest.raises(ValueError):
        integrate(lambda x: x, 2.0, 1.0)


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


def test_2d_box_factorizes():
    def f(x, y):
        return np.exp(-x) * np.cos(y)

    val = complex(integrate_2d_box(f, (0.0, 3.0), (0.0, 1.0)))
    exact = (1.0 - math.exp(-3.0)) * math.sin(1.0)
    assert val.real == pytest.approx(exact, abs=1e-11)
    assert integrate_2d_box(f, (0.0, 0.0), (0.0, 1.0)) == 0.0


def test_2d_box_node_budget_fails_fast():
    # a kinked integrand with an unreachable tolerance must raise
    # instead of refining without bound
    def f(x, y):
        return np.abs(x - 0.377) * np.abs(y - 0.611)

    tight = QuadratureSpec(rel_tol=1e-14, abs_tol=1e-16)
    with pytest.raises(ConvergenceError):
        integrate_2d_box(f, (0.0, 1.0), (0.0, 1.0), tight,
                         max_nodes_per_axis=256)
