"""Quadrature engine against scipy and closed-form integrals."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import stretch_march
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


def test_first_round_edges_are_linspace_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(34)
    cases = [(-3e-300, 1e-300, 7), (0.0, 5e-324, 4), (-1e6, 1e6, 1)]  # 5e-324 / 4 underflows
    for scale in 10.0 ** rng.uniform(-300.0, 6.0, 200):  # a and b - a of one scale
        cases.append((float(rng.uniform(-50.0, 50.0) * scale),
                      float(rng.uniform(0.01, 100.0) * scale), int(rng.integers(1, 200))))
    for a, width, n in cases:
        b = a + width
        assert b > a
        assert np.array_equal(quadrature._edges(a, b, n), np.linspace(a, b, n + 1))
    # integrate's first round takes those edges
    seen, gk15 = [], quadrature._gk15
    monkeypatch.setattr(quadrature, "_gk15",
                        lambda f, lo, hi: seen.append((lo, hi)) or gk15(f, lo, hi))
    for a, width, n in cases[3:23]:
        seen.clear()
        b = a + max(width, 1e-6)
        integrate(lambda x: np.exp(-x * x), a, b, panel_width=(b - a) / n)
        lo, hi = seen[0]
        assert np.array_equal(np.append(lo, hi[-1]), np.linspace(a, b, lo.size + 1))


def test_array_bounds_equal_the_scalar_call_per_interval_bit_for_bit():
    # uniform and per-interval seeds, lone panels, intervals that refine at a
    # kink and one of zero length, for a scalar and a vector integrand; and a
    # run of intervals of one panel count, the kink inside one of them
    rng = np.random.default_rng(38)
    a = rng.uniform(-3.0, 3.0, 9)
    b = a + rng.exponential(3.0, 9)
    b[4] = a[4]
    run = np.arange(-2.0, 4.0)
    rates = np.array([0.5, 1.0, 3.0])
    integrands = [lambda x: np.abs(x - 0.377) * np.exp(-x),
                  lambda x: np.exp(-rates[:, None] * x) * np.cos(3.0 * x + rates[:, None])]
    cases = [(a, b, seeds) for seeds in (None, 0.3, rng.uniform(0.01, 3.0, 9))]
    cases.append((run, run + 1.0, 0.25))
    for f in integrands:
        for lo, hi, seeds in cases:
            batch = integrate(f, lo, hi, panel_width=seeds)
            assert batch.shape[-1] == lo.size
            for i in range(lo.size):
                seed = seeds[i] if np.ndim(seeds) else seeds
                alone = integrate(f, float(lo[i]), float(hi[i]), panel_width=seed)
                if hi[i] == lo[i]:
                    assert alone == 0.0 and np.all(batch[..., i] == 0.0)
                else:
                    assert np.array_equal(batch[..., i], alone), (i, seed)
    # the run's first rounds share one call; the kink's interval [0, 1] misses
    # its tolerance there and refines in a call of its own
    panels = []
    gk15 = quadrature._gk15
    quadrature._gk15 = lambda f, lo, hi: panels.append(lo.size) or gk15(f, lo, hi)
    try:
        integrate(integrands[0], run, run + 1.0, panel_width=0.25)
    finally:
        quadrature._gk15 = gk15
    assert panels[:2] == [24, 4] and len(panels) > 2


def test_array_bounds_raise_the_scalar_message_for_a_bad_interval():
    for bad in ((math.nan, 2.0), (0.0, math.inf), (3.0, 1.0)):
        with pytest.raises(ValueError) as alone:
            integrate(lambda x: x, *bad)
        with pytest.raises(ValueError) as batch:
            integrate(lambda x: x, np.array([0.0, bad[0]]), np.array([1.0, bad[1]]))
        assert str(batch.value) == str(alone.value)
    # an integrand that is not finite on one interval of a batch
    def f(x):
        return np.where(x > 2.5, np.nan, x)

    with pytest.raises(ConvergenceError, match="non-finite") as alone:
        integrate(f, 2.0, 3.0, panel_width=0.25)
    with pytest.raises(ConvergenceError) as batch:
        integrate(f, np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0]), panel_width=0.25)
    assert str(batch.value) == str(alone.value)


def test_batched_march_equals_the_stretch_by_stretch_march_bit_for_bit():
    amps = np.array([1.0, math.exp(-200.0), 0.0, 3.0])
    rates = np.array([1.0, 0.1, 2.0, 0.25])
    cases = [
        (lambda x: np.exp(-x), 0.0, 1.0),
        (lambda x: amps[:, None] * np.exp(-rates[:, None] * x), 0.0, 1.0),
        (lambda x: np.where(x < 6.0, 0.0, np.exp(-(x - 6.0))), 0.0, 1.0),
        (lambda x: np.exp(-0.05 * x) * (1.0 + np.abs(np.sin(x))), 2.5, 20.0),
        (lambda x: np.exp(-(7.0 + 1j) * x), 0.3, 0.1),
    ]
    for f, a, scale in cases:
        assert np.array_equal(integrate_semi_infinite(f, a, scale=scale),
                              stretch_march(f, a, scale=scale))


def test_march_whose_integrand_fails_past_its_stopping_point_returns():
    # e^-x stops after six stretches, at x = 124, inside the third batch
    # (stretches 4 to 7): that batch fails and is taken again stretch by stretch
    def tail_from(x0):
        return lambda x: np.where(x < x0, np.exp(-x), np.nan)

    assert np.array_equal(integrate_semi_infinite(tail_from(130.0), 0.0),
                          stretch_march(lambda x: np.exp(-x), 0.0))

    # any error of f past the stopping point, not only the engine's
    def raising_from(x0):
        def f(x):
            if x.max() >= x0:
                raise ValueError("past the support")
            return np.exp(-x)
        return f

    assert np.array_equal(integrate_semi_infinite(raising_from(130.0), 0.0),
                          stretch_march(lambda x: np.exp(-x), 0.0))
    with pytest.raises(ValueError, match="past the support"):
        integrate_semi_infinite(raising_from(100.0), 0.0)
    with pytest.raises(ConvergenceError, match="non-finite"):
        integrate_semi_infinite(tail_from(100.0), 0.0)


def test_march_batches_double_up_to_the_stretches_a_decay_at_its_scale_needs():
    # e^-x/10 at scale 10: the stretches start at 0, 4, 12, 28, 60, 124, 252, ...
    # and six of them start within ln(1e10) decay lengths (230.3), so no batch
    # passes the tenth stretch; the march stops at the ninth
    def batches(rate, scale):
        sizes = []

        def f(x):
            sizes.append(x.size // (quadrature._STRETCH_PANELS * 15))
            return np.exp(-rate * x)

        assert np.array_equal(integrate_semi_infinite(f, 0.0, scale=scale),
                              stretch_march(lambda x: np.exp(-rate * x), 0.0, scale=scale))
        return sizes

    assert batches(0.1, 10.0) == [1, 2, 4, 3]
    assert batches(1.0, 1.0) == [1, 2, 4]
    # a slower decay than its scale outlives the seven stretches it was given,
    # and the batches double again from there
    assert batches(0.05, 1.0)[:5] == [1, 2, 4, 8, 16]


def test_march_stretches_are_whole_panel_counts():
    # at scale 1/12 the march's hi - lo rounds up past 8 panel widths on some
    # stretches; each is still cut into exactly 8 panels, so every call of a
    # first-round integrand sees 8 x 15 nodes per stretch
    sizes = []

    def f(x):
        sizes.append(x.size)
        return np.exp(-12.0 * x)

    integrate_semi_infinite(f, 0.0, scale=1.0 / 12.0)
    assert sizes and all(n % (quadrature._STRETCH_PANELS * 15) == 0 for n in sizes)


def test_march_takes_a_failing_batch_again_stretch_by_stretch():
    # e^-x fails from x = 100 on: in the third batch (stretches 4 to 7) the
    # sixth stretch, [92, 124], misses its tolerance in the batch's first
    # round and fails in its own call; the batch is taken again stretch by
    # stretch and the march fails with the sixth stretch's own error
    calls = []

    def f(x):
        calls.append(x.size // (quadrature._STRETCH_PANELS * 15))
        return np.where(x < 100.0, np.exp(-x), np.nan)

    with pytest.raises(ConvergenceError, match=r"\[92, 124\] has a non-finite"):
        integrate_semi_infinite(f, 0.0)
    assert calls == [1, 2, 4, 1, 1, 1, 1]


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
