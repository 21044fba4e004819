"""Excitation dynamics, reversal probabilities and unitarity sums."""

import math
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from waveguide_scatter import (
    Direction,
    PulseProfile,
    WavepacketN,
    excitation_probability,
    excitation_trace,
    h_closed_form,
    lorentzian_mode,
    reflection_probability_closed,
    reflection_probability_numeric,
    unitarity_check_two_photon,
    weighted_h_norm_integral,
)
from waveguide_scatter import amplitudes, kernel, observables, quadrature

from conftest import exponential_envelope, fock_excitation, interpolant_norm_sq, rk4_excitation


def _pair(gamma1, gamma2=None, directions=(Direction.RIGHT, Direction.RIGHT)):
    p1 = PulseProfile.exponential(gamma1)
    p2 = p1 if gamma2 is None else PulseProfile.exponential(gamma2)
    return WavepacketN.product([(p1, directions[0]), (p2, directions[1])])


# -- one-photon excitation ------------------------------------------------------

def test_one_photon_excitation_matches_rk4():
    gamma = 2.0
    p = PulseProfile.exponential(gamma)
    w = WavepacketN.product([(p, Direction.RIGHT)])
    times, ref = rk4_excitation(gamma, 8.0, n_steps=8000)
    idx = np.arange(0, 8001, 500)
    trace = excitation_trace(times[idx], w)
    np.testing.assert_allclose(trace.values, ref[idx], atol=1e-10)
    peak_time, peak_value = trace.peak
    assert peak_value == pytest.approx(ref[idx].max(), abs=1e-8)
    assert peak_time == times[idx][np.argmax(ref[idx])]


def test_matched_drive_spot_value():
    # matched bandwidth gives P_e(t) = (sqrt(2) t e^{-t})^2; at t = 1
    # that is 2 / e^2
    p = PulseProfile.exponential(2.0)
    w = WavepacketN.product([(p, Direction.RIGHT)])
    val = excitation_probability(1.0, w)
    assert val == pytest.approx(2.0 * math.exp(-2.0), abs=1e-12)
    assert val == pytest.approx(0.2706705664732254, abs=1e-12)


def test_one_photon_excitation_direction_blind():
    p = PulseProfile.exponential(1.0)
    wr = WavepacketN.product([(p, Direction.RIGHT)])
    wl = WavepacketN.product([(p, Direction.LEFT)])
    for t in (0.5, 1.5, 4.0):
        assert excitation_probability(t, wr) == pytest.approx(
            excitation_probability(t, wl), abs=1e-12)


# -- two-photon excitation -------------------------------------------------------

def _pe2_matched_identical(t):
    # closed form for two identical matched-bandwidth right movers,
    # derived independently by exact integration of the emission rules
    return 4.0 * math.exp(-4.0 * t) * (-2.0 * t * t - 4.0 * t - 3.0
                                       + (t * t - 2.0 * t + 3.0)
                                       * math.exp(2.0 * t))


def test_two_photon_excitation_matched_closed_form():
    w = _pair(2.0)
    assert _pe2_matched_identical(1.0) == pytest.approx(0.423319265898471,
                                                        abs=1e-12)
    for t in (0.25, 1.0, 2.5, 5.0):
        assert excitation_probability(t, w) == pytest.approx(
            _pe2_matched_identical(t), abs=1e-9)


def test_two_photon_excitation_exp_vs_generic_engine():
    # force the pointwise engine by sampling the same state
    p = PulseProfile.exponential(1.0)
    w = WavepacketN.product([(p, Direction.RIGHT)] * 2)
    grid = np.linspace(0.0, 35.0, 701)
    X, Y = np.meshgrid(grid, grid, indexing="ij")
    xi2 = np.asarray(p.value(X)) * np.asarray(p.value(Y))
    wc = WavepacketN.correlated_pair(grid, xi2=xi2, norm_tol=1e-6)
    assert excitation_probability(1.0, wc) == pytest.approx(
        excitation_probability(1.0, w), abs=5e-4)


def _sampled_351():
    """The 351-node sampled copy of two identical g = 1 photons on [0, 35]."""
    grid = np.linspace(0.0, 35.0, 351)
    envelope = np.exp(-0.5 * grid)
    return WavepacketN.correlated_pair(grid, xi2=np.outer(envelope, envelope), norm_tol=1e-5)


def test_correlated_trace_matches_hierarchy():
    # the sampled copy of two identical g = 1 photons, traced in blocks of
    # times, against the Fock-state hierarchy within 4 x its bilinear
    # resolution floor h^2 / 8
    wc = _sampled_351()
    times = np.linspace(0.25, 8.0, 24)
    trace = excitation_trace(times, wc)
    ref = fock_excitation(exponential_envelope(1.0), 2, times)
    np.testing.assert_allclose(trace.values, ref, rtol=4.0 * 0.1 ** 2 / 8.0, atol=0.0)


def _gaussian_envelope(t):
    return math.pi ** -0.25 * math.exp(-0.5 * (t - 6.0) ** 2)


def _gaussian_photon():
    """pi^(-1/4) exp(-(t - 6)^2 / 2) on [0, 14], given as a closure."""
    return PulseProfile.from_callable(
        lambda t: math.pi ** -0.25 * np.exp(-0.5 * (np.asarray(t) - 6.0) ** 2), t_max=14.0)


@pytest.mark.parametrize("n", [1, 2])
def test_gaussian_trace_matches_hierarchy(n):
    # n identical Gaussian photons in one mode, against the Fock-state
    # hierarchy driven by the same envelope
    w = WavepacketN.product([(_gaussian_photon(), Direction.RIGHT)] * n)
    times = np.linspace(0.5, 16.0, 32)
    ref = fock_excitation(_gaussian_envelope, n, times)
    np.testing.assert_allclose(excitation_trace(times, w).values, ref, rtol=0.0, atol=1e-10)


def test_excitation_validation():
    w3 = WavepacketN.product([(PulseProfile.exponential(1.0),
                               Direction.RIGHT)] * 3)
    with pytest.raises(ValueError):
        excitation_probability(1.0, w3)
    with pytest.raises(ValueError):
        excitation_trace([], w3)
    with pytest.raises(ValueError):
        excitation_probability(-1.0, _pair(1.0))
    with pytest.raises(ValueError):
        excitation_trace([0.5, -1.0], _pair(1.0))
    with pytest.raises(ValueError, match="1-D"):
        excitation_trace([[0.5, 1.0]], _pair(1.0))
    assert excitation_probability(0.0, _pair(1.0)) == 0.0
    assert excitation_trace([], _pair(1.0)).values.shape == (0,)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_excitation_rejects_non_finite_times(t):
    with pytest.raises(ValueError, match="finite"):
        excitation_probability(t, _pair(1.0))
    with pytest.raises(ValueError, match="finite"):
        excitation_trace([0.5, t], _pair(1.0))


def _sampled_pair():
    grid = np.linspace(0.0, 40.0, 101)
    p = PulseProfile.from_samples(grid, np.exp(-0.5 * grid), norm_tol=1e-2)
    return WavepacketN.product([(p, Direction.RIGHT)] * 2)


@pytest.mark.parametrize("w,times", [
    (_pair(2.0), np.linspace(0.0, 6.0, 41)),
    (_pair(0.7, 3.1, (Direction.RIGHT, Direction.LEFT)), np.linspace(0.0, 6.0, 41)),
    (_sampled_pair(), np.array([0.5, 1.0, 2.0])),
])
def test_excitation_trace_matches_per_time_values(w, times):
    trace = excitation_trace(times, w)
    per_time = [excitation_probability(float(t), w) for t in times]
    np.testing.assert_allclose(trace.values, per_time, rtol=0.0, atol=1e-13)


def test_two_photon_trace_takes_no_adaptive_integral(monkeypatch):
    # the trace is a fixed-rule sum over the two-photon axis
    def refuse(*args, **kwargs):
        raise AssertionError("the trace called the adaptive engine")

    for mod in (quadrature, kernel, amplitudes, observables):
        for name in ("integrate", "integrate_semi_infinite"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, refuse)
    for w in (_pair(2.0), _pair(0.7, 3.1, (Direction.RIGHT, Direction.LEFT))):
        assert np.all(excitation_trace(np.linspace(0.05, 8.0, 161), w).values > 0.0)


def test_two_photon_trace_memory_is_bounded_by_its_blocks():
    # a slow right-mover's axis runs to t = 80: ~2,500 nodes by 161 times,
    # read a few times at a time (in blocks of a million entries it would
    # hold 13 MB)
    w = _pair(0.5, 4.0, (Direction.RIGHT, Direction.LEFT))
    times = np.linspace(0.05, 8.0, 161)
    excitation_trace(times, w)
    tracemalloc.start()
    try:
        excitation_trace(times, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_sampled_profiles_run_at_their_data_resolution():
    # two photons sampled at h = 0.4 from the g = 1 exponential: the value
    # is exact for their linear interpolant, which lies within the data
    # resolution h^2 / 8 of the exponential pair's
    grid = np.linspace(0.0, 40.0, 101)
    p = PulseProfile.from_samples(grid, np.exp(-0.5 * grid), norm_tol=1e-2)
    w = WavepacketN.product([(p, Direction.RIGHT)] * 2)
    floor = 0.4 ** 2 / 8.0
    assert excitation_probability(0.5, w) == pytest.approx(
        excitation_probability(0.5, _pair(1.0)), abs=floor)


def test_sampled_pair_trace_matches_hierarchy_on_its_interpolant():
    # the hierarchy driven by the same linear interpolant (np.interp), with
    # RK4 steps that land on the sample nodes, where the envelope kinks
    grid = np.linspace(0.0, 40.0, 101)
    values = np.exp(-0.5 * grid)
    values /= math.sqrt(PulseProfile.from_samples(grid, values, norm_tol=1e-2).norm_sq())
    p = PulseProfile.from_samples(grid, values)
    w = WavepacketN.product([(p, Direction.RIGHT)] * 2)
    times = np.linspace(0.2, 8.0, 41)
    targets = np.union1d(times, grid[grid < times[-1]])
    ref = fock_excitation(lambda t: np.interp(t, grid, values), 2, targets)
    np.testing.assert_allclose(excitation_trace(times, w).values,
                               ref[np.searchsorted(targets, times)], rtol=0.0, atol=1e-9)


def _random_pair(component, seed):
    """A correlated pair with one random complex component on 25 nodes, its
    samples normalized by the Simpson norm that the norm check uses."""
    grid = np.linspace(0.0, 6.0, 25)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(25, 25)) + 1j * rng.normal(size=(25, 25))
    x = x if component == "xi1" else x + x.T
    norm = WavepacketN.correlated_pair(grid, norm_tol=math.inf, **{component: x})
    return WavepacketN.correlated_pair(
        grid, **{component: x / math.sqrt(norm.total_norm_sq_numeric())})


def _counter_sampled_pair():
    grid = np.linspace(0.0, 40.0, 101)
    right = PulseProfile.from_samples(grid, np.exp(-0.5 * grid), norm_tol=1e-2)
    left = PulseProfile.from_samples(grid, 2.0 * grid * np.exp(-grid), norm_tol=5e-2)
    return WavepacketN.product([(right, Direction.RIGHT), (left, Direction.LEFT)])


@pytest.mark.parametrize("make", [
    _sampled_351,
    lambda: _random_pair("xi1", seed=3),
    lambda: _random_pair("xi2", seed=4),
    _counter_sampled_pair,
], ids=["351-node", "random-xi1", "random-xi2", "sampled-product"])
def test_channel_weights_and_excitation_conserve_the_interpolant_norm(make):
    # a sampled state's weights and trace are exact for its interpolant, so
    # they sum to the interpolant's norm, not to the norm of its samples
    w = make()
    norm = interpolant_norm_sq(w)
    for t in (0.5, 3.0, 40.0):
        total = unitarity_check_two_photon(w, t) + excitation_probability(t, w)
        assert total == pytest.approx(norm, rel=0.0, abs=1e-12), t


# -- full-reversal probabilities -------------------------------------------------

def test_closed_reversal_spot_values():
    # single matched photon reverses half the time; the pair, 1/16
    assert reflection_probability_closed(1, 2.0) == pytest.approx(0.5,
                                                                  abs=1e-14)
    assert reflection_probability_closed(2, 2.0) == pytest.approx(0.0625,
                                                                  abs=1e-14)


@pytest.mark.parametrize("gamma", [0.05, 0.7, 3.0, 40.0])
def test_single_photon_reversal_closed_form(gamma):
    assert reflection_probability_closed(1, gamma) == pytest.approx(
        2.0 / (2.0 + gamma), abs=1e-12)


@pytest.mark.parametrize("n", [math.nan, math.inf, 2.5, 0])
def test_closed_reversal_rejects_a_bad_photon_number(n):
    with pytest.raises(ValueError, match="positive integer"):
        reflection_probability_closed(n, 1.0)


def test_closed_reversal_log_domain_handles_deep_tails():
    val = reflection_probability_closed(20, 100.0)
    assert 0.0 < val < 1e-20
    big = reflection_probability_closed(20, 0.01)
    assert 0.0 < big < 1.0


def test_reversal_monotone_in_bandwidth_and_photon_number():
    gammas = np.geomspace(0.01, 100.0, 40)
    for n in (1, 3, 10):
        vals = [reflection_probability_closed(n, float(g)) for g in gammas]
        assert all(a > b for a, b in zip(vals, vals[1:]))
    for gamma in (0.1, 1.0, 10.0):
        by_n = [reflection_probability_closed(n, gamma) for n in range(1, 8)]
        assert all(a > b for a, b in zip(by_n, by_n[1:]))


@pytest.mark.parametrize("n,gamma", [(1, 2.0), (2, 0.5), (3, 2.0), (2, 6.0)])
def test_numeric_reversal_matches_closed(n, gamma):
    res = reflection_probability_numeric(n, gamma)
    assert res.n_photons == n
    assert res.gamma_bw == gamma
    assert res.abs_err <= 1e-8
    assert res.closed == pytest.approx(reflection_probability_closed(n, gamma),
                                       abs=1e-14)


@pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf])
def test_bandwidth_must_be_finite_and_positive(gamma):
    with pytest.raises(ValueError):
        PulseProfile.exponential(gamma)
    with pytest.raises(ValueError):
        PulseProfile("exponential", 10.0, gamma_bw=gamma)
    with pytest.raises(ValueError):
        h_closed_form(1.0, 0.0, gamma)
    with pytest.raises(ValueError):
        weighted_h_norm_integral(1, gamma, 0.0)
    with pytest.raises(ValueError):
        lorentzian_mode(gamma)
    with pytest.raises(ValueError):
        reflection_probability_closed(1, gamma)
    with pytest.raises(ValueError):
        reflection_probability_numeric(1, gamma)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_numeric_reversal_integrates_each_layer_in_one_call(monkeypatch, n):
    # no layer's span is capped at g = 1, so its decay probe rides its tabulation
    calls = []
    engine = observables.integrate_semi_infinite
    monkeypatch.setattr(observables, "integrate_semi_infinite",
                        lambda *a, **k: calls.append(1) or engine(*a, **k))
    reflection_probability_numeric(n, 1.0)
    assert len(calls) == n


def test_numeric_reversal_layers_match_per_node_integrals(monkeypatch):
    # every tabulated log equals the scalar semi-infinite integral at its
    # node, built on the same inner layer
    layers = []
    cls = observables._LogLayer

    class Recorded(cls):
        def __init__(self, evaluator, t_span):
            super().__init__(evaluator, t_span)
            layers.append((self, evaluator))

    monkeypatch.setattr(observables, "_LogLayer", Recorded)
    reflection_probability_numeric(3, 10.0)
    assert len(layers) == 2
    for layer, evaluator in layers:
        per_node = [math.log(max(float(evaluator(np.array([x]))[0]), 1e-300))
                    for x in layer._nodes]
        np.testing.assert_allclose(layer._logs, per_node, rtol=1e-12, atol=0.0)


def test_log_layer_takes_node_samples_next_to_nodes():
    layer = observables._LogLayer(lambda x: np.exp(-x), 10.0)
    nodes = layer._nodes
    # exact nodes, two points within overflow of the node at 0 and one
    # float either side of an inner node, padded to an even length
    tau = np.concatenate([nodes, [5e-324, 1e-310],
                          np.nextafter(nodes[3], [-np.inf, np.inf])])
    tau = np.append(tau, nodes[:tau.size % 2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = layer(tau)
        grid = layer(tau.reshape(2, -1))
    np.testing.assert_allclose(vals[:nodes.size], np.exp(layer._logs), rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(vals, np.exp(-tau), rtol=1e-12)
    assert grid.shape == (2, tau.size // 2)
    assert np.array_equal(grid.ravel(), vals)
    assert layer(np.array([layer.t_span * 1.01]))[0] == 0.0


@pytest.mark.parametrize("f,span,rtol", [
    (lambda t: (1.0 + t + t * t) * np.exp(-2.0 * t), 25.0, 1e-10),
    (lambda t: (1.0 + t) ** -3.0, 40.0, 2e-9),
], ids=["polynomial-times-exponential", "power-law"])
def test_log_layer_reproduces_a_curved_log(f, span, rtol):
    # neither log is linear: a fixed 48-node tabulation was off by ~1e-7
    layer = observables._LogLayer(f, span)
    assert layer.t_span == span
    t = np.linspace(0.0, span, 4001)
    np.testing.assert_allclose(layer(t), f(t), rtol=rtol, atol=0.0)


def test_log_layer_settles_at_the_lowest_degree_for_a_log_linear_layer():
    layer = observables._LogLayer(lambda t: np.exp(-t), 10.0)
    assert layer._nodes.size == 5


def test_log_layer_caps_its_span_when_the_decay_probe_underflows():
    # the first probe, at 0.05 t_span = 12.5, underflows to 0; read as no
    # decay it kept the span at 250 and put most nodes on the log floor
    layer = observables._LogLayer(lambda t: np.exp(-30.0 - 100.0 * t), 250.0)
    assert layer.t_span == pytest.approx(5.0, rel=1e-12)
    t = np.array([0.5, 1.0, 2.0])
    np.testing.assert_allclose(layer(t), np.exp(-30.0 - 100.0 * t), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("f,span,sizes", [
    (lambda t: np.exp(-t), 10.0, [6]),
    (lambda t: np.exp(-10.0 * t), 250.0, [6, 5]),
    (lambda t: np.exp(-30.0 - 100.0 * t), 250.0, [6, 1, 5]),
], ids=["uncapped", "capped", "capped-after-an-underflowed-probe"])
def test_log_layer_tabulates_once_unless_its_span_is_capped(f, span, sizes):
    # the probe rides the degree-4 tabulation; a capped span is tabulated
    # again at its own nodes, after any probe shrunk past an underflow
    seen = []
    observables._LogLayer(lambda t: seen.append(t.size) or f(t), span)
    assert seen == sizes


def test_numeric_reversal_repeats_across_processes():
    # nothing in the nested route may draw on process-global random state
    code = ("from waveguide_scatter import reflection_probability_numeric as f; "
            "print(repr(f(3, 1.0).numeric), repr(f(4, 0.5).numeric))")
    outs = [subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, timeout=120, check=True).stdout
            for _ in range(2)]
    assert outs[0] == outs[1]


def test_numeric_reversal_validates_photon_number():
    with pytest.raises(ValueError):
        reflection_probability_numeric(0, 1.0)
    with pytest.raises(ValueError):
        reflection_probability_numeric(observables._MAX_NUMERIC_PHOTONS + 1, 1.0)


_WIDE_BANDWIDTHS = (0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0)


def test_numeric_reversal_matches_closed_up_to_twenty_photons():
    cases = [(n, gamma) for n in (6, 10, 15, 20) for gamma in _WIDE_BANDWIDTHS]
    # n = 20 at four bandwidths of figure3's default grid above 10 (about 18.9,
    # 39.6, 52.3 and 100), where spans capped only at a log drop of 500 put
    # layer nodes on the log floor
    cases += [(20, float(g)) for g in np.geomspace(0.01, 100, 200)[[163, 179, 185, 199]]]
    rel = {}
    for n, gamma in cases:
        res = reflection_probability_numeric(n, gamma)
        rel[n, gamma] = abs(res.numeric / res.closed - 1.0)
    bad = {k: v for k, v in rel.items() if not v <= 1e-12}
    assert not bad, f"relative error above 1e-12 at (n, gamma): {bad}"


def test_numeric_reversal_survives_an_underflowing_decay_probe():
    # here a layer's decay probe underflows to 0; read as "no decay" it
    # left most nodes on the log floor and a relative error of 0.1
    res = reflection_probability_numeric(15, 10.0)
    assert res.numeric == pytest.approx(res.closed, rel=1e-12, abs=0.0)


def test_numeric_route_reproduces_the_narrowband_values_below_the_stated_floor():
    # test_02b's closed-form values at gamma = 0.01 (0.8969 at n = 4 and
    # lower above it) come out of the independent numeric route as well,
    # so its 0.9 floor is a wrong requirement, not a closed-form slip
    for n in range(4, 11):
        res = reflection_probability_numeric(n, 0.01)
        assert res.closed == reflection_probability_closed(n, 0.01)
        assert res.closed < 0.9
        assert res.numeric == pytest.approx(res.closed, rel=1e-12, abs=0.0)


# -- unitarity -------------------------------------------------------------------

def test_two_photon_unitarity_same_side():
    total = unitarity_check_two_photon(_pair(1.0))
    assert total == pytest.approx(1.0, abs=1e-8)


def test_two_photon_unitarity_counterpropagating():
    w = _pair(1.0, 2.0, (Direction.RIGHT, Direction.LEFT))
    total = unitarity_check_two_photon(w)
    assert total == pytest.approx(1.0, abs=1e-8)


@settings(max_examples=4, deadline=None)
@given(gamma=st.floats(0.8, 30.0), gamma1=st.floats(0.8, 30.0), gamma2=st.floats(0.8, 30.0))
# bandwidths just off the matched g = 2, where a quotient by 1 - g/2 cancels
@example(gamma=1.0, gamma1=1.0, gamma2=2.00001)
@example(gamma=1.0, gamma1=1.0, gamma2=2.000003)
def test_two_photon_unitarity_holds_to_rounding_over_bandwidths(gamma, gamma1, gamma2):
    # the channel probabilities sum to 1 within a few ulps over this range
    for w in (_pair(gamma), _pair(gamma1, gamma2, (Direction.RIGHT, Direction.LEFT))):
        assert abs(unitarity_check_two_photon(w) - 1.0) <= 1e-12


def test_gaussian_pair_channel_weights_sum_to_one():
    # two identical Gaussian photons, observed long after the emitter has
    # relaxed; 0.191156356596226 is the LL weight that the time route and
    # the frequency route give independently
    w = WavepacketN.product([(_gaussian_photon(), Direction.RIGHT)] * 2)
    start = time.perf_counter()
    weights = observables._channel_weights(w, 40.0)
    elapsed = time.perf_counter() - start
    assert abs(sum(weights.values()) - 1.0) <= 1e-12
    assert weights["LL"] == pytest.approx(0.191156356596226, rel=0.0, abs=1e-12)
    assert elapsed <= 3.0
    # the default t is the input's horizon, 14, where the emitter still
    # holds ~1e-6 of the excitation
    assert 1e-7 < 1.0 - unitarity_check_two_photon(w) < 1e-5


@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0, 0.0])
def test_unitarity_rejects_a_non_finite_or_non_positive_time(t):
    with pytest.raises(ValueError, match="finite and > 0"):
        unitarity_check_two_photon(_pair(1.0), t)


def test_unitarity_rejects_a_one_photon_input():
    w1 = WavepacketN.product([(PulseProfile.exponential(1.0),
                               Direction.RIGHT)])
    with pytest.raises(ValueError):
        unitarity_check_two_photon(w1)


@pytest.mark.parametrize("t", [0.5, 1.0, 3.0, 10.0])
def test_channel_weights_and_excitation_sum_to_one_at_any_time(t):
    # what the channels have not received by t, the emitter holds
    for w in (_pair(1.0), _pair(1.0, 2.0, (Direction.RIGHT, Direction.LEFT)),
              WavepacketN.product([(_gaussian_photon(), Direction.RIGHT)] * 2)):
        total = unitarity_check_two_photon(w, t) + excitation_probability(t, w)
        assert abs(total - 1.0) <= 1e-12


def test_a_sampled_photon_with_a_fast_partner_conserves_its_norm():
    # a g = 20 partner decays within a few 0.4-wide sample cells, which are
    # then split by the ladder's panels and take its rule
    grid = np.linspace(0.0, 40.0, 101)
    sampled = PulseProfile.from_samples(grid, np.exp(-0.5 * grid), norm_tol=1e-2)
    fast = PulseProfile.exponential(20.0)
    w = WavepacketN.product([(sampled, Direction.RIGHT), (fast, Direction.LEFT)])
    norm = sampled.norm_sq() * fast.norm_sq()
    for t in (0.5, 3.0, 40.0):
        total = unitarity_check_two_photon(w, t) + excitation_probability(t, w)
        assert total == pytest.approx(norm, rel=0.0, abs=1e-12), t


def test_two_photon_axis_ends_once_the_memory_is_spent():
    # past horizon + 45 nothing is incoming and the memory has decayed by
    # e^-45, so a late time takes the axis of horizon + 45
    w = _pair(1.0, 2.0, (Direction.RIGHT, Direction.LEFT))
    spent = w.horizon + 45.0
    x_late, _ = observables._triangle_weights(w, 1e4)
    x_spent, _ = observables._triangle_weights(w, spent)
    assert x_late.size == x_spent.size
    late, at_spent = observables._channel_weights(w, 1e4), observables._channel_weights(w, spent)
    for channel, value in at_spent.items():
        assert late[channel] == pytest.approx(value, rel=0.0, abs=1e-15)
    assert 0.0 <= excitation_probability(1e6, w) <= 1e-30


def test_two_photon_unitarity_of_a_slow_pair():
    # g = 0.1: an axis of ~4,000 nodes over [0, 400], read in several fill blocks
    assert abs(unitarity_check_two_photon(_pair(0.1)) - 1.0) <= 1e-12


def test_triangle_weights_integrate_polynomials_exactly():
    # t = 3.3 is a panel edge inside the axis over [0, 40]: rows gated at t are exact
    end, t = 40.0, 3.3
    x, blocks = observables._triangle_weights(_pair(1.0), t)
    (_, upper, lower), = blocks
    for a in range(10):
        for b in range(10):
            n = a + b + 2
            f = np.outer(x ** a, x ** b)
            gated = np.outer((x <= t) * x ** a, x ** b)
            for got, exact in (
                    (np.sum(upper * f), end ** n / ((a + 1) * n)),
                    (np.sum(lower * f), end ** n / ((b + 1) * n)),
                    (np.sum(upper * gated),
                     (end ** (b + 1) * t ** (a + 1) / (a + 1) - t ** n / n) / (b + 1)),
                    (np.sum(lower * gated), t ** n / ((b + 1) * n))):
                assert got == pytest.approx(exact, rel=1e-13, abs=0.0), (a, b)


def test_panel_nodes_equal_the_per_panel_rules_joined():
    # placed from one rule per distinct node count, the nodes and weights are
    # each panel's rule joined in panel order, bit for bit, for counts mixed
    # in any order (the axes use 6 and 10)
    rng = np.random.default_rng(5)
    edges = np.cumsum(np.concatenate([[0.0], rng.uniform(0.05, 1.0, 60)]))
    nodes = rng.choice([3, observables._CELL_NODES, observables._PANEL_NODES], 60)
    rules = [observables._panel_rule(n) for n in nodes]
    half = np.repeat(0.5 * np.diff(edges), nodes)
    x, weights = observables._panel_nodes(edges, nodes)
    assert np.array_equal(
        x, np.repeat(edges[:-1], nodes) + half * (1.0 + np.concatenate([r[0] for r in rules])))
    assert np.array_equal(weights, half * np.concatenate([r[1] for r in rules]))


def test_channel_weights_do_not_depend_on_the_fill_blocks(monkeypatch):
    w = _pair(1.0, 2.0, (Direction.RIGHT, Direction.LEFT))
    whole = observables._channel_weights(w, 3.0)
    monkeypatch.setattr(amplitudes, "_BLOCK_ENTRIES", 37_000)
    assert len(list(observables._triangle_weights(w, 3.0)[1])) > 1
    blocked = observables._channel_weights(w, 3.0)
    for channel, value in whole.items():
        assert blocked[channel] == pytest.approx(value, rel=0.0, abs=1e-15)
