"""Acceptance gate: one test per numbered requirement, pinned tolerances.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per requirement.  Requirement 2 is split: the bandwidth-sweep
shape properties pass, while the stated small-bandwidth floor is kept
verbatim in its own test and is expected to fail for photon numbers
above three (the closed form puts the N = 4 value at 0.8969, below the
stated 0.9 floor; see the repository decision notes for the analysis).
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from waveguide_scatter import (
    Direction,
    PulseProfile,
    WavepacketN,
    appendix_comparison,
    excitation_probability,
    h_closed_form,
    linear_beamsplitter_amplitude,
    nonlinear_correction_B,
    ordered_emission_amplitude,
    reflection_amplitude_f0,
    reflection_probability_closed,
    reflection_probability_numeric,
    single_photon_reflection_freq,
    unitarity_check_two_photon,
    weighted_h_norm_integral,
)
from waveguide_scatter.cli import main

from conftest import brute_reflection_f0, rk4_excitation

_SQRT2 = math.sqrt(2.0)


def _identical_pair(gamma):
    p = PulseProfile.exponential(gamma)
    return WavepacketN.product([(p, Direction.RIGHT)] * 2)


def test_01_closed_vs_numeric_reversal_sweep():
    # |closed - numeric| <= 1e-6 for n in 1..5, six bandwidths; < 30 s
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 6):
        for gamma in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            res = reflection_probability_numeric(n, gamma)
            worst = max(worst, res.abs_err)
            assert res.abs_err <= 1e-6, (
                f"n={n} gamma={gamma}: |closed - numeric| = {res.abs_err:.3g}")
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"sweep took {elapsed:.1f} s"


def test_02a_bandwidth_sweep_shape_properties(tmp_path):
    # 200-point log sweep over [1e-2, 1e2] through the CLI: narrowband
    # saturation toward zero, strict monotone decrease in bandwidth and
    # in photon number
    out = tmp_path / "sweep.csv"
    rc = main(["figure3", "--n-list", "1,2,3,4,5,6,7,8,9,10,20",
               "--gamma-grid", "log:0.01:100:200", "-o", str(out)])
    assert rc == 0
    series: dict[int, list[float]] = {}
    for line in out.read_text().splitlines()[1:]:
        n_txt, _, val_txt = line.split(",")
        series.setdefault(int(n_txt), []).append(float(val_txt))
    assert sorted(series) == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 20]
    for n, vals in series.items():
        assert len(vals) == 200
        assert vals[-1] < 0.05, f"n={n}: wideband value {vals[-1]:.3g}"
        assert all(a > b for a, b in zip(vals, vals[1:])), (
            f"n={n}: not strictly decreasing in bandwidth")
    by_gamma = np.array([series[n] for n in sorted(series)])
    assert np.all(np.diff(by_gamma, axis=0) < 0.0), (
        "photon-number ordering violated at fixed bandwidth")


def test_02b_small_bandwidth_floor_as_stated():
    # stated floor: narrowband reversal above 0.9 for every n <= 10.
    # The closed form caps the n = 4 value at 0.8969 for bandwidth 0.01,
    # so this requirement cannot hold as written; it is kept verbatim
    # and expected to fail (see the decision notes).
    failures = {}
    for n in range(1, 11):
        val = reflection_probability_closed(n, 0.01)
        if not val > 0.9:
            failures[n] = val
    assert not failures, (
        "narrowband floor 0.9 violated by the closed form at bandwidth "
        f"0.01 for n -> value: {failures}")


def test_03_single_photon_reversal_frequency_oracle():
    # 2/(2 + bandwidth) against the frequency-domain integral, 1e-6
    for gamma in (0.1, 1.0, 10.0):
        closed = reflection_probability_closed(1, gamma)
        assert closed == pytest.approx(2.0 / (2.0 + gamma), abs=1e-12)
        freq = single_photon_reflection_freq(gamma)
        assert abs(closed - freq) <= 1e-6, (
            f"gamma={gamma}: closed {closed!r} vs frequency route {freq!r}")
    # the narrowband limit approaches full reversal
    assert reflection_probability_closed(1, 1e-6) > 0.999999


def test_04_saturation_identity_random_triples():
    # ordered two-photon emission = linear prediction + sqrt(2) x
    # correction at 100 random (tau1, tau2, bandwidth) triples, both
    # sides by independent quadrature, absolute error <= 1e-7
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for _ in range(100):
        gamma = float(rng.uniform(0.2, 8.0))
        w = _identical_pair(gamma)
        lo = float(rng.uniform(0.05, 2.5))
        hi = lo + float(rng.uniform(0.0, 2.5))
        ordered = complex(ordered_emission_amplitude([lo, hi], w))
        linear = complex(linear_beamsplitter_amplitude(lo, hi, w))
        corr = complex(nonlinear_correction_B(lo, hi, w))
        gap = abs(ordered - (linear + _SQRT2 * corr))
        worst = max(worst, gap)
        assert gap <= 1e-7, (
            f"identity gap {gap:.3g} at (lo={lo:.3f}, hi={hi:.3f}, "
            f"gamma={gamma:.3f})")


def test_05_two_route_channel_comparison():
    # bridged time-domain channels vs the direct frequency assembly on
    # a 64 x 64 grid over [-10, 10]^2, max error <= 1e-4, under 2 min
    start = time.perf_counter()
    for gamma in (0.5, 1.0, 2.0):
        report = appendix_comparison(gamma, tolerance=1e-4)
        for ch in report.channels:
            assert ch.max_abs_err <= 1e-4, (
                f"gamma={gamma} channel {ch.channel}: "
                f"max error {ch.max_abs_err:.3g}")
        assert report.passed
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"comparison took {elapsed:.1f} s"


def test_06_one_photon_excitation_ode_oracle():
    # kernel-method excitation vs fixed-step RK4 of the driven-decay
    # ODE, 1e-6 at every trace point; matched-bandwidth spot value
    gamma = 2.0
    p = PulseProfile.exponential(gamma)
    w = WavepacketN.product([(p, Direction.RIGHT)])
    times, ref = rk4_excitation(gamma, 8.0, n_steps=20000)
    idx = np.arange(0, 20001, 500)
    worst = 0.0
    for i in idx:
        ours = excitation_probability(float(times[i]), w)
        worst = max(worst, abs(ours - ref[i]))
        assert abs(ours - ref[i]) <= 1e-6, (
            f"t={times[i]:.2f}: kernel {ours!r} vs ODE {ref[i]!r}")
    spot = excitation_probability(1.0, w)
    assert spot == pytest.approx(2.0 * math.exp(-2.0), abs=1e-9)
    assert spot == pytest.approx(0.2706705664732254, abs=1e-9)


def test_07_two_photon_unitarity():
    # long-time channel probabilities sum to 1 +- 1e-5
    for gamma in (0.5, 2.0, 20.0):
        total = unitarity_check_two_photon(_identical_pair(gamma))
        assert abs(total - 1.0) <= 1e-5, (
            f"gamma={gamma}: channel probabilities sum to {total!r}")


def test_08_three_photon_brute_tensor_quadrature():
    # permanent-based reflected amplitude vs dense 3-D tensor
    # quadrature at 20 random time triples, relative error <= 1e-5
    rng = np.random.default_rng(20260814)
    p = PulseProfile.exponential(2.0)
    w = WavepacketN.product([(p, Direction.RIGHT)] * 3)
    worst = 0.0
    for _ in range(20):
        ts = np.sort(rng.uniform(0.05, 3.0, size=3))
        pkg = complex(reflection_amplitude_f0(ts, w, 10.0))
        brute = brute_reflection_f0(ts, [p, p, p])
        rel = abs(pkg - brute) / abs(brute)
        worst = max(worst, rel)
        assert rel <= 1e-5, f"times {ts}: relative gap {rel:.3g}"


def test_09_kernel_fixtures():
    # closed-form continuity across the matched bandwidth on the
    # wavefront line, 1e-6 (the bandwidth slope there stays below 0.1,
    # so the bound is meaningful), and at 2 +- 2.1e-6, where the closed form
    # once switched to a series branch
    for b in (0.25, 0.5, 1.0, 2.0, 4.0, 6.0):
        mid = h_closed_form(b, 0.0, 2.0)
        assert abs(h_closed_form(b, 0.0, 2.0 - 1e-5) - mid) <= 1e-6
        assert abs(h_closed_form(b, 0.0, 2.0 + 1e-5) - mid) <= 1e-6
        for edge in (2.0 + 2.1e-6, 2.0 - 2.1e-6):
            assert abs(h_closed_form(b, 0.0, edge) - mid) <= 1e-6
    for m in (0, 1, 2):
        for gamma, tau_p in ((0.5, 0.0), (2.0, 0.3), (6.0, 1.0)):
            closed = weighted_h_norm_integral(m, gamma, tau_p)
            ref, _ = quad(
                lambda tau: math.exp(-m * gamma * tau)
                * h_closed_form(tau, tau_p, gamma) ** 2,
                tau_p, np.inf, limit=400)
            assert abs(closed - ref) <= 1e-7, (
                f"m={m} gamma={gamma} tau_p={tau_p}: "
                f"closed {closed!r} vs quadrature {ref!r}")
