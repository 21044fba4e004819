"""Checks of the benchmark's reference computations against independent ones.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import math
import os
import sys

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

import oracles  # noqa: E402


@pytest.mark.parametrize("gamma", [0.3, 1.0, 2.0, 2.0 + 1e-9, 5.0])
@pytest.mark.parametrize("window", [(0.0, 1.3), (0.4, 2.7)])
def test_kernel_matches_its_defining_integral(gamma, window):
    a, b = window
    ref, _ = quad(lambda s: math.exp(-(b - s)) * math.sqrt(gamma) * math.exp(-0.5 * gamma * s),
                  a, b, epsabs=1e-14, epsrel=1e-13)
    assert oracles.kernel_h(b, a, gamma) == pytest.approx(ref, rel=1e-11, abs=1e-14)


@pytest.mark.parametrize("gamma", [0.1, 1.0, 7.5])
def test_one_photon_reversal_is_two_over_two_plus_gamma(gamma):
    assert oracles.reversal_probability(1, gamma) == pytest.approx(2.0 / (2.0 + gamma), rel=1e-14)


@pytest.mark.parametrize("gamma", [0.7, 3.0])
def test_two_photon_reversal_against_nested_quadrature(gamma):
    # 2! * integral_0^inf h(t1, 0)^2 integral_t1^inf h(t2, t1)^2 dt2 dt1
    end = 60.0 / min(gamma, 1.0)
    val, _ = dblquad(lambda t2, t1: (oracles.kernel_h(t1, 0.0, gamma) * oracles.kernel_h(t2, t1, gamma)) ** 2,
                     0.0, end, lambda t1: t1, lambda t1: end, epsabs=1e-13, epsrel=1e-10)
    assert oracles.reversal_probability(2, gamma) == pytest.approx(2.0 * val, rel=1e-7)


def test_rk4_one_photon_matches_squared_kernel():
    times = np.linspace(0.1, 8.0, 17)
    for gamma in (0.6, 2.0, 2.9):
        got = oracles.rk4_one_photon(gamma, times)
        assert np.max(np.abs(got - oracles.kernel_h(times, 0.0 * times, gamma) ** 2)) < 1e-10


def test_hierarchy_one_photon_matches_rk4_and_spot_value():
    times = np.linspace(0.05, 6.0, 13)
    for gamma in (0.8, 2.4):
        hier = oracles.fock_excitation([(gamma, 1)], times)
        assert np.max(np.abs(hier - oracles.rk4_one_photon(gamma, times))) < 1e-9
    # matched bandwidth: |h|^2 = 2 t^2 exp(-2 t), which is 2 e^-2 at t = 1
    assert oracles.fock_excitation([(2.0, 1)], [1.0])[0] == pytest.approx(2.0 * math.exp(-2.0), abs=1e-10)


def test_hierarchy_empty_channel_changes_nothing():
    times = [0.5, 1.5, 3.0]
    one = oracles.fock_excitation([(1.3, 1)], times)
    padded = oracles.fock_excitation([(1.3, 1), (2.7, 0)], times)
    assert np.max(np.abs(one - padded)) < 1e-14


def test_hierarchy_two_photons_start_twice_as_fast_and_relax():
    early = [1e-3]
    two = oracles.fock_excitation([(1.5, 2)], early, max_step=1e-5)[0]
    one = oracles.fock_excitation([(1.5, 1)], early, max_step=1e-5)[0]
    assert two / one == pytest.approx(2.0, rel=1e-2)
    late = oracles.fock_excitation([(1.5, 2)], [0.5, 2.0, 40.0])
    assert np.all(late >= 0.0) and np.all(late <= 1.0) and late[-1] < 1e-12


def test_pair_channels_are_unitary_and_symmetric():
    gamma, end = 1.0, 40.0
    fine = np.linspace(0.0, end, 2001)
    sums = []
    for axis in (fine, fine[::2]):
        ch = oracles.pair_channels(axis[:, None], axis[None, :], end, gamma)
        sums.append(sum(oracles.trapezoid_norm(v, axis) for v in ch.values()))
        assert np.max(np.abs(ch["LL"] - ch["LL"].T)) < 1e-15
        assert np.max(np.abs(ch["RR"] - ch["RR"].T)) < 1e-15
    richardson = (4.0 * sums[0] - sums[1]) / 3.0
    assert richardson == pytest.approx(1.0, abs=1e-6)


def test_pair_channels_satisfy_the_saturation_identity():
    # both photons reversed: linear h1 h2 plus B must equal the ordered
    # emission chain h(a, 0) h(b, a)
    gamma, a, b = 1.7, 0.6, 2.1
    ch = oracles.pair_channels(np.array(a), np.array(b), 10.0, gamma)
    ordered = oracles.kernel_h(a, 0.0, gamma) * oracles.kernel_h(b, a, gamma)
    assert ch["LL"] == pytest.approx(ordered, rel=1e-13)


@pytest.mark.parametrize("gamma", [1.0, 2.0, 3.3])
@pytest.mark.parametrize("s", [-3.0, 0.0, 1.7])
def test_closed_convolution_against_quadrature(gamma, s):
    amp = math.sqrt(gamma / (2.0 * math.pi))

    def f(w):
        return (-1j / (w + 1j)) * amp / (0.5 * gamma - 1j * w)

    def g(w, part):
        v = f(w) * f(s - w)
        return v.real if part == 0 else v.imag

    re, _ = quad(g, -np.inf, np.inf, args=(0,), epsabs=1e-13, limit=400)
    im, _ = quad(g, -np.inf, np.inf, args=(1,), epsabs=1e-13, limit=400)
    assert abs(oracles._conv_closed(s, gamma) - (re + 1j * im)) < 1e-10


def test_sig12_tolerance():
    assert oracles.sig12_tolerance(1.23456789012345) == pytest.approx(5e-12)
    assert oracles.sig12_tolerance(-4.2e-7) == pytest.approx(5e-18)
    assert oracles.sig12_tolerance(0.0) < 1e-300
