"""Time-domain scattering amplitudes against independent oracles."""

import csv
import functools
import io
import math
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import dblquad

from waveguide_scatter import (
    AmplitudeGrid,
    CHANNELS,
    Direction,
    PulseProfile,
    WavepacketN,
    excited_atom,
    exp_pair_channel_values,
    h_closed_form,
    linear_beamsplitter_amplitude,
    load_grid_csv,
    nonlinear_correction_B,
    ordered_emission_amplitude,
    reflection_amplitude_f0,
    two_photon_channel_grid,
    two_photon_outputs,
    write_grid_csv,
)

from waveguide_scatter import amplitudes
from waveguide_scatter.amplitudes import (
    _channel_sums,
    _PairKernels,
    _write_table,
)
from waveguide_scatter.model import _bilinear
from waveguide_scatter.quadrature import DEFAULT_QUAD, QuadratureSpec, integrate

from conftest import QuadratureKernels, brute_reflection_f0, emitter_amplitudes

_SQRT2 = math.sqrt(2.0)


def _pair(gamma1, gamma2=None, directions=(Direction.RIGHT, Direction.RIGHT)):
    p1 = PulseProfile.exponential(gamma1)
    p2 = p1 if gamma2 is None else PulseProfile.exponential(gamma2)
    return WavepacketN.product([(p1, directions[0]), (p2, directions[1])])


def _gaussian(centre=3.0, sigma=0.5, t_max=8.0, chirp=0.0):
    """Unit-norm Gaussian envelope times exp(i chirp t), given as a closure."""
    amp = (2.0 / (math.pi * sigma ** 2)) ** 0.25
    return PulseProfile.from_callable(
        lambda t: amp * np.exp(-((t - centre) / sigma) ** 2) * np.exp(1j * chirp * t),
        t_max, timescale=sigma)


# -- single photon ------------------------------------------------------------

@pytest.mark.parametrize("gamma", [0.4, 1.3, 2.0, 8.0])
def test_single_emission_is_minus_kernel(gamma):
    p = PulseProfile.exponential(gamma)
    w = WavepacketN.product([(p, Direction.RIGHT)])
    for t in (0.3, 1.0, 2.7):
        quadrature = complex(ordered_emission_amplitude([t], w))
        assert quadrature == pytest.approx(-h_closed_form(t, 0.0, gamma),
                                           abs=1e-10)


def test_excited_atom_emits_bare_decay():
    for tau in (0.0, 0.8, 2.5):
        amp = complex(ordered_emission_amplitude([tau], excited_atom()))
        assert amp == pytest.approx(math.exp(-tau), abs=1e-12)


def test_excited_atom_with_a_photon_emits_then_absorbs():
    # the stored excitation leaves at tau1, then the photon is absorbed
    # over (tau1, tau2] and re-emitted: -exp(-tau1) h(tau2, tau1)
    gamma = 1.7
    one = WavepacketN.product([(PulseProfile.exponential(gamma), Direction.RIGHT)])
    for tau1, tau2 in ((0.0, 1.2), (0.4, 0.4), (0.8, 2.5)):
        amp = complex(ordered_emission_amplitude([tau1, tau2], excited_atom(one)))
        assert amp == pytest.approx(-math.exp(-tau1) * h_closed_form(tau2, tau1, gamma),
                                    abs=1e-15)


def test_reflection_gates_on_observation_time():
    p = PulseProfile.exponential(1.3)
    w = WavepacketN.product([(p, Direction.RIGHT)])
    assert reflection_amplitude_f0([2.0], w, 1.5) == 0.0
    boundary = complex(reflection_amplitude_f0([1.5], w, 1.5))
    assert boundary == pytest.approx(-h_closed_form(1.5, 0.0, 1.3), abs=1e-12)


# -- two-photon emission and the saturation identity --------------------------

@settings(max_examples=60, deadline=None)
@given(tau1=st.floats(0.0, 5.0), tau2=st.floats(0.0, 5.0), gamma=st.floats(0.2, 6.0))
def test_ordered_equals_linear_plus_correction_random_sweep(tau1, tau2, gamma):
    # every term is closed form, accurate to rounding through gamma = 2
    w = _pair(gamma)
    lo, hi = sorted((tau1, tau2))
    ordered = complex(ordered_emission_amplitude([lo, hi], w))
    linear = complex(linear_beamsplitter_amplitude(tau1, tau2, w))
    corr = complex(nonlinear_correction_B(tau1, tau2, w))
    assert abs(ordered - (linear + _SQRT2 * corr)) <= 1e-9


def test_correction_spot_value_against_dblquad():
    # identical unit-bandwidth right movers at equal times: the square
    # saturation window factorizes into the one-photon kernel squared
    gamma = 1.0
    w = _pair(gamma)
    ours = complex(nonlinear_correction_B(1.0, 1.0, w))
    assert ours.real == pytest.approx(-0.2278176164447814, abs=1e-9)
    assert ours.real == pytest.approx(-h_closed_form(1.0, 0.0, gamma) ** 2,
                                      abs=1e-9)

    def env(t):
        return math.sqrt(gamma) * math.exp(-0.5 * gamma * t)

    ref, _ = dblquad(
        lambda s2, s1: math.exp(-(1.0 - s1)) * math.exp(-(1.0 - s2))
        * env(s1) * env(s2), 0.0, 1.0, 0.0, 1.0)
    assert ours.real == pytest.approx(-ref, abs=1e-9)


def test_correction_is_symmetric_and_gated():
    w = _pair(0.9, 3.0)
    a = complex(nonlinear_correction_B(0.7, 1.9, w))
    b = complex(nonlinear_correction_B(1.9, 0.7, w))
    assert a == pytest.approx(b, abs=1e-12)
    assert nonlinear_correction_B(0.0, 1.2, w) == 0.0


# -- reflected amplitude vs brute tensor quadrature ---------------------------

def test_two_photon_reflection_against_brute_tensor():
    rng = np.random.default_rng(7)
    q = PulseProfile.exponential(3.0)
    # two exponential envelopes, then a Gaussian read off its absorption table
    for p in (PulseProfile.exponential(1.0), _gaussian()):
        w = WavepacketN.product([(p, Direction.RIGHT), (q, Direction.RIGHT)])
        for _ in range(6):
            ts = np.sort(rng.uniform(0.05, 3.0, size=2))
            pkg = complex(reflection_amplitude_f0(ts, w, 10.0))
            brute = brute_reflection_f0(ts, [p, q])
            assert pkg == pytest.approx(brute, abs=1e-9)


def test_three_photon_reflection_against_brute_tensor():
    rng = np.random.default_rng(11)
    p = PulseProfile.exponential(2.0)
    w = WavepacketN.product([(p, Direction.RIGHT)] * 3)
    for _ in range(5):
        ts = np.sort(rng.uniform(0.05, 3.0, size=3))
        pkg = complex(reflection_amplitude_f0(ts, w, 10.0))
        brute = brute_reflection_f0(ts, [p, p, p])
        assert abs(pkg - brute) / abs(brute) <= 1e-8


def test_reflection_amplitude_is_the_ordered_amplitude_over_root_factorial():
    # one tolerance policy: f0 and the ordered amplitude share one chain
    t_samp = np.linspace(0.0, 30.0, 301)
    p = PulseProfile.from_samples(t_samp, np.exp(-0.5 * t_samp), norm_tol=1e-2)
    grid = np.linspace(0.0, 6.0, 25)
    for w in (WavepacketN.product([(p, Direction.RIGHT)] * 2),
              _random_pair(grid, (2,), seed=3)):
        for times in ((0.7, 1.9), (0.2, 0.4), (2.1, 4.5)):
            f0 = complex(reflection_amplitude_f0(times, w, 9.0))
            assert f0 != 0.0
            assert f0 == complex(ordered_emission_amplitude(times, w)) / _SQRT2


def test_reflection_rejects_mixed_directions():
    w = _pair(1.0, 1.0, (Direction.RIGHT, Direction.LEFT))
    with pytest.raises(ValueError):
        reflection_amplitude_f0([0.5, 1.0], w, 5.0)


# -- output channels -----------------------------------------------------------

def test_channel_fast_path_matches_pointwise_engine():
    rng = np.random.default_rng(20260814)
    for dirs in ((Direction.RIGHT, Direction.RIGHT),
                 (Direction.RIGHT, Direction.LEFT)):
        w = _pair(1.3, 2.7, dirs)
        for _ in range(6):
            t1 = float(rng.uniform(0.0, 6.0))
            t2 = float(rng.uniform(0.0, 6.0))
            t_obs = float(rng.uniform(1.0, 7.0))
            slow = _channel_sums(QuadratureKernels(w, DEFAULT_QUAD), w, CHANNELS,
                                 t1, t2, t_obs)
            for ch in CHANNELS:
                fast = complex(exp_pair_channel_values(
                    w, ch, np.asarray(t1), np.asarray(t2), t_obs))
                assert complex(slow[ch]) == pytest.approx(fast, abs=1e-9)


class _Counted:
    """A kernel provider that counts its evaluations."""

    def __init__(self, kernels):
        self.kernels = kernels
        self.calls = {"spectator": 0, "windows": 0}

    def spectator(self, *args):
        self.calls["spectator"] += 1
        return self.kernels.spectator(*args)

    def windows(self, *args):
        self.calls["windows"] += 1
        return self.kernels.windows(*args)


@pytest.mark.parametrize("first", ["exponential", "gaussian"])
@pytest.mark.parametrize("dirs", [(Direction.RIGHT, Direction.RIGHT),
                                  (Direction.RIGHT, Direction.LEFT)])
def test_kernel_providers_agree_on_product_pairs(dirs, first):
    p = (PulseProfile.exponential(1.3) if first == "exponential"
         else _gaussian(centre=1.5, sigma=0.35))
    w = WavepacketN.product([(p, dirs[0]), (PulseProfile.exponential(2.7), dirs[1])])
    product = _PairKernels(w, DEFAULT_QUAD)
    quad = QuadratureKernels(w, DEFAULT_QUAD)
    t = 1.1
    # before t, at t (closed gate, theta(0) = 1) and past t, where the
    # chain's window is reversed and must not be evaluated at all
    tau = np.array([0.4, t, 2.3])
    gate = tau <= t
    for d in (Direction.RIGHT, Direction.LEFT):
        s_product = product.spectator(d, t, tau, True)
        np.testing.assert_allclose(quad.spectator(d, t, tau, True), s_product,
                                   rtol=0.0, atol=1e-9)
        assert np.all(product.spectator(d, t, tau, False) == 0.0)
    t_product = product.windows(0.0, tau, tau, t, gate)
    t_quad = quad.windows(0.0, tau, tau, t, gate)
    np.testing.assert_allclose(t_quad, t_product, rtol=0.0, atol=1e-9)
    assert abs(t_product[0]) > 1e-3
    assert t_product[2] == 0.0 and t_quad[2] == 0.0
    for a_quad, a_product in zip(emitter_amplitudes(quad, tau, t),
                                 emitter_amplitudes(product, tau, t)):
        np.testing.assert_allclose(a_quad, a_product, rtol=0.0, atol=1e-9)
    # channel sums with an emission exactly at the observation time
    for a, b in ((t, 0.4), (0.4, t), (t, t), (t, 2.3)):
        counted = _Counted(quad)
        by_quad = _channel_sums(counted, w, CHANNELS, a, b, t)
        by_product = _channel_sums(product, w, CHANNELS, a, b, t)
        for ch in CHANNELS:
            assert complex(by_quad[ch]) == pytest.approx(complex(by_product[ch]), abs=1e-9)
        # four spectator terms and one double window serve all three channels
        assert counted.calls == {"spectator": 4, "windows": 1}


@pytest.mark.parametrize("kind", ["exponential", "gaussian", "correlated"])
def test_emitter_blocks_match_the_point_form(monkeypatch, kind):
    # the emitter amplitudes from one-time values equal the provider's point
    # form before, at and past each time; blocks of three times, and t = 1000
    # apart from 2.3 by more than the block span
    if kind == "exponential":
        w = _pair(0.7, 3.0, (Direction.RIGHT, Direction.LEFT))
    elif kind == "gaussian":
        w = WavepacketN.product([(_gaussian(), Direction.RIGHT),
                                 (_gaussian(centre=2.0, sigma=0.7), Direction.RIGHT)])
    else:
        w = _random_pair(np.linspace(0.0, 6.0, 25), (0, 1, 2), seed=5)
    times = np.array([0.0, 0.4, 1.1, 2.3, 1000.0])
    x = np.union1d(np.linspace(0.0, 9.0, 37), times[:-1])
    kernels = _PairKernels(w, DEFAULT_QUAD)
    monkeypatch.setattr(amplitudes, "_EMITTER_ENTRIES", 3 * x.size)
    seen = []
    for i0, right, left in amplitudes._emitter_blocks(w, times, x):
        for i, t in enumerate(times[i0:i0 + len(right)]):
            seen.append(t)
            for got, want in zip((right[i], left[i]), emitter_amplitudes(kernels, x, t)):
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)
    assert seen == list(times)


# -- correlated pairs: window integrals of the bilinear interpolant ---------------

_TIGHT = QuadratureSpec(rel_tol=1e-14, abs_tol=1e-16)


def _random_pair(grid, components, seed):
    """A normalized correlated pair with random complex components on grid."""
    rng = np.random.default_rng(seed)
    tensors = {}
    for n in components:
        shape = (grid.size, grid.size)
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        tensors[f"xi{n}"] = x if n == 1 else x + x.T
    norm = WavepacketN.correlated_pair(grid, norm_tol=math.inf, **tensors).total_norm_sq_numeric()
    return WavepacketN.correlated_pair(grid, **{k: v / math.sqrt(norm) for k, v in tensors.items()})


def _by_cells(f, lo, hi, nodes):
    """Adaptive integral of f over [lo, hi], one engine call per piece between nodes."""
    edges = np.concatenate([[lo], nodes[(nodes > lo) & (nodes < hi)], [hi]])
    return sum(integrate(f, a, b, _TIGHT) for a, b in zip(edges[:-1], edges[1:]) if b > a)


def _xi(w, n, x, y):
    """Component n of a correlated pair, read through model._bilinear."""
    x, y = np.broadcast_arrays(x, y)
    return _bilinear(w.grid, w.grid, w.tensors[n], x, y) if n in w.tensors else 0.0


def _reference_S(w, d, te, ts):
    """S from the bilinear interpolant of each component, integrated over [0, te]."""
    xi = functools.partial(_xi, w)

    def integrand(s):
        pair = (_SQRT2 * xi(2, ts, s) + xi(1, ts, s) if d is Direction.RIGHT
                else xi(1, s, ts) + _SQRT2 * xi(0, s, ts))
        return np.exp(-(te - s)) * pair

    return -complex(_by_cells(integrand, 0.0, te, w.grid))


def _reference_W(w, box1, box2):
    """W: the bilinear joint extraction amplitude over box1 x box2, nested."""
    g = w.grid
    (lo1, hi1), (lo2, hi2) = box1, box2
    xi = functools.partial(_xi, w)

    def outer(t1):
        def inner(t2):
            a, b = t1[:, None], t2[None, :]
            joint = (_SQRT2 * xi(0, a, b) + xi(1, a, b) + xi(1, b, a) + _SQRT2 * xi(2, a, b))
            return np.exp(-(hi2 - b)) * joint
        return np.exp(-(hi1 - t1)) * _by_cells(inner, lo2, hi2, g)

    return complex(_by_cells(outer, lo1, hi1, g))


@pytest.mark.parametrize("components", [(1,), (0, 1, 2)])
def test_correlated_kernels_are_exact_for_the_bilinear_interpolant(components):
    # a non-uniform grid that starts after 0; times before it, on nodes,
    # inside cells and past its end
    grid = np.array([0.5, 0.9, 1.6, 2.0, 2.7, 3.05, 4.0])
    w = _random_pair(grid, components, seed=len(components))
    kernels = _PairKernels(w, DEFAULT_QUAD)
    emit = np.array([0.3, 0.5, 1.2, 2.0, 3.3, 4.0, 5.1])
    spec = np.array([0.2, 0.5, 1.9, 2.7, 4.0, 4.4, 0.9])
    for d in (Direction.RIGHT, Direction.LEFT):
        got = kernels.spectator(d, emit, spec, True)
        ref = [_reference_S(w, d, a, b) for a, b in zip(emit, spec)]
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)
        assert abs(got[-1]) > 1e-3  # emitted past the grid's end, decayed from it
    # the ordered chain, windows (0, lo) x (lo, hi)
    lo = np.array([0.3, 0.9, 1.2, 2.0, 2.3, 2.7, 4.5, 2.5])
    hi = np.array([1.4, 3.05, 1.2, 2.0, 4.6, 3.9, 4.9, 1.0])
    gate = lo <= hi
    got = kernels.windows(0.0, lo, lo, hi, gate)
    ref = [_reference_W(w, (0.0, a), (a, b)) if open_ else 0.0
           for a, b, open_ in zip(lo, hi, gate)]
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)
    # lo == hi closes the second window, and the reversed window is gated off
    assert got[2] == 0.0 and got[3] == 0.0 and got[-1] == 0.0
    # (0, 0.3) ends before the grid and (4.5, 4.9) starts past it; the
    # rest overlap it
    assert abs(got[0]) == 0.0 and abs(got[6]) < 1e-15
    assert np.all(np.abs(got[[1, 4, 5]]) > 1e-3)
    # first windows that start before the grid, on a node, inside a cell
    # and past the grid's end; second windows that end before the first
    # starts, overlap it and are empty
    lo1 = np.array([0.2, 0.9, 1.2, 2.3, 4.2, 1.7])
    hi1 = np.array([2.4, 2.7, 3.5, 2.3, 4.6, 1.2])
    lo2 = np.array([0.0, 0.4, 1.6, 1.0, 3.3, 0.5])
    hi2 = np.array([1.1, 3.05, 1.6, 3.7, 4.1, 2.0])
    gate = lo1 <= hi1
    got = kernels.windows(lo1, hi1, lo2, hi2, gate)
    ref = [_reference_W(w, (a, b), (c, d)) if open_ else 0.0
           for a, b, c, d, open_ in zip(lo1, hi1, lo2, hi2, gate)]
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)
    assert got[2] == 0.0 and got[3] == 0.0 and got[-1] == 0.0
    assert np.all(np.abs(got[[0, 1]]) > 1e-3)
    # past the grid's end a(x) only decays, so the two contractions cancel
    assert abs(got[4]) < 1e-15
    # the square window (0, x)^2 of the saturation correction
    x = np.array([0.3, 0.9, 2.2, 5.0])
    got = kernels.windows(0.0, x, 0.0, x, True)
    ref = [_reference_W(w, (0.0, a), (0.0, a)) for a in x]
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)
    assert got[0] == 0.0 and np.all(np.abs(got[1:]) > 1e-3)


def test_correlated_channel_grid_matches_pointwise_outputs():
    grid = np.linspace(0.0, 6.0, 25)
    w = _random_pair(grid, (0, 1, 2), seed=7)
    ax1 = np.array([0.0, 0.6, 1.55, 3.0, 6.5])
    ax2 = np.array([0.3, 1.55, 2.4, 5.0])
    for ch in CHANNELS:
        values = two_photon_channel_grid(w, ch, ax1, ax2, 2.4).values
        for i, t1 in enumerate(ax1):
            for j, t2 in enumerate(ax2):
                point = two_photon_outputs(float(t1), float(t2), 2.4, w)[ch]
                assert values[i, j] == pytest.approx(point, abs=1e-14)


def test_rank_one_correlated_pair_is_its_sampled_product_pair():
    # the 351-node sampled copy of two g = 1 photons is one product pair of
    # the sampled photon, exactly for their interpolants
    grid = np.linspace(0.0, 35.0, 351)
    x = np.exp(-0.5 * grid)
    wc = WavepacketN.correlated_pair(grid, xi2=np.outer(x, x), norm_tol=1e-5)
    # (the interpolant's norm is 4e-4 off the pair's Simpson norm; a product
    # state of one profile twice normalizes by exchange alone)
    p = PulseProfile.from_samples(grid, x, norm_tol=1e-3)
    wp = WavepacketN.product([(p, Direction.RIGHT)] * 2)
    ((photons, _, partner, _),) = _PairKernels(wc, DEFAULT_QUAD).pairs
    assert photons is partner and len(photons._values) == 1  # one term: one photon, twice
    for a, b in ((0.3, 2.1), (1.7, 1.7), (4.0, 0.25), (7.5, 9.0), (36.0, 2.0)):
        out_c, out_p = two_photon_outputs(a, b, 8.0, wc), two_photon_outputs(a, b, 8.0, wp)
        for ch in CHANNELS:
            assert abs(out_c[ch] - out_p[ch]) <= 1e-14
    ax = np.linspace(0.0, 12.0, 201)
    np.testing.assert_allclose(two_photon_channel_grid(wc, "RR", ax, ax, 8.0).values,
                               two_photon_channel_grid(wp, "RR", ax, ax, 8.0).values,
                               rtol=0.0, atol=1e-14)


def _cusp_pair():
    """A 101-node pair with an exp(-2 |t1 - t2|) cusp, full rank on its grid."""
    grid = np.linspace(0.0, 10.0, 101)
    t1, t2 = grid[:, None], grid[None, :]
    xi1 = np.exp(-0.5 * (t1 + t2) - 2.0 * np.abs(t1 - t2)) + 0j
    norm = WavepacketN.correlated_pair(grid, xi1=xi1, norm_tol=math.inf).total_norm_sq_numeric()
    return WavepacketN.correlated_pair(grid, xi1=xi1 / math.sqrt(norm))


@pytest.mark.parametrize("kind", ["random", "cusp"])
def test_full_rank_pair_grid_matches_pointwise_outputs(kind):
    # every term of each component's decomposition is one product pair of
    # the fill; axes before, on and past the grid, gated inside them
    w = (_random_pair(np.linspace(0.0, 10.0, 101), (0, 1, 2), seed=11) if kind == "random"
         else _cusp_pair())
    for n, x in w.tensors.items():
        u, v = amplitudes._cross_terms(x, symmetric=n != 1)
        assert len(u) == x.shape[0]
        assert (u is v) == (n != 1)
        # the residual in extended precision, against the decomposition's
        # bound: the carried residual plus the rounding of m updates
        x = x.astype(np.clongdouble)
        exact = x - u.T.astype(np.clongdouble) @ v.astype(np.clongdouble)
        bound = amplitudes._CROSS_TOL + len(x) * np.finfo(float).eps
        assert np.sqrt(np.sum(np.abs(exact) ** 2)) <= bound * np.sqrt(np.sum(np.abs(x) ** 2))
    ax1 = np.linspace(0.0, 11.0, 12)
    ax2 = np.array([0.0, 0.45, 2.0, 3.33, 6.0, 7.0, 9.95, 10.0, 10.5])
    for ch in CHANNELS:
        values = two_photon_channel_grid(w, ch, ax1, ax2, 7.0).values
        points = [[two_photon_outputs(float(a), float(b), 7.0, w)[ch] for b in ax2] for a in ax1]
        np.testing.assert_allclose(values, points, rtol=0.0, atol=1e-13)
        assert np.max(np.abs(values)) > 1e-2


def test_symmetric_decomposition_pivots_on_blocks_off_a_zero_diagonal():
    # two photons in disjoint modes: x = a b^T + b a^T has rank 2 and a zero
    # diagonal, so no diagonal entry can serve as a pivot
    grid = np.linspace(0.0, 4.0, 9)
    a = np.where(grid < 2.0, np.exp(-grid), 0.0) + 0j
    b = np.where(grid > 2.0, 1j * np.sin(grid), 0.0)
    x = np.outer(a, b) + np.outer(b, a)
    u, v = amplitudes._cross_terms(x, symmetric=True)
    assert u is v and len(u) == 2
    bound = amplitudes._CROSS_TOL + len(x) * np.finfo(float).eps
    assert np.linalg.norm(u.T @ u - x) <= bound * np.linalg.norm(x)


def test_channels_gate_past_observation_time():
    w = _pair(1.0)
    out = two_photon_outputs(1.0, 5.0, 3.0, w)
    # the late photon contributes only through its input term
    p = PulseProfile.exponential(1.0)
    xi = complex(p.value(1.0)) * complex(p.value(5.0))
    assert out["RR"] != 0.0
    # fully gated: both detections beyond the horizon leave bare inputs
    out_far = two_photon_outputs(4.0, 5.0, 3.0, w)
    assert out_far["RR"] == pytest.approx(xi * complex(p.value(4.0))
                                          / complex(p.value(1.0)), abs=1e-12)
    assert out_far["LL"] == 0.0
    assert out_far["RL"] == 0.0


def test_reflected_channel_matches_reflection_amplitude():
    w = _pair(0.8)
    for (a, b) in ((0.4, 1.7), (1.1, 1.1)):
        out = two_photon_outputs(a, b, 9.0, w)
        f0 = complex(reflection_amplitude_f0([min(a, b), max(a, b)], w, 9.0))
        assert out["LL"] == pytest.approx(f0, abs=1e-9)


def test_channel_grid_matches_fast_path_and_is_symmetric():
    w = _pair(1.0)
    ax = np.linspace(0.0, 4.0, 9)
    grid = two_photon_channel_grid(w, "RR", ax, ax, 8.0)
    assert grid.channel == "RR"
    assert grid.dynamical_time == 8.0
    np.testing.assert_allclose(grid.axes[0], ax)
    direct = exp_pair_channel_values(w, "RR", ax[:, None], ax[None, :], 8.0)
    np.testing.assert_allclose(grid.values, direct, atol=1e-13)
    assert grid.max_asymmetry() <= 1e-13


@pytest.mark.parametrize("gammas, dirs, ax1, ax2, t_obs", [
    # slow pulse on its default horizon: rescaled chain factors
    ((0.1, 0.1), "RR", np.linspace(0.0, 800.0, 641), None, 800.0),
    # either side of the matched bandwidth
    ((2.0 - 1e-7, 2.0 - 1e-7), "RR", np.linspace(0.0, 20.0, 201), None, 20.0),
    ((2.0 + 1e-7, 2.0 + 1e-7), "RR", np.linspace(0.0, 20.0, 201), None, 20.0),
    # unequal pair, both and opposite directions, unequal axes
    ((1.3, 2.7), "RR", np.linspace(0.0, 30.0, 151), np.linspace(0.0, 25.0, 97), 30.0),
    ((1.3, 2.7), "RL", np.linspace(0.0, 30.0, 151), np.linspace(0.0, 25.0, 97), 30.0),
    ((1.3, 2.7), "LR", np.linspace(0.5, 12.0, 83), np.linspace(0.0, 9.0, 120), 30.0),
    # gate time inside the axes
    ((0.8, 1.6), "RL", np.linspace(0.0, 10.0, 101), np.linspace(0.0, 12.0, 90), 4.3),
])
def test_channel_grid_fill_matches_pointwise_channels(gammas, dirs, ax1, ax2, t_obs):
    ax2 = ax1 if ax2 is None else ax2
    w = _pair(gammas[0], gammas[1], tuple(Direction.RIGHT if d == "R" else Direction.LEFT
                                           for d in dirs))
    for ch in CHANNELS:
        grid = two_photon_channel_grid(w, ch, ax1, ax2, t_obs)
        direct = exp_pair_channel_values(w, ch, ax1[:, None], ax2[None, :], t_obs)
        assert np.all(np.isfinite(grid.values))
        assert np.max(np.abs(grid.values - direct)) <= 1e-13, ch


def test_channel_grid_fallback_matches_pointwise_outputs():
    # a sampled envelope's grid fill reads K_p off its absorption table, and
    # its exponential partner's closed form, on each axis
    t_samp = np.linspace(0.0, 30.0, 151)
    p = PulseProfile.from_samples(t_samp, np.exp(-0.5 * t_samp), norm_tol=1e-2)
    w = WavepacketN.product([(p, Direction.RIGHT), (PulseProfile.exponential(2.0),
                                                    Direction.LEFT)])
    ax1 = np.array([0.0, 0.6, 1.5])
    ax2 = np.array([0.3, 1.5, 2.4])
    for ch in CHANNELS:
        grid = two_photon_channel_grid(w, ch, ax1, ax2, 1.5)
        for i, t1 in enumerate(ax1):
            for j, t2 in enumerate(ax2):
                point = two_photon_outputs(float(t1), float(t2), 1.5, w)[ch]
                assert grid.values[i, j] == pytest.approx(point, abs=1e-14)


@pytest.mark.parametrize("dirs, chirp", [((Direction.RIGHT, Direction.RIGHT), 0.0),
                                         ((Direction.RIGHT, Direction.LEFT), 0.0),
                                         ((Direction.RIGHT, Direction.RIGHT), 0.7)],
                         ids=["dirs0", "dirs1", "chirped"])
def test_gaussian_channel_grid_matches_pointwise_outputs(dirs, chirp):
    # callable photons read every window off their absorption tables, so a
    # grid point owes nothing to the other points of the grid; a chirped
    # photon makes the fill's factors complex
    w = WavepacketN.product([(_gaussian(chirp=chirp), dirs[0]),
                             (_gaussian(centre=2.0, sigma=0.7), dirs[1])])
    ax1 = np.linspace(0.0, 9.0, 7)
    ax2 = np.array([0.2, 1.5, 3.0, 3.1, 6.0, 8.5])
    for ch in CHANNELS:
        grid = two_photon_channel_grid(w, ch, ax1, ax2, 4.5)
        assert np.any(np.abs(grid.values) > 1e-3)
        for i, t1 in enumerate(ax1):
            for j, t2 in enumerate(ax2):
                point = two_photon_outputs(float(t1), float(t2), 4.5, w)[ch]
                assert grid.values[i, j] == pytest.approx(point, rel=0.0, abs=1e-14)


@pytest.mark.parametrize("kind", ["gaussian", "sampled", "correlated"])
def test_product_channel_grid_takes_the_factor_fill(monkeypatch, kind):
    # any state's grid is multiplied out from its photons' one-time
    # absorptions K_p on each axis; the pointwise channel sums are left to
    # single points
    def refuse(*args, **kwargs):
        raise AssertionError("a grid took the pointwise channel sums")

    if kind == "gaussian":
        photons = (_gaussian(), _gaussian(centre=2.0, sigma=0.7))
    elif kind == "sampled":
        t_samp = np.linspace(0.0, 30.0, 151)
        photons = (PulseProfile.from_samples(t_samp, np.exp(-0.5 * t_samp), norm_tol=1e-2),
                   PulseProfile.from_samples(t_samp, math.sqrt(2.0) * np.exp(-t_samp),
                                             norm_tol=1e-2))
    if kind == "correlated":
        w = _random_pair(np.linspace(0.0, 6.0, 25), (0, 1, 2), seed=5)
    else:
        w = WavepacketN.product([(photons[0], Direction.RIGHT), (photons[1], Direction.LEFT)])
    monkeypatch.setattr(amplitudes, "_channel_sums", refuse)
    ax = np.linspace(0.0, 9.0, 37)
    for ch in CHANNELS:
        grid = two_photon_channel_grid(w, ch, ax, ax, 6.0)
        assert np.all(np.isfinite(grid.values))
        assert np.any(np.abs(grid.values) > 1e-3)


@pytest.mark.parametrize("kind", ["exponential", "mixed", "correlated"])
def test_grid_fill_takes_rank_two_per_photon_pair(kind):
    # an ordered photon pair's input, spectator and linear histories are one
    # product of a tau1 factor and a tau2 factor: two per photon pair (one per
    # order) and the ordered chain's column on each triangle, in every channel
    if kind == "exponential":
        w, photon_pairs = _pair(1.0), 1
    elif kind == "mixed":
        w, photon_pairs = _pair(0.7, 3.0, (Direction.RIGHT, Direction.LEFT)), 1
    else:
        # a full-rank 25-node tensor decomposes into 25 photon pairs per component
        w, photon_pairs = _random_pair(np.linspace(0.0, 6.0, 25), (0, 1, 2), seed=5), 75
        assert sum(len(p._values) for p, _, _, _ in _PairKernels(w, DEFAULT_QUAD).pairs) == 75
    ax = np.linspace(0.0, 12.0, 41)
    for ch in CHANNELS:
        _, blocks = amplitudes._pair_factors(w, ch, ax, ax, 8.0)
        for _, (up_rows, up_cols), (low_rows, low_cols) in blocks:
            for rows, cols in ((up_rows, up_cols), (low_rows, low_cols)):
                assert rows.shape[1] == len(cols) == 2 * photon_pairs + 1, ch


def test_grid_csv_round_trip(tmp_path):
    w = _pair(1.0, 2.0)
    ax1 = np.linspace(0.0, 3.0, 7)
    ax2 = np.linspace(0.0, 4.0, 9)
    grid = two_photon_channel_grid(w, "RL", ax1, ax2, 6.0)
    csv_path = tmp_path / "grid.csv"
    header_path = tmp_path / "grid.json"
    write_grid_csv(grid, csv_path, header_path)
    loaded = load_grid_csv(csv_path, header_path)
    assert loaded.channel == grid.channel
    assert loaded.dynamical_time == grid.dynamical_time
    np.testing.assert_allclose(loaded.axes[0], grid.axes[0], atol=1e-11)
    np.testing.assert_allclose(loaded.values, grid.values, atol=1e-10)


# cells a 12-significant-digit CSV must carry through: signed zeros, the
# smallest subnormal, three-digit exponents, nan and both infinities
_SPECIAL_CELLS = [-0.0, 0.0, 5e-324, 1e300, -1e300, 1e-300, -1e-300,
                  math.nan, math.inf, -math.inf, 0.1, -2.5]


def _csv_writer_reference(path, grid):
    """The grid's CSV written row by row with csv.writer, as the format is specified."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"tau{i + 1}" for i in range(grid.ndim)] + ["t", "re", "im"])
        for idx in np.ndindex(grid.values.shape):
            v = grid.values[idx]
            cells = [a[i] for a, i in zip(grid.axes, idx)]
            cells += [grid.dynamical_time, v.real, v.imag]
            writer.writerow([f"{x:.11e}" for x in cells])


@pytest.mark.parametrize("axes", [
    (np.array([-1e300, -1e-300, -0.0, 5e-324, 1e-300, 1.0, 1e300]),),
    (np.array([-0.0, 5e-324, 1e300]), np.array([-1e300, 0.0, 1e-300, 2.5])),
    # 9,000 rows make three blocks of the writer, each holding every
    # special cell many times on both sides of its edges
    (np.r_[-np.geomspace(1e300, 1e-300, 49), -0.0, np.geomspace(5e-324, 1e300, 50)],
     np.linspace(-1.0, 1.0, 90)),
])
def test_grid_csv_matches_csv_writer_reference(tmp_path, axes):
    shape = tuple(a.size for a in axes)
    values = np.empty(shape, dtype=complex)
    # the parts are set apart, since re + 1j * im turns some of them into nan
    values.real = np.resize(_SPECIAL_CELLS, shape)
    values.imag = np.resize(_SPECIAL_CELLS[::-1], shape)
    grid = AmplitudeGrid(axes=axes, values=values, channel="RL", dynamical_time=-0.0)
    write_grid_csv(grid, tmp_path / "block.csv")
    _csv_writer_reference(tmp_path / "reference.csv", grid)
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def _table_text(header, columns):
    with io.StringIO() as fh:
        _write_table(fh, header, columns)
        return fh.getvalue()


def _random_doubles():
    # seeded bit patterns over every finite double, a quarter of them subnormal
    bits = np.random.default_rng(20261019).integers(0, 2**64, 2**18, dtype=np.uint64)
    bits[:2**16] &= np.uint64(0x800F_FFFF_FFFF_FFFF)
    x = bits.view(np.float64)
    return x[np.isfinite(x)]


def _powers_of_ten():
    p = np.array([float(f"1e{k}") for k in range(-99, 100)])
    return np.r_[p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]


def _exponent_limits():
    # the ends of the two-digit exponents, and values that round across them
    x = np.array([1e-99, 1e100, 9.999999999995e-100, 9.9999999999995e99])
    return np.r_[x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)]


def _half_ties():
    # (m + 1/2) / 10**k for 12-digit m, ten at each exponent -99..99, rounded
    # to the nearest double; for k = -5..0 the double is the tie itself
    rng = np.random.default_rng(24)
    ties = [(int(m), k) for k in range(-88, 111) for m in rng.integers(10**11, 10**12, 10)]
    ties += [(int(m), k) for k in range(-5, 1) for m in rng.integers(10**11, 10**12, 100)]
    return np.array([float(Fraction(2 * m + 1, 2) * Fraction(10) ** -k) for m, k in ties])


@pytest.mark.parametrize("values", [
    _random_doubles, _powers_of_ten, _exponent_limits, _half_ties,
    lambda: np.array([0.0, math.nan, math.inf]),
], ids=["random-bits", "powers-of-ten", "exponent-limits", "half-ties", "zero-nan-inf"])
def test_float_cells_match_percent_format(values):
    x = values()
    x = np.r_[x, -x]
    cells = _table_text(["x"], [x]).splitlines()[1:]
    assert len(cells) == x.size
    assert [(v, cell) for v, cell in zip(x.tolist(), cells) if cell != "%.11e" % v] == []


def _csv_writer_table(header, columns):
    """The table as csv.writer writes it, cell by cell with Python's %."""
    with io.StringIO(newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in zip(*(c.tolist() for c in columns)):
            writer.writerow(["%d" % x if isinstance(x, int) else "%.11e" % x for x in row])
        return fh.getvalue()


@pytest.mark.parametrize("columns", [
    [np.array([-3, 0, 7, -3, np.iinfo(np.int64).min, np.iinfo(np.int64).max, -1]),
     np.array([0.1, -0.0, 1e-45, 3.4028235e38, -2.5, math.inf, math.nan], dtype=np.float32)],
    [np.array([], dtype=np.int64), np.array([], dtype=np.float32)],
    [np.array([-12]), np.array([0.1], dtype=np.float32)],
], ids=["int64-and-float32", "zero-rows", "one-row"])
def test_table_matches_csv_writer_reference(columns):
    header = ["n", "x"]
    assert _table_text(header, columns) == _csv_writer_table(header, columns)


def test_grid_csv_writer_memory_is_bounded_by_its_block(tmp_path):
    # the writer formats one block at a time and takes its tau cells from
    # the block's row indices (about 1.7 MB peak at either size here);
    # formatting whole columns at once peaked at about 27 MB, and whole
    # meshgrid tau columns at 2.3 MB (200^2) and 4.2 MB (400^2)
    peaks = []
    for n in (200, 400):
        ax = np.linspace(0.0, 8.0, n)
        grid = two_photon_channel_grid(_pair(1.0, 2.0), "RR", ax, ax, 8.0)
        tracemalloc.start()
        try:
            write_grid_csv(grid, tmp_path / "grid.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 8e6
    assert abs(peaks[1] - peaks[0]) <= 0.5e6


def test_amplitude_grid_takes_sequences_and_keeps_real_values_real():
    grid = AmplitudeGrid(axes=([0.0, 1.0],), values=[1.0, 2.0], channel="LL",
                         dynamical_time=0.0)
    assert grid.values.dtype == float
    np.testing.assert_array_equal(grid.values, [1.0, 2.0])
    with pytest.raises(ValueError, match="values shape"):
        AmplitudeGrid(axes=([0.0, 1.0],), values=[1.0], channel="LL", dynamical_time=0.0)


@pytest.mark.parametrize("edit, needle", [
    # both axes stay whole; line 3 is then (tau1[1], tau2[0])
    (lambda lines: lines[:1] + sorted(lines[1:], key=lambda line: float(line.split(",")[1])),
     r"line 3 of .*grid\.csv is not the grid node"),
    (lambda lines: lines[:7] + lines[6:7] + lines[8:],
     r"line 8 of .*grid\.csv is not the grid node"),
    (lambda lines: lines[:6] + lines[7:], r"grid\.csv has 11 rows for a grid of \(3, 4\) nodes"),
], ids=["sorted-by-tau2", "row-copied-over-its-neighbour", "row-missing"])
def test_load_grid_csv_rejects_rows_off_their_nodes(tmp_path, edit, needle):
    csv_path = tmp_path / "grid.csv"
    header_path = tmp_path / "grid.json"
    write_grid_csv(two_photon_channel_grid(_pair(1.0, 2.0), "RL", np.linspace(0.0, 2.0, 3),
                                           np.linspace(0.0, 3.0, 4), 6.0),
                   csv_path, header_path)
    csv_path.write_text("".join(edit(csv_path.read_text().splitlines(keepends=True))))
    with pytest.raises(ValueError, match=needle):
        load_grid_csv(csv_path, header_path)


def test_load_grid_csv_rejects_columns_its_header_does_not_name(tmp_path):
    csv_path = tmp_path / "grid.csv"
    header_path = tmp_path / "grid.json"
    write_grid_csv(two_photon_channel_grid(_pair(1.0, 2.0), "RL", np.linspace(0.0, 2.0, 3),
                                           np.linspace(0.0, 3.0, 4), 6.0),
                   csv_path, header_path)
    # re and im swapped on every line, the header line included
    lines = [line.rstrip("\n").split(",") for line in csv_path.read_text().splitlines()]
    csv_path.write_text("".join(",".join(cells[:3] + cells[:2:-1]) + "\n" for cells in lines))
    assert csv_path.read_text().startswith("tau1,tau2,t,im,re\n")
    with pytest.raises(ValueError, match=r"grid\.csv has columns .*'im', 're'.* says .*'re', 'im'"):
        load_grid_csv(csv_path, header_path)


@pytest.mark.parametrize("header_name", ["grid.json", "sub/../grid.json"])
def test_write_grid_csv_refuses_one_file_for_csv_and_header(tmp_path, header_name):
    (tmp_path / "sub").mkdir()
    grid = two_photon_channel_grid(_pair(1.0, 2.0), "RL", np.linspace(0.0, 2.0, 3),
                                   np.linspace(0.0, 3.0, 4), 6.0)
    with pytest.raises(ValueError, match="both be written"):
        write_grid_csv(grid, tmp_path / "grid.json", tmp_path / header_name)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]


@pytest.mark.parametrize("shape", [(0, 4), (3, 0)])
def test_write_grid_csv_refuses_an_empty_axis_before_opening_a_file(tmp_path, shape):
    axes = tuple(np.linspace(0.0, 2.0, n) for n in shape)
    grid = AmplitudeGrid(axes=axes, values=np.zeros(shape, dtype=complex), channel="RL",
                         dynamical_time=6.0)
    for header in (tmp_path / "grid.json", None):
        with pytest.raises(ValueError, match="empty axis"):
            write_grid_csv(grid, tmp_path / "grid.csv", header)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("pair", ["exponential", "callable"])
@pytest.mark.parametrize("empty", ["axis1", "axis2"])
def test_channel_grid_names_an_empty_axis(pair, empty):
    w = _pair(1.0, 2.0) if pair == "exponential" else WavepacketN.product(
        [(_gaussian(), Direction.RIGHT), (_gaussian(centre=4.0), Direction.LEFT)])
    axes = {"axis1": np.linspace(0.0, 2.0, 3), "axis2": np.linspace(0.0, 3.0, 4), empty: []}
    with pytest.raises(ValueError, match=f"{empty} is an empty axis"):
        two_photon_channel_grid(w, "RL", axes["axis1"], axes["axis2"], 6.0)


def test_load_grid_csv_rejects_a_truncated_file(tmp_path):
    w = _pair(1.0, 2.0)
    ax = np.linspace(0.0, 3.0, 6)
    csv_path = tmp_path / "grid.csv"
    header_path = tmp_path / "grid.json"
    write_grid_csv(two_photon_channel_grid(w, "RL", ax, ax, 6.0), csv_path, header_path)
    lines = csv_path.read_text().splitlines(keepends=True)
    csv_path.write_text("".join(lines[:-6]))  # the last tau1 row of the grid
    with pytest.raises(ValueError, match="tau1"):
        load_grid_csv(csv_path, header_path)


def _sig12(x):
    """x as its 12-significant-digit decimal reads back."""
    return np.vectorize(lambda v: float(f"{v:.11e}"))(x)


@st.composite
def _grids(draw):
    # axis nodes are distinct integers times one scale, so they stay
    # distinct at 12 significant digits
    scale = draw(st.floats(1e-200, 1e200))
    axes = tuple(scale * np.array(sorted(draw(st.lists(st.integers(-10**6, 10**6),
                                                        min_size=1, max_size=5, unique=True))),
                                  dtype=float)
                 for _ in range(draw(st.integers(1, 2))))
    shape = tuple(a.size for a in axes)
    values = np.array(draw(st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False),
                                    min_size=math.prod(shape), max_size=math.prod(shape))),
                      dtype=complex).reshape(shape)
    return AmplitudeGrid(axes=axes, values=values, channel="LL",
                         dynamical_time=draw(st.floats(allow_nan=False, allow_infinity=False)))


@settings(max_examples=40, deadline=None)
@given(_grids())
def test_grid_csv_round_trip_keeps_12_significant_digits(grid):
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, header_path = Path(tmp) / "g.csv", Path(tmp) / "g.json"
        write_grid_csv(grid, csv_path, header_path)
        loaded = load_grid_csv(csv_path, header_path)
    assert loaded.channel == grid.channel
    assert loaded.dynamical_time == grid.dynamical_time
    for got, axis in zip(loaded.axes, grid.axes):
        np.testing.assert_array_equal(got, _sig12(axis))
    np.testing.assert_array_equal(loaded.values.real, _sig12(grid.values.real))
    np.testing.assert_array_equal(loaded.values.imag, _sig12(grid.values.imag))


def test_correlated_state_reproduces_product_channels():
    # a sampled product tensor must agree with the separable fast path
    # to the bilinear data-resolution floor
    p = PulseProfile.exponential(1.0)
    w = WavepacketN.product([(p, Direction.RIGHT)] * 2)
    grid = np.linspace(0.0, 35.0, 701)
    X, Y = np.meshgrid(grid, grid, indexing="ij")
    xi2 = np.asarray(p.value(X)) * np.asarray(p.value(Y))
    wc = WavepacketN.correlated_pair(grid, xi2=xi2, norm_tol=1e-6)
    worst = 0.0
    for (a, b) in ((1.0, 2.0), (0.4, 3.3), (2.2, 2.2)):
        out_c = two_photon_outputs(a, b, 8.0, wc)
        out_p = two_photon_outputs(a, b, 8.0, w)
        for ch in CHANNELS:
            worst = max(worst, abs(out_c[ch] - out_p[ch]))
    assert worst <= 5e-4


def test_correlated_state_satisfies_identity():
    p = PulseProfile.exponential(1.0)
    grid = np.linspace(0.0, 35.0, 701)
    X, Y = np.meshgrid(grid, grid, indexing="ij")
    xi2 = np.asarray(p.value(X)) * np.asarray(p.value(Y))
    wc = WavepacketN.correlated_pair(grid, xi2=xi2, norm_tol=1e-6)
    ordered = complex(ordered_emission_amplitude([0.7, 1.9], wc))
    linear = complex(linear_beamsplitter_amplitude(0.7, 1.9, wc))
    corr = complex(nonlinear_correction_B(0.7, 1.9, wc))
    assert abs(ordered - (linear + _SQRT2 * corr)) <= 1e-6


def test_emission_time_validation():
    w = _pair(1.0)
    with pytest.raises(ValueError):
        ordered_emission_amplitude([2.0, 1.0], w)
    with pytest.raises(ValueError):
        ordered_emission_amplitude([-0.5, 1.0], w)
    with pytest.raises(ValueError):
        ordered_emission_amplitude([1.0], w)
    for call in (linear_beamsplitter_amplitude, nonlinear_correction_B):
        with pytest.raises(ValueError, match=">= 0"):
            call(-1.0, 1.0, w)
    one = WavepacketN.product([(PulseProfile.exponential(1.0), Direction.RIGHT)])
    with pytest.raises(ValueError, match="finite"):
        ordered_emission_amplitude([math.nan], one)
    with pytest.raises(ValueError, match="finite"):
        reflection_amplitude_f0([math.nan], one, 1.0)


@pytest.mark.parametrize("call", [
    lambda w: two_photon_outputs(math.nan, 1.0, 2.0, w),
    lambda w: two_photon_outputs(0.5, 1.0, math.nan, w),
    lambda w: reflection_amplitude_f0([0.5, 1.0], w, math.nan),
    lambda w: reflection_amplitude_f0([0.5, 1.0], w, math.inf),
    lambda w: nonlinear_correction_B(1.0, math.inf, w),
    lambda w: linear_beamsplitter_amplitude(math.nan, 1.0, w),
    lambda w: linear_beamsplitter_amplitude(0.0, math.inf, w),
], ids=["outputs-tau1", "outputs-t", "f0-nan-t", "f0-inf-t", "B-tau2", "linear-tau1",
        "linear-tau2"])
def test_amplitudes_reject_non_finite_times(call):
    with pytest.raises(ValueError, match="finite"):
        call(_pair(1.0))


@pytest.mark.parametrize("tau1,tau2,t,needle", [
    (math.nan, 1.0, 2.0, "finite"),
    ([0.0, math.inf], 1.0, 2.0, "finite"),
    (0.5, 1.0, math.nan, "finite"),
    (0.5, 1.0, math.inf, "finite"),
    (-0.5, 1.0, 2.0, ">= 0"),
    (0.5, [1.0, -1.0], 2.0, ">= 0"),
])
def test_exp_pair_channel_values_rejects_bad_detection_times(tau1, tau2, t, needle):
    # the same boundary as two_photon_outputs
    with pytest.raises(ValueError, match=needle):
        exp_pair_channel_values(_pair(1.0), "RR", tau1, tau2, t)


def test_channel_grid_needs_a_two_photon_input():
    one = WavepacketN.product([(PulseProfile.exponential(1.0), Direction.RIGHT)])
    with pytest.raises(ValueError, match="two-photon input"):
        two_photon_channel_grid(one, "RR", [0.0, 1.0], [0.0, 1.0], 2.0)


@pytest.mark.parametrize("axis1,axis2,t", [
    ([0.0, math.nan], [0.0, 1.0], 5.0),
    ([0.0, 1.0], [0.0, math.inf], 5.0),
    ([0.0, 1.0], [0.0, 1.0], math.nan),
    ([0.0, 1.0], [0.0, 1.0], math.inf),
])
def test_channel_grid_rejects_non_finite_axes_and_time(axis1, axis2, t):
    with pytest.raises(ValueError, match="finite"):
        two_photon_channel_grid(_pair(1.0), "RR", axis1, axis2, t)
