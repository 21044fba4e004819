"""Pulse profiles, wavepackets and initial-state bookkeeping."""

import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from waveguide_scatter import (
    Direction,
    InitialState,
    NormalizationError,
    PulseProfile,
    WavepacketN,
    excited_atom,
    profile_overlap,
    wavepacket_from_json,
    wavepacket_to_json,
)
from waveguide_scatter.model import _bilinear, _simpson_weights_nonuniform


@pytest.mark.parametrize("gamma", [0.1, 0.5, 1.0, 2.0, 7.5])
def test_exponential_profile_is_normalized(gamma):
    p = PulseProfile.exponential(gamma)
    total, _ = quad(lambda t: abs(p.value(t)) ** 2, 0.0, p.t_max, limit=200)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_exponential_profile_spot_values():
    p = PulseProfile.exponential(2.0)
    assert complex(p.value(0.0)) == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert complex(p.value(1.0)) == pytest.approx(math.sqrt(2.0) * math.exp(-1.0),
                                                  abs=1e-12)
    assert p.is_exponential
    assert p.gamma_bw == 2.0


def test_profile_value_vectorizes():
    p = PulseProfile.exponential(1.0)
    ts = np.linspace(0.0, 5.0, 17)
    vec = np.asarray(p.value(ts))
    pointwise = np.array([complex(p.value(float(t))) for t in ts])
    np.testing.assert_allclose(vec, pointwise, atol=1e-14)


@pytest.mark.parametrize("ga,gb", [(0.5, 2.0), (1.0, 1.0), (0.2, 9.0)])
def test_profile_overlap_matches_closed_form(ga, gb):
    # overlap of two exponential envelopes: 2 sqrt(ga gb) / (ga + gb)
    pa = PulseProfile.exponential(ga)
    pb = PulseProfile.exponential(gb)
    expected = 2.0 * math.sqrt(ga * gb) / (ga + gb)
    assert complex(profile_overlap(pa, pb)) == pytest.approx(expected, abs=1e-10)


def test_from_samples_tracks_the_sampled_envelope():
    gamma = 1.5
    grid = np.linspace(0.0, 40.0, 4001)
    vals = math.sqrt(gamma) * np.exp(-0.5 * gamma * grid)
    p = PulseProfile.from_samples(grid, vals, norm_tol=1e-5)
    probe = np.linspace(0.1, 8.0, 23)
    exact = math.sqrt(gamma) * np.exp(-0.5 * gamma * probe)
    np.testing.assert_allclose(np.asarray(p.value(probe)), exact, atol=1e-5)
    assert not p.is_exponential


def test_from_callable_normalization_guard():
    with pytest.raises(NormalizationError):
        PulseProfile.from_callable(lambda t: np.exp(-t), t_max=40.0)
    # a NaN norm is not within any tolerance of one
    with pytest.raises(NormalizationError):
        PulseProfile.from_callable(
            lambda t: np.where(t > 3, np.nan, np.sqrt(2) * np.exp(-t)), 20.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
def test_profile_rejects_a_non_finite_or_non_positive_t_max_or_timescale(bad):
    def gaussian(t):
        return math.pi ** -0.25 * np.exp(-0.5 * (np.asarray(t) - 6.0) ** 2)

    with pytest.raises(ValueError, match="t_max must be finite and positive"):
        PulseProfile.from_callable(gaussian, t_max=bad)
    with pytest.raises(ValueError, match="t_max must be finite and positive"):
        PulseProfile.exponential(1.0, t_max=bad)
    with pytest.raises(ValueError, match="timescale must be finite and positive"):
        PulseProfile.from_callable(gaussian, t_max=14.0, timescale=bad)


def test_from_samples_rejects_unnormalized_data():
    grid = np.linspace(0.0, 10.0, 101)
    with pytest.raises(NormalizationError):
        PulseProfile.from_samples(grid, np.exp(-grid))


def test_from_samples_rejects_an_empty_grid():
    with pytest.raises(ValueError, match="sample grid is empty"):
        PulseProfile.from_samples([], [])


def test_product_wavepacket_identical_normalization():
    # permanent of the all-ones overlap matrix is N!, so the prefactor
    # must be 1/sqrt(N!)
    p = PulseProfile.exponential(1.0)
    w = WavepacketN.product([(p, Direction.RIGHT)] * 3)
    assert w.separable_normalization() == pytest.approx(1.0 / math.sqrt(6.0),
                                                        abs=1e-12)
    assert w.n_photons == 3
    assert w.n_right == 3


def test_component_selects_direction_split():
    pr = PulseProfile.exponential(1.0)
    pl = PulseProfile.exponential(3.0)
    w = WavepacketN.product([(pr, Direction.RIGHT), (pl, Direction.LEFT)])
    a, b = 0.7, 1.9
    val = w.component(1, (a, b))
    assert val == pytest.approx(complex(pr.value(a)) * complex(pl.value(b)),
                                abs=1e-12)
    assert w.component(0, (a, b)) == 0.0
    assert w.component(2, (a, b)) == 0.0


def test_component_symmetrizes_same_direction_pair():
    pa = PulseProfile.exponential(1.0)
    pb = PulseProfile.exponential(4.0)
    w = WavepacketN.product([(pa, Direction.RIGHT), (pb, Direction.RIGHT)])
    a, b = 0.3, 1.2
    v_ab = w.component(2, (a, b))
    v_ba = w.component(2, (b, a))
    assert v_ab == pytest.approx(v_ba, abs=1e-12)
    # permanent of the pair overlap matrix is 1 + |o|^2, and the
    # symmetrized sum carries 1/sqrt(2!)
    overlap = complex(profile_overlap(pa, pb))
    coef = 1.0 / math.sqrt(1.0 + abs(overlap) ** 2) / math.sqrt(2.0)
    direct = coef * (complex(pa.value(a)) * complex(pb.value(b))
                     + complex(pb.value(a)) * complex(pa.value(b)))
    assert v_ab == pytest.approx(direct, abs=1e-10)


def test_total_norm_close_to_one():
    pa = PulseProfile.exponential(1.0)
    pb = PulseProfile.exponential(4.0)
    w = WavepacketN.product([(pa, Direction.RIGHT), (pb, Direction.LEFT)])
    assert w.total_norm_sq_numeric() == pytest.approx(1.0, abs=1e-4)


def test_correlated_pair_checks_symmetry_and_norm():
    grid = np.linspace(0.0, 30.0, 601)
    X, Y = np.meshgrid(grid, grid, indexing="ij")
    p = PulseProfile.exponential(1.0)
    sym = np.asarray(p.value(X)) * np.asarray(p.value(Y))
    skew = sym.copy()
    skew[3, 5] *= 2.0
    with pytest.raises(ValueError):
        WavepacketN.correlated_pair(grid, xi2=skew, norm_tol=1e-6)
    with pytest.raises(NormalizationError):
        WavepacketN.correlated_pair(grid, xi2=0.5 * sym, norm_tol=1e-6)
    holed = sym.copy()
    holed[7, 7] = np.nan
    with pytest.raises(NormalizationError):
        WavepacketN.correlated_pair(grid, xi2=holed, norm_tol=1e-5)
    w = WavepacketN.correlated_pair(grid, xi2=sym, norm_tol=1e-5)
    assert w.n_photons == 2
    # interpolation reproduces the sampled tensor at the nodes
    assert w.component(2, (grid[4], grid[9])) == pytest.approx(
        complex(sym[4, 9]), abs=1e-12)
    # outside the stored support the state vanishes
    assert w.component(2, (grid[-1] + 5.0, 1.0)) == 0.0


def test_initial_state_validation():
    p = PulseProfile.exponential(1.0)
    w1 = WavepacketN.product([(p, Direction.RIGHT)])
    with pytest.raises(ValueError):
        InitialState(c_g=0.9, field_g=w1)  # amplitudes not normalized
    with pytest.raises(ValueError):
        InitialState(c_g=math.nan, field_g=w1)
    with pytest.raises(ValueError):
        # excited branch must carry one photon fewer than the ground branch
        InitialState(c_g=1 / math.sqrt(2), field_g=w1,
                     c_e=1 / math.sqrt(2), field_e=w1)
    st = InitialState(c_g=1.0, field_g=w1)
    assert st.c_g == 1.0 and st.c_e == 0.0
    assert st.total_excitations == 1
    ex = excited_atom()
    assert ex.c_e == 1.0
    assert ex.total_excitations == 1


def test_wavepacket_json_round_trip():
    pa = PulseProfile.exponential(1.0)
    pb = PulseProfile.exponential(4.0)
    w = WavepacketN.product([(pa, Direction.RIGHT), (pb, Direction.LEFT)])
    text = wavepacket_to_json(w)
    parsed = json.loads(text)
    assert isinstance(parsed, dict)
    w2 = wavepacket_from_json(text)
    assert w2.n_photons == 2
    probe = (0.8, 2.1)
    assert w2.component(1, probe) == pytest.approx(
        w.component(1, probe), abs=1e-12)


def test_wavepacket_json_round_trips_sampled_values_exactly():
    grid = np.linspace(0.0, 12.0, 241)
    raw = np.exp((-0.6 + 0.3j) * grid) * (1.0 + 0.2 * grid)
    raw = raw / math.sqrt(PulseProfile.from_samples(grid, raw, norm_tol=1.0).norm_sq())
    sampled = PulseProfile.from_samples(grid, raw)
    expo = PulseProfile.exponential(2.0, t_max=9.5)
    w = WavepacketN.product([(sampled, Direction.LEFT), (expo, Direction.RIGHT)])
    (s2, d1), (e2, d2) = wavepacket_from_json(wavepacket_to_json(w)).entries
    assert (d1, d2) == (Direction.LEFT, Direction.RIGHT)
    assert s2.kind == "sampled" and s2.t_max == 12.0
    assert np.array_equal(s2._grid, grid) and np.array_equal(s2._values, sampled._values)
    assert e2.kind == "exponential" and (e2.gamma_bw, e2.t_max) == (2.0, 9.5)


def test_bilinear_reproduces_a_bilinear_function_on_unequal_axes():
    ax1 = np.array([0.0, 0.3, 1.1, 1.2, 4.0])
    ax2 = np.array([-2.0, -0.5, 0.7])
    X, Y = np.meshgrid(ax1, ax2, indexing="ij")
    arr = 0.5 - 1.5 * X + 2.0j * Y + 0.75 * X * Y
    x = np.array([0.05, 0.9, 1.15, 3.3, 4.5])
    y = np.array([-1.9, -0.1, 0.65, 0.0, 0.0])
    got = _bilinear(ax1, ax2, arr, x, y)
    exact = 0.5 - 1.5 * x + 2.0j * y + 0.75 * x * y
    np.testing.assert_allclose(got[:4], exact[:4], rtol=0, atol=4e-15)
    assert got[4] == 0.0


@pytest.mark.parametrize("stop,points", [(20.0, 32001), (12.3456, 8193)])
def test_simpson_weights_take_linspace_grids_as_uniform(stop, points):
    # the grids of a closure profile's norm and of profile_overlap, whose
    # steps scatter by a few 1e-12 of a step: Simpson integrates x^3 exactly
    x = np.linspace(0.0, stop, points)
    w = _simpson_weights_nonuniform(x)
    assert np.sum(w * x ** 3) == pytest.approx(stop ** 4 / 4.0, rel=1e-13, abs=0.0)


def test_simpson_weights_fall_back_to_trapezoid_on_a_perturbed_grid():
    x = np.linspace(0.0, 2.0, 9)
    x[3] += 1e-9
    d = np.diff(x)
    trapezoid = np.concatenate(([d[0]], d[:-1] + d[1:], [d[-1]])) / 2.0
    np.testing.assert_allclose(_simpson_weights_nonuniform(x), trapezoid,
                               rtol=1e-15, atol=0.0)
