"""Frequency-domain route and the time-to-frequency bridge."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from waveguide_scatter import (
    AmplitudeGrid,
    Direction,
    FreqAmplitudeGrid,
    PulseProfile,
    WavepacketN,
    appendix_comparison,
    fourier_bridge,
    freq_channel_grid,
    freq_nonlinear_correction,
    freq_two_photon_outputs,
    h_closed_form,
    lorentzian_mode,
    single_photon_bridge_error,
    single_photon_r_t,
    single_photon_reflection_freq,
    two_photon_channel_grid,
)
from waveguide_scatter import spectral
from waveguide_scatter.spectral import _quad_segment, _row_weights

_SQRT2 = math.sqrt(2.0)


# -- one-photon coefficients ----------------------------------------------------

def test_reversal_coefficient_spot_values():
    r, t = single_photon_r_t(np.array([0.0, 1.0]))
    # on resonance the photon is fully reversed with a sign flip
    assert r[0] == pytest.approx(-1.0, abs=1e-14)
    assert t[0] == pytest.approx(0.0, abs=1e-14)
    assert r[1] == pytest.approx(-0.5 - 0.5j, abs=1e-14)
    assert t[1] == pytest.approx(0.5 - 0.5j, abs=1e-14)


def test_coefficients_unitary_random_sweep():
    rng = np.random.default_rng(20260814)
    om = rng.uniform(-30.0, 30.0, size=200)
    r, t = single_photon_r_t(om)
    np.testing.assert_allclose(np.abs(r) ** 2 + np.abs(t) ** 2, 1.0,
                               atol=1e-13)
    np.testing.assert_allclose(t, 1.0 + r, atol=1e-14)


@pytest.mark.parametrize("gamma", [0.5, 2.0])
def test_lorentzian_mode_normalization(gamma):
    mode = lorentzian_mode(gamma)
    total, _ = quad(lambda w: abs(complex(mode(w))) ** 2, -np.inf, np.inf,
                    limit=400)
    assert total == pytest.approx(1.0, abs=1e-8)
    assert abs(complex(mode(0.0))) == pytest.approx(
        math.sqrt(2.0 / (math.pi * gamma)), abs=1e-12)


@pytest.mark.parametrize("gamma", [0.1, 1.0, 10.0])
def test_frequency_route_single_photon_reversal(gamma):
    assert single_photon_reflection_freq(gamma) == pytest.approx(
        2.0 / (2.0 + gamma), abs=1e-8)


# -- bridge ----------------------------------------------------------------------

def _exp_time_grid(gamma, n=4096, t_end=60.0):
    tau = np.linspace(0.0, t_end, n)
    p = PulseProfile.exponential(gamma)
    vals = np.asarray(p.value(tau), dtype=complex)
    return tau, vals


def test_native_bridge_preserves_discrete_norm():
    tau, vals = _exp_time_grid(1.0)
    grid = AmplitudeGrid(axes=(tau,), values=vals, channel="",
                         dynamical_time=0.0)
    spec = fourier_bridge(grid)
    dt = tau[1] - tau[0]
    dom = spec.axes[0][1] - spec.axes[0][0]
    tnorm = float(np.sum(np.abs(vals) ** 2) * dt)
    fnorm = float(np.sum(np.abs(spec.values) ** 2) * dom)
    assert fnorm == pytest.approx(tnorm, abs=1e-10)


def test_requested_axis_bridge_hits_the_lorentzian():
    tau, vals = _exp_time_grid(1.0)
    grid = AmplitudeGrid(axes=(tau,), values=vals, channel="",
                         dynamical_time=0.0)
    om = np.linspace(-8.0, 8.0, 41)
    mode = lorentzian_mode(1.0)
    for axes_arg in (om, (om,)):
        spec = fourier_bridge(grid, omega_axes=axes_arg)
        assert spec.values.shape == om.shape
        assert np.max(np.abs(spec.values - mode(om))) <= 1e-7


def test_bridged_emission_tail_equals_reversal_times_line():
    gamma = 2.0
    tau = np.linspace(0.0, 60.0, 4096)
    vals = -h_closed_form(tau, np.zeros_like(tau), gamma).astype(complex)
    grid = AmplitudeGrid(axes=(tau,), values=vals, channel="",
                         dynamical_time=0.0)
    om = np.linspace(-9.0, 9.0, 37)
    spec = fourier_bridge(grid, omega_axes=om)
    r, _ = single_photon_r_t(om)
    mode = lorentzian_mode(gamma)
    assert np.max(np.abs(spec.values - r * mode(om))) <= 1e-7


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_single_photon_bridge_error_is_small(gamma):
    assert single_photon_bridge_error(gamma) <= 1e-6


@pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf])
def test_bridge_checks_reject_a_bad_bandwidth_first(gamma):
    # at 0 the default time window 80 / gamma used to divide by zero
    with pytest.raises(ValueError, match="bandwidth"):
        single_photon_bridge_error(gamma)
    with pytest.raises(ValueError, match="bandwidth"):
        appendix_comparison(gamma, n_omega=4, n_time=64)


def test_requested_axis_bridge_takes_each_form_of_omega_axes():
    tau, vals = _exp_time_grid(1.0)
    grid = AmplitudeGrid(axes=(tau,), values=vals, channel="",
                         dynamical_time=0.0)
    om = np.linspace(-8.0, 8.0, 41)
    # the end-corrected sum over the mean step, written out
    dt = np.mean(np.diff(tau))
    ref = ((_quad_segment(tau.size) * dt * vals) @ np.exp(1j * tau[:, None] * om)
           / math.sqrt(2 * math.pi))
    for form in (om, (om,), [om], list(om)):
        spec = fourier_bridge(grid, omega_axes=form)
        assert len(spec.axes) == 1 and np.array_equal(spec.axes[0], om)
        assert np.array_equal(spec.values, ref)
    tau1, v1 = _exp_time_grid(1.0, n=1024)
    tau2, v2 = _exp_time_grid(2.0, n=768)
    grid2 = AmplitudeGrid(axes=(tau1, tau2), values=np.outer(v1, v2),
                          channel="", dynamical_time=0.0)
    om2 = np.linspace(-5.0, 5.0, 11)
    pair = fourier_bridge(grid2, omega_axes=(om, om2))
    assert pair.values.shape == (om.size, om2.size)
    assert np.array_equal(fourier_bridge(grid2, omega_axes=[om, list(om2)]).values,
                          pair.values)
    wrong = [(grid, (om, om)), (grid, [om, om]), (grid, om[None, :]), (grid, 0.5),
             (grid2, om), (grid2, (om,)), (grid2, (om, om2, om)),
             (grid2, (om[None, :], om2)), (grid2, 0.5)]
    for g, form in wrong:
        with pytest.raises(ValueError, match="frequency axis per grid axis"):
            fourier_bridge(g, omega_axes=form)


def test_two_axis_bridge_factorizes_product_states():
    tau1, v1 = _exp_time_grid(1.0, n=2048)
    tau2, v2 = _exp_time_grid(2.0, n=2048)
    grid = AmplitudeGrid(axes=(tau1, tau2), values=np.outer(v1, v2),
                         channel="", dynamical_time=0.0)
    om1 = np.linspace(-6.0, 6.0, 13)
    om2 = np.linspace(-5.0, 5.0, 11)
    spec = fourier_bridge(grid, omega_axes=(om1, om2))
    m1 = lorentzian_mode(1.0)(om1)
    m2 = lorentzian_mode(2.0)(om2)
    assert np.max(np.abs(spec.values - np.outer(m1, m2))) <= 1e-6


@pytest.mark.parametrize("n", [21, 22, 23, 40, 1025])
def test_tile_weights_expand_to_the_row_weights(n):
    # unit entries against the identity kernel: the sums of each row are its
    # weights, read off tile by tile, whole or in blocks that end inside a tile;
    # a tile's own columns end with its block
    def ones(rows, cols):
        return np.ones(np.broadcast_shapes(rows.shape, cols.shape))

    eye = np.eye(n, dtype=complex)
    for block, own in ((n, False), (37, False), (37, True), (1, True)):
        for row0 in range(0, n, block):
            stop = min(row0 + block, n)
            out = np.zeros((stop - row0, n), dtype=complex)
            spectral._break_sum(ones, eye, row0, stop, n, out, own)
            for i in range(row0, stop):
                want = _row_weights(n, i) - 1.0
                if own:
                    tile = row0 + (i - row0) // spectral._TILE * spectral._TILE
                    want[tile:min(tile + spectral._TILE, stop)] += 1.0
                assert np.array_equal(out[i - row0], want), (block, i)


def test_two_axis_native_bridge_preserves_discrete_norm():
    tau1, v1 = _exp_time_grid(1.0, n=512)
    tau2, v2 = _exp_time_grid(2.0, n=512)
    vals = np.outer(v1, v2)
    grid = AmplitudeGrid(axes=(tau1, tau2), values=vals, channel="",
                         dynamical_time=0.0)
    spec = fourier_bridge(grid)
    dt = (tau1[1] - tau1[0]) * (tau2[1] - tau2[0])
    dom = ((spec.axes[0][1] - spec.axes[0][0])
           * (spec.axes[1][1] - spec.axes[1][0]))
    assert float(np.sum(np.abs(spec.values) ** 2) * dom) == pytest.approx(
        float(np.sum(np.abs(vals) ** 2) * dt), abs=1e-10)


def _per_row_bridge(f, ax1, ax2, om1, om2):
    """The 2-D bridge summed row by row with each row's own weights."""
    same = ax1.size == ax2.size and np.array_equal(ax1, ax2)
    dt1 = ax1[1] - ax1[0]
    dt2 = ax2[1] - ax2[0]
    kern2 = np.exp(1j * ax2[:, None] * om2[None, :])
    inner = np.empty((ax1.size, om2.size), dtype=complex)
    for i in range(ax1.size):
        wrow = _row_weights(ax2.size, i if same else None) * dt2
        inner[i] = (wrow * f[i]) @ kern2
    kern1 = np.exp(1j * ax1[:, None] * om1[None, :])
    w1 = _quad_segment(ax1.size) * dt1
    return (kern1 * w1[:, None]).T @ inner / (2.0 * math.pi)


@pytest.mark.parametrize("n2", [301, 263, 23])
def test_two_axis_bridge_matches_per_row_weights(n2):
    # a grid with a slope break on the diagonal, plus noise so that no
    # stencil error can hide in a smooth sample; 263 makes it rectangular, and
    # 23 a square grid too narrow for any tile to miss the end columns
    rng = np.random.default_rng(5)
    ax1 = np.linspace(0.0, 30.0, 301)[:23 if n2 == 23 else None]
    ax2 = ax1 if n2 == ax1.size else np.linspace(0.0, 30.0, n2)
    f = (np.exp(-0.4 * ax1[:, None] - 0.7 * np.abs(ax1[:, None] - ax2[None, :]))
         * (1.0 + 0.5j) + 1e-3 * rng.standard_normal((ax1.size, n2)))
    f[-1, :] = 0.0
    f[:, -1] = 0.0
    grid = AmplitudeGrid(axes=(ax1, ax2), values=f, channel="",
                         dynamical_time=0.0)
    om1 = np.linspace(-4.0, 4.0, 9)
    om2 = np.linspace(-3.0, 5.0, 6)
    spec = fourier_bridge(grid, omega_axes=(om1, om2))
    ref = _per_row_bridge(f, ax1, ax2, om1, om2)
    assert np.max(np.abs(spec.values - ref)) <= 1e-14


def test_bridge_guards():
    tau, vals = _exp_time_grid(1.0)
    grid = AmplitudeGrid(axes=(tau,), values=vals, channel="",
                         dynamical_time=0.0)
    with pytest.raises(ValueError):
        # frequencies beyond the alias-safe band of the sampling step
        fourier_bridge(grid, omega_axes=np.array([0.0, 500.0]))
    short = np.linspace(0.0, 2.0, 64)
    p = PulseProfile.exponential(1.0)
    undecayed = AmplitudeGrid(axes=(short,),
                              values=np.asarray(p.value(short), dtype=complex),
                              channel="", dynamical_time=0.0)
    with pytest.raises(ValueError):
        # window truncates the signal
        fourier_bridge(undecayed)
    ragged = np.concatenate([np.linspace(0.0, 30.0, 2000),
                             np.linspace(30.5, 60.0, 2096)])
    with pytest.raises(ValueError):
        fourier_bridge(AmplitudeGrid(axes=(ragged,),
                                     values=np.zeros(4096, dtype=complex),
                                     channel="", dynamical_time=0.0))


def test_window_guard_scans_every_row_block_of_a_2d_grid():
    # a bump late in a tall grid: its peak lies past the first row blocks
    # of the guard's search
    tau1 = np.linspace(0.0, 60.0, 601)
    tau2 = np.linspace(0.0, 20.0, 41)
    bump = np.exp(-0.5 * (tau1 - 52.0) ** 2)[:, None] * np.exp(-tau2)[None, :]
    vals = (1e-4 * np.exp(-tau1)[:, None] * np.exp(-tau2)[None, :] + bump).astype(complex)
    for undecayed in ((-1, slice(None)), (slice(None), -1)):
        bad = vals.copy()
        bad[undecayed] += 1e-3
        with pytest.raises(ValueError, match="truncates"):
            fourier_bridge(AmplitudeGrid(axes=(tau1, tau2), values=bad, channel="",
                                         dynamical_time=0.0))
    # edges 1e-4 of the first rows' values, ~1e-7 of the late peak: decayed
    vals[-1, :] = 1e-7
    vals[:, -1] = 1e-7
    grid = AmplitudeGrid(axes=(tau1, tau2), values=vals, channel="", dynamical_time=0.0)
    assert fourier_bridge(grid).values.shape == vals.shape


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("ndim, omega_axes", [
    (1, np.linspace(-2.0, 2.0, 5)), (2, (np.linspace(-2.0, 2.0, 5),) * 2), (1, None), (2, None),
])
def test_bridge_rejects_non_finite_samples(bad, ndim, omega_axes):
    tau = np.linspace(0.0, 40.0, 201)
    vals = np.exp(-tau) if ndim == 1 else np.exp(-tau[:, None] - tau[None, :])
    vals = vals.astype(complex)
    vals[(10,) * ndim] = bad
    grid = AmplitudeGrid(axes=(tau,) * ndim, values=vals, channel="", dynamical_time=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not all finite"):
            fourier_bridge(grid, omega_axes)


def test_first_axis_alias_band_is_checked_before_the_window():
    # a truncated grid whose first axis is too coarse for the requested
    # frequencies: the alias-band error wins
    tau1 = np.linspace(0.0, 5.0, 65)
    tau2 = np.linspace(0.0, 5.0, 257)
    vals = np.exp(-tau1[:, None] - tau2[None, :]).astype(complex)
    grid = AmplitudeGrid(axes=(tau1, tau2), values=vals, channel="", dynamical_time=0.0)
    with pytest.raises(ValueError, match="truncates"):
        fourier_bridge(grid, (np.linspace(-2.0, 2.0, 5),) * 2)
    with pytest.raises(ValueError, match="alias-safe"):
        fourier_bridge(grid, (np.array([0.0, 50.0]), np.linspace(-2.0, 2.0, 5)))


@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("bad", [np.array([math.nan, 0.0]), np.array([0.0, math.inf]),
                                 np.array([])], ids=["nan", "inf", "empty"])
def test_bridge_rejects_a_non_finite_or_empty_frequency_axis(ndim, bad):
    # a NaN frequency slipped past the alias check and bridged to NaN; an
    # empty axis failed inside numpy's maximum
    tau = np.linspace(0.0, 40.0, 401)
    vals = np.exp(-tau) if ndim == 1 else np.exp(-tau[:, None] - tau[None, :])
    grid = AmplitudeGrid(axes=(tau,) * ndim, values=vals, channel="", dynamical_time=0.0)
    good = np.linspace(-1.0, 1.0, 3)
    for axes in ([bad] if ndim == 1 else [(bad, good), (good, bad)]):
        with pytest.raises(ValueError, match="non-empty and finite"):
            fourier_bridge(grid, axes)


@pytest.mark.parametrize("omegas", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
def test_frequency_side_rejects_non_finite_detunings_before_any_integral(monkeypatch, omegas):
    def refuse(*args, **kwargs):
        raise AssertionError("an integral started on a non-finite detuning")

    monkeypatch.setattr(spectral, "integrate", refuse)
    xi2 = _product_line(1.0)
    with pytest.raises(ValueError, match="detunings must be finite"):
        freq_two_photon_outputs(*omegas, xi2)
    with pytest.raises(ValueError, match="detunings must be finite"):
        freq_nonlinear_correction(*omegas, xi2)
    with pytest.raises(ValueError, match="detuning axes must be finite"):
        freq_channel_grid("RL", np.array(omegas), np.linspace(-1.0, 1.0, 3), xi2)
    with pytest.raises(ValueError, match="detuning axes must be finite"):
        freq_channel_grid("LL", np.linspace(-1.0, 1.0, 3), np.array(omegas), xi2)


# -- end-corrected weights -------------------------------------------------------

def test_segment_weights_reproduce_interval_length():
    for npts in range(2, 41):
        assert float(np.sum(_quad_segment(npts))) == pytest.approx(
            npts - 1.0, abs=1e-12)


def test_row_weights_reproduce_interval_length_at_every_break():
    for npts in range(5, 21):
        for brk in range(1, npts - 1):
            w = _row_weights(npts, brk)
            assert float(np.sum(w)) == pytest.approx(npts - 1.0, abs=1e-12), (
                f"weights for {npts} points broken at {brk} sum to "
                f"{float(np.sum(w))}")


def test_segment_weights_integrate_quintics_exactly():
    # end-corrected trapezoid weights of order six: exact for
    # polynomials through degree five on long enough segments
    for npts in (12, 17, 25):
        x = np.arange(npts, dtype=float)
        w = _quad_segment(npts)
        for k in range(6):
            exact = (npts - 1.0) ** (k + 1) / (k + 1)
            assert float(w @ x ** k) == pytest.approx(exact, rel=1e-12)


# -- two-photon frequency amplitudes ----------------------------------------------

def _product_line(gamma):
    mode = lorentzian_mode(gamma)

    def xi2(w1, w2):
        return mode(w1) * mode(w2)

    return xi2


def test_saturation_correction_origin_value():
    # for the unit-bandwidth product line the origin value integrates
    # in closed form to -2 / (3 pi)
    val = freq_nonlinear_correction(0.0, 0.0, _product_line(1.0),
                                    omega_span=200.0)
    assert complex(val).real == pytest.approx(-2.0 / (3.0 * math.pi),
                                              abs=1e-7)
    assert complex(val).imag == pytest.approx(0.0, abs=1e-10)


def test_saturation_correction_convolution_depends_only_on_total_detuning():
    # stripped of the per-photon reversal prefactor, the correction is a
    # function of the total detuning alone
    xi2 = _product_line(1.0)
    s = 0.8
    vals = []
    for w in (-1.0, 0.0, 0.4, 1.7):
        b = complex(freq_nonlinear_correction(w, s - w, xi2))
        r1, _ = single_photon_r_t(w)
        r2, _ = single_photon_r_t(s - w)
        vals.append(b / (r1 + r2))
    for v in vals[1:]:
        assert v == pytest.approx(vals[0], abs=1e-9)


def test_freq_outputs_channel_assembly():
    xi2 = _product_line(1.0)
    w1, w2 = 0.5, -0.25
    out = freq_two_photon_outputs(w1, w2, xi2)
    r1, t1 = single_photon_r_t(w1)
    r2, t2 = single_photon_r_t(w2)
    xi = complex(xi2(w1, w2))
    b = complex(freq_nonlinear_correction(w1, w2, xi2))
    assert out["LL"] == pytest.approx(r1 * r2 * xi + b, abs=1e-12)
    assert out["RL"] == pytest.approx(_SQRT2 * (t1 * r2 * xi + b), abs=1e-12)
    assert out["RR"] == pytest.approx(t1 * t2 * xi + b, abs=1e-12)


def test_freq_grid_matches_pointwise_assembly():
    xi2 = _product_line(1.0)
    ax1 = np.linspace(-2.0, 2.0, 5)
    ax2 = np.linspace(-1.5, 2.5, 5)
    grid = freq_channel_grid("RL", ax1, ax2, xi2)
    for i in (0, 2, 4):
        for j in (1, 3):
            direct = freq_two_photon_outputs(float(ax1[i]), float(ax2[j]),
                                             xi2)["RL"]
            assert grid.values[i, j] == pytest.approx(direct, abs=1e-7)


def test_freq_grid_rejects_unknown_channel():
    with pytest.raises(ValueError):
        freq_channel_grid("XX", np.linspace(-1, 1, 3), np.linspace(-1, 1, 3),
                          _product_line(1.0))


def test_merged_convolution_on_unequal_nonuniform_axes(monkeypatch):
    # one integral per distinct total detuning, whatever the axes; the
    # sums 0.1 + 0.2 and 0.3 + 0.0 differ only by rounding and share one
    xi2 = _product_line(1.0)
    ax1 = np.array([-1.0, -0.25, 0.1, 0.3, 2.0])
    ax2 = np.array([-0.5, 0.0, 0.2, 0.25, 1.0, 1.75])
    calls = []
    real_integral = spectral._antidiagonal_integral

    def counting(s, *args, **kwargs):
        calls.append(s)
        return real_integral(s, *args, **kwargs)

    monkeypatch.setattr(spectral, "_antidiagonal_integral", counting)
    conv = spectral._antidiagonal_convolution(ax1, ax2, xi2, spectral.DEFAULT_QUAD,
                                              spectral.DEFAULT_ANTIDIAG_SPAN)
    monkeypatch.undo()
    distinct = np.unique(np.round(np.add.outer(ax1, ax2), 9))
    assert len(calls) == distinct.size
    r1, _ = single_photon_r_t(ax1)
    r2, _ = single_photon_r_t(ax2)
    for i in range(ax1.size):
        for j in range(ax2.size):
            direct = complex(freq_nonlinear_correction(ax1[i], ax2[j], xi2))
            merged = (r1[i] + r2[j]) * conv[i, j] / (2.0 * math.pi)
            assert merged == pytest.approx(direct, abs=1e-12)


def test_convolution_runs_one_integral_per_antidiagonal_of_the_bridge_grid(monkeypatch):
    # the 64 x 64 grid of appendix_comparison's defaults has 127 anti-diagonals
    calls = []
    monkeypatch.setattr(spectral, "_antidiagonal_integral",
                        lambda s, *args, **kwargs: calls.append(s) or 0j)
    om = np.linspace(-10.0, 10.0, 64)
    spectral._antidiagonal_convolution(om, om, _product_line(1.0), spectral.DEFAULT_QUAD,
                                       spectral.DEFAULT_ANTIDIAG_SPAN)
    assert len(calls) == 127


def test_convolution_on_an_empty_axis_runs_no_integral(monkeypatch):
    calls = []
    monkeypatch.setattr(spectral, "_antidiagonal_integral",
                        lambda s, *args, **kwargs: calls.append(s) or 0j)
    conv = spectral._antidiagonal_convolution(np.array([]), np.linspace(-1.0, 1.0, 3),
                                              _product_line(1.0), spectral.DEFAULT_QUAD,
                                              spectral.DEFAULT_ANTIDIAG_SPAN)
    assert conv.shape == (0, 3)
    assert calls == []


def test_sampled_freq_grid_interpolates_without_closure():
    # a bilinear function is reproduced to rounding on unequal, non-uniform
    # axes, and the grid is zero outside them, in 1-D as in 2-D
    ax1 = np.array([-2.0, -1.3, 0.1, 0.4, 2.5])
    ax2 = np.array([-1.0, 0.2, 0.3, 1.9])

    def bilin(a, b):
        return (1.0 + 0.5j) + (0.3 - 0.2j) * a - 0.7 * b + 0.25j * a * b

    X, Y = np.meshgrid(ax1, ax2, indexing="ij")
    grid = FreqAmplitudeGrid(axes=(ax1, ax2), values=bilin(X, Y))
    a = np.array([-1.9, -0.5, 0.25, 2.4])
    b = np.array([-0.9, 0.25, 1.0, 1.85])
    np.testing.assert_allclose(grid.evaluate(a[:, None], b[None, :]),
                               bilin(a[:, None], b[None, :]), rtol=0, atol=4e-15)
    assert grid.evaluate(0.0, 0.25) == pytest.approx(complex(bilin(0.0, 0.25)), abs=4e-15)
    assert grid.evaluate(2.6, 0.0) == 0.0
    assert grid.evaluate(0.0, -1.1) == 0.0
    line = FreqAmplitudeGrid(axes=(ax1,), values=(1.0 - 1.0j) * ax1)
    assert line.evaluate(0.25) == pytest.approx((1.0 - 1.0j) * 0.25, abs=1e-15)
    np.testing.assert_array_equal(line.evaluate(np.array([-2.5, 3.0])), 0.0)


def test_freq_amplitude_grid_interpolates():
    ax = np.linspace(-3.0, 3.0, 61)
    grid = FreqAmplitudeGrid.from_function(
        lambda a, b: np.exp(-(a ** 2 + b ** 2)) * (1.0 + 0.5j), (ax, ax))
    probe = grid.evaluate(np.array([0.35]), np.array([-1.22]))
    exact = math.exp(-(0.35 ** 2 + 1.22 ** 2)) * (1.0 + 0.5j)
    assert complex(np.ravel(probe)[0]) == pytest.approx(exact, abs=1e-6)


# -- two-route channel comparison --------------------------------------------------

def test_appendix_comparison_small_grid():
    report = appendix_comparison(1.0, n_omega=16, n_time=2048)
    assert report.gamma_bw == 1.0
    assert {c.channel for c in report.channels} == {"LL", "RL", "RR"}
    for ch in report.channels:
        assert ch.passed
        assert ch.max_abs_err <= 1e-4
        assert ch.rms_err <= ch.max_abs_err
    parsed = json.loads(report.to_json())
    assert set(parsed["channels"]) == {"LL", "RL", "RR"}
    assert parsed["passed"] is True
    assert parsed["gamma"] == 1.0


def test_comparison_report_writes_exactly_its_json_text(tmp_path):
    report = appendix_comparison(1.0, omega_min=-2.0, omega_max=2.0, n_omega=4, n_time=256)
    path = tmp_path / "report.json"
    text = report.to_json(path)
    assert path.read_text() == text == report.to_json()
    assert json.loads(text) == report.to_dict()


def test_appendix_comparison_shares_one_convolution(monkeypatch):
    # the channels assembled from one shared convolution equal the
    # channels of freq_channel_grid called per channel, and the
    # convolution runs once: one integral per anti-diagonal
    gamma, n_omega, n_time = 1.0, 8, 512
    calls = []
    real_integrate = spectral.integrate

    def counting(*args, **kwargs):
        calls.append(1)
        return real_integrate(*args, **kwargs)

    monkeypatch.setattr(spectral, "integrate", counting)
    report = appendix_comparison(gamma, n_omega=n_omega, n_time=n_time)
    assert len(calls) == 2 * n_omega - 1
    monkeypatch.undo()

    p = PulseProfile.exponential(gamma)
    w = WavepacketN.product([(p, Direction.RIGHT)] * 2)
    axis = np.linspace(0.0, report.t_end, n_time + 1)
    om = np.linspace(-10.0, 10.0, n_omega)
    for ch in report.channels:
        tgrid = two_photon_channel_grid(w, ch.channel, axis, axis, report.t_end)
        bridged = fourier_bridge(tgrid, omega_axes=(om, om))
        direct = freq_channel_grid(ch.channel, om, om, _product_line(gamma))
        err = float(np.max(np.abs(bridged.values - direct.values)))
        assert ch.max_abs_err == pytest.approx(err, rel=0.0, abs=1e-15)


def _factor_bridge(w, channel, axis, t, om):
    """The comparison's factor route for one channel on axis x axis at om x om."""
    kern, unit = spectral._axis_kernel(axis, om, end_corrected=False)
    return spectral._bridge_exp_pair(w, channel, axis, t, kern * unit[:, None],
                                     _quad_segment(axis.size))


def _assert_factor_route_matches_dense(w, axis, t, om, rel=1e-15):
    for channel in ("LL", "RL", "RR"):
        ref = fourier_bridge(two_photon_channel_grid(w, channel, axis, axis, t),
                             (om, om)).values
        got = _factor_bridge(w, channel, axis, t, om)
        assert np.max(np.abs(got - ref)) <= rel * np.max(np.abs(ref)), channel


@pytest.mark.parametrize("gamma", [0.25, 0.5, 1.0, 2.0])
def test_factor_route_equals_bridging_the_held_grid(gamma):
    # at gamma = 0.25, t_end = 320 exceeds the fill's row-block time span, so
    # the blocks end where the span rule cuts them
    t_end = max(40.0, 80.0 / gamma)
    p = PulseProfile.exponential(gamma)
    w = WavepacketN.product([(p, Direction.RIGHT)] * 2)
    _assert_factor_route_matches_dense(w, np.linspace(0.0, t_end, 1025), t_end,
                                       np.linspace(-2.0, 2.0, 16))


def test_factor_route_equals_the_held_grid_for_a_mixed_pair():
    # unequal bandwidths in opposite directions, every channel's terms differ
    w = WavepacketN.product([(PulseProfile.exponential(0.7), Direction.RIGHT),
                             (PulseProfile.exponential(3.0), Direction.LEFT)])
    _assert_factor_route_matches_dense(w, np.linspace(0.0, 120.0, 1025), 120.0,
                                       np.linspace(-2.0, 2.0, 16))


def test_factor_route_equals_the_held_grid_when_every_row_is_an_edge_row():
    # 21 samples: no row has two segments long enough for the full end stencils
    p = PulseProfile.exponential(1.0)
    w = WavepacketN.product([(p, Direction.RIGHT)] * 2)
    _assert_factor_route_matches_dense(w, np.linspace(0.0, 40.0, 21), 40.0,
                                       np.linspace(-0.5, 0.5, 5))


@pytest.mark.parametrize("rows", [37, 1, 1025])
def test_factor_route_equals_the_held_grid_across_blocks_that_end_inside_a_tile(
        monkeypatch, rows):
    # row blocks that end inside a tile, from the first rows on, where the
    # amplitudes have not decayed: the columns past a block's end but inside its
    # last tile must be summed once (summed twice, they move LL by up to 5e-2 of
    # its peak); 1025 rows hold the whole axis in one block.  Many short blocks
    # round the factor sums more, up to 3.3e-15 of the peak here, hence 1e-14.
    n, om = 1025, np.linspace(-2.0, 2.0, 16)
    monkeypatch.setattr(spectral, "_BRIDGE_ENTRIES", rows * om.size)
    sizes, fill = [], spectral._pair_factors

    def recorded(*args, **kwargs):
        scale, blocks = fill(*args, **kwargs)
        return scale, (sizes.append(len(block[1][0])) or block for block in blocks)

    monkeypatch.setattr(spectral, "_pair_factors", recorded)
    p = PulseProfile.exponential(1.0)
    w = WavepacketN.product([(p, Direction.RIGHT)] * 2)
    _assert_factor_route_matches_dense(w, np.linspace(0.0, 40.0, n), 40.0, om, rel=1e-14)
    assert max(sizes) == rows


def test_appendix_comparison_rejects_a_truncated_window():
    # the factor route cannot clear this edge, so the peak of the multiplied-out
    # blocks decides, with the held grid's text
    p = PulseProfile.exponential(1.0)
    w = WavepacketN.product([(p, Direction.RIGHT)] * 2)
    axis = np.linspace(0.0, 5.0, 1025)
    om = np.linspace(-10.0, 10.0, 64)
    with pytest.raises(ValueError, match="truncates") as held:
        fourier_bridge(two_photon_channel_grid(w, "LL", axis, axis, 5.0), (om, om))
    for n_time in (1024, 4096):
        with pytest.raises(ValueError, match="truncates") as factor:
            appendix_comparison(1.0, t_end=5.0, n_time=n_time)
        assert str(factor.value) == str(held.value)


def test_default_comparison_never_multiplies_out_a_row_block(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a row block of the time grid was formed")

    monkeypatch.setattr(spectral, "_pair_blocks", refuse)
    report = appendix_comparison(1.0)
    assert report.passed


@pytest.mark.parametrize("t_end", [0.0, -5.0, math.nan, math.inf])
def test_appendix_comparison_rejects_a_bad_time_window(t_end):
    with pytest.raises(ValueError):
        appendix_comparison(1.0, n_omega=4, n_time=64, t_end=t_end)


@pytest.mark.parametrize("kwargs, needle", [
    ({"n_omega": 0}, "n_omega"), ({"n_omega": 1}, "n_omega"), ({"n_omega": 8.0}, "n_omega"),
    ({"n_omega": True}, "n_omega"), ({"n_time": 0}, "n_time"), ({"n_time": 64.5}, "n_time"),
    ({"omega_min": 5.0, "omega_max": -5.0}, "omega_min"),
    ({"omega_min": 1.0, "omega_max": 1.0}, "omega_min"),
    ({"omega_min": math.nan}, "omega_min"), ({"omega_max": math.inf}, "omega_max"),
    ({"tolerance": -1.0}, "tolerance"), ({"tolerance": 0.0}, "tolerance"),
    ({"tolerance": math.nan}, "tolerance"), ({"tolerance": math.inf}, "tolerance"),
])
def test_appendix_comparison_checks_its_arguments_before_any_grid_work(
        monkeypatch, kwargs, needle):
    def refuse(*args, **kwargs):
        raise AssertionError("grid work started before the arguments were checked")

    for name in ("_axis_kernel", "_antidiagonal_convolution", "_pair_factors"):
        monkeypatch.setattr(spectral, name, refuse)
    with pytest.raises(ValueError, match=needle):
        appendix_comparison(1.0, **kwargs)


def test_appendix_comparison_never_holds_a_full_time_grid():
    full_grid_bytes = 4097 ** 2 * 16
    tracemalloc.start()
    try:
        appendix_comparison(1.0, n_omega=16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < full_grid_bytes / 3


def test_appendix_comparison_holds_no_row_block():
    # streaming multiplied-out row blocks peaked at 28.6 MB here; the
    # factor route holds factors and per-tile sums, about 2.1 MB in all
    tracemalloc.start()
    try:
        appendix_comparison(1.0, n_omega=16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_default_comparison_holds_one_axis_kernel_and_no_inner_table():
    # both axes share one 4097 x 64 complex kernel (4.2 MB), and each row
    # block's sums go into the 64 x 64 result as soon as they are done; with
    # a second, weighted kernel and a whole 4097 x 64 inner table per channel
    # the peak was 19.4 MB
    tracemalloc.start()
    try:
        report = appendix_comparison(1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak <= 10e6


def test_default_comparison_peak_stays_at_its_measured_level():
    # at defaults the contraction's row blocks are 512 rows long, and the peak
    # measured 5.92 MB with the one 4097 x 64 kernel (4.2 MB; 5.98 MB with the
    # earlier 244-row blocks); each further row of a block adds ~1.5 KB, so
    # this 0.06 MB margin stops a block growing unseen.  A first run fills the
    # caches, which the count then leaves out.
    appendix_comparison(1.0)
    tracemalloc.start()
    try:
        appendix_comparison(1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.98e6


def test_bridge_of_time_channels_matches_freq_route_spotwise():
    # one spot check outside the bundled comparison: bridge the RR grid
    # for a matched pair and compare at a handful of detunings
    gamma = 2.0
    p = PulseProfile.exponential(gamma)
    w = WavepacketN.product([(p, Direction.RIGHT)] * 2)
    t_end = 45.0
    ax = np.linspace(0.0, t_end, 2048)
    tgrid = two_photon_channel_grid(w, "RR", ax, ax, t_end)
    om = np.linspace(-3.0, 3.0, 7)
    bridged = fourier_bridge(tgrid, omega_axes=(om, om))
    xi2 = _product_line(gamma)
    for i in (0, 3, 6):
        for j in (2, 5):
            direct = freq_two_photon_outputs(float(om[i]), float(om[j]),
                                             xi2)["RR"]
            assert bridged.values[i, j] == pytest.approx(direct, abs=5e-4)


def test_bridge_of_a_real_grid_matches_its_complex_copy_without_casting_it():
    # a real grid meets the kernel's float view: the same sums as its
    # complex copy, and no complex copy of the grid is made (17.6 MB peak
    # when it was cast whole, 8.5 MB without)
    p = PulseProfile.exponential(1.0)
    w = WavepacketN.product([(p, Direction.RIGHT)] * 2)
    ax = np.linspace(0.0, 40.0, 1025)
    real = np.ascontiguousarray(two_photon_channel_grid(w, "RR", ax, ax, 40.0).values.real)
    om = np.linspace(-3.0, 3.0, 16)
    ref = fourier_bridge(AmplitudeGrid(axes=(ax, ax), values=real.astype(complex),
                                       channel="RR", dynamical_time=40.0),
                         omega_axes=(om, om)).values
    grid = AmplitudeGrid(axes=(ax, ax), values=real, channel="RR", dynamical_time=40.0)
    tracemalloc.start()
    try:
        got = fourier_bridge(grid, omega_axes=(om, om)).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
    assert peak < 12e6
