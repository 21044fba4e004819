"""Frequency-domain amplitudes and the time-to-frequency bridge.

Frequency conventions used throughout:

* detuning is measured from the emitter line in inverse-lifetime units;
* the transform pairing is F(w) = (2 pi)^(-1/2) Integral f(tau) e^{+i w tau} d tau,
  under which the exponential envelope maps to a Lorentzian line and the
  single-photon scattered wave maps to r(w) times the input line;
* the single-photon coefficients are r(w) = -i/(w + i) (reversed) and
  t(w) = w/(w + i) (transmitted), with t = 1 + r.

The bridge evaluates the transform of sampled time grids two ways: a plain
unitary FFT when the caller accepts the natural conjugate axes (exactly
norm-preserving on the samples), and an end-corrected trapezoid (Gregory)
summation at caller-chosen frequencies.  Two-photon time grids carry a slope
break along the equal-time diagonal, so each row's weights take the break as
a segment boundary; since those weights differ from one only near the ends
and the break, a held grid is summed as one matmul plus a correction read
tile by tile along the diagonal.  The two-route comparison never forms those
rows: it sums its exponential pair's fill from the rank-few factors, one
product per tile in place of the matmul, with the same correction.  Every
route ends in the one window check, which rejects non-finite samples and a
window whose edge has not decayed.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

# two_photon_channel_grid: the held-grid reference, traced here by perfbench/spans.py
from .amplitudes import (CHANNELS, _BLOCK_ENTRIES, AmplitudeGrid, _pair_blocks,
                         _pair_factors, two_photon_channel_grid)
from .kernel import h_closed_form
from .model import Direction, PulseProfile, WavepacketN, _bilinear, check_bandwidth
from .quadrature import DEFAULT_QUAD, QuadratureSpec, _simpson_segment, integrate

__all__ = [
    "FreqAmplitudeGrid",
    "ChannelComparison",
    "ComparisonReport",
    "single_photon_r_t",
    "lorentzian_mode",
    "fourier_bridge",
    "freq_nonlinear_correction",
    "freq_two_photon_outputs",
    "freq_channel_grid",
    "single_photon_reflection_freq",
    "single_photon_bridge_error",
    "appendix_comparison",
]

_SQRT2 = math.sqrt(2.0)
_TWO_PI = 2.0 * math.pi

DEFAULT_ANTIDIAG_SPAN = 50.0
# largest estimated quartic tail an anti-diagonal convolution may drop
_ANTIDIAG_TAIL_TOL = 1e-5
# largest edge-to-peak ratio of |f| a bridged time window may keep
_WINDOW_EDGE_TOL = 1e-5
# rows per tile of the break correction (_break_sum)
_TILE = 16
# rows per block of the comparison's contraction: its per-block tables hold
# rows x n_omega complex sums, about this many entries a block
_BRIDGE_ENTRIES = 2 ** 15


def single_photon_r_t(omega):
    """Reversal and transmission coefficients at detuning omega.

    Vectorized; returns the pair (r, t) with t = 1 + r.
    """
    om = np.asarray(omega, dtype=float)
    r = _reversal(om)
    t = om / (om + 1j)
    if om.ndim == 0:
        return complex(r), complex(t)
    return r, t


def _reversal(om: np.ndarray) -> np.ndarray:
    """The reversal coefficient r = -i/(omega + i) at float detunings, alone."""
    return -1j / (om + 1j)


def lorentzian_mode(gamma_bw: float):
    """Line shape of the exponential envelope with the given bandwidth.

    Returns a vectorized callable w -> sqrt(gamma/2 pi) / (gamma/2 - i w),
    normalized so the squared modulus integrates to one.
    """
    check_bandwidth(gamma_bw)
    amp = math.sqrt(gamma_bw / _TWO_PI)

    def mode(omega):
        om = np.asarray(omega, dtype=float)
        vals = amp / (0.5 * gamma_bw - 1j * om)
        return complex(vals) if om.ndim == 0 else vals

    return mode


# ---------------------------------------------------------------------------
# frequency-domain grids


@dataclass
class FreqAmplitudeGrid:
    """Amplitude samples on frequency axes, optionally with a closure.

    When a closure is attached, :meth:`evaluate` defers to it (exact);
    otherwise evaluation interpolates the samples linearly (1-D) or
    bilinearly (2-D), and is zero outside the axes, as every other
    sampled object in the package is.
    """

    axes: tuple[np.ndarray, ...]
    values: np.ndarray
    channel: str = ""
    closure: object = None

    def __post_init__(self) -> None:
        self.axes = tuple(np.asarray(a, dtype=float) for a in self.axes)
        self.values = np.asarray(self.values, dtype=complex)
        if len(self.axes) not in (1, 2):
            raise ValueError("frequency grids are 1-D or 2-D")
        expected = tuple(a.size for a in self.axes)
        if self.values.shape != expected:
            raise ValueError(
                f"values shape {self.values.shape} does not match axes {expected}")
        for a in self.axes:
            if a.size < 2 or np.any(np.diff(a) <= 0.0):
                raise ValueError("frequency axes must be strictly increasing")

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @classmethod
    def from_function(cls, func, axes, channel: str = "") -> "FreqAmplitudeGrid":
        axes = tuple(np.asarray(a, dtype=float) for a in axes)
        if len(axes) == 1:
            vals = np.asarray(func(axes[0]), dtype=complex)
        else:
            mesh = np.meshgrid(*axes, indexing="ij")
            vals = np.asarray(func(*mesh), dtype=complex)
        return cls(axes=axes, values=vals, channel=channel, closure=func)

    def evaluate(self, *freqs):
        if len(freqs) != self.ndim:
            raise ValueError(f"expected {self.ndim} frequency argument(s)")
        if self.closure is not None:
            return self.closure(*freqs)
        if self.ndim == 1:
            om = np.asarray(freqs[0], dtype=float)
            ax = self.axes[0]
            out = (np.interp(om, ax, self.values.real, left=0.0, right=0.0)
                   + 1j * np.interp(om, ax, self.values.imag, left=0.0, right=0.0))
        else:
            w1, w2 = np.broadcast_arrays(*(np.asarray(f, dtype=float) for f in freqs))
            out = _bilinear(self.axes[0], self.axes[1], self.values, w1, w2)
        return complex(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# end-corrected weights for the bridge


_GREGORY_END_4 = np.array([3.0 / 8.0, 7.0 / 6.0, 23.0 / 24.0])
# order-6 end corrections: trapezoid plus the 6-point stencil that
# reproduces the Euler-Maclaurin boundary terms (1/12) g' - (1/720) g'''
_GREGORY_END_6 = np.array([101.0 / 320.0, 4009.0 / 2880.0, 899.0 / 1440.0,
                           199.0 / 160.0, 2621.0 / 2880.0, 2921.0 / 2880.0])


def _quad_segment(npts: int) -> np.ndarray:
    """End-corrected trapezoid weights (Gregory form), order 6.

    The interior weights are all 1, so the error varies smoothly with
    the segment length; segments too short for the 6-point end stencils
    step down to the order-4 stencil and then to Simpson.  This matters
    when many parallel segments of staggered lengths are summed:
    parity-alternating Simpson patterns would leave a non-cancelling
    error component, and plain trapezoid endpoint errors would swamp
    the oscillatory transform.
    """
    if npts >= 12:
        w = np.ones(npts)
        w[:6] = _GREGORY_END_6
        w[-6:] = _GREGORY_END_6[::-1]
        return w
    if npts >= 6:
        w = np.ones(npts)
        w[:3] = _GREGORY_END_4
        w[-3:] = _GREGORY_END_4[::-1]
        return w
    return _simpson_segment(npts)


def _row_weights(npts: int, break_idx: int | None) -> np.ndarray:
    """Integration weights with an interior slope break as a segment edge."""
    if break_idx is None or break_idx <= 0 or break_idx >= npts - 1:
        return _quad_segment(npts)
    w = np.zeros(npts)
    w[:break_idx + 1] += _quad_segment(break_idx + 1)
    w[break_idx:] += _quad_segment(npts - break_idx)
    return w


def _check_uniform(axis: np.ndarray) -> float:
    steps = np.diff(axis)
    if steps.size == 0:
        raise ValueError("bridge axes need at least two samples")
    dt = float(np.mean(steps))
    if np.max(np.abs(steps - dt)) > 1e-9 * max(dt, 1.0):
        raise ValueError("bridge requires uniformly sampled time axes")
    return dt


def _check_window(edge: float, peak: float) -> None:
    """Reject a bridged window whose samples are not finite, or whose edge
    |f| (the last sample of each row and the whole last row; of a 1-D signal,
    its last sample) has not decayed against the peak max |f|."""
    if not math.isfinite(peak):
        raise ValueError(f"time samples are not all finite (max |f| = {peak}); "
                         "the bridge needs finite samples")
    if edge > _WINDOW_EDGE_TOL * peak:
        raise ValueError(
            f"time window truncates the signal (edge/peak = {edge / peak:.3g}); "
            "extend the grid before bridging")


def _axis_kernel(axis: np.ndarray, omega: np.ndarray, end_corrected: bool = True):
    """The factors of one time axis's transform kernel: exp(i omega tau), and
    the weights times the step, end-corrected or, where a banded correction
    supplies them, unit.  Rejects non-uniform sampling and frequencies beyond
    the alias-safe band."""
    dt = _check_uniform(axis)
    limit = 0.6 * math.pi / dt
    top = float(np.max(np.abs(omega)))
    if top > limit:
        raise ValueError(
            f"requested frequencies reach {top:.3g}, beyond the alias-safe "
            f"band {limit:.3g} of the sampling step {dt:.3g}")
    weights = _quad_segment(axis.size) if end_corrected else np.ones(axis.size)
    table = 1j * axis[:, None] * omega[None, :]
    return np.exp(table, out=table), weights * dt


@functools.lru_cache(maxsize=64)
def _tile_weights(n: int, a: int, own: int = 0):
    """c_i = _row_weights(n, i) - 1 of the tile rows a <= i < a + _TILE (past n,
    the last row's) as (s, window, ends, on_ends): on the window s <= j < s + width,
    plus one on the tile's first ``own`` columns, and on the end columns, zero
    where the window holds them.  Shared: read only."""
    halo = len(_GREGORY_END_6) - 1
    width = min(_TILE + 2 * halo, n)
    s = min(max(a - halo, 0), n - width)
    ends = np.array(sorted({*range(min(halo + 1, n)), *range(max(n - halo - 1, 0), n)}))
    # one row of width n at a time: the tile's rows whole would raise the peak memory
    cols = np.concatenate([np.arange(s, s + width), ends])
    corr = np.array([_row_weights(n, min(i, n - 1))[cols] for i in range(a, a + _TILE)]) - 1.0
    corr[:, a - s:a - s + own] += 1.0
    return s, corr[:, :width], ends, corr[:, width:] * ((ends < s) | (ends >= s + width))


def _break_sum(entries, kern: np.ndarray, row0: int, stop: int, n: int, out: np.ndarray,
               own: bool = False) -> None:
    """Add sum_j c_i[j] f[i, j] kern[j], c_i = _row_weights(n, i) - 1, to
    out[i - row0] for the rows row0 <= i < stop of a square grid of width n;
    with ``own``, the columns of i's tile before stop take c_i[j] + 1, for a
    caller whose unit sums leave them out.

    The tile of _TILE rows at a reads the window s <= j < s + width: its own
    columns and a halo as wide as the break's stencils reach, shifted inside the
    grid at its edges; outside it, c_i vanishes but on the end columns.  All
    windows are read in one ``entries(rows, cols)`` call (f at index arrays of
    shapes (..., R, 1) and (..., 1, C)), and the end columns in one more; each
    tile's window meets its slice of the kernel (the float view for a real f),
    then its end columns theirs.  Tiles whose windows miss the end columns
    share one pattern.
    """
    halo = len(_GREGORY_END_6) - 1
    lo, hi = len(_GREGORY_END_6) + halo, n - len(_GREGORY_END_6) - halo - _TILE
    starts = np.arange(row0, stop, _TILE)
    keys = [lo if lo <= a <= hi else a for a in starts.tolist()]
    s, window, ends, on_ends = zip(*(_tile_weights(n, key, own * min(_TILE, stop - a))
                                     for key, a in zip(keys, starts.tolist())))
    s, a = np.add(s, starts - keys), starts[:, None, None]
    cols = s[:, None, None] + np.arange(window[0].shape[1])
    vals = entries(np.minimum(a + np.arange(_TILE)[:, None], stop - 1), cols)
    edges = entries(np.arange(row0, stop)[:, None], ends[0][None, :])
    edges *= np.concatenate(on_ends)[:stop - row0]
    acc, k = (out, kern) if np.iscomplexobj(vals) else (out.view(float), kern.view(float))
    at_ends = k[ends[0]]
    for q, sq in enumerate(s.tolist()):
        rows = acc[q * _TILE:(q + 1) * _TILE]
        rows += (vals[q] * window[q])[:len(rows)] @ k[sq:sq + cols.shape[-1]]
        rows += edges[q * _TILE:(q + 1) * _TILE] @ at_ends


def _outside_sums(blocks, axis: np.ndarray, kern_re: np.ndarray) -> np.ndarray:
    """For each of the fill's row blocks (:func:`_pair_factors` on axis x axis),
    its column factors [C; v; m] summed against the kernel's float view kern_re
    over the columns outside it: C past and before it, v past it, m before it.
    Each block's columns meet the kernel on its rows once; those sums are then
    added up past and before each block, each rescaled to the next block's last
    time ref by exp(ref_b - ref_b') <= 1."""
    refs, totals = [], []
    for i0, (up_rows, up_cols), (_, low_cols) in blocks:
        i1 = i0 + len(up_rows)
        refs.append(axis[i1 - 1])
        totals.append(np.vstack([up_cols[:, i0:i1], low_cols[-1:, i0:i1]]) @ kern_re[i0:i1])
    totals = np.array(totals)
    past, before, rank = np.zeros_like(totals), np.zeros_like(totals), totals.shape[1] - 1
    for b in range(len(refs) - 1):
        past[-2 - b] = past[-1 - b] + totals[-1 - b]
        past[-2 - b, rank - 1] *= math.exp(refs[-2 - b] - refs[-1 - b])
        before[b + 1] = before[b] + totals[b]
        before[b + 1, rank] *= math.exp(refs[b] - refs[b + 1])
    past[:, :rank - 1] += before[:, :rank - 1]
    past[:, rank] = before[:, rank]
    return past


def _block_sums(cols: np.ndarray, lead: np.ndarray, kern_re: np.ndarray,
                outside: np.ndarray) -> np.ndarray:
    """The table of lead_i @ [C; v; m] summed against the kernel over the columns
    outside row i's tile: C past and before it, v past it and m before it.  cols
    holds a block's column factors [C; v; m] (C shared, v the upper triangle's,
    m the lower's), lead its row factors [S, u, l], kern_re the kernel's float
    view on its rows, and ``outside`` those sums over the columns outside the
    block.  Each kernel tile meets the block's columns in one product."""
    (size, width), rank = kern_re.shape, len(cols)
    tiles, whole = -(-size // _TILE), size // _TILE * _TILE
    sums = np.empty((tiles, rank, width))
    np.matmul(cols[:, :whole].reshape(rank, -1, _TILE).transpose(1, 0, 2),
              kern_re[:whole].reshape(-1, _TILE, width), out=sums[:whole // _TILE])
    if whole < size:
        sums[-1] = cols[:, whole:] @ kern_re[whole:]
    flat, lower = sums.reshape(tiles, -1), np.tri(tiles, k=-1)
    # the tiles before each tile and past it: C takes both, v those past, m those before
    v = slice((rank - 2) * width, (rank - 1) * width)
    past = lower.T @ flat[:, :v.stop]
    flat[:] = lower @ flat
    flat[:, v] = 0.0
    flat[:, :v.stop] += past
    del past  # freed before the table is made
    flat += outside.ravel()
    padded = np.zeros((tiles * _TILE, rank))
    padded[:size] = lead
    part = (padded.reshape(tiles, _TILE, rank) @ sums).reshape(-1, width)
    return part.view(complex)[:size]


def _bridge_exp_pair(w: WavepacketN, channel: str, axis: np.ndarray, t: float,
                     kern: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Spectrum of one exponential-pair channel on axis x axis, contracted from
    the float64 factors of :func:`_pair_factors` without forming a row block.

    ``kern`` is the axis's kernel exp(i omega tau) times the step, shared by
    both axes, and ``weights`` the first axis's end-corrected weights.  Row i
    of a block has f[i, j] = S_i . C_j + u_i v_j (j >= i) or + l_i m_j (j < i):
    shared factors, and one column per triangle rescaled at the block's last
    time ref.  A first pass gives each block the sums of the columns outside
    it (:func:`_outside_sums`); then a block reads the kernel on its rows tile
    by tile (:func:`_block_sums`), and row i of the tile at a takes every
    column outside the tile from those sums, at O(N r n_omega) in place of
    O(N^2 n_omega).  :func:`_break_sum` adds the tile's own columns and the
    break weights, and each block's rows go into the result when done.
    The window guard's edge (the last row and column) is exact, and the entries
    read bound the peak from below; only when that bound cannot clear the edge
    is the peak read off the multiplied-out blocks, as :func:`_check_window`
    needs.
    """
    n, n_omega = kern.shape
    kern_re = kern.view(float)

    def factors():
        return _pair_factors(w, channel, axis, axis, t,
                             block_rows=max(1, _BRIDGE_ENTRIES // n_omega))

    outside = _outside_sums(factors()[1], axis, kern_re)
    scale, blocks = factors()
    values = np.zeros((n_omega, n_omega), dtype=complex)
    peak = edge = 0.0
    for (i0, (up_rows, up_cols), (low_rows, low_cols)), beyond in zip(blocks, outside):
        i1, rank = i0 + len(up_rows), len(up_cols)
        lead = scale * np.hstack([up_rows, low_rows[:, -1:]])
        part = _block_sums(np.vstack([up_cols[:, i0:i1], low_cols[-1:, i0:i1]]),
                           lead, kern_re[i0:i1], beyond)
        up_rows, low_rows = lead[:, :rank], np.delete(lead, rank - 1, axis=1)
        up_t, low_t = up_cols.T, low_cols.T

        def entries(rows, cols):
            nonlocal peak
            k, c = rows[..., 0] - i0, cols[..., 0, :]
            vals = up_rows[k] @ up_t[c].swapaxes(-1, -2)
            np.copyto(vals, low_rows[k] @ low_t[c].swapaxes(-1, -2), where=cols < rows)
            peak = np.max((peak, vals.max(), -vals.min()))
            return vals

        _break_sum(entries, kern, i0, i1, n, part, own=True)
        part *= weights[i0:i1, None]
        values += kern[i0:i1].T @ part
        del part  # so the next block's table is not made beside this one
        # the last column, and on the last block the last row
        rim = np.abs(up_rows @ up_cols[:, -1])
        if i1 == n:
            rim = np.append(rim, np.abs(low_rows[-1] @ low_cols[:, :-1]))
        edge = np.max((edge, rim.max()))
    # below the bound, the held grid's guard passes too; otherwise (an all-zero or
    # non-finite read included) the multiplied-out blocks give the true peak
    peak = np.max((peak, edge))
    if not edge < _WINDOW_EDGE_TOL * peak:
        _check_window(edge, np.max([np.max(np.abs(rows)) for _, rows in
                                    _pair_blocks(w, channel, axis, axis, t)]))
    return values / _TWO_PI


def _frequency_axes(omega_axes, ndim: int) -> tuple[np.ndarray, ...]:
    """One 1-D float axis per grid axis; a 1-D grid also takes its axis bare."""
    bare = ndim == 1 and not (isinstance(omega_axes, (tuple, list)) and len(omega_axes) == 1)
    if bare or not np.iterable(omega_axes):
        omega_axes = (omega_axes,)
    axes = tuple(np.asarray(a, dtype=float) for a in omega_axes)
    if len(axes) != ndim or any(a.ndim != 1 for a in axes):
        raise ValueError(
            f"omega_axes must give one 1-D frequency axis per grid axis ({ndim})")
    if not all(a.size and np.isfinite(a).all() for a in axes):
        raise ValueError("every frequency axis must be non-empty and finite")
    return axes


def fourier_bridge(grid: AmplitudeGrid, omega_axes=None) -> FreqAmplitudeGrid:
    """Transform a sampled 1-D or 2-D time grid to the frequency domain.

    With ``omega_axes`` omitted, uses the unitary FFT on the natural
    conjugate axes; the discrete norm (sum |f|^2 dtau) is then preserved
    exactly.  With explicit axes (one per grid axis; a 1-D grid also
    takes its axis bare), sums the sampled grid with end-corrected
    weights at the requested frequencies.  On a square grid each row's
    weights treat the equal-time slope break as a segment edge, so the
    break never sits inside a stencil; the grid is summed as one matmul
    plus the tile correction of :func:`_break_sum`.  Guards
    reject non-uniform sampling and frequencies beyond the alias-safe
    band on every axis first, then non-finite samples and truncated
    windows (:func:`_check_window`).
    """
    axes, f = grid.axes, grid.values
    if f.ndim not in (1, 2):
        raise ValueError("bridge supports 1-D and 2-D grids")
    if omega_axes is None:
        steps = [_check_uniform(a) for a in axes]
    else:
        omegas = _frequency_axes(omega_axes, f.ndim)
        phase, w = _axis_kernel(axes[0], omegas[0])
        same_axes = f.ndim == 2 and axes[0].size == axes[1].size and np.array_equal(*axes)
        if f.ndim == 2:
            kern2, w2 = _axis_kernel(axes[1], omegas[1], end_corrected=not same_axes)
            kern2 *= w2[:, None]
    # |f| in row blocks of at most _BLOCK_ENTRIES entries bounds the guard's temporaries
    step = max(1, _BLOCK_ENTRIES // f[0].size)
    _check_window(np.maximum(np.max(np.abs(f[..., -1])), np.max(np.abs(f[-1]))),
                  np.max([np.max(np.abs(f[i0:i0 + step])) for i0 in range(0, len(f), step)]))
    if omega_axes is not None:
        if f.ndim == 1:
            values = (w * f) @ phase / math.sqrt(_TWO_PI)
        else:
            # a real grid meets kern2's float view, so it is never cast to complex whole
            inner = f @ kern2 if np.iscomplexobj(f) else (f @ kern2.view(float)).view(complex)
            if same_axes:
                _break_sum(lambda rows, cols: f[rows, cols], kern2, 0, len(f), len(f), inner)
            inner *= w[:, None]
            values = phase.T @ inner / _TWO_PI
        return FreqAmplitudeGrid(axes=omegas, values=values, channel=grid.channel)
    omegas = tuple(_TWO_PI * np.fft.fftshift(np.fft.fftfreq(a.size, dt))
                   for a, dt in zip(axes, steps))
    # dt_k / sqrt(2 pi) per axis, and each m_k to undo ifftn's normalisation
    scale = math.prod(f.shape, start=math.prod(steps) / _TWO_PI ** (f.ndim / 2))
    spec = np.fft.fftshift(scale * np.fft.ifftn(f))
    for k, (a, om) in enumerate(zip(axes, omegas)):
        # the phase of each axis's start, broadcast along axis k
        spec = spec * np.exp(1j * om * a[0]).reshape((-1,) + (1,) * (f.ndim - 1 - k))
    return FreqAmplitudeGrid(axes=omegas, values=spec, channel=grid.channel)


# ---------------------------------------------------------------------------
# frequency-domain two-photon amplitudes


def _as_mode_callable(xi2):
    if isinstance(xi2, FreqAmplitudeGrid):
        return xi2.evaluate
    if callable(xi2):
        return xi2
    raise TypeError("joint line shape must be callable or a FreqAmplitudeGrid")


def _antidiagonal_integral(s: float, xi2, quad: QuadratureSpec, omega_span: float) -> complex:
    """Convolution of r x r against the joint line along w1 + w2 = s."""
    mode = _as_mode_callable(xi2)

    def integrand(wp):
        other = s - wp
        return _reversal(wp) * _reversal(other) * mode(wp, other)

    lo = -omega_span + min(0.0, s)
    hi = omega_span + max(0.0, s)
    edge = max(abs(complex(integrand(np.asarray(lo)))),
               abs(complex(integrand(np.asarray(hi)))))
    tail_estimate = edge * max(abs(lo), abs(hi)) / 3.0
    if tail_estimate > _ANTIDIAG_TAIL_TOL:
        raise ValueError(
            f"anti-diagonal span {omega_span} leaves an estimated tail "
            f"{tail_estimate:.3g} > {_ANTIDIAG_TAIL_TOL:.3g}; widen the span")
    return integrate(integrand, lo, hi, quad, panel_width=0.5)


def freq_nonlinear_correction(omega1, omega2, xi2,
                              quad: QuadratureSpec = DEFAULT_QUAD,
                              omega_span: float = DEFAULT_ANTIDIAG_SPAN) -> complex:
    """Frequency-domain saturation correction at (omega1, omega2).

    Factorizes into the sum of the two reversal coefficients times a
    convolution that depends only on the total detuning, divided by
    2 pi.  The convolution runs along the anti-diagonal over a finite
    span; the quartic tail is estimated and must stay below 1e-5.
    """
    if not (math.isfinite(omega1) and math.isfinite(omega2)):
        raise ValueError(f"detunings must be finite, got ({omega1!r}, {omega2!r})")
    r1, _ = single_photon_r_t(omega1)
    r2, _ = single_photon_r_t(omega2)
    s = float(omega1) + float(omega2)
    conv = _antidiagonal_integral(s, xi2, quad, omega_span)
    return (r1 + r2) * conv / _TWO_PI


def _freq_channel(channel: str, r1, t1, r2, t2, xi, b):
    """One channel from the coefficients acting on the line xi plus b.

    LL reverses both photons, RL transmits the first and reverses the
    second, RR transmits both (Shen & Fan, PRA 76, 062709 (2007)).
    """
    if channel == "LL":
        return r1 * r2 * xi + b
    if channel == "RL":
        return _SQRT2 * (t1 * r2 * xi + b)
    return t1 * t2 * xi + b


def freq_two_photon_outputs(omega1: float, omega2: float, xi2,
                            quad: QuadratureSpec = DEFAULT_QUAD,
                            omega_span: float = DEFAULT_ANTIDIAG_SPAN) -> dict:
    """Channel amplitudes {LL, RL, RR} at fixed output detunings.

    Assembled from the single-photon coefficients acting on the joint
    line plus the shared saturation correction.
    """
    b = freq_nonlinear_correction(omega1, omega2, xi2, quad, omega_span)
    r1, t1 = single_photon_r_t(omega1)
    r2, t2 = single_photon_r_t(omega2)
    xi = _as_mode_callable(xi2)(omega1, omega2)
    return {ch: _freq_channel(ch, r1, t1, r2, t2, xi, b) for ch in CHANNELS}


def _antidiagonal_convolution(ax1: np.ndarray, ax2: np.ndarray, xi2,
                              quad: QuadratureSpec, omega_span: float) -> np.ndarray:
    """Anti-diagonal convolution on ax1 x ax2, the same for every channel."""
    # group grid nodes by total detuning: the sorted sums start a new
    # anti-diagonal wherever they jump by more than rounding, and the
    # convolution is smooth on the line scale, so one evaluation per
    # group, at its mean sum, suffices
    sums = np.add.outer(ax1, ax2).ravel()
    order = np.argsort(sums, kind="stable")
    ordered = sums[order]
    jumps = np.diff(ordered) > 1e-9 * np.maximum(1.0, np.abs(ordered[1:]))
    # an empty axis leaves the single edge 0, and no group
    edges = np.union1d([0, ordered.size], np.flatnonzero(jumps) + 1)
    conv = np.empty(sums.size, dtype=complex)
    for lo, hi in zip(edges[:-1], edges[1:]):
        conv[order[lo:hi]] = _antidiagonal_integral(
            float(np.mean(ordered[lo:hi])), xi2, quad, omega_span)
    return conv.reshape(ax1.size, ax2.size)


def _channel_from_convolution(channel: str, ax1: np.ndarray, ax2: np.ndarray,
                              xi2, conv: np.ndarray) -> FreqAmplitudeGrid:
    """Assemble one channel from the line and the shared convolution."""
    mode = _as_mode_callable(xi2)
    r1, t1 = single_photon_r_t(ax1)
    r2, t2 = single_photon_r_t(ax2)
    shape = (ax1.size, ax2.size)
    xi = np.asarray(mode(np.broadcast_to(ax1[:, None], shape),
                         np.broadcast_to(ax2[None, :], shape)), dtype=complex)
    b = (r1[:, None] + r2[None, :]) * conv / _TWO_PI
    vals = _freq_channel(channel, r1[:, None], t1[:, None], r2[None, :], t2[None, :], xi, b)
    return FreqAmplitudeGrid(axes=(ax1, ax2), values=vals, channel=channel)


def freq_channel_grid(channel: str, axis1, axis2, xi2,
                      quad: QuadratureSpec = DEFAULT_QUAD,
                      omega_span: float = DEFAULT_ANTIDIAG_SPAN) -> FreqAmplitudeGrid:
    """Channel amplitude tensor on frequency axes.

    The saturation correction depends only on the total detuning, so it
    is evaluated once per anti-diagonal and broadcast across the grid.
    """
    if channel not in CHANNELS:
        raise ValueError(f"channel must be one of {CHANNELS}")
    ax1 = np.asarray(axis1, dtype=float)
    ax2 = np.asarray(axis2, dtype=float)
    if not (np.isfinite(ax1).all() and np.isfinite(ax2).all()):
        raise ValueError("detuning axes must be finite")
    conv = _antidiagonal_convolution(ax1, ax2, xi2, quad, omega_span)
    return _channel_from_convolution(channel, ax1, ax2, xi2, conv)


# ---------------------------------------------------------------------------
# single-photon frequency-side checks


def single_photon_reflection_freq(gamma_bw: float,
                                  quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """One-photon reversal probability from the frequency side.

    Integrates the input line weighted by |r|^2 over all detunings; the
    quartic tails are folded in exactly through the substitution
    u = 1/omega, leaving only finite smooth integrals.
    """
    mode = lorentzian_mode(gamma_bw)

    def weight(om):
        return np.abs(mode(om)) ** 2 * np.abs(_reversal(om)) ** 2

    core = 40.0 * max(1.0, 0.5 * gamma_bw)
    width = 0.5 * min(1.0, 0.5 * gamma_bw)
    total = integrate(weight, -core, core, quad, panel_width=width)

    def tail(u):
        u = np.asarray(u, dtype=float)
        om = 1.0 / u
        return (weight(om) + weight(-om)) / u ** 2

    total += integrate(tail, 1e-12, 1.0 / core, quad, panel_width=1.0 / core / 8.0)
    return float(np.real(total))


def single_photon_bridge_error(gamma_bw: float) -> float:
    """Worst deviation of the bridged one-photon scattered wave.

    Bridges the time-domain emission tail (4097 samples up to
    max(40, 80/gamma)) and compares against the product of the reversal
    coefficient and the Lorentzian line; returns the max absolute error
    over 201 detunings on [-10, 10].
    """
    gamma_bw = check_bandwidth(gamma_bw)
    t_end = max(40.0, 80.0 / gamma_bw)
    axis = np.linspace(0.0, t_end, 4097)
    vals = -h_closed_form(axis, np.zeros_like(axis), gamma_bw)
    grid = AmplitudeGrid(axes=(axis,), values=vals.astype(complex),
                         channel="L", dynamical_time=t_end)
    bridged = fourier_bridge(grid, np.linspace(-10.0, 10.0, 201))
    mode = lorentzian_mode(gamma_bw)
    r, _ = single_photon_r_t(bridged.axes[0])
    exact = r * mode(bridged.axes[0])
    return float(np.max(np.abs(bridged.values - exact)))


# ---------------------------------------------------------------------------
# two-route comparison report


@dataclass(frozen=True)
class ChannelComparison:
    channel: str
    max_abs_err: float
    rms_err: float
    passed: bool


@dataclass(frozen=True)
class ComparisonReport:
    """Two-route agreement summary for the two-photon channels."""

    gamma_bw: float
    tolerance: float
    omega_min: float
    omega_max: float
    n_omega: int
    n_time: int
    t_end: float
    channels: tuple[ChannelComparison, ...]
    elapsed_seconds: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.channels)

    def to_dict(self) -> dict:
        return {
            "gamma": self.gamma_bw,
            "tolerance": self.tolerance,
            "omega_axis": {"min": self.omega_min, "max": self.omega_max,
                           "points": self.n_omega},
            "time_axis": {"points": self.n_time, "end": self.t_end},
            "channels": {
                c.channel: {"max_abs_err": c.max_abs_err,
                            "rms_err": c.rms_err, "passed": c.passed}
                for c in self.channels},
            "passed": self.passed,
            "elapsed_seconds": self.elapsed_seconds,
        }

    def to_json(self, path=None) -> str:
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text


def appendix_comparison(gamma_bw: float, omega_min: float = -10.0,
                        omega_max: float = 10.0, n_omega: int = 64,
                        n_time: int = 4096, t_end: float | None = None,
                        tolerance: float = 1e-4,
                        quad: QuadratureSpec = DEFAULT_QUAD) -> ComparisonReport:
    """Bridge the time-domain channels and compare with the closed forms.

    Uses two identical same-direction exponential photons.  For each
    channel the sampled time amplitudes are transformed at the requested
    detunings and subtracted from the direct frequency-domain assembly;
    the report carries the worst and RMS deviations.  The time amplitudes
    are summed from the one-time factors of the grid fill
    (:func:`_bridge_exp_pair`) with the weights and the window guard that
    ``fourier_bridge(two_photon_channel_grid(...))`` applies, but no row
    block of the time grid is formed, and the one time-by-frequency array
    held is the kernel exp(i omega tau) dt that both axes share.  Every
    argument is checked before any grid work.
    """
    start = time.perf_counter()
    gamma_bw = check_bandwidth(gamma_bw)
    if t_end is None:
        t_end = max(40.0, 80.0 / gamma_bw)
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise ValueError(f"t_end must be finite and > 0, got {t_end!r}")
    if not (math.isfinite(omega_min) and math.isfinite(omega_max) and omega_min < omega_max):
        raise ValueError(
            f"need finite omega_min < omega_max, got {omega_min!r} and {omega_max!r}")
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise ValueError(f"tolerance must be finite and > 0, got {tolerance!r}")
    for name, count, least in (("n_omega", n_omega, 2), ("n_time", n_time, 1)):
        if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < least:
            raise ValueError(f"{name} must be an integer >= {least}, got {count!r}")
    profile = PulseProfile.exponential(gamma_bw)
    w = WavepacketN.product([(profile, Direction.RIGHT),
                             (profile, Direction.RIGHT)])
    axis = np.linspace(0.0, float(t_end), n_time + 1)
    om = np.linspace(float(omega_min), float(omega_max), n_omega)
    mode = lorentzian_mode(gamma_bw)

    def xi2(w1, w2):
        return mode(w1) * mode(w2)

    # the axis kernel and the convolution do not depend on the channel, and
    # both axes share the kernel: one of each per comparison
    kern, unit = _axis_kernel(axis, om, end_corrected=False)
    kern *= unit[:, None]
    weights = _quad_segment(axis.size)
    conv = _antidiagonal_convolution(om, om, xi2, quad, DEFAULT_ANTIDIAG_SPAN)
    results = []
    for channel in CHANNELS:
        # neither route's spectrum is held through the next channel's contraction
        err = np.abs(_bridge_exp_pair(w, channel, axis, float(t_end), kern, weights)
                     - _channel_from_convolution(channel, om, om, xi2, conv).values)
        results.append(ChannelComparison(
            channel=channel,
            max_abs_err=float(np.max(err)),
            rms_err=float(np.sqrt(np.mean(err ** 2))),
            passed=bool(np.max(err) <= tolerance)))
    elapsed = time.perf_counter() - start
    return ComparisonReport(
        gamma_bw=float(gamma_bw), tolerance=float(tolerance),
        omega_min=float(omega_min), omega_max=float(omega_max),
        n_omega=int(n_omega), n_time=int(n_time), t_end=float(t_end),
        channels=tuple(results), elapsed_seconds=float(elapsed))
