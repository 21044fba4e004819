"""Time-domain scattering amplitudes built from the memory kernel.

The central object is the vacuum amplitude for the atom emitting at an
ordered list of times tau_1 <= ... <= tau_N while absorbing every input
photon.  Emission at tau_i restricts the matching absorption to the
window (tau_{i-1}, tau_i], weighted by the atomic memory; absorption is
direction blind, so for separable inputs the amplitude is a permanent of
per-photon kernel integrals over the windows.  Each emission carries a
dipole sign (-1), applied here exactly once (the kernel is unsigned).

Conventions:

* Heaviside gates are closed-boundary: an emission exactly at the
  observation time counts, theta(0) = 1.
* Output channels for two photons are tagged LL (both reflected),
  RL (first slot transmitted, second reflected) and RR (both
  transmitted), for inputs incident from the left.
* The two-photon channel amplitudes f0 (LL) and f2 (RR) absorb a factor
  1/sqrt(2) so that their plain L2 norms enter unitarity sums directly;
  the nonlinear correction B is stated in the same normalization.
"""

from __future__ import annotations

import functools
import json
import math
import os
import weakref
from dataclasses import dataclass

import numpy as np

# h_closed_form, integrate and integrate_2d_box have no caller here, but
# perfbench's tracer patches amplitudes.h_closed_form, amplitudes.integrate
# and amplitudes.integrate_2d_box
from .kernel import _window_kernel, h_closed_form  # noqa: F401
from .model import Direction, InitialState, PulseProfile, WavepacketN, _as_direction, _permanent
from .quadrature import DEFAULT_QUAD, QuadratureSpec, integrate, integrate_2d_box  # noqa: F401

__all__ = ["AmplitudeGrid", "CHANNELS", "exp_pair_channel_values",
           "linear_beamsplitter_amplitude", "load_grid_csv", "nonlinear_correction_B",
           "ordered_emission_amplitude", "reflection_amplitude_f0", "two_photon_channel_grid",
           "two_photon_outputs", "write_grid_csv"]

_SQRT2 = math.sqrt(2.0)

CHANNELS = ("LL", "RL", "RR")


def _validate_times(times) -> np.ndarray:
    arr = np.asarray(times, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("emission times must form a non-empty 1-D sequence")
    _check_finite("emission times", *arr)
    if np.any(arr < 0.0):
        raise ValueError("emission times must be >= 0")
    if np.any(np.diff(arr) < 0.0):
        raise ValueError("emission times must be sorted ascending")
    return arr


def _check_finite(what: str, *values) -> None:
    bad = [v for v in values if not math.isfinite(v)]
    if bad:
        raise ValueError(f"{what} must be finite, got {bad[0]!r}")


# -- ordered emission ---------------------------------------------------------

def _absorption_chain(lo, hi, w: WavepacketN, quad: QuadratureSpec) -> complex:
    """(-1)^n <vacuum| windowed-absorption chain |w>, window (lo[i], hi[i]) per photon.

    A product state takes the permanent of its window kernels, a
    correlated pair the double window of its photon pairs.
    """
    n = len(lo)
    if w.n_photons != n:
        raise ValueError("window count must match the photon number")
    if n == 0:
        return 1.0 + 0.0j
    sign = -1.0 if n % 2 else 1.0
    if w.kind == "correlated2":
        return sign * _double_window(w, lo[0], hi[0], lo[1], hi[1], quad)
    mat = np.stack([_window_kernel(p, hi, lo, quad) for p, _ in w.entries], axis=1,
                   dtype=complex)
    return sign * w.separable_normalization() * _permanent(mat)


def ordered_emission_amplitude(times, state: InitialState | WavepacketN,
                               quad: QuadratureSpec = DEFAULT_QUAD) -> complex:
    """Vacuum amplitude for the atom emitting at the ordered times.

    ``state`` may superpose a ground branch (all excitations in the
    field) and an excited branch (atom initially excited, one photon
    fewer); a bare wavepacket is treated as the ground branch.  The
    excited branch re-emits its stored excitation first: amplitude
    exp(-tau_1) times the absorption chain over the remaining windows.
    Window kernels are closed form for exponential envelopes, and read off
    each other photon's absorption table (exact for sampled data, so for
    the sampled photons a correlated pair decomposes into); each depends
    only on its own window.  :func:`reflection_amplitude_f0` is this amplitude
    divided by sqrt(N!).
    """
    if isinstance(state, WavepacketN):
        state = InitialState(c_g=1.0, field_g=state)
    arr = _validate_times(times)
    n = arr.size
    if state.total_excitations != n:
        raise ValueError(
            f"state carries {state.total_excitations} excitations, got {n} emission times")
    amp = 0.0 + 0.0j
    if state.c_g != 0:
        starts = np.concatenate([[0.0], arr[:-1]])
        amp += state.c_g * _absorption_chain(starts, arr, state.field_g, quad)
    if state.c_e != 0:
        amp += state.c_e * math.exp(-arr[0]) * _absorption_chain(arr[:-1], arr[1:],
                                                                 state.field_e, quad)
    return amp


def linear_beamsplitter_amplitude(tau1: float, tau2: float, w: WavepacketN,
                                  quad: QuadratureSpec = DEFAULT_QUAD) -> complex:
    """Double-emission amplitude with both absorption windows opened from 0.

    This is the prediction of two independent linear scatterings (no
    saturation): each emission integrates the full history [0, tau_i]
    instead of the window between consecutive emissions.  The difference
    from :func:`ordered_emission_amplitude` is the nonlinear correction.
    """
    if w.n_photons != 2:
        raise ValueError("linear beamsplitter amplitude is a two-photon construct")
    _check_finite("emission times", tau1, tau2)
    if tau1 < 0.0 or tau2 < 0.0:
        raise ValueError("emission times must be >= 0")
    return _double_window(w, 0.0, tau1, 0.0, tau2, quad)


def nonlinear_correction_B(tau1: float, tau2: float, w: WavepacketN,
                           quad: QuadratureSpec = DEFAULT_QUAD) -> complex:
    """Saturation correction to the linear two-photon amplitude.

    B(t1, t2) = -exp(-|t2 - t1|) * Q(min(t1, t2)), with

        Q(tau) = double integral over [0, tau]^2 of
                 exp(-(tau - s1)) exp(-(tau - s2)) * (joint extraction)/sqrt 2.

    It removes the doubly-counted histories in which both absorptions
    precede the earlier emission; only the earlier emission time enters
    the square window.  Stated in the f0 normalization (divided by
    sqrt 2), so the raw amplitudes obey ordered = linear + sqrt(2) B.
    Symmetric under exchange of its arguments; at t1 = t2 the single
    earlier-window term applies once.
    """
    if w.n_photons != 2:
        raise ValueError("nonlinear correction is a two-photon construct")
    _check_finite("emission times", tau1, tau2)
    if tau1 < 0.0 or tau2 < 0.0:
        raise ValueError("emission times must be >= 0")
    lo, hi = sorted((tau1, tau2))
    square = _double_window(w, 0.0, lo, 0.0, lo, quad)
    return -math.exp(-(hi - lo)) * square / _SQRT2


# -- reflection amplitude -----------------------------------------------------

def reflection_amplitude_f0(times, w: WavepacketN, t: float,
                            quad: QuadratureSpec = DEFAULT_QUAD) -> complex:
    """Fully reflected N-photon amplitude f0 at detection times ``times``.

    Requires all photons incident from one side.  Causality gates the
    result: zero unless every emission time has been reached (tau_i <= t,
    boundary included).  For separable inputs the nested absorption
    integral factorizes over the windows into a permanent of kernel
    integrals, one window kernel per photon and window.  The sqrt(N!)
    bosonic bookkeeping is handled here: the returned f0 is
    :func:`ordered_emission_amplitude` divided by sqrt(N!).
    """
    arr = np.sort(_validate_times(times))
    _check_finite("observation time", t)
    n = arr.size
    if w.n_photons != n:
        raise ValueError("photon number must match the number of detection times")
    if np.any(arr > t):
        return 0.0 + 0.0j
    if w.kind == "separable":
        one_sided = len({d for _, d in w.entries}) <= 1
    else:
        # correlated pair: one-sidedness means a single nonzero component
        live = {k for k, v in w.tensors.items() if np.any(v)}
        one_sided = live <= {0} or live <= {2}
    if not one_sided:
        raise ValueError("reflection amplitude needs all photons on one side")
    return ordered_emission_amplitude(arr, w, quad) / math.sqrt(math.factorial(n))


# -- two-photon output channels ----------------------------------------------

# a correlated pair's decomposition stops once the residual it carries is
# this small against its component tensor, in the Frobenius norm
_CROSS_TOL = 1e-15
# a symmetric tensor pivots on its largest diagonal entry while that is at
# least this share of its largest entry, in magnitude (Bunch and Kaufman's)
_DIAGONAL_PIVOT = (1.0 + math.sqrt(17.0)) / 8.0


def _cross_terms(x: np.ndarray, symmetric: bool = False):
    """Rows u_k, v_k with x = sum_k outer(u_k, v_k), by Gaussian elimination
    with complete pivoting: each term is the residual's column and row through
    its largest entry, the row over that entry, and takes them out of the
    residual (one residual held, updated in place).  It stops once the
    residual it carries is <= _CROSS_TOL ||x||_F, so a rank-r tensor takes r
    terms; the terms' own residual differs from it by the rounding of the
    updates, about m eps ||x||_F for an m x m tensor.  A symmetric x is taken
    as (x + x^T) / 2 and gives v_k = u_k: it pivots on the largest diagonal
    entry while _DIAGONAL_PIVOT allows, else on the 2 x 2 block through the
    largest entry, whose inverse :func:`_symmetric_root` splits in two terms.
    """
    if symmetric:
        res = x + x.T
        res *= 0.5
    else:
        res = np.asarray(x, dtype=complex)
    m = len(res)
    # element-wise only: on a small tensor a BLAS call costs more to start than the work
    bound = _CROSS_TOL ** 2 * (res.real ** 2 + res.imag ** 2).sum()
    rows, cols = np.arange(m), np.arange(m)
    us, vs = [np.zeros((m, 0), dtype=complex)], [np.zeros((m, 0), dtype=complex)]
    while (mag := res.real ** 2 + res.imag ** 2).sum() > bound:
        i, j = np.unravel_index(np.argmax(mag), mag.shape)
        if symmetric:
            k = np.argmax(np.diagonal(mag))
            i = j = [k] if mag[k, k] >= _DIAGONAL_PIVOT ** 2 * mag[i, j] else [i, j]
            root = _symmetric_root(np.linalg.inv(res[np.ix_(i, j)]))
            u = v = np.einsum("ik,kl->il", res[:, j], root)
        else:
            u, v, i, j = res[:, [j]], res[[i]].T / res[i, j], [i], [j]
        del mag
        for out, part, at in ((us, u, rows), (vs, v, cols)):
            out.append(np.zeros((m, part.shape[1]), dtype=complex))
            out[-1][at] = part
        keep_rows, keep_cols = (np.delete(np.arange(len(rows)), i),
                                np.delete(np.arange(len(cols)), j))
        rows, cols = rows[keep_rows], cols[keep_cols]
        res = res[np.ix_(keep_rows, keep_cols)]
        for a, b in zip(u[keep_rows].T, v[keep_cols].T):
            res -= np.multiply.outer(a, b)
    u = np.concatenate(us, axis=1).T
    return (u, u) if symmetric else (u, np.concatenate(vs, axis=1).T)


def _symmetric_root(s: np.ndarray) -> np.ndarray:
    """L with L L^T = s, for a nonsingular complex symmetric s of size 1 or 2.
    Of size 2, with sigma = +-1 making mu = s11 + s22 + 2 sigma s12 largest, L's
    first column s (1, sigma) / sqrt(mu) leaves det(s) / mu (-sigma, 1) (-sigma, 1)^T.
    """
    if len(s) == 1:
        return np.sqrt(s)
    (a, b), (_, c) = s
    sigma = 1.0 if abs(a + c + 2.0 * b) >= abs(a + c - 2.0 * b) else -1.0
    mu = a + c + 2.0 * sigma * b
    rest = np.sqrt((a * c - b * b) / mu)
    return np.array([[(a + sigma * b) / np.sqrt(mu), -sigma * rest],
                     [(b + sigma * c) / np.sqrt(mu), rest]])


# each live correlated pair's photon pairs, decomposed on first use
_DECOMPOSED = weakref.WeakKeyDictionary()


def _decomposed_pairs(w: WavepacketN) -> list:
    """The photon pairs (p, d1, q, d2) of a correlated pair: stacks of photons
    sampled on its grid, at no particular norm, from :func:`_cross_terms`.

    xi1 gives (right u_k, left v_k).  xi2 and xi0 give same-direction pairs
    (u_k, u_k) / 2^(1/4) of their symmetric terms, whose symmetrised
    products sum to sqrt 2 times the tensor.
    """
    photons = functools.partial(PulseProfile, "sampled", w.grid[-1], grid=w.grid,
                                norm_tol=math.inf)
    pairs = []
    for n, d1, d2 in ((2, Direction.RIGHT, Direction.RIGHT), (0, Direction.LEFT, Direction.LEFT),
                      (1, Direction.RIGHT, Direction.LEFT)):
        if n in w.tensors:
            u, v = _cross_terms(w.tensors[n], symmetric=d1 is d2)
            p = q = photons(values=u / 2.0 ** 0.25 if d1 is d2 else u)
            if d1 is not d2:
                q = photons(values=v)
            pairs.append((p, d1, q, d2))
    return pairs


class _PairKernels:
    """A two-photon state as a weighted list of photon pairs.

    The state is weight times the sum over its pairs (p, d1, q, d2) and over
    k of the product pair of photon p[k], moving in d1, and photon q[k],
    moving in d2, each at unit normalization; p and q are profiles, one
    photon each or photons stacked along a leading axis.  A product state is
    one pair of its two profiles, weighted by its normalization.  A
    correlated pair's pairs come from :func:`_decomposed_pairs`, weight 1:
    sampled photons on its grid, whose bilinear interpolant is the state's.
    A sampled photon's kernels are exact for its linear interpolant, so the
    pairs are exact for the state's interpolant.  Every amplitude is built
    from each profile's one-time values, its envelopes p and absorptions
    K_p(x) = K(p; 0, x).
    """

    def __init__(self, w: WavepacketN, quad: QuadratureSpec):
        self._quad = quad
        if w.kind == "separable":
            (p1, d1), (p2, d2) = w.entries
            self.weight, self.pairs = w.separable_normalization(), [(p1, d1, p2, d2)]
        else:
            if w not in _DECOMPOSED:
                _DECOMPOSED[w] = _decomposed_pairs(w)
            self.weight, self.pairs = 1.0, _DECOMPOSED[w]
        # each profile once; its values carry its photon axes (none but a sampled stack's)
        self.profiles = dict.fromkeys(p for pair in self.pairs for p in pair[::2])

    def absorptions(self, p: PulseProfile, x: np.ndarray) -> np.ndarray:
        """K_p at the points x (1-D), photons along the first axis."""
        return _photon_rows(_window_kernel(p, x, 0.0, self._quad), x.size)

    def one_time(self, *axes) -> list:
        """Each profile's envelopes and absorptions K_p on each 1-D axis, photons
        along the first axis: one (envelopes, absorptions) pair of dicts by
        profile per axis, from one evaluation per profile at the axes' points
        joined; float64 when every value is real."""
        x = np.concatenate(axes)
        env = {p: _photon_rows(p.value(x), x.size) for p in self.profiles}
        kern = {p: self.absorptions(p, x) for p in self.profiles}
        if not any(np.imag(v).any() for f in (env, kern) for v in f.values()):
            env, kern = ({p: v.real for p, v in f.items()} for f in (env, kern))
        ends = np.cumsum([a.size for a in axes])
        return [tuple({p: v[:, i - a.size:i] for p, v in f.items()} for f in (env, kern))
                for a, i in zip(axes, ends)]


def _photon_rows(values, n: int) -> np.ndarray:
    """A profile's values at n points, its photon axes flattened into the first."""
    return np.reshape(values, (math.prod(np.shape(values)[:-1]), n))


def _sum_terms(terms: np.ndarray) -> np.ndarray:
    """terms summed over their first axis; one term as it is, signed zeros
    included (np.sum starts from 0.0, which turns -0.0 into 0.0)."""
    return terms[0] if len(terms) == 1 else terms.sum(axis=0)


def _double_window(w: WavepacketN, lo1: float, hi1: float, lo2: float, hi2: float,
                   quad: QuadratureSpec) -> complex:
    """W(lo1, hi1, lo2, hi2): both photons absorbed, one over each window, each
    weighted by the memory up to its window's end.  Per photon pair (p, q) it is
    K(p; lo1, hi1) K(q; lo2, hi2) + K(q; lo1, hi1) K(p; lo2, hi2), with K(p; lo,
    hi) = K_p(hi) - exp(lo - hi) K_p(lo) from one K_p evaluation per profile at
    the window ends.  The ordered chain is W(0, lo, lo, hi), the linear amplitude
    W(0, tau1, 0, tau2) and the correction B the square W(0, lo, 0, lo)."""
    kernels = _PairKernels(w, quad)
    ends = np.array([lo1, lo2, hi1, hi2], dtype=float)
    memory = np.exp(ends[:2] - ends[2:])
    # K(p; lo, hi) of the first and the second window, photons along the first axis
    win = {p: k[:, 2:] - memory * k[:, :2]
           for p, k in ((p, kernels.absorptions(p, ends)) for p in kernels.profiles)}
    terms = np.concatenate([win[p][:, 0] * win[q][:, 1] + win[q][:, 0] * win[p][:, 1]
                            for p, _, q, _ in kernels.pairs])
    return complex(kernels.weight * _sum_terms(terms))


def _factors(kernels: _PairKernels, channel: str, values1, values2, gate1, gate2):
    """One channel's fill factors from the one-time values on two axes: (scale,
    rows, cols, both1, both2), rows and cols stacked along their first (rank)
    axis, one per ordered photon pair.

    With photon a in the first slot and b in the second, the input, both
    spectator terms and the linear term make one product, (p_a [a moves in
    slot 1] - g1 K_a)(tau1) (p_b [b moves in slot 2] - g2 K_b)(tau2) with g_i
    = theta(t - tau_i) the gates: rank 2 per photon pair, one per order.  By
    K(p; lo, hi) = K_p(hi) - exp(lo - hi) K_p(lo), the ordered chain is the
    linear term minus 2 exp(lo - hi) K_1(lo) K_2(lo), whose -2 g K_1 K_2 on
    either axis, summed over the photon pairs, are both1 and both2.  The
    amplitude is scale times the sum of the products and of the chain.
    """
    slots = tuple(map(_as_direction, channel))
    scale = kernels.weight / (_SQRT2 if slots[0] is slots[1] else 1.0)
    (env1, kern1), (env2, kern2) = values1, values2
    rows, cols, both1, both2 = [], [], [], []
    for first, d1, second, d2 in kernels.pairs:
        for a, da, b, db in ((first, d1, second, d2), (second, d2, first, d1)):
            row, col = -gate1 * kern1[a], -gate2 * kern2[b]
            rows.append(row + env1[a] if da is slots[0] else row)
            cols.append(col + env2[b] if db is slots[1] else col)
        both1.append(-2.0 * gate1 * kern1[first] * kern1[second])
        both2.append(-2.0 * gate2 * kern2[first] * kern2[second])
    return (scale, np.concatenate(rows), np.concatenate(cols),
            _sum_terms(np.concatenate(both1)), _sum_terms(np.concatenate(both2)))


def _point_values(w: WavepacketN, channels, tau1, tau2, t: float,
                  quad: QuadratureSpec) -> dict:
    """Channel amplitudes at the broadcast detection times tau1 and tau2: at
    each point the fill of :func:`_factors` on one-point axes, its products
    summed along the rank axis and the ordered chain's memory factor
    exp(-|tau1 - tau2|).  Each profile's one-time values are evaluated once,
    at the times of both arrays (a mesh's axes, not its points)."""
    ndim = max(np.ndim(tau1), np.ndim(tau2))
    T1, T2 = (np.array(tau, dtype=float, ndmin=ndim) for tau in (tau1, tau2))
    kernels = _PairKernels(w, quad)
    values = [tuple({p: v.reshape(len(v), *T.shape) for p, v in f.items()} for f in pair)
              for T, pair in zip((T1, T2), kernels.one_time(T1.ravel(), T2.ravel()))]
    gate1, gate2 = (T1 <= t).astype(float), (T2 <= t).astype(float)
    memory = np.exp(-np.abs(T1 - T2))
    out = {}
    for channel in channels:
        scale, rows, cols, both1, both2 = _factors(kernels, channel, *values, gate1, gate2)
        chain = np.where(T1 <= T2, both1 * gate2, both2 * gate1) * memory
        out[channel] = scale * ((rows * cols).sum(axis=0) + chain)
    return out


def _emitter_blocks(w: WavepacketN, times: np.ndarray, x: np.ndarray,
                    quad: QuadratureSpec = DEFAULT_QUAD):
    """Row blocks (i0, right, left) of the emitter amplitudes at the ascending
    times (row i at times[i0 + i]) with one photon out at x: the spectator, or
    the first of the ordered chain (x <= t, boundary included), which feeds
    both directions alike.  With a out at x and b absorbed by t, per order of
    each photon pair, they are -[a moves in d] p_a(x) K_b(t) and K_a(x) K_b(t)
    - exp(x - t) K_a(x) K_b(x), from one-time values as in :func:`_pair_factors`,
    exp(x - t) rescaled at each block's last time."""
    kernels = _PairKernels(w, quad)
    (env, kern), (_, at_t) = kernels.one_time(x, times)
    rows, cols, spectators, both = [], [], [], []
    for first, d1, second, d2 in kernels.pairs:
        for a, da, b in ((first, d1, second), (second, d2, first)):
            rows.append(kernels.weight * at_t[b])
            cols.append(kern[a])
            # the spectator's columns of the right, then of the left amplitude
            spectators.append(np.concatenate([-(da is d) * env[a] for d in Direction], -1))
        both.append(-2.0 * kernels.weight * kern[first] * kern[second])
    rows, cols, spectators = np.concatenate(rows).T, np.concatenate(cols), np.concatenate(spectators)
    both = _sum_terms(np.concatenate(both))
    for i0, i1 in _row_blocks(times, max(1, _EMITTER_ENTRIES // max(1, x.size))):
        t, ref = times[i0:i1], times[i1 - 1]
        # the gated columns are clamped at ref so that they stay finite
        chain = (np.hstack([rows[i0:i1], np.exp(ref - t)[:, None]])
                 @ np.vstack([cols, both * np.exp(np.minimum(x, ref) - ref)]))
        chain *= x <= t[:, None]
        passing = rows[i0:i1] @ spectators
        yield i0, passing[:, :x.size] + chain, passing[:, x.size:] + chain


def two_photon_outputs(tau1: float, tau2: float, t: float, w: WavepacketN,
                       quad: QuadratureSpec = DEFAULT_QUAD) -> dict:
    """Channel amplitudes {LL, RL, RR} at detection times (tau1, tau2).

    Each channel sums four histories: neither photon touched the atom,
    either one was absorbed and re-emitted (the other passing as a
    spectator), or both were.  Emissions are gated by theta(t - tau_i)
    with the closed boundary.  Every channel is the grid fill on the
    one-point axes (tau1) and (tau2), from one evaluation of each profile's
    envelope and absorption K_p at the two times (closed form for
    exponential envelopes, read off the absorption table of any other
    photon, among them the sampled photons of a correlated pair's
    decomposition, exact for its bilinear interpolant); grids of detection
    times are :func:`two_photon_channel_grid`.
    """
    if w.n_photons != 2:
        raise ValueError("two-photon outputs need a two-photon input")
    _check_finite("detection and dynamical times", tau1, tau2, t)
    if tau1 < 0.0 or tau2 < 0.0:
        raise ValueError("detection times must be >= 0")
    vals = _point_values(w, CHANNELS, tau1, tau2, t, quad)
    return {ch: complex(v) for ch, v in vals.items()}


def exp_pair_channel_values(w: WavepacketN, channel: str, tau1, tau2, t: float) -> np.ndarray:
    """Closed-form channel amplitudes for two exponential envelopes.

    ``tau1`` and ``tau2`` broadcast together (meshes, axis pairs, or
    scalars) and must be finite and >= 0; empty arrays give an empty result
    of their broadcast shape.  The envelope tails past their truncation
    horizons are below exp(-20), so the analytic kernel closed form stands
    in for the truncated integral everywhere.  Each point is
    :func:`two_photon_outputs`' value there.
    """
    if channel not in CHANNELS:
        raise ValueError(f"channel must be one of {CHANNELS}")
    if not (w.all_exponential and w.n_photons == 2):
        raise ValueError("closed-form path needs two exponential envelopes")
    _check_finite("detection and dynamical times", t)
    tau1, tau2 = np.asarray(tau1, dtype=float), np.asarray(tau2, dtype=float)
    if not (np.isfinite(tau1).all() and np.isfinite(tau2).all()):
        raise ValueError("detection and dynamical times must be finite")
    if (tau1 < 0.0).any() or (tau2 < 0.0).any():
        raise ValueError("detection times must be >= 0")
    values = _point_values(w, (channel,), tau1, tau2, t, DEFAULT_QUAD)[channel]
    return np.asarray(values, dtype=complex)


# Row blocks of the grid fill: at most this many entries per temporary, and
# (the emitter amplitudes' too) at most this time span of rows, so that
# memory factors rescaled at the block's last row stay below exp(_BLOCK_SPAN)
# (the memory decays at rate 1 whatever the photons' bandwidths).
_BLOCK_ENTRIES = 1_000_000
_BLOCK_SPAN = 256.0
# smaller blocks of the emitter amplitudes: a trace's temporaries stay in cache
_EMITTER_ENTRIES = 2 ** 13


def _pair_factors(w: WavepacketN, channel: str, ax1: np.ndarray, ax2: np.ndarray,
                  t: float, quad: QuadratureSpec = DEFAULT_QUAD, values=None, block_rows=None):
    """The grid fill of a two-photon state as per-block factors: (scale, blocks).

    Each history of :func:`two_photon_outputs` is, for every product pair of
    the state's photon pairs (:class:`_PairKernels`), built from one-time
    values on each axis, the envelopes p and absorptions K_p(x) = K(p; 0, x):
    the factors of :func:`_factors`, whose ordered chain is summed over the
    product pairs into one product on each triangle once split at the
    block's last row.  Each block (i0, (U, C_up), (L, C_low)) holds the rows
    i0 <= i < i0 + len(U): row i is scale * U[i - i0] @ C_up where tau1 <=
    tau2 and scale * L[i - i0] @ C_low where tau1 > tau2.  Real values (every
    exponential pair's) give float64 factors.  ``values`` are the one-time
    values on ax1 and on ax2 (:meth:`_PairKernels.one_time`) when the caller
    holds them.  A block holds at most ``block_rows`` rows, by default _BLOCK_ENTRIES
    entries of the multiplied-out grid, and spans at most _BLOCK_SPAN.
    """
    kernels = _PairKernels(w, quad)
    if values is None:
        values = kernels.one_time(ax1, ax2)
    gate1 = (ax1 <= t).astype(float)
    gate2 = (ax2 <= t).astype(float)
    scale, rows, shared_cols, both1, both2 = _factors(kernels, channel, *values, gate1, gate2)
    shared_rows = rows.T

    # a block's exp columns live only while its triangles' factors are stacked
    def triangle(i0, i1, u, v):
        return np.hstack([shared_rows[i0:i1], u[:, None]]), np.vstack([shared_cols, v[None, :]])

    def blocks():
        for i0, i1 in _row_blocks(ax1, block_rows or max(1, _BLOCK_ENTRIES // max(1, ax2.size))):
            t1 = ax1[i0:i1]
            ref = t1[-1]
            # exp(lo - hi) = exp(lo - ref) exp(ref - hi); each triangle's columns
            # are clamped into the range it keeps so discarded entries stay finite
            yield (i0, triangle(i0, i1, both1[i0:i1] * np.exp(t1 - ref),
                                gate2 * np.exp(ref - np.maximum(ax2, t1[0]))),
                   triangle(i0, i1, gate1[i0:i1] * np.exp(ref - t1),
                            both2 * np.exp(np.minimum(ax2, ref) - ref)))

    return scale, blocks()


def _row_blocks(ax: np.ndarray, size: int):
    """(i0, i1) of the blocks of the ascending ax: at most size entries, spanning
    at most _BLOCK_SPAN."""
    i0 = 0
    while i0 < ax.size:
        i1 = min(i0 + size, int(np.searchsorted(ax, ax[i0] + _BLOCK_SPAN, side="right")))
        yield i0, i1
        i0 = i1


def _pair_blocks(w: WavepacketN, channel: str, ax1: np.ndarray, ax2: np.ndarray,
                 t: float, quad: QuadratureSpec = DEFAULT_QUAD):
    """Row blocks (i0, rows) of the channel amplitudes of a two-photon state,
    multiplied out from :func:`_pair_factors`: one small matmul per
    triangle, merged by the mask tau1 > tau2."""
    scale, factors = _pair_factors(w, channel, ax1, ax2, t, quad)
    for i0, (up_rows, up_cols), (low_rows, low_cols) in factors:
        upper = up_rows @ up_cols
        # no name holds the lower triangle's product across the yield
        np.copyto(upper, low_rows @ low_cols,
                  where=ax1[i0:i0 + len(upper), None] > ax2[None, :])
        upper *= scale
        yield i0, upper


def two_photon_channel_grid(w: WavepacketN, channel: str, axis1, axis2, t: float,
                            quad: QuadratureSpec = DEFAULT_QUAD) -> "AmplitudeGrid":
    """Channel amplitude tensor over axis1 x axis2 at dynamical time t.

    Every state's is copied in from the row blocks of :func:`_pair_blocks`
    (the two-route comparison contracts their factors instead), so every
    point equals :func:`two_photon_outputs` there, to rounding.
    """
    if channel not in CHANNELS:
        raise ValueError(f"channel must be one of {CHANNELS}")
    if w.n_photons != 2:
        raise ValueError("a two-photon channel grid needs a two-photon input")
    ax1 = np.asarray(axis1, dtype=float)
    ax2 = np.asarray(axis2, dtype=float)
    for name, a in (("axis1", ax1), ("axis2", ax2)):
        if not a.size:
            raise ValueError(f"{name} is an empty axis: a grid needs a node on each axis")
    if not all(np.all(np.isfinite(a) & (a >= 0.0)) for a in (ax1, ax2)):
        raise ValueError("detection-time axes must be finite and >= 0")
    _check_finite("dynamical time", t)
    values = np.empty((ax1.size, ax2.size), dtype=complex)
    for i0, block in _pair_blocks(w, channel, ax1, ax2, t, quad):
        values[i0:i0 + len(block)] = block
    return AmplitudeGrid(axes=(ax1, ax2), values=values, channel=channel,
                         dynamical_time=t)


# -- grids and serialization --------------------------------------------------

@dataclass
class AmplitudeGrid:
    """Sampled channel amplitude over a tensor grid of detection times."""
    axes: tuple
    values: np.ndarray
    channel: str
    dynamical_time: float

    def __post_init__(self):
        self.axes = tuple(np.asarray(a, dtype=float) for a in self.axes)
        self.values = np.asarray(self.values)
        expected = tuple(a.size for a in self.axes)
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} does not match axes {expected}")
        for a in self.axes:
            if np.any(np.diff(a) <= 0.0):
                raise ValueError("grid axes must be strictly increasing")

    @property
    def ndim(self) -> int:
        return len(self.axes)

    def max_asymmetry(self) -> float:
        """Largest |f(t1, t2) - f(t2, t1)| on shared axes (symmetric channels)."""
        if self.ndim != 2 or self.axes[0].size != self.axes[1].size:
            raise ValueError("asymmetry check needs a square 2-D grid")
        return float(np.max(np.abs(self.values - self.values.T)))


# rows per block of _write_table and write_grid_csv: one write takes the
# block's rows, so no table is ever formatted or held whole
_TABLE_BLOCK_ROWS = 4096


def _byte_table(texts) -> np.ndarray:
    """Equal-length ASCII texts as one void array, one element per text."""
    return np.frombuffer("".join(texts).encode("ascii"), dtype=f"V{len(texts[0])}")


# the pieces of a '%.11e' cell: "d.dd", three groups "ddd" and "e-99".."e+99";
# and the correctly rounded factor 10**(11 - e) for each of those exponents
_LEAD = _byte_table([f"{i // 100}.{i % 100:02d}" for i in range(1000)])
_DIGITS = _byte_table([f"{i:03d}" for i in range(1000)])
_EXPONENT = _byte_table([f"e{e:+03d}" for e in range(-99, 100)])
_SCALE = np.array([float(f"1e{11 - e}") for e in range(-99, 100)])
# 19 NUL-padded bytes hold '%.11e' of any double
_CELL = np.dtype([("sign", "u1"), ("lead", "V4"), ("d0", "V3"), ("d1", "V3"),
                  ("d2", "V3"), ("exp", "V4"), ("end", "u1")])


def _float_cells(x, out) -> None:
    """Write '%.11e' % v for each float64 v of x into the _CELL array out.

    With e = floor(log10|v|), the 12 digits are m = rint(|v| * 10**(11 - e)).
    That product carries at most two roundings, ~2.2e-4 at 10**12, so m is
    the correctly rounded mantissa '%' prints unless the product's fraction
    lies within 1e-3 of 1/2.  Python's '%' writes those near-ties and the
    other rare values: an m off [1e11, 1e12) (log10 off by one near a power
    of ten, or digits rounding up to the next power), |v| outside
    [1e-99, 1e100) (three-digit exponents and subnormals), nan and the
    infinities.  Zero takes the array route with its sign.
    """
    a = np.abs(x)
    normal = (a >= 1e-99) & (a < 1e100)
    with np.errstate(all="ignore"):
        # log10 can round past the ends of the table for |v| next to 1e-99 or 1e100
        e = np.where(normal, np.clip(np.floor(np.log10(a)), -99, 99), 0.0).astype(np.int64)
        s = a * _SCALE[e + 99]
        m = np.rint(s)
        fast = normal & (m >= 1e11) & (m < 1e12) & (np.abs(s - m) < 0.499)
    m = np.where(fast, m, 0.0).astype(np.int64)
    e[~fast] = 0
    out["sign"] = np.where(np.signbit(x), ord("-"), 0)
    for field, table, unit in (("lead", _LEAD, 10**9), ("d0", _DIGITS, 10**6),
                               ("d1", _DIGITS, 10**3), ("d2", _DIGITS, 1)):
        digits, m = np.divmod(m, unit)
        out[field] = table.take(digits)
    out["exp"] = _EXPONENT.take(e + 99)
    out["end"] = 0
    rare = np.flatnonzero(~fast & (a != 0.0))
    if rare.size:
        out[rare] = np.array(["%.11e" % v for v in x[rare].tolist()], dtype="S19").view(_CELL)


def _write_table(fh, header, columns) -> None:
    """Write a header line and one CSV row per index of the equal-length columns
    to a text file."""
    fh.write(",".join(header) + "\n")
    for lo in range(0, len(columns[0]), _TABLE_BLOCK_ROWS):
        fh.write(_row_bytes([_cells(c[lo:lo + _TABLE_BLOCK_ROWS]) for c in columns])
                 .decode("ascii"))


def _cells(column) -> np.ndarray:
    """The CSV cells of a column as NUL-padded void bytes: integers as %d and
    the rest as '%.11e' (12 significant digits, by :func:`_float_cells`), so
    repeated runs are byte-identical."""
    if column.dtype.kind in "iu":
        text = column.astype("S")
    else:
        text = np.empty(column.size, _CELL)
        _float_cells(np.asarray(column, dtype=np.float64), text)
    return text.view(f"V{text.itemsize}")


def _row_bytes(cells) -> bytes:
    """One CSV row per index of the equal-length cell columns (:func:`_cells`),
    as bytes: the cells, commas and newlines are laid out in one byte array,
    which loses its NULs."""
    fields = []
    for j, cell in enumerate(cells):
        fields += [(f"c{j}", cell.dtype), (f"s{j}", "u1")]
    rows = np.empty(len(cells[0]), fields)
    for j, cell in enumerate(cells):
        rows[f"c{j}"] = cell
        rows[f"s{j}"] = ord(",")
    rows[f"s{len(cells) - 1}"] = ord("\n")
    buf = rows.view(np.uint8)
    return buf[buf != 0].tobytes()


def write_grid_csv(grid: AmplitudeGrid, csv_path, header_path=None) -> None:
    """Deterministic CSV dump: one row per node, 12 significant digits.

    Each axis and the dynamical time are formatted once; each block of rows
    takes its tau cells from its flat row indices, so no column is held
    whole.  The JSON header, if asked for, must go to another file than the
    CSV.  ValueError is raised before any file is opened when both paths
    name one, or when an axis of the grid is empty (it has no node to write
    and no range for the header).
    """
    if any(a.size == 0 for a in grid.axes):
        raise ValueError(f"the grid has an empty axis (shape {grid.values.shape}); "
                         "it has no node to write")
    if header_path is not None and os.path.realpath(csv_path) == os.path.realpath(header_path):
        raise ValueError(f"the grid's CSV and its JSON header would both be written "
                         f"to {csv_path}; give them different paths")
    names = [f"tau{i + 1}" for i in range(grid.ndim)] + ["t", "re", "im"]
    vals = grid.values.ravel()
    axes = [_cells(a) for a in grid.axes]
    t_cell = _cells(np.array([grid.dynamical_time]))
    with open(csv_path, "wb") as fh:
        fh.write((",".join(names) + "\n").encode("ascii"))
        for lo in range(0, vals.size, _TABLE_BLOCK_ROWS):
            rows = np.arange(lo, min(lo + _TABLE_BLOCK_ROWS, vals.size))
            block = vals[lo:lo + _TABLE_BLOCK_ROWS]
            taus = [a.take(i) for a, i in zip(axes, np.unravel_index(rows, grid.values.shape))]
            fh.write(_row_bytes([*taus, np.broadcast_to(t_cell, rows.shape),
                                 _cells(block.real), _cells(block.imag)]))
    if header_path is not None:
        header = {
            "channel": grid.channel,
            "dynamical_time": grid.dynamical_time,
            "axes": [{"points": int(a.size), "min": float(a[0]), "max": float(a[-1])}
                     for a in grid.axes],
            "columns": names,
        }
        with open(header_path, "w") as fh:
            json.dump(header, fh, indent=2, sort_keys=True)
            fh.write("\n")


def load_grid_csv(csv_path, header_path) -> AmplitudeGrid:
    with open(header_path) as fh:
        header = json.load(fh)
    ndim = len(header["axes"])
    with open(csv_path) as fh:
        columns = fh.readline().rstrip("\n").split(",")
    if columns != header["columns"]:
        raise ValueError(f"{csv_path} has columns {columns}, its header {header_path} "
                         f"says {header['columns']}")
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2,
                      usecols=[*range(ndim), ndim + 1, ndim + 2])
    axes = [np.unique(data[:, i]) for i in range(ndim)]
    for i, (a, spec) in enumerate(zip(axes, header["axes"])):
        if a.size != spec["points"]:
            raise ValueError(f"tau{i + 1} of {csv_path} has {a.size} points, "
                             f"its header says {spec['points']}")
    shape = tuple(a.size for a in axes)
    if len(data) != math.prod(shape):
        raise ValueError(f"{csv_path} has {len(data)} rows for a grid of {shape} nodes")
    # row k must be the k-th node of the C-order tensor product of the axes
    on_node = np.ones(shape, dtype=bool)
    for i, a in enumerate(axes):
        on_node &= data[:, i].reshape(shape) == a.reshape((-1,) + (1,) * (ndim - 1 - i))
    if not on_node.all():
        raise ValueError(f"line {np.argmin(on_node) + 2} of {csv_path} is not the grid "
                         "node it lands on (rows must run over the axes in C order)")
    vals = (data[:, ndim] + 1j * data[:, ndim + 1]).reshape(shape)
    return AmplitudeGrid(axes=tuple(axes), values=vals,
                         channel=header["channel"],
                         dynamical_time=float(header["dynamical_time"]))
