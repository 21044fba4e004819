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

import collections
import functools
import json
import math
import os
import weakref
from dataclasses import dataclass, replace

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


def _outer_spec(w: WavepacketN, quad: QuadratureSpec) -> QuadratureSpec:
    """quad for integrals over the S and W of w, floored at their noise.

    Closed-form kernels are exact to rounding; any other S and W carries
    the inner engine's error and the data resolution h^2 / 8 of sampled
    states (linear or bilinear interpolation on the widest spacing h).
    """
    if w.all_exponential:
        return quad
    grids = ([w.grid] if w.kind == "correlated2" else
             [p._grid for p, _ in w.entries if p.kind == "sampled"])
    h = max((float(np.max(np.diff(g))) for g in grids), default=0.0)
    noise = h * h / 8.0
    return replace(quad, rel_tol=max(quad.rel_tol, 1e-8, 4.0 * noise),
                   abs_tol=max(quad.abs_tol, 1e-11, noise * 1e-2))


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
        return sign * complex(_PairKernels(w, quad).windows(lo[0], hi[0], lo[1], hi[1], True))
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
    return complex(_PairKernels(w, quad).windows(0.0, tau1, 0.0, tau2, True))


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
    square = complex(_PairKernels(w, quad).windows(0.0, lo, 0.0, lo, True))
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
#
# Every two-photon quantity is the input plus the histories in which the
# atom re-emits: one photon absorbed and re-emitted at tau_emit while the
# other passes as a direction-d spectator at tau_spec, S(d, tau_emit,
# tau_spec), or both absorbed over the windows (lo1, hi1) x (lo2, hi2),
# each weighted by the memory up to its window's end, W(lo1, hi1, lo2, hi2):
# the ordered chain is W(0, lo, lo, hi), the linear amplitude W(0, tau1, 0,
# tau2) and the correction B the square W(0, lo, 0, lo).  The kernel provider
# of every state sums S and W over its photon pairs (_PairKernels).  It takes
# a gate mask and returns zero where it is closed (W a scalar 0.0 when it is
# closed everywhere).  W must not be evaluated there: it is undefined for a
# window with lo > hi.

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
    """S and W of a two-photon state as a weighted list of photon pairs.

    The state is weight times the sum over its pairs (p, d1, q, d2) and over
    k of the product pair of photon p[k], moving in d1, and photon q[k],
    moving in d2, each at unit normalization; p and q are profiles, one
    photon each or photons stacked along a leading axis.  A product state is
    one pair of its two profiles, weighted by its normalization.  A
    correlated pair's pairs come from :func:`_decomposed_pairs`, weight 1:
    sampled photons on its grid, whose bilinear interpolant is the state's.
    A sampled photon's kernels are exact for its linear interpolant, so the
    pairs are exact for the state's interpolant.  S and W are vectorized,
    each profile evaluated once per call, in blocks of points that keep each
    (photons x points) temporary within _BLOCK_ENTRIES entries.
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
        photons = sum(math.prod(np.shape(p._values)[:-1]) for p in self.profiles)
        self._step = max(1, _BLOCK_ENTRIES // max(1, photons))

    def envelopes(self, p: PulseProfile, x) -> np.ndarray:
        """The envelopes of profile p at x, photons along the first axis."""
        return np.reshape(p.value(x), (-1, *np.shape(x)))

    def kernels(self, p: PulseProfile, hi, lo) -> np.ndarray:
        """The window kernels K(p; lo, hi), photons along the first axis."""
        return np.reshape(_window_kernel(p, hi, lo, self._quad),
                          (-1, *np.broadcast(hi, lo).shape))

    def spectator(self, d: Direction, tau_emit, tau_spec, gate):
        # (spectator photons, their re-emitted partners): each photon of a
        # pair that moves in d passes as the spectator in turn
        roles = collections.Counter((a, b) for p, dp, q, dq in self.pairs
                                    for a, da, b in ((p, dp, q), (q, dq, p)) if da is d)

        def block(tau_emit, tau_spec, gate):
            env = {a: self.envelopes(a, tau_spec) for a, _ in roles}
            kern = {b: self.kernels(b, tau_emit, 0.0) for _, b in roles}
            total = 0.0
            for (a, b), n in roles.items():
                total = total + n * _sum_terms(env[a] * kern[b])
            return -self.weight * total * gate

        return self._blocks(block, tau_emit, tau_spec, gate)

    def windows(self, lo1, hi1, lo2, hi2, gate):
        if not np.any(gate):
            return 0.0

        def block(lo1, hi1, lo2, hi2, gate):
            lo1, hi1, lo2, hi2 = (np.where(gate, x, 0.0) for x in (lo1, hi1, lo2, hi2))
            k1, k2 = ({p: self.kernels(p, hi, lo) for p in self.profiles}
                      for lo, hi in ((lo1, hi1), (lo2, hi2)))
            terms = np.concatenate([k1[p] * k2[q] + k1[q] * k2[p] for p, _, q, _ in self.pairs])
            return np.where(gate, self.weight * _sum_terms(terms), 0.0)

        return self._blocks(block, lo1, hi1, lo2, hi2, gate)

    def _blocks(self, func, *args):
        """func(*args), a block of self._step points per call."""
        points = np.broadcast(*args)
        if points.size <= self._step:
            return func(*args)
        flat = [np.broadcast_to(a, points.shape).reshape(-1) for a in args]
        out = np.empty(points.size, dtype=complex)
        for i in range(0, out.size, self._step):
            out[i:i + self._step] = func(*(a[i:i + self._step] for a in flat))
        return out.reshape(points.shape)


def _sum_terms(terms: np.ndarray) -> np.ndarray:
    """terms summed over their first axis; one term as it is, signed zeros
    included (np.sum starts from 0.0, which turns -0.0 into 0.0)."""
    return terms[0] if len(terms) == 1 else terms.sum(axis=0)


def _channel_sums(kernels, w: WavepacketN, channels, tau1, tau2, t: float) -> dict:
    """Channel amplitudes at detection times (tau1, tau2) from a kernel provider.

    A channel with slot directions (d1, d2) sums the input component with
    that many right-movers, the re-emission at tau1 whose spectator leaves
    in d2, the re-emission at tau2 whose spectator leaves in d1, and the
    ordered chain.  Emissions are gated by theta(t - tau_i), boundary
    included; same-direction channels carry the 1/sqrt(2) of their
    normalization.  Each S and W is evaluated once for all channels.
    """
    # (not broadcast here: a spectator's kernels at a time axis that
    # repeats along the other are evaluated once per distinct time)
    T1, T2 = np.asarray(tau1, dtype=float), np.asarray(tau2, dtype=float)
    g1 = T1 <= t
    g2 = T2 <= t
    lo = np.minimum(T1, T2)
    chain = kernels.windows(0.0, lo, lo, np.maximum(T1, T2), g1 & g2)

    @functools.cache
    def spectator(d, emit_first):
        return (kernels.spectator(d, T1, T2, g1) if emit_first
                else kernels.spectator(d, T2, T1, g2))

    out = {}
    for channel in channels:
        d1, d2 = map(_as_direction, channel)
        emitted = spectator(d2, True) + spectator(d1, False) + chain
        xi = w.component(channel.count("R"), (T1, T2))
        out[channel] = xi + (emitted / _SQRT2 if d1 is d2 else emitted)
    return out


def _emitter_amplitudes(kernels, tau, t: float):
    """(right, left) emitter amplitudes at t with one photon out at tau.

    The photon out at tau is either the spectator, while the emitter
    holds the other one, or the first of the ordered chain (tau <= t,
    boundary included).  The emitter radiates into both directions with
    equal coupling, so the chain feeds both branches alike.
    """
    tau = np.asarray(tau, dtype=float)
    chain = kernels.windows(0.0, tau, tau, t, tau <= t)
    return tuple(kernels.spectator(d, t, tau, True) + chain
                 for d in (Direction.RIGHT, Direction.LEFT))


def two_photon_outputs(tau1: float, tau2: float, t: float, w: WavepacketN,
                       quad: QuadratureSpec = DEFAULT_QUAD) -> dict:
    """Channel amplitudes {LL, RL, RR} at detection times (tau1, tau2).

    Each channel sums four histories: neither photon touched the atom,
    either one was absorbed and re-emitted (the other passing as a
    spectator), or both were.  Emissions are gated by theta(t - tau_i)
    with the closed boundary.  Every state takes the window kernels of its
    photon pairs (closed form for exponential envelopes, read off the
    absorption table of any other photon, among them the sampled photons
    of a correlated pair's decomposition, exact for its bilinear
    interpolant); grids of detection times are :func:`two_photon_channel_grid`.
    """
    if w.n_photons != 2:
        raise ValueError("two-photon outputs need a two-photon input")
    _check_finite("detection and dynamical times", tau1, tau2, t)
    if tau1 < 0.0 or tau2 < 0.0:
        raise ValueError("detection times must be >= 0")
    vals = _channel_sums(_PairKernels(w, quad), w, CHANNELS, tau1, tau2, t)
    return {ch: complex(v) for ch, v in vals.items()}


def exp_pair_channel_values(w: WavepacketN, channel: str, tau1, tau2, t: float) -> np.ndarray:
    """Closed-form channel amplitudes for two exponential envelopes.

    ``tau1`` and ``tau2`` broadcast together (meshes, axis pairs, or
    scalars) and must be finite and >= 0.  The envelope tails past their truncation horizons are
    below exp(-20), so the analytic kernel closed form stands in for the
    truncated integral everywhere.
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
    return _channel_sums(_PairKernels(w, DEFAULT_QUAD), w, (channel,), tau1, tau2, t)[channel]


# Row blocks of the grid fill: at most this many entries per temporary,
# and at most this time span of rows, so that the memory factors of
# _pair_factors, rescaled at the block's last row, stay below exp(_BLOCK_SPAN)
# (the memory decays at rate 1 whatever the photons' bandwidths).
_BLOCK_ENTRIES = 1_000_000
_BLOCK_SPAN = 256.0


def _pair_factors(w: WavepacketN, channel: str, ax1: np.ndarray, ax2: np.ndarray,
                  t: float, quad: QuadratureSpec = DEFAULT_QUAD):
    """The grid fill of a two-photon state as per-block factors: (scale, blocks).

    Each history of :func:`two_photon_outputs` is, for every product pair of
    the state's photon pairs (:class:`_PairKernels`), built from one-time
    values on each axis, the envelopes p and absorptions K_p(x) = K(p; 0, x).
    With photon a in the first slot and b in the second, the input, both
    spectator terms and the linear term make one whole-plane product,
    (p_a [a moves in slot 1] - g1 K_a)(tau1) (p_b [b moves in slot 2] - g2
    K_b)(tau2) with g_i = theta(t - tau_i): rank 2 per photon pair, one per
    order.  By K(p; lo, hi) = K_p(hi) - exp(lo - hi) K_p(lo), the ordered
    chain is the linear term minus 2 exp(lo - hi) K_1(lo) K_2(lo), summed
    over the product pairs into one product on each triangle once split at
    the block's last row.  Each block (i0, (U, C_up), (L, C_low)) holds the
    rows i0 <= i < i0 + len(U): row i is scale * U[i - i0] @ C_up where
    tau1 <= tau2 and scale * L[i - i0] @ C_low where tau1 > tau2.  Real
    values (every exponential pair's) give float64 factors.
    """
    slots = tuple(map(_as_direction, channel))
    kernels = _PairKernels(w, quad)
    scale = kernels.weight / (_SQRT2 if slots[0] is slots[1] else 1.0)
    gate1 = (ax1 <= t).astype(float)
    gate2 = (ax2 <= t).astype(float)
    # each profile's values on each axis, photons along the first axis
    env = {p: (kernels.envelopes(p, ax1), kernels.envelopes(p, ax2)) for p in kernels.profiles}
    kern = {p: (kernels.kernels(p, ax1, 0.0), kernels.kernels(p, ax2, 0.0))
            for p in kernels.profiles}
    if not any(np.imag(v).any() for f in (env, kern) for pair in f.values() for v in pair):
        env, kern = ({p: (v1.real, v2.real) for p, (v1, v2) in f.items()} for f in (env, kern))

    rows, cols, both1, both2 = [], [], [], []
    for first, d1, second, d2 in kernels.pairs:
        for a, da, b, db in ((first, d1, second, d2), (second, d2, first, d1)):
            # a in the first slot and b in the second: the input, either
            # spectator and both absorbed from 0 (the linear amplitude) in one
            row, col = -gate1 * kern[a][0], -gate2 * kern[b][1]
            rows.append(row + env[a][0] if da is slots[0] else row)
            cols.append(col + env[b][1] if db is slots[1] else col)
        # -2 K_1 K_2 at the earlier emission, on either axis
        both1.append(-2.0 * gate1 * kern[first][0] * kern[second][0])
        both2.append(-2.0 * gate2 * kern[first][1] * kern[second][1])
    shared_rows = np.concatenate(rows).T
    shared_cols = np.concatenate(cols)
    both1 = _sum_terms(np.concatenate(both1))
    both2 = _sum_terms(np.concatenate(both2))

    def blocks():
        block = max(1, _BLOCK_ENTRIES // max(1, ax2.size))
        i0 = 0
        while i0 < ax1.size:
            i1 = min(i0 + block,
                     int(np.searchsorted(ax1, ax1[i0] + _BLOCK_SPAN, side="right")))
            i1 = max(i1, i0 + 1)
            t1 = ax1[i0:i1]
            ref = t1[-1]
            # exp(lo - hi) = exp(lo - ref) exp(ref - hi); each triangle's columns
            # are clamped into the range it keeps so discarded entries stay finite
            upper = (both1[i0:i1] * np.exp(t1 - ref), gate2 * np.exp(ref - np.maximum(ax2, t1[0])))
            lower = (gate1[i0:i1] * np.exp(ref - t1), both2 * np.exp(np.minimum(ax2, ref) - ref))
            yield (i0, *((np.hstack([shared_rows[i0:i1], u[:, None]]),
                          np.vstack([shared_cols, v[None, :]])) for u, v in (upper, lower)))
            i0 = i1

    return scale, blocks()


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


# rows per block of _write_table and write_grid_csv: each distinct value
# of a column is formatted once per block, and one write takes the block's
# rows, so no table is ever formatted or held whole
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
    """Write a header line and one CSV row per index of the equal-length columns."""
    fh.write(",".join(header) + "\n")
    for lo in range(0, len(columns[0]), _TABLE_BLOCK_ROWS):
        _write_rows(fh, [c[lo:lo + _TABLE_BLOCK_ROWS] for c in columns])


def _write_rows(fh, columns) -> None:
    """Write one CSV row per index of the equal-length columns, in one write.

    Integer columns print as %d and the rest as '%.11e' (12 significant
    digits), so repeated runs are byte-identical.  Cells are keyed on their
    bit patterns, which keeps -0.0 apart from 0.0, and each distinct float is
    formatted by :func:`_float_cells`.  The rows are laid out as NUL-padded
    cells, commas and newlines in one byte array, which loses its NULs.
    """
    cells = []
    for c in columns:
        if c.dtype.kind in "iu":
            keys, inverse = np.unique(c, return_inverse=True)
            text = keys.astype("S")
        else:
            keys, inverse = np.unique(c.view(f"i{c.itemsize}"), return_inverse=True)
            text = np.empty(keys.size, _CELL)
            _float_cells(keys.view(c.dtype).astype(np.float64), text)
        cells.append(text.view(f"V{text.itemsize}").take(inverse))
    fields = []
    for j, cell in enumerate(cells):
        fields += [(f"c{j}", cell.dtype), (f"s{j}", "u1")]
    rows = np.empty(len(cells[0]), fields)
    for j, cell in enumerate(cells):
        rows[f"c{j}"] = cell
        rows[f"s{j}"] = ord(",")
    rows[f"s{len(cells) - 1}"] = ord("\n")
    buf = rows.view(np.uint8)
    fh.write(buf[buf != 0].tobytes().decode("ascii"))


def write_grid_csv(grid: AmplitudeGrid, csv_path, header_path=None) -> None:
    """Deterministic CSV dump: one row per node, 12 significant digits.

    Each block of rows takes its tau cells from its flat row indices, so
    no column is held whole.  The JSON header, if asked for, must go to
    another file than the CSV.  ValueError is raised before any file is
    opened when both paths name one, or when an axis of the grid is empty
    (it has no node to write and no range for the header).
    """
    if any(a.size == 0 for a in grid.axes):
        raise ValueError(f"the grid has an empty axis (shape {grid.values.shape}); "
                         "it has no node to write")
    if header_path is not None and os.path.realpath(csv_path) == os.path.realpath(header_path):
        raise ValueError(f"the grid's CSV and its JSON header would both be written "
                         f"to {csv_path}; give them different paths")
    names = [f"tau{i + 1}" for i in range(grid.ndim)] + ["t", "re", "im"]
    vals = grid.values.ravel()
    with open(csv_path, "w", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for lo in range(0, vals.size, _TABLE_BLOCK_ROWS):
            rows = np.arange(lo, min(lo + _TABLE_BLOCK_ROWS, vals.size))
            block = vals[lo:lo + _TABLE_BLOCK_ROWS]
            taus = [a[i] for a, i in zip(grid.axes, np.unravel_index(rows, grid.values.shape))]
            _write_rows(fh, [*taus, np.broadcast_to(grid.dynamical_time, rows.shape),
                             block.real, block.imag])
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
