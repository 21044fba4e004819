"""Detector-facing quantities built from the scattering amplitudes.

Three families live here:

* atomic excitation: probability that the emitter holds the excitation
  at a given dynamical time, for one- and two-photon drives;
* full-reversal probability for identical same-direction exponential
  trains (the closed-form product and an independent nested-quadrature
  route that never touches the product formula);
* output-norm bookkeeping that sums the two-photon channel weights as a
  unitarity check.

The nested-quadrature reversal route deliberately re-derives everything
from time-ordered integrals.  Each layer of the nest is tabulated at
Chebyshev-Lobatto points and kept as a Chebyshev series of its logs,
of the lowest degree in 8, 16, 32, 64 whose tail has decayed to
rounding (the layer functions are pure decaying exponentials, so their
logs are nearly linear and most layers stop at degree 8), which
turns an O(q^N) cost into O(N q^2).

Integrals that share a domain after a shift or an affine map run as the
components of one vector-valued engine call: the node integrals of one
layer (shifted by their start times), and the two-photon excitation at
a block of times (the stretch before the emission kink mapped onto
[0, 1], the one after it shifted to start at 0).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev, legendre

from . import amplitudes
# exp_pair_channel_values has no caller here, but perfbench's tracer
# patches observables.exp_pair_channel_values
from .amplitudes import (  # noqa: F401
    CHANNELS,
    _emitter_amplitudes,
    _PairKernels,
    _outer_spec,
    exp_pair_channel_values,
)
from .kernel import _window_kernel, h_closed_form
from .model import WavepacketN, check_bandwidth
from .quadrature import DEFAULT_QUAD, QuadratureSpec, integrate, integrate_semi_infinite

__all__ = [
    "ExcitationTrace",
    "ReflectionResult",
    "excitation_probability",
    "excitation_trace",
    "reflection_probability_closed",
    "reflection_probability_numeric",
    "unitarity_check_two_photon",
]

_MAX_NUMERIC_PHOTONS = 20
# log layers: the series degrees tried in turn and the decay depth (in
# e-foldings) after which contributions are treated as spent
_CHEB_DEGREES = (8, 16, 32, 64)
_DECAY_FOLDINGS = 45.0
_LOG_FLOOR = 1e-300
# times of one two-photon excitation integral, which bounds the
# temporaries of one integrand call
_TRACE_BLOCK = 32
# Gauss-Legendre nodes per panel of the two-photon channel weights' axis
_PANEL_NODES = 10


# ---------------------------------------------------------------------------
# atomic excitation


@dataclass
class ExcitationTrace:
    """Excitation probability sampled on a time axis."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.shape != self.values.shape or self.times.ndim != 1:
            raise ValueError("times and values must be matching 1-D arrays")

    @property
    def peak(self) -> tuple[float, float]:
        idx = int(np.argmax(self.values))
        return float(self.times[idx]), float(self.values[idx])


def _excitation_two(times: np.ndarray, w: WavepacketN,
                    quad: QuadratureSpec) -> np.ndarray:
    """Two-photon excitation at every time, each one component of one integral.

    The re-emitted photon's time tau is integrated per time t in two
    pieces split at the kink tau = t where the time-ordered chain
    switches on: tau = t u on [0, 1] (Jacobian t) before it, tau = t + u
    on [0, inf) after it.  t = 0 gives 0.
    """
    out = np.zeros(times.shape)
    live = times > 0.0
    if not np.any(live):
        return out
    kernels = _PairKernels(w, quad)
    outer = _outer_spec(w, quad)
    t = times[live][:, None]

    def weight(tau):
        right, left = _emitter_amplitudes(kernels, tau, t)
        return np.abs(right) ** 2 + np.abs(left) ** 2

    # the grid step of a sampled pair is a resolution, not a decay scale
    scale = 1.0 if w.kind == "correlated2" else min(1.0, w.min_timescale)
    before = integrate(lambda u: t * weight(t * u), 0.0, 1.0, outer,
                       panel_width=min(0.5, scale) / t.max())
    after = integrate_semi_infinite(lambda u: weight(t + u), 0.0, outer, scale=scale)
    out[live] = np.real(before + after)
    return out


def _excitation_values(times: np.ndarray, w: WavepacketN,
                       quad: QuadratureSpec) -> np.ndarray:
    if w.n_photons == 1:
        return np.abs(_window_kernel(w.entries[0][0], times, 0.0, quad)) ** 2
    # blocks of times bound the integrand's temporaries.  A shared mesh would
    # move values within a sampled photon's resolution floor: one time per call
    sampled = w.kind == "separable" and any(p.kind == "sampled" for p, _ in w.entries)
    block = 1 if sampled else _TRACE_BLOCK
    values = [_excitation_two(times[i:i + block], w, quad)
              for i in range(0, times.size, block)]
    return np.concatenate(values) if values else np.zeros(0)


def _checked_times(times, w: WavepacketN) -> np.ndarray:
    if w.n_photons not in (1, 2):
        raise ValueError("excitation probability supports 1 or 2 photons")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError("times must be a 1-D array")
    bad = times[~((times >= 0.0) & np.isfinite(times))]
    if bad.size:
        raise ValueError(f"time must be finite and >= 0, got {float(bad[0])!r}")
    return times


def excitation_probability(t: float, w: WavepacketN,
                           quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Probability that the emitter is excited at dynamical time t.

    Supports one- and two-photon product drives, whose photons enter
    through their window kernels, and two-photon correlated pairs, through
    the sampled photon pairs they decompose into, exact for their bilinear
    interpolant.  The one-photon value is the squared absorption kernel;
    the two-photon value traces out the photon that has already been re-emitted.
    """
    return float(_excitation_values(_checked_times([t], w), w, quad)[0])


def excitation_trace(times, w: WavepacketN,
                     quad: QuadratureSpec = DEFAULT_QUAD) -> ExcitationTrace:
    """Excitation probability on an array of times.

    Two-photon traces integrate blocks of times as the components of one
    vector-valued integral, except for a product state with a sampled
    photon, which takes one time per call (see ``_excitation_values``).
    """
    times = _checked_times(times, w)
    return ExcitationTrace(times=times, values=_excitation_values(times, w, quad))


# ---------------------------------------------------------------------------
# full-reversal probability for identical same-direction exponential trains


def reflection_probability_closed(n_photons: int, gamma_bw: float) -> float:
    """Closed-form full-reversal probability for an n-photon train.

    Product over emission layers, evaluated as a log-domain sum so deep
    suppression (large n, extreme bandwidth) cannot underflow stepwise.
    """
    if not (math.isfinite(n_photons) and n_photons >= 1 and n_photons == int(n_photons)):
        raise ValueError("photon number must be a positive integer")
    g = check_bandwidth(gamma_bw)
    n = int(n_photons)
    log_r = math.lgamma(n + 1)
    for m in range(n):
        log_r += math.log(4.0) - math.log(1.0 + m)
        log_r -= math.log(2.0 + m * g) + math.log(2.0 + g + 2.0 * m * g)
    return math.exp(log_r)


@dataclass(frozen=True)
class ReflectionResult:
    """Numeric reversal probability with its deviation from closed form."""

    n_photons: int
    gamma_bw: float
    numeric: float
    closed: float

    @property
    def abs_err(self) -> float:
        return abs(self.numeric - self.closed)


class _LogLayer:
    """Chebyshev series of the logs of a positive decaying layer.

    ``evaluator`` maps an array of times to the layer's values there.
    The logs are tabulated at Chebyshev-Lobatto points of degree 8, 16,
    32 and 64 in turn, and the chord through the two end logs is kept
    apart from a series fitted to the rest, so Clenshaw summation never
    carries logs of several hundred.  The first degree whose upper half
    of coefficients is at rounding level relative to the logs is kept,
    and the last one if none is.  Evaluations beyond the tabulated span
    return zero: the span is sized so the outer integrand has already
    decayed by ~exp(-45) there, and values past the representable range
    underflow anyway.
    """

    def __init__(self, evaluator, t_span: float):
        # probe the decay rate so the span can be capped before the
        # layer values underflow to exact zero
        probe_t = min(t_span, max(1e-3, 0.05 * t_span))
        f0, f_probe = evaluator(np.array([0.0, probe_t]))
        if not f0 > 0.0:
            raise RuntimeError("layer evaluated to a non-positive value at 0")
        while not f_probe > 0.0:  # an underflowed probe is fast decay, not none
            probe_t /= 8.0
            f_probe = evaluator(np.array([probe_t]))[0]
        rate_est = 0.0
        if probe_t > 0.0:
            rate_est = max(0.0, (math.log(f0) - math.log(f_probe)) / probe_t)
        if rate_est > 0.0:
            # a log drop of 500, or less where it would reach the log floor
            drop = min(500.0, math.log(f0) - math.log(_LOG_FLOOR))
            t_span = min(t_span, drop / rate_est)
        self.t_span = float(t_span)
        for degree in _CHEB_DEGREES:
            x = -np.cos(np.pi * np.arange(degree + 1) / degree)
            nodes = 0.5 * self.t_span * (1.0 + x)
            logs = np.log(np.maximum(evaluator(nodes), _LOG_FLOOR))
            self._chord = np.array([logs[0] + logs[-1], logs[-1] - logs[0]]) / 2.0
            rest = logs - chebyshev.chebval(x, self._chord)
            self._series = chebyshev.chebfit(x, rest, degree)
            tail = np.abs(self._series[degree // 2:]).max()
            if tail <= 8.0 * np.finfo(float).eps * np.abs(logs).max():
                break
        self._nodes = nodes
        self._logs = logs
        self.rate = max(0.0, (logs[0] - logs[-1]) / max(self.t_span, 1e-300))

    def _interp(self, tau: np.ndarray) -> np.ndarray:
        x = tau * (2.0 / self.t_span) - 1.0
        return chebyshev.chebval(x, self._chord) + chebyshev.chebval(x, self._series)

    def __call__(self, tau):
        tau = np.asarray(tau, dtype=float)
        out = np.zeros(tau.shape, dtype=float)
        inside = tau <= self.t_span
        if np.any(inside):
            out[inside] = np.exp(self._interp(tau[inside]))
        return out


def reflection_probability_numeric(n_photons: int, gamma_bw: float,
                                   quad: QuadratureSpec = DEFAULT_QUAD) -> ReflectionResult:
    """Full-reversal probability by nested time-ordered quadrature.

    Builds the emission nest from the innermost photon outward; each
    layer is an adaptive semi-infinite integral of the squared ordered
    kernel times the next layer, tabulated once and kept as a Chebyshev
    series of its logs.  The integrals of one tabulation share their
    domain after the shift u = tau - tau_prev and run as the components
    of one vector-valued integral.  Nothing here reuses the closed-form product.
    """
    if not 1 <= n_photons <= _MAX_NUMERIC_PHOTONS or n_photons != int(n_photons):
        raise ValueError(
            f"numeric route supports 1..{_MAX_NUMERIC_PHOTONS} photons")
    g = check_bandwidth(gamma_bw)
    n = int(n_photons)
    base_rate = min(2.0, g)

    def layer_integral(starts: np.ndarray, inner, rho: float) -> np.ndarray:
        tp = starts[:, None]

        def integrand(u):
            tau = tp + u
            h = h_closed_form(tau, tp, g)
            val = h * h
            if inner is not None:
                val = val * inner(tau)
            return val
        return integrate_semi_infinite(integrand, 0.0, quad, scale=1.0 / rho).real

    inner = None
    inner_rate = 0.0
    for level in range(n, 1, -1):
        rho = base_rate + inner_rate
        # span needed by the remaining outer integrals, each of which
        # reaches at most ~45 e-foldings past its own start
        t_need = (level - 1) * (_DECAY_FOLDINGS / base_rate + 2.0) + 5.0
        layer = _LogLayer(functools.partial(layer_integral, inner=inner, rho=rho), t_need)
        inner, inner_rate = layer, layer.rate
    numeric = math.factorial(n) * float(layer_integral(
        np.zeros(1), inner, base_rate + inner_rate)[0])
    closed = reflection_probability_closed(n, g)
    return ReflectionResult(n_photons=n, gamma_bw=g,
                            numeric=numeric, closed=closed)


# ---------------------------------------------------------------------------
# two-photon output-norm bookkeeping


def _triangle_weights(w: WavepacketN, t: float):
    """The channel weights' axis x and its row blocks (i0, upper, lower), whole
    panels within _BLOCK_ENTRIES entries, of the weights of the triangles row <=
    column and row > column.  Panels of _PANEL_NODES Gauss-Legendre nodes run to
    max(t, horizon), from min(0.25, scale / 2) wide and widening by 1.4 up to 1,
    with an edge at t, where the gates theta(t - tau) jump.  The weights are w_i
    w_j across panels and, exact at the equal-time kink, h^2 w_m S[m, k] (upper)
    or h^2 w_k S[k, m] (lower) inside one of half-width h, S[m, k] = int_{-1}^{x_m}
    l_k (Greengard, SIAM J. Numer. Anal. 28, 1071 (1991))."""
    end = max(t, w.horizon)
    width = min(0.25, 0.5 * min(1.0, w.min_timescale))
    edges = [0.0]
    while edges[-1] < end:
        edges.append(min(end, edges[-1] + width))
        width = min(1.0, width * 1.4)
    edges = np.union1d(edges, t)
    halves = 0.5 * np.diff(edges)
    gl_x, gl_w = legendre.leggauss(_PANEL_NODES)
    # l_k = sum_n (n + 1/2) w_k P_n(x_k) P_n, as the rule integrates l_k P_n exactly
    coef = (np.arange(_PANEL_NODES)[:, None] + 0.5) * legendre.legvander(gl_x, _PANEL_NODES - 1).T
    s = legendre.legvander(gl_x, _PANEL_NODES) @ legendre.legint(coef * gl_w, lbnd=-1)
    x = (edges[:-1, None] + halves[:, None] * (1.0 + gl_x)).ravel()
    weights = (halves[:, None] * gl_w).ravel()
    panel = np.arange(x.size) // _PANEL_NODES
    step = _PANEL_NODES * max(1, amplitudes._BLOCK_ENTRIES // (x.size * _PANEL_NODES))

    def blocks():
        for i0 in range(0, x.size, step):
            rows = slice(i0, i0 + step)
            across = np.outer(weights[rows], weights)
            squares = np.diag(halves[i0 // _PANEL_NODES:(i0 + step) // _PANEL_NODES] ** 2)
            upper = np.where(panel[rows, None] < panel, across, 0.0)
            upper[:, rows] += np.kron(squares, s.T * gl_w)
            lower = np.where(panel[rows, None] > panel, across, 0.0)
            lower[:, rows] += np.kron(squares, gl_w[:, None] * s)
            yield i0, upper, lower

    return x, blocks()


def _channel_weights(w: WavepacketN, t: float) -> dict:
    """The weight of each two-photon output channel at dynamical time t > 0, |A|^2
    over [0, max(t, horizon)]^2 (past it nothing is emitted or incoming); they sum
    to 1 - P_e(t).  A comes from the fill's factors in blocks of whole panels, as
    a block clamps its triangles' memory factors at its first and last rows."""
    x, blocks = _triangle_weights(w, t)
    out = dict.fromkeys(CHANNELS, 0.0)
    for i0, upper, lower in blocks:
        for ch in CHANNELS:
            scale, factors = amplitudes._pair_factors(w, ch, x[i0:i0 + len(upper)], x, t)
            for j0, (u, c_up), (l, c_low) in factors:
                rows = slice(j0, j0 + len(u))
                out[ch] += scale ** 2 * float(np.sum(upper[rows] * np.abs(u @ c_up) ** 2)
                                              + np.sum(lower[rows] * np.abs(l @ c_low) ** 2))
    return out


def unitarity_check_two_photon(w: WavepacketN, t: float | None = None) -> float:
    """Total weight of the three two-photon output channels at dynamical time t.

    ``t`` must be finite and > 0; by default it is the input's horizon.  At
    any such t the result is 1 - P_e(t) for a normalized two-photon input,
    P_e the :func:`excitation_probability`, so 1 once the emitter has relaxed.
    """
    if w.n_photons != 2:
        raise ValueError("unitarity check is defined for two-photon inputs")
    t_end = float(t) if t is not None else w.horizon
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise ValueError(f"t must be finite and > 0, got {t!r}")
    return sum(_channel_weights(w, t_end).values())
