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

The node integrals of one layer, shifted by their start times, run as
the components of one vector-valued engine call; the decay probe that
may cap the layer's span rides the first one, so a layer whose span is
not capped takes one call.  Each series is fitted by the cached inverse
of the Chebyshev-Vandermonde matrix at the nodes.  The two-photon
excitation and channel weights are fixed-rule sums over one axis of
emission times (``_axis``), with panel edges at every time asked for and
at a sampled state's nodes, so they are exact for its interpolant.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev, legendre

from . import amplitudes
# no caller here, but perfbench's tracer patches them: exp_pair_channel_values,
# h_closed_form and integrate
from .amplitudes import CHANNELS, exp_pair_channel_values  # noqa: F401
from .kernel import _h, _window_kernel, h_closed_form  # noqa: F401
from .model import WavepacketN, check_bandwidth
from .quadrature import DEFAULT_QUAD, QuadratureSpec, integrate  # noqa: F401
from .quadrature import integrate_semi_infinite

__all__ = ["ExcitationTrace", "ReflectionResult", "excitation_probability", "excitation_trace",
           "reflection_probability_closed", "reflection_probability_numeric",
           "unitarity_check_two_photon"]

_MAX_NUMERIC_PHOTONS = 20
# log layers: the series degrees tried in turn and the decay depth (in
# e-foldings) after which contributions are treated as spent
_CHEB_DEGREES = (8, 16, 32, 64)
_DECAY_FOLDINGS = 45.0
_LOG_FLOOR = 1e-300
# Gauss-Legendre nodes per panel of the two-photon axis: a ladder panel, and a
# sample cell of a state whose photons are all sampled, so linear on the cell
_PANEL_NODES = 10
_CELL_NODES = 6


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


def _excitation_values(times: np.ndarray, w: WavepacketN,
                       quad: QuadratureSpec) -> np.ndarray:
    if w.n_photons == 1:
        return np.abs(_window_kernel(w.entries[0][0], times, 0.0, quad)) ** 2
    # |R|^2 + |L|^2 summed over the re-emitted photon's time by the axis rule
    out, order = np.zeros(times.shape), np.argsort(times)
    if not times.size:
        return out
    x, weights, _, _ = _axis(w, times[order])
    for i0, right, left in amplitudes._emitter_blocks(w, times[order], x, quad):
        out[order[i0:i0 + len(right)]] = sum((a * a.conj()).real @ weights for a in (right, left))
    return out


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
    the sampled photon pairs they decompose into.  The one-photon value is
    the squared absorption kernel; the two-photon value traces out the photon
    that has already been re-emitted, by a fixed rule exact for a sampled
    state's interpolant, over its times up to the horizon plus 45 lifetimes.
    """
    return float(_excitation_values(_checked_times([t], w), w, quad)[0])


def excitation_trace(times, w: WavepacketN,
                     quad: QuadratureSpec = DEFAULT_QUAD) -> ExcitationTrace:
    """Excitation probability on an array of times.

    A two-photon trace reads the emitter amplitudes on one axis with an edge
    at every time; each value is :func:`excitation_probability`'s, to rounding.
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
    32 and 64 in turn; the first call also takes the decay probe, and
    only a span the probe caps is tabulated again at its own nodes.  The
    chord through the two end logs is kept apart from a series fitted to
    the rest (by the cached inverse of the Chebyshev-Vandermonde matrix at
    the nodes), so Clenshaw summation never carries logs of several
    hundred.  The first degree whose upper half of coefficients is at
    rounding level relative to the logs is kept, and the last one if none
    is.  Evaluations beyond the tabulated span return zero: the span is
    sized so the outer integrand has already decayed by ~exp(-45) there,
    and values past the representable range underflow anyway.
    """

    def __init__(self, evaluator, t_span: float):
        # probe the decay rate so the span can be capped before the layer
        # values underflow to exact zero; the probe rides the first tabulation
        probe_t = min(t_span, max(1e-3, 0.05 * t_span))
        head = evaluator(np.append(0.5 * t_span * (1.0 + _lobatto(_CHEB_DEGREES[0])[0]), probe_t))
        f0, f_probe, head = head[0], head[-1], head[:-1]
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
            if drop / rate_est < t_span:  # capped: tabulate again at the new nodes
                t_span, head = drop / rate_est, None
        self.t_span = float(t_span)
        for degree in _CHEB_DEGREES:
            x, fit = _lobatto(degree)
            nodes = 0.5 * self.t_span * (1.0 + x)
            logs = np.log(np.maximum(evaluator(nodes) if head is None else head, _LOG_FLOOR))
            head = None
            self._chord = np.array([logs[0] + logs[-1], logs[-1] - logs[0]]) / 2.0
            self._series = fit @ (logs - (self._chord[0] + self._chord[1] * x))
            tail = np.abs(self._series[degree // 2:]).max()
            if tail <= 8.0 * np.finfo(float).eps * np.abs(logs).max():
                break
        self._nodes = nodes
        self._logs = logs
        self.rate = max(0.0, (logs[0] - logs[-1]) / max(self.t_span, 1e-300))

    def _interp(self, tau: np.ndarray) -> np.ndarray:
        x = tau * (2.0 / self.t_span) - 1.0
        return self._chord[0] + self._chord[1] * x + chebyshev.chebval(x, self._series)

    def __call__(self, tau):
        tau = np.asarray(tau, dtype=float)
        inside = tau <= self.t_span
        if inside.all():
            return np.exp(self._interp(tau))
        out = np.zeros(tau.shape, dtype=float)
        out[inside] = np.exp(self._interp(tau[inside]))
        return out


@functools.cache
def _lobatto(degree: int):
    """Chebyshev-Lobatto points on [-1, 1] and the fit: values -> series coefficients."""
    x = -np.cos(np.pi * np.arange(degree + 1) / degree)
    return x, np.linalg.inv(chebyshev.chebvander(x, degree))


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
            h = _h(tau, tp, g)  # tau >= tp >= 0 by construction
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


@functools.cache
def _panel_rule(n: int):
    """n-node Gauss-Legendre nodes and weights on [-1, 1], and the in-panel
    triangle weights w_m S[m, k] and w_k S[k, m] of the integration matrix
    S[m, k] = int_{-1}^{x_m} l_k (Greengard, SIAM J. Numer. Anal. 28, 1071 (1991))."""
    gl_x, gl_w = legendre.leggauss(n)
    # l_k = sum_j (j + 1/2) w_k P_j(x_k) P_j, as the rule integrates l_k P_j exactly
    coef = (np.arange(n)[:, None] + 0.5) * legendre.legvander(gl_x, n - 1).T
    s = legendre.legvander(gl_x, n) @ legendre.legint(coef * gl_w, lbnd=-1)
    return gl_x, gl_w, s.T * gl_w, gl_w[:, None] * s


def _axis(w: WavepacketN, times: np.ndarray):
    """Nodes, weights, and each panel's node count and squared half-width, of the
    two-photon axis to min(max(t, horizon), horizon + _DECAY_FOLDINGS), t the last
    of the ascending times (past the horizon nothing is incoming and the memory
    decays at rate 1): _PANEL_NODES Gauss-Legendre nodes on panels min(0.25, scale
    / 2) wide, widening by 1.4 up to 1, with an edge at each time and sample node;
    a state of sampled photons has panels of _CELL_NODES on their grids' cells."""
    end = min(max(times[-1], w.horizon), w.horizon + _DECAY_FOLDINGS)
    width = min(0.25, 0.5 * min(1.0, w.min_timescale))
    edges = [0.0]
    while edges[-1] < end:
        edges.append(min(end, edges[-1] + width))
        width = min(1.0, width * 1.4)
    grids = ([w.grid] if w.kind == "correlated2" else
             [p._grid for p, _ in w.entries if p.kind == "sampled"])
    cells = grids if w.kind == "correlated2" or len(grids) == len(w.entries) else []
    for g in cells:
        edges = [e for e in edges if e < g[0] or e > g[-1]]
    edges = np.union1d(edges, np.concatenate([*grids, times[times <= end]]))
    halves = 0.5 * np.diff(edges)
    nodes = np.full(halves.size, _PANEL_NODES)
    for g in cells:
        nodes[(edges[:-1] >= g[0]) & (edges[1:] <= g[-1])] = _CELL_NODES
    rules = [_panel_rule(n) for n in nodes]
    half = np.repeat(halves, nodes)
    x = np.repeat(edges[:-1], nodes) + half * (1.0 + np.concatenate([r[0] for r in rules]))
    return x, half * np.concatenate([r[1] for r in rules]), nodes, halves ** 2


def _triangle_weights(w: WavepacketN, t: float):
    """The channel weights' axis x, through t (:func:`_axis`), and its row blocks
    (i0, upper, lower), whole panels within _BLOCK_ENTRIES entries, of the weights
    of the triangles row <= column and row > column: w_i w_j across panels and,
    exact at the equal-time kink, h^2 times a panel's triangle weights
    (:func:`_panel_rule`) inside one of half-width h."""
    x, weights, nodes, squares = _axis(w, np.array([t]))
    starts = np.concatenate([[0], np.cumsum(nodes)])
    panel = np.repeat(np.arange(nodes.size), nodes)
    most = amplitudes._BLOCK_ENTRIES // x.size

    def blocks():
        k0 = 0
        while k0 < nodes.size:
            k1 = max(k0 + 1, int(np.searchsorted(starts, starts[k0] + most, side="right")) - 1)
            rows = slice(starts[k0], starts[k1])
            across = np.outer(weights[rows], weights)
            upper = np.where(panel[rows, None] < panel, across, 0.0)
            lower = np.where(panel[rows, None] > panel, across, 0.0)
            for k in range(k0, k1):
                inside = (slice(starts[k] - starts[k0], starts[k + 1] - starts[k0]),
                          slice(starts[k], starts[k + 1]))
                upper[inside] += squares[k] * _panel_rule(nodes[k])[2]
                lower[inside] += squares[k] * _panel_rule(nodes[k])[3]
            yield starts[k0], upper, lower
            k0 = k1

    return x, blocks()


def _channel_weights(w: WavepacketN, t: float) -> dict:
    """The weight of each two-photon output channel at dynamical time t > 0, |A|^2
    over the square of the axis through t (past it the memory is spent); they sum
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
