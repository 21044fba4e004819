"""Atomic-memory kernel: exponentially weighted absorption integrals.

The atom re-emits at time b what it absorbed over a window (a, b], each
absorption weighted by the decayed memory exp(-(b - t)).  Everything in
the time-domain method reduces to the window integrals

    K(p; a, b) = integral_a^b exp(-(b - t)) p(t) dt = K_p(b) - exp(a - b) K_p(a)

of the memory-weighted absorption K_p(x) = K(p; 0, x): for any profile
a rank-two split into functions of each end, which the grid fill of
``amplitudes`` reads off K_p on each axis.  ``_window_kernel`` owns them
all: ``h_closed_form`` for the exponential envelope sqrt(g) exp(-t g / 2),
and for any other profile one table of K_p at its cell nodes, built once
per (profile, quad) by the recurrence ``_node_sums``; a query adds its
partial cell to its node's value, so it depends on its own window only.
A sampled profile's cells (its sample intervals) are closed form for its
linear interpolant (``_cell_weights``), so its table is exact; its values
may carry leading axes, photons side by side on one grid (the terms of a
correlated pair's decomposition), whose tables come from one recurrence
and whose queries locate each node once for all of them.  A callable
profile's cells are min(0.5, timescale) wide, tabulated in one
vector-valued ``integrate``, with partial cells by the fixed 15-node
Kronrod rule.

The closed form's quotient by 1 - g/2 is written without cancellation,
so the matched bandwidth g = 2, where the pulse and memory decay rates
coincide, needs no branch of its own.

The kernel carries no emission sign; scattering amplitudes apply one
factor (-1) per emission exactly once.
"""

from __future__ import annotations

import math
import weakref

import numpy as np

from .model import PulseProfile, check_bandwidth
from .quadrature import _MAX_PANELS, QuadratureSpec, _kronrod_rule, integrate

__all__ = ["h_closed_form", "weighted_h_norm_integral"]

# one absorption table per live profile, keyed by the quadrature spec
# (None for a sampled profile, whose table needs none)
_ABSORPTION_TABLES = weakref.WeakKeyDictionary()
# cells per tabulating integral: room for 64 panels each in the engine's budget
_TABLE_CELLS = _MAX_PANELS // 64


def _window_kernel(p: PulseProfile, hi, lo, quad: QuadratureSpec):
    """K(p; lo, hi) at broadcast window ends lo <= hi."""
    if p.is_exponential:
        return h_closed_form(hi, lo, p.gamma_bw)
    hi, lo = np.broadcast_arrays(np.asarray(hi, dtype=float), np.asarray(lo, dtype=float))
    if not lo.any():
        # K_p(0) is +0, so the difference would be K_p(hi) bit for bit
        return _absorbed(p, hi, quad)
    return _absorbed(p, hi, quad) - np.exp(lo - hi) * _absorbed(p, lo, quad)


def _absorbed(p: PulseProfile, x: np.ndarray, quad: QuadratureSpec) -> np.ndarray:
    """K_p(x) at every x, from the node at or below it (zero before the grid);
    the leading axes of a sampled profile's values lead the result."""
    grid, table = _table(p, quad)
    if p.kind != "sampled":
        # a callable's partial cell costs 15 envelope calls: each distinct x once
        shape = x.shape
        x, where = np.unique(x, return_inverse=True)
    k, k1, delta, width = _locate(grid, x)
    # before the grid delta < 0 and table[0] = 0: no decay, so no overflow
    value = np.exp(-np.maximum(delta, 0.0)) * table[..., k]
    if p.kind == "sampled":
        # x's part [g_k, x] of its cell (none off the grid), elementwise
        inside = (x >= grid[0]) & (x < grid[-1])
        alpha, beta = _cell_weights(np.where(inside, delta, 0.0), width)
        return value + alpha * p._values[..., k] + beta * p._values[..., k1]
    nodes, weights = _kronrod_rule()
    half = 0.5 * (x - grid[k])
    s = (grid[k] + half)[:, None] + half[:, None] * nodes
    value = value + half * ((np.exp(s - x[:, None]) * p.value(s)) @ weights[:, 0])
    return value[where.reshape(shape)]


def _table(p: PulseProfile, quad: QuadratureSpec):
    """(grid, K_p at its nodes) of a sampled or callable profile, built on first use."""
    tables = _ABSORPTION_TABLES.setdefault(p, {})
    key = None if p.kind == "sampled" else quad
    if key not in tables:
        if p.kind == "sampled":
            grid, widths = p._grid, np.diff(p._grid)
            alpha, beta = _cell_weights(widths, widths)
            # one row per cell: the leading value axes share the recurrence
            cells = np.moveaxis(alpha * p._values[..., :-1] + beta * p._values[..., 1:], -1, 0)
        else:
            grid = np.linspace(0.0, p.t_max, math.ceil(p.t_max / min(0.5, p.timescale)) + 1)
            cells = []
            # cell [g_c, g_c + h_c] mapped onto u in [0, 1], one component per cell
            for i in range(0, grid.size - 1, _TABLE_CELLS):
                edges = grid[i:i + _TABLE_CELLS + 1]
                g, h = edges[:-1, None], np.diff(edges)[:, None]
                cells.extend(integrate(lambda u: h * np.exp(h * (u - 1.0)) * p.value(g + h * u),
                                       0.0, 1.0, quad))
        table = _node_sums(grid, lambda c: cells[c], np.shape(cells)[1:])
        tables[key] = grid, np.ascontiguousarray(np.moveaxis(table, 0, -1))
    return tables[key]


def _node_sums(grid: np.ndarray, cell, shape=()) -> np.ndarray:
    """The decaying cell recurrence v(g_0) = 0, v(g_c+1) = exp(-h_c) v(g_c) + cell(c)."""
    out = np.zeros((grid.size, *shape), dtype=complex)
    decay = np.exp(-np.diff(grid))
    for c in range(grid.size - 1):
        out[c + 1] = decay[c] * out[c] + cell(c)
    return out


def _cell_weights(delta, width):
    """Weights on the hats phi_k, phi_k+1 of a cell of the given width of
    int_{g_k}^{g_k + delta} exp(-(g_k + delta - s)) phi(s) ds: with
    E = 1 - exp(-delta), beta = (delta - E) / width and alpha = E - beta."""
    beta = (delta + np.expm1(-delta)) / width
    return -np.expm1(-delta) - beta, beta


def _locate(grid: np.ndarray, x):
    """The last node k at or below x (node 0 before the grid), the node
    after it (k itself at the last node), x - g_k and the width of k's cell."""
    k = np.maximum(np.searchsorted(grid, x, side="right") - 1, 0)
    cell = np.minimum(k, grid.size - 2)
    return k, np.minimum(k + 1, grid.size - 1), x - grid[k], grid[cell + 1] - grid[cell]


def h_closed_form(tau_i, tau_prev, gamma_bw: float):
    """Closed form of K for the exponential envelope.

    h(tau_i, tau_prev; g) = sqrt(g) (exp(-tau_i g / 2)
                            - exp(-tau_i + tau_prev x)) / x,   x = 1 - g/2,

    evaluated without cancellation: with d = tau_i - tau_prev,

        h = sqrt(g) exp(-tau_i + x tau_prev + max(x, 0) d) d phi(|x| d),
        phi(z) = -expm1(-z) / z,   phi(0) = 1,

    whose exponent is -tau_i g / 2 for g < 2 and -tau_i + x tau_prev
    otherwise, never positive.  At the matched bandwidth g = 2 it is
    sqrt(2) d exp(-tau_i).  Vectorized over the two time arguments
    (gamma_bw is scalar).
    """
    check_bandwidth(gamma_bw)
    ti = np.asarray(tau_i, dtype=float)
    tp = np.asarray(tau_prev, dtype=float)
    if np.any(tp > ti):
        raise ValueError("h requires tau_prev <= tau_i")
    if np.any(tp < 0.0):
        raise ValueError("h requires tau_prev >= 0")
    out = _h(ti, tp, ti - tp, gamma_bw)
    return float(out) if out.ndim == 0 else out


def _h(ti: np.ndarray, tp: np.ndarray, d: np.ndarray, gamma_bw: float) -> np.ndarray:
    """``h_closed_form`` on float arrays, unchecked, with the span d = ti - tp
    from the caller, which may hold it on fewer points or without the rounding
    of the difference: for callers whose 0 <= tp <= ti and bandwidth hold by
    construction."""
    x = 1.0 - 0.5 * gamma_bw
    # d phi(|x| d) = -expm1(-|x| d) / |x|, and d itself at x = 0
    span = -np.expm1(-abs(x) * d) / abs(x) if x else d
    lead = np.exp(-0.5 * gamma_bw * ti) if x > 0.0 else np.exp(-ti + x * tp)
    return math.sqrt(gamma_bw) * lead * span


def weighted_h_norm_integral(m: int, gamma_bw: float, tau_prev: float) -> float:
    """integral_{tau_prev}^inf exp(-m g tau) |h(tau, tau_prev; g)|^2 dtau.

    Closed form:  4 exp(-(1+m) g tau_prev)
                  / ((1+m) (2 + m g) (2 + g + 2 m g)).

    The exponential weight is what the next-outer level of the nested
    reflection integral contributes, so these factors telescope into the
    closed-form reflection probability.
    """
    if m < 0:
        raise ValueError("weight index m must be >= 0")
    g = check_bandwidth(gamma_bw)
    if tau_prev < 0.0:
        raise ValueError("tau_prev must be >= 0")
    return (4.0 * math.exp(-(1 + m) * g * tau_prev)
            / ((1 + m) * (2.0 + m * g) * (2.0 + g + 2.0 * m * g)))
