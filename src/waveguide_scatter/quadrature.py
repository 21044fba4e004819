"""Adaptive Gauss-Kronrod quadrature, one integrand call per round.

All amplitude integrands in this package are piecewise smooth with
exponential decay.  Each panel carries the 15-node Kronrod rule and the
7-node Gauss rule embedded in it (QUADPACK ``qk15``); their difference
is the panel's error estimate.  A round bisects the worst panels and
evaluates all their children in one call.  Integrands take a 1-D array
of nodes and return an array (complex allowed) whose last axis runs over
them; leading axes are components of a vector-valued integral.

Semi-infinite integrals march stretches of panels through the same
loop, vector integrands included; 2-D box integrals nest a vector-valued
inner integral in the outer one.  The composite Simpson weights of
uniformly sampled data (norms, overlaps, bridge end stencils) live here
too, in one table.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ConvergenceError", "DEFAULT_QUAD", "QuadratureSpec", "integrate",
           "integrate_2d_box", "integrate_semi_infinite"]

# live panels (times components) of one integral; an integrand call
# then sees at most 15x this many points
_MAX_PANELS = 1 << 16
# march of integrate_semi_infinite: panels per stretch, stretch budget
_STRETCH_PANELS = 8
_MAX_STRETCHES = 100


@functools.cache
def _kronrod_rule():
    """Nodes on [-1, 1] and the (K15, K15 - G7) weight columns of qk15."""
    # QUADPACK qk15 nodes on [0, 1), outermost first, and their weights
    xgk = np.array([0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
                    0.7415311855993945, 0.5860872354676911, 0.4058451513773972,
                    0.20778495500789848, 0.0])
    wgk = np.array([0.022935322010529224, 0.06309209262997856, 0.10479001032225019,
                    0.14065325971552592, 0.1690047266392679, 0.19035057806478542,
                    0.20443294007529889, 0.20948214108472782])
    wk = np.concatenate([wgk, wgk[-2::-1]])
    wg = np.zeros(15)
    wg[1::2] = np.polynomial.legendre.leggauss(7)[1]  # the G7 nodes are every other K15 node
    return np.concatenate([-xgk, xgk[-2::-1]]), np.stack([wk, wk - wg], axis=1)


class ConvergenceError(RuntimeError):
    """Quadrature failed to reach tolerance within the subdivision budget."""

    def __init__(self, message: str, estimate: float):
        super().__init__(f"{message} (achieved error estimate {estimate:.3g})")
        self.estimate = estimate


@dataclass(frozen=True)
class QuadratureSpec:
    """Engine parameters shared by all quadrature-backed operations."""
    rel_tol: float = 1e-10
    abs_tol: float = 1e-13
    max_subdivisions: int = 50

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


DEFAULT_QUAD = QuadratureSpec()


def _simpson_segment(npts: int) -> np.ndarray:
    """Composite Simpson weights for npts >= 2 unit-spaced points.

    Odd cell counts get a 3/8 block on the leading three cells; a
    two-point segment degrades to trapezoid weights.
    """
    if npts == 2:
        return np.array([0.5, 0.5])
    w = np.zeros(npts)
    start = 0
    if (npts - 1) % 2 == 1:
        w[:4] += np.array([3.0, 9.0, 9.0, 3.0]) / 8.0
        start = 3
    m = npts - start
    if m >= 3:
        seg = np.zeros(m)
        seg[0] = 1.0 / 3.0
        seg[-1] = 1.0 / 3.0
        seg[1:-1:2] = 4.0 / 3.0
        seg[2:-1:2] = 2.0 / 3.0
        w[start:] += seg
    return w


def _gk15(f, lo: np.ndarray, hi: np.ndarray):
    """K15 values (components x panels) and per-panel |K15 - G7|, one call of f."""
    xk, wk = _kronrod_rule()
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi)[:, None] + half[:, None] * xk).ravel()
    y = np.asarray(f(x))
    if y.shape[-1:] != x.shape:  # a constant, or a value broadcast over the nodes
        y = np.broadcast_to(y, y.shape[:-1] + x.shape)
    rules = (y.reshape(y.shape[:-1] + (lo.size, 15)) @ wk) * half[:, None]
    return rules[..., 0], np.abs(rules[..., 1]).reshape(-1, lo.size).max(axis=0)


def integrate(f, a: float, b: float, spec: QuadratureSpec = DEFAULT_QUAD,
              panel_width: float | None = None):
    """Integral of f over [a, b].

    ``panel_width`` seeds the initial subdivision; pass the shortest
    timescale of the integrand (the engine caps it at the interval
    length).  Each round bisects the fewest worst panels whose error
    estimates cover the excess over abs_tol + rel_tol * |result|; a
    vector result is measured by its largest component.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"integration bounds must be finite, got [{a!r}, {b!r}]")
    if b < a:
        raise ValueError("integration bounds must satisfy a <= b")
    if b == a:
        return 0.0 + 0.0j
    width = b - a
    if panel_width is None or panel_width <= 0:
        panel_width = width
    edges = np.linspace(a, b, max(1, int(np.ceil(width / min(panel_width, width)))) + 1)
    lo, hi = edges[:-1], edges[1:]
    val, err = _gk15(f, lo, hi)
    depth = np.zeros(lo.size, dtype=int)
    while True:
        total = val.sum(axis=-1)
        err_total = err.sum()
        if not math.isfinite(err_total):
            raise ConvergenceError(
                f"integral over [{a:g}, {b:g}] has a non-finite error estimate", err_total)
        tol = spec.abs_tol + spec.rel_tol * abs(total).max()
        if err_total <= tol:
            return total
        order = np.argsort(-err, kind="stable")
        pick = order[:np.searchsorted(np.cumsum(err[order]), err_total - tol) + 1]
        if (depth[pick].max() >= spec.max_subdivisions
                or (lo.size + pick.size) * (val.size // lo.size) > _MAX_PANELS):
            raise ConvergenceError(f"integral over [{a:g}, {b:g}] did not converge", err_total)
        # left children replace their parents, right children go last
        mid = 0.5 * (lo[pick] + hi[pick])
        kids, kid_err = _gk15(f, np.concatenate([lo[pick], mid]), np.concatenate([mid, hi[pick]]))
        lo, hi = np.concatenate([lo, mid]), np.concatenate([hi, hi[pick]])
        hi[pick] = mid
        depth[pick] += 1
        depth = np.concatenate([depth, depth[pick]])
        val[..., pick], err[pick] = kids[..., :pick.size], kid_err[:pick.size]
        val = np.concatenate([val, kids[..., pick.size:]], axis=-1)
        err = np.concatenate([err, kid_err[pick.size:]])


def integrate_semi_infinite(f, a: float, spec: QuadratureSpec = DEFAULT_QUAD,
                            scale: float = 1.0) -> complex:
    """Integral of f over [a, inf) for integrands decaying at rate ~1/scale.

    Marches stretches of panels whose width starts at min(0.5, scale)
    and doubles up to max(4 scale, 2); stops once several consecutive
    stretches contribute negligibly relative to the running total, for
    a vector integrand every component relative to its own.  The test is
    scale invariant so integrals of any absolute magnitude are resolved
    to the same relative accuracy; exact zeros only count once the march
    has covered several decay lengths, so a support that starts away
    from ``a`` is not mistaken for a tail.
    """
    if not math.isfinite(a):
        raise ValueError(f"lower limit must be finite, got {a!r}")
    if not (scale > 0 and math.isfinite(scale)):
        raise ValueError(f"decay scale must be finite and positive, got {scale!r}")
    total = 0.0 + 0.0j
    lo, width, quiet = a, min(0.5, scale), 0
    for _ in range(_MAX_STRETCHES):
        hi = lo + _STRETCH_PANELS * width
        part = integrate(f, lo, hi, spec, panel_width=width)
        total += part
        # every component must be negligible against its own running total
        quiet_now = ((np.abs(part) <= spec.rel_tol * np.abs(total))
                     & ((total != 0.0) | (hi - a >= 8.0 * scale)))
        if np.all(quiet_now):
            quiet += 1
            if quiet >= 3:
                return total
        else:
            quiet = 0
        lo, width = hi, min(2.0 * width, max(4.0 * scale, 2.0))
    raise ConvergenceError(
        f"semi-infinite integral from {a:g} kept contributing after "
        f"{_MAX_STRETCHES} stretches", float(np.max(np.abs(part))))


def integrate_2d_box(f, box1, box2, spec: QuadratureSpec = DEFAULT_QUAD,
                     panel_width: float | None = None) -> complex:
    """Integral of f(T1, T2) over [a1,b1] x [a2,b2], iterated.

    ``f`` must broadcast a column of T1 nodes against a row of T2 nodes.
    The outer integral over T1 passes all nodes of a refinement round to
    one vector-valued inner integral over T2.
    """
    (a1, b1), (a2, b2) = box1, box2
    return integrate(lambda x: integrate(lambda y: f(x[:, None], y), a2, b2, spec, panel_width),
                     a1, b1, spec, panel_width)
