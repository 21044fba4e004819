"""Adaptive Gauss-Kronrod quadrature, one integrand call per round.

All amplitude integrands in this package are piecewise smooth with
exponential decay.  Each panel carries the 15-node Kronrod rule and the
7-node Gauss rule embedded in it (QUADPACK ``qk15``); their difference
is the panel's error estimate.  A round bisects the worst panels and
evaluates all their children in one call.  Integrands take a 1-D array
of nodes and return an array (complex allowed) whose last axis runs over
them; leading axes are components of a vector-valued integral.

Arrays of bounds are independent intervals whose first rounds share one
call.  Semi-infinite integrals march batches of stretches of panels
through them, vector integrands included; 2-D box integrals nest a
vector-valued inner integral in the outer one.  The composite Simpson
weights of uniformly sampled data (norms, overlaps, bridge end
stencils) live here too, in one table.
"""

from __future__ import annotations

import functools
import itertools
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


def _edges(a: float, b: float, n: int) -> np.ndarray:
    """np.linspace(a, b, n + 1) by its own arithmetic, without its call cost."""
    step = (b - a) / n
    # linspace's branch for a step that underflows to zero
    edges = (np.arange(n + 1) * step if step else np.arange(n + 1) / n * (b - a)) + a
    edges[-1] = b
    return edges


def _first_edges(a: float, b: float, panel_width) -> np.ndarray | None:
    """The first round's panel edges over [a, b]; None for b == a."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"integration bounds must be finite, got [{a!r}, {b!r}]")
    if b < a:
        raise ValueError("integration bounds must satisfy a <= b")
    if b == a:
        return None
    width = b - a
    if panel_width is None or panel_width <= 0:
        panel_width = width
    return _edges(a, b, max(1, math.ceil(width / min(panel_width, width))))


def integrate(f, a, b, spec: QuadratureSpec = DEFAULT_QUAD, panel_width=None):
    """Integral of f over [a, b]; for 1-D arrays a and b, over each [a[i], b[i]].

    ``panel_width`` seeds the initial subdivision; pass the shortest
    timescale of the integrand (the engine caps it at the interval
    length).  Each round bisects the fewest worst panels whose error
    estimates cover the excess over abs_tol + rel_tol * |result|; a
    vector result is measured by its largest component.

    Intervals given as arrays (with an array or one value of panel widths)
    are independent, and their values come back along the last axis.
    """
    # (np.ndim of a float makes an array of it)
    if not (isinstance(a, float) and isinstance(b, float)) and (np.ndim(a) or np.ndim(b)):
        return _integrate_each(f, a, b, spec, panel_width)
    edges = _first_edges(a, b, panel_width)
    if edges is None:
        return 0.0 + 0.0j
    lo, hi = edges[:-1], edges[1:]
    val, err = _gk15(f, lo, hi)
    depth = None  # bisections per panel, counted once a round refines
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
        if depth is None:
            depth = np.zeros(lo.size, dtype=int)
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


def _integrate_each(f, a, b, spec: QuadratureSpec, panel_width):
    """``integrate`` over each interval [a[i], b[i]], each value the one its
    interval takes alone, bit for bit, for an integrand that acts on each
    node by itself.

    The first rounds of all intervals of two or more panels go to one call
    of f (a block's rows sum as a lone call's do, but the product of a lone
    panel's one row sums in another order), and each run of intervals of
    one panel count is summed and tested as a block of rows.  An interval
    that meets its tolerance there is done; any other is taken by a call
    of its own."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    a, b = a.tolist(), b.tolist()
    widths = np.asarray(panel_width).tolist() if np.ndim(panel_width) else [panel_width] * len(a)
    edges = [_first_edges(*v) for v in zip(a, b, widths)]
    counts = [0 if e is None else e.size - 1 for e in edges]
    batch = [i for i, n in enumerate(counts) if n > 1]
    values = [None] * len(a)
    if batch:
        val, err = _gk15(f, np.concatenate([edges[i][:-1] for i in batch]),
                         np.concatenate([edges[i][1:] for i in batch]))
        start = 0
        for n, run in itertools.groupby(batch, key=counts.__getitem__):
            run = list(run)
            end = start + n * len(run)
            # each row sums as its lone call's panels do, and takes that call's test
            totals = val[..., start:end].reshape(val.shape[:-1] + (len(run), n)).sum(axis=-1)
            mags = np.abs(totals).reshape(-1, len(run)).max(axis=0)
            met = err[start:end].reshape(-1, n).sum(axis=-1) <= spec.abs_tol + spec.rel_tol * mags
            if len(run) == len(a) and met.all():  # every interval, in order
                return totals
            for k, i in enumerate(run):
                if met[k]:
                    values[i] = totals[..., k]
            start = end
    values = [integrate(f, a[i], b[i], spec, widths[i]) if v is None else v
              for i, v in enumerate(values)]
    return np.stack(np.broadcast_arrays(*values), axis=-1)


def integrate_semi_infinite(f, a: float, spec: QuadratureSpec = DEFAULT_QUAD,
                            scale: float = 1.0) -> complex:
    """Integral of f over [a, inf) for integrands decaying at rate ~1/scale.

    Marches stretches of _STRETCH_PANELS panels whose width starts at
    min(0.5, scale) and doubles up to max(4 scale, 2); stops once several
    consecutive stretches contribute negligibly relative to the running
    total, for a vector integrand every component relative to its own.
    The test is scale invariant so integrals of any absolute magnitude are
    resolved to the same relative accuracy; exact zeros only count once
    the march has covered several decay lengths, so a support that starts
    away from ``a`` is not mistaken for a tail.

    The stretches go to ``integrate`` in batches of 1, 2, 4, ... intervals
    (a batch of one as a scalar call) and are read in order, each as its
    own call would give it.  No batch
    runs past the stretch that starts ln(1 / rel_tol) decay lengths out
    and three more, the quiet run the stopping rule asks for of an
    integrand that decays at 1/scale and one to spare, while the march
    has not reached it.  A batch that raises is taken again one stretch at
    a time, so only a stretch the march reaches can fail it, with the
    error its own call raises.
    """
    if not math.isfinite(a):
        raise ValueError(f"lower limit must be finite, got {a!r}")
    if not (scale > 0 and math.isfinite(scale)):
        raise ValueError(f"decay scale must be finite and positive, got {scale!r}")
    reach, left = scale * math.log(1.0 / spec.rel_tol), 4
    for lo, _, _ in itertools.islice(_stretches(a, scale), _MAX_STRETCHES - left):
        if lo - a >= reach:
            break
        left += 1
    stretches = itertools.islice(_stretches(a, scale), _MAX_STRETCHES)
    total = part = None
    quiet, size = 0, 1
    while batch := list(itertools.islice(stretches, min(size, left) if left > 0 else size)):
        chunks = ((np.asarray(integrate(f, lo, hi, spec, panel_width=w))[..., None], [hi])
                  for lo, hi, w in batch)
        if len(batch) > 1:
            los, his, widths = zip(*batch)
            try:
                chunks = [(integrate(f, np.array(los), np.array(his), spec,
                                     panel_width=np.array(widths)), his)]
            except Exception:
                # f (or the engine) may fail past the stopping point: one stretch
                # at a time, the march stops or fails where its own calls would
                pass
        for parts, ends in chunks:
            if total is None:  # the march adds its first stretch to 0j
                total = np.zeros(parts.shape[:-1], dtype=complex)
            sums = np.cumsum(np.concatenate([total[..., None], parts], axis=-1), axis=-1)[..., 1:]
            # every component must be negligible against its own running total;
            # exact zeros count only once the march has gone 8 decay lengths
            quiet_now = np.abs(parts) <= spec.rel_tol * np.abs(sums)
            far = [hi - a >= 8.0 * scale for hi in ends]
            if not all(far):
                quiet_now &= (sums != 0.0) | np.array(far)
            for k, now in enumerate(quiet_now.reshape(-1, len(ends)).all(axis=0).tolist()):
                quiet = quiet + 1 if now else 0
                if quiet >= 3:
                    return sums[..., k][()]
            total, part = sums[..., -1], parts[..., -1]
        size, left = 2 * size, left - len(batch)
    raise ConvergenceError(
        f"semi-infinite integral from {a:g} kept contributing after "
        f"{_MAX_STRETCHES} stretches", float(np.max(np.abs(part))))


def _stretches(a: float, scale: float):
    """The march's stretches from a, without end: (lo, hi, panel width).  The
    panel width is the stretch's own share, so a rounded hi - lo never makes
    one more panel."""
    lo, width = a, min(0.5, scale)
    while True:
        hi = lo + _STRETCH_PANELS * width
        yield lo, hi, (hi - lo) / _STRETCH_PANELS
        lo, width = hi, min(2.0 * width, max(4.0 * scale, 2.0))


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
