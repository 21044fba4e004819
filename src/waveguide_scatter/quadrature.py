"""Composite Gauss-Legendre quadrature with adaptive bisection.

All amplitude integrands in this package are piecewise smooth with
exponential decay, so two Gauss rules per panel plus bisection of
offending panels converges fast.  The rules have 7 and 15 nodes and
share only the midpoint; their difference is the error estimate.
Integrands must accept a numpy array of nodes and return an array
(complex allowed).

Semi-infinite integrals march geometrically growing panels until the
running tail stops contributing; callers pass a decay-scale hint so the
first panels resolve the fastest feature.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# march of integrate_semi_infinite: panel growth factor and panel budget
_GROWTH = 1.6
_MAX_PANELS = 400
# Gauss-Legendre order of the panels of integrate_2d_box
_BOX_ORDER = 12


@functools.cache
def _gl(order: int):
    return np.polynomial.legendre.leggauss(order)


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


def composite_gauss_legendre(edges: np.ndarray, order: int):
    """Gauss-Legendre nodes and weights of the given order on every panel.

    Panel k spans [edges[k], edges[k + 1]]; nodes and weights are
    concatenated panel by panel.
    """
    x, w = _gl(order)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * np.diff(edges)
    return ((mids[:, None] + halves[:, None] * x[None, :]).ravel(),
            (halves[:, None] * w[None, :]).ravel())


def gauss_legendre_nodes(order: int, a: float, b: float):
    """Gauss-Legendre nodes and weights mapped onto [a, b]."""
    return composite_gauss_legendre(np.array([a, b], dtype=float), order)


def _panel_pair(f, a: float, b: float):
    """(15-node value, |15-node - 7-node|) of the Gauss rules on one panel."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x7, w7 = _gl(7)
    x15, w15 = _gl(15)
    coarse = half * np.sum(w7 * np.asarray(f(mid + half * x7)))
    fine = half * np.sum(w15 * np.asarray(f(mid + half * x15)))
    return fine, abs(fine - coarse)


def integrate(f, a: float, b: float, spec: QuadratureSpec = DEFAULT_QUAD,
              panel_width: float | None = None) -> complex:
    """Integral of f over [a, b].

    ``panel_width`` seeds the initial subdivision; pass the shortest
    timescale of the integrand (the engine caps it at the interval
    length).  The worst panels are bisected until the summed error
    estimate meets abs_tol + rel_tol * |result|.
    """
    if b < a:
        raise ValueError("integration bounds must satisfy a <= b")
    if b == a:
        return 0.0 + 0.0j
    width = b - a
    if panel_width is None or panel_width <= 0:
        panel_width = width
    n0 = max(1, int(np.ceil(width / min(panel_width, width))))
    edges = np.linspace(a, b, n0 + 1)
    panels = []  # (a, b, value, err, depth)
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = _panel_pair(f, lo, hi)
        panels.append([lo, hi, val, err, 0])
    while True:
        total = sum(p[2] for p in panels)
        err_total = sum(p[3] for p in panels)
        tol = spec.abs_tol + spec.rel_tol * abs(total)
        if err_total <= tol:
            return total
        worst = max(range(len(panels)), key=lambda i: panels[i][3])
        lo, hi, _, err, depth = panels[worst]
        if depth >= spec.max_subdivisions:
            raise ConvergenceError(
                f"integral over [{a:g}, {b:g}] did not converge", err_total)
        mid = 0.5 * (lo + hi)
        left = _panel_pair(f, lo, mid)
        right = _panel_pair(f, mid, hi)
        panels[worst] = [lo, mid, left[0], left[1], depth + 1]
        panels.append([mid, hi, right[0], right[1], depth + 1])


def integrate_semi_infinite(f, a: float, spec: QuadratureSpec = DEFAULT_QUAD,
                            scale: float = 1.0) -> complex:
    """Integral of f over [a, inf) for integrands decaying at rate ~1/scale.

    Marches panels of geometrically growing width; stops once several
    consecutive panels contribute negligibly relative to the running
    total.  The test is scale invariant so integrals of any absolute
    magnitude are resolved to the same relative accuracy; exact zeros
    only count once the march has covered several decay lengths, so a
    support that starts away from ``a`` is not mistaken for a tail.
    """
    if scale <= 0:
        raise ValueError("decay scale must be positive")
    total = 0.0 + 0.0j
    lo = a
    width = min(0.5, scale)
    quiet = 0
    reach = 0.0
    for _ in range(_MAX_PANELS):
        hi = lo + width
        part = integrate(f, lo, hi, spec, panel_width=width)
        total += part
        reach = hi - a
        negligible = abs(part) <= spec.rel_tol * abs(total)
        if negligible and (total != 0.0 or reach >= 8.0 * scale):
            quiet += 1
            if quiet >= 3:
                return total
        else:
            quiet = 0
        lo = hi
        width = min(width * _GROWTH, max(4.0 * scale, 2.0))
    raise ConvergenceError(
        f"semi-infinite integral from {a:g} kept contributing after "
        f"{_MAX_PANELS} panels", abs(part))


def integrate_2d_box(f, box1, box2, spec: QuadratureSpec = DEFAULT_QUAD,
                     panel_width: float | None = None,
                     max_nodes_per_axis: int = 1024) -> complex:
    """Tensor Gauss-Legendre integral over [a1,b1] x [a2,b2].

    ``f(T1, T2)`` must broadcast over meshes.  A fixed composite rule on
    both axes is compared against a once-refined rule; if the two differ
    beyond tolerance the refinement doubles, up to the subdivision budget.
    ``max_nodes_per_axis`` bounds the value mesh so a tolerance the
    integrand cannot meet fails fast instead of exhausting memory.
    """
    a1, b1 = box1
    a2, b2 = box2
    if b1 < a1 or b2 < a2:
        raise ValueError("box bounds must be ordered")
    if b1 == a1 or b2 == a2:
        return 0.0 + 0.0j

    def tensor(n_panels: int) -> complex:
        x1, w1 = composite_gauss_legendre(np.linspace(a1, b1, n_panels + 1), _BOX_ORDER)
        x2, w2 = composite_gauss_legendre(np.linspace(a2, b2, n_panels + 1), _BOX_ORDER)
        return complex(np.einsum("i,j,ij->", w1, w2, f(x1[:, None], x2[None, :])))

    if panel_width is None or panel_width <= 0:
        panel_width = max(b1 - a1, b2 - a2)
    n = max(1, int(np.ceil(max(b1 - a1, b2 - a2) / panel_width)))
    coarse = tensor(n)
    est = float("inf")
    for _ in range(spec.max_subdivisions):
        if 2 * n * _BOX_ORDER > max_nodes_per_axis:
            raise ConvergenceError(
                "2-D box integral hit the node budget before converging", est)
        n *= 2
        fine = tensor(n)
        est = abs(fine - coarse)
        if est <= spec.abs_tol + spec.rel_tol * abs(fine):
            return fine
        coarse = fine
    raise ConvergenceError("2-D box integral did not converge", est)
