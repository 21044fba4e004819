"""Atomic-memory kernel: exponentially weighted absorption integrals.

The atom re-emits at time b what it absorbed over a window (a, b], each
absorption weighted by the decayed memory exp(-(b - t)).  Everything in
the time-domain method reduces to integrals of the form

    K(profile; a, b) = integral_a^b exp(-(b - t)) profile(t) dt.

``kernel_convolve`` evaluates K by adaptive quadrature for any profile.
For the exponential envelope sqrt(g) exp(-t g / 2) the integral has the
closed form implemented by ``h_closed_form``; the two are kept as
independent routes and cross-checked in the tests.

The closed form degenerates at g = 2 where the pulse and memory decay
rates coincide.  Within GAMMA_DEGENERATE_TOL of that point a series
branch (constant plus linear term in 1 - g/2) takes over, keeping the
function continuous to well below 1e-6 across the switch.

The kernel carries no emission sign; scattering amplitudes apply one
factor (-1) per emission exactly once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import PulseProfile, check_bandwidth
from .quadrature import DEFAULT_QUAD, QuadratureSpec, integrate

__all__ = ["GAMMA_DEGENERATE_TOL", "KernelSpan", "h_closed_form", "kernel_convolve",
           "weighted_h_norm_integral"]

# Width of the series branch around the degenerate bandwidth g = 2.
GAMMA_DEGENERATE_TOL = 1e-6


@dataclass(frozen=True)
class KernelSpan:
    """Absorption window (start, end) in lifetime units."""
    start: float
    end: float

    def __post_init__(self):
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise ValueError(f"kernel span must be finite, got ({self.start!r}, {self.end!r})")
        if self.start < 0.0:
            raise ValueError("kernel spans live on t >= 0")
        if self.end < self.start:
            raise ValueError("kernel span must have end >= start")


def kernel_convolve(profile: PulseProfile, span: KernelSpan,
                    quad: QuadratureSpec = DEFAULT_QUAD) -> complex:
    """K(profile; span) by adaptive Gauss-Kronrod quadrature."""
    a, b = span.start, span.end
    if a == b:
        return 0.0 + 0.0j
    width = min(0.5, profile.timescale)

    def integrand(t):
        return np.exp(-(b - t)) * np.asarray(profile.value(t), dtype=complex)

    return integrate(integrand, a, b, quad, panel_width=width)


def h_closed_form(tau_i, tau_prev, gamma_bw: float):
    """Closed form of K for the exponential envelope.

    h(tau_i, tau_prev; g) = sqrt(g) (exp(-tau_i g / 2)
                            - exp(-tau_i + tau_prev (1 - g/2))) / (1 - g/2)

    Vectorized over the two time arguments (gamma_bw is scalar).  At the
    degenerate point g = 2 the quotient is replaced by its limit plus the
    first series correction,

        sqrt(g) exp(-tau_i) [ (tau_i - tau_prev)
                              + (1 - g/2)(tau_i^2 - tau_prev^2)/2 ],

    which matches the generic branch to O((1 - g/2)^2) and keeps the
    switch at |1 - g/2| = GAMMA_DEGENERATE_TOL continuous.
    """
    check_bandwidth(gamma_bw)
    ti = np.asarray(tau_i, dtype=float)
    tp = np.asarray(tau_prev, dtype=float)
    if np.any(tp > ti):
        raise ValueError("h requires tau_prev <= tau_i")
    if np.any(tp < 0.0):
        raise ValueError("h requires tau_prev >= 0")
    x = 1.0 - 0.5 * gamma_bw
    root = math.sqrt(gamma_bw)
    if abs(x) < GAMMA_DEGENERATE_TOL:
        out = root * np.exp(-ti) * ((ti - tp) + 0.5 * x * (ti * ti - tp * tp))
    else:
        out = root * (np.exp(-0.5 * gamma_bw * ti) - np.exp(-ti + tp * x)) / x
    if out.ndim == 0:
        return float(out)
    return out


def h_factor_terms(hi, lo, gamma_bw: float):
    """h(hi, lo; g) split into two products of one-time factors.

    Returns ((F1, G1), (F2, G2)), 1-D arrays with F on ``hi`` and G on
    ``lo``, such that h(hi[i], lo[j]) = F1[i] G1[j] + F2[i] G2[j] for
    every pair with lo[j] <= hi[i]; other pairs carry no meaning.  The
    generic branch writes exp(-hi + x lo) as exp(x r - hi) exp(x (lo - r))
    with the reference r at the end of ``lo`` that keeps G2 <= 1, so F2
    stays below exp(max(x, 0) (max lo - min hi)): callers keep that span
    short (their rows in blocks, their columns clamped into the kept
    range).  The degenerate branch splits its polynomial the same way.
    """
    g = check_bandwidth(gamma_bw)
    hi = np.asarray(hi, dtype=float)
    lo = np.asarray(lo, dtype=float)
    x = 1.0 - 0.5 * g
    root = math.sqrt(g)
    if abs(x) < GAMMA_DEGENERATE_TOL:
        decay = np.exp(-hi)
        return ((root * decay * (hi + 0.5 * x * hi * hi), np.ones_like(lo)),
                (-root * decay, lo + 0.5 * x * lo * lo))
    ref = float(np.max(lo)) if x > 0.0 else float(np.min(lo))
    return ((root / x * np.exp(-0.5 * g * hi), np.ones_like(lo)),
            (-root / x * np.exp(x * ref - hi), np.exp(x * (lo - ref))))


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
