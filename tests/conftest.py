"""Shared independent oracles for the test suite.

The excitation oracles step the driven-decay ODE and the Fock-state
master-equation hierarchy with fixed-step RK4, and the emission oracle
contracts the symmetrized wavefunction against the memory weights on a
dense tensor mesh; they share nothing with the code under test beyond
pulse-envelope evaluation.  The reference kernel provider integrates
the joint amplitude point by point with the package's adaptive engine
(1-D for S, a 2-D box for W), so it checks the window-kernel
factorization of product states and owes nothing to the providers.
The emitter amplitudes are read off any provider point by point, and a
sampled state's norm is its interpolant's, from the hat functions' mass
matrix.
"""

import math
from dataclasses import replace
from itertools import permutations

import numpy as np
from scipy.integrate import quad

from waveguide_scatter.model import Direction
from waveguide_scatter.quadrature import integrate, integrate_2d_box


def rk4_excitation(gamma_bw: float, t_end: float, n_steps: int = 20000):
    """Excited-state trace for a one-photon exponential drive.

    Integrates db/dt = -b - xi(t) with xi(t) = sqrt(G) exp(-G t / 2)
    from b(0) = 0 by classical fixed-step RK4 and returns (times, |b|^2)
    on the step grid.
    """
    def xi(t):
        return math.sqrt(gamma_bw) * math.exp(-0.5 * gamma_bw * t)

    def rhs(t, b):
        return -b - xi(t)

    dt = t_end / n_steps
    times = np.linspace(0.0, t_end, n_steps + 1)
    vals = np.empty(n_steps + 1)
    b = 0.0
    vals[0] = 0.0
    for i in range(n_steps):
        t = times[i]
        k1 = rhs(t, b)
        k2 = rhs(t + 0.5 * dt, b + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, b + 0.5 * dt * k2)
        k4 = rhs(t + dt, b + dt * k3)
        b = b + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        vals[i + 1] = b * b
    return times, vals


def _profile_overlap_quad(p, q, t_end: float = 120.0) -> complex:
    def integrand_re(t):
        return (np.conj(p.value(t)) * q.value(t)).real

    def integrand_im(t):
        return (np.conj(p.value(t)) * q.value(t)).imag

    re, _ = quad(integrand_re, 0.0, t_end, limit=300)
    im, _ = quad(integrand_im, 0.0, t_end, limit=300)
    return re + 1j * im


def brute_reflection_f0(times, profiles, order: int = 40) -> complex:
    """Tensor-quadrature oracle for the fully reflected amplitude.

    Evaluates the nested windowed emission integral as a dense N-D
    Gauss-Legendre sum over the symmetrized product wavefunction, with
    the permanent normalization computed from pairwise overlaps.
    """
    times = sorted(float(t) for t in times)
    n = len(times)
    windows = [(0.0, times[0])]
    windows += [(times[i], times[i + 1]) for i in range(n - 1)]
    x, wgt = np.polynomial.legendre.leggauss(order)
    nodes, weights = [], []
    for (a, b) in windows:
        nodes.append(0.5 * (a + b) + 0.5 * (b - a) * x)
        weights.append(0.5 * (b - a) * wgt)
    mesh = np.meshgrid(*nodes, indexing="ij")
    kern = np.ones_like(mesh[0])
    for i in range(n):
        kern = kern * np.exp(-(times[i] - mesh[i]))
    sym = np.zeros_like(mesh[0], dtype=complex)
    for perm in permutations(range(n)):
        term = np.ones_like(mesh[0], dtype=complex)
        for slot, k in enumerate(perm):
            term = term * profiles[k].value(mesh[slot])
        sym = sym + term
    wt = np.ones_like(mesh[0])
    for i in range(n):
        shape = [1] * n
        shape[i] = -1
        wt = wt * weights[i].reshape(shape)
    gram = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            if profiles[i] is profiles[j]:
                gram[i, j] = 1.0
            else:
                gram[i, j] = _profile_overlap_quad(profiles[i], profiles[j])
    perm_g = 0.0 + 0.0j
    for perm in permutations(range(n)):
        prod = 1.0 + 0.0j
        for i, j in enumerate(perm):
            prod *= gram[i, j]
        perm_g += prod
    sign = (-1.0) ** n
    raw = complex(np.sum(wt * kern * sym))
    return sign * raw / math.sqrt(abs(perm_g)) / math.sqrt(math.factorial(n))


def exponential_envelope(gamma_bw: float):
    """xi(t) = sqrt(G) exp(-G t / 2), the exponential photon as a scalar callable."""
    return lambda t: math.sqrt(gamma_bw) * math.exp(-0.5 * gamma_bw * t)


def fock_excitation(envelope, n_photons: int, times, max_step: float = 4e-3):
    """Excited population under an n-photon Fock drive, by the master-equation hierarchy.

    The hierarchy of Baragiola et al., PRA 86, 013811 (2012), for one
    right-moving mode xi(t) = envelope(t) (a real scalar callable) with
    coupling 1 and two decay directions with coupling 1 each:

        d rho_{m,n} = 2 D[s] rho_{m,n} + sqrt(m) xi [rho_{m-1,n}, s+]
                      + sqrt(n) xi [s, rho_{m,n-1}],

    with rho_{m,n}(0) = delta_{mn} |g><g|, stepped by fixed-step RK4 from
    0 through the ascending ``times``; returns <e|rho_{N,N}|e> there.
    """
    sm = np.array([[0.0, 1.0], [0.0, 0.0]])  # |g><e| in the basis (g, e)
    sp = sm.T
    ee = sp @ sm
    root = np.sqrt(np.arange(n_photons + 1.0))

    def rhs(t, rho):
        xi = envelope(t)
        out = 2.0 * (sm @ rho @ sp - 0.5 * (ee @ rho + rho @ ee))
        up = rho @ sp - sp @ rho
        down = sm @ rho - rho @ sm
        out[1:] += xi * root[1:, None, None, None] * up[:-1]
        out[:, 1:] += xi * root[None, 1:, None, None] * down[:, :-1]
        return out

    rho = np.zeros((n_photons + 1, n_photons + 1, 2, 2))
    rho[np.arange(n_photons + 1), np.arange(n_photons + 1), 0, 0] = 1.0
    t, out = 0.0, []
    for target in times:
        steps = max(1, math.ceil((target - t) / max_step))
        dt = (target - t) / steps
        for _ in range(steps):
            k1 = rhs(t, rho)
            k2 = rhs(t + 0.5 * dt, rho + 0.5 * dt * k1)
            k3 = rhs(t + 0.5 * dt, rho + 0.5 * dt * k2)
            k4 = rhs(t + dt, rho + dt * k3)
            rho = rho + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
            t += dt
        t = target
        out.append(rho[n_photons, n_photons, 1, 1])
    return np.array(out)


def _pointwise(func, gate, *args) -> np.ndarray:
    """func(*args) at every point where gate is open, zero elsewhere."""
    gate, *args = np.broadcast_arrays(gate, *args)
    out = np.zeros(gate.shape, dtype=complex)
    flat = out.reshape(-1)
    for i in np.flatnonzero(gate):
        flat[i] = func(*(float(a.flat[i]) for a in args))
    return out


def _pair_with_spectator(w, d, s, tau_b):
    """Amplitude for extracting one photon at s with a d-mover left at tau_b."""
    if d is Direction.RIGHT:
        return math.sqrt(2.0) * w.component(2, (tau_b, s)) + w.component(1, (tau_b, s))
    return w.component(1, (s, tau_b)) + math.sqrt(2.0) * w.component(0, (s, tau_b))


def _double_extraction(w, s1, s2):
    """Amplitude for extracting both photons at (s1, s2); symmetric."""
    return (math.sqrt(2.0) * w.component(0, (s1, s2))
            + w.component(1, (s1, s2)) + w.component(1, (s2, s1))
            + math.sqrt(2.0) * w.component(2, (s1, s2)))


class QuadratureKernels:
    """Reference S and W of a two-photon state by adaptive quadrature, point by point.

    S integrates the joint amplitude with its spectator left behind
    (``_pair_with_spectator``) over [0, tau_emit], one ``integrate`` call
    per point, and W the joint extraction amplitude (``_double_extraction``)
    over its two windows, one ``integrate_2d_box`` call per point.  Same
    interface as the package's providers.
    """

    def __init__(self, w, quad_spec):
        self._w = w
        # driving the engine far below the data resolution h^2 / 8 of an
        # interpolated state burns panels without gaining accuracy
        grids = ([w.grid] if w.kind == "correlated2" else
                 [p._grid for p, _ in w.entries if p.kind == "sampled"])
        h = max((float(np.max(np.diff(g))) for g in grids), default=0.0)
        floor = h * h / 8.0
        self._quad = quad_spec
        if quad_spec.rel_tol < floor:
            self._quad = replace(quad_spec, rel_tol=floor,
                                 abs_tol=max(quad_spec.abs_tol, floor * 1e-3))
        # a sampled pair's grid step is a resolution, not a feature scale
        self._width = min(0.5, w.min_timescale * (8.0 if w.kind == "correlated2" else 1.0))

    def _emit_with_spectator(self, d, tau_emit: float, tau_spec: float) -> complex:
        def integrand(s):
            return np.exp(-(tau_emit - s)) * _pair_with_spectator(self._w, d, s, tau_spec)
        return -integrate(integrand, 0.0, tau_emit, self._quad, panel_width=self._width)

    def spectator(self, d, tau_emit, tau_spec, gate):
        return _pointwise(lambda a, b: self._emit_with_spectator(d, a, b),
                          gate, tau_emit, tau_spec)

    def _double_window(self, lo1, hi1, lo2, hi2) -> complex:
        def integrand(t1, t2):
            return (np.exp(-(hi1 - t1)) * np.exp(-(hi2 - t2))
                    * _double_extraction(self._w, t1, t2))
        return integrate_2d_box(integrand, (lo1, hi1), (lo2, hi2), self._quad,
                                panel_width=self._width)

    def windows(self, lo1, hi1, lo2, hi2, gate):
        return _pointwise(self._double_window, gate, lo1, hi1, lo2, hi2)


def emitter_amplitudes(kernels, tau, t: float):
    """(right, left) emitter amplitudes at t with one photon out at tau.

    The photon out at tau is either the spectator, while the emitter
    holds the other one, or the first of the ordered chain (tau <= t,
    boundary included).  The emitter radiates into both directions with
    equal coupling, so the chain feeds both branches alike.
    """
    tau, t = np.broadcast_arrays(np.asarray(tau, dtype=float), t)
    chain = kernels.windows(0.0, tau, tau, t, tau <= t)
    return tuple(kernels.spectator(d, t, tau, True) + chain
                 for d in (Direction.RIGHT, Direction.LEFT))


def _hat_mass_matrix(grid) -> np.ndarray:
    """int phi_i phi_j of the hat functions on the grid: h/3 per adjacent cell
    on the diagonal, h/6 off it."""
    h = np.diff(grid)
    diagonal = np.zeros(grid.size)
    diagonal[:-1] += h / 3.0
    diagonal[1:] += h / 3.0
    return np.diag(diagonal) + np.diag(h / 6.0, 1) + np.diag(h / 6.0, -1)


def interpolant_norm_sq(w) -> float:
    """Norm^2 of a two-photon state's bilinear interpolant, Re sum conj(X) (M X M^T)
    over its component tensors X at the grid nodes.  A product state's sampled
    photons must share one grid; its tensors are its components there."""
    if w.kind == "correlated2":
        grid, tensors = w.grid, list(w.tensors.values())
    else:
        grid, = {tuple(p._grid) for p, _ in w.entries}
        grid = np.array(grid)
        mesh = np.meshgrid(grid, grid, indexing="ij")
        tensors = [np.asarray(w.component(n, mesh)) for n in range(3)]
    m = _hat_mass_matrix(grid)
    return sum(float(np.sum(np.conj(x) * (m @ x @ m.T)).real) for x in tensors)
