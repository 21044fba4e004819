"""Reference computations for the benchmark checks.

Nothing here imports ``waveguide_scatter``: every reference value is
computed from the physics again, by a different route than the package
takes, so a check never compares the program with a copy of itself.

Units follow the package: time in atomic lifetimes, amplitude decay
rate 1, coupling 1 into each waveguide direction (total decay rate 2).
A photon of bandwidth ``g`` has the envelope sqrt(g) exp(-g t / 2).
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def envelope(t, gamma: float):
    """Exponential single-photon envelope, zero before t = 0."""
    t = np.asarray(t, dtype=float)
    return np.where(t >= 0.0, math.sqrt(gamma) * np.exp(-0.5 * gamma * np.maximum(t, 0.0)), 0.0)


def kernel_h(tau_i, tau_prev, gamma: float):
    """Memory integral of the envelope over the window (tau_prev, tau_i].

    K = integral exp(-(tau_i - s)) sqrt(g) exp(-g s / 2) ds, written as
    sqrt(g) exp(-tau_i + tau_prev x) expm1((tau_i - tau_prev) x) / x with
    x = 1 - g/2, which stays accurate through the matched point x = 0.
    """
    ti = np.asarray(tau_i, dtype=float)
    tp = np.asarray(tau_prev, dtype=float)
    x = 1.0 - 0.5 * gamma
    span = ti - tp
    factor = span if x == 0.0 else np.expm1(span * x) / x
    out = math.sqrt(gamma) * np.exp(-ti + tp * x) * factor
    return float(out) if out.ndim == 0 else out


def reversal_probability(n: int, gamma: float) -> float:
    """Full-reversal probability of n identical photons, as a plain product.

    n! * prod_{m=0}^{n-1} 4 / ((1 + m)(2 + m g)(2 + g + 2 m g)).
    """
    value = float(math.factorial(n))
    for m in range(n):
        value *= 4.0 / ((1.0 + m) * (2.0 + m * gamma) * (2.0 + gamma + 2.0 * m * gamma))
    return value


def _time_steps(times, max_step: float):
    """Yield (t0, dt, count) legs of a fixed-step march hitting every time."""
    prev = 0.0
    for t in times:
        if t < prev:
            raise ValueError("times must be ascending and >= 0")
        count = max(1, int(math.ceil((t - prev) / max_step))) if t > prev else 0
        yield prev, ((t - prev) / count if count else 0.0), count
        prev = t


def rk4_one_photon(gamma: float, times, max_step: float = 1e-3) -> np.ndarray:
    """Excited population for one photon, by fixed-step RK4.

    Steps db/dt = -b - xi(t) from b(0) = 0 and returns |b|^2 at each of
    the ascending ``times``.
    """
    root = math.sqrt(gamma)

    def rhs(t, b):
        return -b - root * math.exp(-0.5 * gamma * t)

    out = []
    b = 0.0
    for t0, dt, count in _time_steps(times, max_step):
        t = t0
        for _ in range(count):
            k1 = rhs(t, b)
            k2 = rhs(t + 0.5 * dt, b + 0.5 * dt * k1)
            k3 = rhs(t + 0.5 * dt, b + 0.5 * dt * k2)
            k4 = rhs(t + dt, b + dt * k3)
            b += dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
            t += dt
        out.append(b * b)
    return np.array(out)


def fock_excitation(modes, times, max_step: float = 4e-3) -> np.ndarray:
    """Excited population under Fock-state drives, by the master-equation hierarchy.

    ``modes`` lists one ``(gamma, photons)`` pair per input direction; each
    direction couples to the atom with amplitude 1 through L = sigma_minus.
    The hierarchy of Baragiola et al., PRA 86, 013811 (2012), generalised
    to independent channels, reads

        d rho_{m,n} = sum_c D[L] rho_{m,n}
                      + sum_c sqrt(m_c) xi_c [rho_{m-e_c,n}, L^dag]
                      + sum_c sqrt(n_c) xi_c^* [L, rho_{m,n-e_c}],

    with two decay channels (right and left) whatever the drive, and
    rho_{m,n}(0) = delta_{mn} |g><g|.  The physical state is rho_{N,N}.
    Stepped by fixed-step RK4; returns <e|rho_{N,N}|e> at ``times``.
    """
    counts = [int(n) for _, n in modes]
    index = list(itertools.product(*(range(n + 1) for n in counts)))
    pos = {m: k for k, m in enumerate(index)}
    size = len(index)
    lowering = []
    for c in range(len(modes)):
        mat = np.zeros((size, size))
        for a, m in enumerate(index):
            if m[c] > 0:
                src = list(m)
                src[c] -= 1
                mat[a, pos[tuple(src)]] = math.sqrt(m[c])
        lowering.append(mat)
    sm = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|, basis (g, e)
    sp = sm.conj().T
    ee = sp @ sm
    roots = [math.sqrt(g) for g, _ in modes]
    rates = [0.5 * g for g, _ in modes]

    def rhs(t, rho):
        # two output directions, each with coupling 1
        out = 2.0 * (sm @ rho @ sp - 0.5 * (ee @ rho + rho @ ee))
        up = rho @ sp - sp @ rho
        down = sm @ rho - rho @ sm
        for c in range(len(modes)):
            xi = roots[c] * math.exp(-rates[c] * t)
            out += xi * np.einsum("ab,bnij->anij", lowering[c], up)
            out += xi * np.einsum("ab,mbij->maij", lowering[c], down)
        return out

    rho = np.zeros((size, size, 2, 2), dtype=complex)
    for a in range(size):
        rho[a, a, 0, 0] = 1.0
    full = pos[tuple(counts)]
    out = []
    for t0, dt, count in _time_steps(times, max_step):
        t = t0
        for _ in range(count):
            k1 = rhs(t, rho)
            k2 = rhs(t + 0.5 * dt, rho + 0.5 * dt * k1)
            k3 = rhs(t + 0.5 * dt, rho + 0.5 * dt * k2)
            k4 = rhs(t + dt, rho + dt * k3)
            rho = rho + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
            t += dt
        out.append(rho[full, full, 1, 1].real)
    return np.array(out)


def pair_channels(tau1, tau2, t: float, gamma: float) -> dict:
    """Output channels of two identical right-moving photons, |2_xi>.

    Written as the linear beam-splitter picture plus the saturation
    correction: each photon is transmitted, xi - h, or reversed, -h,
    and B = -exp(-|tau2 - tau1|) h(min)^2 removes the histories in which
    both absorptions precede the earlier emission.  Emissions after the
    observation time t are gated off.  LL and RR carry the 1/sqrt(2) of
    identical slots, RL is the distinguishable split channel.
    """
    t1 = np.asarray(tau1, dtype=float)
    t2 = np.asarray(tau2, dtype=float)
    g1 = (t1 <= t).astype(float)
    g2 = (t2 <= t).astype(float)
    h1 = g1 * kernel_h(t1, 0.0 * t1, gamma)
    h2 = g2 * kernel_h(t2, 0.0 * t2, gamma)
    x1 = envelope(t1, gamma)
    x2 = envelope(t2, gamma)
    lo = np.minimum(t1, t2)
    hl = kernel_h(lo, 0.0 * lo, gamma)
    corr = -g1 * g2 * np.exp(-np.abs(t2 - t1)) * hl * hl
    return {
        "LL": h1 * h2 + corr,
        "RL": math.sqrt(2.0) * ((x1 - h1) * (-h2) + corr),
        "RR": (x1 - h1) * (x2 - h2) + corr,
    }


def _conv_closed(s, gamma: float):
    """integral r(w) r(s - w) m(w) m(s - w) dw by residues in the upper half plane.

    r(w) m(w) = A / ((w + i)(w + i g/2)) with A^2 = g / 2 pi; the two
    upper-half-plane poles of the reflected factor sum to
    -2 i g / ((s + i(1 + g/2))(s + 2i)(s + i g)).
    """
    s = np.asarray(s, dtype=float)
    return -2j * gamma / ((s + 1j * (1.0 + 0.5 * gamma)) * (s + 2j) * (s + 1j * gamma))


def freq_pair_channels(w1, w2, gamma: float) -> dict:
    """Frequency-side output channels of two identical exponential photons.

    Single-photon coefficients r = -i/(w + i), t = w/(w + i) act on the
    Lorentzian pair line, plus the bound-state term (r1 + r2) conv / 2 pi
    of Shen & Fan, PRA 76, 062709 (2007), with the convolution in closed
    form.
    """
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    amp = math.sqrt(gamma / (2.0 * math.pi))
    m1 = amp / (0.5 * gamma - 1j * w1)
    m2 = amp / (0.5 * gamma - 1j * w2)
    r1, r2 = -1j / (w1 + 1j), -1j / (w2 + 1j)
    tr1, tr2 = 1.0 + r1, 1.0 + r2
    pair = m1 * m2
    bound = (r1 + r2) * _conv_closed(w1 + w2, gamma) / (2.0 * math.pi)
    return {
        "LL": r1 * r2 * pair + bound,
        "RL": math.sqrt(2.0) * (tr1 * r2 * pair + bound),
        "RR": tr1 * tr2 * pair + bound,
    }


def trapezoid_weights(axis: np.ndarray) -> np.ndarray:
    """Trapezoid weights on a uniform axis."""
    step = float(axis[1] - axis[0])
    w = np.full(axis.size, step)
    w[0] = w[-1] = 0.5 * step
    return w


def trapezoid_norm(values: np.ndarray, axis: np.ndarray) -> float:
    """2-D trapezoid sum of |values|^2 on axis x axis."""
    w = trapezoid_weights(axis)
    return float(np.einsum("i,j,ij->", w, w, np.abs(values) ** 2))


def sig12_tolerance(values) -> np.ndarray:
    """Half a unit in the 12th significant digit of each value."""
    mag = np.abs(np.asarray(values, dtype=float))
    exp10 = np.floor(np.log10(np.maximum(mag, 1e-300)))
    return 0.5 * 10.0 ** (exp10 - 11.0)
