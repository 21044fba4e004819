"""Input-side model: pulse envelopes, photon wavepackets, initial states.

Conventions used throughout the package:

* Time is dimensionless, measured in units of the atomic lifetime.  All
  envelopes are causal: they vanish for t < 0 and are truncated at a
  finite horizon ``t_max`` chosen so that the lost norm is negligible.
* A single photon is described by a complex envelope xi(t) normalized to
  unit L2 norm, together with a propagation direction (right = incident
  from the left side of the atom, left = incident from the right side).
* An N-photon state decomposes into components labelled by the number
  ``n_right`` of right-moving photons.  Component ``n_right`` is a
  function of N times, symmetric separately in its first ``n_right``
  arguments (right-movers) and in the remaining ones (left-movers).
  With that block symmetry the total state norm is the sum of the
  component L2 norms, and a normalized state satisfies
  sum_n ||xi_n||^2 = 1.

Separable states store one (profile, direction) pair per photon and
evaluate components on demand, including the permanent-of-overlaps
normalization needed when profiles repeat or overlap.  Correlated
two-photon states store sampled component tensors on a rectangular grid
and interpolate bilinearly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from itertools import permutations
from typing import Callable, Sequence

import numpy as np

from .quadrature import _simpson_segment

__all__ = ["Direction", "InitialState", "NormalizationError", "PulseProfile",
           "WavepacketN", "default_horizon", "excited_atom", "profile_overlap",
           "wavepacket_from_json", "wavepacket_to_json"]

# Tolerance for "this state is normalized" checks.  Constructors accept an
# override because sampled data cannot do better than its own grid error.
DEFAULT_NORM_TOL = 1e-8


class NormalizationError(ValueError):
    """Raised when an envelope or state fails its unit-norm contract."""


class Direction(str, Enum):
    RIGHT = "right"
    LEFT = "left"


def _as_direction(d) -> "Direction":
    if isinstance(d, Direction):
        return d
    if isinstance(d, str):
        low = d.lower()
        if low in ("right", "r", "->"):
            return Direction.RIGHT
        if low in ("left", "l", "<-"):
            return Direction.LEFT
    raise ValueError(f"unknown propagation direction: {d!r}")


def check_bandwidth(gamma_bw) -> float:
    """The bandwidth as a float; ValueError unless it is finite and > 0."""
    if gamma_bw is None or not (gamma_bw > 0.0 and math.isfinite(gamma_bw)):
        raise ValueError(f"bandwidth must be finite and positive, got {gamma_bw!r}")
    return float(gamma_bw)


def default_horizon(gamma_bw: float) -> float:
    """Truncation horizon for an exponential pulse of bandwidth gamma_bw.

    max(20, 40/gamma) keeps the discarded tail norm below exp(-40) for
    slow pulses while never going under 20 lifetimes of atomic memory.
    """
    return max(20.0, 40.0 / gamma_bw)


class PulseProfile:
    """Single-photon envelope on [0, t_max].

    Three storage kinds:

    * ``exponential``: xi(t) = sqrt(gamma) * exp(-t * gamma / 2), the
      envelope whose kernel integrals have closed forms.
    * ``sampled``: values on a strictly increasing grid, linear
      interpolation in between, zero outside.  The values may carry
      leading axes: photons side by side on one grid, each checked
      against ``norm_tol`` (the terms of a correlated pair pass inf).
    * ``callable``: arbitrary closure, zero outside [0, t_max].
    """

    def __init__(self, kind: str, t_max: float, *, gamma_bw: float | None = None,
                 grid: np.ndarray | None = None, values: np.ndarray | None = None,
                 func: Callable | None = None, timescale: float | None = None,
                 norm_tol: float = DEFAULT_NORM_TOL):
        for name, value in (("t_max", t_max), ("timescale", timescale)):
            if value is not None and not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        self.kind = kind
        self.t_max = float(t_max)
        self.gamma_bw = gamma_bw
        self._grid = grid
        self._values = values
        self._func = func
        if kind == "exponential":
            check_bandwidth(gamma_bw)
            self.timescale = min(1.0, 1.0 / gamma_bw)
        elif kind == "sampled":
            if grid is None or values is None:
                raise ValueError("sampled profile needs grid and values")
            if grid.ndim != 1 or grid.shape != values.shape[-1:]:
                raise ValueError("grid must be 1-D and congruent with the values' last axis")
            if np.any(np.diff(grid) <= 0.0):
                raise ValueError("sample grid must be strictly increasing")
            if grid[0] < 0.0:
                raise ValueError("sample grid must start at t >= 0")
            self.timescale = timescale or max(float(np.min(np.diff(grid))), 1e-3)
            # the linear pieces, with a zero piece for points off the grid
            slopes = np.zeros(values.shape[:-1] + (grid.size + 1,), dtype=complex)
            slopes.real[..., :-2] = np.diff(values.real) / np.diff(grid)
            slopes.imag[..., :-2] = np.diff(values.imag) / np.diff(grid)
            self._pieces = np.append(values, np.zeros(values.shape[:-1] + (1,)), axis=-1), slopes
        elif kind == "callable":
            if func is None:
                raise ValueError("callable profile needs a closure")
            self.timescale = timescale or 1.0
        else:
            raise ValueError(f"unknown profile kind: {kind}")
        nsq = np.asarray(self.norm_sq())
        if not np.all(np.abs(nsq - 1.0) <= norm_tol):
            raise NormalizationError(
                f"profile norm^2 = {np.max(nsq):.12g}, off unity by more than {norm_tol:g}; "
                "extend t_max or renormalize the samples")

    # -- constructors ------------------------------------------------------

    @classmethod
    def exponential(cls, gamma_bw: float, t_max: float | None = None,
                    norm_tol: float = DEFAULT_NORM_TOL) -> "PulseProfile":
        """sqrt(gamma) * exp(-t gamma / 2), unit norm on [0, inf)."""
        check_bandwidth(gamma_bw)
        if t_max is None:
            t_max = default_horizon(gamma_bw)
        return cls("exponential", t_max, gamma_bw=gamma_bw, norm_tol=norm_tol)

    @classmethod
    def from_samples(cls, grid: Sequence[float], values: Sequence[complex],
                     norm_tol: float = DEFAULT_NORM_TOL) -> "PulseProfile":
        g = np.asarray(grid, dtype=float)
        v = np.asarray(values, dtype=complex)
        if g.size == 0:
            raise ValueError("sample grid is empty")
        return cls("sampled", float(g.flat[-1]), grid=g, values=v, norm_tol=norm_tol)

    @classmethod
    def from_callable(cls, func: Callable, t_max: float, timescale: float | None = None,
                      norm_tol: float = DEFAULT_NORM_TOL) -> "PulseProfile":
        return cls("callable", t_max, func=func, timescale=timescale, norm_tol=norm_tol)

    # -- evaluation --------------------------------------------------------

    @property
    def is_exponential(self) -> bool:
        return self.kind == "exponential"

    def value(self, t):
        """Envelope value(s); zero outside [0, t_max].  Vectorized."""
        t = np.asarray(t, dtype=float)
        inside = (t >= 0.0) & (t <= self.t_max)
        if self.kind == "exponential":
            out = np.where(inside,
                           math.sqrt(self.gamma_bw) * np.exp(-0.5 * self.gamma_bw * t),
                           0.0).astype(complex)
        elif self.kind == "sampled":
            # np.interp's value in the piece at or below t, photons along the leading axes
            g = self._grid
            on = (t >= g[0]) & (t <= g[-1])
            k = np.where(on, np.searchsorted(g, t, side="right") - 1, g.size)
            values, slopes = self._pieces
            dt = np.where(on, t - g[np.minimum(k, g.size - 1)], 0.0)
            out = values[..., k] + slopes[..., k] * dt
        else:
            vals = np.asarray(self._func(t), dtype=complex)
            out = np.where(inside, vals, 0.0)
        if out.ndim == 0:
            return complex(out)
        return out

    def norm_sq(self) -> float:
        """Integral of |xi|^2 over the support."""
        if self.kind == "exponential":
            return 1.0 - math.exp(-self.gamma_bw * self.t_max)
        if self.kind == "sampled":
            # exact L2 norm of the linear interpolant, segment by segment
            v0 = self._values[..., :-1]
            v1 = self._values[..., 1:]
            seg = (np.abs(v0) ** 2 + (v0.conjugate() * v1).real + np.abs(v1) ** 2) / 3.0
            nsq = np.sum(seg * np.diff(self._grid), axis=-1)
            return float(nsq) if nsq.ndim == 0 else nsq
        # closure: composite Simpson on a dense uniform grid
        n = max(4096, int(8 * self.t_max / self.timescale))
        n += n % 2
        t = np.linspace(0.0, self.t_max, n + 1)
        y = np.abs(np.asarray(self.value(t), dtype=complex)) ** 2
        return float(np.sum(_simpson_weights_nonuniform(t) * y))


def profile_overlap(p: PulseProfile, q: PulseProfile) -> complex:
    """<p|q> = integral conj(p(t)) q(t) dt."""
    if p.is_exponential and q.is_exponential:
        gsum = 0.5 * (p.gamma_bw + q.gamma_bw)
        horizon = min(p.t_max, q.t_max)
        return (math.sqrt(p.gamma_bw * q.gamma_bw) / gsum
                * (1.0 - math.exp(-gsum * horizon)))
    horizon = max(p.t_max, q.t_max)
    scale = min(p.timescale, q.timescale)
    n = max(8192, int(16 * horizon / scale))
    n += n % 2
    t = np.linspace(0.0, horizon, n + 1)
    y = np.conjugate(np.asarray(p.value(t), dtype=complex)) * np.asarray(q.value(t), dtype=complex)
    return complex(np.sum(_simpson_weights_nonuniform(t) * y))


def _permanent(mat) -> complex:
    """Permanent by direct permutation sum; fine for the n <= 5 used here.

    ``mat`` is a square array or nested list; its entries may be arrays
    that broadcast together, for a permanent per point.  Products are
    taken out of place, so they broadcast, and so they round as numpy's
    out-of-place complex multiply does.
    """
    n = len(mat)
    if n == 0:
        return 1.0 + 0.0j
    total = 0.0 + 0.0j
    for perm in permutations(range(n)):
        prod = 1.0 + 0.0j
        for i, j in enumerate(perm):
            prod = prod * mat[i][j]
        total += prod
    return total


class WavepacketN:
    """N-photon field state.

    ``separable``: a list of (PulseProfile, Direction) pairs, one per
    photon, with the overall normalization fixed by the permanents of the
    per-direction overlap matrices.

    ``correlated2``: N = 2 only; stores sampled component tensors
    (xi0, xi1, xi2) on a shared rectangular grid.  xi0 and xi2 must be
    exchange symmetric on the nodes; xi1 carries (right-time, left-time)
    slots and needs no symmetry.
    """

    def __init__(self, kind: str, *, entries=None, grid=None, tensors=None,
                 norm_tol: float = DEFAULT_NORM_TOL):
        self.kind = kind
        if kind == "separable":
            self.entries = tuple((p, _as_direction(d)) for p, d in entries)
            self.n_photons = len(self.entries)
            self._block_norms = self._compute_block_norms()
        elif kind == "correlated2":
            self.n_photons = 2
            self.grid = np.asarray(grid, dtype=float)
            if self.grid.ndim != 1 or np.any(np.diff(self.grid) <= 0.0):
                raise ValueError("correlated2 grid must be 1-D strictly increasing")
            self.tensors = {}
            for n_right, tens in tensors.items():
                if tens is None:
                    continue
                arr = np.asarray(tens, dtype=complex)
                if arr.shape != (self.grid.size, self.grid.size):
                    raise ValueError("component tensor shape must match the grid")
                if n_right in (0, 2):
                    asym = np.max(np.abs(arr - arr.T))
                    if asym > norm_tol:
                        raise ValueError(
                            f"component {n_right} must be exchange symmetric on the "
                            f"nodes (max asymmetry {asym:.3g})")
                self.tensors[int(n_right)] = arr
            if not self.tensors:
                raise ValueError("correlated2 state needs at least one component")
            total = sum(self._tensor_norm_sq(a) for a in self.tensors.values())
            if not abs(total - 1.0) <= norm_tol:
                raise NormalizationError(
                    f"correlated2 component norms sum to {total:.10g}, not 1 "
                    f"within {norm_tol:g}")
        else:
            raise ValueError(f"unknown wavepacket kind: {kind}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def product(cls, entries) -> "WavepacketN":
        entries = list(entries)
        if not entries:
            raise ValueError("a product wavepacket needs at least one photon")
        return cls("separable", entries=entries)

    @classmethod
    def vacuum(cls) -> "WavepacketN":
        return cls("separable", entries=[])

    @classmethod
    def correlated_pair(cls, grid, xi0=None, xi1=None, xi2=None,
                        norm_tol: float = DEFAULT_NORM_TOL) -> "WavepacketN":
        return cls("correlated2", grid=grid,
                   tensors={0: xi0, 1: xi1, 2: xi2}, norm_tol=norm_tol)

    # -- internals ---------------------------------------------------------

    def _compute_block_norms(self):
        """The permanent of each direction's overlap matrix (1 for no photons)."""
        norms = {}
        for tag, block in (("right", self.right_profiles()), ("left", self.left_profiles())):
            gram = [[1.0 if p is q else profile_overlap(p, q) for q in block] for p in block]
            norms[tag] = float(_permanent(np.array(gram, dtype=complex)).real)
        return norms

    def _tensor_norm_sq(self, arr: np.ndarray) -> float:
        # Simpson in both axes; the grid is the resolution limit anyway.
        w = _simpson_weights_nonuniform(self.grid)
        return float(np.einsum("i,j,ij->", w, w, np.abs(arr) ** 2).real)

    @property
    def n_right(self) -> int | None:
        """Number of right-movers for separable states (None for correlated)."""
        if self.kind != "separable":
            return None
        return sum(1 for _, d in self.entries if d is Direction.RIGHT)

    def separable_normalization(self) -> float:
        """1 / sqrt(perm(G_right) * perm(G_left))."""
        if self.kind != "separable":
            raise ValueError("normalization constant only defined for separable states")
        return 1.0 / math.sqrt(self._block_norms["right"] * self._block_norms["left"])

    def right_profiles(self):
        return [p for p, d in self.entries if d is Direction.RIGHT]

    def left_profiles(self):
        return [p for p, d in self.entries if d is Direction.LEFT]

    @property
    def horizon(self) -> float:
        if self.kind == "separable":
            if not self.entries:
                return 0.0
            return max(p.t_max for p, _ in self.entries)
        return float(self.grid[-1])

    @property
    def min_timescale(self) -> float:
        if self.kind == "separable":
            if not self.entries:
                return 1.0
            return min(p.timescale for p, _ in self.entries)
        return max(float(np.min(np.diff(self.grid))), 1e-3)

    @property
    def all_exponential(self) -> bool:
        return self.kind == "separable" and all(p.is_exponential for p, _ in self.entries)

    # -- component evaluation ----------------------------------------------

    def component(self, n_right: int, times):
        """Component amplitude xi_{n_right}(t_1 .. t_N).

        The first ``n_right`` time arguments are right-mover slots, the
        rest left-mover slots.  Arguments broadcast together, so passing
        meshes gives a vectorized evaluation.  Evaluations outside the
        stored support return 0.
        """
        if not 0 <= n_right <= self.n_photons:
            raise ValueError(f"n_right must lie in [0, {self.n_photons}]")
        if len(times) != self.n_photons:
            raise ValueError(f"expected {self.n_photons} time arguments")
        if self.kind == "correlated2":
            return self._component_correlated(n_right, times)
        return self._component_separable(n_right, times)

    def _component_separable(self, n_right, times):
        right = self.right_profiles()
        left = self.left_profiles()
        arrays = [np.asarray(t, dtype=float) for t in times]
        shape = np.broadcast_shapes(*(a.shape for a in arrays)) if arrays else ()
        if n_right != len(right):
            out = np.zeros(shape, dtype=complex)
            return complex(out) if out.ndim == 0 else out
        coef = self.separable_normalization() / math.sqrt(
            math.factorial(n_right) * math.factorial(self.n_photons - n_right))
        # per direction, the permanent of the matrix p_k(t_slot)
        blocks = [_permanent([[np.asarray(p.value(t), dtype=complex) for p in profiles]
                              for t in slot_times])
                  for profiles, slot_times in ((right, arrays[:n_right]),
                                               (left, arrays[n_right:]))]
        out = coef * blocks[0] * blocks[1]
        if np.ndim(out) == 0:
            return complex(out)
        return out

    def _component_correlated(self, n_right, times):
        arr = self.tensors.get(n_right)
        t1 = np.asarray(times[0], dtype=float)
        t2 = np.asarray(times[1], dtype=float)
        shape = np.broadcast_shapes(t1.shape, t2.shape)
        if arr is None:
            out = np.zeros(shape, dtype=complex)
            return complex(out) if out.ndim == 0 else out
        out = _bilinear(self.grid, self.grid, arr, np.broadcast_to(t1, shape),
                        np.broadcast_to(t2, shape))
        if out.ndim == 0:
            return complex(out)
        return out

    def total_norm_sq_numeric(self) -> float:
        """Numerical check of sum_n ||xi_n||^2 (Simpson on 2000 cells), mostly for tests."""
        if self.kind == "correlated2":
            return sum(self._tensor_norm_sq(a) for a in self.tensors.values())
        t = np.linspace(0.0, self.horizon, 2001)
        grids = np.meshgrid(*([t] * self.n_photons), indexing="ij", sparse=True)
        # the product of the per-axis Simpson weights, broadcast over the grid
        weight = math.prod(np.meshgrid(*([_simpson_weights_nonuniform(t)] * self.n_photons),
                                       indexing="ij", sparse=True))
        total = 0.0
        for n_right in range(self.n_photons + 1):
            comp = self.component(n_right, grids)
            if not np.all(comp == 0):
                total += float(np.sum(weight * np.abs(comp) ** 2))
        return total


def _bilinear(ax1: np.ndarray, ax2: np.ndarray, arr: np.ndarray,
              x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of arr sampled on ax1 x ax2; zero outside."""
    inside = (x >= ax1[0]) & (x <= ax1[-1]) & (y >= ax2[0]) & (y <= ax2[-1])
    xi = np.clip(np.searchsorted(ax1, x, side="right") - 1, 0, ax1.size - 2)
    yi = np.clip(np.searchsorted(ax2, y, side="right") - 1, 0, ax2.size - 2)
    x0 = ax1[xi]
    y0 = ax2[yi]
    fx = np.clip((x - x0) / (ax1[xi + 1] - x0), 0.0, 1.0)
    fy = np.clip((y - y0) / (ax2[yi + 1] - y0), 0.0, 1.0)
    v00 = arr[xi, yi]
    v10 = arr[xi + 1, yi]
    v01 = arr[xi, yi + 1]
    v11 = arr[xi + 1, yi + 1]
    val = (v00 * (1 - fx) * (1 - fy) + v10 * fx * (1 - fy)
           + v01 * (1 - fx) * fy + v11 * fx * fy)
    return np.where(inside, val, 0.0)


def _simpson_weights_nonuniform(x: np.ndarray) -> np.ndarray:
    """Composite Simpson weights on a uniform grid with an even number of
    cells, trapezoid weights otherwise.

    np.linspace rounds every node to its own magnitude, so the steps of a
    uniform grid scatter by a few eps of its largest node: about step
    count x eps of the mean step on a grid from 0.
    """
    d = np.diff(x)
    if d.size == 0:
        return np.zeros_like(x)
    step = float(x[-1] - x[0]) / d.size
    scatter = 4.0 * np.finfo(float).eps * max(abs(x[0]), abs(x[-1]))
    if d.size % 2 == 0 and np.max(np.abs(d - step)) <= scatter:
        return _simpson_segment(x.size) * step
    w = np.zeros_like(x)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w


@dataclass(frozen=True)
class InitialState:
    """Joint atom-field initial condition c_g |g, field_g> + c_e |e, field_e>.

    ``field_e`` carries one photon fewer than ``field_g`` so both branches
    live in the same total-excitation sector.
    """
    c_g: complex
    field_g: WavepacketN | None
    c_e: complex = 0.0
    field_e: WavepacketN | None = None
    norm_tol: float = DEFAULT_NORM_TOL

    def __post_init__(self):
        total = abs(self.c_g) ** 2 + abs(self.c_e) ** 2
        if not abs(total - 1.0) <= self.norm_tol:
            raise NormalizationError(f"|c_g|^2 + |c_e|^2 = {total:.10g}, not 1")
        if self.c_g != 0 and self.field_g is None:
            raise ValueError("c_g != 0 requires field_g")
        if self.c_e != 0 and self.field_e is None:
            raise ValueError("c_e != 0 requires field_e")
        if self.c_g != 0 and self.c_e != 0:
            if self.field_g.n_photons != self.field_e.n_photons + 1:
                raise ValueError("field_g must carry exactly one photon more than field_e")

    @property
    def total_excitations(self) -> int:
        if self.c_g != 0:
            return self.field_g.n_photons
        return self.field_e.n_photons + 1


def excited_atom(field_e: WavepacketN | None = None) -> InitialState:
    """Atom excited, field in field_e (vacuum by default)."""
    if field_e is None:
        field_e = WavepacketN.vacuum()
    return InitialState(c_g=0.0, field_g=None, c_e=1.0, field_e=field_e)


# -- JSON serialization ----------------------------------------------------

def profile_to_dict(p: PulseProfile) -> dict:
    if p.kind == "exponential":
        return {"kind": "exponential", "gamma": p.gamma_bw, "t_max": p.t_max}
    if p.kind == "sampled":
        return {"kind": "sampled", "grid": p._grid.tolist(),
                "values_re": p._values.real.tolist(),
                "values_im": p._values.imag.tolist()}
    raise ValueError("closure profiles cannot be serialized")


def profile_from_dict(d: dict) -> PulseProfile:
    kind = d.get("kind")
    if kind == "exponential":
        return PulseProfile.exponential(float(d["gamma"]), d.get("t_max"))
    if kind == "sampled":
        vals = np.asarray(d["values_re"], dtype=float) + 1j * np.asarray(
            d.get("values_im", np.zeros(len(d["values_re"]))), dtype=float)
        return PulseProfile.from_samples(d["grid"], vals)
    raise ValueError(f"unknown profile kind in JSON: {kind!r}")


def wavepacket_to_json(w: WavepacketN) -> str:
    if w.kind != "separable":
        raise ValueError("only separable wavepackets serialize to JSON")
    photons = [{"direction": d.value, "profile": profile_to_dict(p)}
               for p, d in w.entries]
    return json.dumps({"photons": photons}, indent=2, sort_keys=True)


def wavepacket_from_json(text: str) -> WavepacketN:
    doc = json.loads(text)
    default = doc.get("profile")
    entries = []
    for ph in doc["photons"]:
        spec = ph.get("profile", default)
        if spec is None:
            raise ValueError("photon entry lacks a profile and no default is given")
        entries.append((profile_from_dict(spec), _as_direction(ph.get("direction", "right"))))
    return WavepacketN.product(entries)
