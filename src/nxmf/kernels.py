"""Interaction kernels and dynamics presets.

A Kernel bundles the pairwise interaction K together with the norms the
error estimates need (Lipschitz constant, sup norm, sup of the divergence)
and the state-space geometry; the constructor takes keyword arguments only
and rejects a sup norm, Lipschitz constant or divergence bound below what K
shows on a probe grid.  K acts on difference vectors of
shape (..., dim) and must be pointwise over the leading axes: each output
row depends only on its own difference vector, because the particle drift
evaluates K on blocks of entries and any split must give the same bits.
An optional self_drift carries uncoupled per-agent
dynamics (used by the neuron preset); it plays no role in the interaction
bounds, and only the particles carry it.

Which particle drift and which transport field run is a property of the
kernel.  A kernel may carry modes, one callable: modes(x) returns the pairs
(a_r(x), b_r(x)), arrays of x's shape computed elementwise, with
K(x - y) = sum_r a_r(x) * b_r(y), so work the factors share (Kuramoto's sin
and cos) is done once per state.  With modes the particles take the
low-rank path, one sparse matvec per mode and no per-entry evaluation of K
(Kuramoto, through its order parameters), and the grid field is built
from R fiber moments instead of an FFT convolution.  Every other kernel
takes the entry path, which evaluates K once per stored weight, and the
FFT convolution on the grid; on the entry path a kernel declared odd
(K(-x) = -K(x) bitwise) lets the drift evaluate each unordered pair of a
symmetric weight matrix once.  On the entry path a kernel may also carry
eval_into(x, out, tmp), which writes eval(x) into out bit for bit, with
tmp (x's shape) as scratch, so the drift evaluates K in its own block
buffers without temporaries (linear_attraction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Domain:
    kind: str                  # "line" | "torus"
    period: float | None = None

    def __post_init__(self):
        if self.kind not in ("line", "torus"):
            raise ValueError("domain kind must be 'line' or 'torus'")
        if self.kind == "torus" and not (self.period and self.period > 0):
            raise ValueError("torus domain needs a positive period")


LINE = Domain("line")

# fixed points on which a kernel declared odd must satisfy K(-x) == -K(x)
_ODD_PROBE = np.array([1e-3, 0.25, 0.7, 1.3, 2.9, 5.5, 40.0])
# positions whose pairs (x, y) check K(x - y) against the kernel's modes,
# to _MODES_RTOL relative to the largest |K| on them
_MODE_PROBE = np.array([0.0, 0.3, 1.1, 2.9, 3.3, 4.4, 6.2, -0.7, 9.0])
_MODES_RTOL = 1e-12
# points on which eval_into must reproduce eval bitwise: signed zeros, exp
# underflow and overflow, x * x overflow, infinities and NaN
_INTO_PROBE = np.array([0.0, -0.0, 1e-3, -0.7, 1.3, 27.0, -40.0, 710.0, -746.0, 1e200,
                        -1e200, np.inf, -np.inf, np.nan])
# sup_norm, lipschitz and div_sup are checked from below on _CONST_PROBE
# points per axis (one period on a torus, [-8, 8] on the line), to a relative
# slack: a probe at the exact maximum may round above it
_CONST_PROBE = 4097
_CONST_RTOL = 1e-12


@dataclass(frozen=True, kw_only=True)
class Kernel:
    dim: int
    eval: Callable[[np.ndarray], np.ndarray]
    lipschitz: float
    sup_norm: float
    div_sup: float
    domain: Domain = LINE
    self_drift: Callable[[np.ndarray], np.ndarray] | None = field(default=None)
    name: str = "custom"
    odd: bool = False
    # modes(x) = ((a_1(x), b_1(x)), ...), arrays of x's shape, K(x - y) = sum_r a_r(x) * b_r(y)
    modes: Callable[[np.ndarray], tuple] | None = None
    # eval_into(x, out, tmp): out[...] = eval(x) bitwise, tmp as scratch, x unchanged
    eval_into: Callable[[np.ndarray, np.ndarray, np.ndarray], None] | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        for fname in ("lipschitz", "sup_norm", "div_sup"):
            if not getattr(self, fname) >= 0:      # also rejects NaN
                raise ValueError(f"{fname} must be >= 0")
        if self.odd:
            p = _ODD_PROBE[:, None] * (-1.5) ** np.arange(self.dim)
            v = np.asarray(self.eval(np.concatenate((p, -p))))
            # a NaN stays NaN when folded; the particle guards reject it later
            if not np.array_equal(v[p.shape[0]:], -v[:p.shape[0]], equal_nan=True):
                raise ValueError("kernel flagged odd but K(-x) != -K(x)")
        if self.modes is not None:
            p = _MODE_PROBE[:, None] + 0.37 * np.arange(self.dim)
            pairs = self.modes(p)
            if not pairs or not all(len(pair) == 2 and all(
                    isinstance(f, np.ndarray) and f.shape == p.shape for f in pair)
                    for pair in pairs):
                raise ValueError("modes(x) must return at least one pair (a_r(x), b_r(x)) "
                                 "of arrays of x's shape")
            n = p.shape[0]
            k = np.asarray(self.eval(np.repeat(p, n, axis=0) - np.tile(p, (n, 1))))
            # lowrank[i n + j] = sum_r a_r(p_i) * b_r(p_j), K(p_i - p_j)'s row
            lowrank = sum(a[:, None] * b[None] for a, b in pairs).reshape(k.shape)
            if not np.abs(lowrank - k).max() <= _MODES_RTOL * np.abs(k).max():
                raise ValueError("kernel modes do not reproduce K(x - y)")
        if self.eval_into is not None:
            p = _INTO_PROBE[:, None] * (-1.5) ** np.arange(self.dim)
            out, tmp = np.empty_like(p), np.empty_like(p)
            with np.errstate(all="ignore"):
                want = np.asarray(self.eval(p), dtype=np.float64)
                self.eval_into(p, out, tmp)
            if not np.array_equal(want.view(np.uint64), out.view(np.uint64)):
                raise ValueError("kernel eval_into does not reproduce eval bitwise "
                                 "(a new eval needs its own eval_into, or None)")
        self._check_constants()

    def _check_constants(self):
        """Reject a constant below what K shows along each coordinate axis:
        every |K| is a lower bound on sup_norm, every secant slope one on
        lipschitz and, in one dimension (a value of K' = div K), on div_sup."""
        lo, hi = (0.0, self.domain.period) if self.domain.kind == "torus" else (-8.0, 8.0)
        t = np.linspace(lo, hi, _CONST_PROBE)
        x = np.eye(self.dim)[:, None, :] * t[:, None]      # x[a, i] = t[i] * e_a
        with np.errstate(all="ignore"):
            v = np.asarray(self.eval(x.reshape(-1, self.dim)), dtype=np.float64).reshape(x.shape)
            slope = np.abs(np.diff(v, axis=1)) / np.diff(t)[:, None]
        seen = {"sup_norm": np.abs(v), "lipschitz": slope}
        if self.dim == 1:
            seen["div_sup"] = slope
        for fname, values in seen.items():
            low = float(np.fmax.reduce(values, axis=None, initial=0.0))     # NaN readings skipped
            if low > getattr(self, fname) * (1 + _CONST_RTOL):
                raise ValueError(f"kernel declares {fname}={getattr(self, fname)!r}, "
                                 f"below the {low!r} its probe grid shows")

    @property
    def w1inf_norm(self) -> float:
        """max(|K|_inf, |grad K|_inf), the scale entering the drift bounds."""
        return max(self.sup_norm, self.lipschitz)


def kuramoto(coupling: float = 1.0) -> Kernel:
    """Phase-oscillator coupling K(x) = -coupling * sin(x) on the circle of
    length 2 pi.

    With drift sum_j w_ij K(theta_i - theta_j) this pulls each phase toward
    its neighbours (the synchronizing sign).  Per-oscillator natural
    frequencies enter the particles through self_drift (e.g. a function
    returning the frequencies broadcast to the state's shape), which solve
    and the gap estimators reject; there are none by default.
    A negative coupling gives the repulsive (desynchronizing) model; the
    constants are |coupling|.  Its modes, from
    sin(x - y) = sin x cos y - cos x sin y, turn the drift into the local
    order parameters sum_j w_ij cos x_j and sum_j w_ij sin x_j, and the
    transport field into the fiber moments of cos and sin; sin x and cos x
    are evaluated once per call.
    """
    c = float(coupling)
    size = abs(c)

    def k_eval(x):
        return -c * np.sin(x)

    def k_modes(x):
        s, co = np.sin(x), np.cos(x)
        return (-c * s, co), (c * co, s)

    return Kernel(
        dim=1,
        eval=k_eval,
        lipschitz=size,
        sup_norm=size,
        div_sup=size,
        domain=Domain("torus", 2.0 * math.pi),
        name="kuramoto",
        odd=True,
        modes=k_modes,
    )


def linear_attraction(amplitude: float = 1.0) -> Kernel:
    """K(x) = -amplitude * x * exp(-x^2) on the line.

    Attractive near the origin (repulsive for a negative amplitude),
    exponentially screened at distance; smooth, globally Lipschitz with
    constant |amplitude| and sup norm |amplitude| / sqrt(2 e).
    """
    a = float(amplitude)
    size = abs(a)

    def k_eval(x):
        return -a * x * np.exp(-(x * x))

    def k_eval_into(x, out, tmp):
        # k_eval's operations in its order, in the given buffers
        np.multiply(x, x, out=tmp)
        np.negative(tmp, out=tmp)
        np.exp(tmp, out=tmp)
        np.multiply(-a, x, out=out)
        np.multiply(out, tmp, out=out)

    return Kernel(
        dim=1,
        eval=k_eval,
        lipschitz=size,
        sup_norm=size / math.sqrt(2.0 * math.e),
        div_sup=size,
        domain=LINE,
        name="linear_attraction",
        odd=True,
        eval_into=k_eval_into,
    )


def hodgkin_huxley(constants: dict, alpha: dict, beta: dict) -> Kernel:
    """Conductance-based neuron state (V, n, m, h) with potential coupling.

    constants supplies c_m, g_k, g_na, g_l, v_k, v_na, v_l; alpha and beta
    supply the gating rate functions for 'n', 'm', 'h' (callables of V).
    None of these carry defaults: the model is only defined once they are
    chosen.  The gating variables follow their own relaxation dynamics and
    the membrane potentials couple through K(x) = (-x_V / c_m, 0, 0, 0),
    which vanishes at the origin.  Particle-only: dim = 4 keeps this preset
    out of the grid-based solvers.
    """
    required = ("c_m", "g_k", "g_na", "g_l", "v_k", "v_na", "v_l")
    missing = [k for k in required if k not in constants]
    if missing:
        raise ValueError(f"missing constants: {missing}")
    for gate in ("n", "m", "h"):
        if gate not in alpha or gate not in beta:
            raise ValueError(f"missing rate functions for gate {gate!r}")
    c_m = float(constants["c_m"])
    if c_m <= 0:
        raise ValueError("c_m must be positive")
    g_k, g_na, g_l = (float(constants[k]) for k in ("g_k", "g_na", "g_l"))
    v_k, v_na, v_l = (float(constants[k]) for k in ("v_k", "v_na", "v_l"))

    def k_eval(x):
        out = np.zeros_like(x)
        out[..., 0] = -x[..., 0] / c_m
        return out

    def self_drift(state):
        v, n, m, h = state[..., 0], state[..., 1], state[..., 2], state[..., 3]
        out = np.empty_like(state)
        ionic = g_k * n**4 * (v - v_k) + g_na * m**3 * h * (v - v_na) + g_l * (v - v_l)
        out[..., 0] = -ionic / c_m
        out[..., 1] = alpha["n"](v) * (1.0 - n) - beta["n"](v) * n
        out[..., 2] = alpha["m"](v) * (1.0 - m) - beta["m"](v) * m
        out[..., 3] = alpha["h"](v) * (1.0 - h) - beta["h"](v) * h
        return out

    return Kernel(
        dim=4,
        eval=k_eval,
        lipschitz=1.0 / c_m,
        sup_norm=math.inf,
        div_sup=1.0 / c_m,
        domain=LINE,
        self_drift=self_drift,
        name="hodgkin_huxley",
        odd=True,
    )


PRESETS = {
    "kuramoto": kuramoto,
    "linear_attraction": linear_attraction,
    "hodgkin_huxley": hodgkin_huxley,
}
