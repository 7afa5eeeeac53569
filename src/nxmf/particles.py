"""Finite-N agent dynamics.

Integrates dX_i = sum_j w_ij K(X_i - X_j) dt (+ optional self dynamics)
+ sigma dB_i for a batch of replicas with one explicit integrator, and the
frozen-law variant where each agent is driven by prescribed per-agent laws
on a grid instead of the other agents' positions.  Drift evaluation
traverses stored weight entries only, so the cost is O(nnz).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import seeding
from .kernels import Kernel
from .weights import SparseWeights, check_scaling


# replicas advanced together by integrate; no result depends on it
CHUNK = 64


class StabilityError(RuntimeError):
    """Explicit step rejected by the stability guard, or a non-finite state."""


@dataclass(frozen=True)
class ParticleState:
    positions: np.ndarray      # (N, d)
    time: float = 0.0

    def __post_init__(self):
        p = np.asarray(self.positions, dtype=np.float64)
        if p.ndim != 2:
            raise ValueError("positions must have shape (N, d)")
        if not np.all(np.isfinite(p)):
            raise ValueError("positions must be finite")
        object.__setattr__(self, "positions", p)

    @property
    def n_agents(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniform atoms, one per agent; total mass 1."""

    atoms: np.ndarray          # (N, d)

    @property
    def weight(self) -> float:
        return 1.0 / self.atoms.shape[0]


def empirical(x: ParticleState) -> EmpiricalMeasure:
    return EmpiricalMeasure(atoms=x.positions.copy())


def _wrap(positions: np.ndarray, k: Kernel) -> np.ndarray:
    if k.domain.kind == "torus":
        return np.mod(positions, k.domain.period)
    return positions


def _entry_row_matrix(w: SparseWeights) -> sp.csr_matrix:
    """(N, nnz) indicator summing entry values into their rows.

    Summation order per row is the stored (row, col) order, independent of
    any batching of the right-hand side, which keeps results bitwise stable
    across batch sizes and worker counts.
    """
    cached = getattr(w, "_rowmat", None)
    if cached is None:
        cached = sp.csr_matrix(
            (np.ones(w.nnz), np.arange(w.nnz), w._indptr), shape=(w.n_agents, w.nnz)
        )
        w._rowmat = cached
    return cached


def drift(w: SparseWeights, k: Kernel, x: ParticleState, summation: str = "fast") -> np.ndarray:
    """Interaction drift sum_j w_ij K(x_i - x_j), sparse row traversal.

    summation='fast' is drift_batch on a single replica (rows accumulated
    in stored entry order); summation='exact' uses exactly rounded per-row
    sums, which makes the result independent of entry ordering (and hence
    bit-stable under simultaneous agent relabelings) at a large speed cost.
    """
    if w.n_agents != x.n_agents:
        raise ValueError("weights and state disagree on the number of agents")
    if k.dim != x.dim:
        raise ValueError(f"kernel dimension {k.dim} != state dimension {x.dim}")
    pos = x.positions
    if summation == "fast":
        return drift_batch(w, k, pos[None])[0]
    if summation != "exact":
        raise ValueError("summation must be 'fast' or 'exact'")
    kv = k.eval(pos[w.rows0] - pos[w.cols0]) * w.values[:, None]
    out = np.zeros_like(pos)
    for i in range(x.n_agents):
        lo, hi = w._indptr[i], w._indptr[i + 1]
        for a in range(x.dim):
            out[i, a] = math.fsum(kv[lo:hi, a])
    return out


def drift_batch(w, k, positions):
    """Drift for a stack of independent replicas, shape (R, N, d)."""
    r, n, d = positions.shape
    diff = positions[:, w.rows0, :] - positions[:, w.cols0, :]
    kv = k.eval(diff) * w.values[None, :, None]
    rowmat = _entry_row_matrix(w)
    out = np.empty_like(positions)
    for a in range(d):
        out[..., a] = (rowmat @ kv[..., a].T).T
    return out


def _check_guard(w, k, dt):
    scale = check_scaling(w).max_row_abs_sum * k.lipschitz
    if scale > 0 and dt * scale > 0.5:
        raise StabilityError(
            f"dt={dt:g} violates the stability guard dt * max_row_abs_sum * lipschitz <= 0.5; "
            f"admissible dt <= {0.5 / scale:g}"
        )


def _spans(w, k, times, dt):
    """(n_steps, step) per span between consecutive output times, from t = 0.

    Each span is cut into max(1, round(span / dt)) equal steps, so every
    snapshot lands exactly on its time; the guard is checked once per span.
    """
    spans, prev = [], 0.0
    for t in times:
        t = float(t)
        if not t >= prev:      # also rejects NaN
            raise ValueError("output times must be sorted and >= 0")
        span = t - prev
        n_steps = max(1, round(span / dt)) if span > 0 else 0
        step = span / n_steps if n_steps else 0.0
        if n_steps:
            _check_guard(w, k, step)
        spans.append((n_steps, step))
        prev = t
    return spans


def integrate(w: SparseWeights, k: Kernel, x0, times, dt: float, sigma: float = 0.0,
              master_seed: int = 0) -> np.ndarray:
    """Positions of R independent replicas at each output time.

    x0 has shape (R, N, d); the result has shape (len(times), R, N, d).
    The scheme is RK4 when sigma = 0 and Euler-Maruyama with additive noise
    otherwise, plus k.self_drift when the kernel has one, wrapped on a
    torus.  Replica r draws the noise of global step s from its own
    (NOISE, r, s) stream and replicas advance in fixed chunks, so a
    replica's trajectory is bitwise independent of the replica count, the
    chunking and of how the times are split (for the same step partition).
    Raises StabilityError when a step violates the stability guard or
    leaves a non-finite state.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.ndim != 3:
        raise ValueError("x0 must have shape (R, N, d)")
    n_rep, n, d = x0.shape
    if w.n_agents != n:
        raise ValueError("weights and positions disagree on the number of agents")
    if k.dim != d:
        raise ValueError(f"kernel dimension {k.dim} != state dimension {d}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    spans = _spans(w, k, times, dt)

    def rhs(p):
        total = drift_batch(w, k, p)
        if k.self_drift is not None:
            total = total + k.self_drift(p)
        return total

    out = np.empty((len(spans), n_rep, n, d))
    for lo in range(0, n_rep, CHUNK):
        pos = x0[lo:lo + CHUNK]
        s = 0
        for ti, (n_steps, h) in enumerate(spans):
            for _ in range(n_steps):
                if sigma > 0:
                    noise = np.stack([
                        seeding.normal_block(master_seed, (seeding.NOISE, r, s), (n, d))
                        for r in range(lo, lo + pos.shape[0])])
                    pos = pos + h * rhs(pos) + sigma * math.sqrt(h) * noise
                else:
                    k1 = rhs(pos)
                    k2 = rhs(pos + 0.5 * h * k1)
                    k3 = rhs(pos + 0.5 * h * k2)
                    k4 = rhs(pos + h * k3)
                    pos = pos + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
                pos = _wrap(pos, k)
                s += 1
                if not np.isfinite(pos).all():
                    raise StabilityError(f"non-finite particle state after step {s} (dt={h:g})")
            out[ti, lo:lo + CHUNK] = pos
    return out


def mckean_drift(w, k, x: ParticleState, laws) -> np.ndarray:
    """Drift against frozen per-agent laws on a 1-D grid.

    drift_i = sum_j w_ij * integral K(x_i - y) f_j(y) dy, the nonlinear
    system each agent would follow if all others were replaced by their
    laws; the integral is midpoint quadrature on the law grid.
    """
    if k.dim != 1 or x.dim != 1:
        raise ValueError("frozen-law drift is implemented for d = 1 only")
    if laws.n_fibers != x.n_agents:
        raise ValueError("laws must supply one fiber per agent")
    centers = laws.grid.centers()
    mixed = w.csr() @ laws.values                      # (N, G): per-agent law mix
    kmat = k.eval((x.positions[:, 0][:, None] - centers[None, :])[..., None])[..., 0]
    vals = np.einsum("ig,ig->i", kmat, mixed) * laws.grid.dx
    return vals[:, None]


def step_mckean(w, k, x: ParticleState, laws, dt: float, sigma: float = 0.0,
                rng=None, omega=None) -> ParticleState:
    """Euler-Maruyama step of the frozen-law system."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    _check_guard(w, k, dt)
    total = mckean_drift(w, k, x, laws)
    if k.self_drift is not None:
        total = total + k.self_drift(x.positions)
    if omega is not None:
        total = total + omega
    new = x.positions + dt * total
    if sigma > 0:
        if rng is None:
            raise ValueError("sigma > 0 requires an rng")
        new = new + sigma * math.sqrt(dt) * rng.standard_normal(x.positions.shape)
    return ParticleState(_wrap(new, k), x.time + dt)
