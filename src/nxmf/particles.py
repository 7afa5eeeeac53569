"""Finite-N agent dynamics.

Integrates dX_i/dt = sum_j w_ij K(X_i - X_j) (+ optional per-agent drift,
self dynamics and additive noise) with explicit steppers, and the
frozen-law variant where each agent is driven by prescribed per-agent laws
on a grid instead of the other agents' positions.  Drift evaluation
traverses stored weight entries only, so the cost is O(nnz).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .kernels import Kernel
from .weights import SparseWeights, check_scaling


class StabilityError(RuntimeError):
    """Explicit step rejected by the stability guard."""


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
        e = np.arange(w.nnz)
        cached = sp.csr_matrix(
            (np.ones(w.nnz), (w.rows0, e)), shape=(w.n_agents, w.nnz)
        )
        w._rowmat = cached
    return cached


def drift(w: SparseWeights, k: Kernel, x: ParticleState, summation: str = "fast") -> np.ndarray:
    """Interaction drift sum_j w_ij K(x_i - x_j), sparse row traversal.

    summation='fast' accumulates rows in stored entry order (vectorized);
    summation='exact' uses exactly rounded per-row sums, which makes the
    result independent of entry ordering (and hence bit-stable under
    simultaneous agent relabelings) at a large speed cost.
    """
    if w.n_agents != x.n_agents:
        raise ValueError("weights and state disagree on the number of agents")
    if k.dim != x.dim:
        raise ValueError(f"kernel dimension {k.dim} != state dimension {x.dim}")
    pos = x.positions
    kv = k.eval(pos[w.rows0] - pos[w.cols0]) * w.values[:, None]
    out = np.zeros_like(pos)
    if summation == "fast":
        for a in range(x.dim):
            out[:, a] = np.bincount(w.rows0, weights=kv[:, a], minlength=x.n_agents)
    elif summation == "exact":
        for i in range(x.n_agents):
            lo, hi = w._indptr[i], w._indptr[i + 1]
            for a in range(x.dim):
                out[i, a] = math.fsum(kv[lo:hi, a])
    else:
        raise ValueError("summation must be 'fast' or 'exact'")
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


def _rhs(w, k, x: ParticleState, omega, summation):
    total = drift(w, k, x, summation=summation)
    if k.self_drift is not None:
        total = total + k.self_drift(x.positions)
    if omega is not None:
        total = total + omega
    return total


def _check_guard(w, k, dt):
    scale = check_scaling(w).max_row_abs_sum * k.lipschitz
    if scale > 0 and dt * scale > 0.5:
        raise StabilityError(
            f"dt={dt:g} violates the stability guard dt * max_row_abs_sum * lipschitz <= 0.5; "
            f"admissible dt <= {0.5 / scale:g}"
        )


def step_deterministic(w, k, x: ParticleState, dt: float, method: str = "rk4",
                       omega=None, summation: str = "fast") -> ParticleState:
    """One explicit step of the coupled ODE system."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    _check_guard(w, k, dt)
    p = x.positions
    if method == "euler":
        new = p + dt * _rhs(w, k, x, omega, summation)
    elif method == "rk4":
        k1 = _rhs(w, k, x, omega, summation)
        k2 = _rhs(w, k, ParticleState(p + 0.5 * dt * k1, x.time), omega, summation)
        k3 = _rhs(w, k, ParticleState(p + 0.5 * dt * k2, x.time), omega, summation)
        k4 = _rhs(w, k, ParticleState(p + dt * k3, x.time), omega, summation)
        new = p + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    else:
        raise ValueError("method must be 'euler' or 'rk4'")
    return ParticleState(_wrap(new, k), x.time + dt)


def step_stochastic(w, k, x: ParticleState, dt: float, sigma: float, rng,
                    omega=None, summation: str = "fast") -> ParticleState:
    """Euler-Maruyama step with additive noise, independent per agent and
    coordinate.  sigma = 0 reproduces the deterministic Euler step exactly."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    _check_guard(w, k, dt)
    new = x.positions + dt * _rhs(w, k, x, omega, summation)
    if sigma > 0:
        new = new + sigma * math.sqrt(dt) * rng.standard_normal(x.positions.shape)
    return ParticleState(_wrap(new, k), x.time + dt)


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
