"""Coupled fibered transport on a 1-D grid.

Each fiber carries the law of one agent; the fibers are transported by a
velocity field assembled in two stages: a convolution of each fiber with
the interaction kernel, then the weight matrix acting across fibers.  The
scheme is conservative first-order upwind finite volume, followed in each
step by backward Euler diffusion (so only advection limits dt): exact
discrete mass is load-bearing for the observable machinery downstream, so
it is preferred over formal order.

Boundary treatment is a choice the continuum problem does not make for us:
the torus wraps; the line uses zero inflow and accumulates advective
outflow in a per-fiber leakage ledger, with no-flux diffusion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import Kernel
from .weights import SparseWeights, check_scaling, kernel_apply


class CFLError(RuntimeError):
    """Time step rejected by the CFL conditions."""


@dataclass(frozen=True)
class Grid1D:
    x_min: float
    x_max: float
    n_cells: int
    topology: str = "line"     # "line" | "torus"

    def __post_init__(self):
        if self.n_cells < 8:
            raise ValueError("need at least 8 cells")
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
        if self.topology not in ("line", "torus"):
            raise ValueError("topology must be 'line' or 'torus'")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx


@dataclass(frozen=True)
class FiberedDensity:
    """Per-fiber densities f(x, xi) sampled on cells, one row per fiber.

    initial_mass records the t = 0 fiber masses; leakage accumulates
    advective outflow on line topology; clamp_total accumulates the (tiny)
    mass restored when roundoff-negative values are clamped to zero.
    """

    grid: Grid1D
    values: np.ndarray                  # (n_fibers, G), finite, >= 0
    time: float = 0.0
    initial_mass: np.ndarray | None = None
    leakage: np.ndarray | None = None
    clamp_total: float = 0.0
    last_mass_drift: float = 0.0        # per-step conservation defect, diagnostics only

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] != self.grid.n_cells:
            raise ValueError("values must have shape (n_fibers, n_cells)")
        if not (v.min(initial=0.0) >= 0 and v.max(initial=0.0) < math.inf):
            raise ValueError("densities must be finite and nonnegative")
        object.__setattr__(self, "values", v)
        if self.initial_mass is None:
            object.__setattr__(self, "initial_mass", self.masses())
        if self.leakage is None:
            object.__setattr__(self, "leakage", np.zeros(v.shape[0]))

    @property
    def n_fibers(self) -> int:
        return self.values.shape[0]

    def masses(self) -> np.ndarray:
        return self.values.sum(axis=1) * self.grid.dx

    def mass_defect(self) -> np.ndarray:
        """Current + leaked mass minus initial mass, per fiber."""
        return self.masses() + self.leakage - self.initial_mass


@dataclass(frozen=True)
class VelocityFieldGrid:
    values: np.ndarray                  # (n_fibers, G)


def gaussian_fibers(grid: Grid1D, means, stds, weights=None) -> FiberedDensity:
    """Gaussian (or mixture) profiles per fiber, renormalized to exact unit
    mass under the midpoint rule.  1-D inputs give one single-component
    fiber per entry; 2-D inputs are (fiber, mixture component)."""
    means = np.asarray(means, dtype=np.float64)
    if means.ndim == 1:
        means = means[:, None]
    stds = np.asarray(stds, dtype=np.float64)
    if stds.ndim == 1:
        stds = stds[:, None]
    if weights is None:
        weights = np.ones_like(means)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim == 1:
        weights = weights[:, None]
    x = grid.centers()
    vals = np.zeros((means.shape[0], grid.n_cells))
    for f in range(means.shape[0]):
        acc = np.zeros(grid.n_cells)
        wsum = weights[f].sum()
        for mu, s, wt in zip(means[f], stds[f], weights[f]):
            acc += (wt / wsum) * np.exp(-0.5 * ((x - mu) / s) ** 2) / (s * math.sqrt(2 * math.pi))
        vals[f] = acc
    vals /= vals.sum(axis=1, keepdims=True) * grid.dx
    return FiberedDensity(grid=grid, values=vals)


def _kernel_samples(k: Kernel, offsets: np.ndarray) -> np.ndarray:
    return np.asarray(k.eval(offsets[:, None])[:, 0], dtype=np.float64)


def fiber_convolution(f: FiberedDensity, k: Kernel, method: str = "fft") -> np.ndarray:
    """phi(x, zeta) = integral K(x - y) f(y, zeta) dy by midpoint quadrature.

    Direct evaluation is O(G^2) per fiber; the FFT route is O(G log G) and
    agrees with it to roundoff.  On the torus the offsets wrap to the
    nearest image; on the line the convolution is linear with zero padding.
    """
    g = f.grid
    G = g.n_cells
    dx = g.dx
    if method == "auto":
        method = "fft" if G >= 32 else "direct"
    if g.topology == "torus":
        off = np.arange(G) * dx
        off = np.where(off > g.length / 2, off - g.length, off)
        kvec = _kernel_samples(k, off)
        if method == "direct":
            idx = (np.arange(G)[:, None] - np.arange(G)[None, :]) % G
            return (f.values @ kvec[idx].T) * dx
        fh = np.fft.rfft(f.values, axis=1)
        kh = np.fft.rfft(kvec)
        return np.fft.irfft(fh * kh[None, :], n=G, axis=1) * dx
    # line: offsets from -(G-1) dx to (G-1) dx
    off = np.arange(-(G - 1), G) * dx
    kvec = _kernel_samples(k, off)
    if method == "direct":
        idx = np.arange(G)[:, None] - np.arange(G)[None, :] + (G - 1)
        return (f.values @ kvec[idx].T) * dx
    n_pad = 2 * G
    fh = np.fft.rfft(f.values, n=n_pad, axis=1)
    kh = np.fft.rfft(kvec, n=n_pad)
    full = np.fft.irfft(fh * kh[None, :], n=n_pad, axis=1)
    return full[:, G - 1 : 2 * G - 1] * dx


def velocity(f: FiberedDensity, w: SparseWeights, k: Kernel,
             method: str = "fft") -> VelocityFieldGrid:
    """Velocity of fiber xi: the weight matrix applied across fibers to the
    per-fiber kernel convolutions."""
    if w.n_agents != f.n_fibers:
        raise ValueError(f"{w.n_agents} weight rows for {f.n_fibers} fibers")
    if k.dim != 1:
        raise ValueError("grid transport is 1-D")
    phi = fiber_convolution(f, k, method=method)
    return VelocityFieldGrid(values=kernel_apply(w, phi, side="row"))


def velocity_bound(f: FiberedDensity, w: SparseWeights, k: Kernel) -> float:
    """A priori sup bound: max_row_abs_sum * |K|_inf * max fiber mass."""
    return check_scaling(w).max_row_abs_sum * k.sup_norm * float(f.masses().max())


def cfl_limits(vmax: float, dx: float) -> float:
    """Largest admissible dt for the upwind advection; 0 when vmax is not finite."""
    if not math.isfinite(vmax):
        return 0.0
    return 0.4 * dx / vmax if vmax > 0 else math.inf


def _face_velocities(v: np.ndarray, topology: str) -> np.ndarray:
    if topology == "torus":
        return 0.5 * (v + np.roll(v, -1, axis=1))      # face c sits between cells c, c+1
    faces = np.empty((v.shape[0], v.shape[1] + 1))
    faces[:, 1:-1] = 0.5 * (v[:, :-1] + v[:, 1:])
    faces[:, 0] = v[:, 0]
    faces[:, -1] = v[:, -1]
    return faces


def _diffuse(vals: np.ndarray, g: Grid1D, c: float) -> np.ndarray:
    """Solve (I - c*dx^2*L) u = vals per fiber, L the 3-point Laplacian:
    periodic on the torus, no-flux on the line (as the torus of its
    half-sample even extension, i.e. DCT-II).  rfft diagonalizes it; mode 0
    is divided by exactly 1, and the M-matrix inverse is entrywise >= 0."""
    if g.topology == "line":
        vals = np.concatenate((vals, vals[:, ::-1]), axis=1)
    n = vals.shape[1]
    damp = 1.0 + 4.0 * c * np.sin(np.pi * np.arange(n // 2 + 1) / n) ** 2
    return np.fft.irfft(np.fft.rfft(vals, axis=1) / damp, n=n, axis=1)[:, :g.n_cells]


def step_transport(f: FiberedDensity, w: SparseWeights, k: Kernel, dt: float,
                   nu: float = 0.0, velocity_method: str = "fft",
                   vfield: VelocityFieldGrid | None = None) -> FiberedDensity:
    """One step for all fibers: explicit upwind advection, then implicit diffusion."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if nu < 0:
        raise ValueError("nu must be >= 0")
    g = f.grid
    dx = g.dx
    v = (vfield or velocity(f, w, k, method=velocity_method)).values
    faces = _face_velocities(v, g.topology)
    vmax = float(np.abs(faces).max()) if faces.size else 0.0
    dt_ok = cfl_limits(vmax, dx)
    if dt > dt_ok * (1 + 1e-12):
        raise CFLError(f"dt={dt:g} violates CFL; admissible dt <= {dt_ok:g}")

    vals = f.values
    up = np.maximum(faces, 0.0)
    dn = np.minimum(faces, 0.0)
    leak = np.zeros(f.n_fibers)
    if g.topology == "torus":
        flux = up * vals + dn * np.roll(vals, -1, axis=1)
        div = flux - np.roll(flux, 1, axis=1)
    else:
        flux = np.zeros((f.n_fibers, g.n_cells + 1))
        flux[:, 1:-1] = up[:, 1:-1] * vals[:, :-1] + dn[:, 1:-1] * vals[:, 1:]
        # zero inflow at both ends; outflow feeds the leakage ledger
        flux[:, 0] = dn[:, 0] * vals[:, 0]
        flux[:, -1] = up[:, -1] * vals[:, -1]
        leak = (-flux[:, 0] + flux[:, -1]) * dt
        div = flux[:, 1:] - flux[:, :-1]
    new = vals - (dt / dx) * div
    if nu > 0:
        new = _diffuse(new, g, nu * dt / (dx * dx))

    # conservation defect of this step, after diffusion, before clamping
    drift = float(np.abs((new.sum(axis=1) - vals.sum(axis=1)) * dx + leak).max())

    clamp = 0.0
    neg = new < 0.0
    if neg.any():
        clamp = float(-new[neg].sum()) * dx
        new = np.where(neg, 0.0, new)
    return FiberedDensity(
        grid=g,
        values=new,
        time=f.time + dt,
        initial_mass=f.initial_mass,
        leakage=f.leakage + leak,
        clamp_total=f.clamp_total + clamp,
        last_mass_drift=drift,
    )


@dataclass
class SolveResult:
    snapshots: list                  # FiberedDensity at the requested times
    snapshot_times: list             # actual completed-step times used
    n_steps: int
    max_step_mass_drift: float       # largest per-fiber |mass change - ledger| per step
    final: FiberedDensity = field(repr=False, default=None)


def solve(f0: FiberedDensity, w: SparseWeights, k: Kernel, nu: float,
          t_end: float, output_times, dt: float | None = None,
          velocity_method: str = "fft", safety: float = 0.9) -> SolveResult:
    """March to t_end, returning the completed-step states nearest each
    requested output time.

    dt is auto-selected from the advective CFL bound with a safety factor
    unless given explicitly (then it is validated each step); with no
    advection and nu > 0 the bound is the cell diffusion time 0.25*dx^2/nu.
    """
    if t_end < 0:
        raise ValueError("t_end must be >= 0")
    targets = sorted(float(t) for t in output_times)
    if any(t < 0 or t > t_end + 1e-12 for t in targets):
        raise ValueError("output times must lie in [0, t_end]")
    state = f0
    snaps: dict[int, FiberedDensity] = {}
    pending = list(range(len(targets)))
    for idx in list(pending):
        if targets[idx] <= 0 or t_end == 0:
            snaps[idx] = state
            pending.remove(idx)
    max_drift = 0.0
    n_steps = 0
    while state.time < t_end - 1e-12:
        vf = velocity(state, w, k, method=velocity_method)
        vmax = float(np.abs(_face_velocities(vf.values, f0.grid.topology)).max())
        limit = cfl_limits(vmax, f0.grid.dx) if vmax != 0 or nu <= 0 else 0.25 * f0.grid.dx**2 / nu
        if limit == 0.0:
            raise CFLError(f"non-finite velocity at t={state.time:g}; no admissible dt")
        step_dt = dt if dt is not None else (safety * limit if math.isfinite(limit) else t_end - state.time)
        step_dt = min(step_dt, t_end - state.time)
        prev = state
        state = step_transport(prev, w, k, step_dt, nu=nu, vfield=vf)
        max_drift = max(max_drift, state.last_mass_drift)
        n_steps += 1
        for idx in list(pending):
            tgt = targets[idx]
            if state.time >= tgt - 1e-12:
                snaps[idx] = state if abs(state.time - tgt) <= abs(prev.time - tgt) else prev
                pending.remove(idx)
    for idx in pending:                  # targets at/after the final time
        snaps[idx] = state
    ordered = [snaps[i] for i in range(len(targets))]
    return SolveResult(
        snapshots=ordered,
        snapshot_times=[s.time for s in ordered],
        n_steps=n_steps,
        max_step_mass_drift=max_drift,
        final=state,
    )


def marginal(f: FiberedDensity) -> np.ndarray:
    """Fiber average: the one-agent statistical description of the system."""
    return f.values.mean(axis=0)
