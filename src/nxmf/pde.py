"""Coupled fibered transport on a 1-D grid.

Each fiber carries the law of one agent; the fibers are transported by a
velocity field assembled in two stages: a convolution of each fiber with
the interaction kernel, then the weight matrix acting across fibers.  The
scheme is conservative first-order upwind finite volume, followed in each
step by backward Euler diffusion (so only advection limits dt): exact
discrete mass is load-bearing for the observable machinery downstream, so
it is preferred over formal order.  `solve` is the one transport entry
point; `velocity` is `solve`'s velocity operator applied to a given
density (the hierarchy residuals use it).

Fibers that start bitwise equal and see bitwise-equal weight rows, up to
which class each column falls in, stay bitwise equal.  `solve` therefore
marches one fiber per class of the coarsest such partition (an equitable
partition, refined from the initial values) and expands the classes back
to all fibers only for the states it returns, with every output bit that
of the full march.

Boundary treatment is a choice the continuum problem does not make for us:
the torus wraps; the line uses zero inflow and accumulates advective
outflow in a per-fiber leakage ledger, with no-flux diffusion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .kernels import Domain, Kernel
from .weights import SparseWeights, _product


# fraction of the advective CFL limit an automatically chosen step takes
SAFETY = 0.9


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
        if not math.isfinite(self.x_max - self.x_min):
            raise ValueError("grid bounds must be finite")
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


def gaussian_fibers(grid: Grid1D, means, stds, weights=None) -> FiberedDensity:
    """Gaussian (or mixture) profiles per fiber, renormalized to exact unit
    mass under the midpoint rule.  1-D inputs give one single-component
    fiber per entry; 2-D inputs are (fiber, mixture component).  On a
    torus each cell takes its nearest image of every mean (_nearest_image),
    as _spectrum's kernel offsets do."""
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
            d = _nearest_image(x - mu, grid) if grid.topology == "torus" else x - mu
            acc += (wt / wsum) * np.exp(-0.5 * (d / s) ** 2) / (s * math.sqrt(2 * math.pi))
        vals[f] = acc
    vals /= vals.sum(axis=1, keepdims=True) * grid.dx
    return FiberedDensity(grid=grid, values=vals)


def _nearest_image(d: np.ndarray, g: Grid1D) -> np.ndarray:
    """d - round(d / L) L, the image of the offset d nearest to 0 on a
    torus of length L; d itself where |d| <= L / 2 (-0.0 becomes 0.0)."""
    return d - g.length * np.round(d / g.length)


def _spectrum(g: Grid1D, k: Kernel) -> np.ndarray:
    """rfft of K sampled at the cell offsets the convolution needs: wrapped
    to the nearest image on the torus; -(G-1) dx .. (G-1) dx, zero-padded
    to 2G, on the line."""
    G = g.n_cells
    if g.topology == "torus":
        off, n_fft = _nearest_image(np.arange(G) * g.dx, g), G
    else:
        off, n_fft = np.arange(-(G - 1), G) * g.dx, 2 * G
    return np.fft.rfft(np.asarray(k.eval(off[:, None])[:, 0], dtype=np.float64), n=n_fft)


class _Scratch(NamedTuple):
    """Buffers for marching n fibers on a grid of G cells, allocated once
    per solve.  P is the FFT length: G on the torus, 2G on the line (zero
    padding for the convolution, even extension for the diffusion); F is
    the face count: G on the torus, G + 1 on the line."""

    conv: np.ndarray       # (n, G) kernel convolution; wide itself on the torus
    wide: np.ndarray       # (n, P) real FFT operand
    spec: np.ndarray       # (n, P // 2 + 1) its spectrum
    faces: np.ndarray      # (n, F) face velocities, then the upwind flux
    lower: np.ndarray      # (n, F) the downwind part, then the divergence
    neg: np.ndarray        # (n, G) bool, the cells to clamp


def _scratch(n: int, g: Grid1D) -> _Scratch:
    G = g.n_cells
    torus = g.topology == "torus"
    wide = np.empty((n, G if torus else 2 * G))
    n_faces = G if torus else G + 1
    return _Scratch(conv=wide if torus else np.empty((n, G)), wide=wide,
                    spec=np.empty((n, wide.shape[1] // 2 + 1), dtype=np.complex128),
                    faces=np.empty((n, n_faces)), lower=np.empty((n, n_faces)),
                    neg=np.empty((n, G), dtype=bool))


def _convolve(vals: np.ndarray, g: Grid1D, kh: np.ndarray, buf: _Scratch):
    """Each row of vals convolved with the kernel of spectrum kh (from
    _spectrum on the same grid) by midpoint quadrature, via the FFT:
    circular on the torus, linear on the line.  Returns buf.conv."""
    G = g.n_cells
    n_fft = buf.wide.shape[1]
    np.fft.rfft(vals, n=n_fft, axis=1, out=buf.spec)
    np.multiply(buf.spec, kh, out=buf.spec)
    np.fft.irfft(buf.spec, n=n_fft, axis=1, out=buf.wide)
    src = buf.wide if g.topology == "torus" else buf.wide[:, G - 1 : 2 * G - 1]
    return np.multiply(src, g.dx, out=buf.conv)


def _field(vals: np.ndarray, g: Grid1D, a: tuple, kh: np.ndarray, buf: _Scratch) -> np.ndarray:
    """The fiber velocity field W·(K∗f) on the cells: the CSR operator
    a = (indptr, cols, values) applied across fibers to each row of vals
    convolved with the kernel of spectrum kh (buf.conv is overwritten)."""
    return _product(*a, _convolve(vals, g, kh, buf))


def _check_operands(n_fibers: int, w: SparseWeights, k: Kernel):
    if w.n_agents != n_fibers:
        raise ValueError(f"{w.n_agents} weight rows for {n_fibers} fibers")
    if k.dim != 1:
        raise ValueError("grid transport is 1-D")
    if k.self_drift is not None:
        raise ValueError("self_drift is particle-only: the transport equations have no such term")


def _domain_mismatch(g: Grid1D, domain: Domain) -> tuple[str, str] | None:
    """(grid field, reason) when g is off the kernel's domain, on which the
    particles live: another topology, or a torus other than [0, period)
    (its length to a relative 1e-12).  None when g lies on it."""
    if g.topology != domain.kind:
        return "topology", f"must be {domain.kind!r}, the kernel's domain"
    if g.topology == "torus" and not math.isclose(g.length, domain.period, rel_tol=1e-12):
        return "x_max", (f"must make x_max - x_min the kernel's period {domain.period!r}, "
                         f"not {g.length!r}")
    if g.topology == "torus" and g.x_min != 0:
        return "x_min", (f"must be 0 on a torus: the particles wrap onto [0, period), "
                         f"not {g.x_min!r}")
    return None


def velocity(f: FiberedDensity, w: SparseWeights, k: Kernel) -> np.ndarray:
    """Velocity of every fiber on the cells, shape (n_fibers, G): solve's
    field W·(K∗f) with w's own rows, not lumped, so it is an independent
    full-system reference for solve's lumped march."""
    _check_operands(f.n_fibers, w, k)
    return _field(f.values, f.grid, (w.indptr, w.cols0, w.values), _spectrum(f.grid, k),
                  _scratch(f.n_fibers, f.grid))


def cfl_limits(vmax: float, dx: float) -> float:
    """Largest admissible dt for the upwind advection; 0 when vmax is not finite."""
    if not math.isfinite(vmax):
        return 0.0
    return 0.4 * dx / vmax if vmax > 0 else math.inf


def _face_velocities(v: np.ndarray, topology: str, out: np.ndarray) -> np.ndarray:
    """Velocities at the cell faces into out: the mean of the two cells
    beside an inner face (face c sits between cells c and c + 1 on the
    torus, between c - 1 and c on the line), the end cell's velocity at a
    line end."""
    if topology == "torus":
        np.add(v[:, :-1], v[:, 1:], out=out[:, :-1])
        np.add(v[:, -1], v[:, 0], out=out[:, -1])
        return np.multiply(out, 0.5, out=out)
    inner = out[:, 1:-1]
    np.add(v[:, :-1], v[:, 1:], out=inner)
    np.multiply(inner, 0.5, out=inner)
    out[:, 0] = v[:, 0]
    out[:, -1] = v[:, -1]
    return out


def _diffuse(vals: np.ndarray, g: Grid1D, c: float, buf: _Scratch) -> np.ndarray:
    """Solve (I - c*dx^2*L) u = vals per fiber in place, L the 3-point
    Laplacian: periodic on the torus, no-flux on the line (as the torus of
    its half-sample even extension, i.e. DCT-II).  rfft diagonalizes it;
    mode 0 is divided by exactly 1, and the M-matrix inverse is entrywise
    >= 0.  Returns vals; buf supplies the FFT buffers."""
    src = vals
    if g.topology == "line":
        G = g.n_cells
        src = buf.wide
        src[:, :G] = vals
        src[:, G:] = vals[:, ::-1]
    n = src.shape[1]
    damp = 1.0 + 4.0 * c * np.sin(np.pi * np.arange(n // 2 + 1) / n) ** 2
    np.fft.rfft(src, axis=1, out=buf.spec)
    np.divide(buf.spec, damp, out=buf.spec)
    np.fft.irfft(buf.spec, n=n, axis=1, out=src)
    if src is not vals:
        vals[...] = src[:, :g.n_cells]
    return vals


def _step(vals: np.ndarray, g: Grid1D, dt: float, nu: float, out: np.ndarray,
          buf: _Scratch, expand: np.ndarray | None = None):
    """One step for all marched fibers into out: explicit upwind advection
    with the face velocities in buf.faces (which the step overwrites), then
    implicit diffusion.

    Returns the advective outflow per fiber (line only), the clamped mass
    and the step's conservation defect, measured after diffusion and before
    roundoff negatives are clamped to zero.  When vals holds one row per
    class, expand (the class of every fiber) gives the clamped mass as the
    sum over the full system, in its order.  Every operation is that of the
    array expressions up * vals + dn * roll(vals, -1) and flux - roll(flux,
    1) (torus), in the same order, so out is bitwise their result.
    """
    dx = g.dx
    dn = np.minimum(buf.faces, 0.0, out=buf.lower)
    up = np.maximum(buf.faces, 0.0, out=buf.faces)
    flux = up                  # the flux overwrites up, the divergence dn
    leak = np.zeros(vals.shape[0])
    if g.topology == "torus":
        np.multiply(up, vals, out=flux)
        np.multiply(dn[:, :-1], vals[:, 1:], out=dn[:, :-1])
        np.multiply(dn[:, -1], vals[:, 0], out=dn[:, -1])
        np.add(flux, dn, out=flux)
        div = dn
        np.subtract(flux[:, 1:], flux[:, :-1], out=div[:, 1:])
        np.subtract(flux[:, 0], flux[:, -1], out=div[:, 0])
    else:
        inner = flux[:, 1:-1]
        np.multiply(up[:, 1:-1], vals[:, :-1], out=inner)
        np.multiply(dn[:, 1:-1], vals[:, 1:], out=dn[:, 1:-1])
        np.add(inner, dn[:, 1:-1], out=inner)
        # zero inflow at both ends; outflow feeds the leakage ledger
        np.multiply(dn[:, 0], vals[:, 0], out=flux[:, 0])
        np.multiply(up[:, -1], vals[:, -1], out=flux[:, -1])
        leak = (-flux[:, 0] + flux[:, -1]) * dt
        div = dn[:, :-1]
        np.subtract(flux[:, 1:], flux[:, :-1], out=div)
    np.multiply(div, dt / dx, out=div)
    new = np.subtract(vals, div, out=out)
    if nu > 0:
        _diffuse(new, g, nu * dt / (dx * dx), buf)
    defect = float(np.abs((new.sum(axis=1) - vals.sum(axis=1)) * dx + leak).max())
    clamp = 0.0
    neg = np.less(new, 0.0, out=buf.neg)
    if neg.any():
        full = new[neg] if expand is None else new[expand][neg[expand]]
        clamp = float(-full.sum()) * dx
        np.copyto(new, 0.0, where=neg)
    return leak, clamp, defect


def _row_classes(a: np.ndarray) -> np.ndarray:
    """Class of each row of a 2-D array of 8-byte items under bitwise
    equality, numbered 0, 1, ... in order of first appearance."""
    a = np.ascontiguousarray(a).view(np.int64)
    # a stable sort of the rows as byte strings puts equal rows together,
    # each class led by its first row
    order = np.argsort(a.view(np.dtype((np.void, 8 * a.shape[1]))).ravel(), kind="stable")
    rows = a[order]
    lead = np.concatenate(([True], (rows[1:] != rows[:-1]).any(axis=1)))
    rank = np.empty(order.size, dtype=np.int64)
    rank[np.argsort(order[lead])] = np.arange(np.count_nonzero(lead))
    out = np.empty_like(rank)
    out[order] = rank[np.cumsum(lead) - 1]
    return out


def _fiber_classes(f: FiberedDensity, w: SparseWeights) -> np.ndarray:
    """Class of each fiber in the coarsest exact lumping of the march with
    weight matrix w, numbered in order of first appearance (so the
    identity when no two fibers lump).

    Fibers of one class hold bitwise-equal values and leakage, and their
    weight rows list the same sequence of (class of column, weight bits) in
    stored order.  The partition starts from the values and leakage and is
    refined until the class count stops growing; when every fiber is
    already alone, no weight row is read.
    """
    color = _row_classes(np.column_stack((f.values, f.leakage)))
    n_classes = int(color.max()) + 1
    if n_classes == f.n_fibers:
        return color
    # the weight rows grouped by length, as (fibers, columns, weight bits)
    lengths = np.diff(w.indptr)
    groups = []
    for length in np.unique(lengths):
        rows = np.flatnonzero(lengths == length)
        idx = w.indptr[rows, None] + np.arange(length)
        groups.append((rows, w.cols0[idx], w.values.view(np.int64)[idx]))
    while n_classes < f.n_fibers:
        sub = np.empty_like(color)
        for rows, cols, bits in groups:
            sub[rows] = _row_classes(np.column_stack((color[rows], color[cols], bits)))
        refined = _row_classes(np.column_stack((lengths, sub)))
        if int(refined.max()) + 1 == n_classes:
            break
        color, n_classes = refined, int(refined.max()) + 1
    return color


@dataclass
class SolveResult:
    snapshots: list                  # FiberedDensity at the requested times
    n_steps: int
    max_step_mass_drift: float       # largest per-fiber |mass change - ledger| per step
    final: FiberedDensity = field(repr=False, default=None)


def _output_times(output_times, t_end: float) -> list[float]:
    """The output times sorted; each must lie in [0, t_end]."""
    targets = sorted(float(t) for t in output_times)
    if not all(0 <= t <= t_end + 1e-12 for t in targets):      # also rejects NaN
        raise ValueError("output times must lie in [0, t_end]")
    return targets


def solve(f0: FiberedDensity, w: SparseWeights, k: Kernel, nu: float,
          t_end: float, output_times, dt: float | None = None) -> SolveResult:
    """March to t_end, returning the completed-step states nearest each
    requested output time.

    dt is auto-selected as SAFETY times the advective CFL bound unless given
    explicitly (then it is validated each step); with no advection and
    nu > 0 the bound is the cell diffusion time 0.25*dx^2/nu.  The march
    works on raw arrays; the kernel spectrum is computed once per call, the
    velocity once per step, and a FiberedDensity (validated) is built only
    for the returned states.  Each step writes into buffers allocated once
    per call (ufunc and FFT out= arguments, two state arrays used in turn),
    with the operations of the array expressions they stand for in the same
    order, so no output bit depends on them.

    The march is lumped exactly.  Fibers with bitwise-equal values and
    leakage whose weight rows list the same (class of column, weight)
    sequence in stored order stay bitwise equal, so only one representative
    per class is marched, against the representatives' rows with each
    column replaced by its class.  Every product row then adds the same
    numbers in the same order as in the full system, the returned states
    are expanded to every fiber, and a clamped mass is summed over the
    expanded rows: snapshots, final state, step count and per-step mass
    drift are bitwise those of the full march.
    """
    if t_end < 0:
        raise ValueError("t_end must be >= 0")
    if dt is not None and not dt > 0:
        raise ValueError("dt must be positive")
    if not nu >= 0:
        raise ValueError("nu must be >= 0")
    _check_operands(f0.n_fibers, w, k)
    targets = _output_times(output_times, t_end)
    g = f0.grid
    dx = g.dx
    a = (w.indptr, w.cols0, w.values)       # the CSR operator the march applies
    color = _fiber_classes(f0, w)
    n_classes = int(color.max()) + 1
    vals, leakage, expand = f0.values, f0.leakage, None
    if n_classes < f0.n_fibers:
        # one representative per class; its stored row, each column replaced
        # by its class and duplicates kept in stored order, adds the same
        # terms in the same order as the full row
        reps = np.unique(color, return_index=True)[1]
        starts, lengths = w.indptr[reps], np.diff(w.indptr)[reps]
        ptr = np.concatenate(([0], np.cumsum(lengths)))
        take = np.repeat(starts - ptr[:-1], lengths) + np.arange(ptr[-1])
        a = (ptr, color[w.cols0[take]], w.values[take])
        vals, leakage, expand = vals[reps], leakage[reps], color

    def density(vals, time, leakage, clamp_total):
        if expand is None:
            vals = vals.copy()          # the march reuses its state buffers
        else:
            vals, leakage = vals[expand], leakage[expand]
        return FiberedDensity(grid=g, values=vals, time=time, initial_mass=f0.initial_mass,
                              leakage=leakage, clamp_total=clamp_total)

    snaps = [f0 for t in targets if t <= 0 or t_end == 0]
    kh = _spectrum(g, k)
    buf = _scratch(vals.shape[0], g)
    # step i writes spare[i % 2], so it never overwrites its input
    spare = (np.empty_like(vals), np.empty_like(vals))
    state = (vals, f0.time, leakage, f0.clamp_total)
    max_drift = 0.0
    n_steps = 0
    while state[1] < t_end - 1e-12:
        prev = state
        vals, time, leakage, clamp_total = prev
        faces = _face_velocities(_field(vals, g, a, kh, buf), g.topology, buf.faces)
        vmax = float(np.abs(faces, out=buf.lower).max())
        dt_ok = cfl_limits(vmax, dx)
        limit = dt_ok if vmax != 0 or nu <= 0 else 0.25 * dx**2 / nu
        if limit == 0.0:
            raise CFLError(f"non-finite velocity at t={time:g}; no admissible dt")
        step_dt = dt if dt is not None else (SAFETY * limit if math.isfinite(limit) else t_end - time)
        step_dt = min(step_dt, t_end - time)
        if step_dt > dt_ok * (1 + 1e-12):
            raise CFLError(f"dt={step_dt:g} violates CFL; admissible dt <= {dt_ok:g}")
        new = spare[n_steps % 2]
        leak, clamp, defect = _step(vals, g, step_dt, nu, new, buf, expand)
        state = (new, time + step_dt, leakage + leak, clamp_total + clamp)
        max_drift = max(max_drift, defect)
        n_steps += 1
        while len(snaps) < len(targets) and state[1] >= targets[len(snaps)] - 1e-12:
            tgt = targets[len(snaps)]
            nearest = state if abs(state[1] - tgt) <= abs(time - tgt) else prev
            snaps.append(density(*nearest))
    final = density(*state)
    snaps += [final] * (len(targets) - len(snaps))      # targets at/after the final time
    return SolveResult(
        snapshots=snaps,
        n_steps=n_steps,
        max_step_mass_drift=max_drift,
        final=final,
    )


def marginal(f: FiberedDensity) -> np.ndarray:
    """Fiber average: the one-agent statistical description of the system."""
    return f.values.mean(axis=0)
