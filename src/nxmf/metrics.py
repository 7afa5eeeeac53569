"""Wasserstein-1 distances and convergence gap diagnostics.

w1 is exact in one dimension: the integral of |CDF_a - CDF_b| over the
merged breakpoint partition, with atom laws contributing step CDFs and
grid laws piecewise-linear ones.  The gap estimators compare Monte Carlo
particle laws against the coupled transport solution and report the
explicit error constant

    C1(t) = sqrt(2/C) (exp(2 C t |K|_{W1,inf}) - 1),

where C bounds the row sums.  Every
report carries its own estimator tolerance (3 * stderr + dx): expectations
are seed averages, so bounds are only meaningful together with the Monte
Carlo and grid resolution.  With path noise the seed average conflates
initial and path randomness; both are driven by the same master seed.
convergence_gaps computes both estimates from one particle run and one
solve.

The estimators compute their W1 distances in batches (_w1_atoms_vs_grid):
each row of samples is sorted, its fiber validated and its knots merged
once for the plain estimate and every bootstrap draw, with repeated knots
and atoms of zero weight kept.  Each batched value is bitwise equal to w1
on the corresponding Law1D pair, which stays the public reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import seeding
from .kernels import Kernel
from .particles import _spans, integrate
from .pde import (FiberedDensity, Grid1D, _check_operands, _domain_mismatch, _output_times,
                  gaussian_fibers, marginal, solve)
from .weights import SparseWeights, check_scaling

MASS_TOL = 1e-9
W1_CHUNK = 1 << 14     # (draw, row, knot) elements per block of the batched W1
N_BOOTSTRAP = 64       # bootstrap draws behind an independence gap's stderr


class Law1D:
    """A probability law on the line: weighted atoms or a grid density."""

    def __init__(self, breakpoints, cdf_knots, kind):
        self.breakpoints = breakpoints
        self.cdf_knots = cdf_knots
        self.kind = kind

    @classmethod
    def from_atoms(cls, positions, weights=None) -> "Law1D":
        x = np.asarray(positions, dtype=np.float64).ravel()
        if x.size == 0:
            raise ValueError("need at least one atom")
        if weights is None:
            w = np.full(x.size, 1.0 / x.size)
        else:
            w = np.asarray(weights, dtype=np.float64).ravel()
        if not (np.isfinite(x).all() and np.isfinite(w).all()):
            raise ValueError("atom positions and weights must be finite")
        if np.any(w < 0):
            raise ValueError("atom weights must be >= 0")
        total = w.sum()
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"total mass {total} != 1")
        order = np.argsort(x, kind="stable")
        x, w = x[order], w[order]
        return cls(x, np.cumsum(w), "atoms")

    @classmethod
    def from_grid(cls, grid: Grid1D, values) -> "Law1D":
        v = _grid_densities(grid, np.ravel(values)[None], 1)[0]
        edges = grid.x_min + np.arange(grid.n_cells + 1) * grid.dx
        cdf = np.concatenate(([0.0], np.cumsum(v) * grid.dx))
        return cls(edges, cdf, "grid")

    def cdf(self, x: np.ndarray) -> np.ndarray:
        """CDF evaluated from the right (value on [x, next breakpoint))."""
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "atoms":
            idx = np.searchsorted(self.breakpoints, x, side="right")
            padded = np.concatenate(([0.0], self.cdf_knots))
            return padded[idx]
        return np.interp(x, self.breakpoints, self.cdf_knots, left=0.0, right=1.0)


def w1(a: Law1D, b: Law1D) -> float:
    """Exact 1-D Wasserstein-1 distance: integral of |CDF_a - CDF_b|.

    Both CDFs are affine between merged breakpoints (constant for atom
    laws), so each segment integrates in closed form, splitting at the
    sign change when the difference crosses zero.  Equal breakpoints stay
    knots; the segment between them adds exactly 0.0.
    """
    knots = np.sort(np.concatenate((a.breakpoints, b.breakpoints)))
    fa = a.cdf(knots)
    fb = b.cdf(knots)
    lengths = np.diff(knots)
    # difference at the left (just right of the knot) and right end of
    # each segment; step CDFs are flat inside, linear ones interpolate
    d0 = fa[:-1] - fb[:-1]
    ra = fa[1:] if a.kind == "grid" else fa[:-1]
    rb = fb[1:] if b.kind == "grid" else fb[:-1]
    d1 = ra - rb
    return float(_segment_integrals(d0, d1, lengths).sum())


def _grid_densities(grid: Grid1D, values, rows: int) -> np.ndarray:
    """values as a float64 (rows, G) array of grid densities on grid,
    rejected unless of that shape, finite and >= 0, with every row of unit
    mass within MASS_TOL."""
    v = np.asarray(values, dtype=np.float64)
    if v.shape != (rows, grid.n_cells):
        raise ValueError("values length must equal the cell count")
    if not (v.min(initial=0.0) >= 0 and v.max(initial=0.0) < math.inf):
        raise ValueError("densities must be finite and >= 0")
    mass = v.sum(axis=1) * grid.dx
    off = np.abs(mass - 1.0) > MASS_TOL
    if off.any():
        raise ValueError(f"total mass {mass[off][0]} != 1")
    return v


def _segment_integrals(d0, d1, lengths):
    """Integral of |d| over segments where d is affine from d0 to d1 (arrays
    of one shape, lengths broadcast against them)."""
    same = d0 * d1 >= 0
    denom = np.abs(d0) + np.abs(d1)
    out = 0.5 * denom
    # the crossing branch, only where d changes sign (or is NaN)
    cross = np.flatnonzero(~same)
    a, b = d0.ravel()[cross], d1.ravel()[cross]
    out.ravel()[cross] = 0.5 * (a * a + b * b) / np.maximum(denom.ravel()[cross], 1e-300)
    return np.multiply(out, lengths, out=out)


def _w1_atoms_vs_grid(atoms, grid: Grid1D, densities, weights) -> np.ndarray:
    """W1 of atoms (rows, m) weighted by each of weights (draws, m) against
    grid densities (rows, G), shape (draws, rows).

    Entry (d, r) is bitwise equal to w1(Law1D.from_atoms(atoms[r],
    weights[d]), Law1D.from_grid(grid, densities[r])): the same knots, CDF
    values and segment arithmetic, and one sum over the row's segments.
    The m + G + 1 knots (sorted atoms and grid edges, repeats and atoms of
    zero weight kept), the atoms at or before each knot, the grid CDF at
    the knots and the segment lengths depend on the row alone.  They are
    set up once for a block of about W1_CHUNK // (m + G + 1) rows in one
    dense (row, knot) array.  A knot's atom count is exact at the last of a
    run of equal knots, the only place where a segment has positive length.
    The segment pass then reads each draw's cumulative weights at the knots
    with one flat take, a few draws at a time, so that each pass holds
    about W1_CHUNK (draw, row, knot) elements.
    """
    x = np.asarray(atoms, dtype=np.float64)
    wv = np.asarray(weights, dtype=np.float64)
    rows, m = x.shape
    v = _grid_densities(grid, densities, rows)
    if not np.isfinite(x).all():
        raise ValueError("atom positions must be finite")
    if not (np.all(wv >= 0) and np.all(np.abs(wv.sum(axis=1) - 1.0) <= MASS_TOL)):
        raise ValueError("atom weights must be finite, >= 0 and of total mass 1")
    edges = grid.x_min + np.arange(grid.n_cells + 1) * grid.dx
    n_draws = wv.shape[0]
    out = np.empty((n_draws, rows))
    block = max(1, W1_CHUNK // (m + edges.size))
    for lo in range(0, rows, block):
        xb = x[lo:lo + block]
        b = xb.shape[0]
        cdf = np.zeros((b, edges.size))
        cdf[:, 1:] = np.cumsum(v[lo:lo + b], axis=1) * grid.dx
        # per row: the sorted atoms merged with the edges, and the atoms at
        # or before each knot
        order = np.argsort(xb, axis=1, kind="stable")
        merged = np.concatenate((np.take_along_axis(xb, order, axis=1),
                                 np.broadcast_to(edges, (b, edges.size))), axis=1)
        morder = np.argsort(merged, axis=1, kind="stable")
        knots = np.take_along_axis(merged, morder, axis=1)
        # flat index of each segment's cumulative weight in a draw's (b, m + 1) block
        at = np.cumsum(morder < m, axis=1)[:, :-1] + (m + 1) * np.arange(b)[:, None]
        fb = np.array([np.interp(kn, edges, c, left=0.0, right=1.0) for kn, c in zip(knots, cdf)])
        fb0, fb1, lengths = fb[:, :-1], fb[:, 1:], np.diff(knots, axis=1)
        # per draw: the cumulative weights, in each row's atom order
        step = max(1, W1_CHUNK // (b * (m + edges.size)))
        for dlo in range(0, n_draws, step):
            wd = wv[dlo:dlo + step]
            cum = np.zeros((wd.shape[0], b, m + 1))
            np.cumsum(wd[:, order], axis=2, out=cum[..., 1:])
            fa = np.take(cum.reshape(wd.shape[0], -1), at, axis=1)
            seg = _segment_integrals(fa - fb0, fa - fb1, lengths)
            # over a contiguous last axis the sum is the 1-D sum w1 takes
            out[dlo:dlo + step, lo:lo + b] = seg.sum(axis=-1)
    return out


def c1(t: float, row_sum_bound: float, k_w1inf: float) -> float:
    """Explicit pathwise coupling constant C1(t)."""
    if not (t >= 0 and row_sum_bound >= 0 and k_w1inf >= 0):     # also rejects NaN
        raise ValueError("arguments must be >= 0")
    if row_sum_bound == 0:
        return 0.0
    return math.sqrt(2.0 / row_sum_bound) * (math.exp(2.0 * row_sum_bound * t * k_w1inf) - 1.0)


@dataclass(frozen=True)
class GapReport:
    t: float
    gap: float
    bound: float
    stderr: float
    seeds: int
    dx: float = 0.0

    @property
    def tolerance(self) -> float:
        """Estimator slack to add to the bound: 3 stderr + grid dx."""
        return 3.0 * self.stderr + self.dx


@dataclass(frozen=True)
class AgentLawSpec:
    """Per-agent gaussian mixture initial laws."""

    means: np.ndarray          # (N, n_comp)
    stds: np.ndarray           # (N, n_comp)
    weights: np.ndarray        # (N, n_comp)

    @classmethod
    def spread(cls, n: int, mean_lo: float, mean_hi: float, std: float) -> "AgentLawSpec":
        means = np.linspace(mean_lo, mean_hi, n)[:, None]
        return cls(means=means, stds=np.full((n, 1), std), weights=np.ones((n, 1)))

    @classmethod
    def scatter(cls, n: int, mean_lo: float, mean_hi: float, std: float) -> "AgentLawSpec":
        """Low-discrepancy mean placement (golden-ratio sequence).

        Unlike spread, consecutive agents get well-separated means, so
        block-structured couplings see the full heterogeneity inside every
        block; deterministic, no seed involved.
        """
        golden = (math.sqrt(5.0) - 1.0) / 2.0
        frac = np.mod((np.arange(n) + 1) * golden, 1.0)
        means = (mean_lo + (mean_hi - mean_lo) * frac)[:, None]
        return cls(means=means, stds=np.full((n, 1), std), weights=np.ones((n, 1)))

    @property
    def n_agents(self) -> int:
        return self.means.shape[0]

    def fibers(self, grid: Grid1D) -> FiberedDensity:
        return gaussian_fibers(grid, self.means, self.stds, self.weights)

    def sample(self, rng) -> np.ndarray:
        """One draw per agent, shape (N, 1)."""
        n, nc = self.means.shape
        if nc == 1:
            z = rng.standard_normal(n)
            x = self.means[:, 0] + self.stds[:, 0] * z
        else:
            p = self.weights / self.weights.sum(axis=1, keepdims=True)
            cump = np.cumsum(p, axis=1)
            # separate child streams: agent i's draw depends on i only, not on n
            urng, zrng = rng.spawn(2)
            u = urng.random(n)
            comp = (u[:, None] > cump).sum(axis=1)
            z = zrng.standard_normal(n)
            idx = np.arange(n)
            x = self.means[idx, comp] + self.stds[idx, comp] * z
        return x[:, None]

    def sample_replicas(self, master_seed: int, n_replicas: int) -> np.ndarray:
        """Initial positions of replicas 0..R-1, shape (R, N, 1); replica r
        draws from its own (INIT, r) stream."""
        return np.stack([self.sample(seeding.stream(master_seed, seeding.INIT, r))
                         for r in range(n_replicas)])


def _run(w, k, laws: AgentLawSpec, grid: Grid1D, times, t_end, dt, master_seed, n_replicas,
         sigma):
    """Positions of replicas 0..n_replicas-1 at each sorted time, shape
    (len(times), R, N), and the fibers solved to t_end nearest each time."""
    traj = integrate(w, k, laws.sample_replicas(master_seed, n_replicas), times, dt, sigma,
                     master_seed)[..., 0]
    res = solve(laws.fibers(grid), w, k, nu=0.5 * sigma * sigma, t_end=t_end, output_times=times)
    return traj, res.snapshots


def _check_inputs(w: SparseWeights, k: Kernel, laws: AgentLawSpec, grid: Grid1D):
    """Reject, before any particle step, what solve would reject after it,
    and a grid off the kernel's domain (the rule a config's grid obeys)."""
    _check_operands(laws.n_agents, w, k)
    bad = _domain_mismatch(grid, k.domain)
    if bad is not None:
        raise ValueError(f"grid.{bad[0]} {bad[1]}")


def _bound(t, scaling, k: Kernel) -> float:
    return c1(t, scaling.max_row_abs_sum, k.w1inf_norm) * math.sqrt(scaling.max_entry_abs)


def _independence_report(samples, fibers, grid: Grid1D, t, scaling, k: Kernel, master_seed,
                         n_bootstrap) -> GapReport:
    """The independence gap from replica positions (R, N) at time t and the
    fibers solved to t."""
    n_replicas = samples.shape[0]
    # draw 0 weights every replica equally; the bootstrap draws follow it
    brng = seeding.stream(master_seed, seeding.BOOTSTRAP)
    counts = [np.ones(n_replicas, dtype=np.int64)]
    counts += [brng.multinomial(n_replicas, np.full(n_replicas, 1.0 / n_replicas))
               for _ in range(n_bootstrap)]
    dist = _w1_atoms_vs_grid(samples.T, grid, fibers.values, np.stack(counts) / n_replicas)
    return GapReport(t=t, gap=float(dist[0].max()), bound=_bound(t, scaling, k),
                     stderr=float(dist[1:].max(axis=1).std(ddof=1)), seeds=n_replicas,
                     dx=grid.dx)


def _meanfield_reports(traj, snapshots, grid: Grid1D, times, scaling,
                       k: Kernel) -> list[GapReport]:
    """The mean-field gaps from seed positions (len(times), S, N) and the
    fibers solved near each time."""
    n_times, n_seeds, n = traj.shape
    per_time = _w1_atoms_vs_grid(traj.reshape(n_times * n_seeds, n), grid,
                                 np.repeat([marginal(s) for s in snapshots], n_seeds, axis=0),
                                 np.full((1, n), 1.0 / n))[0].reshape(n_times, n_seeds)
    return [GapReport(t=t, gap=float(vals.mean()), bound=_bound(t, scaling, k),
                      stderr=float(vals.std(ddof=1) / math.sqrt(n_seeds)) if n_seeds > 1 else 0.0,
                      seeds=n_seeds, dx=grid.dx)
            for t, vals in zip(times, per_time)]


def independence_gap(w: SparseWeights, k: Kernel, laws: AgentLawSpec, grid: Grid1D,
                     t_end: float, dt: float, master_seed: int, n_replicas: int,
                     sigma: float = 0.0, n_bootstrap: int = N_BOOTSTRAP) -> GapReport:
    """Largest per-agent W1 distance between the Monte Carlo law of X_i(t)
    and the corresponding solved fiber, against the explicit coupling bound
    C1(t) * sup|w_ij|^(1/2).

    Replicas draw independent initial positions per agent from the given
    laws; each agent's law at time t is estimated by its cross-replica
    empirical measure.
    """
    if n_replicas < 100:
        raise ValueError("need at least 100 replicas for a usable estimate")
    if n_bootstrap < 2:
        raise ValueError("need at least 2 bootstrap draws for a stderr")
    _check_inputs(w, k, laws, grid)
    scaling = check_scaling(w)
    traj, fibers = _run(w, k, laws, grid, [t_end], t_end, dt, master_seed, n_replicas, sigma)
    return _independence_report(traj[0], fibers[0], grid, t_end, scaling, k, master_seed,
                                n_bootstrap)


def meanfield_gap(w: SparseWeights, k: Kernel, laws: AgentLawSpec, grid: Grid1D,
                  times, dt: float, master_seed: int, n_seeds: int,
                  sigma: float = 0.0) -> list[GapReport]:
    """Seed-averaged W1 between the empirical measure and the fiber-averaged
    transport solution at each requested time.

    The bound column carries only the quantified coupling constant
    C1(t) sup|w|^(1/2); the finite-N sampling term decays like N^-theta
    with constants that are not quantified here, so small-N gaps can
    exceed the column and only the qualitative N-decay is testable.
    """
    _check_inputs(w, k, laws, grid)
    if n_seeds < 1:
        raise ValueError("need at least one seed")
    times = sorted(float(t) for t in times)
    if not times:
        raise ValueError("need at least one output time")
    scaling = check_scaling(w)
    traj, fibers = _run(w, k, laws, grid, times, times[-1], dt, master_seed, n_seeds, sigma)
    return _meanfield_reports(traj, fibers, grid, times, scaling, k)


def convergence_gaps(w: SparseWeights, k: Kernel, laws: AgentLawSpec, grid: Grid1D,
                     t_end: float, snapshots, dt: float, master_seed: int, n_replicas: int,
                     n_seeds: int, sigma: float = 0.0) -> tuple[GapReport, list[GapReport]]:
    """independence_gap at t_end over n_replicas replicas and meanfield_gap
    at each snapshot over the first n_seeds of them, from one particle run
    to the snapshots and t_end and one solve to t_end.

    A replica's trajectory does not depend on the replica count, so the
    seeds are those meanfield_gap would run.  Both reports equal the two
    estimators' bit for bit when every snapshot lies on the dt grid of
    [0, t_end] and t_end is the last snapshot.  Otherwise an off-grid
    snapshot changes the independence run's steps, and a last snapshot
    before t_end reads solve's nearest completed step, not a step clipped
    to it.  The stability guard is also checked on the steps
    independence_gap would take, so the same inputs are rejected.

    Every replica steps once per span between the sorted times, so the run
    saves work only while the snapshots are no closer together than dt:
    denser snapshots make all n_replicas replicas take the steps that
    meanfield_gap's n_seeds would take alone.
    """
    if n_replicas < 100:
        raise ValueError("need at least 100 replicas for a usable estimate")
    _check_inputs(w, k, laws, grid)
    snaps = _output_times(snapshots, t_end)        # solve's rule, before any step
    if not snaps:
        raise ValueError("need at least one output time")
    if not 1 <= n_seeds <= n_replicas:
        raise ValueError("need 1 <= n_seeds <= n_replicas")
    scaling = check_scaling(w)
    _spans(w, k, [t_end], dt)          # the guard on independence_gap's steps
    times = sorted(set(snaps) | {float(t_end)})
    traj, fibers = _run(w, k, laws, grid, times, t_end, dt, master_seed, n_replicas, sigma)
    at = np.searchsorted(times, snaps)
    return (_independence_report(traj[-1], fibers[-1], grid, t_end, scaling, k, master_seed,
                                  N_BOOTSTRAP),
            _meanfield_reports(traj[at, :n_seeds], [fibers[i] for i in at], grid, snaps,
                               scaling, k))
