"""Tree-indexed observables of a (weights, fibered density) pair.

An observable attaches one spatial variable to every vertex of a labeled
tree, one weight factor to every oriented edge, and averages the agent
index of every vertex:

    tau(T, w, f)(x_1..x_m) = (1/N) sum_{i_1..i_m} prod_{(k,l) edges} w_{i_k i_l}
                             prod_v f_{i_v}(x_v).

Evaluation never forms that m-fold sum: messages travel from the leaves to
the root, each child contributing a sparse matrix-vector product across
the fiber index.  The cell measure 1/N of the fiber interval cancels the N
in the piecewise-constant graphon normalization, so each message crosses
an edge by the raw sparse weight action -- apply no additional scaling.
The root sums its message over fibers a bounded block at a time, so an
order-m lattice on G cells takes O(N G^(m-1) + G^m) memory, not O(N G^m).

The reference for these values is the literal N^m index sum; that
brute-force oracle lives in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import Kernel
from .pde import FiberedDensity, Grid1D, velocity
from .trees import LabeledTree, enumerate_trees
from .weights import SparseWeights, check_scaling, kernel_apply

TAU_ORDER_CAP = 4
DENSITY_ORDER_CAP = 8
# tau still counts n_fibers * G^order entries against the budget, the size
# of the fiber-by-lattice array it no longer forms, so the same lattices
# are rejected.
DEFAULT_BUDGET = 1 << 26
ROOT_BLOCK = 1 << 18              # entries of one block of tau's root message


class LatticeBudgetError(MemoryError):
    """Full-lattice evaluation would exceed the memory budget."""


# ---------------------------------------------------------------------------
# tau by message passing
# ---------------------------------------------------------------------------

def _check_budget(n_fibers: int, g_cells: int, order: int):
    need = n_fibers * g_cells**order
    if need > DEFAULT_BUDGET:
        raise LatticeBudgetError(
            f"lattice evaluation needs {need} entries (> budget {DEFAULT_BUDGET}); "
            "evaluate at a supplied list of x-tuples instead (tau_at)"
        )


def _outer(msg: np.ndarray, child: np.ndarray) -> np.ndarray:
    """Per-fiber outer product: child's variable axes follow msg's."""
    a = msg.reshape(msg.shape[0], -1, 1)
    b = child.reshape(child.shape[0], 1, -1)
    return (a * b).reshape(msg.shape + child.shape[1:])


def _messages_root(t: LabeledTree, w: SparseWeights, leaf_of, join=_outer):
    """Leaves-to-root message passing, stopping short of the root product.

    leaf_of(v) supplies vertex v's per-fiber factor (fiber index first); join
    combines it with each message sent to v: _outer gives every vertex its
    own variable axes, np.multiply one shared axis (tau_at, tau_density).
    Returns the root's factor, the messages its children send across their
    edges, and the variable order of the root message's trailing axes.
    """
    messages: dict[int, tuple[np.ndarray, list[int]]] = {}
    for v in range(t.order, 0, -1):
        sent = []
        var_order = [v]
        for c in t.children(v):
            mc, vars_c = messages.pop(c)
            sent.append(kernel_apply(w, mc))
            var_order.extend(vars_c)
        if v == 1:
            return leaf_of(1), sent, var_order
        msg = leaf_of(v)
        for s in sent:
            msg = join(msg, s)
        messages[v] = (msg, var_order)


@dataclass(frozen=True)
class Observable:
    """tau(T, w, f) tabulated on the full grid^order lattice, axes ordered
    by vertex label."""

    tree: LabeledTree
    grid: Grid1D
    values: np.ndarray

    @property
    def order(self) -> int:
        return self.tree.order

    def integral(self) -> float:
        """Total integral over all variables (cell measure dx^order)."""
        return float(self.values.sum()) * self.grid.dx ** self.order

    def l2_norm(self) -> float:
        return math.sqrt(float((self.values ** 2).sum()) * self.grid.dx ** self.order)

    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())


def tau(t: LabeledTree, w: SparseWeights, f: FiberedDensity,
        vertex_factors: dict[int, np.ndarray] | None = None) -> Observable:
    """Observable on the full lattice.

    vertex_factors optionally multiplies vertex v's per-fiber profile by an
    extra (n_fibers, G) factor; the hierarchy residual uses this to fold
    the kernel contraction of a grown tree back onto the original lattice.
    """
    if t.order > TAU_ORDER_CAP:
        raise ValueError(f"tau lattice evaluation capped at order {TAU_ORDER_CAP}")
    if w.n_agents != f.n_fibers:
        raise ValueError("weights and density disagree on the fiber count")
    _check_budget(f.n_fibers, f.grid.n_cells, t.order)
    factors = vertex_factors or {}

    def leaf_of(v):
        base = f.values
        if v in factors:
            base = base * factors[v]
        return base

    leaf, sent, var_order = _messages_root(t, w, leaf_of)
    # The fiber mean of the root message, formed ROOT_BLOCK entries at a
    # time.  Its rows have G >= 8 entries (Grid1D), so add.reduce along
    # axis 0 adds them in order (rows of one entry would be summed
    # pairwise); putting the running sum into each block's first row
    # (a + b == b + a) then gives the bits of the whole message's
    # mean(axis=0).
    step = max(1, ROOT_BLOCK // f.grid.n_cells ** t.order)
    total = None
    for lo in range(0, f.n_fibers, step):
        blk = leaf[lo:lo + step]
        for s in sent:
            blk = _outer(blk, s[lo:lo + step])
        if not sent:
            blk = blk.copy()        # a view of the caller's fibers
        if total is not None:
            blk[0] += total
        total = np.add.reduce(blk, axis=0)
        del blk                     # one block alive at a time
    lattice = total / f.n_fibers
    # transpose trailing axes from message order to vertex-label order
    perm = np.argsort(np.asarray(var_order))
    lattice = np.transpose(lattice, axes=tuple(perm))
    return Observable(tree=t, grid=f.grid, values=lattice)


def tau_at(t: LabeledTree, w: SparseWeights, f: FiberedDensity,
           cells: np.ndarray) -> np.ndarray:
    """Observable sampled at a list of x-tuples given as cell indices in
    [0, n_cells), shape (n_points, order); memory stays
    O(n_fibers * n_points)."""
    if w.n_agents != f.n_fibers:
        raise ValueError("weights and density disagree on the fiber count")
    cells = np.asarray(cells, dtype=np.int64)
    if cells.ndim != 2 or cells.shape[1] != t.order:
        raise ValueError("cells must have shape (n_points, order)")
    if cells.size and not (cells.min() >= 0 and cells.max() < f.grid.n_cells):
        raise ValueError(f"cell indices must lie in [0, {f.grid.n_cells})")
    leaf, sent, _ = _messages_root(t, w, lambda v: f.values[:, cells[:, v - 1]], np.multiply)
    return math.prod(sent, start=leaf).mean(axis=0)


def tau_density(t: LabeledTree, w: SparseWeights) -> float:
    """Homomorphism density of the tree in the weighted graph (f == 1).

    Satisfies |tau(T, w)| <= max_row_abs_sum^(order - 1).
    """
    if t.order > DENSITY_ORDER_CAP:
        raise ValueError(f"density computation capped at order {DENSITY_ORDER_CAP}")
    ones = np.ones(w.n_agents)
    leaf, sent, _ = _messages_root(t, w, lambda v: ones, np.multiply)
    return float(math.prod(sent, start=leaf).mean())


# ---------------------------------------------------------------------------
# hierarchy
# ---------------------------------------------------------------------------

@dataclass
class HierarchyState:
    """All observables of order <= n_max, with the geometric weight lam."""

    observables: dict[LabeledTree, Observable]
    lam: float
    n_max: int


def hierarchy(w: SparseWeights, f: FiberedDensity, n_max: int, lam: float) -> HierarchyState:
    if not 1 <= n_max <= TAU_ORDER_CAP:
        raise ValueError(f"n_max must lie in 1..{TAU_ORDER_CAP}")
    if lam <= 0:
        raise ValueError("lam must be positive")
    obs = {}
    for order in range(1, n_max + 1):
        for t in enumerate_trees(order):
            obs[t] = tau(t, w, f)
    return HierarchyState(observables=obs, lam=lam, n_max=n_max)


def hierarchy_norm(h: HierarchyState) -> float:
    """sup over stored trees of lam^(order/2) * L2 norm; a truncated lower
    bound for the full supremum, truncation order = n_max."""
    best = 0.0
    for t, ob in h.observables.items():
        best = max(best, h.lam ** (t.order / 2.0) * ob.l2_norm())
    return best


def lambda_admissible(lam: float, w: SparseWeights, f: FiberedDensity, k: Kernel,
                      t_star: float) -> tuple[bool, float]:
    """Reports whether sqrt(lam) clears the single-pair admissibility
    threshold used by the hierarchy stability estimate (informational; the
    norm itself is computed for any lam > 0)."""
    wnorm = check_scaling(w).max_row_abs_sum
    l2 = float(np.sqrt((f.values ** 2).sum(axis=1).max() * f.grid.dx))
    if wnorm == 0 or l2 == 0:       # no coupling, or no density: no threshold
        return True, math.inf
    mass = float(f.masses().max())
    threshold = (
        min(2.0 / wnorm, 1.0)
        * math.exp(-t_star / 4.0 * wnorm * k.div_sup * mass)
        / (2.0 * l2)
    )
    return math.sqrt(lam) < threshold, threshold


# ---------------------------------------------------------------------------
# hierarchy equation residual
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualReport:
    value: float               # discrete L1 norm of the residual
    dt: float                  # snapshot spacing used for the time derivative
    dx: float
    field: np.ndarray = field(repr=False, default=None)


def _central_diff(arr: np.ndarray, axis: int, dx: float, periodic: bool) -> np.ndarray:
    if periodic:
        return (np.roll(arr, -1, axis=axis) - np.roll(arr, 1, axis=axis)) / (2 * dx)
    return np.gradient(arr, dx, axis=axis)     # one-sided first differences at the ends


def _central_lap(arr: np.ndarray, axis: int, dx: float, periodic: bool) -> np.ndarray:
    if periodic:
        return (np.roll(arr, -1, axis=axis) - 2 * arr + np.roll(arr, 1, axis=axis)) / dx**2
    out = np.zeros_like(arr)
    a, o = np.moveaxis(arr, axis, 0), np.moveaxis(out, axis, 0)     # views: o writes out
    o[1:-1] = (a[2:] - 2 * a[1:-1] + a[:-2]) / dx**2
    o[0], o[-1] = o[1], o[-2]
    return out


def hierarchy_residual(t: LabeledTree, w: SparseWeights, f_series, k: Kernel,
                       nu: float = 0.0, *, tau1=None) -> ResidualReport:
    """Defect of the observable evolution equation on computed snapshots.

        r = d/dt tau(T) + sum_i d/dx_i [ int K(x_i - z) tau(T+i)(..., z) dz ]
            - nu sum_i Lap_i tau(T)

    The time derivative is a three-point difference across consecutive
    snapshots; the grown-tree contraction is folded onto the original
    lattice by attaching the velocity field to vertex i (integrating the
    new leaf against K is exactly the velocity of fiber xi), so no
    order+1 lattice is ever materialized.  Returns the L1 norm of r at the
    middle snapshot.  A caller that already has tau(t, w, f1).values of the
    middle snapshot f1 passes it as tau1.
    """
    if t.order + 1 > TAU_ORDER_CAP:
        raise ValueError(f"residual needs order + 1 <= {TAU_ORDER_CAP}")
    snaps = list(f_series)
    if len(snaps) < 3:
        raise ValueError("need at least 3 snapshots")
    mid = len(snaps) // 2
    f0, f1, f2 = snaps[mid - 1], snaps[mid], snaps[mid + 1]
    t0, t1, t2 = f0.time, f1.time, f2.time
    h1, h2 = t1 - t0, t2 - t1
    if h1 <= 0 or h2 <= 0:
        raise ValueError("snapshots must be strictly increasing in time")
    grid = f1.grid
    periodic = grid.topology == "torus"

    tau0 = tau(t, w, f0).values
    if tau1 is None:
        tau1 = tau(t, w, f1).values
    tau2 = tau(t, w, f2).values
    # non-uniform three-point first derivative at t1
    c0 = -h2 / (h1 * (h1 + h2))
    c1 = (h2 - h1) / (h1 * h2)
    c2 = h1 / (h2 * (h1 + h2))
    r = c0 * tau0 + c1 * tau1 + c2 * tau2

    vel = velocity(f1, w, k)
    for i in range(1, t.order + 1):
        grown = tau(t, w, f1, vertex_factors={i: vel}).values
        r = r + _central_diff(grown, axis=i - 1, dx=grid.dx, periodic=periodic)
    if nu > 0:
        for i in range(1, t.order + 1):
            r = r - nu * _central_lap(tau1, axis=i - 1, dx=grid.dx, periodic=periodic)

    value = float(np.abs(r).sum()) * grid.dx ** t.order
    return ResidualReport(value=value, dt=0.5 * (h1 + h2), dx=grid.dx, field=r)
