"""Hierarchical measure-preserving rearrangement at cell resolution.

Given K functions on P equal cells of [0,1], builds a permutation of the
cells (the discrete measure-preserving map) whose level-k pieces collect
cells with nearby values of the first k functions.  Splits are by exact
cardinality with ties broken by cell index, the discrete stand-in for
splitting by exact mass of non-atomic level sets.  The payoff is a uniform
L1 shift modulus for the rearranged functions: for a shift that is a
fraction tau <= 1/n_k^2 of the interval, the mean absolute difference is
at most 3 * 2^-k, where n_k = 2^(k(k+1)/2) is the number of level-k
pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CellFunctions",
    "RearrangementMap",
    "n_pieces",
    "build_phi",
    "modulus",
    "modulus_bound",
    "fit_modulus_constant",
    "rearrange_pair",
    "save_permutation",
]


def n_pieces(k: int) -> int:
    """Number of pieces at refinement level k: 2^(k(k+1)/2)."""
    return 1 << (k * (k + 1) // 2)


@dataclass(frozen=True)
class CellFunctions:
    """K functions sampled on P uniform cells; values[m-1] belongs to level m.

    strict mode requires 0 < values[m-1] <= 2^(1-m), the normalization
    under which the shift modulus bound is level-uniform.  general mode
    accepts any bounded values; build_phi then rescales internally by
    (g + |g|_inf) / (2^m |g|_inf).
    """

    values: np.ndarray          # (K, P)
    mode: str = "strict"

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] < 1:
            raise ValueError("values must have shape (K, P) with K >= 1")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        if self.mode not in ("strict", "general"):
            raise ValueError("mode must be 'strict' or 'general'")
        if self.mode == "strict":
            for m in range(1, v.shape[0] + 1):
                hi = 2.0 ** (1 - m)
                if np.any(v[m - 1] <= 0) or np.any(v[m - 1] > hi):
                    raise ValueError(
                        f"strict mode requires 0 < g_{m} <= {hi:g}; "
                        "use mode='general' for automatic rescaling"
                    )
        object.__setattr__(self, "values", v)

    @property
    def n_funcs(self) -> int:
        return self.values.shape[0]

    @property
    def n_cells(self) -> int:
        return self.values.shape[1]

    def normalized(self) -> np.ndarray:
        """Level-normalized values used for splitting."""
        if self.mode == "strict":
            return self.values
        out = np.empty_like(self.values)
        for m in range(1, self.n_funcs + 1):
            g = self.values[m - 1]
            sup = float(np.abs(g).max())
            if sup == 0.0:
                out[m - 1] = 2.0 ** (-m)        # constant; splits become pure ties
            else:
                out[m - 1] = (g + sup) / (2.0**m * sup)
        return out


@dataclass(frozen=True)
class RearrangementMap:
    """perm[p] = original cell occupying dyadic position p; levels = K."""

    perm: np.ndarray
    levels: int

    def __post_init__(self):
        p = np.asarray(self.perm, dtype=np.int64)
        if sorted(p.tolist()) != list(range(p.size)):
            raise ValueError("perm must be a bijection on 0..P-1")
        object.__setattr__(self, "perm", p)

    @property
    def n_cells(self) -> int:
        return int(self.perm.size)

    def inverse(self) -> np.ndarray:
        inv = np.empty_like(self.perm)
        inv[self.perm] = np.arange(self.perm.size)
        return inv


def _split_by_rank(cells: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a cell set into exact halves by the rank of g, ties by index.

    cells is kept sorted by original index, so a stable sort on the values
    realizes the tie rule.
    """
    order = np.argsort(g[cells], kind="stable")
    half = cells.size // 2
    low = np.sort(cells[order[:half]])
    high = np.sort(cells[order[half:]])
    return low, high


def build_phi(g: CellFunctions) -> RearrangementMap:
    """Construct the rearrangement by K rounds of hierarchical refinement.

    Refining level k to k+1 splits every piece 2^(k+1)-fold: one exact-half
    rank split per function g_1 .. g_(k+1) in order, children labeled in
    lexicographic order.  Pieces at every level have exactly P / n_k cells;
    the final pieces, concatenated in dyadic order with cells ascending
    inside each piece, give the permutation.
    """
    K = g.n_funcs
    P = g.n_cells
    nk = n_pieces(K)
    if P % nk != 0:
        admissible = max(nk, (P // nk) * nk)
        raise ValueError(
            f"P={P} must be a multiple of n_K={nk} (nearest admissible: {admissible})"
        )
    vals = g.normalized()
    pieces = [np.arange(P, dtype=np.int64)]
    for k in range(K):
        refined = []
        for piece in pieces:
            sub = [piece]
            for m in range(k + 1):
                nxt = []
                for s in sub:
                    low, high = _split_by_rank(s, vals[m])
                    nxt.append(low)
                    nxt.append(high)
                sub = nxt
            refined.extend(sub)
        pieces = refined
    return RearrangementMap(perm=np.concatenate(pieces), levels=K)


def modulus(g: CellFunctions, phi: RearrangementMap, shifts) -> dict[int, float]:
    """Worst-level L1 shift modulus of the rearranged functions.

    M(s) = max_m (1/P) sum_p |g_m(perm(p)) - g_m(perm(p + s))| with zero
    extension outside the interval; shifts are cell counts in (0, P).
    """
    P = phi.n_cells
    if g.n_cells != P:
        raise ValueError("cell count mismatch")
    rearranged = g.values[:, phi.perm]
    out = {}
    for s in shifts:
        s = int(s)
        if s == 0:
            out[s] = 0.0
            continue
        if not 0 < s < P:
            raise ValueError("shifts must lie in [0, P)")
        inside = np.abs(rearranged[:, : P - s] - rearranged[:, s:]).sum(axis=1)
        edge = np.abs(rearranged[:, P - s :]).sum(axis=1)
        out[s] = float((inside + edge).max()) / P
    return out


def modulus_bound(k: int) -> float:
    """Constant-free bound 3 * 2^-k valid for shift fractions <= 1/n_k^2."""
    return 3.0 * 2.0 ** (-k)


def fit_modulus_constant(table: dict[int, float], n_cells: int) -> float:
    """Fit C in M(h) ~ 2^(-C sqrt(log2(1/h))) from a measured table.

    Informational only; the acceptance checks use the constant-free level
    bound instead.
    """
    cs = []
    for s, m in table.items():
        h = s / n_cells
        if 0 < m < 1 and 0 < h < 1:
            cs.append(-math.log2(m) / math.sqrt(math.log2(1.0 / h)))
    return float(np.mean(cs)) if cs else float("nan")


def rearrange_pair(w, f, phi: RearrangementMap):
    """Relabel a weight matrix and fibered density by the same permutation:
    w'_ij = w_{perm(i), perm(j)}, f'_i = f_{perm(i)}.  Tree observables of
    the pair are invariant under this relabeling."""
    from .pde import FiberedDensity

    if w.n_agents != phi.n_cells or f.n_fibers != phi.n_cells:
        raise ValueError("rearrangement size must match the agent/fiber count")
    w2 = w.permuted(phi.perm)
    f2 = FiberedDensity(
        grid=f.grid,
        values=f.values[phi.perm],
        time=f.time,
        initial_mass=f.initial_mass[phi.perm],
        leakage=f.leakage[phi.perm],
        clamp_total=f.clamp_total,
    )
    return w2, f2


def save_permutation(phi: RearrangementMap, path) -> None:
    with open(path, "w") as fh:
        for p in phi.perm:
            fh.write(f"{int(p)}\n")
