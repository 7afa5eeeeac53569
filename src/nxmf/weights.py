"""Sparse connection matrices and their scaling diagnostics.

The connection matrix w_ij couples N agents pairwise.  The admissible
scaling regime keeps every row and column absolute sum of order one while
each individual weight vanishes, so that an agent feels an O(1) total
interaction assembled from many small contributions.  This module stores
such matrices sparsely, generates the standard families (uniform,
class-permutation, graphon-sampled), verifies the scaling quantities
exactly, and applies the matrix as an operator on per-agent vectors.

Every CSR product in nxmf is `_add_product`, on scipy's compiled kernels
(scipy.sparse._sparsetools), loaded by file path: the set-up of
scipy.sparse would be about half of `import nxmf`.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from importlib import machinery, util

import numpy as np

from .seeding import GRAPH, stream

__all__ = [
    "SparseWeights",
    "ScalingReport",
    "check_scaling",
    "gen_uniform",
    "gen_class_permutation",
    "gen_from_graphon",
    "kernel_apply",
    "save_edge_list",
    "load_edge_list",
]


def _load_sparsetools():
    """scipy.sparse._sparsetools: the module in sys.modules when there, else
    its extension file loaded by path (scipy itself is not imported) and
    registered under its name, so a later scipy.sparse reuses it."""
    name = "scipy.sparse._sparsetools"
    if name not in sys.modules:
        where = os.path.join(util.find_spec("scipy").submodule_search_locations[0], "sparse")
        spec = machinery.FileFinder(where, (machinery.ExtensionFileLoader,
                                            machinery.EXTENSION_SUFFIXES)).find_spec(name)
        sys.modules[name] = util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


_sparsetools = _load_sparsetools()


def _add_product(ptr, cols, vals, x, y):
    """y += A x for the CSR matrix A = (ptr, cols, vals) with y.shape[0] rows:
    y[i] += vals[t] * x[cols[t]] for t in ptr[i]:ptr[i+1], in that order, by
    the kernels scipy's `csr @ x` runs on a zero y, dispatched as it does
    (csr_matvecs on one column is ~3x slower than csr_matvec).  y is float64;
    the callers check that x has a row per column of A."""
    if y.ndim == 1 or y.shape[1] == 1:
        _sparsetools.csr_matvec(y.shape[0], x.shape[0], ptr, cols, vals, x, y)
    else:
        _sparsetools.csr_matvecs(y.shape[0], x.shape[0], y.shape[1], ptr, cols, vals, x, y)


def _product(ptr, cols, vals, x):
    """A x for the CSR matrix A = (ptr, cols, vals) and x of shape (n,) or
    (n, k), from a zero output: bitwise scipy's `csr @ x`."""
    y = np.zeros((ptr.size - 1,) + x.shape[1:])
    _add_product(ptr, cols, vals, x, y)
    return y


class SparseWeights:
    """Immutable sparse N x N weight matrix with 1-based external indices.

    The storage is CSR in plain read-only numpy arrays, entries sorted by
    (row, col) with duplicates rejected: the row pointer indptr (int32, row
    i's entries at indptr[i]:indptr[i+1]), and per entry its 0-based row
    (rows0), column (cols0, int32) and value (values).  Only this module
    caches onto an instance (the scaling report, the transpose index and
    the scipy view); other modules keep what they derive from it.
    """

    def __init__(self, n_agents, rows, cols, vals):
        n = int(n_agents)
        if n < 1:
            raise ValueError("n_agents must be >= 1")
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape) or rows.ndim != 1:
            raise ValueError("rows, cols, vals must be 1-D arrays of equal length")
        if rows.size and (rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n):
            raise ValueError("entry index out of range")
        if not np.all(np.isfinite(vals)):
            raise ValueError("weights must be finite")
        key = rows * n
        key += cols
        if np.all(key[1:] > key[:-1]):          # already in (row, col) order: no sort
            rows, vals = rows.copy(), vals.copy()   # the caller's arrays stay theirs
        else:
            order = np.argsort(key)
            key = key[order]
            if np.any(key[1:] == key[:-1]):
                raise ValueError("duplicate (i, j) entry")
            rows, cols, vals = rows[order], cols[order], vals[order]
        del key                                 # freed before the int32 copies
        self.n_agents = n
        self.rows0, self.cols0, self.values = rows, cols.astype(np.int32), vals
        self.indptr = np.searchsorted(rows, np.arange(n + 1)).astype(np.int32)
        for a in (self.rows0, self.cols0, self.values, self.indptr):
            a.setflags(write=False)
        self._csr = None
        self._scaling = None
        self._transpose = None     # transpose_index(): None until computed, False if asymmetric

    @classmethod
    def from_entries(cls, n_agents: int, entries) -> "SparseWeights":
        """Build from an iterable of 1-based (i, j, w) triples."""
        rows, cols, vals = [], [], []
        for i, j, w in entries:
            rows.append(int(i) - 1)
            cols.append(int(j) - 1)
            vals.append(float(w))
        return cls(n_agents, rows, cols, vals)

    # storage views -----------------------------------------------------

    @property
    def nnz(self) -> int:
        return int(self.rows0.size)

    def entries(self):
        """Iterate 1-based (i, j, w) in storage order."""
        for r, c, v in zip(self.rows0, self.cols0, self.values):
            yield int(r) + 1, int(c) + 1, float(v)

    def csr(self):
        """The stored matrix as a read-only scipy CSR matrix on the same
        arrays, built on the first call, which imports scipy.sparse.  For
        callers outside nxmf; its products are bitwise `_product`'s."""
        if self._csr is None:
            import scipy.sparse as sp
            self._csr = sp.csr_matrix((self.values, self.cols0, self.indptr),
                                      shape=(self.n_agents,) * 2, copy=False)
            self._csr.has_canonical_format = True   # sorted, no duplicates: scipy never rewrites it
        return self._csr

    def transpose_index(self) -> np.ndarray | None:
        """Storage position of entry (j, i) for every stored entry (i, j), or
        None unless the matrix equals its transpose bitwise.

        Computed on the first call and cached.  Most asymmetric matrices are
        rejected on their first non-empty row, without nnz-sized temporaries.
        """
        if self._transpose is None:
            self._transpose = self._find_transpose()
        return None if self._transpose is False else self._transpose

    def _find_transpose(self):
        rows, cols, vals, nnz = self.rows0, self.cols0, self.values, self.nnz
        if nnz == 0:
            return np.zeros(0, dtype=np.int64)
        # i is the first non-empty row.  In a symmetric matrix no column is
        # smaller than i either, so each (j, i) must lead its row j.
        i = rows[0]
        js = cols[:self.indptr[i + 1]]
        lead = np.minimum(self.indptr[js], nnz - 1)
        if not (np.array_equal(rows[lead], js) and np.all(cols[lead] == i)
                and np.array_equal(vals[lead], vals[:js.size])):
            return False
        n = np.int64(self.n_agents)                    # cols may be int32: keys need int64
        key = rows * n + cols                          # ascending: entries are (row, col)-sorted
        tkey = cols * n + rows
        pos = np.minimum(np.searchsorted(key, tkey), nnz - 1)
        if not (np.array_equal(key[pos], tkey)
                and np.array_equal(vals[pos].view(np.uint64), vals.view(np.uint64))):
            return False
        pos.setflags(write=False)
        return pos

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n_agents, self.n_agents))
        a[self.rows0, self.cols0] = self.values
        return a

    def permuted(self, perm: np.ndarray) -> "SparseWeights":
        """Simultaneous row/column relabeling: w'_ij = w_{perm(i), perm(j)}.

        perm is a 0-based permutation of range(n_agents).
        """
        perm = np.asarray(perm, dtype=np.int64)
        if sorted(perm.tolist()) != list(range(self.n_agents)):
            raise ValueError("perm must be a permutation of 0..n_agents-1")
        inv = np.empty_like(perm)
        inv[perm] = np.arange(self.n_agents)
        return SparseWeights(self.n_agents, inv[self.rows0], inv[self.cols0], self.values)

    def __eq__(self, other):
        return (
            isinstance(other, SparseWeights)
            and self.n_agents == other.n_agents
            and np.array_equal(self.rows0, other.rows0)
            and np.array_equal(self.cols0, other.cols0)
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self):
        return f"SparseWeights(n={self.n_agents}, nnz={self.nnz})"


@dataclass(frozen=True)
class ScalingReport:
    """Exact scaling quantities of a weight matrix."""

    max_row_abs_sum: float
    max_col_abs_sum: float
    max_entry_abs: float
    density: float


# entries _max_abs_fsum turns into Python floats (~32 B each) at a time
FSUM_BLOCK = 1 << 16


def _max_abs_fsum(vals: np.ndarray, indptr: np.ndarray) -> float:
    """Largest exactly rounded sum of |vals| over the slices
    vals[indptr[i]:indptr[i+1]], read FSUM_BLOCK entries (or one longer
    slice) at a time; the result does not depend on the block."""
    bounds, best, base, block = indptr.tolist(), 0.0, 0, []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi - base > len(block):
            base, block = lo, np.abs(vals[lo:max(hi, lo + FSUM_BLOCK)]).tolist()
        best = max(best, math.fsum(block[lo - base:hi - base]))
    return best


def check_scaling(w: SparseWeights) -> ScalingReport:
    """Row/column absolute sums, max weight and density, computed exactly.

    Sums use math.fsum so the report is identical across platforms and
    entry orderings.  The matrix is immutable, so the report is computed on
    the first call and cached on it.
    """
    if w._scaling is not None:
        return w._scaling
    n, nnz = w.n_agents, w.nnz
    # the entries grouped by column: col_ptr and by_col are the CSC's pointer and values
    col_ptr, by_col = np.empty(n + 1, dtype=np.int32), np.empty(nnz)
    _sparsetools.csr_tocsc(n, n, w.indptr, w.cols0, w.values, col_ptr,
                           np.empty(nnz, dtype=np.int32), by_col)
    w._scaling = ScalingReport(
        max_row_abs_sum=_max_abs_fsum(w.values, w.indptr),
        max_col_abs_sum=_max_abs_fsum(by_col, col_ptr),
        max_entry_abs=float(np.abs(w.values).max(initial=0.0)),
        density=w.nnz / float(n * n),
    )
    return w._scaling


def gen_uniform(n: int, w_bar: float, include_diagonal: bool = False) -> SparseWeights:
    """All-to-all coupling with every stored weight equal to w_bar / n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    ii, jj = ii.ravel(), jj.ravel()
    if not include_diagonal:
        keep = ii != jj
        ii, jj = ii[keep], jj[keep]
    vals = np.full(ii.size, w_bar / n)
    return SparseWeights(n, ii, jj, vals)


def gen_class_permutation(n: int, m: int, perm) -> SparseWeights:
    """Sparse class-to-class coupling.

    Agents are split into n/m consecutive blocks of size m; every agent of
    block k is coupled with weight 1/m to every agent of block perm(k).
    Every row and column sum is exactly 1 while each weight is only 1/m,
    so the family stays in the admissible scaling regime with density m/n.
    """
    if n < 1 or m < 1 or n % m != 0:
        raise ValueError("m must divide n")
    n_classes = n // m
    perm = [int(p) for p in perm]
    if sorted(perm) != list(range(1, n_classes + 1)):
        raise ValueError(f"perm must be a bijection on 1..{n_classes}")
    rows = np.repeat(np.arange(n), m)
    starts = np.asarray([(perm[k] - 1) * m for k in range(n_classes)])
    cols = (np.repeat(starts, m * m).reshape(n, m) + np.arange(m)).ravel()
    vals = np.full(rows.size, 1.0 / m)
    return SparseWeights(n, rows, cols, vals)


def gen_from_graphon(n, g, rng_seed=None, mode="midpoint"):
    """Discretize a bounded kernel g on [0,1]^2 into agent weights.

    midpoint mode (default, deterministic): w_ij = g((i-1/2)/n, (j-1/2)/n) / n
    on the full n x n grid, diagonal included.  bernoulli mode samples an
    unweighted random graph with edge probability clip(g, 0, 1) at the
    midpoints and weight 1/n per sampled edge.

    g is called once, with the (n, n) arrays of row and column midpoints,
    and must work elementwise on them; a scalar result (a constant g) is
    broadcast to every cell.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    pts = (np.arange(n) + 0.5) / n
    xi, ze = np.meshgrid(pts, pts, indexing="ij")
    gv = np.broadcast_to(np.asarray(g(xi, ze), dtype=np.float64), (n, n))
    if mode == "midpoint":
        vals = gv / n
        ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        return SparseWeights(n, ii.ravel(), jj.ravel(), vals.ravel())
    if mode == "bernoulli":
        rng = stream(0 if rng_seed is None else rng_seed, GRAPH)
        p = np.clip(gv, 0.0, 1.0)
        adj = rng.random((n, n)) < p
        ii, jj = np.nonzero(adj)
        return SparseWeights(n, ii, jj, np.full(ii.size, 1.0 / n))
    raise ValueError(f"unknown sampling mode {mode!r}")


def kernel_apply(w: SparseWeights, phi: np.ndarray) -> np.ndarray:
    """Apply the weight matrix to a per-agent vector (or stack of vectors):
    out_i = sum_j w_ij phi_j, the action of the empirical kernel on
    functions of the second variable.  The empirical-graphon normalization
    N * w_ij cancels against the 1/N cell measure, so the raw stored weights
    apply with no extra factor.  The product is `_product`, bitwise
    w.csr() @ phi.
    """
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape[0] != w.n_agents:
        raise ValueError(f"phi has leading size {phi.shape[0]}, expected {w.n_agents}")
    flat = phi if phi.ndim == 1 else phi.reshape(phi.shape[0], -1)
    return _product(w.indptr, w.cols0, w.values, flat).reshape(phi.shape)


def save_edge_list(w: SparseWeights, path) -> None:
    """Text edge list: header 'N <n>' then 1-based 'i j w' lines.

    Weights are written with 17 significant digits so the round trip is
    bit-exact.
    """
    with open(path, "w") as fh:
        fh.write(f"N {w.n_agents}\n")
        for i, j, v in w.entries():
            fh.write(f"{i} {j} {v:.17g}\n")


def load_edge_list(path) -> SparseWeights:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2 or header[0] != "N":
            raise ValueError("edge list must start with 'N <n_agents>'")
        n = int(header[1])
        entries = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            i, j, v = line.split()
            entries.append((int(i), int(j), float(v)))
    return SparseWeights.from_entries(n, entries)
