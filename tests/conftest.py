import math

import numpy as np
import pytest
import scipy.sparse as sp

from nxmf import Grid1D, SparseWeights, gaussian_fibers
from nxmf.kernels import Kernel, LINE
from nxmf.observables import Observable
from nxmf.weights import kernel_apply


def random_sparse_weights(rng, n, density=0.3, scale=None):
    """Random sparse matrix in the admissible scaling regime: ~density*n
    entries per row, each of size ~1/(density*n) so row sums stay O(1)."""
    mask = rng.random((n, n)) < density
    rows, cols = np.nonzero(mask)
    if scale is None:
        scale = 1.0 / max(1, int(density * n))
    vals = rng.uniform(-scale, scale, size=rows.size)
    return SparseWeights(n, rows, cols, vals)


def random_symmetric_weights(rng, n, density=0.3):
    """Random symmetric sparse matrix: random values, a partly filled
    diagonal and about a fifth of the agents with empty rows."""
    upper = np.triu(rng.random((n, n)) < density)
    empty = rng.random(n) < 0.2
    upper[empty, :] = False
    upper[:, empty] = False
    i, j = np.nonzero(upper)
    vals = rng.uniform(-1.0, 1.0, size=i.size) / max(1.0, density * n)
    off = i != j
    return SparseWeights(n, np.concatenate((i, j[off])), np.concatenate((j, i[off])),
                         np.concatenate((vals, vals[off])))


def random_fibers(rng, grid, n_fibers):
    means = rng.uniform(grid.x_min * 0.4, grid.x_max * 0.4, size=n_fibers)
    stds = rng.uniform(0.3, 1.0, size=n_fibers)
    return gaussian_fibers(grid, means, stds)


def tau_dense_reference(t, w, f) -> Observable:
    """tau(T, w, f) by literal N^order index summation (oracle; tiny sizes only)."""
    n = w.n_agents
    dense = w.to_dense()
    shape = (f.grid.n_cells,) * t.order
    out = np.zeros(shape)
    edges = t.edges()
    for combo in np.ndindex(*(n,) * t.order):
        coeff = 1.0
        for (a, b) in edges:
            coeff *= dense[combo[a - 1], combo[b - 1]]
            if coeff == 0.0:
                break
        if coeff == 0.0:
            continue
        prof = f.values[combo[0]]
        for v in range(1, t.order):
            prof = np.multiply.outer(prof, f.values[combo[v]])
        out += coeff * prof
    return Observable(tree=t, grid=f.grid, values=out / n)


def tau_full_message_reference(t, w, f, vertex_factors=None) -> np.ndarray:
    """tau(T, w, f)'s lattice as the fiber mean of the whole
    (n_fibers, G^order) root message (oracle for the blocked root sum)."""
    factors = vertex_factors or {}
    messages = {}
    for v in range(t.order, 0, -1):
        msg = f.values * factors[v] if v in factors else f.values
        var_order = [v]
        for c in t.children(v):
            mc, vars_c = messages.pop(c)
            smc = kernel_apply(w, mc.reshape(mc.shape[0], -1)).reshape(mc.shape)
            a = msg.reshape(msg.shape[0], -1, 1)
            b = smc.reshape(smc.shape[0], 1, -1)
            msg = (a * b).reshape(msg.shape + smc.shape[1:])
            var_order.extend(vars_c)
        messages[v] = (msg, var_order)
    root, var_order = messages[1]
    return np.transpose(root.mean(axis=0), np.argsort(var_order))


def pointwise_root_reference(t, w, leaf_of):
    """The root message with every vertex on one shared axis, each vertex's
    factor leaf_of(v) multiplied by its children's messages as they are
    sent (oracle for tau_at and tau_density)."""
    messages = {}
    for v in range(t.order, 0, -1):
        msg = leaf_of(v)
        for c in t.children(v):
            msg = msg * kernel_apply(w, messages.pop(c))
        messages[v] = msg
    return messages[1]


def indicator_drift_reference(w, k, positions):
    """The entry-path drift with w applied to K's values and a signed
    (+1/-1) indicator summing them into rows (oracle for the row-sum matrix
    that carries sign * w): for a symmetric w and an odd K only the entries
    with row <= col are evaluated, and the mirrored entry takes minus that
    value."""
    r, n, d = positions.shape
    by_agent = np.ascontiguousarray(positions.transpose(1, 0, 2))
    t = w.transpose_index() if k.odd else None
    if t is None:
        keep = slice(None)
        src, sign = np.arange(w.nnz), np.ones(w.nnz)
    else:
        keep = w.rows0 <= w.cols0
        slot = np.cumsum(keep) - 1
        src = slot[np.where(keep, np.arange(w.nnz), t)]
        sign = np.where(keep, 1.0, -1.0)
    rows, cols, vals = w.rows0[keep], w.cols0[keep], w.values[keep]
    indicator = sp.csr_matrix((sign, src, w.csr().indptr), shape=(n, rows.size))
    kv = k.eval(by_agent[rows] - by_agent[cols]) * vals[:, None, None]
    return (indicator @ kv.reshape(-1, r * d)).reshape(n, r, d).transpose(1, 0, 2)


def segment_integrals_reference(d0, d1, lengths):
    """Integral of |d| over segments where d is affine from d0 to d1, with
    both branches evaluated everywhere (oracle for the crossing-only one)."""
    same = d0 * d1 >= 0
    denom = np.abs(d0) + np.abs(d1)
    cross = 0.5 * (d0 * d0 + d1 * d1) / np.maximum(denom, 1e-300)
    return np.where(same, 0.5 * denom, cross) * lengths


def pure_linear_kernel():
    """K(x) = -x; unbounded, used for hand-checkable closed forms."""
    return Kernel(
        dim=1,
        eval=lambda x: -x,
        lipschitz=1.0,
        sup_norm=math.inf,
        div_sup=1.0,
        domain=LINE,
        name="pure_linear",
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
