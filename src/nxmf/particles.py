"""Finite-N agent dynamics.

Integrates dX_i = sum_j w_ij K(X_i - X_j) dt (+ optional self dynamics)
+ sigma dB_i for a batch of replicas with one explicit integrator,
`integrate`.  The drift, `drift_batch`, takes one of two paths, chosen by
the kernel:
- a kernel with modes (Kuramoto) takes the low-rank path: one call of
  k.modes(X) for every factor, then per mode one sparse matvec w @ b_r(X)
  and one product with a_r(X), so K is never evaluated per entry and the
  transcendental work is O(N R), not O(nnz R);
- every other kernel takes the entry path, which evaluates K on each stored
  weight entry (each unordered pair once for a symmetric w and an odd K),
  O(nnz R).  K is evaluated one block of entries at a time and summed into
  rows at once, so its memory is O(nnz + block), not O(nnz R).  Its plan
  and buffers are one private record, built by `integrate` once per chunk
  of replicas; nothing is cached on w.
Both paths sum with the weights module's CSR product (`_add_product`), the
one way nxmf multiplies by a sparse matrix.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import seeding
from .kernels import Kernel
from .weights import SparseWeights, _add_product, _product, check_scaling


# replicas advanced together by integrate; no result depends on it
CHUNK = 64
# (entry, replica, dim) elements per block of drift_batch, 256 KB per block
# buffer; no result depends on it
DRIFT_BLOCK = 1 << 15


class StabilityError(RuntimeError):
    """Explicit step rejected by the stability guard, or a non-finite state."""


def _wrap(positions: np.ndarray, k: Kernel) -> np.ndarray:
    if k.domain.kind == "torus":
        return np.mod(positions, k.domain.period)
    return positions


class _Drift(NamedTuple):
    """The entry path's plan for one w and K, with buffers for R replicas."""

    rows: np.ndarray           # (n_eval,) row of each entry K is evaluated on
    cols: np.ndarray           # (n_eval,) its column, int64
    blocks: list               # per block: (first entry, target rows, ptr, src, coef)
    xi: np.ndarray             # (block, R, d) one block of gathered positions
    xj: np.ndarray             # (block, R, d)
    kv: np.ndarray             # (block, R, d) K of one block


def _drift(w: SparseWeights, k: Kernel, n_rep: int, d: int) -> _Drift:
    """The entries drift_batch evaluates K on, per block the terms that sum
    that block's K values into rows, and the buffers for n_rep replicas of
    dimension d.

    For a symmetric w and an odd K only the entries with row <= col are
    evaluated, and entry (i, j) below the diagonal takes minus the value of
    (j, i): w_ij K(x_i - x_j) == -(w_ji K(x_j - x_i)) bitwise.  Each stored
    entry is one term, coef * K of its evaluated entry, with coef = sign * w
    and sign -1 for the folded ones, so it is bitwise sign * (w * K).
    A block holds DRIFT_BLOCK // (n_rep d) evaluated entries.  Its terms are
    a small CSR matrix over the rows it feeds, target (a slice when they are
    one run, else their indices): ptr the start of each row's terms and
    then the end, src the block-local entry of each term and coef.  Summing
    block after block adds every row's terms in its stored (row, col) order,
    so results are bitwise the same whether or not pairs are folded and
    however the replicas and entries are blocked.
    """
    t = w.transpose_index() if k.odd else None
    keep = slice(None) if t is None else w.rows0 <= w.cols0
    rows = w.rows0[keep]
    # the CSR's int32 columns as int64: np.take converts int32 indices on every call
    cols = w.cols0[keep].astype(np.int64)
    step = max(1, min(rows.size, DRIFT_BLOCK // max(1, n_rep * d)))
    # the builders' nnz-sized temporaries are freed before the buffers exist
    blocks = _run_blocks(w, step) if t is None else _folded_blocks(w, t, keep, step)
    return _Drift(rows, cols, blocks, *(np.empty((step, n_rep, d)) for _ in range(3)))


def _run_blocks(w, step):
    """Blocks over every stored entry, each term its own entry with coef w:
    block [lo, hi) feeds the run of rows from entry lo's to entry hi - 1's."""
    indptr, local = w.indptr, np.arange(step, dtype=np.int32)
    blocks = []
    for lo in range(0, w.nnz, step):
        hi = min(lo + step, w.nnz)
        r0, r1 = int(w.rows0[lo]), int(w.rows0[hi - 1]) + 1
        ptr = (np.clip(indptr[r0:r1 + 1], lo, hi) - lo).astype(np.int32)
        blocks.append((lo, slice(r0, r1), ptr, local[:hi - lo], w.values[lo:hi]))
    return blocks


def _folded_blocks(w, t, keep, step):
    """Blocks over the kept entries (row <= col) of a symmetric w.  The term
    of stored entry e reads its own entry when kept, else (sign -1) its
    transpose t[e], which lies in an earlier row.  src therefore increases
    along each stored row, so sorting the terms stably by block keeps every
    row's terms in stored order."""
    n_blocks = -(-np.count_nonzero(keep) // step)
    src = (np.cumsum(keep) - 1)[np.where(keep, np.arange(w.nnz), t)]
    order = np.argsort(src // step, kind="stable")
    src, row = src[order], w.rows0[order]
    coef = np.where(keep, w.values, -w.values)[order]
    blk = src // step
    # the first term of each (block, row) group, and each block's first group
    head = np.flatnonzero(np.diff(blk * w.n_agents + row, prepend=-1))
    first = np.searchsorted(blk[head], np.arange(n_blocks + 1))
    bounds, target = np.append(head, w.nnz), row[head]
    src = (src - blk * step).astype(np.int32)
    blocks = []
    for b in range(n_blocks):
        g0, g1 = first[b], first[b + 1]
        t0, t1 = bounds[g0], bounds[g1]
        rows_b = target[g0:g1]
        if rows_b[-1] - rows_b[0] == g1 - g0 - 1:           # one run of rows
            rows_b = slice(int(rows_b[0]), int(rows_b[-1]) + 1)
        blocks.append((b * step, rows_b, (bounds[g0:g1 + 1] - t0).astype(np.int32),
                       src[t0:t1], coef[t0:t1]))
    return blocks


def drift_batch(w, k, positions, scratch=None):
    """Drift for a stack of independent replicas, shape (R, N, d).

    With k.modes the drift is sum_r a_r(X) * (w @ b_r(X)) on the (N, R d)
    by-agent layout X, with the factors from one k.modes(X) call and no
    per-entry work; it matches the entry path to rounding, not bitwise.
    Each column of the matvec adds its row's entries in stored order, so
    the result is bitwise independent of R.

    On the entry path work is entry-major and blocked: DRIFT_BLOCK // (R d)
    plan entries at a time are gathered, subtracted and passed through
    K (k.eval_into when the kernel has it, else k.eval) in small buffers
    that stay in cache, and the block's terms are added at once into the
    rows they feed of the (N, R d) result, through a row buffer when those
    rows are not one run.  No array grows with the entries times R.  Each
    step is elementwise per entry and every row adds its terms in stored
    order, so the blocking does not change the result.
    For a symmetric w and an odd K each unordered pair is evaluated once,
    with results bitwise equal to evaluating every entry (see _drift).
    scratch, from _drift(w, k, R, d), holds the plan and the buffers and
    is reused across calls; without it both are built per call.
    """
    r, n, d = positions.shape
    if n != w.n_agents:         # the CSR kernels do not bound-check their columns
        raise ValueError("weights and positions disagree on the number of agents")
    by_agent = np.ascontiguousarray(positions.transpose(1, 0, 2))
    if k.modes is not None:
        x = by_agent.reshape(n, r * d)
        total = None
        for a_r, b_r in k.modes(x):
            term = a_r * _product(w.indptr, w.cols0, w.values, b_r)
            total = term if total is None else total + term
        return total.reshape(n, r, d).transpose(1, 0, 2)
    plan = _drift(w, k, r, d) if scratch is None else scratch
    n_eval, step = plan.rows.size, plan.xi.shape[0]
    total = np.zeros((n, r * d))
    for lo, target, ptr, src, coef in plan.blocks:
        hi = lo + step
        out, xi, xj = plan.kv[:n_eval - lo], plan.xi[:n_eval - lo], plan.xj[:n_eval - lo]
        # mode="clip" lets take write straight into xi; "raise" buffers it
        np.take(by_agent, plan.rows[lo:hi], axis=0, out=xi, mode="clip")
        np.take(by_agent, plan.cols[lo:hi], axis=0, out=xj, mode="clip")
        np.subtract(xi, xj, out=xi)
        if k.eval_into is not None:
            k.eval_into(xi, out, xj)
        else:
            out[...] = k.eval(xi)
        acc = total[target]             # a view for a slice, else a copy
        _add_product(ptr, src, coef, out.reshape(len(out), r * d), acc)
        if not isinstance(target, slice):
            total[target] = acc
    return total.reshape(n, r, d).transpose(1, 0, 2)


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
    torus, from x0 wrapped onto the domain.  The noise of replica r at
    global step s is the slot (s, r) of the path-noise stream, the standard
    normals of Generator(Philox(key=K, counter=[0, 0, s, r])) with K the key
    of stream(master_seed, NOISE), derived once per call; each step draws
    the chunk's block at once (seeding.normal_block).  Replicas advance in
    fixed chunks, so a replica's trajectory is bitwise independent of the
    replica count, the chunking and of how the times are split (for the
    same step partition).
    Raises StabilityError when a step violates the stability guard or
    leaves a non-finite state.
    """
    x0 = _wrap(np.asarray(x0, dtype=np.float64), k)
    if x0.ndim != 3:
        raise ValueError("x0 must have shape (R, N, d)")
    n_rep, n, d = x0.shape
    if w.n_agents != n:
        raise ValueError("weights and positions disagree on the number of agents")
    if k.dim != d:
        raise ValueError(f"kernel dimension {k.dim} != state dimension {d}")
    if not dt > 0:            # also rejects NaN
        raise ValueError("dt must be positive")
    if not sigma >= 0:
        raise ValueError("sigma must be >= 0")
    spans = _spans(w, k, times, dt)

    def rhs(p):
        total = drift_batch(w, k, p, scratch)
        if k.self_drift is not None:
            total = total + k.self_drift(p)
        return total

    key = seeding.stream(master_seed, seeding.NOISE).bit_generator.state["state"]["key"]
    out = np.empty((len(spans), n_rep, n, d))
    for lo in range(0, n_rep, CHUNK):
        pos = x0[lo:lo + CHUNK]
        # reused by every step of the chunk; the low-rank path needs none
        scratch = None if k.modes is not None else _drift(w, k, pos.shape[0], d)
        replicas = range(lo, lo + pos.shape[0])
        s = 0
        for ti, (n_steps, h) in enumerate(spans):
            for _ in range(n_steps):
                if sigma > 0:
                    noise = seeding.normal_block(key, s, replicas, (n, d))
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
        scratch = None              # freed before the next chunk's is built
    return out

