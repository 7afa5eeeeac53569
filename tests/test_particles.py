import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nxmf import (
    StabilityError,
    gen_class_permutation,
    gen_uniform,
    hodgkin_huxley,
    integrate,
    kuramoto,
    linear_attraction,
)
from nxmf import particles, seeding
from nxmf.kernels import LINE, PRESETS, Kernel
from nxmf.particles import drift_batch
from nxmf.weights import SparseWeights, check_scaling
from conftest import (
    indicator_drift_reference,
    pure_linear_kernel,
    random_sparse_weights,
    random_symmetric_weights,
)


def dense_drift_oracle(w, k, positions):
    """Literal double loop over the dense matrix."""
    n, d = positions.shape
    dense = w.to_dense()
    out = np.zeros((n, d))
    for i in range(n):
        for j in range(n):
            if dense[i, j] != 0.0:
                out[i] += dense[i, j] * k.eval(positions[i : i + 1] - positions[j : j + 1])[0]
    return out


def exact_drift(w, k, positions):
    """Drift with exactly rounded (math.fsum) row sums, which makes the
    result independent of the order of the entries."""
    kv = k.eval(positions[w.rows0] - positions[w.cols0]) * w.values[:, None]
    out = np.zeros_like(positions)
    for i in range(positions.shape[0]):
        for a in range(positions.shape[1]):
            out[i, a] = math.fsum(kv[w.rows0 == i, a])
    return out


def odd_2d():
    """A custom odd kernel on the plane, K(x) = -x / (1 + |x|^2)."""
    return Kernel(dim=2, eval=lambda x: -x / (1.0 + (x * x).sum(axis=-1, keepdims=True)),
                  lipschitz=1.0, sup_norm=0.5, div_sup=2.0, odd=True)


# kuramoto without its modes: these kernels check the entry path
ODD_KERNELS = {"kuramoto": lambda: dataclasses.replace(kuramoto(), modes=None),
               "linear_attraction": linear_attraction, "odd_2d": odd_2d}


class TestDrift:
    def test_two_body_linear(self):
        w = gen_uniform(2, 1.0)
        x = np.array([[0.0], [1.0]])
        d = drift_batch(w, pure_linear_kernel(), x[None])[0]
        assert np.allclose(d.ravel(), [0.5, -0.5])

    def test_coincident_zero(self, rng):
        w = random_sparse_weights(rng, 7)
        x = np.full((7, 1), 1.3)
        assert np.all(drift_batch(w, linear_attraction(), x[None])[0] == 0.0)

    def test_class_permutation_matches_dense_loop(self, rng):
        w = gen_class_permutation(4, 2, [1, 2])
        k = pure_linear_kernel()
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        assert np.allclose(drift_batch(w, k, x[None])[0], dense_drift_oracle(w, k, x))

    def test_sparse_equals_dense_random(self, rng):
        for n in (5, 32, 256):
            w = random_sparse_weights(rng, n, density=0.2)
            k = linear_attraction()
            x = rng.standard_normal((n, 1))
            fast = drift_batch(w, k, x[None])[0]
            ref = dense_drift_oracle(w, k, x)
            scale = max(1.0, np.abs(ref).max())
            assert np.abs(fast - ref).max() / scale <= 1e-12

    def test_permutation_symmetry_exact_mode(self, rng):
        # relabeling agents and weights together commutes with the drift,
        # bitwise, when per-row sums are exactly rounded
        n = 12
        w = random_sparse_weights(rng, n)
        k = linear_attraction()
        pos = rng.standard_normal((n, 1))
        perm = rng.permutation(n)
        d_then_perm = exact_drift(w, k, pos)[perm]
        perm_then_d = exact_drift(w.permuted(perm), k, pos[perm])
        assert np.array_equal(d_then_perm, perm_then_d)
        # a dozen terms of size <= 1/3 per row: a few ulps of 1 at most
        assert np.abs(drift_batch(w, k, pos[None])[0] - exact_drift(w, k, pos)).max() <= 1e-14

    def test_permutation_symmetry_fast_mode(self, rng):
        n = 30
        w = random_sparse_weights(rng, n)
        k = linear_attraction()
        pos = rng.standard_normal((n, 1))
        perm = rng.permutation(n)
        a = drift_batch(w, k, pos[None])[0][perm]
        b = drift_batch(w.permuted(perm), k, pos[perm][None])[0]
        assert np.abs(a - b).max() <= 1e-12

    def test_trajectory_relabeling(self, rng):
        # simulate-then-permute equals permute-then-simulate; only the
        # order of the fast row sums differs
        n = 10
        w = random_sparse_weights(rng, n)
        k = linear_attraction()
        pos = rng.standard_normal((n, 1))
        perm = rng.permutation(n)
        a = integrate(w, k, pos[None], [0.25], 0.05)[0, 0][perm]
        b = integrate(w.permuted(perm), k, pos[perm][None], [0.25], 0.05)[0, 0]
        assert np.abs(a - b).max() <= 1e-12

    def test_dimension_mismatch(self, rng):
        w = random_sparse_weights(rng, 4)
        with pytest.raises(ValueError, match="kernel dimension"):
            integrate(w, linear_attraction(), np.zeros((1, 4, 2)), [0.1], 0.05)
        with pytest.raises(ValueError, match="number of agents"):
            integrate(w, linear_attraction(), np.zeros((1, 5, 1)), [0.1], 0.05)


class TestPairSymmetry:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), n_rep=st.integers(1, 70),
           density=st.sampled_from([0.2, 0.5, 1.0]), name=st.sampled_from(sorted(ODD_KERNELS)),
           sigma=st.sampled_from([0.0, 0.3]))
    def test_pair_path_bitwise_equals_general_path(self, seed, n, n_rep, density, name, sigma):
        # a symmetric w with an odd K evaluates each unordered pair once;
        # the same kernel declared not odd evaluates every stored entry
        rng = np.random.default_rng(seed)
        w = random_symmetric_weights(rng, n, density)
        k = ODD_KERNELS[name]()
        general = dataclasses.replace(k, odd=False)
        assert (particles._drift(w, k, n_rep, k.dim).rows.size
                == np.count_nonzero(w.rows0 <= w.cols0))
        assert particles._drift(w, general, n_rep, k.dim).rows.size == w.nnz
        x = rng.uniform(0.0, 2 * math.pi, (n_rep, n, k.dim))
        assert np.array_equal(drift_batch(w, k, x), drift_batch(w, general, x))
        assert np.array_equal(integrate(w, k, x, [0.05, 0.1], 0.05, sigma, seed),
                              integrate(w, general, x, [0.05, 0.1], 0.05, sigma, seed))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), n_rep=st.integers(1, 8),
           symmetric=st.booleans(), odd=st.booleans(), name=st.sampled_from(sorted(ODD_KERNELS)))
    def test_relabeling_equivariance(self, seed, n, n_rep, symmetric, odd, name):
        # relabeling agents and weights together permutes the drift, on the
        # pair path and the general path; only the CSR summation order changes
        rng = np.random.default_rng(seed)
        w = (random_symmetric_weights if symmetric else random_sparse_weights)(rng, n, 0.5)
        k = dataclasses.replace(ODD_KERNELS[name](), odd=odd)
        x = rng.uniform(0.0, 2 * math.pi, (n_rep, n, k.dim))
        perm = rng.permutation(n)
        a = drift_batch(w, k, x)[:, perm]
        b = drift_batch(w.permuted(perm), k, x[:, perm])
        assert np.abs(a - b).max(initial=0.0) <= 1e-12

    @pytest.mark.parametrize("where", [0, -1])
    def test_one_ulp_asymmetry_falls_back(self, rng, where):
        # perturb the first or the last off-diagonal entry by one ulp: the
        # matrix is no longer symmetric and every entry is evaluated
        w = random_symmetric_weights(rng, 12, 0.5)
        vals = w.values.copy()
        e = np.flatnonzero(w.rows0 != w.cols0)[where]
        vals[e] = np.nextafter(vals[e], np.inf)
        bent = SparseWeights(12, w.rows0, w.cols0, vals)
        assert w.transpose_index() is not None
        assert bent.transpose_index() is None
        k = linear_attraction()
        assert particles._drift(bent, k, 3, 1).rows.size == bent.nnz
        x = rng.standard_normal((3, 12, 1))
        assert np.array_equal(drift_batch(bent, k, x),
                              drift_batch(bent, dataclasses.replace(k, odd=False), x))

    def test_scratch_reused_across_calls(self, rng, monkeypatch):
        monkeypatch.setattr(particles, "DRIFT_BLOCK", 15)      # 3 entries per block at R = 5
        w = random_symmetric_weights(rng, 10, 0.5)
        k = linear_attraction()
        x = rng.standard_normal((5, 10, 1))
        scratch = particles._drift(w, k, 5, 1)
        n_eval = scratch.rows.size
        assert n_eval > 3
        # K of one block at a time: no buffer grows with the entries
        assert [scratch.kv.shape, scratch.xi.shape, scratch.xj.shape] == [(3, 5, 1)] * 3
        assert len(scratch.blocks) == -(-n_eval // 3)
        with mock.patch.object(particles, "_drift", side_effect=AssertionError):
            first = drift_batch(w, k, x, scratch)
            again = drift_batch(w, k, 2 * x, scratch)
        assert np.array_equal(again, drift_batch(w, k, 2 * x))
        assert np.array_equal(first, drift_batch(w, k, x))

    def test_integrate_builds_one_drift_per_chunk(self, rng):
        w = random_symmetric_weights(rng, 10, 0.5)
        x = rng.standard_normal((particles.CHUNK + 6, 10, 1))
        with mock.patch.object(particles, "_drift", wraps=particles._drift) as build:
            integrate(w, linear_attraction(), x, [0.05, 0.1], 0.05)
        assert [c.args[2] for c in build.call_args_list] == [particles.CHUNK, 6]


class TestDriftBlocks:
    @pytest.mark.parametrize("n_rep", [1, 36, 64])
    @pytest.mark.parametrize("name", sorted(ODD_KERNELS))
    @pytest.mark.parametrize("odd", [True, False], ids=["folded", "unfolded"])
    def test_block_budget_does_not_change_bits(self, rng, monkeypatch, n_rep, name, odd):
        # one entry per block, 5 entries per block (which splits rows and
        # leaves a short last block), and the default, one block here
        w = random_symmetric_weights(rng, 12, 0.6)
        k = dataclasses.replace(ODD_KERNELS[name](), odd=odd)
        rows = particles._drift(w, k, n_rep, k.dim).rows
        assert rows.size % 5 and np.any(rows[4:-1:5] == rows[5::5])
        x = rng.uniform(0.0, 2 * math.pi, (n_rep, 12, k.dim))
        runs = []
        for budget, step in [(1, 1), (5 * n_rep * k.dim, 5), (particles.DRIFT_BLOCK, rows.size)]:
            monkeypatch.setattr(particles, "DRIFT_BLOCK", budget)
            assert particles._drift(w, k, n_rep, k.dim).xi.shape[0] == step
            runs.append([drift_batch(w, k, x)] + [integrate(w, k, x, [0.05, 0.1], 0.05, sigma, 11)
                                                  for sigma in (0.0, 0.3)])
        for run in runs[:2]:
            for got, want in zip(run, runs[2]):
                assert np.array_equal(got, want)

    def test_one_rk4_step_in_bounded_memory(self, rng):
        # 131,072 entries at R = 64: K of every entry for every replica would
        # be 67 MB.  One step traced a 77.6 MB peak with such an array and
        # 9.3 MB streaming K block by block into the row sums
        n, m = 2048, 64
        w = gen_class_permutation(n, m, [c % (n // m) + 1 for c in range(1, n // m + 1)])
        x = rng.standard_normal((64, n, 1))
        tracemalloc.start()
        try:
            integrate(w, linear_attraction(), x, [0.02], 0.02)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    @pytest.mark.parametrize("make", [linear_attraction, kuramoto], ids=["entries", "modes"])
    def test_agent_count_mismatch_rejected(self, rng, make):
        # both paths run compiled CSR kernels, which read x at w's columns unchecked
        with pytest.raises(ValueError, match="number of agents"):
            drift_batch(gen_uniform(8, 1.0), make(), rng.standard_normal((2, 4, 1)))

    @pytest.mark.parametrize("n_rep", [0, 1, 5])
    @pytest.mark.parametrize("graph", ["no_entries", "empty_rows_folded", "empty_rows_unfolded"])
    def test_degenerate_shapes(self, rng, n_rep, graph):
        # no replicas, no entries, and rows with no entries (the first, a
        # middle and the last agent), each bitwise equal to the oracle
        w = random_symmetric_weights(rng, 12, 0.6)
        live = ~np.isin(w.rows0, [0, 5, 11]) & ~np.isin(w.cols0, [0, 5, 11])
        if graph == "no_entries":
            live[:] = False
        vals = w.values * np.where(w.cols0 > w.rows0, 2.0, 1.0)     # asymmetric
        w = SparseWeights(12, w.rows0[live], w.cols0[live],
                          (vals if graph == "empty_rows_unfolded" else w.values)[live])
        assert (w.transpose_index() is None) == (graph == "empty_rows_unfolded")
        k = linear_attraction()
        x = rng.standard_normal((n_rep, 12, 1))
        got = drift_batch(w, k, x)
        assert got.shape == x.shape
        if n_rep:
            want = indicator_drift_reference(w, k, x)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert integrate(w, k, x, [0.05, 0.1], 0.05).shape == (2,) + x.shape


# the entry-path kernels: linear_attraction at three amplitudes carries
# eval_into, odd_2d (a custom kernel) has none
HOOK_KERNELS = {"la_1": lambda: linear_attraction(1.0), "la_0.3": lambda: linear_attraction(0.3),
                "la_-2": lambda: linear_attraction(-2.0), "odd_2d": odd_2d}


def spread_positions(rng, n_rep, n, d):
    """Positions whose differences reach exp's underflow, with repeats."""
    x = rng.standard_normal((n_rep, n, d)) * 3.0
    x[:, ::5] = rng.choice([-40.0, 0.0, 30.0], size=x[:, ::5].shape)
    return x


class TestWeightedRowSum:
    @pytest.mark.parametrize("budget", [1, 40, None], ids=["block_1", "block_40", "default"])
    @pytest.mark.parametrize("n_rep", [1, 5, 64])
    @pytest.mark.parametrize("symmetric", [True, False], ids=["folded", "unfolded"])
    @pytest.mark.parametrize("name", sorted(HOOK_KERNELS))
    def test_bitwise_equal_to_indicator_oracle(self, rng, monkeypatch, budget, n_rep,
                                               symmetric, name):
        # the row-sum matrix carries sign * w, and K goes straight into the
        # block buffers: the same bits as w * K summed by a +/-1 indicator
        if budget is not None:
            monkeypatch.setattr(particles, "DRIFT_BLOCK", budget)
        w = (random_symmetric_weights if symmetric else random_sparse_weights)(rng, 23, 0.4)
        k = HOOK_KERNELS[name]()
        n_eval = particles._drift(w, k, n_rep, k.dim).rows.size
        assert (n_eval < w.nnz) == symmetric
        x = spread_positions(rng, n_rep, 23, k.dim)
        got = drift_batch(w, k, x)
        want = indicator_drift_reference(w, k, x)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("make", [
        kuramoto, linear_attraction, lambda: linear_attraction(0.3),
        lambda: linear_attraction(-2.0), lambda: TestHodgkinHuxley().make(),
    ], ids=["kuramoto", "la_1", "la_0.3", "la_-2", "hodgkin_huxley"])
    def test_hook_equals_eval(self, rng, make):
        # every preset that sets eval_into, on (entry, replica, dim) blocks
        k = make()
        if k.name == "linear_attraction":
            assert k.eval_into is not None
        if k.eval_into is None:
            return
        x = spread_positions(rng, 64, 40, k.dim)
        x[0, :4, 0] = [np.inf, -np.inf, np.nan, -0.0]
        out, tmp = np.empty_like(x), np.empty_like(x)
        with np.errstate(all="ignore"):
            k.eval_into(x, out, tmp)
            want = k.eval(x)
        assert np.array_equal(out.view(np.uint64), want.view(np.uint64))

    def test_every_preset_is_covered(self):
        # test_hook_equals_eval lists every preset
        assert set(PRESETS) == {"kuramoto", "linear_attraction", "hodgkin_huxley"}


def without_diagonal(w):
    off = w.rows0 != w.cols0
    return SparseWeights(w.n_agents, w.rows0[off], w.cols0[off], w.values[off])


class TestLowRankDrift:
    @pytest.mark.parametrize("n_rep", [1, 36, 64, 70])
    @pytest.mark.parametrize("diagonal", [True, False], ids=["diagonal", "no_diagonal"])
    @pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "asymmetric"])
    def test_matches_entry_path(self, rng, n_rep, diagonal, symmetric):
        # the order-parameter drift differs from the entry path by rounding only
        w = (random_symmetric_weights if symmetric else random_sparse_weights)(rng, 30, 0.5)
        if not diagonal:
            w = without_diagonal(w)
        assert np.any(w.rows0 == w.cols0) == diagonal
        assert (w.transpose_index() is not None) == symmetric
        k = kuramoto(0.8)
        x = rng.uniform(0.0, 2 * math.pi, (n_rep, 30, 1))
        low_rank = drift_batch(w, k, x)
        entries = drift_batch(w, dataclasses.replace(k, modes=None), x)
        bound = check_scaling(w).max_row_abs_sum * k.sup_norm
        assert 0 < np.abs(low_rank - entries).max() <= 1e-14 * bound

    def test_integrate_allocates_no_scratch(self, rng):
        w = random_sparse_weights(rng, 6)
        with mock.patch.object(particles, "_drift", side_effect=AssertionError):
            out = integrate(w, kuramoto(), rng.uniform(0.0, 6.0, (3, 6, 1)), [0.1], 0.05, 0.3, 2)
        assert np.all((out >= 0.0) & (out < 2 * math.pi))


@pytest.mark.parametrize("perm,make", [
    ([2, 3, 4, 1], linear_attraction), ([1, 2, 3, 4], linear_attraction), ([2, 3, 4, 1], kuramoto),
], ids=["entry", "pair", "low_rank"])
def test_weights_left_untouched(rng, perm, make):
    # the drift keeps its plan with the caller: after weights.py fills its
    # own caches, neither integrate nor drift_batch writes an attribute of w
    w, k = gen_class_permutation(16, 4, perm), make()
    check_scaling(w)
    w.transpose_index()
    before = dict(vars(w))
    x = rng.uniform(0.0, 2 * math.pi, (3, 16, 1))
    integrate(w, k, x, [0.05, 0.1], 0.05, 0.3, 5)
    assert vars(w).keys() == before.keys()
    assert all(vars(w)[a] is v for a, v in before.items())
    drift_batch(w, k, x)
    assert vars(w).keys() == before.keys()
    assert all(vars(w)[a] is v for a, v in before.items())


class TestOddKernel:
    @pytest.mark.parametrize("k_eval", [lambda x: x**2, lambda x: -x + 1e-3])
    def test_not_odd_rejected(self, k_eval):
        with pytest.raises(ValueError, match="odd"):
            Kernel(dim=1, eval=k_eval, lipschitz=1.0, sup_norm=1.0, div_sup=1.0, domain=LINE,
                   odd=True)

    @pytest.mark.parametrize("modes", [
        ((np.sin, np.cos), (np.cos, np.sin)),                       # sin(x + y)
        ((lambda x: -np.sin(x), np.cos),),                          # one mode missing
        ((lambda x: -np.sin(x), np.cos), (lambda x: (1 + 1e-9) * np.cos(x), np.sin)),
        (),
    ], ids=["wrong_sign", "missing_mode", "off_by_1e-9", "empty"])
    def test_modes_not_reproducing_eval_rejected(self, modes):
        with pytest.raises(ValueError, match="modes"):
            Kernel(dim=1, eval=lambda x: -np.sin(x), lipschitz=1.0, sup_norm=1.0, div_sup=1.0,
                   modes=modes)

    def test_presets_are_odd(self):
        assert kuramoto().odd and linear_attraction().odd and TestHodgkinHuxley().make().odd
        assert odd_2d().odd and not pure_linear_kernel().odd
        assert kuramoto().modes is not None and linear_attraction().modes is None


def _la_eval(x):
    return linear_attraction().eval(x)


class TestEvalIntoGuard:
    @pytest.mark.parametrize("hook", [
        lambda x, out, tmp: np.multiply(x, np.exp(-(x * x)), out=out),
        lambda x, out, tmp: np.add(_la_eval(x), 0.0, out=out),
        lambda x, out, tmp: np.copyto(out, np.where(np.abs(x) > 26.0, 0.0, _la_eval(x))),
        lambda x, out, tmp: np.copyto(out, np.where(np.isnan(x), 0.0, _la_eval(x))),
    ], ids=["wrong_sign", "signed_zero", "flushes_underflow", "nan_to_zero"])
    def test_wrong_hook_rejected(self, hook):
        # a hook of the wrong sign, then hooks that differ from eval on some
        # probe points only: the sign of zero, where exp underflows, at NaN
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="eval_into"):
            Kernel(dim=1, eval=_la_eval, lipschitz=1.0, sup_norm=1.0, div_sup=1.0, odd=True,
                   eval_into=hook)

    def test_new_eval_needs_its_own_hook(self, rng):
        k = linear_attraction()
        with pytest.raises(ValueError, match="eval_into"):
            dataclasses.replace(k, eval=lambda x: -2.0 * x * np.exp(-(x * x)))
        doubled = dataclasses.replace(k, eval=lambda x: -2.0 * x * np.exp(-(x * x)),
                                      eval_into=None, lipschitz=2.0, sup_norm=2.0 * k.sup_norm,
                                      div_sup=2.0)
        w = random_symmetric_weights(rng, 9, 0.6)
        x = rng.standard_normal((3, 9, 1))
        assert np.array_equal(drift_batch(w, doubled, x), drift_batch(w, linear_attraction(2.0), x))


def one(positions):
    """A single replica, shape (1, N, d)."""
    return np.asarray(positions, dtype=np.float64)[None]


class TestDeterministicStep:
    def test_zero_drift_fixed_point(self, rng):
        w = random_sparse_weights(rng, 6)
        out = integrate(w, linear_attraction(), one(np.full((6, 1), 0.2)), [0.05, 0.1], 0.05)
        assert out.shape == (2, 1, 6, 1)
        assert np.all(out == 0.2)

    def test_rk4_against_exponential(self):
        # two-body linear attraction: the gap contracts as exp(-w_bar t)
        w = gen_uniform(2, 1.0)
        k = pure_linear_kernel()
        x0 = one([[0.0], [1.0]])
        t_end = 0.4
        exact_gap = math.exp(-t_end) * 1.0
        errs = []
        for dt in (0.1, 0.05):
            pos = integrate(w, k, x0, [t_end], dt)[0, 0]
            errs.append(abs((pos[1, 0] - pos[0, 0]) - exact_gap))
        assert errs[0] / errs[1] >= 8.0  # fourth order: halving dt gains ~16x

    def test_mean_preserved_two_body(self):
        w = gen_uniform(2, 1.0)
        pos = integrate(w, pure_linear_kernel(), one([[0.0], [1.0]]), [1.0], 0.1)[0, 0]
        assert abs(pos.mean() - 0.5) < 1e-14

    def test_stability_guard(self):
        w = gen_uniform(4, 1.0)
        with pytest.raises(StabilityError, match="admissible"):
            integrate(w, linear_attraction(), one(np.zeros((4, 1))), [1.0], 1.0)

    @pytest.mark.parametrize("stepper", ["deterministic", "stochastic"])
    def test_guard_fires_after_admissible_step(self, stepper):
        # the scaling report is cached on w after the first span; the guard
        # must still reject an inadmissible step on every later span
        w = gen_uniform(4, 1.0)
        k = linear_attraction()
        step = {
            "deterministic": lambda x, dt: integrate(w, k, x[None], [dt], dt)[0, 0],
            "stochastic": lambda x, dt: integrate(w, k, x[None], [dt], dt, 0.1, 5)[0, 0],
        }[stepper]
        x = step(np.linspace(-1.0, 1.0, 4)[:, None], 0.1)
        x = step(x, 0.5 / 0.75)
        with pytest.raises(StabilityError, match="admissible"):
            step(x, 0.5 / 0.75 * (1 + 1e-9))

    @pytest.mark.parametrize("sigma", [0.0, 0.1])
    def test_guard_checks_every_span(self, sigma):
        # row sums 3/4: steps up to 2/3 are admissible; spans 0.5, 0.625
        # pass and a later one-step span of 0.6875 does not
        w = gen_uniform(4, 1.0)
        k = linear_attraction()
        x0 = one(np.linspace(-1.0, 1.0, 4)[:, None])
        integrate(w, k, x0, [0.5, 1.125], 0.5, sigma)
        with pytest.raises(StabilityError, match="admissible"):
            integrate(w, k, x0, [0.5, 1.125, 1.8125], 0.5, sigma)

    def test_torus_wrap(self):
        w = gen_uniform(2, 0.1)
        out = integrate(w, kuramoto(), one([[6.2], [0.1]]), [0.1], 0.1)
        assert np.all(out >= 0.0) and np.all(out < 2 * math.pi)

    def test_torus_wraps_initial_positions(self):
        # time-0 outputs lie on the domain; a position already on it keeps its bits
        x0 = one([[-0.5], [0.1], [7.0]])
        out = integrate(gen_uniform(3, 0.1), kuramoto(), x0, [0.0, 0.1], 0.1)
        assert np.array_equal(out[0, 0, :, 0], np.mod([-0.5, 0.1, 7.0], 2 * math.pi))
        assert out[0, 0, 1, 0] == 0.1

    @pytest.mark.parametrize("dt, sigma, match", [(math.nan, 0.1, "dt"), (0.05, math.nan, "sigma")])
    def test_nan_dt_or_sigma_rejected(self, dt, sigma, match):
        with pytest.raises(ValueError, match=match):
            integrate(gen_uniform(2, 1.0), linear_attraction(), one([[0.0], [1.0]]), [0.1], dt,
                      sigma)

    def test_self_drift_constant_velocity(self):
        omega = np.array([[0.5], [-1.25], [2.0]])
        k = dataclasses.replace(linear_attraction(),
                                self_drift=lambda x: np.broadcast_to(omega, x.shape))
        x0 = one([[0.1], [0.2], [0.3]])
        out = integrate(SparseWeights(3, [], [], []), k, x0, [0.3, 1.0], 0.1)
        for ti, t in enumerate((0.3, 1.0)):
            assert np.allclose(out[ti, 0], x0[0] + omega * t, rtol=0.0, atol=1e-12)

    def test_non_finite_state_raises(self):
        k = dataclasses.replace(linear_attraction(), self_drift=lambda x: np.full_like(x, np.inf))
        with np.errstate(invalid="ignore"), pytest.raises(StabilityError, match="non-finite"):
            integrate(gen_uniform(2, 1.0), k, one([[0.0], [1.0]]), [0.1], 0.05)

    @pytest.mark.parametrize("times", [[0.2, 0.1], [-0.1], [math.nan]])
    def test_times_must_be_sorted(self, times):
        with pytest.raises(ValueError, match="sorted"):
            integrate(gen_uniform(2, 1.0), linear_attraction(), one([[0.0], [1.0]]), times, 0.05)


class TestStochasticStep:
    def test_increment_variance(self):
        # zero drift (empty weights), sigma = 1: Var per coordinate = dt
        n = 100_000
        w = SparseWeights(n, [], [], [])
        dt = 0.07
        inc = integrate(w, linear_attraction(), np.zeros((1, n, 1)), [dt], dt, 1.0, 3)[0, 0, :, 0]
        var = inc.var(ddof=1)
        se = math.sqrt(2.0 / (n - 1)) * dt  # SE of a variance estimate
        assert abs(var - dt) <= 3 * se

    def test_fixed_seed_bit_identical(self, rng):
        w = random_sparse_weights(rng, 6)
        x0 = one(rng.standard_normal((6, 1)))

        def run():
            return integrate(w, linear_attraction(), x0, [0.4], 0.02, 0.5, 42)

        assert np.array_equal(run(), run())


class TestReproducibility:
    @pytest.mark.parametrize("sigma", [0.0, 0.4])
    @settings(max_examples=6, deadline=None)
    @given(chunk=st.sampled_from([1, 7, 33]), seed=st.integers(0, 2**32 - 1),
           n=st.integers(1, 5))
    def test_replica_independent_of_count_and_chunking(self, sigma, chunk, seed, n):
        # 70 replicas in chunks of `chunk` against 130 in the fixed chunks of
        # 64: the shared replicas must follow bitwise the same trajectories
        # on the entry path (linear_attraction) and the low-rank path (kuramoto)
        rng = np.random.default_rng(seed)
        w = random_sparse_weights(rng, n, density=0.6)
        x0 = rng.standard_normal((130, n, 1))
        for k in (linear_attraction(), kuramoto()):
            many = integrate(w, k, x0, [0.05, 0.1], 0.05, sigma, seed)
            with mock.patch.object(particles, "CHUNK", chunk):
                few = integrate(w, k, x0[:70], [0.05, 0.1], 0.05, sigma, seed)
            assert np.array_equal(few, many[:, :70])

    def test_split_times_same_final_state(self, rng):
        # the same 4-step partition with or without an intermediate output:
        # the noise key is the global step, not the step within a span
        w = random_sparse_weights(rng, 8)
        x0 = rng.standard_normal((3, 8, 1))
        for k in (linear_attraction(), kuramoto()):
            split = integrate(w, k, x0, [0.1, 0.2], 0.05, 0.3, 11)
            whole = integrate(w, k, x0, [0.2], 0.05, 0.3, 11)
            assert np.array_equal(split[-1], whole[-1])


class TestNoiseLayout:
    def test_increments_are_the_documented_streams(self):
        # zero drift: each replica's path is the running sum of sigma sqrt(h)
        # times its slot of the path-noise stream, Philox with the key of
        # stream(seed, NOISE) and the counter (0, 0, s, r), over two chunks
        # of replicas and two spans of the global step count s
        seed, n, d, sigma, n_rep = 29, 3, 1, 0.6, particles.CHUNK + 3
        w = SparseWeights(n, [], [], [])
        got = integrate(w, linear_attraction(), np.zeros((n_rep, n, d)), [0.1, 0.25], 0.05, sigma,
                        seed)
        key = np.random.SeedSequence(seed, spawn_key=(seeding.NOISE,)).generate_state(2, np.uint64)
        for r in (0, 1, particles.CHUNK - 1, particles.CHUNK, n_rep - 1):
            x, s = np.zeros((n, d)), 0
            for ti, (t0, t1, n_steps) in enumerate([(0.0, 0.1, 2), (0.1, 0.25, 3)]):
                h = (t1 - t0) / n_steps
                for _ in range(n_steps):
                    bit_gen = np.random.Philox(key=key, counter=[0, 0, s, r])
                    z = np.random.Generator(bit_gen).standard_normal((n, d))
                    x = x + h * np.zeros((n, d)) + sigma * math.sqrt(h) * z
                    s += 1
                assert np.array_equal(got[ti, r], x)

    def test_normal_block_slots_are_plain_philox(self):
        # unordered, gapped replicas and an odd block size: each block is its
        # slot's first draw, so nothing buffered by one slot leaks into the next
        key = seeding.stream(5, seeding.NOISE).bit_generator.state["state"]["key"]
        step, replicas, shape = 7, [3, 0, 41, 2], (3, 1)
        got = seeding.normal_block(key, step, replicas, shape)
        assert got.shape == (len(replicas), *shape)
        for block, r in zip(got, replicas):
            bit_gen = np.random.Philox(key=key, counter=[0, 0, step, r])
            assert np.array_equal(block, np.random.Generator(bit_gen).standard_normal(shape))
        # step and replica sit in different counter words: swapping them moves the slot
        assert not np.array_equal(seeding.normal_block(key, 2, [7], shape)[0], got[3])

    def test_normal_block_rows_extend(self):
        # growing the leading dimension of shape keeps the earlier rows bitwise
        key = seeding.stream(5, seeding.NOISE).bit_generator.state["state"]["key"]
        small = seeding.normal_block(key, 4, [0, 9], (5, 2))
        large = seeding.normal_block(key, 4, [0, 9], (8, 2))
        assert np.array_equal(large[:, :5], small)

    @pytest.mark.parametrize("name", ["linear_attraction", "kuramoto"])
    def test_path_noise_agent_count_stable(self, rng, name):
        # k uncoupled agents appended (zero rows and columns): under path
        # noise the first n agents follow bitwise the same trajectories
        n, extra = 6, 4
        w = random_sparse_weights(rng, n, density=0.6)
        wide = SparseWeights(n + extra, w.rows0, w.cols0, w.values)
        x0 = rng.standard_normal((5, n + extra, 1))
        k = linear_attraction() if name == "linear_attraction" else kuramoto()
        small = integrate(w, k, x0[:, :n], [0.1, 0.2], 0.05, 0.5, 17)
        large = integrate(wide, k, x0, [0.1, 0.2], 0.05, 0.5, 17)
        assert np.array_equal(large[:, :, :n], small)


class TestDeclaredConstants:
    """Kernel rejects a sup_norm, lipschitz or div_sup below what K shows."""

    @pytest.mark.parametrize("fname,factor", [("lipschitz", 0.25), ("sup_norm", 0.25),
                                              ("div_sup", 0.25), ("lipschitz", 0.9999)])
    def test_under_declared_constant_rejected(self, fname, factor):
        # lipschitz at 0.25: the amplitude-4 kernel declared with lipschitz 1
        k = linear_attraction(4.0)
        with pytest.raises(ValueError, match=fname):
            dataclasses.replace(k, **{fname: factor * getattr(k, fname)})

    def test_torus_probed_over_one_period(self):
        # sin peaks at pi / 2, inside the period but off the line's axis
        with pytest.raises(ValueError, match="sup_norm"):
            dataclasses.replace(kuramoto(2.0), sup_norm=1.9)

    def test_presets_and_exact_constants_construct(self):
        kernels = [kuramoto(), kuramoto(0.3), linear_attraction(), linear_attraction(-3.0),
                   linear_attraction(4.0), TestHodgkinHuxley().make()]
        for k in kernels:
            assert dataclasses.replace(k) == k
        # the exact sup |a| / sqrt(2 e) and the slope 1 of a linear kernel pass
        k = Kernel(dim=1, eval=lambda x: -x, lipschitz=1.0, sup_norm=math.inf, div_sup=1.0)
        assert k.lipschitz == 1.0

    @pytest.mark.parametrize("fname", ["lipschitz", "sup_norm", "div_sup"])
    def test_nan_constant_rejected(self, fname):
        # a NaN Lipschitz constant would pass the particle stability guard
        with pytest.raises(ValueError, match=f"{fname} must be >= 0"):
            dataclasses.replace(linear_attraction(), **{fname: math.nan})

    def test_positional_arguments_rejected(self):
        # the former positional layout (dim, eval, lipschitz, sup_norm, l1_norm,
        # div_sup, zero_at_origin) would shift l1_norm into div_sup
        with pytest.raises(TypeError):
            Kernel(1, lambda x: -x, 1.0, math.inf, math.inf, 1.0, True)

    def test_nan_readings_only_skip(self):
        # NaN values are left to the particle guards; finite ones still count
        def k_eval(x):
            return np.where(np.abs(x) < 1.0, np.nan, -x)

        with pytest.raises(ValueError, match="sup_norm"):
            Kernel(dim=1, eval=k_eval, lipschitz=1.0, sup_norm=1.0, div_sup=1.0)


class TestHodgkinHuxley:
    def make(self):
        constants = dict(c_m=1.0, g_k=36.0, g_na=120.0, g_l=0.3, v_k=-12.0, v_na=115.0, v_l=10.6)
        alpha = {g: (lambda v, g=g: np.full_like(v, {"n": 0.1, "m": 0.2, "h": 0.07}[g])) for g in "nmh"}
        beta = {g: (lambda v, g=g: np.full_like(v, {"n": 0.125, "m": 0.4, "h": 0.1}[g])) for g in "nmh"}
        return hodgkin_huxley(constants, alpha, beta)

    def test_requires_all_constants(self):
        with pytest.raises(ValueError, match="missing constants"):
            hodgkin_huxley({"c_m": 1.0}, {}, {})

    def test_coupling_only_in_potential(self):
        k = self.make()
        x = np.array([[3.0, 0.1, 0.2, 0.3]])
        out = k.eval(x)
        assert out[0, 0] == -3.0
        assert np.all(out[0, 1:] == 0.0)

    def test_gating_relaxation(self):
        # constant rates: each gate relaxes to alpha / (alpha + beta)
        k = self.make()
        w = gen_uniform(2, 0.0)
        x0 = one([[0.0, 0.5, 0.5, 0.5], [0.0, 0.5, 0.5, 0.5]])
        pos = integrate(w, k, x0, [80.0], 0.01)[0, 0]
        n_inf = 0.1 / (0.1 + 0.125)
        assert abs(pos[0, 1] - n_inf) < 1e-8

    def test_two_neuron_coupling_runs(self, rng):
        k = self.make()
        w = gen_uniform(2, 0.5)
        x0 = one([[10.0, 0.3, 0.05, 0.6], [0.0, 0.3, 0.05, 0.6]])
        assert np.all(np.isfinite(integrate(w, k, x0, [0.5], 0.01)))
