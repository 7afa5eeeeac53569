import importlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from nxmf import (
    ScalingReport,
    SparseWeights,
    check_scaling,
    gen_class_permutation,
    gen_from_graphon,
    gen_uniform,
    kernel_apply,
    load_edge_list,
    save_edge_list,
)
from nxmf import weights
from conftest import random_sparse_weights, random_symmetric_weights


def cyclic_perm(n_classes):
    return [k % n_classes + 1 for k in range(1, n_classes + 1)]


def naive_scaling(w):
    """Per-row and per-column fsum of |w_ij|, grouped straight from the entries."""
    by_row, by_col = {}, {}
    for i, j, v in w.entries():
        by_row.setdefault(i, []).append(abs(v))
        by_col.setdefault(j, []).append(abs(v))
    return ScalingReport(
        max_row_abs_sum=max((math.fsum(s) for s in by_row.values()), default=0.0),
        max_col_abs_sum=max((math.fsum(s) for s in by_col.values()), default=0.0),
        max_entry_abs=max((abs(v) for _, _, v in w.entries()), default=0.0),
        density=w.nnz / w.n_agents ** 2,
    )


class TestCheckScaling:
    def test_matches_naive_reference(self, rng):
        # negative weights, empty rows and columns, wide magnitudes, nnz == 0
        for density in (0.0, 0.02, 0.1, 0.5, 1.0):
            for _ in range(10):
                n = int(rng.integers(1, 50))
                w = random_sparse_weights(rng, n, density=density)
                assert check_scaling(w) == naive_scaling(w)
                scaled = SparseWeights(n, w.rows0, w.cols0,
                                       w.values * 10.0 ** rng.uniform(-12, 12, size=w.nnz))
                assert check_scaling(scaled) == naive_scaling(scaled)
        w = SparseWeights(6, [0, 0, 4], [2, 5, 2], [-0.5, 0.25, -0.125])
        assert naive_scaling(w) == ScalingReport(0.75, 0.625, 0.5, 3 / 36)
        assert check_scaling(w) == naive_scaling(w)

    @pytest.mark.parametrize("block", [1, 5, 64])
    def test_fsum_blocks_do_not_change_report(self, rng, monkeypatch, block):
        # blocks of one entry, of a few entries (most rows longer than a
        # block), and of several whole rows with a short last block
        monkeypatch.setattr(weights, "FSUM_BLOCK", block)
        for density in (0.0, 0.1, 0.5, 1.0):
            w = random_sparse_weights(rng, 30, density=density)
            assert check_scaling(w) == naive_scaling(w)

    def test_bounded_memory(self):
        # the simulate_large graph, nnz 262,144: at ~32 B per Python float
        # the values stay under the bound only if read a block at a time
        w = gen_class_permutation(4096, 64, cyclic_perm(64))
        tracemalloc.start()
        try:
            check_scaling(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_second_call_returns_cached_report(self, rng):
        w = random_sparse_weights(rng, 20)
        assert check_scaling(w) is check_scaling(w)

    def test_permuted_matrix_gets_own_report(self, rng):
        w = random_sparse_weights(rng, 20)
        rep = check_scaling(w)
        other = check_scaling(w.permuted(rng.permutation(20)))
        assert other is not rep
        assert other == rep

    def test_class_permutation_large(self):
        w = gen_class_permutation(1024, 64, cyclic_perm(16))
        rep = check_scaling(w)
        assert rep.max_row_abs_sum == 1.0
        assert rep.max_col_abs_sum == 1.0

    def test_empty(self):
        w = SparseWeights(10, [], [], [])
        rep = check_scaling(w)
        assert (rep.max_row_abs_sum, rep.max_col_abs_sum, rep.max_entry_abs, rep.density) == (0, 0, 0, 0)

    def test_uniform_diag_excluded(self):
        w = gen_uniform(8, 1.0, include_diagonal=False)
        # brute-force oracle: fsum over all stored entries per row
        dense = w.to_dense()
        expected = max(math.fsum(abs(v) for v in row) for row in dense)
        rep = check_scaling(w)
        assert rep.max_row_abs_sum == expected == 1.0 - 1.0 / 8.0

    def test_uniform_diag_included(self):
        rep = check_scaling(gen_uniform(8, 1.0, include_diagonal=True))
        assert rep.max_row_abs_sum == 1.0

    @pytest.mark.parametrize("n,m", [(4, 2), (6, 3), (8, 2), (12, 4), (16, 16)])
    def test_class_permutation_exact_report(self, n, m, rng):
        perm = (rng.permutation(n // m) + 1).tolist()
        rep = check_scaling(gen_class_permutation(n, m, perm))
        assert rep == check_scaling(gen_class_permutation(n, m, perm))
        assert rep.max_row_abs_sum == 1.0
        assert rep.max_col_abs_sum == 1.0
        assert rep.max_entry_abs == 1.0 / m
        assert rep.density == m / n

    def test_permutation_invariance(self, rng):
        for _ in range(20):
            w = random_sparse_weights(rng, 17)
            perm = rng.permutation(17)
            assert check_scaling(w.permuted(perm)) == check_scaling(w)


class TestTransposeIndex:
    def test_points_at_transposed_entry(self, rng):
        for n in (1, 5, 30):
            w = random_symmetric_weights(rng, n, density=0.4)
            t = w.transpose_index()
            assert np.array_equal(w.rows0[t], w.cols0)
            assert np.array_equal(w.cols0[t], w.rows0)
            assert np.array_equal(w.values[t], w.values)

    def test_symmetric_generators(self):
        assert gen_uniform(6, 1.0).transpose_index() is not None
        assert gen_class_permutation(12, 4, [1, 2, 3]).transpose_index() is not None
        assert gen_class_permutation(12, 4, [2, 1, 3]).transpose_index() is not None
        assert gen_from_graphon(9, lambda x, y: x + y).transpose_index() is not None
        assert SparseWeights(4, [], [], []).transpose_index().size == 0

    def test_asymmetric_rejected(self, rng):
        assert gen_class_permutation(12, 4, cyclic_perm(3)).transpose_index() is None
        assert gen_from_graphon(9, lambda x, y: x * x + y).transpose_index() is None
        # the first row is symmetric, a later one is not
        w = SparseWeights(4, [0, 1, 2, 3], [1, 0, 3, 2], [0.5, 0.5, 0.25, -0.25])
        assert w.transpose_index() is None
        assert SparseWeights(3, [1], [2], [1.0]).transpose_index() is None
        # -0.0 and 0.0 differ bitwise
        assert SparseWeights(2, [0, 1], [1, 0], [0.0, -0.0]).transpose_index() is None

    def test_second_call_returns_cached_index(self, rng):
        w = random_symmetric_weights(rng, 20)
        assert w.transpose_index() is w.transpose_index()

    def test_permuted_matrix_gets_own_index(self, rng):
        w = random_symmetric_weights(rng, 20)
        p = w.permuted(rng.permutation(20))
        other = p.transpose_index()
        assert other is not w.transpose_index()
        assert np.array_equal(p.rows0[other], p.cols0)


class TestGenerators:
    def test_uniform_small(self):
        w = gen_uniform(4, 1.0)
        assert w.nnz == 12
        assert np.all(w.values == 0.25)

    def test_uniform_single_agent(self):
        assert gen_uniform(1, 2.0).nnz == 0

    def test_uniform_entry_size(self):
        assert check_scaling(gen_uniform(100, 1.0)).max_entry_abs == 0.01

    def test_uniform_rejects_zero(self):
        with pytest.raises(ValueError):
            gen_uniform(0, 1.0)

    def test_class_permutation_entries(self):
        w = gen_class_permutation(4, 2, [1, 2])
        got = {(i, j): v for i, j, v in w.entries()}
        expected = {(1, 1), (1, 2), (2, 1), (2, 2), (3, 3), (3, 4), (4, 3), (4, 4)}
        assert set(got) == expected
        assert all(v == 0.5 for v in got.values())

    def test_class_permutation_density(self):
        w = gen_class_permutation(1024, 64, cyclic_perm(16))
        assert check_scaling(w).density == 64 / 1024

    def test_class_permutation_row_sums(self, rng):
        for n, m in [(6, 2), (12, 3), (20, 5)]:
            perm = (rng.permutation(n // m) + 1).tolist()
            dense = gen_class_permutation(n, m, perm).to_dense()
            assert np.allclose(dense.sum(axis=1), 1.0)
            assert np.allclose(dense.sum(axis=0), 1.0)

    def test_class_permutation_rejects(self):
        with pytest.raises(ValueError):
            gen_class_permutation(10, 3, [1, 2, 3])
        with pytest.raises(ValueError):
            gen_class_permutation(4, 2, [1, 1])

    def test_graphon_constant_matches_uniform(self):
        w = gen_from_graphon(10, lambda x, z: 1.0)
        assert w == gen_uniform(10, 1.0, include_diagonal=True)

    def test_graphon_product_value(self):
        w = gen_from_graphon(2, lambda x, z: x * z)
        assert w.to_dense()[0, 0] == (0.25 * 0.25) / 2

    def test_graphon_row_sum_bounded_by_sup(self):
        g = lambda x, z: 0.5 + 0.4 * np.sin(7 * x) * np.cos(3 * z)
        sup = 0.9
        for n in (4, 16, 64):
            rep = check_scaling(gen_from_graphon(n, g))
            assert rep.max_row_abs_sum <= sup + 1e-12

    def test_graphon_bernoulli_reproducible(self):
        w1 = gen_from_graphon(30, lambda x, z: 0.3, rng_seed=5, mode="bernoulli")
        w2 = gen_from_graphon(30, lambda x, z: 0.3, rng_seed=5, mode="bernoulli")
        assert w1 == w2
        assert np.all(w1.values == 1.0 / 30)


class TestKernelApply:
    def test_uniform_ones(self):
        n = 12
        out = kernel_apply(gen_uniform(n, 1.0), np.ones(n))
        assert np.allclose(out, (n - 1) / n)

    def test_class_permutation_constant(self):
        w = gen_class_permutation(8, 2, cyclic_perm(4))
        out = kernel_apply(w, np.full(8, 3.7))
        assert np.allclose(out, 3.7)

    def test_zero(self, rng):
        w = random_sparse_weights(rng, 9)
        assert np.all(kernel_apply(w, np.zeros(9)) == 0.0)

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            kernel_apply(random_sparse_weights(rng, 9), np.ones(8))

    def test_operator_bounds_random(self, rng):
        # sup and averaged-L1 bounds of the kernel action, 100 random pairs
        for _ in range(100):
            n = int(rng.integers(2, 40))
            w = random_sparse_weights(rng, n, density=float(rng.uniform(0.05, 0.9)))
            phi = rng.standard_normal(n) * rng.uniform(0.1, 10)
            rep = check_scaling(w)
            out = kernel_apply(w, phi)
            assert np.abs(out).max() <= rep.max_row_abs_sum * np.abs(phi).max() + 1e-12
            assert np.abs(out).mean() <= rep.max_col_abs_sum * np.abs(phi).mean() + 1e-12

    @pytest.mark.parametrize("trailing", [(), (3,), (2, 5)])
    def test_matches_dense_product(self, rng, trailing):
        # a stack of vectors is applied column by column, keeping its shape
        w = random_sparse_weights(rng, 11, density=0.4)
        phi = rng.standard_normal((11,) + trailing)
        out = kernel_apply(w, phi)
        assert out.shape == phi.shape
        expected = np.tensordot(w.to_dense(), phi, axes=1)
        assert np.abs(out - expected).max() <= 1e-14



class TestProduct:
    """weights._product, the one CSR product in nxmf, is bitwise scipy's `csr @ x`."""

    @staticmethod
    def assert_bitwise_scipy(w, x):
        got = weights._product(w.indptr, w.cols0, w.values, x)
        want = w.csr() @ x
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("trailing", [(), (1,), (7,)], ids=["1d", "one_column", "columns"])
    def test_non_symmetric(self, rng, trailing):
        w = random_sparse_weights(rng, 23, density=0.4)
        assert w.transpose_index() is None
        self.assert_bitwise_scipy(w, rng.standard_normal((23,) + trailing))

    @pytest.mark.parametrize("trailing", [(), (1,), (4,)], ids=["1d", "one_column", "columns"])
    def test_empty_rows(self, rng, trailing):
        w = SparseWeights(7, [0, 0, 4, 4, 4], [1, 6, 0, 2, 3], rng.standard_normal(5))
        assert np.count_nonzero(np.diff(w.indptr) == 0) == 5
        self.assert_bitwise_scipy(w, rng.standard_normal((7,) + trailing))

    @pytest.mark.parametrize("trailing", [(), (1,), (3,)], ids=["1d", "one_column", "columns"])
    def test_no_entries(self, rng, trailing):
        w = SparseWeights(5, [], [], [])
        self.assert_bitwise_scipy(w, rng.standard_normal((5,) + trailing))

    def test_kernel_apply_is_the_product(self, rng):
        w = random_sparse_weights(rng, 13, density=0.5)
        phi = rng.standard_normal((13, 2, 3))
        want = (w.csr() @ phi.reshape(13, 6)).reshape(phi.shape)
        assert np.array_equal(kernel_apply(w, phi).view(np.uint64), want.view(np.uint64))

    def test_scaling_report_matches_scipy_column_grouping(self, rng):
        for density in (0.0, 0.05, 0.3, 1.0):
            w = random_sparse_weights(rng, 29, density=density)
            csc = w.csr().tocsc()
            assert check_scaling(w) == ScalingReport(
                max_row_abs_sum=weights._max_abs_fsum(w.values, w.indptr),
                max_col_abs_sum=weights._max_abs_fsum(csc.data, csc.indptr),
                max_entry_abs=float(np.abs(w.values).max(initial=0.0)),
                density=w.nnz / 29.0**2,
            )


def run_python(script):
    """Run script in a fresh interpreter that imports nxmf from this checkout."""
    src = str(Path(weights.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=300)


class TestSparsetoolsLoader:
    """nxmf reaches scipy's compiled CSR kernels without importing scipy.sparse."""

    def test_readme_commands_leave_scipy_sparse_unimported(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        config = tmp_path / "readme.json"
        config.write_text(readme.split("```json\n", 1)[1].split("```", 1)[0])
        run_python(f"""
import sys
from nxmf import cli, weights
for command in ("simulate", "solve", "observe", "rearrange", "convergence"):
    assert cli.main([command, "--config", {str(config)!r},
                     "--out", {str(tmp_path)!r} + "/" + command]) == 0, command
assert "scipy.sparse" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
# registered under its own name: scipy.sparse, imported now, reuses the module
import numpy as np
import scipy.sparse
from scipy.sparse import _sparsetools
assert _sparsetools is weights._sparsetools
a = scipy.sparse.random(9, 9, density=0.4, format="csr", random_state=1)
assert np.allclose(a @ np.arange(9.0), a.toarray() @ np.arange(9.0))
""")

    def test_loader_reuses_a_loaded_scipy_sparse(self):
        run_python("""
import sys
import scipy.sparse
loaded = sys.modules["scipy.sparse._sparsetools"]
from nxmf import weights
assert weights._sparsetools is loaded
""")


class TestStorage:
    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            SparseWeights.from_entries(3, [(1, 2, 0.5), (1, 2, 0.25)])
        with pytest.raises(ValueError, match="duplicate"):       # first and last
            SparseWeights.from_entries(3, [(1, 2, 0.5), (3, 1, 0.5), (2, 2, 0.5), (1, 2, 0.25)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SparseWeights.from_entries(3, [(1, 4, 0.5)])
        with pytest.raises(ValueError):
            SparseWeights.from_entries(3, [(0, 1, 0.5)])

    def test_adjacency_round_trip(self, rng):
        # the CSR operator read back by rows and by columns holds exactly the stored entries
        w = random_sparse_weights(rng, 13)
        by_row, by_col = w.csr().tocoo(), w.csr().tocsc().tocoo()
        from_rows = {(int(i) + 1, int(j) + 1, float(v))
                     for i, j, v in zip(by_row.row, by_row.col, by_row.data)}
        from_cols = {(int(i) + 1, int(j) + 1, float(v))
                     for i, j, v in zip(by_col.row, by_col.col, by_col.data)}
        assert from_rows == from_cols == set(w.entries())

    def test_edge_list_round_trip(self, rng, tmp_path):
        w = random_sparse_weights(rng, 15)
        path = tmp_path / "w.edges"
        save_edge_list(w, path)
        assert load_edge_list(path) == w

    def test_immutable_values(self, rng):
        w = random_sparse_weights(rng, 5)
        with pytest.raises(ValueError):
            w.values[0] = 99.0


class TestConstructor:
    """Every SparseWeights, generated or given, goes through one constructor."""

    def test_generators_reject_non_finite_weights(self):
        with pytest.raises(ValueError, match="finite"):
            gen_uniform(4, math.nan)
        with np.errstate(divide="ignore"), pytest.raises(ValueError, match="finite"):
            gen_from_graphon(4, lambda x, z: 1.0 / (x - z))

    def test_entry_order_does_not_matter(self, rng):
        w = random_sparse_weights(rng, 17)
        rows, cols, vals = w.rows0, w.cols0, w.values
        shuffle = rng.permutation(w.nnz)
        shuffled = SparseWeights(17, rows[shuffle], cols[shuffle], vals[shuffle])
        assert shuffled == w
        assert np.array_equal(shuffled.rows0, w.rows0)
        # the direct CSR build holds what scipy's COO conversion gives
        coo = sp.csr_matrix((vals[shuffle], (rows[shuffle], cols[shuffle])), shape=(17, 17))
        for a in (w.csr(), shuffled.csr()):
            assert np.array_equal(a.data, coo.data)
            assert np.array_equal(a.indices, coo.indices)
            assert np.array_equal(a.indptr, coo.indptr)

    def test_storage_is_the_csr(self, rng):
        w = random_sparse_weights(rng, 11)
        a = w.csr()
        assert np.shares_memory(w.values, a.data)
        assert np.shares_memory(w.cols0, a.indices)
        for arr in (w.rows0, w.cols0, w.values, a.data, a.indices, a.indptr):
            assert not arr.flags.writeable

    def test_caller_arrays_stay_theirs(self, rng):
        w0 = random_sparse_weights(rng, 9)
        rows, cols, vals = w0.rows0.copy(), w0.cols0.astype(np.int64), w0.values.copy()
        w = SparseWeights(9, rows, cols, vals)
        for arr in (rows, cols, vals):
            assert arr.flags.writeable
            assert not any(np.shares_memory(arr, s) for s in (w.rows0, w.cols0, w.values))
        vals[:] = 7.0
        assert w == w0

    def test_transpose_found_past_int32_keys(self):
        # col * n + row exceeds 2**31 here: the keys must be int64
        n = 50_000
        i, j = np.array([0, 45_000, 49_999]), np.array([49_999, 49_000, 49_999])
        w = SparseWeights(n, np.concatenate((i, j[:2])), np.concatenate((j, i[:2])),
                          [0.5, 0.25, 1.0, 0.5, 0.25])
        t = w.transpose_index()
        assert t is not None
        assert np.array_equal(w.rows0[t], w.cols0) and np.array_equal(w.cols0[t], w.rows0)


@pytest.mark.parametrize("module", ["nxmf.weights", "nxmf.rearrange"])
def test_public_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(mod.__all__) <= namespace.keys()
