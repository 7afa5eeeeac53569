import math
import tracemalloc

import numpy as np
import pytest

from nxmf import (
    FiberedDensity,
    Grid1D,
    LabeledTree,
    SparseWeights,
    T1,
    enumerate_trees,
    gaussian_fibers,
    gen_class_permutation,
    gen_uniform,
    hierarchy,
    hierarchy_norm,
    hierarchy_residual,
    kuramoto,
    linear_attraction,
    marginal,
    solve,
    tau,
    tau_at,
    tau_density,
    velocity,
)
from nxmf.observables import (
    LatticeBudgetError,
    ResidualReport,
    _central_diff,
    _central_lap,
    lambda_admissible,
)
from nxmf import check_scaling, observables
from conftest import (
    pointwise_root_reference,
    random_fibers,
    random_sparse_weights,
    tau_dense_reference,
    tau_full_message_reference,
)

T2 = LabeledTree((0, 1))
T31 = LabeledTree((0, 1, 1))
T32 = LabeledTree((0, 1, 2))


def marginal_equation_residual(f_series, w, k, nu=0.0) -> ResidualReport:
    """Independent coding of the order-1 residual straight from the fibers:
    d/dt mean_i f_i + d/dx mean_i (f_i V_i) - nu Lap mean_i f_i."""
    snaps = list(f_series)
    if len(snaps) < 3:
        raise ValueError("need at least 3 snapshots")
    mid = len(snaps) // 2
    f0, f1, f2 = snaps[mid - 1], snaps[mid], snaps[mid + 1]
    h1, h2 = f1.time - f0.time, f2.time - f1.time
    grid = f1.grid
    periodic = grid.topology == "torus"
    c0 = -h2 / (h1 * (h1 + h2))
    c1 = (h2 - h1) / (h1 * h2)
    c2 = h1 / (h2 * (h1 + h2))
    m0, m1, m2 = (s.values.mean(axis=0) for s in (f0, f1, f2))
    r = c0 * m0 + c1 * m1 + c2 * m2
    vel = velocity(f1, w, k)
    flux = (f1.values * vel).mean(axis=0)
    r = r + _central_diff(flux, axis=0, dx=grid.dx, periodic=periodic)
    if nu > 0:
        r = r - nu * _central_lap(m1, axis=0, dx=grid.dx, periodic=periodic)
    value = float(np.abs(r).sum()) * grid.dx
    return ResidualReport(value=value, dt=0.5 * (h1 + h2), dx=grid.dx, field=r)


class TestTau:
    def test_order_one_is_marginal(self, rng):
        g = Grid1D(-4, 4, 32)
        f = random_fibers(rng, g, 7)
        w = random_sparse_weights(rng, 7)
        ob = tau(T1, w, f)
        assert np.allclose(ob.values, marginal(f))

    def test_matches_dense_reference(self, rng):
        g = Grid1D(-3, 3, 12)
        for _ in range(5):
            n = int(rng.integers(2, 7))
            w = random_sparse_weights(rng, n, density=0.5)
            f = random_fibers(rng, g, n)
            for order in (1, 2, 3):
                for t in enumerate_trees(order):
                    a = tau(t, w, f).values
                    b = tau_dense_reference(t, w, f).values
                    assert np.abs(a - b).max() <= 1e-12

    @pytest.mark.parametrize("block", [1, 8, 1000, observables.ROOT_BLOCK])
    @pytest.mark.parametrize("n", [1, 3, 40, 300])
    @pytest.mark.parametrize("cells", [8, 9, 33])
    def test_blocked_root_sum_is_full_message_mean(self, rng, monkeypatch, block, n, cells):
        # head blocks of one leaf cell (1, 8), of a few cells with a shorter
        # last block (1000), and the default; lattices whose full root
        # message the oracle cannot hold are left out
        monkeypatch.setattr(observables, "ROOT_BLOCK", block)
        g = Grid1D(-3, 3, cells)
        w = random_sparse_weights(rng, n, density=min(1.0, 5 / n))
        f = random_fibers(rng, g, n)
        fibers = f.values.copy()
        for order in (1, 2, 3, 4):
            if n * cells**order > 1 << 21:
                continue
            factors = {v: rng.uniform(-2.0, 2.0, (n, cells)) for v in range(1, order + 1)}
            kept = {v: a.copy() for v, a in factors.items()}
            for t in enumerate_trees(order):
                for vf in (None, factors):
                    got = tau(t, w, f, vertex_factors=vf).values
                    assert np.array_equal(got, tau_full_message_reference(t, w, f, vf))
            assert all(np.array_equal(factors[v], kept[v]) for v in factors)
            assert np.array_equal(f.values, fibers)

    def test_order_two_peak_memory(self, rng):
        # the README shape: the full root message alone would be 32 MiB
        g = Grid1D(-6, 6, 256)
        f = random_fibers(rng, g, 64)
        w = gen_class_permutation(64, 8, [*range(2, 9), 1])     # the README cycle
        tracemalloc.start()
        try:
            tau(T2, w, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    # traced peak in MiB, per (order, n, cells) and tree, of the earlier
    # root sum that formed every fiber's outer products in blocks: the
    # contraction must hold no more
    BLOCKED_SUM_PEAK_MIB = {
        (3, 64, 32): {(0, 1, 1): 2.534, (0, 1, 2): 3.002},
        (4, 64, 32): {(0, 1, 1, 1): 24.050, (0, 1, 1, 2): 24.518, (0, 1, 1, 3): 24.518,
                      (0, 1, 2, 1): 24.518, (0, 1, 2, 2): 40.002, (0, 1, 2, 3): 40.002},
        (3, 256, 64): {(0, 1, 1): 6.252, (0, 1, 2): 16.127},
    }

    @pytest.mark.parametrize("shape", list(BLOCKED_SUM_PEAK_MIB), ids=lambda s: "order%d_n%d_g%d" % s)
    def test_contraction_peak_memory_every_tree(self, rng, shape):
        order, n, cells = shape
        f = random_fibers(rng, Grid1D(-6, 6, cells), n)
        w = gen_class_permutation(n, n // 8, [*range(2, 9), 1])
        for t in enumerate_trees(order):
            tau(t, w, f)                # any lazy set-up happens outside the trace
            tracemalloc.start()
            try:
                tau(t, w, f)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= self.BLOCKED_SUM_PEAK_MIB[shape][t.parents] * 2**20, t.parents

    @pytest.mark.parametrize("factors", [
        {5: np.ones((3, 8))},                               # no vertex 5 on an order-2 tree
        {0: np.ones((3, 8))},
        {2: np.ones((3, 1))},                               # would broadcast over cells
        {1: np.ones((1, 8))},                               # would broadcast over fibers
        {1: np.ones(8)},
    ], ids=["key_5", "key_0", "one_cell", "one_fiber", "flat"])
    def test_rejects_bad_vertex_factors(self, rng, factors):
        f = random_fibers(rng, Grid1D(-3, 3, 8), 3)
        w = random_sparse_weights(rng, 3)
        with pytest.raises(ValueError, match="vertex_factors"):
            tau(T2, w, f, vertex_factors=factors)

    def test_budget_counts_message_and_lattice(self, rng):
        # N * G^2 = 7.2e7 entries would exceed the budget; the root's
        # message and the lattice, N * G + G^2 = 3.5e5, do not
        n, cells = 1100, 256
        assert n * cells**2 > observables.DEFAULT_BUDGET
        f = random_fibers(rng, Grid1D(-6, 6, cells), n)
        w = random_sparse_weights(rng, n, density=5 / n)
        got = tau(T2, w, f).values
        pts = rng.integers(0, cells, size=(50, 2))
        want = tau_at(T2, w, f, pts)
        assert np.abs(got[pts[:, 0], pts[:, 1]] - want).max() <= 1e-12 * np.abs(want).max()

    def test_budget_refuses_lattice_beyond_it(self):
        # 96^4 lattice entries alone exceed 2^26, whatever the fiber count
        g = Grid1D(-2, 2, 96)
        f = FiberedDensity(grid=g, values=np.full((2, 96), 0.25 / 2))
        with pytest.raises(LatticeBudgetError, match="tau_at"):
            tau(LabeledTree((0, 1, 1, 1)), gen_uniform(2, 1.0), f)

    def test_unreferenced_fiber_zero(self):
        g = Grid1D(-2, 2, 16)
        vals = np.zeros((2, 16))
        vals[1] = 0.25  # fiber 1 is identically zero
        f = FiberedDensity(grid=g, values=vals)
        w = SparseWeights.from_entries(2, [(1, 1, 1.0)])  # selects fiber 0 only
        for t in (T2, T31):
            assert np.abs(tau(t, w, f).values).max() == 0.0

    def test_budget_error_suggests_points(self, monkeypatch):
        g = Grid1D(-2, 2, 64)
        f = FiberedDensity(grid=g, values=np.full((4, 64), 0.25 / 4))
        w = gen_uniform(4, 1.0)
        monkeypatch.setattr(observables, "DEFAULT_BUDGET", 1000)
        with pytest.raises(LatticeBudgetError, match="tau_at"):
            tau(LabeledTree((0, 1, 1, 1)), w, f)

    def test_tau_at_matches_lattice(self, rng):
        g = Grid1D(-3, 3, 10)
        n = 4
        w = random_sparse_weights(rng, n, density=0.6)
        f = random_fibers(rng, g, n)
        pts = rng.integers(0, 10, size=(20, 3))
        ob = tau(T32, w, f)
        sampled = tau_at(T32, w, f, pts)
        direct = ob.values[pts[:, 0], pts[:, 1], pts[:, 2]]
        assert np.abs(sampled - direct).max() <= 1e-13

    @pytest.mark.parametrize("cell", [-1, 8])
    def test_tau_at_rejects_cell_out_of_range(self, rng, cell):
        # -1 would wrap to the last cell and 8 would raise a bare IndexError
        g = Grid1D(-3, 3, 8)
        w = random_sparse_weights(rng, 4, density=0.6)
        f = random_fibers(rng, g, 4)
        with pytest.raises(ValueError, match="cell indices"):
            tau_at(T2, w, f, [[0, 3], [cell, 0]])

    def test_tau_at_rejects_fiber_count_mismatch(self, rng):
        g = Grid1D(-3, 3, 8)
        f = random_fibers(rng, g, 3)
        with pytest.raises(ValueError, match="fiber count"):
            tau_at(T1, gen_uniform(4, 1.0), f, [[0], [5]])

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_tau_at_matches_lattice_every_tree(self, rng, order):
        g = Grid1D(-3, 3, 8)
        n = 4
        w = random_sparse_weights(rng, n, density=0.6)
        f = random_fibers(rng, g, n)
        pts = rng.integers(0, 8, size=(16, order))
        for t in enumerate_trees(order):
            direct = tau(t, w, f).values[tuple(pts.T)]
            assert np.abs(tau_at(t, w, f, pts) - direct).max() <= 1e-13

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_tau_at_bitwise_equal_to_pointwise_oracle(self, rng, order):
        g = Grid1D(-3, 3, 9)
        for n in (1, 3, 7):
            w = random_sparse_weights(rng, n, density=0.6)
            f = random_fibers(rng, g, n)
            pts = rng.integers(0, 9, size=(13, order))
            for t in enumerate_trees(order):
                ref = pointwise_root_reference(t, w, lambda v: f.values[:, pts[:, v - 1]])
                assert tau_at(t, w, f, pts).tobytes() == ref.mean(axis=0).tobytes()

    def test_sup_bound(self, rng):
        # |tau|_inf <= max_row_abs_sum^(m-1) * (max fiber sup)^m
        g = Grid1D(-3, 3, 10)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            w = random_sparse_weights(rng, n, density=0.5)
            f = random_fibers(rng, g, n)
            rep = check_scaling(w)
            fsup = f.values.max()
            for t in (T1, T2, T31, T32):
                m = t.order
                bound = rep.max_row_abs_sum ** (m - 1) * fsup**m
                assert tau(t, w, f).sup_norm() <= bound + 1e-12


class TestTauDensity:
    def test_single_vertex_is_one(self, rng):
        for _ in range(5):
            w = random_sparse_weights(rng, int(rng.integers(2, 20)))
            assert tau_density(T1, w) == 1.0

    def test_uniform_with_diagonal(self):
        w = gen_uniform(6, 0.7, include_diagonal=True)
        for n in range(1, 6):
            for t in enumerate_trees(n):
                assert abs(tau_density(t, w) - 0.7 ** (n - 1)) < 1e-12

    def test_class_permutation_dense_loop(self):
        w = gen_class_permutation(4, 2, [1, 2])
        dense = w.to_dense()
        expected = sum(dense[i, j] for i in range(4) for j in range(4)) / 4
        assert abs(tau_density(T2, w) - expected) < 1e-14

    def test_density_bound_random(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 12))
            w = random_sparse_weights(rng, n, density=0.4)
            bound_base = check_scaling(w).max_row_abs_sum
            for order in range(1, 7):
                for t in enumerate_trees(order):
                    assert abs(tau_density(t, w)) <= bound_base ** (order - 1) + 1e-12

    def test_moment_consistency(self, rng):
        # integrating tau over all variables recovers the homomorphism
        # density when every fiber has unit mass
        g = Grid1D(-4, 4, 12)
        for _ in range(5):
            n = int(rng.integers(2, 6))
            w = random_sparse_weights(rng, n, density=0.5)
            f = random_fibers(rng, g, n)
            for order in (1, 2, 3):
                for t in enumerate_trees(order):
                    assert abs(tau(t, w, f).integral() - tau_density(t, w)) <= 1e-10

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_matches_dense_reference(self, rng, order):
        # with every fiber identically one, the N^order oracle is the
        # homomorphism density at every lattice point
        g = Grid1D(-1, 1, 8)
        for _ in range(3):
            n = int(rng.integers(2, 5))
            w = random_sparse_weights(rng, n, density=0.6)
            f = FiberedDensity(grid=g, values=np.ones((n, 8)))
            for t in enumerate_trees(order):
                ref = tau_dense_reference(t, w, f).values
                assert np.abs(ref - tau_density(t, w)).max() <= 1e-13

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_bitwise_equal_to_pointwise_oracle(self, rng, order):
        # the leaves are 1-D: one value per fiber, no lattice axis
        for n in (1, 3, 7, 12):
            w = random_sparse_weights(rng, n, density=0.6)
            ones = np.ones(n)
            for t in enumerate_trees(order):
                ref = float(pointwise_root_reference(t, w, lambda v: ones).mean())
                assert np.float64(tau_density(t, w)).tobytes() == np.float64(ref).tobytes()


class TestHierarchy:
    def test_order_one_only(self, rng):
        g = Grid1D(-3, 3, 16)
        f = random_fibers(rng, g, 4)
        w = random_sparse_weights(rng, 4)
        h = hierarchy(w, f, n_max=1, lam=1.0)
        [ob] = list(h.observables.values())
        assert np.allclose(ob.values, marginal(f))

    def test_count_up_to_three(self, rng):
        g = Grid1D(-3, 3, 10)
        f = random_fibers(rng, g, 3)
        w = random_sparse_weights(rng, 3)
        h = hierarchy(w, f, n_max=3, lam=0.5)
        assert len(h.observables) == 1 + 1 + 2

    def test_identical_fiber_product_form(self):
        # identical fibers with constant row sums factorize exactly:
        # tau = w_bar^(m-1) * prof(x_1) ... prof(x_m)
        g = Grid1D(-4, 4, 12)
        n = 4
        f = gaussian_fibers(g, [0.1] * n, [0.8] * n)
        w = gen_uniform(n, 0.6, include_diagonal=True)
        prof = f.values[0]
        for t in (T2, T31):
            expected = np.array(0.6 ** (t.order - 1))
            for _ in range(t.order):
                expected = np.multiply.outer(expected, prof)
            assert np.abs(tau(t, w, f).values - expected).max() <= 1e-12

    def test_norm_zero(self):
        g = Grid1D(-2, 2, 8)
        f = FiberedDensity(grid=g, values=np.zeros((2, 8)))
        w = gen_uniform(2, 1.0)
        h = hierarchy(w, f, n_max=2, lam=2.0)
        assert hierarchy_norm(h) == 0.0

    def test_norm_single_tree_scaling(self):
        # a unit-L2 order-1 observable at lam = 4 contributes 4^(1/2) = 2
        g = Grid1D(0, 1, 16)
        vals = np.full((1, 16), 1.0)  # L2 norm 1 on [0,1]
        f = FiberedDensity(grid=g, values=vals)
        w = SparseWeights(1, [], [], [])
        h = hierarchy(w, f, n_max=1, lam=4.0)
        assert abs(hierarchy_norm(h) - 2.0) < 1e-12

    def test_norm_monotone_in_lambda(self, rng):
        g = Grid1D(-3, 3, 8)
        f = random_fibers(rng, g, 3)
        w = random_sparse_weights(rng, 3)
        norms = [hierarchy_norm(hierarchy(w, f, n_max=3, lam=lam)) for lam in (2.0, 1.0, 0.5)]
        assert norms[0] >= norms[1] >= norms[2]

    def test_lambda_admissible_reports(self, rng):
        g = Grid1D(-3, 3, 32)
        f = random_fibers(rng, g, 3)
        w = random_sparse_weights(rng, 3)
        ok_small, thr = lambda_admissible(1e-8, w, f, linear_attraction(), t_star=1.0)
        ok_big, _ = lambda_admissible(1e8, w, f, linear_attraction(), t_star=1.0)
        assert ok_small and not ok_big and thr > 0

    def test_lambda_admissible_zero_density(self):
        g = Grid1D(-1, 1, 8)
        f = FiberedDensity(grid=g, values=np.zeros((4, 8)))
        w = gen_class_permutation(4, 2, [1, 2])
        assert lambda_admissible(1.0, w, f, linear_attraction(), t_star=1.0) == (True, math.inf)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_lam(self, rng, lam):
        # a NaN lam would make hierarchy_norm 0.0 and read as inadmissible
        g = Grid1D(-3, 3, 16)
        f = random_fibers(rng, g, 3)
        w = random_sparse_weights(rng, 3)
        with pytest.raises(ValueError, match="lam"):
            hierarchy(w, f, n_max=1, lam=lam)
        with pytest.raises(ValueError, match="lam"):
            lambda_admissible(lam, w, f, linear_attraction(), t_star=1.0)

    @pytest.mark.parametrize("t_star", [math.nan, math.inf, -1.0])
    def test_rejects_bad_t_star(self, rng, t_star):
        g = Grid1D(-3, 3, 16)
        f = random_fibers(rng, g, 3)
        w = random_sparse_weights(rng, 3)
        with pytest.raises(ValueError, match="t_star"):
            lambda_admissible(1.0, w, f, linear_attraction(), t_star=t_star)


def _stencil_diff(arr, axis, dx, periodic):
    """Centered first difference written out slice by slice, one-sided at
    the ends of a line."""
    if periodic:
        return (np.roll(arr, -1, axis=axis) - np.roll(arr, 1, axis=axis)) / (2 * dx)
    a = np.moveaxis(arr, axis, 0)
    out = np.empty_like(a)
    out[1:-1] = (a[2:] - a[:-2]) / (2 * dx)
    out[0] = (a[1] - a[0]) / dx
    out[-1] = (a[-1] - a[-2]) / dx
    return np.moveaxis(out, 0, axis)


def _stencil_lap(arr, axis, dx, periodic):
    """Three-point second difference written out slice by slice; a line
    copies the nearest interior value to each end."""
    if periodic:
        return (np.roll(arr, -1, axis=axis) - 2 * arr + np.roll(arr, 1, axis=axis)) / dx**2
    a = np.moveaxis(arr, axis, 0)
    out = np.zeros_like(a)
    out[1:-1] = (a[2:] - 2 * a[1:-1] + a[:-2]) / dx**2
    out[0] = out[1]
    out[-1] = out[-2]
    return np.moveaxis(out, 0, axis)


class TestResidualStencils:
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_central_diff_matches_stencil(self, rng, ndim):
        arr = rng.standard_normal((9, 7, 8)[:ndim])
        for axis in range(ndim):
            for dx in (0.1, 0.25, 1.0 / 3.0):
                for periodic in (False, True):
                    got = _central_diff(arr, axis=axis, dx=dx, periodic=periodic)
                    assert np.array_equal(got, _stencil_diff(arr, axis, dx, periodic))

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_central_lap_matches_stencil(self, rng, ndim):
        arr = rng.standard_normal((9, 7, 8)[:ndim])
        for axis in range(ndim):
            for dx in (0.1, 0.25, 1.0 / 3.0):
                for periodic in (False, True):
                    got = _central_lap(arr, axis=axis, dx=dx, periodic=periodic)
                    assert np.array_equal(got, _stencil_lap(arr, axis, dx, periodic))


class TestHierarchyResidual:
    def test_stationary_zero(self, rng):
        g = Grid1D(-3, 3, 32)
        f = random_fibers(rng, g, 3)
        w = SparseWeights(3, [], [], [])  # zero velocity field
        snaps = [
            FiberedDensity(grid=g, values=f.values, time=t) for t in (0.0, 0.1, 0.2)
        ]
        for t in (T1, T2):
            rep = hierarchy_residual(t, w, snaps, linear_attraction(), nu=0.0)
            assert rep.value <= 1e-10

    def test_order_one_matches_direct_coding(self, rng):
        g = Grid1D(0, 2 * math.pi, 64, topology="torus")
        vals = np.empty((4, 64))
        x = g.centers()
        for i in range(4):
            vals[i] = (1.0 + 0.3 * np.cos(x + i)) / (2 * math.pi)
        f0 = FiberedDensity(grid=g, values=vals)
        w = random_sparse_weights(rng, 4)
        k = kuramoto()
        res = solve(f0, w, k, nu=0.0, t_end=0.2, output_times=[0.1, 0.15, 0.2], dt=0.005)
        a = hierarchy_residual(T1, w, res.snapshots, k, nu=0.0)
        b = marginal_equation_residual(res.snapshots, w, k, nu=0.0)
        assert np.abs(a.field - b.field).max() <= 1e-10
        assert abs(a.value - b.value) <= 1e-10

    def test_needs_three_snapshots(self, rng):
        g = Grid1D(-3, 3, 16)
        f = random_fibers(rng, g, 2)
        w = random_sparse_weights(rng, 2)
        with pytest.raises(ValueError):
            hierarchy_residual(T1, w, [f, f], linear_attraction())

    @staticmethod
    def _snapshots(rng, times=(0.0, 0.1, 0.2), grids=None):
        g = Grid1D(-3, 3, 16)
        f = random_fibers(rng, g, 3)
        grids = grids or (g, g, g)
        return [FiberedDensity(grid=gr, values=f.values, time=t) for gr, t in zip(grids, times)]

    @pytest.mark.parametrize("times", [(0.0, math.nan, 0.2), (0.0, 0.1, math.nan),
                                       (math.nan, 0.1, 0.2)], ids=["mid", "last", "first"])
    def test_rejects_nan_time(self, rng, times):
        w = random_sparse_weights(rng, 3)
        with pytest.raises(ValueError, match="increasing"):
            hierarchy_residual(T1, w, self._snapshots(rng, times), linear_attraction())

    def test_rejects_snapshots_on_different_grids(self, rng):
        g, other = Grid1D(-3, 3, 16), Grid1D(-4, 4, 16)
        w = random_sparse_weights(rng, 3)
        snaps = self._snapshots(rng, grids=(g, other, g))
        with pytest.raises(ValueError, match="one grid"):
            hierarchy_residual(T2, w, snaps, linear_attraction())

    @pytest.mark.parametrize("nu", [-1.0, math.nan, math.inf])
    def test_rejects_bad_nu(self, rng, nu):
        w = random_sparse_weights(rng, 3)
        with pytest.raises(ValueError, match="nu"):
            hierarchy_residual(T1, w, self._snapshots(rng), linear_attraction(), nu=nu)

    @pytest.mark.parametrize("shape", [(16,), (16, 8), (16, 16, 16)])
    def test_rejects_tau1_of_wrong_shape(self, rng, shape):
        w = random_sparse_weights(rng, 3)
        with pytest.raises(ValueError, match="tau1"):
            hierarchy_residual(T2, w, self._snapshots(rng), linear_attraction(),
                               tau1=np.zeros(shape))

    def test_viscous_term_enters(self, rng):
        g = Grid1D(0, 2 * math.pi, 48, topology="torus")
        x = g.centers()
        vals = np.tile((1.0 + 0.4 * np.sin(x)) / (2 * math.pi), (2, 1))
        w = SparseWeights(2, [], [], [])
        snaps = [FiberedDensity(grid=g, values=vals, time=t) for t in (0.0, 0.1, 0.2)]
        r0 = hierarchy_residual(T1, w, snaps, kuramoto(), nu=0.0)
        r1 = hierarchy_residual(T1, w, snaps, kuramoto(), nu=0.1)
        assert r0.value <= 1e-12
        assert r1.value > 1e-4  # pure diffusion defect of a frozen profile
