import numpy as np
import pytest

from nxmf import (
    CellFunctions,
    Grid1D,
    RearrangementMap,
    build_phi,
    gaussian_fibers,
    modulus,
    rearrange_pair,
    tau,
)
from nxmf.rearrange import (
    _split_by_rank,
    fit_modulus_constant,
    modulus_bound,
    n_pieces,
    save_permutation,
)
from nxmf.trees import LabeledTree
from conftest import random_fibers, random_sparse_weights

T2 = LabeledTree((0, 1))
T31 = LabeledTree((0, 1, 1))


def admissible_functions(rng, levels, cells):
    vals = np.empty((levels, cells))
    for m in range(1, levels + 1):
        vals[m - 1] = np.maximum(rng.random(cells) * 2.0 ** (1 - m), 1e-12)
    return CellFunctions(values=vals)


class TestBuildPhi:
    def test_two_cells_sorted(self):
        g = CellFunctions(values=np.array([[0.9, 0.4]]))
        phi = build_phi(g)
        assert phi.perm.tolist() == [1, 0]

    def test_constant_gives_identity(self):
        for K in (1, 2, 3):
            P = n_pieces(K)
            vals = np.array([[2.0 ** (-m)] * P for m in range(1, K + 1)])
            g = CellFunctions(values=vals)
            assert build_phi(g).perm.tolist() == list(range(P))

    def test_bijection_random(self, rng):
        for _ in range(100):
            K = int(rng.integers(1, 4))
            P = n_pieces(K) * int(rng.integers(1, 4))
            phi = build_phi(admissible_functions(rng, K, P))
            assert sorted(phi.perm.tolist()) == list(range(P))

    def test_divisibility_rejected(self):
        g = CellFunctions(values=np.full((2, 10), 0.5))
        with pytest.raises(ValueError, match="admissible"):
            build_phi(g)

    def test_strict_normalization_enforced(self):
        with pytest.raises(ValueError, match="strict"):
            CellFunctions(values=np.full((2, 8), 0.9))  # level 2 exceeds 1/2

    def test_general_mode_rescales(self, rng):
        vals = rng.standard_normal((2, n_pieces(2) * 2)) * 5
        g = CellFunctions(values=vals, mode="general")
        phi = build_phi(g)
        assert sorted(phi.perm.tolist()) == list(range(g.n_cells))

    def test_equal_cardinality_and_nesting(self, rng):
        # positions of each level-k piece form one contiguous block that
        # subdivides the level-(k-1) block containing it
        K = 3
        P = n_pieces(K) * 2
        g = admissible_functions(rng, K, P)
        phi = build_phi(g)
        inv = phi.inverse()
        for k in range(1, K + 1):
            size = P // n_pieces(k)
            for i in range(n_pieces(k)):
                block = phi.perm[i * size : (i + 1) * size]
                # cells of a piece occupy exactly one parent block
                parent_size = P // n_pieces(k - 1)
                parents = set(int(inv[c]) // parent_size for c in block)
                assert len(parents) == 1

    def test_split_monotone_with_ties(self, rng):
        cells = np.arange(20)
        g = np.round(rng.random(30), 1)  # deliberate ties
        low, high = _split_by_rank(cells, g)
        assert low.size == high.size == 10
        assert g[low].max() <= g[high].min()
        # ties resolved by index: equal boundary values split low-index first
        boundary = g[low].max()
        if boundary in g[high]:
            assert max(low[g[low] == boundary]) < min(high[g[high] == boundary])


class TestModulus:
    def test_shift_zero_is_zero(self, rng):
        g = admissible_functions(rng, 1, 4)
        phi = build_phi(g)
        assert modulus(g, phi, [0]) == {0: 0.0}

    def test_shift_out_of_range_rejected(self, rng):
        g = admissible_functions(rng, 1, 4)
        phi = build_phi(g)
        with pytest.raises(ValueError):
            modulus(g, phi, [4])

    def test_constant_profile_edge_only(self):
        K, c = 1, 0.75
        P = 16
        g = CellFunctions(values=np.full((K, P), c))
        phi = build_phi(g)
        tab = modulus(g, phi, [1, 4, 8])
        for s, m in tab.items():
            assert abs(m - c * s / P) < 1e-15  # zero-extension boundary term

    def test_level_bounds_random(self, rng):
        K = 3
        P = n_pieces(K) ** 2
        for _ in range(3):
            g = admissible_functions(rng, K, P)
            phi = build_phi(g)
            for k in range(1, K + 1):
                smax = P // n_pieces(k) ** 2
                shifts = sorted({1, max(1, smax // 2), smax})
                tab = modulus(g, phi, shifts)
                for s, m in tab.items():
                    assert m <= modulus_bound(k)

    def test_fitted_constant_positive(self, rng):
        g = admissible_functions(rng, 2, n_pieces(2) * 4)
        phi = build_phi(g)
        tab = modulus(g, phi, [1, 2, 4, 8])
        assert fit_modulus_constant(tab, g.n_cells) > 0


class TestRearrangePair:
    def test_identity(self, rng):
        n = 8
        w = random_sparse_weights(rng, n)
        g = Grid1D(-3, 3, 16)
        f = random_fibers(rng, g, n)
        phi = RearrangementMap(perm=np.arange(n), levels=1)
        w2, f2 = rearrange_pair(w, f, phi)
        assert w2 == w
        assert np.array_equal(f2.values, f.values)

    def test_involution_restores(self, rng):
        n = 8
        w = random_sparse_weights(rng, n)
        g = Grid1D(-3, 3, 16)
        f = random_fibers(rng, g, n)
        perm = np.arange(n)
        perm[0], perm[1] = 1, 0
        perm[4], perm[5] = 5, 4
        phi = RearrangementMap(perm=perm, levels=1)
        w2, f2 = rearrange_pair(*rearrange_pair(w, f, phi), phi)
        assert w2 == w
        assert np.array_equal(f2.values, f.values)

    def test_tau_invariant(self, rng):
        n = 12
        g = Grid1D(-3, 3, 12)
        for _ in range(10):
            w = random_sparse_weights(rng, n, density=0.4)
            f = random_fibers(rng, g, n)
            phi = RearrangementMap(perm=rng.permutation(n), levels=1)
            w2, f2 = rearrange_pair(w, f, phi)
            for t in (T2, T31):
                a = tau(t, w, f).values
                b = tau(t, w2, f2).values
                assert np.abs(a - b).max() <= 1e-14

    def test_size_mismatch(self, rng):
        w = random_sparse_weights(rng, 4)
        g = Grid1D(-3, 3, 16)
        f = random_fibers(rng, g, 4)
        phi = RearrangementMap(perm=np.arange(5), levels=1)
        with pytest.raises(ValueError):
            rearrange_pair(w, f, phi)


def test_permutation_round_trip(tmp_path, rng):
    phi = build_phi(admissible_functions(rng, 2, n_pieces(2)))
    path = tmp_path / "perm.txt"
    save_permutation(phi, path)
    assert np.array_equal(np.loadtxt(path, dtype=np.int64), phi.perm)
