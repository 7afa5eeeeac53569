import dataclasses
import itertools
import math
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nxmf import (
    Grid1D,
    Kernel,
    Law1D,
    StabilityError,
    c1,
    gaussian_fibers,
    gen_class_permutation,
    gen_uniform,
    independence_gap,
    integrate,
    kuramoto,
    linear_attraction,
    marginal,
    meanfield_gap,
    solve,
    w1,
)
from nxmf import metrics, seeding
from nxmf.metrics import MASS_TOL, AgentLawSpec, GapReport, convergence_gaps
from nxmf.weights import SparseWeights, check_scaling
from conftest import segment_integrals_reference


def greedy_transport_oracle(xa, wa, xb, wb):
    """Northwest-corner transport on sorted supports; optimal for |x - y|
    in one dimension."""
    xa, wa = list(xa), list(wa)
    xb, wb = list(xb), list(wb)
    i = j = 0
    cost = 0.0
    while i < len(xa) and j < len(xb):
        m = min(wa[i], wb[j])
        cost += m * abs(xa[i] - xb[j])
        wa[i] -= m
        wb[j] -= m
        if wa[i] <= 1e-15:
            i += 1
        if j < len(xb) and wb[j] <= 1e-15:
            j += 1
    return cost


def random_law(rng, kind):
    """An atom law (some atoms repeated) or a grid law (some cells empty)
    on a random interval."""
    if kind == "atoms":
        x = np.round(rng.uniform(-3.0, 3.0, int(rng.integers(1, 12))), 1)
        wts = rng.random(x.size) + 0.01
        return Law1D.from_atoms(x, wts / wts.sum())
    lo = rng.uniform(-3.0, 1.0)
    g = Grid1D(lo, lo + rng.uniform(0.5, 4.0), int(rng.integers(8, 40)))
    v = rng.random(g.n_cells) * (rng.random(g.n_cells) < 0.7) + 1e-3
    return Law1D.from_grid(g, v / (v.sum() * g.dx))


class TestW1:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           kinds=st.tuples(*[st.sampled_from(["atoms", "grid"])] * 3))
    def test_symmetry_and_triangle_property(self, seed, kinds):
        rng = np.random.default_rng(seed)
        a, b, c = (random_law(rng, kind) for kind in kinds)
        dab, dba = w1(a, b), w1(b, a)
        assert abs(dab - dba) <= 1e-12 * dab
        assert dab <= (w1(a, c) + w1(c, b)) * (1 + 1e-12)

    def test_unit_translation(self):
        assert w1(Law1D.from_atoms([0.0]), Law1D.from_atoms([1.0])) == 1.0

    def test_self_distance_zero(self, rng):
        a = Law1D.from_atoms(rng.standard_normal(9))
        assert w1(a, a) == 0.0

    def test_three_atoms_vs_transport_oracle(self, rng):
        for _ in range(50):
            xa = np.sort(rng.standard_normal(3))
            xb = np.sort(rng.standard_normal(3))
            wa = rng.random(3)
            wa /= wa.sum()
            wb = rng.random(3)
            wb /= wb.sum()
            got = w1(Law1D.from_atoms(xa, wa), Law1D.from_atoms(xb, wb))
            ref = greedy_transport_oracle(xa, wa, xb, wb)
            assert abs(got - ref) < 1e-12

    def test_symmetry_and_triangle(self, rng):
        for _ in range(1000):
            laws = [Law1D.from_atoms(rng.standard_normal(4)) for _ in range(3)]
            dab = w1(laws[0], laws[1])
            assert dab == w1(laws[1], laws[0])
            assert dab <= w1(laws[0], laws[2]) + w1(laws[2], laws[1]) + 1e-12

    def test_grid_vs_atomized(self, rng):
        g = Grid1D(-5, 5, 64)
        f = gaussian_fibers(g, [0.3], [0.7])
        grid_law = Law1D.from_grid(g, f.values[0])
        atom_law = Law1D.from_atoms(g.centers(), f.values[0] * g.dx)
        other = Law1D.from_atoms(rng.standard_normal(40))
        a = w1(grid_law, other)
        b = w1(atom_law, other)
        assert abs(a - b) <= g.dx

    def test_grid_vs_grid_translation(self):
        g = Grid1D(-8, 8, 256)
        f = gaussian_fibers(g, [0.0, 1.2], [0.5, 0.5])
        d = w1(Law1D.from_grid(g, f.values[0]), Law1D.from_grid(g, f.values[1]))
        assert abs(d - 1.2) < 2 * g.dx

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="mass"):
            Law1D.from_atoms([0.0, 1.0], [0.6, 0.6])
        g = Grid1D(0, 1, 8)
        with pytest.raises(ValueError, match="mass"):
            Law1D.from_grid(g, np.full(8, 2.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_grid_rejected(self, bad):
        v = np.full(8, 1.0)
        v[3] = bad
        with pytest.raises(ValueError, match="finite"):
            Law1D.from_grid(Grid1D(0, 1, 8), v)

    def test_no_atoms_rejected(self):
        with pytest.raises(ValueError, match="at least one atom"):
            Law1D.from_atoms([])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_atoms_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Law1D.from_atoms([0.0, 0.5], [bad, 0.5])
        with pytest.raises(ValueError, match="finite"):
            Law1D.from_atoms([bad, 0.5])


def bits(a):
    """The IEEE bit patterns of a float array, for bitwise comparison."""
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def report_bits(reports):
    return [(r.t, r.seeds, *bits([r.gap, r.bound, r.stderr, r.dx]).tolist()) for r in reports]


class TestSegmentIntegrals:
    # signed zeros, subnormals, values whose products underflow (1e-170 *
    # 1e-170) or overflow, equal magnitudes and extreme ratios
    VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-170, -1e-170, 1e-160, -3e-9, 0.3, -0.3,
              0.7, 1.0, -1.0, 1e150, -1e300]

    def test_bitwise_equal_to_both_branches(self):
        d0, d1 = np.array(list(itertools.product(self.VALUES, repeat=2))).T
        lengths = np.resize([0.01, 1.0, 3e-5, 1e-300, 7.5], d0.size)
        with np.errstate(all="ignore"):
            got = metrics._segment_integrals(d0, d1, lengths)
            want = segment_integrals_reference(d0, d1, lengths)
            assert (d0 * d1 < 0).any() and (d0 * d1 == 0).any()
        assert np.array_equal(bits(got), bits(want))

    def test_broadcast_lengths(self, rng):
        # the batched W1's layout: (draw, row, segment) against (row, segment)
        d0 = rng.standard_normal((3, 4, 9)) * 1e-3
        d1 = rng.standard_normal((3, 4, 9)) * 1e-3
        d1[0] = 0.0
        lengths = rng.random((4, 9))
        assert np.array_equal(bits(metrics._segment_integrals(d0, d1, lengths)),
                              bits(segment_integrals_reference(d0, d1, lengths)))


class TestBatchedW1:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 12),
           topology=st.sampled_from(["line", "torus"]))
    @example(seed=0, m=1, topology="line")
    @example(seed=1, m=1, topology="torus")
    def test_bitwise_equal_to_w1(self, seed, m, topology):
        rng = np.random.default_rng(seed)
        lo = rng.uniform(-3.0, 1.0)
        g = Grid1D(lo, lo + rng.uniform(0.5, 4.0), int(rng.integers(8, 40)), topology)
        edges = g.x_min + np.arange(g.n_cells + 1) * g.dx
        rows, n_draws = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        # atoms drawn with repeats from grid edges and points in and around the grid
        pool = np.concatenate((edges, rng.uniform(g.x_min - 1.0, g.x_max + 1.0, 8)))
        x = rng.choice(pool, (rows, m))
        x[0, 0] = edges[rng.integers(edges.size)]
        x[-1, -1] = g.x_max + rng.uniform(0.0, 1.0)
        if m > 1:
            x[:, 1] = x[:, 0]
        v = rng.random((rows, g.n_cells)) * (rng.random((rows, g.n_cells)) < 0.7)
        v[:, 0] += 0.1
        v /= v.sum(axis=1, keepdims=True) * g.dx
        # zero weights in every draw but the first; the last has one atom
        wv = rng.random((n_draws, m)) * (rng.random((n_draws, m)) < 0.6)
        wv[np.arange(n_draws), rng.integers(0, m, n_draws)] += 0.1
        wv[0] += 0.1
        wv[-1] = 0.0
        wv[-1, rng.integers(m)] = 1.0
        wv /= wv.sum(axis=1, keepdims=True)

        # zero-weight atoms stay in the reference law, as knots of its CDF
        ref = np.array([[w1(Law1D.from_atoms(x[r], wd), Law1D.from_grid(g, v[r]))
                         for r in range(rows)] for wd in wv])
        # W1_CHUNK of 1 sets up one row and passes one draw at a time; two
        # rows per block puts row 0, with an atom on an edge, beside a row of
        # another knot count; the default sets up every row at once here
        for chunk in (1, 2 * (m + g.n_cells + 1), metrics.W1_CHUNK):
            with mock.patch.object(metrics, "W1_CHUNK", chunk):
                got = metrics._w1_atoms_vs_grid(x, g, v, wv)
            assert np.array_equal(bits(got), bits(ref))

    def test_blocks_do_not_change_bits(self, rng, monkeypatch):
        g = Grid1D(-2.0, 2.0, 16)
        x = rng.standard_normal((7, 9))
        v = gaussian_fibers(g, rng.uniform(-1, 1, 7), np.full(7, 0.5)).values
        wv = rng.multinomial(9, np.full(9, 1 / 9), size=3) / 9
        whole = metrics._w1_atoms_vs_grid(x, g, v, wv)
        monkeypatch.setattr(metrics, "W1_CHUNK", 1)
        assert np.array_equal(bits(metrics._w1_atoms_vs_grid(x, g, v, wv)), bits(whole))

    def test_mixed_knot_counts_in_one_block(self):
        # rows of 14, 10 and 9 distinct knots, each 14 knots with repeats
        # kept (5 atoms, 9 edges); a chunk of 28 puts two rows of different
        # repeat counts in one set-up block, 42 all three, and 84 also
        # passes two draws at a time
        g = Grid1D(0.0, 4.0, 8)
        x = np.array([[0.25, 0.75, 1.25, 1.75, 5.0],
                      [0.5, 0.5, 1.5, 2.5, -1.0],
                      [1.0, 2.0, 2.0, 3.0, 3.0]])
        v = np.array([[0.25] * 8, [0.1, 0.4, 0.4, 0.1] * 2, [0.0, 0.5, 0.5, 0.0] * 2])
        edges = np.linspace(0.0, 4.0, 9)
        assert [np.unique(np.concatenate((r, edges))).size for r in x] == [14, 10, 9]
        wv = np.array([[0.2] * 5, [0.0, 0.5, 0.5, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0, 0.0]])
        ref = np.array([[w1(Law1D.from_atoms(x[r], wd), Law1D.from_grid(g, v[r]))
                         for r in range(3)] for wd in wv])
        for chunk in (1, 28, 42, 84, metrics.W1_CHUNK):
            with mock.patch.object(metrics, "W1_CHUNK", chunk):
                assert np.array_equal(bits(metrics._w1_atoms_vs_grid(x, g, v, wv)), bits(ref))

    @pytest.mark.parametrize("atoms, expected", [
        ([0.0, 0.0, 1.0, 1.0], 0.25),
        ([0.5] * 4, 0.25),
        ([0.25, 0.25, 0.75, 0.75], 0.125),
    ])
    def test_repeated_knots_closed_form(self, atoms, expected):
        # equal atoms, and atoms on grid edges, against the uniform law on
        # [0, 1]: the integral of |CDF - x| in closed form
        g = Grid1D(0.0, 1.0, 8)
        v = np.ones(8)
        assert w1(Law1D.from_atoms(atoms), Law1D.from_grid(g, v)) == expected
        got = metrics._w1_atoms_vs_grid(np.array([atoms]), g, v[None], np.full((1, 4), 0.25))
        assert got.tolist() == [[expected]]

    def test_setup_memory_bounded_by_chunk(self, rng):
        # the mean-field W1 of cli_readme: 600 rows of 64 atoms on 256 cells,
        # one draw.  Blocks of rows keep the peak near 2 MB; setting up
        # every row at once took ~21 MB
        g = Grid1D(-6.0, 6.0, 256)
        x = rng.standard_normal((600, 64))
        v = gaussian_fibers(g, rng.uniform(-1.0, 1.0, 600), np.full(600, 0.5)).values
        wv = np.full((1, 64), 1.0 / 64)
        tracemalloc.start()
        try:
            metrics._w1_atoms_vs_grid(x, g, v, wv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["density", "atom", "weight"])
    def test_non_finite_rejected(self, rng, bad, where):
        g = Grid1D(-2.0, 2.0, 16)
        x = rng.standard_normal((3, 4))
        v = gaussian_fibers(g, [0.0, 0.5, -0.5], [0.5, 0.5, 0.5]).values
        wv = np.full((2, 4), 0.25)
        {"density": v, "atom": x, "weight": wv}[where][1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            metrics._w1_atoms_vs_grid(x, g, v, wv)


def reference_independence_gap(w, k, laws, grid, t_end, dt, master_seed, n_replicas,
                               sigma=0.0, n_bootstrap=64):
    """independence_gap as one w1 call per (agent, bootstrap draw)."""
    scaling = check_scaling(w)
    samples = integrate(w, k, laws.sample_replicas(master_seed, n_replicas), [t_end], dt,
                        sigma, master_seed)[0, :, :, 0]
    res = solve(laws.fibers(grid), w, k, nu=0.5 * sigma * sigma, t_end=t_end,
                output_times=[t_end])
    fibers = res.snapshots[0]
    n = laws.n_agents
    gaps = np.empty(n)
    for i in range(n):
        gaps[i] = w1(Law1D.from_atoms(samples[:, i]), Law1D.from_grid(grid, fibers.values[i]))
    boot = np.empty(n_bootstrap)
    brng = seeding.stream(master_seed, seeding.BOOTSTRAP)
    for b in range(n_bootstrap):
        counts = brng.multinomial(n_replicas, np.full(n_replicas, 1.0 / n_replicas))
        wts = counts / n_replicas
        vals = np.empty(n)
        for i in range(n):
            vals[i] = w1(Law1D.from_atoms(samples[:, i], wts),
                         Law1D.from_grid(grid, fibers.values[i]))
        boot[b] = vals.max()
    bound = c1(t_end, scaling.max_row_abs_sum, k.w1inf_norm) * math.sqrt(scaling.max_entry_abs)
    return GapReport(t=t_end, gap=float(gaps.max()), bound=bound,
                     stderr=float(boot.std(ddof=1)), seeds=n_replicas, dx=grid.dx)


def reference_meanfield_gap(w, k, laws, grid, times, dt, master_seed, n_seeds, sigma=0.0):
    """meanfield_gap as one w1 call per (time, seed)."""
    times = sorted(float(t) for t in times)
    scaling = check_scaling(w)
    traj = integrate(w, k, laws.sample_replicas(master_seed, n_seeds), times, dt, sigma,
                     master_seed)
    res = solve(laws.fibers(grid), w, k, nu=0.5 * sigma * sigma, t_end=times[-1],
                output_times=times)
    reports = []
    for ti, t in enumerate(times):
        grid_law = Law1D.from_grid(grid, marginal(res.snapshots[ti]))
        vals = np.array([w1(Law1D.from_atoms(traj[ti, s, :, 0]), grid_law)
                         for s in range(n_seeds)])
        reports.append(GapReport(
            t=t, gap=float(vals.mean()),
            bound=c1(t, scaling.max_row_abs_sum, k.w1inf_norm) * math.sqrt(scaling.max_entry_abs),
            stderr=float(vals.std(ddof=1) / math.sqrt(n_seeds)), seeds=n_seeds, dx=grid.dx))
    return reports


def forbid_per_call_w1(monkeypatch):
    """The estimators must not fall back to one w1 call per (draw, row)."""
    def fail(*args, **kwargs):
        raise AssertionError("per-call W1 path used")
    monkeypatch.setattr(metrics, "w1", fail)
    monkeypatch.setattr(Law1D, "from_atoms", fail)
    monkeypatch.setattr(Law1D, "from_grid", fail)


GAP_CASES = {
    # sigma = 0 on a line, symmetric identity class permutation
    "line": lambda: (gen_class_permutation(16, 8, [1, 2]), linear_attraction(),
                     AgentLawSpec.scatter(16, -0.5, 0.5, 0.2), Grid1D(-2.0, 2.0, 64), 0.0, 0.05),
    # sigma > 0 on a torus, cycle class permutation
    "torus": lambda: (gen_class_permutation(16, 4, [2, 3, 4, 1]), kuramoto(),
                      AgentLawSpec.spread(16, 2.0, 4.0, 0.5),
                      Grid1D(0.0, 2.0 * math.pi, 64, "torus"), 0.4, 0.02),
}


class TestEstimatorsBitwise:
    @pytest.mark.parametrize("case", sorted(GAP_CASES))
    def test_independence_gap_matches_per_call_reference(self, case, monkeypatch):
        w, k, laws, grid, sigma, dt = GAP_CASES[case]()
        args = (w, k, laws, grid, 0.2, dt, 11, 100, sigma, 12)
        ref = reference_independence_gap(*args)
        forbid_per_call_w1(monkeypatch)
        assert report_bits([independence_gap(*args)]) == report_bits([ref])

    @pytest.mark.parametrize("case", sorted(GAP_CASES))
    def test_meanfield_gap_matches_per_call_reference(self, case, monkeypatch):
        w, k, laws, grid, sigma, dt = GAP_CASES[case]()
        args = (w, k, laws, grid, [0.2, 0.0, 0.1], dt, 5, 30, sigma)
        ref = reference_meanfield_gap(*args)
        forbid_per_call_w1(monkeypatch)
        assert report_bits(meanfield_gap(*args)) == report_bits(ref)


def corrupt_solve(monkeypatch, how):
    """Make metrics.solve return fibers with a negative cell or a mass off
    by more than MASS_TOL in every fiber."""
    def bad_solve(*args, **kwargs):
        res = solve(*args, **kwargs)
        snaps = []
        for s in res.snapshots:
            v = s.values.copy()
            c = int(np.argmax(marginal(s)))
            if how == "negative":
                v[:, c + 1] += v[:, c] + 1e-3       # mass moved, not lost
                v[:, c] = -1e-3
            else:
                v *= 1.0 + 100 * MASS_TOL
            snaps.append(SimpleNamespace(values=v))
        return SimpleNamespace(snapshots=snaps)
    monkeypatch.setattr(metrics, "solve", bad_solve)


# the three gap estimators on (w, k, laws, grid) with t_end 0.5 and dt 0.05
ESTIMATORS = {
    "independence_gap": lambda w, k, laws, grid: independence_gap(
        w, k, laws, grid, 0.5, 0.05, 7, 100),
    "meanfield_gap": lambda w, k, laws, grid: meanfield_gap(
        w, k, laws, grid, [0.25, 0.5], 0.05, 7, 4),
    "convergence_gaps": lambda w, k, laws, grid: convergence_gaps(
        w, k, laws, grid, 0.5, [0.25, 0.5], 0.05, 7, 100, 4),
}

# a kernel and a grid off its domain, with the grid field the error names
OFF_DOMAIN = {
    "line_for_circle": (kuramoto, Grid1D(-6.0, 6.0, 128), "grid.topology"),
    "torus_for_line": (linear_attraction, Grid1D(0.0, 2 * math.pi, 128, "torus"),
                       "grid.topology"),
    "torus_not_period": (kuramoto, Grid1D(0.0, 6.0, 128, "torus"), "grid.x_max"),
    # the particles wrap onto [0, 2 pi), the fibers would live on [pi, 3 pi)
    "torus_shifted": (kuramoto, Grid1D(math.pi, 3 * math.pi, 128, "torus"), "grid.x_min"),
}


def forbid_particle_steps(monkeypatch):
    """The estimators must reject their inputs before integrating."""
    def fail(*args, **kwargs):
        raise AssertionError("particles integrated before the inputs were checked")
    monkeypatch.setattr(metrics, "integrate", fail)


class TestEstimatorGuards:
    @pytest.mark.parametrize("case", sorted(OFF_DOMAIN))
    @pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
    def test_grid_off_kernel_domain_rejected_before_any_step(self, monkeypatch, estimator,
                                                             case):
        make_kernel, grid, field = OFF_DOMAIN[case]
        w = gen_class_permutation(16, 4, [2, 3, 4, 1])
        laws = AgentLawSpec.spread(16, -1.0, 1.0, 0.4)
        forbid_particle_steps(monkeypatch)
        with pytest.raises(ValueError, match=field):
            ESTIMATORS[estimator](w, make_kernel(), laws, grid)

    @pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
    def test_self_drift_rejected_before_any_step(self, monkeypatch, estimator):
        # solve has no self-dynamics term, so the fibers would not feel the drift
        k = dataclasses.replace(kuramoto(1.0), self_drift=lambda x: np.full_like(x, 2.0))
        w = gen_class_permutation(16, 4, [2, 3, 4, 1])
        laws = AgentLawSpec.spread(16, 1.6, 4.6, 0.5)
        forbid_particle_steps(monkeypatch)
        with pytest.raises(ValueError, match="self_drift"):
            ESTIMATORS[estimator](w, k, laws, Grid1D(0.0, 2 * math.pi, 128, "torus"))

    @pytest.mark.parametrize("n_bootstrap", [0, 1])
    def test_too_few_bootstrap_draws_rejected_before_any_step(self, monkeypatch, n_bootstrap):
        # the stderr of fewer than two draws is NaN, and so would be the tolerance
        w = gen_class_permutation(8, 4, [1, 2])
        laws = AgentLawSpec.spread(8, -1.0, 1.0, 0.5)
        forbid_particle_steps(monkeypatch)
        with pytest.raises(ValueError, match="bootstrap"):
            independence_gap(w, linear_attraction(), laws, Grid1D(-6.0, 6.0, 64), 0.2, 0.05, 7,
                             100, n_bootstrap=n_bootstrap)

    def test_snapshot_after_t_end_rejected_before_any_step(self, monkeypatch):
        w = gen_class_permutation(16, 4, [2, 3, 4, 1])
        laws = AgentLawSpec.spread(16, -1.0, 1.0, 0.4)
        forbid_particle_steps(monkeypatch)
        with pytest.raises(ValueError, match="t_end"):
            convergence_gaps(w, linear_attraction(), laws, Grid1D(-6.0, 6.0, 128), 0.2,
                             [0.1, 0.3], 0.05, 7, 100, 4)

    @pytest.mark.parametrize("how, match", [("negative", ">= 0"), ("mass", "mass")])
    def test_independence_gap_rejects_bad_fiber(self, monkeypatch, how, match):
        w, k, laws, grid, sigma, dt = GAP_CASES["line"]()
        corrupt_solve(monkeypatch, how)
        with pytest.raises(ValueError, match=match):
            independence_gap(w, k, laws, grid, 0.1, dt, 3, 100, sigma, 4)

    @pytest.mark.parametrize("how, match", [("negative", ">= 0"), ("mass", "mass")])
    def test_meanfield_gap_rejects_bad_fiber(self, monkeypatch, how, match):
        w, k, laws, grid, sigma, dt = GAP_CASES["torus"]()
        corrupt_solve(monkeypatch, how)
        with pytest.raises(ValueError, match=match):
            meanfield_gap(w, k, laws, grid, [0.0, 0.1], dt, 3, 4, sigma)


class TestConstants:
    def test_c1_at_zero(self):
        assert c1(0.0, 1.0, 1.0) == 0.0

    def test_c1_closed_form(self):
        assert abs(c1(1.0, 1.0, 1.0) - math.sqrt(2.0) * (math.e**2 - 1.0)) < 1e-12

    def test_c1_row_sum_scaling(self):
        assert abs(c1(0.5, 2.0, 0.3) - math.sqrt(1.0) * (math.exp(2 * 2 * 0.5 * 0.3) - 1)) < 1e-14

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            c1(-1.0, 1.0, 1.0)

    @pytest.mark.parametrize("at", range(3))
    def test_nan_rejected(self, at):
        args = [1.0, 1.0, 1.0]
        args[at] = math.nan
        with pytest.raises(ValueError, match=">= 0"):
            c1(*args)


class TestIndependenceGap:
    def test_replica_floor(self):
        w = gen_uniform(4, 1.0)
        laws = AgentLawSpec.spread(4, -1, 1, 0.5)
        with pytest.raises(ValueError, match="replicas"):
            independence_gap(w, linear_attraction(), laws, Grid1D(-6, 6, 64),
                             1.0, 0.05, 0, n_replicas=10)

    def test_stability_guard(self):
        # row sums 3/4, Lipschitz 1: dt = 1 is above the bound 2/3
        w = gen_uniform(4, 1.0)
        laws = AgentLawSpec.spread(4, -1, 1, 0.5)
        with pytest.raises(StabilityError, match="admissible"):
            independence_gap(w, linear_attraction(), laws, Grid1D(-6, 6, 64),
                             1.0, 1.0, 0, n_replicas=100)

    def test_nan_kernel_raises(self):
        nan_kernel = Kernel(dim=1, eval=lambda x: np.full_like(x, np.nan), lipschitz=1.0,
                            sup_norm=1.0, div_sup=1.0)
        w = gen_uniform(4, 1.0)
        laws = AgentLawSpec.spread(4, -1, 1, 0.5)
        with pytest.raises(StabilityError, match="non-finite"):
            independence_gap(w, nan_kernel, laws, Grid1D(-6, 6, 64),
                             0.2, 0.05, 0, n_replicas=100)

    def test_time_zero_gap_within_tolerance(self):
        # identical initial laws at t = 0: the bound is 0 and the measured
        # gap is pure sampling + grid error, covered by the tolerance
        n = 8
        w = gen_uniform(n, 1.0)
        k = linear_attraction()
        grid = Grid1D(-6, 6, 96)
        laws = AgentLawSpec.spread(n, 0.0, 0.0, 0.6)
        rep = independence_gap(w, k, laws, grid, t_end=0.0, dt=0.05,
                               master_seed=5, n_replicas=400)
        assert rep.bound == 0.0
        assert rep.gap <= rep.tolerance

    def test_gap_shrinks_with_replicas(self):
        # uniform weights, identical laws: at t = 0 the estimate is pure
        # Monte Carlo noise, decaying like R^(-1/2) within a factor 3
        n = 8
        w = gen_uniform(n, 1.0)
        k = linear_attraction()
        grid = Grid1D(-6, 6, 512)
        laws = AgentLawSpec.spread(n, 0.0, 0.0, 0.6)
        gaps = []
        for reps in (200, 3200):
            r = independence_gap(w, k, laws, grid, t_end=0.0, dt=0.05,
                                 master_seed=9, n_replicas=reps, n_bootstrap=8)
            gaps.append(r.gap)
        expected = math.sqrt(3200 / 200)
        assert expected / 3 <= gaps[0] / gaps[1] <= expected * 3

    def test_torus_seam(self):
        # initial laws across the seam of the torus: particles and fibers
        # both wrap them onto [0, 2 pi), so after one step the gap is small
        w = gen_class_permutation(16, 4, [2, 3, 4, 1])
        laws = AgentLawSpec.spread(16, -1.0, 1.0, 0.4)
        rep = independence_gap(w, kuramoto(), laws, Grid1D(0.0, 2 * math.pi, 128, "torus"),
                               t_end=0.02, dt=0.02, master_seed=7, n_replicas=400)
        assert rep.gap <= rep.bound + rep.tolerance

    def test_bound_holds_small_run(self):
        from nxmf import gen_class_permutation

        n, m = 32, 8
        w = gen_class_permutation(n, m, [k % (n // m) + 1 for k in range(1, n // m + 1)])
        k = linear_attraction()
        grid = Grid1D(-8, 8, 256)
        laws = AgentLawSpec.spread(n, -2, 2, 0.6)
        rep = independence_gap(w, k, laws, grid, t_end=0.5, dt=0.05,
                               master_seed=13, n_replicas=300, n_bootstrap=16)
        assert rep.gap <= rep.bound + rep.tolerance


class TestMeanfieldGap:
    @pytest.mark.parametrize("n_seeds", [0, -3])
    def test_needs_a_seed(self, n_seeds):
        w, k, laws, grid, sigma, dt = GAP_CASES["line"]()
        with pytest.raises(ValueError, match="at least one seed"):
            meanfield_gap(w, k, laws, grid, [0.0, 0.1], dt, 3, n_seeds, sigma)

    def test_stability_guard(self):
        w = gen_uniform(4, 1.0)
        laws = AgentLawSpec.spread(4, -1, 1, 0.5)
        with pytest.raises(StabilityError, match="admissible"):
            meanfield_gap(w, linear_attraction(), laws, Grid1D(-6, 6, 64), [0.0, 1.0],
                          dt=1.0, master_seed=0, n_seeds=4)

    def test_single_agent_degenerate(self):
        # one agent sitting at its law's mean with a tight fiber: the gap
        # is quadrature width, order dx
        w = SparseWeights(1, [], [], [])
        k = linear_attraction()
        grid = Grid1D(-2, 2, 128)
        laws = AgentLawSpec.spread(1, 0.0, 0.0, 0.02)
        reps = meanfield_gap(w, k, laws, grid, [0.0], dt=0.05, master_seed=3, n_seeds=50)
        assert reps[0].gap <= 3 * grid.dx

    def test_time_zero_is_sampling_error(self):
        n = 16
        w = gen_uniform(n, 1.0)
        k = linear_attraction()
        grid = Grid1D(-7, 7, 256)
        laws = AgentLawSpec.spread(n, -1, 1, 0.5)
        reps = meanfield_gap(w, k, laws, grid, [0.0], dt=0.05, master_seed=21, n_seeds=50)
        # N = 16 samples of a unit-scale law: W1 sampling error ~ N^(-1/2)
        assert 0.02 <= reps[0].gap <= 1.0

    def test_gap_decreases_with_n(self):
        k = linear_attraction()
        grid = Grid1D(-7, 7, 256)
        gaps = []
        for n in (16, 64, 256):
            w = gen_uniform(n, 1.0)
            laws = AgentLawSpec.spread(n, -1, 1, 0.5)
            reps = meanfield_gap(w, k, laws, grid, [0.0, 0.3], dt=0.05,
                                 master_seed=17, n_seeds=30)
            gaps.append(max(r.gap for r in reps))
        assert gaps[0] > gaps[1] > gaps[2]


class TestAgentLawSpec:
    def test_spread_shapes(self):
        laws = AgentLawSpec.spread(5, -1, 1, 0.3)
        assert laws.n_agents == 5
        assert laws.means[0, 0] == -1 and laws.means[-1, 0] == 1

    def test_sampling_matches_moments(self, rng):
        laws = AgentLawSpec.spread(4, 2.0, 2.0, 0.5)
        draws = np.stack([laws.sample(rng)[:, 0] for _ in range(4000)])
        assert abs(draws.mean() - 2.0) < 0.05
        assert abs(draws.std() - 0.5) < 0.05

    def test_mixture_sampling(self, rng):
        laws = AgentLawSpec(
            means=np.array([[-2.0, 2.0]]),
            stds=np.array([[0.1, 0.1]]),
            weights=np.array([[0.5, 0.5]]),
        )
        draws = np.array([laws.sample(rng)[0, 0] for _ in range(2000)])
        frac_left = (draws < 0).mean()
        assert 0.4 < frac_left < 0.6
        fib = laws.fibers(Grid1D(-4, 4, 128))
        assert abs(fib.masses()[0] - 1.0) < 1e-12

    def test_mixture_draws_agent_count_stable(self):
        # adding a ninth agent leaves the first eight agents' draws unchanged
        def spec(n):
            return AgentLawSpec(means=np.tile([-2.0, 2.0], (n, 1)), stds=np.full((n, 2), 0.3),
                                weights=np.tile([0.3, 0.7], (n, 1)))

        a = spec(8).sample(seeding.stream(4, seeding.INIT, 0))
        b = spec(9).sample(seeding.stream(4, seeding.INIT, 0))
        assert np.array_equal(a, b[:8])
