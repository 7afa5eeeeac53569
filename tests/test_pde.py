import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nxmf import (
    CFLError,
    FiberedDensity,
    Grid1D,
    SparseWeights,
    VelocityFieldGrid,
    gaussian_fibers,
    gen_uniform,
    kuramoto,
    linear_attraction,
    marginal,
    solve,
    step_transport,
    velocity,
)
from nxmf.pde import fiber_convolution, velocity_bound
from conftest import pure_linear_kernel, random_fibers, random_sparse_weights


def empty_weights(n):
    return SparseWeights(n, [], [], [])


def dense_no_flux_backward_euler(vals, c):
    """Reference: backward Euler for the 3-point Laplacian with no-flux walls,
    (I - c*T) u = vals with T the dense tridiagonal second difference (dx = 1)."""
    G = vals.shape[1]
    t = np.diag(np.full(G - 1, 1.0), 1) + np.diag(np.full(G - 1, 1.0), -1) - 2.0 * np.eye(G)
    t[0, 0] = t[-1, -1] = -1.0
    return np.linalg.solve(np.eye(G) - c * t, vals.T).T


class TestVelocity:
    def test_zero_density(self):
        g = Grid1D(-2, 2, 32)
        f = FiberedDensity(grid=g, values=np.zeros((3, 32)))
        v = velocity(f, gen_uniform(3, 1.0), linear_attraction(), method="direct")
        assert np.all(v.values == 0.0)

    def test_uniform_identical_fibers_xi_independent(self):
        g = Grid1D(-5, 5, 64)
        f = gaussian_fibers(g, [0.4] * 6, [0.7] * 6)
        v = velocity(f, gen_uniform(6, 1.0), linear_attraction()).values
        assert np.abs(v - v[0]).max() == 0.0

    def test_delta_fiber_linear_kernel(self):
        g = Grid1D(-4, 4, 128)
        vals = np.zeros((2, 128))
        c0 = 96
        vals[1, c0] = 1.0 / g.dx
        vals[0, 10] = 1.0 / g.dx
        f = FiberedDensity(grid=g, values=vals)
        w = SparseWeights.from_entries(2, [(1, 2, 1.0)])
        v = velocity(f, w, pure_linear_kernel(), method="direct").values
        y0 = g.centers()[c0]
        assert np.abs(v[0] - (-(g.centers() - y0))).max() < 1e-12
        assert np.all(v[1] == 0.0)

    @pytest.mark.parametrize("topology", ["line", "torus"])
    def test_fft_matches_direct(self, rng, topology):
        span = (0.0, 2 * math.pi) if topology == "torus" else (-6.0, 6.0)
        g = Grid1D(span[0], span[1], 96, topology=topology)
        k = kuramoto() if topology == "torus" else linear_attraction()
        f = FiberedDensity(grid=g, values=rng.random((5, 96)))
        a = fiber_convolution(f, k, method="direct")
        b = fiber_convolution(f, k, method="fft")
        assert np.abs(a - b).max() <= 1e-10

    def test_mismatch_rejected(self, rng):
        g = Grid1D(-2, 2, 16)
        f = FiberedDensity(grid=g, values=np.zeros((3, 16)))
        with pytest.raises(ValueError):
            velocity(f, gen_uniform(4, 1.0), linear_attraction())

    def test_apriori_bound_random(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 10))
            g = Grid1D(-6, 6, 64)
            f = random_fibers(rng, g, n)
            w = random_sparse_weights(rng, n)
            k = linear_attraction()
            v = velocity(f, w, k).values
            assert np.abs(v).max() <= velocity_bound(f, w, k) + 1e-12


class TestStepTransport:
    def test_zero_velocity_identity(self, rng):
        g = Grid1D(-3, 3, 48)
        f = random_fibers(rng, g, 4)
        out = step_transport(f, empty_weights(4), linear_attraction(), dt=0.01)
        assert np.array_equal(out.values, f.values)

    @staticmethod
    def check_pure_diffusion(step_factor, n_steps):
        """One Gaussian fiber on a torus, stepped at step_factor times the old
        explicit limit 0.25*dx^2/nu: mass within 1e-13 after every step, and
        variance growth rate 2*nu within 5%."""
        g = Grid1D(-8, 8, 256, topology="torus")
        f = gaussian_fibers(g, [0.0], [0.5])
        nu = 0.05
        dt = step_factor * 0.25 * g.dx**2 / nu
        x = g.centers()

        def variance(ff):
            m = (ff.values[0] * x).sum() * g.dx
            return ((ff.values[0] * (x - m) ** 2).sum()) * g.dx

        v0 = variance(f)
        m0 = f.masses()[0]
        state = f
        for _ in range(n_steps):
            state = step_transport(state, empty_weights(1), linear_attraction(), dt, nu=nu)
            assert abs(state.masses()[0] - m0) <= 1e-13
        rate = (variance(state) - v0) / (state.time - f.time)
        assert abs(rate - 2 * nu) <= 0.05 * 2 * nu

    def test_pure_diffusion_mass_and_variance(self):
        self.check_pure_diffusion(0.9, 100)

    def test_pure_diffusion_at_fifty_times_the_explicit_limit(self):
        self.check_pure_diffusion(50, 10)

    @pytest.mark.parametrize("topology", ["line", "torus"])
    def test_implicit_diffusion_conserves_mass_at_large_steps(self, rng, topology):
        span = (0.0, 2 * math.pi) if topology == "torus" else (-6.0, 6.0)
        g = Grid1D(span[0], span[1], 96, topology=topology)
        k = kuramoto() if topology == "torus" else linear_attraction()
        f = random_fibers(rng, g, 5)
        w = random_sparse_weights(rng, 5)
        state = f
        for _ in range(20):
            vmax = np.abs(velocity(state, w, k).values).max()
            dt = 0.9 * 0.4 * g.dx / max(vmax, 1e-12)
            nu = 50 * g.dx**2 / dt
            prev = state
            state = step_transport(state, w, k, dt, nu=nu)
            assert state.last_mass_drift <= 1e-12
            step = state.masses() + state.leakage - prev.masses() - prev.leakage
            assert np.abs(step).max() <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), topology=st.sampled_from(["line", "torus"]),
           log_c=st.floats(-3.0, 4.0), sparsity=st.floats(0.0, 0.95))
    def test_implicit_diffusion_positivity(self, seed, topology, log_c, sparsity):
        r = np.random.default_rng(seed)
        g = Grid1D(0.0, 1.0, int(r.integers(8, 200)), topology=topology)
        vals = r.exponential(size=(3, g.n_cells)) * 10.0 ** r.uniform(-3, 3, size=(3, 1))
        vals[r.random(vals.shape) < sparsity] = 0.0
        f = FiberedDensity(grid=g, values=vals)
        dt = 1e-3
        nu = 10.0**log_c * g.dx**2 / dt
        out = step_transport(f, empty_weights(3), linear_attraction(), dt, nu=nu)
        assert out.clamp_total <= 1e-14 * max(float(f.masses().sum()), 1e-300)
        assert out.last_mass_drift <= 1e-13 * max(float(f.masses().max()), 1e-300)

    def test_implicit_diffusion_first_order_in_dt(self):
        # one torus Fourier mode against the exact semi-discrete heat
        # semigroup exp(-nu * lambda_k * t)
        G, mode, nu, t_end = 64, 3, 0.1, 1.0
        g = Grid1D(0.0, 2 * math.pi, G, topology="torus")
        x = g.centers()
        f = FiberedDensity(grid=g, values=(1.0 + 0.5 * np.cos(mode * x))[None, :])
        lam = 4.0 / g.dx**2 * math.sin(math.pi * mode / G) ** 2
        exact = 1.0 + 0.5 * math.exp(-nu * lam * t_end) * np.cos(mode * x)

        def error(n_steps):
            state = f
            for _ in range(n_steps):
                state = step_transport(state, empty_weights(1), linear_attraction(),
                                       t_end / n_steps, nu=nu)
            return np.abs(state.values[0] - exact).max()

        e = [error(n) for n in (10, 20, 40)]
        for coarse, fine in zip(e, e[1:]):
            assert 1.8 <= coarse / fine <= 2.2

    def test_line_diffusion_matches_dense_tridiagonal_solve(self, rng):
        g = Grid1D(-3, 3, 48)
        f = FiberedDensity(grid=g, values=rng.random((4, 48)))
        for c in (0.1, 3.0, 200.0):
            nu, dt = c * g.dx**2 / 0.01, 0.01
            out = step_transport(f, empty_weights(4), linear_attraction(), dt, nu=nu)
            ref = dense_no_flux_backward_euler(f.values, c)
            assert np.abs(out.values - ref).max() <= 1e-12

    def test_exchangeable_fibers_stay_identical(self):
        g = Grid1D(-6, 6, 96)
        f = gaussian_fibers(g, [0.3] * 8, [0.6] * 8)
        w = gen_uniform(8, 1.0, include_diagonal=True)
        k = linear_attraction()
        state = f
        for _ in range(100):
            vmax = np.abs(velocity(state, w, k).values).max()
            dt = 0.9 * 0.4 * g.dx / max(vmax, 1e-12)
            state = step_transport(state, w, k, dt)
        spread = np.abs(state.values - state.values[0]).max()
        assert spread <= 1e-12

    def test_cfl_violation_reports_admissible(self):
        g = Grid1D(-5, 5, 64)
        f = gaussian_fibers(g, [1.0, -1.0], [0.5, 0.5])
        w = gen_uniform(2, 1.0, include_diagonal=True)
        with pytest.raises(CFLError, match="admissible dt"):
            step_transport(f, w, linear_attraction(), dt=10.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_velocity_is_cfl_error(self, bad):
        g = Grid1D(-5, 5, 64)
        f = gaussian_fibers(g, [1.0, -1.0], [0.5, 0.5])
        w = gen_uniform(2, 1.0, include_diagonal=True)
        v = velocity(f, w, linear_attraction()).values.copy()
        v[1, 7] = bad
        with pytest.raises(CFLError):
            step_transport(f, w, linear_attraction(), dt=1e-6, vfield=VelocityFieldGrid(v))

    def test_positivity_and_clamp_ledger(self, rng):
        g = Grid1D(-6, 6, 80)
        f = random_fibers(rng, g, 5)
        w = random_sparse_weights(rng, 5)
        k = linear_attraction()
        state = f
        for _ in range(50):
            vmax = np.abs(velocity(state, w, k).values).max()
            dt = 0.9 * 0.4 * g.dx / max(vmax, 1e-12)
            state = step_transport(state, w, k, dt)
        assert np.all(state.values >= 0.0)
        assert state.clamp_total <= 1e-12

    def test_line_leakage_ledger(self):
        # profile pushed through the boundary: lost mass is accounted for
        g = Grid1D(-1.5, 1.5, 64)
        f = gaussian_fibers(g, [1.0], [0.3])
        w = gen_uniform(1, 4.0, include_diagonal=True)
        k = pure_linear_kernel()
        # attraction toward the mean keeps mass inside; use repulsion via
        # negative weight to push outward
        w = SparseWeights.from_entries(1, [(1, 1, -4.0)])
        state = f
        for _ in range(200):
            vmax = np.abs(velocity(state, w, k).values).max()
            dt = 0.5 * 0.4 * g.dx / max(vmax, 1e-12)
            state = step_transport(state, w, k, dt)
        assert state.leakage[0] > 1e-4
        assert np.abs(state.mass_defect()).max() <= 1e-12


class TestSolve:
    def test_t_end_zero(self, rng):
        g = Grid1D(-3, 3, 32)
        f = random_fibers(rng, g, 3)
        res = solve(f, empty_weights(3), linear_attraction(), nu=0.0, t_end=0.0, output_times=[0.0])
        assert res.snapshots == [f]

    def test_pure_diffusion_takes_more_than_one_step(self):
        g = Grid1D(-3, 3, 32)
        f = gaussian_fibers(g, [0.0, 0.5], [0.5, 0.5])
        res = solve(f, empty_weights(2), linear_attraction(), nu=0.05, t_end=1.0,
                    output_times=[1.0])
        assert res.n_steps > 1
        assert res.max_step_mass_drift <= 1e-12

    def test_non_finite_velocity_is_cfl_error(self):
        g = Grid1D(-3, 3, 32)
        f = gaussian_fibers(g, [0.0, 0.5], [0.5, 0.5])
        k = dataclasses.replace(linear_attraction(), eval=lambda x: np.full_like(x, math.nan),
                                zero_at_origin=False)
        with pytest.raises(CFLError, match="non-finite"):
            solve(f, gen_uniform(2, 1.0), k, nu=0.0, t_end=0.1, output_times=[0.1])

    def test_exchangeable_matches_single_fiber_run(self):
        g = Grid1D(-6, 6, 128)
        k = linear_attraction()
        n = 16
        f_multi = gaussian_fibers(g, [0.5] * n, [0.6] * n)
        f_single = gaussian_fibers(g, [0.5], [0.6])
        w_multi = gen_uniform(n, 1.0, include_diagonal=True)
        w_single = gen_uniform(1, 1.0, include_diagonal=True)
        r_multi = solve(f_multi, w_multi, k, nu=0.0, t_end=0.3, output_times=[0.3])
        r_single = solve(f_single, w_single, k, nu=0.0, t_end=0.3, output_times=[0.3])
        a = r_multi.snapshots[0]
        b = r_single.snapshots[0]
        assert a.time == b.time
        for fib in range(n):
            assert np.abs(a.values[fib] - b.values[0]).max() <= 1e-10

    def test_grid_refinement_converges(self):
        k = linear_attraction()

        def run(cells):
            g = Grid1D(-6, 6, cells)
            f = gaussian_fibers(g, [-0.5, 0.5], [0.5, 0.7])
            w = gen_uniform(2, 1.0, include_diagonal=True)
            res = solve(f, w, k, nu=0.0, t_end=0.25, output_times=[0.25])
            return res.snapshots[0]

        ref = run(512)

        def error_vs_ref(sn):
            ratio = 512 // sn.values.shape[1]
            coarse_ref = ref.values.reshape(2, -1, ratio).mean(axis=2)
            return np.abs(sn.values - coarse_ref).sum() * sn.grid.dx

        e64, e128 = error_vs_ref(run(64)), error_vs_ref(run(128))
        assert e64 / e128 >= 1.5

    def test_mass_conservation_on_torus(self, rng):
        g = Grid1D(0, 2 * math.pi, 64, topology="torus")
        f = FiberedDensity(grid=g, values=rng.random((4, 64)) + 0.1)
        w = random_sparse_weights(rng, 4)
        res = solve(f, w, kuramoto(), nu=0.01, t_end=0.5, output_times=[0.5])
        assert res.max_step_mass_drift <= 1e-12

    def test_snapshot_times_nearest_step(self):
        g = Grid1D(-6, 6, 64)
        f = gaussian_fibers(g, [0.0], [0.5])
        w = gen_uniform(1, 1.0, include_diagonal=True)
        res = solve(f, w, linear_attraction(), nu=0.0, t_end=0.4,
                    output_times=[0.0, 0.2, 0.4], dt=0.05)
        assert res.snapshot_times[0] == 0.0
        assert abs(res.snapshot_times[1] - 0.2) <= 0.025 + 1e-12
        assert abs(res.snapshot_times[2] - 0.4) <= 1e-12


class TestRegularityGrowth:
    def test_gradient_seminorm_growth_rate(self):
        # discrete sup-gradient grows no faster than twice the Gronwall
        # rate assembled from the kernel and weight norms
        g = Grid1D(-7, 7, 256)
        k = linear_attraction()
        f = gaussian_fibers(g, [-0.4, 0.6], [0.5, 0.8])
        w = gen_uniform(2, 1.0, include_diagonal=True)
        res = solve(f, w, k, nu=0.0, t_end=0.5, output_times=[0.5])
        out = res.snapshots[0]

        def seminorm(ff):
            return np.abs(np.diff(ff.values, axis=1)).max() / g.dx

        s0, s1 = seminorm(f), seminorm(out)
        # quadrature of the kernel derivative norms on a fine grid
        xs = np.linspace(-30, 30, 200001)
        kp = np.gradient(k.eval(xs[:, None])[:, 0], xs)
        div_l1 = np.trapezoid(np.abs(kp), xs)
        sup_f = f.values.max()
        rate = 1.0 * (0.5 * k.div_sup * 1.0 + div_l1 * sup_f + div_l1 * sup_f)
        observed = math.log(max(s1, s0) / s0) / out.time
        assert observed <= 2.0 * rate


class TestMarginal:
    def test_single_fiber(self, rng):
        g = Grid1D(-2, 2, 32)
        f = random_fibers(rng, g, 1)
        assert np.array_equal(marginal(f), f.values[0])

    def test_mirrored_fibers_symmetric(self):
        g = Grid1D(-3, 3, 64)
        f = gaussian_fibers(g, [-1.0, 1.0], [0.5, 0.5])
        m = marginal(f)
        assert np.abs(m - m[::-1]).max() < 1e-12

    def test_identical_fibers(self):
        g = Grid1D(-3, 3, 64)
        f = gaussian_fibers(g, [0.2] * 5, [0.5] * 5)
        assert np.abs(marginal(f) - f.values[0]).max() <= 1e-15 * f.values.max()


class TestFiberedDensity:
    def test_negative_rejected(self):
        g = Grid1D(-1, 1, 16)
        with pytest.raises(ValueError):
            FiberedDensity(grid=g, values=-np.ones((2, 16)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        g = Grid1D(-1, 1, 16)
        vals = np.ones((2, 16))
        vals[1, 5] = bad
        with pytest.raises(ValueError, match="finite"):
            FiberedDensity(grid=g, values=vals)

    def test_shape_rejected(self):
        g = Grid1D(-1, 1, 16)
        with pytest.raises(ValueError):
            FiberedDensity(grid=g, values=np.ones((2, 8)))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            Grid1D(0, 1, 4)
        with pytest.raises(ValueError):
            Grid1D(1, 0, 16)
