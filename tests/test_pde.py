import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nxmf import (
    CFLError,
    FiberedDensity,
    Grid1D,
    SparseWeights,
    check_scaling,
    gaussian_fibers,
    gen_uniform,
    kuramoto,
    linear_attraction,
    marginal,
    solve,
    velocity,
)
from nxmf import gen_class_permutation, pde
from nxmf.metrics import AgentLawSpec
from conftest import pure_linear_kernel, random_fibers, random_sparse_weights


def empty_weights(n):
    return SparseWeights(n, [], [], [])


def velocity_bound(f, w, k) -> float:
    """A priori sup bound of the velocity: max_row_abs_sum * |K|_inf * max fiber mass."""
    return check_scaling(w).max_row_abs_sum * k.sup_norm * float(f.masses().max())


def dense_no_flux_backward_euler(vals, c):
    """Reference: backward Euler for the 3-point Laplacian with no-flux walls,
    (I - c*T) u = vals with T the dense tridiagonal second difference (dx = 1)."""
    G = vals.shape[1]
    t = np.diag(np.full(G - 1, 1.0), 1) + np.diag(np.full(G - 1, 1.0), -1) - 2.0 * np.eye(G)
    t[0, 0] = t[-1, -1] = -1.0
    return np.linalg.solve(np.eye(G) - c * t, vals.T).T


def direct_convolution(f, k):
    """Reference: the O(G^2) midpoint-quadrature convolution of each fiber
    with K; offsets wrap to the nearest image on the torus, and the line
    convolution is linear."""
    g = f.grid
    G, dx = g.n_cells, g.dx
    if g.topology == "torus":
        off = np.arange(G) * dx
        off = np.where(off > g.length / 2, off - g.length, off)
        idx = (np.arange(G)[:, None] - np.arange(G)[None, :]) % G
    else:
        off = np.arange(-(G - 1), G) * dx
        idx = np.arange(G)[:, None] - np.arange(G)[None, :] + (G - 1)
    kvec = np.asarray(k.eval(off[:, None])[:, 0], dtype=np.float64)
    return (f.values @ kvec[idx].T) * dx


def reference_faces(v, topology):
    if topology == "torus":
        return 0.5 * (v + np.roll(v, -1, axis=1))
    faces = np.empty((v.shape[0], v.shape[1] + 1))
    faces[:, 1:-1] = 0.5 * (v[:, :-1] + v[:, 1:])
    faces[:, 0] = v[:, 0]
    faces[:, -1] = v[:, -1]
    return faces


def reference_step(f, w, k, dt, nu, v):
    """Reference: one step of the per-step FiberedDensity march that solve
    replaced (upwind advection, then implicit diffusion), with the cell
    velocity v computed by the caller.  Returns the new state and the step's
    conservation defect."""
    g = f.grid
    dx = g.dx
    faces = reference_faces(v, g.topology)
    vmax = float(np.abs(faces).max()) if faces.size else 0.0
    dt_ok = pde.cfl_limits(vmax, dx)
    if dt > dt_ok * (1 + 1e-12):
        raise CFLError(f"dt={dt:g} violates CFL; admissible dt <= {dt_ok:g}")
    vals = f.values
    up = np.maximum(faces, 0.0)
    dn = np.minimum(faces, 0.0)
    leak = np.zeros(f.n_fibers)
    if g.topology == "torus":
        flux = up * vals + dn * np.roll(vals, -1, axis=1)
        div = flux - np.roll(flux, 1, axis=1)
    else:
        flux = np.zeros((f.n_fibers, g.n_cells + 1))
        flux[:, 1:-1] = up[:, 1:-1] * vals[:, :-1] + dn[:, 1:-1] * vals[:, 1:]
        flux[:, 0] = dn[:, 0] * vals[:, 0]
        flux[:, -1] = up[:, -1] * vals[:, -1]
        leak = (-flux[:, 0] + flux[:, -1]) * dt
        div = flux[:, 1:] - flux[:, :-1]
    new = vals - (dt / dx) * div
    if nu > 0:
        new = pde._diffuse(new, g, nu * dt / (dx * dx), pde._scratch(new.shape[0], g))
    drift = float(np.abs((new.sum(axis=1) - vals.sum(axis=1)) * dx + leak).max())
    clamp = 0.0
    neg = new < 0.0
    if neg.any():
        clamp = float(-new[neg].sum()) * dx
        new = np.where(neg, 0.0, new)
    out = FiberedDensity(grid=g, values=new, time=f.time + dt, initial_mass=f.initial_mass,
                         leakage=f.leakage + leak, clamp_total=f.clamp_total + clamp)
    return out, drift


def reference_solve(f0, w, k, nu, t_end, output_times, dt=None):
    """Reference: the march solve replaced, one validated FiberedDensity and
    one velocity evaluation (spectrum included) per step.  Returns the
    snapshots, the step count, the worst per-step defect and the final state."""
    targets = sorted(float(t) for t in output_times)
    state = f0
    snaps = {}
    pending = list(range(len(targets)))
    for idx in list(pending):
        if targets[idx] <= 0 or t_end == 0:
            snaps[idx] = state
            pending.remove(idx)
    max_drift = 0.0
    n_steps = 0
    while state.time < t_end - 1e-12:
        v = velocity(state, w, k)
        vmax = float(np.abs(reference_faces(v, f0.grid.topology)).max())
        limit = (pde.cfl_limits(vmax, f0.grid.dx) if vmax != 0 or nu <= 0
                 else 0.25 * f0.grid.dx**2 / nu)
        if limit == 0.0:
            raise CFLError(f"non-finite velocity at t={state.time:g}; no admissible dt")
        step_dt = dt if dt is not None else (0.9 * limit if math.isfinite(limit)
                                             else t_end - state.time)
        step_dt = min(step_dt, t_end - state.time)
        prev = state
        state, drift = reference_step(prev, w, k, step_dt, nu, v)
        max_drift = max(max_drift, drift)
        n_steps += 1
        for idx in list(pending):
            tgt = targets[idx]
            if state.time >= tgt - 1e-12:
                snaps[idx] = state if abs(state.time - tgt) <= abs(prev.time - tgt) else prev
                pending.remove(idx)
    for idx in pending:
        snaps[idx] = state
    return [snaps[i] for i in range(len(targets))], n_steps, max_drift, state


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


def assert_matches_reference(res, f0, w, k, nu, t_end, output_times, dt=None):
    """solve's result bit for bit against reference_solve: step count,
    worst per-step defect, and every returned state with its ledgers."""
    snaps, n_steps, max_drift, final = reference_solve(f0, w, k, nu, t_end, output_times, dt)
    assert res.n_steps == n_steps
    assert bits(res.max_step_mass_drift) == bits(max_drift)
    for a, b in zip([*res.snapshots, res.final], [*snaps, final]):
        assert bits(a.time) == bits(b.time)
        assert np.array_equal(bits(a.values), bits(b.values))
        assert np.array_equal(bits(a.leakage), bits(b.leakage))
        assert bits(a.clamp_total) == bits(b.clamp_total)
        assert np.array_equal(bits(a.initial_mass), bits(b.initial_mass))


def marched(f0, w, k, **kwargs):
    """solve with pde._step spied on: the result and the number of fiber
    rows each step marched."""
    with mock.patch.object(pde, "_step", wraps=pde._step) as spy:
        res = solve(f0, w, k, **kwargs)
    return res, [c.args[0].shape[0] for c in spy.call_args_list]


def step(f, w, k, dt, nu=0.0):
    """One transport step of size dt from f, as a one-step solve; returns
    the new state and the step's conservation defect."""
    t = f.time + dt
    res = solve(f, w, k, nu=nu, t_end=t, output_times=[t], dt=dt)
    assert res.n_steps == 1
    return res.final, res.max_step_mass_drift


class TestVelocity:
    def test_zero_density(self):
        g = Grid1D(-2, 2, 32)
        f = FiberedDensity(grid=g, values=np.zeros((3, 32)))
        v = velocity(f, gen_uniform(3, 1.0), linear_attraction())
        assert np.all(v == 0.0)

    def test_uniform_identical_fibers_xi_independent(self):
        g = Grid1D(-5, 5, 64)
        f = gaussian_fibers(g, [0.4] * 6, [0.7] * 6)
        v = velocity(f, gen_uniform(6, 1.0), linear_attraction())
        assert np.abs(v - v[0]).max() == 0.0

    def test_delta_fiber_linear_kernel(self):
        g = Grid1D(-4, 4, 128)
        vals = np.zeros((2, 128))
        c0 = 96
        vals[1, c0] = 1.0 / g.dx
        vals[0, 10] = 1.0 / g.dx
        f = FiberedDensity(grid=g, values=vals)
        w = SparseWeights.from_entries(2, [(1, 2, 1.0)])
        v = velocity(f, w, pure_linear_kernel())
        y0 = g.centers()[c0]
        assert np.abs(v[0] - (-(g.centers() - y0))).max() < 1e-12
        assert np.all(v[1] == 0.0)

    @pytest.mark.parametrize("topology", ["line", "torus"])
    def test_fft_matches_direct(self, rng, topology):
        # with identity weights the velocity is each fiber's own convolution
        span = (0.0, 2 * math.pi) if topology == "torus" else (-6.0, 6.0)
        g = Grid1D(span[0], span[1], 96, topology=topology)
        k = kuramoto() if topology == "torus" else linear_attraction()
        f = FiberedDensity(grid=g, values=rng.random((5, 96)))
        a = direct_convolution(f, k)
        b = velocity(f, gen_class_permutation(5, 1, range(1, 6)), k)
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
            v = velocity(f, w, k)
            assert np.abs(v).max() <= velocity_bound(f, w, k) + 1e-12


class TestStepTransport:
    """One transport step, taken as a one-step solve."""

    def test_zero_velocity_identity(self, rng):
        g = Grid1D(-3, 3, 48)
        f = random_fibers(rng, g, 4)
        out, _ = step(f, empty_weights(4), linear_attraction(), dt=0.01)
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
        times = [dt * (i + 1) for i in range(n_steps)]
        res = solve(f, empty_weights(1), linear_attraction(), nu=nu, t_end=times[-1],
                    output_times=times, dt=dt)
        assert res.n_steps == n_steps
        for state in res.snapshots:
            assert abs(state.masses()[0] - m0) <= 1e-13
        rate = (variance(res.final) - v0) / (res.final.time - f.time)
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
            vmax = np.abs(velocity(state, w, k)).max()
            dt = 0.9 * 0.4 * g.dx / max(vmax, 1e-12)
            nu = 50 * g.dx**2 / dt
            prev = state
            state, drift = step(state, w, k, dt, nu=nu)
            assert drift <= 1e-12
            change = state.masses() + state.leakage - prev.masses() - prev.leakage
            assert np.abs(change).max() <= 1e-12

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
        out, drift = step(f, empty_weights(3), linear_attraction(), dt, nu=nu)
        assert out.clamp_total <= 1e-14 * max(float(f.masses().sum()), 1e-300)
        assert drift <= 1e-13 * max(float(f.masses().max()), 1e-300)

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
            res = solve(f, empty_weights(1), linear_attraction(), nu=nu, t_end=t_end,
                        output_times=[t_end], dt=t_end / n_steps)
            assert res.n_steps == n_steps
            return np.abs(res.final.values[0] - exact).max()

        e = [error(n) for n in (10, 20, 40)]
        for coarse, fine in zip(e, e[1:]):
            assert 1.8 <= coarse / fine <= 2.2

    def test_line_diffusion_matches_dense_tridiagonal_solve(self, rng):
        g = Grid1D(-3, 3, 48)
        f = FiberedDensity(grid=g, values=rng.random((4, 48)))
        for c in (0.1, 3.0, 200.0):
            nu, dt = c * g.dx**2 / 0.01, 0.01
            out, _ = step(f, empty_weights(4), linear_attraction(), dt, nu=nu)
            ref = dense_no_flux_backward_euler(f.values, c)
            assert np.abs(out.values - ref).max() <= 1e-12

    def test_exchangeable_fibers_stay_identical(self):
        g = Grid1D(-6, 6, 96)
        f = gaussian_fibers(g, [0.3] * 8, [0.6] * 8)
        w = gen_uniform(8, 1.0, include_diagonal=True)
        k = linear_attraction()
        state = f
        for _ in range(100):
            vmax = np.abs(velocity(state, w, k)).max()
            dt = 0.9 * 0.4 * g.dx / max(vmax, 1e-12)
            state, _ = step(state, w, k, dt)
        spread = np.abs(state.values - state.values[0]).max()
        assert spread <= 1e-12

    def test_cfl_violation_reports_admissible(self):
        g = Grid1D(-5, 5, 64)
        f = gaussian_fibers(g, [1.0, -1.0], [0.5, 0.5])
        w = gen_uniform(2, 1.0, include_diagonal=True)
        with pytest.raises(CFLError, match="admissible dt"):
            step(f, w, linear_attraction(), dt=10.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_velocity_is_cfl_error(self, bad):
        # K is non-finite only at the origin, so the velocity is non-finite;
        # an infinite K declares infinite constants
        g = Grid1D(-5, 5, 64)
        f = gaussian_fibers(g, [1.0, -1.0], [0.5, 0.5])
        w = gen_uniform(2, 1.0, include_diagonal=True)
        base = linear_attraction()
        k = dataclasses.replace(base, eval=lambda x: np.where(x == 0.0, bad, base.eval(x)),
                                eval_into=None, odd=False,
                                sup_norm=math.inf, lipschitz=math.inf, div_sup=math.inf)
        with np.errstate(invalid="ignore"), pytest.raises(CFLError, match="non-finite"):
            step(f, w, k, dt=1e-6)

    def test_positivity_and_clamp_ledger(self, rng):
        g = Grid1D(-6, 6, 80)
        f = random_fibers(rng, g, 5)
        w = random_sparse_weights(rng, 5)
        k = linear_attraction()
        state = f
        for _ in range(50):
            vmax = np.abs(velocity(state, w, k)).max()
            dt = 0.9 * 0.4 * g.dx / max(vmax, 1e-12)
            state, _ = step(state, w, k, dt)
        assert np.all(state.values >= 0.0)
        assert state.clamp_total <= 1e-12

    def test_line_leakage_ledger(self):
        # profile pushed through the boundary: lost mass is accounted for
        g = Grid1D(-1.5, 1.5, 64)
        f = gaussian_fibers(g, [1.0], [0.3])
        k = pure_linear_kernel()
        # a negative self-weight repels the profile from its own mean
        w = SparseWeights.from_entries(1, [(1, 1, -4.0)])
        state = f
        for _ in range(200):
            vmax = np.abs(velocity(state, w, k)).max()
            dt = 0.5 * 0.4 * g.dx / max(vmax, 1e-12)
            state, _ = step(state, w, k, dt)
        assert state.leakage[0] > 1e-4
        assert np.abs(state.mass_defect()).max() <= 1e-12


def march_inputs(rng, topology):
    """Four fibers on a line or a torus with random signed weights.  The
    fibers are zero on 40 adjacent cells, so that diffusion leaves roundoff
    negatives to clamp, and on the line they reach the walls, so that mass
    leaks."""
    span = (0.0, 2 * math.pi) if topology == "torus" else (-3.0, 3.0)
    g = Grid1D(span[0], span[1], 64, topology=topology)
    vals = rng.random((4, 64))
    vals[rng.random(vals.shape) < 0.5] = 0.0
    vals[:, 12:52] = 0.0
    k = kuramoto() if topology == "torus" else linear_attraction()
    return FiberedDensity(grid=g, values=vals), random_sparse_weights(rng, 4, 0.6, 3.0), k


class TestSolve:
    @pytest.mark.parametrize("topology", ["line", "torus"])
    @pytest.mark.parametrize("nu", [0.0, 0.01])
    @pytest.mark.parametrize("dt", [None, 0.01])
    def test_matches_reference_march(self, rng, topology, nu, dt):
        # bitwise, against the per-step FiberedDensity march; the output at
        # 0.043 lies nearer the step before it when dt = 0.01
        f, w, k = march_inputs(rng, topology)
        times = [0.0, 0.043, 0.25, 0.5]
        res = solve(f, w, k, nu=nu, t_end=0.5, output_times=times, dt=dt)
        assert_matches_reference(res, f, w, k, nu, 0.5, times, dt)
        if dt is not None:
            assert res.snapshots[1].time < 0.043
        if topology == "line":
            assert res.final.leakage.max() > 0.0
        if nu > 0:
            assert res.final.clamp_total > 0.0

    def test_t_end_zero(self, rng):
        g = Grid1D(-3, 3, 32)
        f = random_fibers(rng, g, 3)
        res = solve(f, empty_weights(3), linear_attraction(), nu=0.0, t_end=0.0, output_times=[0.0])
        assert res.snapshots == [f]

    @pytest.mark.parametrize("n_weights,dim,nu,dt,match", [
        (3, 1, -1.0, None, "nu"),
        (3, 1, math.nan, None, "nu"),
        (3, 1, 0.0, 0.0, "dt"),
        (3, 1, 0.0, -0.1, "dt"),
        (4, 1, 0.0, None, "weight rows"),
        (3, 2, 0.0, None, "1-D"),
    ])
    def test_rejects_bad_input_before_any_step(self, rng, n_weights, dim, nu, dt, match):
        g = Grid1D(-3, 3, 32)
        f = random_fibers(rng, g, 3)
        k = dataclasses.replace(linear_attraction(), dim=dim)
        with pytest.raises(ValueError, match=match):
            solve(f, empty_weights(n_weights), k, nu=nu, t_end=0.0, output_times=[0.0], dt=dt)

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
                                eval_into=None)
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
        times = [s.time for s in res.snapshots]
        assert times[0] == 0.0
        assert abs(times[1] - 0.2) <= 0.025 + 1e-12
        assert abs(times[2] - 0.4) <= 1e-12

    def test_unsorted_times_passed_by_one_step(self):
        # the step to 0.25 passes 0.21, 0.22 and 0.22, each nearest the step at 0.2
        g = Grid1D(-6, 6, 64)
        f = gaussian_fibers(g, [0.0, 1.0], [0.5, 0.7])
        w, k = gen_uniform(2, 1.0), linear_attraction()
        res = solve(f, w, k, nu=0.0, t_end=0.4, output_times=[0.4, 0.22, 0.0, 0.21, 0.22],
                    dt=0.05)
        ref = solve(f, w, k, nu=0.0, t_end=0.4, output_times=[0.0, 0.2, 0.4], dt=0.05)
        want = [ref.snapshots[i] for i in (0, 1, 1, 1, 2)]
        assert [s.time for s in res.snapshots] == [s.time for s in want]
        assert all(a.values.tobytes() == b.values.tobytes() for a, b in zip(res.snapshots, want))

    @pytest.mark.parametrize("t", [-0.1, 0.5, math.nan])
    def test_rejects_output_time_off_the_run(self, rng, t):
        f = random_fibers(rng, Grid1D(-3, 3, 32), 3)
        with pytest.raises(ValueError, match="output times"):
            solve(f, empty_weights(3), linear_attraction(), nu=0.0, t_end=0.4,
                  output_times=[0.2, t])

    def test_self_drift_rejected(self):
        # the transport equations carry no self-dynamics term
        g = Grid1D(0.0, 2 * math.pi, 128, "torus")
        f = gaussian_fibers(g, np.linspace(1.6, 4.6, 16), np.full(16, 0.5))
        w = gen_class_permutation(16, 4, [2, 3, 4, 1])
        k = dataclasses.replace(kuramoto(1.0), self_drift=lambda x: np.full_like(x, 2.0))
        with pytest.raises(ValueError, match="self_drift"):
            solve(f, w, k, nu=0.0, t_end=1.0, output_times=[1.0])
        with pytest.raises(ValueError, match="self_drift"):
            velocity(f, w, k)


def class_block_inputs(g, labels, base, block):
    """Fiber i is the profile base[labels[i]], and w_ij is
    block[labels[i], labels[j]] / (number of fibers labelled labels[j])
    wherever block is nonzero: fibers of one label share a law and, up to
    the label of each column, a weight row."""
    labels = np.asarray(labels)
    sizes = np.bincount(labels, minlength=block.shape[0])
    dense = block[labels[:, None], labels[None, :]] / sizes[labels][None, :]
    rows, cols = np.nonzero(dense)
    w = SparseWeights(labels.size, rows, cols, dense[rows, cols])
    return FiberedDensity(grid=g, values=base[labels]), w


def profiles_with_gaps(rng, g, n):
    """n distinct random profiles, zero on about half their cells and on
    the middle five-eighths of the grid, so that diffusion leaves roundoff
    negatives to clamp (as in march_inputs)."""
    vals = rng.random((n, g.n_cells))
    vals[rng.random(vals.shape) < 0.5] = 0.0
    vals[:, 3 * g.n_cells // 16 : 13 * g.n_cells // 16] = 0.0
    vals[:, 0] = 1.0 + np.arange(n)
    return vals


def golden_means(n, lo, hi):
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    return lo + (hi - lo) * np.mod((np.arange(n) + 1) * golden, 1.0)


class TestLumping:
    """solve marches one fiber per class of bitwise-equal fibers; every
    output bit must equal the full (unlumped) reference march."""

    @pytest.mark.parametrize("topology,nu", [("line", 0.0), ("torus", 0.02)])
    @pytest.mark.parametrize("m", [8, 32, 128])
    def test_class_permutation_bitwise(self, topology, nu, m):
        # criterion 9's shape on a coarse grid: all m agents of a class share
        # one law and one block row
        n, n_classes = 256, 256 // m
        if topology == "line":
            g, k = Grid1D(-1.5, 1.5, 64), linear_attraction()
            means = golden_means(n_classes, -0.5, 0.5)
            perm = list(range(1, n_classes + 1))
        else:
            g, k = Grid1D(0.0, 2 * math.pi, 64, "torus"), kuramoto()
            means = golden_means(n_classes, math.pi - 1.5, math.pi + 1.5)
            perm = [c % n_classes + 1 for c in range(1, n_classes + 1)]
        f = gaussian_fibers(g, np.repeat(means, m), np.full(n, 0.3))
        w = gen_class_permutation(n, m, perm)
        times = [0.1, 0.3]
        res, rows = marched(f, w, k, nu=nu, t_end=0.3, output_times=times)
        assert rows and set(rows) == {n_classes}
        assert_matches_reference(res, f, w, k, nu, 0.3, times)

    @pytest.mark.parametrize("topology", ["line", "torus"])
    def test_partial_lumping_with_singletons(self, rng, topology):
        # two labels of four fibers each and four singletons, interleaved
        span = (0.0, 2 * math.pi) if topology == "torus" else (-3.0, 3.0)
        g = Grid1D(*span, 48, topology)
        labels = np.array([0, 0, 1, 0, 2, 1, 3, 1, 0, 4, 1, 5])
        block = rng.uniform(-1.0, 1.0, (6, 6)) * (rng.random((6, 6)) < 0.7)
        f, w = class_block_inputs(g, labels, random_fibers(rng, g, 6).values, block)
        k = kuramoto() if topology == "torus" else linear_attraction()
        assert np.array_equal(pde._fiber_classes(f, w), labels)
        times = [0.05, 0.3]
        res, rows = marched(f, w, k, nu=0.01, t_end=0.3, output_times=times)
        assert rows and set(rows) == {6}
        assert_matches_reference(res, f, w, k, 0.01, 0.3, times)

    def test_equal_fibers_with_unequal_rows_split(self, rng):
        # one law for every agent on a random sparse w: equal values alone
        # do not make a class
        g = Grid1D(-3, 3, 48)
        n = 12
        f = gaussian_fibers(g, [0.2] * n, [0.6] * n)
        w = random_sparse_weights(rng, n, 0.4)
        n_classes = int(pde._fiber_classes(f, w).max()) + 1
        assert n_classes > 1
        res, rows = marched(f, w, linear_attraction(), nu=0.0, t_end=0.3, output_times=[0.3])
        assert set(rows) == {n_classes}
        assert_matches_reference(res, f, w, linear_attraction(), 0.0, 0.3, [0.3])

    def test_refinement_follows_chains(self):
        # equal fibers on two chains 1 -> 2 -> 3 and 4 -> 5 -> 6: the row
        # lengths split off the chain ends, and a second round the middles
        g = Grid1D(-3, 3, 48)
        f = gaussian_fibers(g, [0.2] * 6, [0.6] * 6)
        w = SparseWeights.from_entries(6, [(1, 2, 0.5), (2, 3, 0.5), (4, 5, 0.5), (5, 6, 0.5)])
        assert np.array_equal(pde._fiber_classes(f, w), [0, 1, 2, 0, 1, 2])
        res, rows = marched(f, w, linear_attraction(), nu=0.0, t_end=0.3, output_times=[0.3])
        assert set(rows) == {3}
        assert_matches_reference(res, f, w, linear_attraction(), 0.0, 0.3, [0.3])

    def test_unequal_leakage_splits(self, rng):
        # equal values but different leakage ledgers march apart
        g = Grid1D(-3, 3, 48)
        f = gaussian_fibers(g, [0.2] * 4, [0.6] * 4)
        f = dataclasses.replace(f, leakage=np.array([0.0, 0.0, 1e-3, 0.0]))
        w = gen_uniform(4, 1.0, include_diagonal=True)
        assert np.array_equal(pde._fiber_classes(f, w), [0, 0, 1, 0])
        res, rows = marched(f, w, linear_attraction(), nu=0.0, t_end=0.3, output_times=[0.3])
        assert set(rows) == {2}
        assert_matches_reference(res, f, w, linear_attraction(), 0.0, 0.3, [0.3])

    @pytest.mark.parametrize("topology", ["line", "torus"])
    def test_clamping_run_bitwise(self, rng, topology):
        # the clamped mass is summed over the full system on every step
        # that clamps
        span = (0.0, 2 * math.pi) if topology == "torus" else (-3.0, 3.0)
        g = Grid1D(*span, 64, topology)
        labels = rng.permutation(np.repeat(np.arange(4), 3))
        block = rng.uniform(-3.0, 3.0, (4, 4)) * (rng.random((4, 4)) < 0.7)
        f, w = class_block_inputs(g, labels, profiles_with_gaps(rng, g, 4), block)
        k = kuramoto() if topology == "torus" else linear_attraction()
        times = [0.1, 0.5]
        res, rows = marched(f, w, k, nu=0.01, t_end=0.5, output_times=times)
        assert set(rows) == {4}
        assert res.final.clamp_total > 0.0
        assert_matches_reference(res, f, w, k, 0.01, 0.5, times)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), topology=st.sampled_from(["line", "torus"]),
           nu=st.sampled_from([0.0, 0.02]), n=st.integers(1, 16), n_laws=st.integers(1, 5))
    def test_random_partitions_bitwise(self, seed, topology, nu, n, n_laws):
        r = np.random.default_rng(seed)
        n_laws = min(n, n_laws)
        labels = r.permutation(np.concatenate(
            (np.arange(n_laws), r.integers(0, n_laws, n - n_laws))))
        span = (0.0, 2 * math.pi) if topology == "torus" else (-3.0, 3.0)
        g = Grid1D(*span, int(r.integers(8, 40)), topology)
        block = r.uniform(-2.0, 2.0, (n_laws, n_laws)) * (r.random((n_laws, n_laws)) < 0.7)
        f, w = class_block_inputs(g, labels, profiles_with_gaps(r, g, n_laws), block)
        k = kuramoto() if topology == "torus" else linear_attraction()
        times = [0.05, 0.2]
        res, rows = marched(f, w, k, nu=nu, t_end=0.2, output_times=times)
        assert set(rows) == {n_laws}
        assert_matches_reference(res, f, w, k, nu, 0.2, times)


def indep_gap_shape():
    """The benchmark's indep_gap fibers at seed 7: 256 agents in two
    classes of 128 that share a law and a block row."""
    n, m = 256, 128
    means = np.random.default_rng(7).uniform(-0.5, 0.5, n // m)
    laws = AgentLawSpec(means=np.repeat(means, m)[:, None], stds=np.full((n, 1), 0.15),
                        weights=np.ones((n, 1)))
    w = gen_class_permutation(n, m, list(range(1, n // m + 1)))
    return laws.fibers(Grid1D(-1.5, 1.5, 256)), w, linear_attraction(), 0.0


def criterion_2_shape():
    """Criterion 2's 16 identical fibers under uniform coupling."""
    f = gaussian_fibers(Grid1D(-6.0, 6.0, 256), [0.4] * 16, [0.6] * 16)
    return f, gen_uniform(16, 1.0, include_diagonal=True), linear_attraction(), 0.0


def noisy_torus_shape():
    """The benchmark's noisy_torus fibers: 256 spread laws, all distinct."""
    laws = AgentLawSpec.spread(256, math.pi - 1.5, math.pi + 1.5, 0.5)
    w = gen_class_permutation(256, 16, [c % 16 + 1 for c in range(1, 17)])
    return laws.fibers(Grid1D(0.0, 2 * math.pi, 256, "torus")), w, kuramoto(), 0.245


@pytest.mark.parametrize("shape,n_classes", [
    (indep_gap_shape, 2), (criterion_2_shape, 1), (noisy_torus_shape, 256)])
def test_solve_marches_one_row_per_class(shape, n_classes):
    f, w, k, nu = shape()
    assert int(pde._fiber_classes(f, w).max()) + 1 == n_classes
    res, rows = marched(f, w, k, nu=nu, t_end=0.05, output_times=[0.05])
    assert rows and set(rows) == {n_classes}
    assert res.final.n_fibers == f.n_fibers


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


class TestGaussianFibers:
    def test_torus_takes_nearest_image(self):
        # a mean and the same mean one period on give the same fiber, and a
        # mean at the seam puts equal mass on both ends of the domain
        g = Grid1D(0.0, 2 * math.pi, 128, "torus")
        mu = np.array([0.0, 1.0, 2.5, 5.0, 6.0])
        near, far = (gaussian_fibers(g, m, np.full(5, 0.4)).values for m in (mu, mu + g.length))
        assert np.allclose(near, far, rtol=1e-12, atol=1e-12)
        assert np.allclose(near[0, :64], near[0, :63:-1], rtol=1e-12)

    def test_line_and_near_cells_keep_their_bits(self):
        # offsets within half a period: the Gaussian of the plain offset x - mu
        x = Grid1D(0.0, 2 * math.pi, 64, "torus").centers()
        for g in (Grid1D(0.0, 2 * math.pi, 64), Grid1D(0.0, 2 * math.pi, 64, "torus")):
            vals = np.exp(-0.5 * ((x - math.pi) / 0.5) ** 2) / (0.5 * math.sqrt(2 * math.pi))
            vals /= vals.sum() * g.dx
            assert np.array_equal(gaussian_fibers(g, [math.pi], [0.5]).values[0], vals)


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

    @pytest.mark.parametrize("x_min, x_max", [(0.0, math.inf), (-math.inf, 0.0),
                                              (-1e308, 1e308)])
    def test_non_finite_length_rejected(self, x_min, x_max):
        with pytest.raises(ValueError, match="finite"):
            Grid1D(x_min, x_max, 8)
