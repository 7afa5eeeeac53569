"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The statistical criteria
(9, 10) are the slow ones; the full suite is sized to finish well inside
the stated budgets on a desktop machine.
"""

import json
import math
import time

import numpy as np
import pytest

import nxmf
from nxmf import (
    CellFunctions,
    FiberedDensity,
    Grid1D,
    LabeledTree,
    RearrangementMap,
    build_phi,
    c1,
    enumerate_trees,
    gaussian_fibers,
    gen_class_permutation,
    gen_uniform,
    hierarchy_residual,
    kuramoto,
    linear_attraction,
    modulus,
    rearrange_pair,
    solve,
    tau,
    tau_density,
)
from nxmf.metrics import AgentLawSpec, independence_gap, meanfield_gap
from nxmf.rearrange import modulus_bound, n_pieces
from conftest import random_fibers, random_sparse_weights, tau_dense_reference

T1 = LabeledTree((0,))
T2 = LabeledTree((0, 1))


def report(criterion, detail, started):
    print(f"\nPASS criterion {criterion}: {detail} [{time.time() - started:.1f}s]")


def cyclic(n_classes):
    return [j % n_classes + 1 for j in range(1, n_classes + 1)]


def test_criterion_01_tree_counts():
    t0 = time.time()
    for n in range(1, 9):
        trees = enumerate_trees(n)
        assert len(trees) == math.factorial(n - 1)
        assert len(set(trees)) == len(trees)
    report(1, "|Tree_n| = (n-1)! for n = 1..8, all distinct", t0)


def test_criterion_02_exchangeable_reduction():
    t0 = time.time()
    n = 16
    grid = Grid1D(-6.0, 6.0, 256)
    k = linear_attraction()
    f_multi = gaussian_fibers(grid, [0.4] * n, [0.6] * n)
    f_single = gaussian_fibers(grid, [0.4], [0.6])
    r_multi = solve(f_multi, gen_uniform(n, 1.0, include_diagonal=True), k,
                    nu=0.0, t_end=1.0, output_times=[1.0])
    r_single = solve(f_single, gen_uniform(1, 1.0, include_diagonal=True), k,
                     nu=0.0, t_end=1.0, output_times=[1.0])
    a = r_multi.snapshots[0]
    b = r_single.snapshots[0]
    pair_l1 = max(
        np.abs(a.values[i] - a.values[j]).sum() * grid.dx
        for i in range(n) for j in range(i + 1, n)
    )
    assert pair_l1 <= 1e-10
    vs_single = max(np.abs(a.values[i] - b.values[0]).sum() * grid.dx for i in range(n))
    assert vs_single <= 1e-10
    report(2, f"pairwise fiber L1 {pair_l1:.2e}, vs single-fiber run {vs_single:.2e}", t0)


def test_criterion_03_brute_force_oracle():
    t0 = time.time()
    rng = np.random.default_rng(31)
    grid = Grid1D(-4.0, 4.0, 16)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 9))
        w = random_sparse_weights(rng, n, density=float(rng.uniform(0.2, 0.8)))
        f = random_fibers(rng, grid, n)
        for order in (1, 2, 3):
            for t in enumerate_trees(order):
                a = tau(t, w, f).values
                b = tau_dense_reference(t, w, f).values
                worst = max(worst, float(np.abs(a - b).max()))
    assert worst <= 1e-12
    report(3, f"message passing vs dense N^|T| summation, worst |diff| = {worst:.2e}", t0)


def test_criterion_04_homomorphism_bound():
    t0 = time.time()
    rng = np.random.default_rng(41)
    checked = 0
    for _ in range(50):
        n = int(rng.integers(2, 24))
        w = random_sparse_weights(rng, n, density=float(rng.uniform(0.05, 0.7)))
        base = nxmf.check_scaling(w).max_row_abs_sum
        for order in range(1, 7):
            for t in enumerate_trees(order):
                assert abs(tau_density(t, w)) <= base ** (order - 1) + 1e-13
                checked += 1
    report(4, f"|tau(T,w)| <= max_row_abs_sum^(|T|-1) on {checked} (tree, w) pairs", t0)


def test_criterion_05_moment_consistency():
    t0 = time.time()
    rng = np.random.default_rng(51)
    grid = Grid1D(-4.0, 4.0, 16)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 9))
        w = random_sparse_weights(rng, n, density=float(rng.uniform(0.2, 0.8)))
        f = random_fibers(rng, grid, n)
        for order in (1, 2, 3):
            for t in enumerate_trees(order):
                gap = abs(tau(t, w, f).integral() - tau_density(t, w))
                worst = max(worst, gap)
    assert worst <= 1e-10
    report(5, f"integral of tau equals homomorphism density, worst gap = {worst:.2e}", t0)


def test_criterion_06_rearrangement_invariance():
    t0 = time.time()
    rng = np.random.default_rng(61)
    grid = Grid1D(-4.0, 4.0, 12)
    n = 16
    worst = 0.0
    for _ in range(50):
        w = random_sparse_weights(rng, n, density=0.4)
        f = random_fibers(rng, grid, n)
        phi = RearrangementMap(perm=rng.permutation(n), levels=1)
        w2, f2 = rearrange_pair(w, f, phi)
        for order in (1, 2, 3):
            for t in enumerate_trees(order):
                d = float(np.abs(tau(t, w, f).values - tau(t, w2, f2).values).max())
                worst = max(worst, d)
    assert worst <= 1e-14
    report(6, f"tau invariant under simultaneous relabeling, worst |diff| = {worst:.2e}", t0)


def test_criterion_07_hierarchy_residual_refinement():
    t0 = time.time()
    n = 8
    w = gen_class_permutation(n, 2, cyclic(4))
    k = kuramoto()

    def fibers(cells):
        g = Grid1D(0.0, 2.0 * math.pi, cells, topology="torus")
        x = g.centers()
        vals = np.empty((n, cells))
        for i in range(n):
            vals[i] = 1.0 + 0.5 * np.cos(x + 2.0 * math.pi * i / n) + 0.2 * np.sin(2 * x + i)
        vals = np.maximum(vals, 1e-9)
        vals /= vals.sum(axis=1, keepdims=True) * g.dx
        return FiberedDensity(grid=g, values=vals)

    ratios = {}
    for nu in (0.0, 0.05):
        residuals = {}
        settings = [(128, 0.004, 0.02), (256, 0.002, 0.01)]  # (G, dt, snapshot spacing)
        for cells, dt, h in settings:
            res = solve(fibers(cells), w, k, nu=nu, t_end=0.2 + h,
                        output_times=[0.2 - h, 0.2, 0.2 + h], dt=dt)
            for t in (T1, T2):
                rep = hierarchy_residual(t, w, res.snapshots, k, nu=nu)
                residuals.setdefault(t, []).append(rep.value)
        for t, (base, halved) in residuals.items():
            ratio = base / halved
            ratios[(t.to_text(), nu)] = ratio
            assert ratio >= 1.5, f"tree {t.to_text()}, nu={nu}: ratio {ratio:.2f} < 1.5"
    detail = ", ".join(f"{k_}: {v:.2f}x" for k_, v in ratios.items())
    report(7, f"residual reduction under (dt,dx) halving -- {detail}", t0)


def test_criterion_08_rearrangement_modulus():
    t0 = time.time()
    rng = np.random.default_rng(81)
    levels = 3
    cells = n_pieces(levels) ** 2
    assert cells == 4096
    worst_margin = math.inf
    for _ in range(20):
        vals = np.empty((levels, cells))
        for m in range(1, levels + 1):
            vals[m - 1] = np.maximum(rng.random(cells) * 2.0 ** (1 - m), 1e-12)
        g = CellFunctions(values=vals)
        phi = build_phi(g)
        all_shifts = list(range(1, cells // n_pieces(1) ** 2 + 1))
        table = modulus(g, phi, all_shifts)
        for k_level in range(1, levels + 1):
            s_max = cells // n_pieces(k_level) ** 2
            bound = modulus_bound(k_level)
            for s in range(1, s_max + 1):
                worst_margin = min(worst_margin, bound - table[s])
                assert table[s] <= bound
    report(8, f"M(tau) <= 3*2^-k for all k <= 3, shifts tau <= 1/n_k^2; "
              f"smallest margin {worst_margin:.3f}", t0)


@pytest.mark.slow
def test_criterion_09_independence_gap():
    # Design notes: classes drive themselves (identity permutation) and all
    # agents of a class share one tight initial law.  The odd kernel then
    # conserves each class mean pathwise, so the per-replica class-mean
    # fluctuation (std sigma/sqrt(M)) is locked into the law while the
    # within-class attraction contracts it -- a genuinely M^(-1/2)-scaled
    # law deviation that stays above the Monte Carlo floor.
    t0 = time.time()
    n = 256
    k = linear_attraction()
    grid = Grid1D(-1.5, 1.5, 1024)
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    gaps = {}
    for m in (8, 32, 128):
        n_classes = n // m
        class_means = -0.5 + np.mod((np.arange(n_classes) + 1) * golden, 1.0)
        laws = AgentLawSpec(
            means=np.repeat(class_means, m)[:, None],
            stds=np.full((n, 1), 0.15),
            weights=np.ones((n, 1)),
        )
        w = gen_class_permutation(n, m, list(range(1, n_classes + 1)))
        rep = independence_gap(w, k, laws, grid, t_end=1.0, dt=0.02,
                               master_seed=90210, n_replicas=2000, n_bootstrap=32)
        # rep.bound is C1(1) * sup|w_ij|^(1/2) = C1(1) * M^(-1/2)
        assert rep.gap <= rep.bound + rep.tolerance, (
            f"M={m}: gap {rep.gap:.4f} > C1(1) M^-1/2 + tolerance "
            f"{rep.bound + rep.tolerance:.4f}")
        gaps[m] = rep.gap
    ms = np.array(sorted(gaps))
    gs = np.array([gaps[m] for m in ms])
    exponent = -np.polyfit(np.log(ms), np.log(gs), 1)[0]
    assert 0.3 <= exponent <= 0.7, f"fitted decay exponent {exponent:.3f} outside [0.3, 0.7]"
    detail = ", ".join(f"M={int(m)}: {gaps[m]:.4f}" for m in ms)
    report(9, f"{detail}; fitted decay exponent {exponent:.3f}", t0)


def test_criterion_10_meanfield_convergence():
    t0 = time.time()
    k = linear_attraction()
    grid = Grid1D(-6.0, 6.0, 512)

    def nearest_divisor(n, target):
        divs = [d for d in range(1, n + 1) if n % d == 0]
        return min(divs, key=lambda d: (abs(d - target), d))

    sups = []
    for n in (64, 128, 256, 512):
        m = nearest_divisor(n, round(math.sqrt(n)))
        w = gen_class_permutation(n, m, cyclic(n // m))
        laws = AgentLawSpec.scatter(n, -1.2, 1.2, 0.5)
        reps = meanfield_gap(w, k, laws, grid, [0.0, 0.25, 0.5, 0.75, 1.0],
                             dt=0.02, master_seed=1001, n_seeds=200)
        sups.append(max(r.gap for r in reps))
    for i in range(3):
        assert sups[i + 1] < sups[i], f"no decrease at doubling {i}: {sups}"
    detail = " > ".join(f"{s:.4f}" for s in sups)
    report(10, f"sup_t seed-averaged W1 decreases at all 3 doublings: {detail}", t0)


def test_criterion_11_conservation():
    t0 = time.time()
    rng = np.random.default_rng(111)
    worst = 0.0
    k = kuramoto()
    for _ in range(5):
        n = int(rng.integers(2, 10))
        g = Grid1D(0.0, 2.0 * math.pi, 128, topology="torus")
        f = FiberedDensity(grid=g, values=rng.random((n, 128)) + 0.05)
        w = random_sparse_weights(rng, n)
        res = solve(f, w, k, nu=float(rng.uniform(0, 0.05)), t_end=0.5, output_times=[0.5])
        worst = max(worst, res.max_step_mass_drift)
    assert worst <= 1e-12
    report(11, f"per-fiber mass drift on torus <= 1e-12/step (worst {worst:.2e})", t0)


def test_criterion_12_determinism(tmp_path):
    t0 = time.time()
    from nxmf.cli import main

    config = {
        "graph": {"kind": "class_permutation", "n": 16, "m": 4, "perm": "cycle"},
        "kernel": {"preset": "linear_attraction"},
        "init": {"kind": "spread", "mean_lo": -1.0, "mean_hi": 1.0, "std": 0.5},
        "grid": {"x_min": -6.0, "x_max": 6.0, "cells": 64, "topology": "line"},
        "time": {"t_end": 0.2, "snapshots": [0.0, 0.1, 0.2], "dt": 0.02},
        "nu": 0.0, "sigma": 0.1, "seed": 2024, "replicas": 150,
        "observables": {"n_max": 2, "lambda": 1.0},
        "rearrange": {"levels": 2, "cells": 64},
        "out_dir": str(tmp_path / "unused"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    for command in ("simulate", "solve", "observe", "rearrange", "convergence"):
        digests = []
        for run, threads in (("a", 1), ("b", 3)):
            out = tmp_path / f"{command}_{run}"
            code = main([command, "--config", str(cfg_path), "--out", str(out),
                         "--threads", str(threads)])
            assert code == 0
            digests.append(json.loads((out / "manifest.json").read_text())["outputs"])
        assert digests[0] == digests[1], f"{command}: digests differ across runs/threads"
    report(12, "identical output digests across repeated runs and thread counts", t0)
