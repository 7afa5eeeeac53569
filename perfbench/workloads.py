"""The benchmark's four workloads.

Each workload builds fixed-size inputs from a seed, runs one operation on
them, and checks the outputs with tests that hold for any seed.  An
operation is one estimator call (`indep_gap`, `noisy_torus`) or a sequence
of CLI invocations (`cli_readme`, `simulate_large`); each estimator call and
each CLI invocation counts as one attempted operation, and it fails on an
exception, a nonzero exit code or a failed output check.

Why these four (the layer each one stresses is named in `layers.py`):
- indep_gap: criterion 9's heaviest shape, where batched particle drift over
  a symmetric weight matrix dominates; cut to t_end=0.2 in 5 RK4 steps so
  that a run holds several operations.
- noisy_torus: the same estimator through its torus, diffusion and noise
  branches, where the transport solver dominates and particles do little.
- cli_readme: the five subcommands on the README config verbatim, the
  repository's own end-to-end definition; R=1 drift calls, CSV output,
  observables and the rearrangement.
- simulate_large: the single-state stepper on a 4096-agent graph, the only
  place where its per-step stability guard (`check_scaling`) matters; cut to
  25 RK4 steps (t_end=0.5) so that a run holds several operations.

Each workload also has a toy size, used only by the harness self-test.
"""

from __future__ import annotations

import copy
import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from nxmf import cli, metrics
from nxmf.kernels import Kernel, kuramoto, linear_attraction
from nxmf.metrics import AgentLawSpec
from nxmf.pde import Grid1D
from nxmf.rearrange import modulus_bound, n_pieces
from nxmf.weights import SparseWeights, gen_class_permutation

DEFAULT_SEED = 7            # the README config's seed; reference digests use it
CONSERVATION_TOL = 1e-12    # per-step mass drift allowed by conservation.json

README_CONFIG = {
    "graph": {"kind": "class_permutation", "n": 64, "m": 8, "perm": "cycle"},
    "kernel": {"preset": "linear_attraction", "amplitude": 1.0},
    "init": {"kind": "spread", "mean_lo": -1.5, "mean_hi": 1.5, "std": 0.5},
    "grid": {"x_min": -6.0, "x_max": 6.0, "cells": 256, "topology": "line"},
    "time": {"t_end": 1.0, "snapshots": [0.0, 0.5, 1.0], "dt": 0.02},
    "nu": 0.0, "sigma": 0.0, "seed": 7, "replicas": 200,
    "observables": {"n_max": 2, "lambda": 1.0},
    "rearrange": {"levels": 3, "cells": 4096},
    "out_dir": "out",
}


@dataclass
class Outcome:
    """Checked result of one operation."""

    attempted: int
    failures: list[str] = field(default_factory=list)    # one entry per failed invocation
    digests: dict | None = None                          # command -> manifest outputs


# ---------------------------------------------------------------------------
# estimator workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapInputs:
    w: SparseWeights
    kernel: Kernel
    laws: AgentLawSpec
    grid: Grid1D
    t_end: float
    dt: float
    master_seed: int
    sigma: float
    n_bootstrap: int
    n_replicas: int = 100


def indep_gap_inputs(seed: int, size: dict) -> GapInputs:
    """Identity class permutation (symmetric w), one tight law per class."""
    n, m = size["n"], size["m"]
    class_means = np.random.default_rng(seed).uniform(-0.5, 0.5, n // m)
    laws = AgentLawSpec(means=np.repeat(class_means, m)[:, None],
                        stds=np.full((n, 1), 0.15), weights=np.ones((n, 1)))
    return GapInputs(
        w=gen_class_permutation(n, m, list(range(1, n // m + 1))),
        kernel=linear_attraction(), laws=laws,
        grid=Grid1D(-1.5, 1.5, size["cells"]), t_end=size["t_end"], dt=size["dt"],
        master_seed=seed, sigma=0.0, n_bootstrap=size["n_bootstrap"],
    )


def noisy_torus_inputs(seed: int, size: dict) -> GapInputs:
    """Kuramoto on a torus with path noise, cycle class permutation."""
    n, m = size["n"], size["m"]
    n_classes = n // m
    shift = np.random.default_rng(seed).uniform(-0.5, 0.5)
    laws = AgentLawSpec.spread(n, math.pi - 1.5 + shift, math.pi + 1.5 + shift, 0.5)
    return GapInputs(
        w=gen_class_permutation(n, m, [c % n_classes + 1 for c in range(1, n_classes + 1)]),
        kernel=kuramoto(), laws=laws,
        grid=Grid1D(0.0, 2.0 * math.pi, size["cells"], "torus"), t_end=size["t_end"],
        dt=0.02, master_seed=seed, sigma=0.7, n_bootstrap=size["n_bootstrap"],
    )


def check_gap(rep) -> list[str]:
    """Every field finite, and gap <= bound + tolerance."""
    fields = {"gap": rep.gap, "bound": rep.bound, "stderr": rep.stderr,
              "tolerance": rep.tolerance}
    bad = [k for k, v in fields.items() if not math.isfinite(v)]
    if bad:
        return [f"non-finite {', '.join(bad)}"]
    if rep.gap > rep.bound + rep.tolerance:
        return [f"gap {rep.gap:.6g} > bound {rep.bound:.6g} + tolerance {rep.tolerance:.6g}"]
    return []


class GapWorkload:
    """One `metrics.independence_gap` call per operation."""

    has_digests = False

    def __init__(self, make, sizes: dict):
        self.make = make
        self.sizes = sizes

    def build(self, seed: int, toy: bool, workdir: Path) -> GapInputs:
        return self.make(seed, self.sizes["toy" if toy else "full"])

    def run(self, inp: GapInputs, workdir: Path):
        return metrics.independence_gap(
            inp.w, inp.kernel, inp.laws, inp.grid, t_end=inp.t_end, dt=inp.dt,
            master_seed=inp.master_seed, n_replicas=inp.n_replicas, sigma=inp.sigma,
            n_bootstrap=inp.n_bootstrap)

    def check(self, inp: GapInputs, result, workdir: Path) -> Outcome:
        if isinstance(result, Exception):
            return Outcome(1, [f"independence_gap raised {result!r}"])
        fails = check_gap(result)
        return Outcome(1, ["independence_gap: " + "; ".join(fails)] if fails else [])


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CliInputs:
    config: dict
    config_path: Path
    seed: int


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _all_finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def exact_scaling(graph: dict) -> dict:
    """Exact scaling report of a class-permutation graph."""
    n, m = graph["n"], graph["m"]
    return {"max_row_abs_sum": 1.0, "max_col_abs_sum": 1.0,
            "max_entry_abs": 1.0 / m, "density": m / n}


def check_simulate(cfg: dict, out: Path) -> list[str]:
    fails = []
    traj = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
    if traj.size == 0 or not np.isfinite(traj).all():
        fails.append("trajectory.csv is empty or not finite")
    report = json.loads((out / "scaling_report.json").read_text())
    expected = exact_scaling(cfg["graph"])
    if report != expected:
        fails.append(f"scaling report {report} != exact {expected}")
    return fails


def check_solve(cfg: dict, out: Path) -> list[str]:
    cons = json.loads((out / "conservation.json").read_text())
    drift = cons["max_step_mass_drift"]
    if not (math.isfinite(drift) and drift <= CONSERVATION_TOL):
        return [f"step mass drift {drift!r} > {CONSERVATION_TOL}"]
    if not _all_finite(cons["final_mass"]):
        return ["final mass not finite"]
    return []


def check_observe(cfg: dict, out: Path) -> list[str]:
    rows = _csv_rows(out / "hierarchy_norms.csv")
    if not rows or not _all_finite([r[k] for r in rows for k in ("l2", "sup")]):
        return ["hierarchy norms missing or not finite"]
    return []


def check_rearrange(cfg: dict, out: Path) -> list[str]:
    fails = []
    cells, levels = cfg["rearrange"]["cells"], cfg["rearrange"]["levels"]
    perm = np.loadtxt(out / "permutation.txt", dtype=np.int64, ndmin=1)
    if perm.size != cells or not np.array_equal(np.sort(perm), np.arange(cells)):
        fails.append("permutation is not a bijection")
    table = np.loadtxt(out / "modulus.csv", delimiter=",", skiprows=1, ndmin=2)
    if not np.isfinite(table).all():
        fails.append("modulus table not finite")
    for k in range(1, levels + 1):
        admissible = table[table[:, 0] <= cells // n_pieces(k) ** 2, 2]
        if admissible.size == 0 or (admissible > modulus_bound(k)).any():
            fails.append(f"modulus exceeds 3*2^-{k} at an admissible shift")
    return fails


def check_convergence(cfg: dict, out: Path) -> list[str]:
    fails = []
    grid = cfg["grid"]
    dx = (grid["x_max"] - grid["x_min"]) / grid["cells"]
    for name in ("independence_gap.csv", "meanfield_gap.csv"):
        rows = _csv_rows(out / name)
        if not rows or not _all_finite([r[k] for r in rows for k in ("gap", "bound", "stderr")]):
            fails.append(f"{name} missing or not finite")
        elif name == "independence_gap.csv":
            fails += [f"independence gap {r['gap']} > bound + tolerance" for r in rows
                      if float(r["gap"]) > float(r["bound"]) + 3.0 * float(r["stderr"]) + dx]
    return fails


CHECKS = {
    "simulate": check_simulate,
    "solve": check_solve,
    "observe": check_observe,
    "rearrange": check_rearrange,
    "convergence": check_convergence,
}


class CliWorkload:
    """Subcommands run in-process through `nxmf.cli.main`, one output
    directory per command inside a fresh directory per operation."""

    has_digests = True

    def __init__(self, commands: tuple[str, ...], sizes: dict):
        self.commands = commands
        self.sizes = sizes

    def build(self, seed: int, toy: bool, workdir: Path) -> CliInputs:
        config = self.sizes["toy" if toy else "full"]
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / "config.json"
        path.write_text(json.dumps(config, indent=2))
        return CliInputs(config=config, config_path=path, seed=seed)

    def run(self, inp: CliInputs, workdir: Path) -> dict:
        codes = {}
        for command in self.commands:
            argv = [command, "--config", str(inp.config_path), "--out", str(workdir / command),
                    "--seed", str(inp.seed)]
            try:
                codes[command] = cli.main(argv)
            except Exception as exc:      # a traceback is a failed invocation
                codes[command] = exc
        return codes

    def check(self, inp: CliInputs, result, workdir: Path) -> Outcome:
        outcome = Outcome(len(self.commands), digests={})
        if isinstance(result, Exception):
            outcome.failures = [f"operation raised {result!r}"] * len(self.commands)
            return outcome
        for command in self.commands:
            code, out = result.get(command), workdir / command
            if code != 0:
                outcome.failures.append(f"{command}: exit {code!r}")
                continue
            try:
                fails = CHECKS[command](inp.config, out)
                outcome.digests[command] = json.loads((out / "manifest.json").read_text())["outputs"]
            except (OSError, ValueError, KeyError) as exc:
                fails = [f"unreadable output: {exc!r}"]
            if fails:
                outcome.failures.append(f"{command}: " + "; ".join(fails))
        return outcome


def _config(**changes) -> dict:
    return {**copy.deepcopy(README_CONFIG), **changes}


_TOY_TIME = {"t_end": 0.2, "snapshots": [0.0, 0.1, 0.2], "dt": 0.02}

WORKLOADS = {
    "indep_gap": GapWorkload(indep_gap_inputs, {
        "full": {"n": 256, "m": 128, "cells": 256, "t_end": 0.2, "dt": 0.04, "n_bootstrap": 32},
        "toy": {"n": 16, "m": 8, "cells": 32, "t_end": 0.04, "dt": 0.02, "n_bootstrap": 4},
    }),
    "noisy_torus": GapWorkload(noisy_torus_inputs, {
        "full": {"n": 256, "m": 16, "cells": 256, "t_end": 0.5, "n_bootstrap": 32},
        "toy": {"n": 16, "m": 4, "cells": 32, "t_end": 0.05, "n_bootstrap": 4},
    }),
    "cli_readme": CliWorkload(("simulate", "solve", "observe", "rearrange", "convergence"), {
        "full": README_CONFIG,
        "toy": _config(graph={"kind": "class_permutation", "n": 16, "m": 4, "perm": "cycle"},
                       grid={"x_min": -6.0, "x_max": 6.0, "cells": 64, "topology": "line"},
                       time=_TOY_TIME, replicas=2, rearrange={"levels": 2, "cells": 64}),
    }),
    "simulate_large": CliWorkload(("simulate",), {
        "full": _config(graph={"kind": "class_permutation", "n": 4096, "m": 64, "perm": "cycle"},
                        time={"t_end": 0.5, "snapshots": [0.0, 0.25, 0.5], "dt": 0.02}),
        "toy": _config(graph={"kind": "class_permutation", "n": 64, "m": 8, "perm": "cycle"},
                       time=_TOY_TIME),
    }),
}
