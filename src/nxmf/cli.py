"""Experiment harness: simulate | solve | observe | rearrange | convergence.

Every run writes its artifacts plus a manifest listing the inputs, the
package version and a sha256 digest per output file; the same config and
seed always reproduce byte-identical files.  --threads has no effect on the
computation: it is only recorded in the manifest, for provenance.

Exit codes: 0 success, 2 configuration error, an output directory that
cannot be created or other bad input (any ValueError), 3 numeric guard
violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import struct
import sys
from pathlib import Path

import numpy as np

from . import __version__, seeding
from .config import SEED_MAX, ExperimentConfig, canonical_json, check_number
from .metrics import GapReport, convergence_gaps
from .observables import (
    LatticeBudgetError,
    hierarchy,
    hierarchy_norm,
    hierarchy_residual,
    lambda_admissible,
    tau,
)
from .particles import StabilityError, integrate
from .pde import CFLError, solve, velocity
from .rearrange import CellFunctions, build_phi, fit_modulus_constant, modulus, save_permutation
from .trees import enumerate_trees
from .weights import check_scaling

FLOAT_FMT = "%.17g"
CSV_CHUNK_ROWS = 1 << 12      # rows per write: bounds memory; 2^14 was no faster
HASH_BLOCK = 1 << 20          # files are hashed in blocks, so memory does not grow with size
PARTICLE_DT = 0.01            # particle step when the config gives no time.dt


def _fmt(v) -> str:
    if isinstance(v, float):
        return FLOAT_FMT % v
    s = str(v)
    if "," in s or '"' in s:
        s = '"' + s.replace('"', '""') + '"'
    return s


def _column_text(col) -> list[str]:
    """The CSV fields of one column, in order.

    A float64 or integer array goes through `_fmt` once per distinct value;
    a float64 one is keyed by its int64 view, which keeps -0.0 apart from 0.0
    and each NaN payload apart.  Any other column goes through `_fmt` one
    value at a time.
    """
    if isinstance(col, np.ndarray) and (col.dtype == np.float64 or col.dtype.kind in "iu"):
        is_float = col.dtype == np.float64
        keys, inverse = np.unique(col.view(np.int64) if is_float else col, return_inverse=True)
        values = keys.view(np.float64) if is_float else keys
        return np.array([_fmt(v) for v in values.tolist()], dtype=object)[inverse].tolist()
    return [_fmt(v) for v in (col.tolist() if isinstance(col, np.ndarray) else col)]


class Emitter:
    """Deterministic artifact writer with digest collection."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        self.digests: dict[str, str] = {}

    def register_file(self, path: Path):
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            while block := fh.read(HASH_BLOCK):
                digest.update(block)
        self.digests[path.name] = digest.hexdigest()

    def write_text(self, name: str, text: str):
        path = self.out_dir / name
        path.write_text(text)
        self.register_file(path)

    def write_csv(self, name: str, header: list[str], columns):
        """Write a CSV table given column by column.

        `columns` holds one equal-length 1-D sequence per header name: a
        numpy array or a list/tuple of Python values.  Floats (Python or
        numpy float64) are written with `FLOAT_FMT`, `%.17g`, so they read
        back bit-exact; `nan`, `inf` and `-inf` appear as such and `-0.0`
        keeps its sign.  Arrays of other dtypes are read through `.tolist()`.
        Every other value is written with `str`, and a field containing a
        comma or a double quote is quoted the CSV way (quotes doubled).
        Lines end in `\\n`, the last one included.
        """
        n_rows = len(columns[0]) if columns else 0
        if len(columns) != len(header) or any(len(c) != n_rows for c in columns):
            raise ValueError(f"{name}: need one column of equal length per header field")
        path = self.out_dir / name
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for lo in range(0, n_rows, CSV_CHUNK_ROWS):
                fields = [_column_text(c[lo:lo + CSV_CHUNK_ROWS]) for c in columns]
                fh.write("\n".join(map(",".join, zip(*fields))) + "\n")
        self.register_file(path)

    def write_json(self, name: str, obj):
        self.write_text(name, canonical_json(obj))

    def write_lattice(self, name: str, order: int, g_cells: int, values: np.ndarray):
        """Binary lattice dump: 16-byte header (magic, version, order, G),
        then float64 values in C order."""
        path = self.out_dir / name
        with open(path, "wb") as fh:
            fh.write(struct.pack("<4sIII", b"NXMF", 1, order, g_cells))
            fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())
        self.register_file(path)

    def write_density_bin(self, name: str, snapshot):
        """Binary density dump: 16-byte header (magic, version, n_fibers, G),
        then float64 values in column-major order."""
        path = self.out_dir / name
        with open(path, "wb") as fh:
            fh.write(struct.pack("<4sIII", b"NXMF", 1, snapshot.n_fibers,
                                 snapshot.grid.n_cells))
            fh.write(np.asfortranarray(snapshot.values, dtype="<f8").tobytes(order="F"))
        self.register_file(path)

    def manifest(self, cfg: ExperimentConfig, command: str, seed: int, threads: int):
        doc = {
            "command": command,
            "version": __version__,
            "seed": seed,
            "threads": threads,
            "config_sha256": hashlib.sha256(cfg.to_text().encode()).hexdigest(),
            "outputs": dict(sorted(self.digests.items())),
        }
        self.write_text("manifest.json", canonical_json(doc))


def _gap_columns(reports: list[GapReport]):
    return list(zip(*[(r.t, r.gap, r.bound, r.stderr, r.seeds) for r in reports]))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(cfg: ExperimentConfig, em: Emitter, seed: int):
    w = cfg.build_weights(seed)
    laws = cfg.build_laws(w.n_agents)
    snaps = cfg.snapshots
    traj = integrate(w, cfg.kernel, laws.sample_replicas(seed, 1), snaps, cfg.dt or PARTICLE_DT,
                     cfg.sigma, seed)[:, 0]
    n_snaps, n_agents, d = traj.shape
    columns = [np.repeat(snaps, n_agents), np.tile(np.arange(1, n_agents + 1), n_snaps)]
    columns += [traj[..., j].ravel() for j in range(d)]
    header = ["t", "agent"] + [f"coord{j}" for j in range(d)]
    em.write_csv("trajectory.csv", header, columns)
    rep = check_scaling(w)
    em.write_json("scaling_report.json", {
        "max_row_abs_sum": rep.max_row_abs_sum,
        "max_col_abs_sum": rep.max_col_abs_sum,
        "max_entry_abs": rep.max_entry_abs,
        "density": rep.density,
    })


def _solve_from_config(cfg: ExperimentConfig, seed: int):
    w = cfg.build_weights(seed)
    f0 = cfg.build_laws(w.n_agents).fibers(cfg.grid)
    return w, solve(f0, w, cfg.kernel, nu=cfg.nu, t_end=cfg.t_end, output_times=cfg.snapshots,
                    dt=cfg.dt)


def cmd_solve(cfg: ExperimentConfig, em: Emitter, seed: int):
    w, res = _solve_from_config(cfg, seed)
    grid = cfg.grid
    n_snaps, n_fibers, g_cells = len(res.snapshots), res.final.n_fibers, grid.n_cells
    per_snap = n_fibers * g_cells
    em.write_csv("density.csv", ["t", "fiber", "cell", "x_center", "value"], [
        np.repeat([snap.time for snap in res.snapshots], per_snap),
        np.tile(np.repeat(np.arange(1, n_fibers + 1), g_cells), n_snaps),
        np.tile(np.arange(g_cells), n_snaps * n_fibers),
        np.tile(grid.centers(), n_snaps * n_fibers),
        np.concatenate([snap.values.ravel() for snap in res.snapshots]),
    ])
    if cfg.binary_density:
        for i, snap in enumerate(res.snapshots):
            em.write_density_bin(f"density_{i:03d}.bin", snap)
    final = res.final
    em.write_json("conservation.json", {
        "boundary": "torus wrap" if grid.topology == "torus"
                    else "zero inflow with advective leakage ledger (line truncation choice)",
        "n_steps": res.n_steps,
        "max_step_mass_drift": res.max_step_mass_drift,
        "clamp_total": final.clamp_total,
        "initial_mass": final.initial_mass.tolist(),
        "final_mass": final.masses().tolist(),
        "leakage": final.leakage.tolist(),
    })


def cmd_observe(cfg: ExperimentConfig, em: Emitter, seed: int):
    w, res = _solve_from_config(cfg, seed)
    grid, n_max, lam = cfg.grid, cfg.n_max, cfg.lam
    mid = res.snapshots[len(res.snapshots) // 2]
    h = hierarchy(w, mid, n_max=n_max, lam=lam)

    centers = grid.centers()
    norm_rows = []
    for t, ob in h.observables.items():
        name = t.to_text()
        norm_rows.append((name, t.order, ob.l2_norm(), ob.sup_norm()))
        if t.order == 1:
            em.write_csv(f"tau_{name.replace(',', '_')}.csv", ["x1", "value"],
                         [centers, ob.values])
        elif t.order == 2:
            em.write_csv(f"tau_{name.replace(',', '_')}.csv", ["x1", "x2", "value"],
                         [np.repeat(centers, grid.n_cells), np.tile(centers, grid.n_cells),
                          ob.values.ravel()])
        else:
            em.write_lattice(f"tau_{name.replace(',', '_')}.bin", t.order, grid.n_cells, ob.values)
    em.write_csv("hierarchy_norms.csv", ["tree", "order", "l2", "sup"], list(zip(*norm_rows)))
    admissible, threshold = lambda_admissible(lam, w, mid, cfg.kernel, t_star=cfg.t_end)
    em.write_json("hierarchy_norm.json", {
        "lambda": lam, "n_max": n_max, "norm_truncated_lower_bound": hierarchy_norm(h),
        "lambda_admissible": admissible, "sqrt_lambda_threshold": threshold,
    })

    if len(res.snapshots) >= 3:
        # mid is the residual's middle snapshot: its tau values and velocity
        # are reused, not recomputed per tree
        vel = velocity(mid, w, cfg.kernel)
        rows = []
        for order in (1, 2):
            if order > n_max:
                continue
            for t in enumerate_trees(order):
                rep = hierarchy_residual(t, w, res.snapshots, cfg.kernel, nu=cfg.nu,
                                         tau1=h.observables[t].values, vel=vel)
                rows.append((t.to_text(), order, rep.value, rep.dt, rep.dx))
        em.write_csv("hierarchy_residuals.csv", ["tree", "order", "l1_residual", "dt", "dx"],
                     list(zip(*rows)))


def cmd_rearrange(cfg: ExperimentConfig, em: Emitter, seed: int):
    levels, cells = cfg.levels, cfg.cells
    rng = seeding.stream(seed, seeding.GRAPH, levels)
    vals = np.empty((levels, cells))
    for m in range(1, levels + 1):
        vals[m - 1] = rng.random(cells) * 2.0 ** (1 - m)
    vals = np.maximum(vals, 1e-12)
    g = CellFunctions(values=vals, mode="strict")
    phi = build_phi(g)
    save_permutation(phi, em.out_dir / "permutation.txt")
    em.register_file(em.out_dir / "permutation.txt")

    shifts = sorted({max(1, cells // (2**j)) for j in range(1, 14)})
    table = modulus(g, phi, shifts)
    rows = [(s, s / cells, m) for s, m in sorted(table.items())]
    em.write_csv("modulus.csv", ["shift_cells", "shift_fraction", "modulus"], list(zip(*rows)))
    em.write_json("modulus_fit.json", {
        "fitted_constant": fit_modulus_constant(table, cells),
        "note": "informational; acceptance uses the level bound 3*2^-k",
    })


def cmd_convergence(cfg: ExperimentConfig, em: Emitter, seed: int):
    """Independence gap at t_end over max(100, replicas) replicas, and the
    mean-field gap at each snapshot over the first max(2, replicas) of
    them; the `seeds` column of each CSV records the count used.

    One particle run and one solve feed both gaps (metrics.convergence_gaps).
    The reports are independence_gap's and meanfield_gap's bit for bit when
    every snapshot lies on the dt grid of [0, t_end] and t_end is the last
    snapshot, as in the README config; otherwise an off-grid snapshot
    changes the independence run's steps, and a last snapshot before t_end
    reads solve's nearest completed step.
    """
    w = cfg.build_weights(seed)
    indep, meanfield = convergence_gaps(
        w, cfg.kernel, cfg.build_laws(w.n_agents), cfg.grid, cfg.t_end, cfg.snapshots,
        cfg.dt or PARTICLE_DT, seed, n_replicas=max(100, cfg.replicas),
        n_seeds=max(2, cfg.replicas), sigma=cfg.sigma)
    em.write_csv("independence_gap.csv", ["t", "gap", "bound", "stderr", "seeds"],
                 _gap_columns([indep]))
    em.write_csv("meanfield_gap.csv", ["t", "gap", "bound", "stderr", "seeds"],
                 _gap_columns(meanfield))


COMMANDS = {
    "simulate": cmd_simulate,
    "solve": cmd_solve,
    "observe": cmd_observe,
    "rearrange": cmd_rearrange,
    "convergence": cmd_convergence,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="nxmf",
                                description="mean-field laboratory for sparse agent networks")
    sub = p.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="path to the JSON experiment config")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument("--out", default=None, help="override the output directory")
        sp.add_argument("--threads", type=int, default=None, help="recorded in the manifest for provenance only; no effect")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.from_file(args.config)
        seed, threads = cfg.seed, cfg.threads
        if args.seed is not None:
            seed = check_number(args.seed, "--seed", lo=0, hi=SEED_MAX, integer=True)
        if args.threads is not None:
            threads = check_number(args.threads, "--threads", lo=1, integer=True)
        em = Emitter(Path(args.out or cfg.out_dir))
    except (ValueError, OSError) as exc:     # ConfigError, an undecodable config, or an unusable path
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        COMMANDS[args.command](cfg, em, seed)
    except (ValueError, LatticeBudgetError) as exc:     # ConfigError is a ValueError
        print(f"bad input: [{args.command}] {' '.join(str(exc).splitlines())}", file=sys.stderr)
        return 2
    except (CFLError, StabilityError) as exc:
        print(f"numeric guard: [{args.command}] {exc}", file=sys.stderr)
        return 3
    em.manifest(cfg, args.command, seed, threads)
    return 0


if __name__ == "__main__":
    sys.exit(main())
