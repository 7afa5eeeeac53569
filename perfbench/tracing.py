"""Span tracing for the benchmark's traced run, from outside the package.

`Tracer.install` wraps the public functions of each layer module at the
names their callers resolve: module attributes such as
`nxmf.metrics.drift_batch`, `nxmf.pde.kernel_apply` or `nxmf.cli.solve`,
the `cli.COMMANDS` table, the kernel presets (whose kernels get a traced
`eval` through `dataclasses.replace`) and the `cli.Emitter` writers.  No
file of the package changes.

Each call records a span (name, start, end, parent) in memory, and a few
wrappers also count the work the call did.  A span's self time is its
duration minus the durations of its children; in a single thread children
never overlap, so that is also the part of the interval they cover.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

LAYER_MODULES = ("particles", "weights", "pde", "seeding", "metrics", "observables",
                 "rearrange", "cli")
UNMEASURED = {     # traced once to check: each is well under 0.1% of any operation
    "trees": "only enumerate_trees on orders 1 and 2, about 0.1 ms per cli_readme operation",
    "config": "one small JSON config per CLI invocation, about 2 ms per cli_readme operation",
}
NOT_LAYERS = {"cli.main"}          # the benchmark's own operation, not a layer
EMIT_METHODS = ("register_file", "write_text", "write_csv", "write_json", "write_lattice",
                "write_density_bin", "manifest")
ROOT_SPAN = "op"


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _count_drift_batch(tr, args, kwargs, result):
    w, pos = _arg(args, kwargs, 0, "w"), _arg(args, kwargs, 2, "positions")
    pairs = pos.shape[0] * w.nnz
    tr.counters["drift_batch.pairs"] += pairs
    tr.counters["drift_batch.rows"] += pos.shape[0]
    tr.counters["drift_batch.scratch_bytes"] = max(tr.counters["drift_batch.scratch_bytes"],
                                                   8 * pairs)


def _count_drift(tr, args, kwargs, result):
    tr.counters["drift.pairs"] += _arg(args, kwargs, 0, "w").nnz


def _count_check_scaling(tr, args, kwargs, result):
    w = _arg(args, kwargs, 0, "w")
    tr.distinct.setdefault(id(w), w)          # holding w keeps its id unique
    tr.counters["check_scaling.distinct"] = len(tr.distinct)


def _count_solve(tr, args, kwargs, result):
    f0 = _arg(args, kwargs, 0, "f0")
    tr.counters["solve.steps"] += result.n_steps
    tr.counters["solve.cell_steps"] += f0.n_fibers * f0.grid.n_cells * result.n_steps


def _count_tau(tr, args, kwargs, result):
    t, f = _arg(args, kwargs, 0, "t"), _arg(args, kwargs, 2, "f")
    tr.counters["tau.lattice_entries"] += f.n_fibers * f.grid.n_cells ** t.order


def _count_emit(tr, args, kwargs, result):
    tr.counters["emit.bytes"] += Path(_arg(args, kwargs, 1, "path")).stat().st_size


COUNTERS = {
    "particles.drift_batch": _count_drift_batch,
    "particles.drift": _count_drift,
    "weights.check_scaling": _count_check_scaling,
    "pde.solve": _count_solve,
    "observables.tau": _count_tau,
}


@dataclass
class OpStats:
    """Per-name totals over the spans of one traced operation."""

    coverage: float              # share of the operation covered by its child spans
    calls: dict
    self_s: dict
    incl_s: dict
    counters: dict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.counters: Counter = Counter()
        self.distinct: dict = {}
        self.ops: list[OpStats] = []
        self._undo: list = []

    def _open(self, name: str) -> int:
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.current)
        self.end.append(0.0)
        self.current = idx
        self.start.append(perf_counter())
        return idx

    def wrap(self, name: str, fn, count=None):
        """`fn` recording one span per call, and its counters on success."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.current
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self.current = parent
            if count is not None:
                count(self, args, kwargs, result)
            return result
        return traced

    def traced_kernel(self, k):
        return dataclasses.replace(k, eval=self.wrap("kernels.eval", k.eval))

    def traced_inputs(self, inputs):
        """Workload inputs with their kernel, if they carry one, traced."""
        if any(f.name == "kernel" for f in dataclasses.fields(inputs)):
            return dataclasses.replace(inputs, kernel=self.traced_kernel(inputs.kernel))
        return inputs

    # ---- patching --------------------------------------------------------

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._undo.append((owner.__setitem__, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((functools.partial(setattr, owner), key, vars(owner)[key]))
            setattr(owner, key, value)

    def _traced_preset(self, preset):
        @functools.wraps(preset)
        def build(*args, **kwargs):
            return self.traced_kernel(preset(*args, **kwargs))
        return build

    def install(self):
        from nxmf import cli, kernels

        wrapped = {}
        for short in LAYER_MODULES:
            mod = sys.modules[f"nxmf.{short}"]
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in NOT_LAYERS):
                    wrapped[obj] = self.wrap(name, obj, COUNTERS.get(name))
        for command, fn in cli.COMMANDS.items():
            wrapped[fn] = self.wrap(f"cli.{command}", fn)

        modules = [m for n, m in sorted(sys.modules.items()) if n == "nxmf" or n.startswith("nxmf.")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])
        for command, fn in list(cli.COMMANDS.items()):
            self._set(cli.COMMANDS, command, wrapped[fn])
        for preset, fn in list(kernels.PRESETS.items()):
            self._set(kernels.PRESETS, preset, self._traced_preset(fn))
        for meth in EMIT_METHODS:
            count = _count_emit if meth == "register_file" else None
            self._set(cli.Emitter, meth, self.wrap("cli.emit", vars(cli.Emitter)[meth], count))

    def uninstall(self):
        while self._undo:
            restore, key, original = self._undo.pop()
            restore(key, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # ---- operations ------------------------------------------------------

    @contextmanager
    def op(self):
        """Root span of one operation; its statistics land in `self.ops`."""
        self.counters = Counter()
        self.distinct = {}
        root = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self.end[root] = perf_counter()
            self.current = -1
            self.ops.append(self._aggregate(root))

    def _aggregate(self, root: int) -> OpStats:
        n = len(self.start)
        ids = np.frombuffer(self.name_id[root:n], dtype=np.int32)
        parent = np.frombuffer(self.parent[root:n], dtype=np.int32) - root
        dur = np.frombuffer(self.end[root:n], dtype=np.float64) - \
            np.frombuffer(self.start[root:n], dtype=np.float64)
        inner = parent >= 0
        children = np.bincount(parent[inner], weights=dur[inner], minlength=dur.size)
        own = dur - children
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        own_by = np.bincount(ids, weights=own, minlength=k)
        incl_by = np.bincount(ids, weights=dur, minlength=k)
        seen = np.flatnonzero(calls)
        return OpStats(
            coverage=float(dur[parent == 0].sum() / dur[0]),
            calls={self.names[i]: int(calls[i]) for i in seen},
            self_s={self.names[i]: float(own_by[i]) for i in seen},
            incl_s={self.names[i]: float(incl_by[i]) for i in seen},
            counters=dict(self.counters),
        )

    def save(self, path: Path):
        """Write every recorded span: names, and per span its name index,
        parent index (-1 for none), start and end in perf_counter seconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64))
