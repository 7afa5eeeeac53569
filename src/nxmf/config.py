"""Experiment configuration: one JSON document drives every subcommand.

The document is key/value with nesting and round-trips losslessly through
its canonical text form (sorted keys, 17-digit floats).  Validation errors
carry the dotted field path; JSON syntax errors already carry line/column.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .kernels import PRESETS, Kernel
from .metrics import AgentLawSpec
from .pde import Grid1D
from .weights import SparseWeights, gen_class_permutation, gen_from_graphon, gen_uniform, load_edge_list


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"config field '{path}': {message}")


def _need(d: dict, key: str, path: str):
    if key not in d:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
    return d[key]


def _typed(value, types, path, what):
    if not isinstance(value, types):
        raise ConfigError(path, f"must be {what}")
    return value


def _number(d, key, path, lo=None, hi=None, default=None, integer=False):
    field_path = f"{path}.{key}" if path else key
    if key not in d:
        if default is not None:
            return default
        raise ConfigError(field_path, "missing required field")
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(field_path, "must be a number")
    if not integer:
        try:
            v = float(v)
        except OverflowError:       # an integer literal beyond the float range
            raise ConfigError(field_path, "must be finite") from None
    if isinstance(v, float) and not math.isfinite(v):
        raise ConfigError(field_path, "must be finite")
    if integer and int(v) != v:
        raise ConfigError(field_path, "must be an integer")
    if lo is not None and v < lo:
        raise ConfigError(field_path, f"must be >= {lo}")
    if hi is not None and v > hi:
        raise ConfigError(field_path, f"must be <= {hi}")
    return int(v) if integer else v


@dataclass
class ExperimentConfig:
    raw: dict = field(repr=False)
    graph: dict
    kernel: dict
    init: dict
    grid: dict
    time: dict
    nu: float
    sigma: float
    seed: int
    replicas: int
    observables: dict
    rearrange: dict
    out_dir: str
    threads: int = 1

    # ---- construction -------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"line {exc.lineno}, column {exc.colno}", exc.msg) from exc
        if not isinstance(raw, dict):
            raise ConfigError("", "top level must be an object")
        return cls.from_dict(raw)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_text(fh.read())

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        graph = _typed(_need(raw, "graph", ""), dict, "graph", "an object")
        kernel = _typed(_need(raw, "kernel", ""), dict, "kernel", "an object")
        init = _typed(raw.get("init", {"kind": "spread", "mean_lo": -1.0, "mean_hi": 1.0, "std": 0.5}),
                      dict, "init", "an object")
        grid = _typed(raw.get("grid", {"x_min": -6.0, "x_max": 6.0, "cells": 128,
                                       "topology": "line"}), dict, "grid", "an object")
        time = _typed(raw.get("time", {"t_end": 1.0, "snapshots": [1.0]}), dict, "time", "an object")
        cfg = cls(
            raw=raw,
            graph=graph,
            kernel=kernel,
            init=init,
            grid=grid,
            time=time,
            nu=_number(raw, "nu", "", lo=0.0, default=0.0),
            sigma=_number(raw, "sigma", "", lo=0.0, default=0.0),
            seed=_number(raw, "seed", "", lo=0, default=0, integer=True),
            replicas=_number(raw, "replicas", "", lo=1, default=1, integer=True),
            observables=_typed(raw.get("observables", {"n_max": 2, "lambda": 1.0}),
                               dict, "observables", "an object"),
            rearrange=_typed(raw.get("rearrange", {}), dict, "rearrange", "an object"),
            out_dir=raw.get("out_dir", "out"),
            threads=_number(raw, "threads", "", lo=1, default=1, integer=True),
        )
        cfg.validate()
        return cfg

    # ---- validation ----------------------------------------------------

    def validate(self):
        g = self.graph
        kind = _need(g, "kind", "graph")
        if kind not in ("uniform", "class_permutation", "graphon_product", "edge_list"):
            raise ConfigError("graph.kind", f"unknown generator {kind!r}")
        if kind in ("uniform", "class_permutation", "graphon_product"):
            _number(g, "n", "graph", lo=1, integer=True)
        if kind == "uniform":
            _number(g, "w_bar", "graph", default=1.0)
        if kind == "graphon_product":
            _number(g, "scale", "graph", default=1.0)
        if kind == "class_permutation":
            n = _number(g, "n", "graph", lo=1, integer=True)
            m = _number(g, "m", "graph", lo=1, integer=True)
            if n % m != 0:
                raise ConfigError("graph.m", f"must divide n={n}")
            perm = g.get("perm", "identity")
            if isinstance(perm, str):
                if perm not in ("identity", "cycle"):
                    raise ConfigError("graph.perm", "must be 'identity', 'cycle' or a list")
            elif isinstance(perm, list):
                if sorted(perm) != list(range(1, n // m + 1)):
                    raise ConfigError("graph.perm", f"must be a bijection on 1..{n // m}")
            else:
                raise ConfigError("graph.perm", "must be 'identity', 'cycle' or a list")
        if kind == "edge_list":
            _need(g, "path", "graph")

        kr = self.kernel
        preset = _need(kr, "preset", "kernel")
        if preset not in PRESETS:
            raise ConfigError("kernel.preset", f"unknown preset {preset!r}; "
                              f"known: {sorted(PRESETS)}")
        if preset == "hodgkin_huxley":
            raise ConfigError("kernel.preset",
                              "hodgkin_huxley is particle-only and needs programmatic "
                              "rate functions; use the library API")
        try:
            self.build_kernel()
        except (TypeError, ValueError) as exc:
            raise ConfigError("kernel", str(exc)) from exc

        ik = self.init
        ikind = ik.get("kind", "spread")
        if ikind == "spread":
            _number(ik, "mean_lo", "init")
            _number(ik, "mean_hi", "init")
            if _number(ik, "std", "init", lo=0.0) <= 0:
                raise ConfigError("init.std", "must be > 0")
        elif ikind == "fibers":
            fl = ik.get("fibers")
            if not isinstance(fl, list) or not fl:
                raise ConfigError("init.fibers", "must be a non-empty list of mixtures")
            for i, mix in enumerate(fl):
                if not isinstance(mix, list) or not mix:
                    raise ConfigError(f"init.fibers[{i}]", "must be a non-empty list of components")
                for j, comp in enumerate(mix):
                    _number(comp, "mean", f"init.fibers[{i}][{j}]")
                    if _number(comp, "std", f"init.fibers[{i}][{j}]", lo=0.0) <= 0:
                        raise ConfigError(f"init.fibers[{i}][{j}].std", "must be > 0")
                    _number(comp, "weight", f"init.fibers[{i}][{j}]", lo=0.0, default=1.0)
        else:
            raise ConfigError("init.kind", "must be 'spread' or 'fibers'")

        gr = self.grid
        _number(gr, "x_min", "grid")
        _number(gr, "x_max", "grid")
        if gr["x_max"] <= gr["x_min"]:
            raise ConfigError("grid.x_max", "must exceed grid.x_min")
        _number(gr, "cells", "grid", lo=8, integer=True)
        if gr.get("topology", "line") not in ("line", "torus"):
            raise ConfigError("grid.topology", "must be 'line' or 'torus'")

        tm = self.time
        t_end = _number(tm, "t_end", "time", lo=0.0)
        snaps = tm.get("snapshots", [t_end])
        if not isinstance(snaps, list):
            raise ConfigError("time.snapshots", "must be a list of times")
        for i, s in enumerate(snaps):
            if isinstance(s, bool) or not isinstance(s, (int, float)):
                raise ConfigError(f"time.snapshots[{i}]", "must be a number")
            if not 0 <= s <= t_end:        # also rejects NaN
                raise ConfigError(f"time.snapshots[{i}]", "must lie in [0, t_end]")
        if len(set(snaps)) < len(snaps):
            raise ConfigError("time.snapshots", "must not repeat a time")
        if "dt" in tm and _number(tm, "dt", "time", lo=0.0) <= 0:
            raise ConfigError("time.dt", "must be > 0")

        ob = self.observables
        _number(ob, "n_max", "observables", lo=1, hi=4, integer=True, default=2)
        if _number(ob, "lambda", "observables", lo=0.0, default=1.0) <= 0:
            raise ConfigError("observables.lambda", "must be > 0")

        ra = self.rearrange
        if ra:
            levels = _number(ra, "levels", "rearrange", lo=1, hi=6, integer=True, default=3)
            cells = _number(ra, "cells", "rearrange", lo=2, integer=True, default=0)
            if cells:
                pieces = 1 << (levels * (levels + 1) // 2)
                if cells % pieces != 0:
                    raise ConfigError("rearrange.cells",
                                      f"must be a multiple of 2^(levels(levels+1)/2) = {pieces}")

    # ---- realized objects ----------------------------------------------

    def build_weights(self) -> SparseWeights:
        g = self.graph
        kind = g["kind"]
        if kind == "uniform":
            return gen_uniform(int(g["n"]), float(g.get("w_bar", 1.0)),
                               bool(g.get("include_diagonal", False)))
        if kind == "class_permutation":
            n, m = int(g["n"]), int(g["m"])
            perm = g.get("perm", "identity")
            n_cls = n // m
            if perm == "identity":
                perm = list(range(1, n_cls + 1))
            elif perm == "cycle":
                perm = [k % n_cls + 1 for k in range(1, n_cls + 1)]
            return gen_class_permutation(n, m, perm)
        if kind == "graphon_product":
            scale = float(g.get("scale", 1.0))
            return gen_from_graphon(int(g["n"]), lambda x, z: scale * x * z,
                                    rng_seed=self.seed, mode=g.get("mode", "midpoint"))
        return load_edge_list(g["path"])

    def build_kernel(self) -> Kernel:
        kr = dict(self.kernel)
        preset = kr.pop("preset")
        return PRESETS[preset](**{k: v for k, v in kr.items()})

    def build_grid(self) -> Grid1D:
        gr = self.grid
        return Grid1D(float(gr["x_min"]), float(gr["x_max"]), int(gr["cells"]),
                      gr.get("topology", "line"))

    def build_laws(self, n: int) -> AgentLawSpec:
        ik = self.init
        if ik.get("kind", "spread") == "spread":
            return AgentLawSpec.spread(n, float(ik["mean_lo"]), float(ik["mean_hi"]),
                                       float(ik["std"]))
        fibers = ik["fibers"]
        if len(fibers) != n:
            raise ConfigError("init.fibers", f"expected {n} fibers, got {len(fibers)}")
        n_comp = max(len(mix) for mix in fibers)
        means = np.zeros((n, n_comp))
        stds = np.ones((n, n_comp))
        weights = np.zeros((n, n_comp))
        for i, mix in enumerate(fibers):
            for j, comp in enumerate(mix):
                means[i, j] = comp["mean"]
                stds[i, j] = comp["std"]
                weights[i, j] = comp.get("weight", 1.0)
        return AgentLawSpec(means=means, stds=stds, weights=weights)

    # ---- canonical text -------------------------------------------------

    def to_text(self) -> str:
        return canonical_json(self.raw)


def canonical_json(obj: Any) -> str:
    """Sorted-key JSON with round-trippable floats."""

    def enc(o):
        if isinstance(o, float):
            return float(f"{o:.17g}")
        if isinstance(o, dict):
            return {k: enc(v) for k, v in o.items()}
        if isinstance(o, list):
            return [enc(v) for v in o]
        return o

    return json.dumps(enc(obj), sort_keys=True, indent=2) + "\n"
