"""Experiment configuration: one JSON document drives every subcommand.

`ExperimentConfig.from_dict` parses the document once.  Each field is
checked, converted and defaulted in the one function that reads it, and
the config stores what the subcommands use: plain numbers, the built
kernel and grid, the sorted snapshot times, and builders for the weight
matrix and the initial laws.  Errors carry the dotted field path; JSON
syntax errors carry line and column.  The document itself is kept
untouched in `raw`, which round-trips losslessly through its canonical
text form (sorted keys, 17-digit floats).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .kernels import PRESETS, Domain, Kernel
from .metrics import AgentLawSpec
from .pde import Grid1D, _domain_mismatch
from .rearrange import n_pieces
from .weights import SparseWeights, gen_class_permutation, gen_from_graphon, gen_uniform, load_edge_list

SEED_MAX = 2**64 - 1       # the master seed is a 64-bit unsigned integer


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"config field '{path}': {message}")


def check_number(v, path: str, lo=None, hi=None, integer=False, positive=False):
    """`v` as a finite float, or as an int when `integer`, within the bounds;
    otherwise a ConfigError naming `path`."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(path, "must be a number")
    if not integer:
        try:
            v = float(v)
        except OverflowError:       # an integer literal beyond the float range
            raise ConfigError(path, "must be finite") from None
    if isinstance(v, float) and not math.isfinite(v):
        raise ConfigError(path, "must be finite")
    if integer and int(v) != v:
        raise ConfigError(path, "must be an integer")
    if lo is not None and v < lo:
        raise ConfigError(path, f"must be >= {lo}")
    if hi is not None and v > hi:
        raise ConfigError(path, f"must be <= {hi}")
    if positive and not v > 0:
        raise ConfigError(path, "must be > 0")
    return int(v) if integer else v


def _nonempty_list(v, path: str, what: str) -> list:
    if not isinstance(v, list) or not v:
        raise ConfigError(path, f"must be a non-empty list of {what}")
    return v


class _Fields:
    """One JSON object of the config, read field by field; a field with no
    default is required, and every error names the field's dotted path."""

    def __init__(self, d, path: str = ""):
        if not isinstance(d, dict):
            raise ConfigError(path, "must be an object")
        self.d, self.path = d, path

    def name(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def get(self, key: str, default=None):
        if key in self.d:
            return self.d[key]
        if default is None:
            raise ConfigError(self.name(key), "missing required field")
        return default

    def section(self, key: str, default=None) -> "_Fields":
        return _Fields(self.get(key, default), self.name(key))

    def number(self, key: str, default=None, **bounds):
        return check_number(self.get(key, default), self.name(key), **bounds)

    def of_type(self, key: str, kind: type, what: str, default=None):
        v = self.get(key, default)
        if not isinstance(v, kind):
            raise ConfigError(self.name(key), f"must be {what}")
        return v

    def choice(self, key: str, options, default=None) -> str:
        v = self.get(key, default)
        if v not in options:
            names = [repr(o) for o in options]
            raise ConfigError(self.name(key), f"must be {', '.join(names[:-1])} or {names[-1]}")
        return v


def _weights(g: _Fields) -> Callable[[int], SparseWeights]:
    """Check the graph section; return a builder of its weight matrix from
    the run's effective seed (only a bernoulli graph sample reads it)."""
    kind = g.choice("kind", ("uniform", "class_permutation", "graphon_product", "edge_list"))
    if kind == "edge_list":
        path = g.of_type("path", str, "a string")

        def load(seed: int):
            try:
                return load_edge_list(path)
            except (OSError, ValueError) as exc:
                raise ConfigError(g.name("path"), f"cannot load edge list: {exc}") from exc
        return load
    n = g.number("n", lo=1, integer=True)
    if kind == "uniform":
        w_bar = g.number("w_bar", default=1.0)
        diagonal = g.of_type("include_diagonal", bool, "true or false", default=False)
        return lambda seed: gen_uniform(n, w_bar, diagonal)
    if kind == "graphon_product":
        scale = g.number("scale", default=1.0)
        mode = g.choice("mode", ("midpoint", "bernoulli"), default="midpoint")
        return lambda seed: gen_from_graphon(n, lambda x, z: scale * x * z, rng_seed=seed,
                                             mode=mode)
    m = g.number("m", lo=1, integer=True)
    if n % m != 0:
        raise ConfigError(g.name("m"), f"must divide n={n}")
    n_cls = n // m
    perm = g.get("perm", "identity")
    if perm == "identity":
        perm = list(range(1, n_cls + 1))
    elif perm == "cycle":
        perm = [k % n_cls + 1 for k in range(1, n_cls + 1)]
    elif not (isinstance(perm, list) and all(type(p) is int for p in perm)
              and sorted(perm) == list(range(1, n_cls + 1))):
        raise ConfigError(g.name("perm"), f"must be 'identity', 'cycle' or a bijection on 1..{n_cls}")
    return lambda seed: gen_class_permutation(n, m, perm)


def _laws(ik: _Fields) -> Callable[[int], AgentLawSpec]:
    """Check the init section; return a builder of the initial laws of n agents."""
    if ik.choice("kind", ("spread", "fibers"), default="spread") == "spread":
        lo, hi = ik.number("mean_lo"), ik.number("mean_hi")
        std = ik.number("std", positive=True)
        return lambda n: AgentLawSpec.spread(n, lo, hi, std)
    mixes = []
    for i, mix in enumerate(_nonempty_list(ik.get("fibers"), ik.name("fibers"), "mixtures")):
        path = f"{ik.name('fibers')}[{i}]"
        comps = [_Fields(c, f"{path}[{j}]")
                 for j, c in enumerate(_nonempty_list(mix, path, "components"))]
        mixes.append([(c.number("mean"), c.number("std", positive=True),
                       c.number("weight", lo=0.0, default=1.0)) for c in comps])

    def build(n: int) -> AgentLawSpec:
        if len(mixes) != n:
            raise ConfigError(ik.name("fibers"), f"expected {n} fibers, got {len(mixes)}")
        n_comp = max(map(len, mixes))
        means, stds, weights = np.zeros((n, n_comp)), np.ones((n, n_comp)), np.zeros((n, n_comp))
        for i, mix in enumerate(mixes):
            for j, comp in enumerate(mix):
                means[i, j], stds[i, j], weights[i, j] = comp
        return AgentLawSpec(means=means, stds=stds, weights=weights)
    return build


def _kernel(kr: _Fields) -> Kernel:
    if kr.get("preset") == "hodgkin_huxley":
        raise ConfigError(kr.name("preset"), "hodgkin_huxley is particle-only and needs "
                          "programmatic rate functions; use the library API")
    preset = kr.choice("preset", [p for p in PRESETS if p != "hodgkin_huxley"])
    params = {k: check_number(v, kr.name(k)) for k, v in kr.d.items() if k != "preset"}
    try:
        return PRESETS[preset](**params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(kr.path, str(exc)) from exc


def _grid(gr: _Fields, domain: Domain) -> Grid1D:
    """Check the grid section against the kernel's domain: the particles
    live on that domain, so the fibers must be solved on the same one."""
    x_min, x_max = gr.number("x_min"), gr.number("x_max")
    if x_max <= x_min:
        raise ConfigError(gr.name("x_max"), f"must exceed {gr.name('x_min')}")
    cells = gr.number("cells", lo=8, integer=True)
    grid = Grid1D(x_min, x_max, cells, gr.choice("topology", ("line", "torus"), default="line"))
    bad = _domain_mismatch(grid, domain)
    if bad is not None:
        raise ConfigError(gr.name(bad[0]), bad[1])
    return grid


def _snapshots(tm: _Fields, t_end: float) -> list[float]:
    path = tm.name("snapshots")
    snaps = [check_number(s, f"{path}[{i}]", lo=0.0, hi=t_end)
             for i, s in enumerate(_nonempty_list(tm.get("snapshots", [t_end]), path, "times"))]
    if len(set(snaps)) < len(snaps):
        raise ConfigError(path, "must not repeat a time")
    return sorted(snaps)


def _cells(ra: _Fields, levels: int) -> int:
    pieces = n_pieces(levels)
    # default: the largest multiple of the piece count up to 4096 cells,
    # or one cell per piece when the pieces are more
    cells = ra.number("cells", lo=2, integer=True, default=pieces * max(1, 4096 // pieces))
    if cells % pieces != 0:
        raise ConfigError(ra.name("cells"),
                          f"must be a multiple of 2^(levels(levels+1)/2) = {pieces}")
    return cells


@dataclass
class ExperimentConfig:
    """A parsed config.  `raw` is the document as read; the other fields are
    its checked values, with every default applied."""

    raw: dict = field(repr=False)
    build_weights: Callable[[int], SparseWeights] = field(repr=False)
    build_laws: Callable[[int], AgentLawSpec] = field(repr=False)
    kernel: Kernel
    grid: Grid1D
    t_end: float
    snapshots: list[float]     # sorted; [t_end] when absent
    dt: float | None           # None when absent
    nu: float
    sigma: float
    seed: int
    replicas: int
    threads: int
    n_max: int
    lam: float
    levels: int
    cells: int
    binary_density: bool
    out_dir: str

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
        top = _Fields(raw)
        seed = top.number("seed", lo=0, hi=SEED_MAX, default=0, integer=True)
        tm = top.section("time", {"t_end": 1.0})
        t_end = tm.number("t_end", lo=0.0)
        ob = top.section("observables", {})
        ra = top.section("rearrange", {})
        levels = ra.number("levels", lo=1, hi=6, default=3, integer=True)
        kernel = _kernel(top.section("kernel"))
        return cls(
            raw=raw,
            build_weights=_weights(top.section("graph")),
            build_laws=_laws(top.section("init", {"mean_lo": -1.0, "mean_hi": 1.0, "std": 0.5})),
            kernel=kernel,
            grid=_grid(top.section("grid", {"x_min": -6.0, "x_max": 6.0, "cells": 128}),
                       kernel.domain),
            t_end=t_end,
            snapshots=_snapshots(tm, t_end),
            dt=tm.number("dt", positive=True) if "dt" in tm.d else None,
            nu=top.number("nu", lo=0.0, default=0.0),
            sigma=top.number("sigma", lo=0.0, default=0.0),
            seed=seed,
            replicas=top.number("replicas", lo=1, default=1, integer=True),
            threads=top.number("threads", lo=1, default=1, integer=True),
            n_max=ob.number("n_max", lo=1, hi=4, default=2, integer=True),
            lam=ob.number("lambda", default=1.0, positive=True),
            levels=levels,
            cells=_cells(ra, levels),
            binary_density=top.section("output", {}).of_type("binary_density", bool,
                                                             "true or false", default=False),
            out_dir=top.of_type("out_dir", str, "a string", default="out"),
        )

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
