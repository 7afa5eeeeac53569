import copy
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nxmf import Law1D, c1, check_scaling, cli, integrate, marginal, metrics, seeding, solve, w1
from nxmf.cli import main
from nxmf.config import ConfigError, ExperimentConfig, canonical_json

GOLDEN = {
    "graph": {"kind": "class_permutation", "n": 8, "m": 2, "perm": "cycle"},
    "kernel": {"preset": "linear_attraction", "amplitude": 1.0},
    "init": {"kind": "spread", "mean_lo": -1.0, "mean_hi": 1.0, "std": 0.5},
    "grid": {"x_min": -6.0, "x_max": 6.0, "cells": 64, "topology": "line"},
    "time": {"t_end": 0.1, "snapshots": [0.0, 0.05, 0.1], "dt": 0.02},
    "nu": 0.0,
    "sigma": 0.0,
    "seed": 7,
    "replicas": 120,
    "observables": {"n_max": 2, "lambda": 1.0},
    "rearrange": {"levels": 2, "cells": 64},
    "out_dir": "out",
}


def _short_repr(v) -> str:
    r = repr(v)
    return r if len(r) <= 60 else f"{r[:12]}...<{len(r)} chars>"


def mutate(path, value, base=GOLDEN):
    """Return a deep copy of the golden config with one field replaced."""
    doc = copy.deepcopy(base)
    node = doc
    *keys, last = path.split(".")
    for k in keys:
        node = node[k]
    if value is ...:
        del node[last]
    else:
        node[last] = value
    return doc


# field-level mutations that must each be rejected with a ConfigError
BAD_MUTATIONS = [
    ("graph", ...),
    ("graph.kind", "erdos"),
    ("graph.kind", 17),
    ("graph.kind", ...),
    ("graph.n", 0),
    ("graph.n", -4),
    ("graph.n", 2.5),
    ("graph.n", "8"),
    ("graph.n", ...),
    ("graph.m", 3),          # does not divide n
    ("graph.m", 0),
    ("graph.m", ...),
    ("graph.perm", [1, 1, 2, 3]),
    ("graph.perm", [0, 1, 2, 3]),
    ("graph.perm", "random"),
    ("graph.perm", 5),
    ("kernel", ...),
    ("kernel.preset", "unknown"),
    ("kernel.preset", ...),
    ("kernel.preset", "hodgkin_huxley"),
    ("kernel.amplitude", "big"),
    ("init.kind", "pointcloud"),
    ("init.mean_lo", "left"),
    ("init.mean_lo", ...),
    ("init.mean_hi", ...),
    ("init.std", 0.0),
    ("init.std", -1.0),
    ("init.std", ...),
    ("init.std", -math.inf),
    ("grid.x_min", "a"),
    ("grid.x_min", 7.0),     # exceeds x_max
    ("grid.x_max", -7.0),
    ("grid.x_min", ...),
    ("grid.cells", 4),
    ("grid.cells", 64.5),
    ("grid.cells", ...),
    ("grid.topology", "sphere"),
    ("time.t_end", -1.0),
    ("time.t_end", "later"),
    ("time.t_end", ...),
    ("time.t_end", math.inf),
    ("time.snapshots", 0.5),
    ("time.snapshots", [0.2]),      # beyond t_end
    ("time.snapshots", [-0.1]),
    ("time.snapshots", ["now"]),
    ("time.snapshots", [0.0, math.nan]),
    ("time.snapshots", [0.0, 0.05, 0.05, 0.1]),     # a repeated time
    ("time.dt", 0.0),
    ("time.dt", -0.5),
    ("nu", -0.1),
    ("nu", "thick"),
    ("nu", math.nan),
    ("nu", 10**400),         # an integer literal beyond the float range
    ("graph", {"kind": "uniform", "n": 8, "w_bar": math.nan}),
    ("graph", {"kind": "uniform", "n": 8, "w_bar": -math.inf}),
    ("graph", {"kind": "uniform", "n": 8, "w_bar": 10**400}),
    ("graph", {"kind": "uniform", "n": 8, "w_bar": "heavy"}),
    ("graph", {"kind": "graphon_product", "n": 8, "scale": math.inf}),
    ("graph", {"kind": "graphon_product", "n": 8, "scale": math.nan}),
    ("sigma", -1.0),
    ("seed", -3),
    ("seed", 1.5),
    ("replicas", 0),
    ("observables.n_max", 0),
    ("observables.n_max", 5),
    ("observables.lambda", 0.0),
    ("observables.lambda", -2.0),
    ("rearrange.levels", 0),
    ("rearrange.levels", 9),
    ("rearrange.cells", 1),
    ("rearrange.cells", 65),   # not a multiple of the level-2 piece count
    ("graph", {"kind": "uniform", "n": 8, "include_diagonal": "false"}),
    ("graph", {"kind": "graphon_product", "n": 8, "mode": "exact"}),
    ("graph", {"kind": "edge_list", "path": 5}),
    ("graph.perm", ["a", 1, 2, 3]),
    ("kernel.preset", ["kuramoto"]),
    ("grid.topology", "torus"),      # a line kernel on a torus grid
    ("kernel", {"preset": "kuramoto"}),   # a torus kernel on a line grid
    ("kernel.amplitude", 10**400),
    ("init", {"kind": "fibers", "fibers": [[5]]}),
    ("time.snapshots", []),
    ("output", {"binary_density": "no"}),
    ("output", 5),
    ("out_dir", 5),
    ("seed", 2**64),
]


# the golden config with the Kuramoto kernel on its torus
TORUS = {**GOLDEN, "kernel": {"preset": "kuramoto", "coupling": 1.0},
         "grid": {"x_min": 0.0, "x_max": 2 * math.pi, "cells": 64, "topology": "torus"}}

# mutations of TORUS that must each be rejected, with the field they name
BAD_TORUS_MUTATIONS = [
    ("grid.topology", "line", "grid.topology"),
    ("grid.x_max", 6.0, "grid.x_max"),              # the torus is not the kernel's period
    ("grid.x_min", -math.pi, "grid.x_max"),
    ("grid.x_max", 2 * math.pi * (1 + 1e-11), "grid.x_max"),
    ("kernel.period", 3.0, "kernel"),               # kuramoto's period is 2 pi
]


# the golden config with each graph kind and with fiber initial laws
GRAPH_VARIANTS = {
    "class_permutation": GOLDEN,
    "uniform": {**GOLDEN, "graph": {"kind": "uniform", "n": 8, "w_bar": 1.0,
                                    "include_diagonal": False}},
    "graphon_product": {**GOLDEN, "graph": {"kind": "graphon_product", "n": 8, "scale": 1.0,
                                            "mode": "midpoint"}},
    "edge_list": {**GOLDEN, "graph": {"kind": "edge_list", "path": "edges.txt"}},
    "fibers": {**GOLDEN, "output": {"binary_density": True},
               "init": {"kind": "fibers", "fibers": [[{"mean": 0.0, "std": 1.0, "weight": 1.0}]]}},
    "torus": TORUS,
}


def _field_paths(doc, prefix=""):
    for key, value in doc.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _field_paths(value, f"{prefix}{key}.")


FIELD_PATHS = {name: sorted(_field_paths(doc)) + ["threads", "output"]
               for name, doc in GRAPH_VARIANTS.items()}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**63)
    | st.floats() | st.text(max_size=4) | st.sampled_from(["cycle", "identity", "bernoulli", "torus"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)


class TestConfig:
    def test_golden_loads(self):
        cfg = ExperimentConfig.from_dict(copy.deepcopy(GOLDEN))
        assert cfg.seed == 7
        assert cfg.build_weights(cfg.seed).n_agents == 8
        assert cfg.kernel.name == "linear_attraction"
        assert cfg.grid.n_cells == 64
        assert cfg.build_laws(8).n_agents == 8

    @pytest.mark.parametrize("mode", ["midpoint", "bernoulli"])
    def test_graphon_product_matches_per_cell_evaluation(self, mode):
        # the graphon is called once on the midpoint arrays; the reference
        # calls it once per cell on Python floats
        n, scale, seed = 7, 0.75, 3
        doc = mutate("graph", {"kind": "graphon_product", "n": n, "scale": scale, "mode": mode})
        w = ExperimentConfig.from_dict(doc).build_weights(seed)
        pts = [(i + 0.5) / n for i in range(n)]
        g = np.array([[scale * x * z for z in pts] for x in pts])
        if mode == "midpoint":
            ref = g / n
        else:
            draws = seeding.stream(seed, seeding.GRAPH).random((n, n))
            ref = np.where(draws < np.clip(g, 0.0, 1.0), 1.0 / n, 0.0)
        assert np.array_equal(w.to_dense().view(np.uint64), ref.view(np.uint64))

    def test_text_round_trip_lossless(self):
        cfg = ExperimentConfig.from_dict(copy.deepcopy(GOLDEN))
        text1 = cfg.to_text()
        cfg2 = ExperimentConfig.from_text(text1)
        assert cfg2.to_text() == text1
        assert json.loads(text1) == json.loads(canonical_json(GOLDEN))

    def test_fuzz_corpus_size(self):
        assert len(BAD_MUTATIONS) >= 50

    @pytest.mark.parametrize("path,value", BAD_MUTATIONS,
                             ids=[f"{p}={_short_repr(v)}" for p, v in BAD_MUTATIONS])
    def test_mutations_rejected(self, path, value):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(mutate(path, value))

    @pytest.mark.parametrize("path,value,field", BAD_TORUS_MUTATIONS,
                             ids=[f"{p}={_short_repr(v)}" for p, v, _ in BAD_TORUS_MUTATIONS])
    def test_torus_mutations_rejected(self, path, value, field):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(mutate(path, value, base=TORUS))
        assert exc.value.path == field

    @pytest.mark.parametrize("path,value", [("grid.topology", "torus"),
                                            ("kernel", {"preset": "kuramoto"})])
    def test_domain_mismatch_names_topology(self, path, value):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(mutate(path, value))
        assert exc.value.path == "grid.topology"

    def test_shifted_torus_rejected(self):
        # the period is right, but the particles wrap onto [0, 2 pi)
        doc = copy.deepcopy(TORUS)
        doc["grid"].update(x_min=math.pi, x_max=3 * math.pi)
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(doc)
        assert exc.value.path == "grid.x_min"

    def test_torus_loads(self):
        cfg = ExperimentConfig.from_dict(copy.deepcopy(TORUS))
        assert (cfg.kernel.name, cfg.grid.topology) == ("kuramoto", "torus")

    def test_syntax_error_carries_position(self):
        with pytest.raises(ConfigError, match="line"):
            ExperimentConfig.from_text('{"graph": }')

    def test_error_carries_field_path(self):
        with pytest.raises(ConfigError, match="graph.m"):
            ExperimentConfig.from_dict(mutate("graph.m", 3))

    def test_fiber_init_list(self):
        doc = copy.deepcopy(GOLDEN)
        doc["graph"] = {"kind": "uniform", "n": 2, "w_bar": 1.0}
        doc["init"] = {"kind": "fibers", "fibers": [
            [{"mean": -1.0, "std": 0.4, "weight": 1.0}],
            [{"mean": 0.5, "std": 0.3, "weight": 0.7}, {"mean": 2.0, "std": 0.2, "weight": 0.3}],
        ]}
        cfg = ExperimentConfig.from_dict(doc)
        laws = cfg.build_laws(2)
        assert laws.means[1, 1] == 2.0

    def test_readme_example_config(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        text = readme.split("```json\n", 1)[1].split("```", 1)[0]
        assert json.loads(text) == README_CONFIG
        cfg = ExperimentConfig.from_text(text)
        assert (cfg.t_end, cfg.snapshots, cfg.dt, cfg.n_max, cfg.lam, cfg.levels, cfg.cells) == \
            (1.0, [0.0, 0.5, 1.0], 0.02, 2, 1.0, 3, 4096)
        assert (cfg.kernel.name, cfg.grid.n_cells, cfg.build_weights(cfg.seed).n_agents) == \
            ("linear_attraction", 256, 64)
        assert (cfg.seed, cfg.binary_density, cfg.out_dir) == (7, False, "out")

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_json_value_parses_or_names_field(self, data):
        base = data.draw(st.sampled_from(sorted(GRAPH_VARIANTS)))
        path = data.draw(st.sampled_from(FIELD_PATHS[base]))
        doc = mutate(path, data.draw(JSON_VALUES), base=GRAPH_VARIANTS[base])
        try:
            ExperimentConfig.from_dict(doc)
        except ConfigError as exc:
            assert exc.path


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


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.json"
    doc = copy.deepcopy(GOLDEN)
    doc["out_dir"] = str(tmp_path / "out")
    path.write_text(json.dumps(doc))
    return path


def manifest_outputs(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())["outputs"]


def gap_rows(path):
    """The rows of a gap CSV; %.17g fields read back bit-exact."""
    lines = path.read_text().splitlines()
    assert lines[0] == "t,gap,bound,stderr,seeds"
    return [(*map(float, line.split(",")[:4]), int(line.split(",")[4])) for line in lines[1:]]


def report_rows(reports):
    return [(r.t, r.gap, r.bound, r.stderr, r.seeds) for r in reports]


class TestCli:
    @pytest.mark.parametrize("command", ["simulate", "solve", "observe", "rearrange", "convergence"])
    def test_commands_succeed(self, command, config_file, tmp_path):
        out = tmp_path / command
        assert main([command, "--config", str(config_file), "--out", str(out)]) == 0
        assert (out / "manifest.json").exists()
        assert manifest_outputs(out)

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 2

    def test_undecodable_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "undecodable.json"
        path.write_bytes(b"\xff{}")
        assert main(["solve", "--config", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")

    def test_invalid_config_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(mutate("grid.cells", 4)))
        assert main(["solve", "--config", str(path)]) == 2

    @pytest.mark.parametrize("command", ["simulate", "convergence"])
    def test_torus_config_exit_codes(self, command, tmp_path, capsys):
        # Kuramoto runs on its torus and exits 2 on a line grid, naming the field
        good, bad = tmp_path / "torus.json", tmp_path / "line.json"
        good.write_text(json.dumps(TORUS))
        bad.write_text(json.dumps(mutate("grid.topology", "line", base=TORUS)))
        assert main([command, "--config", str(good), "--out", str(tmp_path / "out")]) == 0
        assert main([command, "--config", str(bad), "--out", str(tmp_path / "bad")]) == 2
        assert "grid.topology" in capsys.readouterr().err

    def test_repulsive_kuramoto_solves(self, tmp_path):
        # a negative coupling declares |coupling| for the kernel's constants
        path = tmp_path / "repulsive.json"
        path.write_text(json.dumps(mutate("kernel.coupling", -1.0, base=TORUS)))
        out = tmp_path / "out"
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
        assert json.loads((out / "conservation.json").read_text())["n_steps"] > 0

    def test_non_finite_config_exit_code(self, tmp_path, capsys):
        # json reads the Infinity literal; an infinite t_end must not start a solve
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(mutate("time.t_end", math.inf)))
        assert "Infinity" in path.read_text()
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["config error: config field 'time.t_end': must be finite"]

    @pytest.mark.parametrize("path,value,field", [
        ("nu", 10**400, "nu"),
        ("graph", {"kind": "uniform", "n": 8, "w_bar": math.nan}, "graph.w_bar"),
    ], ids=["nu=400 digits", "w_bar=NaN"])
    def test_unrepresentable_number_exit_code(self, path, value, field, tmp_path, capsys):
        # json reads a 400-digit literal as an int no float can hold, and NaN as a float
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps(mutate(path, value)))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"config error: config field '{field}': must be finite"]

    def test_out_dir_not_a_string_exit_code(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(mutate("out_dir", 5)))
        assert main(["solve", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["config error: config field 'out_dir': must be a string"]

    def test_missing_edge_list_exit_code(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(mutate("graph", {"kind": "edge_list",
                                                    "path": str(tmp_path / "none.txt")})))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("bad input: [simulate] config field 'graph.path': cannot load edge list")

    def test_seed_range(self, config_file, tmp_path, capsys):
        # the config seed and --seed are both 64-bit unsigned integers
        out = tmp_path / "o"
        argv = ["rearrange", "--config", str(config_file), "--seed"]
        assert main(argv + [str(2**64 - 1), "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == 2**64 - 1
        for seed, message in ((2**64, "must be <= 18446744073709551615"), (-1, "must be >= 0")):
            assert main(argv + [str(seed), "--out", str(tmp_path / "bad")]) == 2
            err = capsys.readouterr().err
            assert err.splitlines() == [f"config error: config field '--seed': {message}"]
        assert not (tmp_path / "bad").exists()

    def test_cfl_violation_exit_code(self, tmp_path):
        doc = copy.deepcopy(GOLDEN)
        doc["time"] = {"t_end": 2.0, "snapshots": [2.0], "dt": 1.9}
        path = tmp_path / "cfl.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 3

    def test_stability_violation_exit_code(self, tmp_path, capsys):
        # the README config with a step above the guard bound 0.5
        doc = {**README_CONFIG, "time": {**README_CONFIG["time"], "dt": 1.0}}
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps(doc))
        assert main(["convergence", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "numeric guard" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["simulate", "solve", "observe", "rearrange", "convergence"])
    def test_value_error_exit_code(self, command, config_file, tmp_path, monkeypatch, capsys):
        def fail(cfg, em, seed):
            raise ValueError("rejected value\nsecond line")

        monkeypatch.setitem(cli.COMMANDS, command, fail)
        assert main([command, "--config", str(config_file), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"bad input: [{command}] rejected value second line"]
        assert not (tmp_path / "o" / "manifest.json").exists()

    def test_value_error_from_real_input(self, tmp_path, capsys):
        # n_max = 4 passes config validation, then the order-4 lattice
        # (8 fibers x 64^4 cells) exceeds the evaluation budget
        doc = copy.deepcopy(GOLDEN)
        doc["observables"] = {"n_max": 4, "lambda": 1.0}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        assert main(["observe", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("bad input: [observe] lattice evaluation needs 134217728 entries")
        assert not (tmp_path / "o" / "manifest.json").exists()

    def test_uncreatable_out_dir_exit_code(self, config_file, tmp_path, capsys):
        # --out below a regular file cannot be created
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "sub"
        assert main(["rearrange", "--config", str(config_file), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("config error:") and str(out) in err

    def test_determinism_across_threads(self, config_file, tmp_path):
        outs = []
        for threads in (1, 4):
            out = tmp_path / f"t{threads}"
            assert main(["convergence", "--config", str(config_file),
                         "--out", str(out), "--threads", str(threads)]) == 0
            outs.append(manifest_outputs(out))
        assert outs[0] == outs[1]

    def test_outputs_independent_of_blas_threads(self, tmp_path):
        # two child processes, one and two BLAS/OpenMP threads, on a noisy
        # Kuramoto torus: the manifests list the same output digests
        doc = mutate("kernel", {"preset": "kuramoto", "coupling": 1.0})
        doc["init"] = {"kind": "spread", "mean_lo": 1.6, "mean_hi": 4.6, "std": 0.5}
        doc["grid"] = {"x_min": 0.0, "x_max": 2 * math.pi, "cells": 64, "topology": "torus"}
        doc.update(sigma=0.3, nu=0.045)
        path = tmp_path / "torus.json"
        path.write_text(json.dumps(doc))
        src = str(Path(cli.__file__).resolve().parents[1])
        outs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
            out = tmp_path / f"threads{threads}"
            subprocess.run([sys.executable, "-m", "nxmf.cli", "convergence", "--config", str(path),
                            "--out", str(out)], env=env, check=True, timeout=120)
            outs.append(manifest_outputs(out))
        assert outs[0] == outs[1] and outs[0]

    def test_seed_changes_outputs(self, config_file, tmp_path):
        outs = []
        for seed in (1, 2):
            out = tmp_path / f"s{seed}"
            assert main(["simulate", "--config", str(config_file),
                         "--out", str(out), "--seed", str(seed)]) == 0
            outs.append(manifest_outputs(out))
        assert outs[0] != outs[1]

    def test_seed_override_reaches_bernoulli_graph(self, tmp_path):
        doc = copy.deepcopy(GOLDEN)
        doc["graph"] = {"kind": "graphon_product", "n": 16, "scale": 1.0, "mode": "bernoulli"}
        doc["seed"] = 11
        path = tmp_path / "bern.json"
        path.write_text(json.dumps(doc))
        reports = {}
        for tag, flags in (("none", []), ("1", ["--seed", "1"]), ("2", ["--seed", "2"]),
                           ("11", ["--seed", "11"])):
            out = tmp_path / f"bern_{tag}"
            assert main(["simulate", "--config", str(path), "--out", str(out)] + flags) == 0
            reports[tag] = (out / "scaling_report.json").read_bytes()
        assert reports["1"] != reports["2"]
        assert reports["11"] == reports["none"]

    def test_repeat_run_byte_identical(self, config_file, tmp_path):
        digests = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert main(["observe", "--config", str(config_file), "--out", str(out)]) == 0
            digests.append(manifest_outputs(out))
        assert digests[0] == digests[1]

    def test_trajectory_format(self, config_file, tmp_path):
        out = tmp_path / "traj"
        assert main(["simulate", "--config", str(config_file), "--out", str(out)]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,agent,coord0"
        t, agent, c0 = lines[1].split(",")
        assert float(t) == 0.0 and int(agent) == 1
        float(c0)

    def test_density_format(self, config_file, tmp_path):
        out = tmp_path / "dens"
        assert main(["solve", "--config", str(config_file), "--out", str(out)]) == 0
        lines = (out / "density.csv").read_text().splitlines()
        assert lines[0] == "t,fiber,cell,x_center,value"
        ledger = json.loads((out / "conservation.json").read_text())
        assert ledger["max_step_mass_drift"] <= 1e-12

    def test_binary_density_option(self, tmp_path):
        import struct

        doc = copy.deepcopy(GOLDEN)
        doc["output"] = {"binary_density": True}
        path = tmp_path / "bd.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "bd_out"
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
        raw = (out / "density_000.bin").read_bytes()
        magic, version, n_fibers, g = struct.unpack("<4sIII", raw[:16])
        assert magic == b"NXMF" and version == 1 and n_fibers == 8 and g == 64
        vals = np.frombuffer(raw[16:], dtype="<f8").reshape((n_fibers, g), order="F")
        assert vals.shape == (8, 64)
        assert np.all(vals >= 0)

    def test_hierarchy_norm_reports_admissibility(self, config_file, tmp_path):
        out = tmp_path / "adm"
        assert main(["observe", "--config", str(config_file), "--out", str(out)]) == 0
        doc = json.loads((out / "hierarchy_norm.json").read_text())
        assert isinstance(doc["lambda_admissible"], bool)
        assert doc["sqrt_lambda_threshold"] > 0

    def test_tree_names_survive_csv_round_trip(self, config_file, tmp_path):
        # canonical tree text contains commas and must be quoted in CSVs
        import csv as csvmod

        out = tmp_path / "treecsv"
        assert main(["observe", "--config", str(config_file), "--out", str(out)]) == 0
        rows = list(csvmod.DictReader((out / "hierarchy_residuals.csv").open()))
        assert {r["tree"] for r in rows} == {"-", "-,1"}
        for r in rows:
            float(r["l1_residual"])
            assert int(r["order"]) == len(r["tree"].split(","))

    def test_observe_evaluates_each_tau_once(self, tmp_path, monkeypatch):
        # the hierarchy's tau values of the middle snapshot, and one velocity
        # of it, serve every residual: 9 tau calls on the README config (2 for
        # the hierarchy, 3 + 4 for the residuals), where recomputing them made 11
        from nxmf import observables
        from nxmf.trees import enumerate_trees

        path = tmp_path / "readme.json"
        path.write_text(json.dumps(README_CONFIG))
        calls = []
        real_tau = observables.tau

        def counted(*args, **kwargs):
            calls.append(args[0].to_text())
            return real_tau(*args, **kwargs)

        monkeypatch.setattr(observables, "tau", counted)
        out = tmp_path / "obs"
        assert main(["observe", "--config", str(path), "--out", str(out)]) == 0
        assert len(calls) == 9
        monkeypatch.setattr(observables, "tau", real_tau)
        # the bytes of one public hierarchy_residual call per tree
        cfg = ExperimentConfig.from_dict(copy.deepcopy(README_CONFIG))
        w, res = cli._solve_from_config(cfg, cfg.seed)
        rows = []
        for order in (1, 2):
            for t in enumerate_trees(order):
                rep = observables.hierarchy_residual(t, w, res.snapshots, cfg.kernel, nu=cfg.nu)
                rows.append((t.to_text(), order, rep.value, rep.dt, rep.dx))
        assert (out / "hierarchy_residuals.csv").read_text() == reference_csv(
            ["tree", "order", "l1_residual", "dt", "dx"], rows)

    def test_gap_csv_format(self, config_file, tmp_path):
        out = tmp_path / "conv"
        assert main(["convergence", "--config", str(config_file), "--out", str(out)]) == 0
        for name in ("independence_gap.csv", "meanfield_gap.csv"):
            lines = (out / name).read_text().splitlines()
            assert lines[0] == "t,gap,bound,stderr,seeds"
            assert len(lines) >= 2

    @pytest.mark.parametrize("replicas,indep_seeds,mf_seeds",
                             [(None, "100", "2"), (120, "120", "120")])
    def test_convergence_replica_floors(self, replicas, indep_seeds, mf_seeds, tmp_path):
        import csv as csvmod

        doc = mutate("replicas", ... if replicas is None else replicas)
        path = tmp_path / "reps.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "reps_out"
        assert main(["convergence", "--config", str(path), "--out", str(out)]) == 0
        for name, seeds in (("independence_gap.csv", indep_seeds), ("meanfield_gap.csv", mf_seeds)):
            rows = list(csvmod.DictReader((out / name).open()))
            assert rows and {r["seeds"] for r in rows} == {seeds}

    @pytest.mark.parametrize("name, doc", [
        ("golden", GOLDEN),
        ("golden_on_grid", mutate("time.dt", 0.025)),
        ("readme", README_CONFIG),
    ])
    def test_convergence_matches_public_estimators(self, name, doc, tmp_path):
        # one shared run feeds both CSVs; the mean-field rows always equal
        # meanfield_gap here (t_end is the last snapshot), and the
        # independence row equals independence_gap when every snapshot lies
        # on the dt grid: GOLDEN's 0.05 is off its 0.02 grid
        path = tmp_path / "conv.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "conv_out"
        assert main(["convergence", "--config", str(path), "--out", str(out)]) == 0
        cfg = ExperimentConfig.from_dict(copy.deepcopy(doc))
        w = cfg.build_weights(cfg.seed)
        laws = cfg.build_laws(w.n_agents)
        meanfield = metrics.meanfield_gap(w, cfg.kernel, laws, cfg.grid, cfg.snapshots, cfg.dt,
                                          cfg.seed, max(2, cfg.replicas), cfg.sigma)
        assert gap_rows(out / "meanfield_gap.csv") == report_rows(meanfield)
        if name != "golden":
            indep = metrics.independence_gap(w, cfg.kernel, laws, cfg.grid, cfg.t_end, cfg.dt,
                                             cfg.seed, max(100, cfg.replicas), cfg.sigma)
            assert gap_rows(out / "independence_gap.csv") == report_rows([indep])

    def test_convergence_runs_particles_and_solver_once(self, config_file, tmp_path, monkeypatch):
        calls = {"integrate": 0, "solve": 0}

        def counted(name):
            real = getattr(metrics, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return call

        for name in calls:
            monkeypatch.setattr(metrics, name, counted(name))
        out = tmp_path / "o"
        assert main(["convergence", "--config", str(config_file), "--out", str(out)]) == 0
        assert calls == {"integrate": 1, "solve": 1}

    def test_convergence_checks_guard_before_running(self, tmp_path, monkeypatch):
        # dt 1.0 breaks the guard on the single span to t_end: exit 3 before any step
        def unreachable(*args, **kwargs):
            raise AssertionError("ran past the stability guard")

        for name in ("integrate", "solve"):
            monkeypatch.setattr(metrics, name, unreachable)
        doc = {**README_CONFIG, "time": {**README_CONFIG["time"], "dt": 1.0}}
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps(doc))
        assert main(["convergence", "--config", str(path), "--out", str(tmp_path / "o")]) == 3

    def test_convergence_off_grid_snapshots(self, tmp_path):
        # 0.03 is off the 0.02 grid and the last snapshot precedes t_end:
        # the mean-field rows read the first max(2, replicas) = 2 of the
        # 100 replicas run to every snapshot and t_end, against a solve to t_end
        doc = mutate("replicas", ...)
        doc["time"] = {"t_end": 0.1, "snapshots": [0.0, 0.03, 0.07], "dt": 0.02}
        path = tmp_path / "offgrid.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "offgrid_out"
        assert main(["convergence", "--config", str(path), "--out", str(out)]) == 0
        cfg = ExperimentConfig.from_dict(copy.deepcopy(doc))
        w, k, grid = cfg.build_weights(cfg.seed), cfg.kernel, cfg.grid
        laws = cfg.build_laws(w.n_agents)
        times = [0.0, 0.03, 0.07, 0.1]
        traj = integrate(w, k, laws.sample_replicas(cfg.seed, 100), times, 0.02, 0.0, cfg.seed)
        res = solve(laws.fibers(grid), w, k, nu=0.0, t_end=0.1, output_times=times)
        scaling = check_scaling(w)
        expected = []
        for ti, t in enumerate(times[:3]):
            law = Law1D.from_grid(grid, marginal(res.snapshots[ti]))
            vals = np.array([w1(Law1D.from_atoms(traj[ti, s, :, 0]), law) for s in range(2)])
            bound = c1(t, scaling.max_row_abs_sum, k.w1inf_norm) * math.sqrt(scaling.max_entry_abs)
            stderr = float(vals.std(ddof=1) / math.sqrt(2))
            expected.append((t, float(vals.mean()), bound, stderr, 2))
        assert gap_rows(out / "meanfield_gap.csv") == expected
        assert [row[-1] for row in gap_rows(out / "independence_gap.csv")] == [100]

    def test_binary_lattice_header(self, tmp_path):
        doc = copy.deepcopy(GOLDEN)
        doc["observables"] = {"n_max": 3, "lambda": 1.0}
        doc["grid"]["cells"] = 16
        doc["graph"] = {"kind": "uniform", "n": 4, "w_bar": 1.0}
        path = tmp_path / "obs.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "obs_out"
        assert main(["observe", "--config", str(path), "--out", str(out)]) == 0
        bins = sorted(out.glob("tau_*.bin"))
        assert bins
        import struct

        raw = bins[0].read_bytes()
        magic, version, order, g = struct.unpack("<4sIII", raw[:16])
        assert magic == b"NXMF" and version == 1 and order == 3 and g == 16
        vals = np.frombuffer(raw[16:], dtype="<f8")
        assert vals.size == g**order


def reference_csv(header, rows) -> str:
    """The row-by-row CSV text `Emitter.write_csv` produced before it took
    columns, kept as the byte-level reference for the columnar writer."""

    def field(v) -> str:
        if isinstance(v, float):
            return "{:.17g}".format(v)
        s = str(v)
        if "," in s or '"' in s:
            s = '"' + s.replace('"', '""') + '"'
        return s

    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(field(v) for v in row))
    return "\n".join(lines) + "\n"


class TestWriteCsv:
    FLOATS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 0.1, 1e308,
              -0.0, 0.1, 0.0, -5e-324]
    N = len(FLOATS)

    def columns(self):
        ints = [0, -1, 7, 2**62, -(2**63), 3] * 3
        names = ["-", "-,1", 'say "hi"', '-,"1"', "plain"] * 3
        return [
            np.array(self.FLOATS),                      # float64, repeated bit patterns
            np.array(ints[: self.N], dtype=np.int64),
            ints[: self.N - 1] + [10**20],              # Python ints, one beyond int64
            tuple(np.float64(v) for v in self.FLOATS[::-1]),   # numpy scalars, not an array
            names[: self.N],
            np.array(names[: self.N]),                  # numpy str array
            np.linspace(-6.0, 6.0, 2 * self.N)[::2],    # a strided float64 view
        ]

    def written(self, tmp_path, columns, header=None):
        header = header or [f"c{i}" for i in range(len(columns))]
        em = cli.Emitter(tmp_path)
        em.write_csv("t.csv", header, columns)
        got = (tmp_path / "t.csv").read_bytes()
        assert em.digests["t.csv"] == hashlib.sha256(got).hexdigest()
        return got, header

    @pytest.mark.parametrize("chunk", [1, 3, cli.CSV_CHUNK_ROWS])
    def test_bytes_match_row_reference(self, chunk, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk)
        columns = self.columns()
        got, header = self.written(tmp_path, columns)
        assert got == reference_csv(header, zip(*columns)).encode()
        text = got.decode()
        assert "-0," in text and ",0," in text and "nan" in text and "-inf" in text
        assert '"-,1"' in text and '"say ""hi"""' in text

    @pytest.mark.parametrize("dtype, values", [
        (np.int64, [3, -(2**63), 0, 2**63 - 1, 3, -1, 0]),
        (np.uint64, [2**64 - 1, 0, 5, 5]),
    ])
    def test_integer_array_matches_list(self, dtype, values, tmp_path):
        as_array, _ = self.written(tmp_path / "array", [np.array(values, dtype=dtype)])
        as_list, _ = self.written(tmp_path / "list", [list(values)])
        assert as_array == as_list == reference_csv(["c0"], zip(values)).encode()

    def test_float_format_matches_str_format(self):
        # FLOAT_FMT with % writes what "{:.17g}".format writes, on the
        # special values, the extremes and random bit patterns
        info = np.finfo(np.float64)
        special = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                   2.2250738585072009e-308, float(info.max), -float(info.max),
                   float(info.tiny), float(info.eps), 0.1, 1.0 / 3.0]
        bits = np.random.default_rng(5).integers(0, 2**64, 100_000, dtype=np.uint64)
        values = special + bits.view(np.float64).tolist()
        assert [cli.FLOAT_FMT % v for v in values] == ["{:.17g}".format(v) for v in values]
        assert cli._column_text(np.array(values)) == ["{:.17g}".format(v) for v in values]

    def test_digest_read_in_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "HASH_BLOCK", 7)
        self.written(tmp_path, self.columns())     # checks the digest against the file's bytes

    def test_no_rows_writes_header(self, tmp_path):
        got, header = self.written(tmp_path, [np.array([]), []], header=["a", "b"])
        assert got == reference_csv(header, []).encode() == b"a,b\n"

    def test_unequal_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="equal length"):
            self.written(tmp_path, [np.zeros(3), [1, 2]])
        with pytest.raises(ValueError, match="equal length"):
            self.written(tmp_path, [np.zeros(3)], header=["a", "b"])
