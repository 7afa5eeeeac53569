"""Fast self-test of the benchmark harness: `python3 perfbench/selftest.py`.

- BENCHMARK.json names the workloads and metrics the harness emits.
- Every workload runs at toy size, untraced and traced, and emits every
  metric of BENCHMARK.json with its unit.
- Each output check rejects a deliberately corrupted result.
- In a directory holding only BENCHMARK.json and `perfbench/`, the
  benchmark exits nonzero without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import bootstrap

bootstrap.pin_threads()
bootstrap.import_nxmf()

import layers  # noqa: E402
import workloads  # noqa: E402
from nxmf.metrics import GapReport  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEC = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _run(args: list[str], cwd: Path = bootstrap.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _set_csv_field(path: Path, row: int, col: int, value: str):
    lines = path.read_text().splitlines()
    fields = lines[row].split(",")
    fields[col] = value
    lines[row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == E2E_UNITS
    assert SPEC["per_layer"] == [{"name": m.name, "unit": m.unit, "better": m.better}
                                 for m in layers.PER_LAYER]


def test_toy_runs_emit_every_metric():
    for trace, spec in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        expected = {m["name"]: m["unit"] for m in spec}
        for name in workloads.WORKLOADS:
            proc = _run(["--workload", name, "--toy", "--seconds", "1", "--trace", str(trace)])
            assert proc.returncode == 0, (name, trace, proc.stderr[-2000:])
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected, (name, trace, set(got) ^ set(expected))
            assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_checks_reject_corrupted_results():
    scratch = bootstrap.OUT / "selftest"
    try:
        cli_wl = workloads.WORKLOADS["cli_readme"]
        inputs = cli_wl.build(workloads.DEFAULT_SEED, True, scratch / "inputs")
        out = scratch / "op"
        codes = cli_wl.run(inputs, out)
        assert cli_wl.check(inputs, codes, out).failures == []

        _set_csv_field(out / "simulate" / "trajectory.csv", 1, -1, "nan")
        assert workloads.check_simulate(inputs.config, out / "simulate")

        perm = out / "rearrange" / "permutation.txt"
        first = perm.read_text().splitlines()[0]
        perm.write_text(perm.read_text() + first + "\n")
        assert workloads.check_rearrange(inputs.config, out / "rearrange")

        cons = out / "solve" / "conservation.json"
        doc = json.loads(cons.read_text())
        doc["max_step_mass_drift"] = 1e-9
        cons.write_text(json.dumps(doc))
        assert workloads.check_solve(inputs.config, out / "solve")

        _set_csv_field(out / "convergence" / "independence_gap.csv", 1, 1, "nan")
        assert workloads.check_convergence(inputs.config, out / "convergence")

        failed_exit = cli_wl.check(inputs, {**codes, "observe": 3}, out)
        assert any(f.startswith("observe: exit 3") for f in failed_exit.failures)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    ok = GapReport(t=1.0, gap=0.1, bound=0.2, stderr=0.01, seeds=100, dx=0.01)
    assert workloads.check_gap(ok) == []
    assert workloads.check_gap(replace(ok, gap=math.nan))
    assert workloads.check_gap(replace(ok, gap=0.5))
    assert workloads.WORKLOADS["indep_gap"].check(None, ValueError("x"), scratch).failures


def test_refuses_without_source():
    bare = bootstrap.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
        shutil.copy(bootstrap.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = _run(["--workload", "indep_gap", "--seed", "1", "--seconds", "1", "--trace", "0"],
                    cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc!r}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
