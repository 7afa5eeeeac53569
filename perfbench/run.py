"""Benchmark entry point.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

With `--workload`, the workload runs in this single-threaded process: set-up
is timed in fresh interpreters (`probe.py`); a CLI workload first runs one
untimed operation at the default seed, whose manifest digests are compared
with `reference_digests.json`; then operations on the inputs built from
`--seed` repeat for `--seconds`.  The last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`;
the line before it carries the per-operation samples, failures and
provenance.  The exit code is 1 if any output check failed.

`--trace 0` reports the end-to-end metrics: `wall_s` (median seconds of
one operation), `setup_s` (median seconds to import nxmf and build the
inputs) and `peak_rss_mb` (peak resident memory of this process).  The
share of failed operations is `failed / attempted` in the result object.
`--trace 1` alternates untraced and traced operations and reports the
per-layer metrics of `layers.py`; the spans are written to
`perfbench/_out/`.

Without `--workload`, every workload runs in turn, each in its own process,
and every metric is printed with its unit.  `--write-reference` records the
digests of the CLI workloads at the default seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bootstrap

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference_digests.json"
SETUP_REPEATS = 5
DEFAULT_SECONDS = 25


class Run:
    """Operations of one workload, with their failure accounting."""

    def __init__(self, workload, scratch: Path):
        self.workload = workload
        self.scratch = scratch
        self.attempted = 0
        self.failures: list[str] = []
        self._n = 0

    def op(self, inputs, tracer=None):
        """Run and check one operation in a fresh directory; return
        (seconds, Outcome).  Only the operation itself is timed."""
        opdir = self.scratch / f"op{self._n}"
        self._n += 1
        opdir.mkdir(parents=True)
        try:
            if tracer is None:
                elapsed, result = _timed(self.workload.run, inputs, opdir)
            else:
                with tracer.installed():
                    traced = tracer.traced_inputs(inputs)
                    with tracer.op():
                        elapsed, result = _timed(self.workload.run, traced, opdir)
            outcome = self.workload.check(inputs, result, opdir)
        finally:
            shutil.rmtree(opdir, ignore_errors=True)
        self.attempted += outcome.attempted
        self.failures += outcome.failures
        return elapsed, outcome


def _timed(fn, *args):
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:        # a failed operation, checked and counted later
        result = exc
    return time.perf_counter() - t0, result


def repeat_for(seconds: float, step, min_ops: int = 1) -> list[float]:
    """Call step(i) until the next call would likely end after `seconds`."""
    t_start = time.perf_counter()
    samples: list[float] = []
    while True:
        samples.append(step(len(samples)))
        spent = time.perf_counter() - t_start
        if len(samples) >= min_ops and spent + statistics.median(samples) > seconds:
            return samples


def probe_setup(workload: str, seed: int, toy: bool) -> float:
    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed)] + (["--toy"] if toy else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # KiB on Linux


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _git_commit() -> str | None:
    if not (bootstrap.ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(bootstrap.ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    pkg = bootstrap.SRC / "nxmf"
    for path in sorted(pkg.rglob("*.py")):
        digest.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance() -> dict:
    import numpy
    import scipy

    affinity = sorted(os.sched_getaffinity(0))
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_model": _cpu_model(),
        "nproc": len(affinity),
        "cpu_count": os.cpu_count(),
        "sched_getaffinity": affinity,
        "thread_env": {v: os.environ.get(v) for v in bootstrap.THREAD_VARS},
    }


def digests_match(name: str, outcome, toy: bool) -> bool | None:
    """Informational: warm-up digests against the recorded reference."""
    if toy or outcome is None or outcome.digests is None or not REFERENCE.is_file():
        return None
    ref = json.loads(REFERENCE.read_text()).get(name)
    return None if ref is None else outcome.digests == ref


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def run_workload(args, workloads) -> int:
    import layers
    from tracing import UNMEASURED, Tracer

    workload = workloads.WORKLOADS[args.workload]
    scratch = bootstrap.OUT / f"{args.workload}-{os.getpid()}"
    try:
        setup = [probe_setup(args.workload, args.seed, args.toy) for _ in range(SETUP_REPEATS)]
        run = Run(workload, scratch)
        warm = None
        if workload.has_digests:
            _, warm = run.op(workload.build(workloads.DEFAULT_SEED, args.toy, scratch / "warm"))
        inputs = workload.build(args.seed, args.toy, scratch / "inputs")

        if not args.trace:
            walls = repeat_for(args.seconds, lambda i: run.op(inputs)[0])
            values = {"wall_s": statistics.median(walls),
                      "setup_s": statistics.median(setup),
                      "peak_rss_mb": peak_rss_mb()}
            units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
            samples = {"plain": walls}
        else:
            tracer = Tracer()
            samples = {"plain": [], "traced": []}

            def step(i):
                traced = i % 2 == 1
                elapsed = run.op(inputs, tracer if traced else None)[0]
                samples["traced" if traced else "plain"].append(elapsed)
                return elapsed

            repeat_for(args.seconds, step, min_ops=2)
            values = {m.name: statistics.median(m.value(s) for s in tracer.ops)
                      for m in layers.LAYER_METRICS}
            values[layers.OVERHEAD.name] = (statistics.median(samples["traced"])
                                            / statistics.median(samples["plain"]) - 1.0)
            units = {m.name: m.unit for m in layers.PER_LAYER}
            tracer.save(bootstrap.OUT / f"trace-{args.workload}-seed{args.seed}.npz")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = len(run.failures)
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "toy": args.toy,
        "op_seconds": samples, "setup_seconds": setup,
        "failed_ops_frac": failed / run.attempted, "failures": run.failures[:20],
        "digests_match": digests_match(args.workload, warm, args.toy),
        "provenance": provenance(),
    }
    if args.trace:
        info["unmeasured"] = UNMEASURED
    bootstrap.OUT.mkdir(parents=True, exist_ok=True)
    record = bootstrap.OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"info": info, "result": result}, indent=1) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args, workloads) -> int:
    ok = True
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd + (["--toy"] if args.toy else []), capture_output=True, text=True)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            result = None
        if proc.returncode != 0 or result is None or not result["correct"]:
            ok = False
            sys.stderr.write(proc.stderr[-4000:])
        if result is None:
            print(f"{name}: no result (exit {proc.returncode})")
            continue
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:42s} {v['value']:>14.6g} {v['unit']}")
    return 0 if ok else 1


def write_reference(workloads) -> int:
    ref = {}
    for name, workload in workloads.WORKLOADS.items():
        if not workload.has_digests:
            continue
        scratch = bootstrap.OUT / f"reference-{name}"
        try:
            _, outcome = Run(workload, scratch).op(
                workload.build(workloads.DEFAULT_SEED, False, scratch / "inputs"))
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        if outcome.failures:
            print(f"{name}: {outcome.failures}", file=sys.stderr)
            return 1
        ref[name] = outcome.digests
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="run one workload (default: all, each in its own process)")
    p.add_argument("--seed", type=int, default=7, help="input seed (default: 7)")
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer traced run")
    p.add_argument("--toy", action="store_true", help="toy sizes, for the harness self-test")
    p.add_argument("--write-reference", action="store_true",
                   help="record the CLI workloads' digests at the default seed")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    bootstrap.pin_threads()
    try:
        bootstrap.import_nxmf()
    except bootstrap.MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.write_reference:
        return write_reference(workloads)
    if args.workload is None:
        return run_all(args, workloads)
    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    return run_workload(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
