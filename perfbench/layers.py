"""Per-layer metrics of the traced run, and the end-to-end metric each one
should move.

Every entry names the end-to-end metric (`moves`) and the workloads (`on`)
where a change to that layer should show; on the other workloads the
prediction is no change.  Times are self times summed per operation;
counts are per operation and repeat exactly for a given workload and size.
The traced run reports the median over its traced operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from tracing import OpStats

STEPPERS = ("particles.step_deterministic", "particles.step_stochastic", "particles.step_mckean")
CLI_COMMANDS = ("simulate", "solve", "observe", "rearrange", "convergence")
GAP_WORKLOADS = ("indep_gap", "noisy_torus", "cli_readme")


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    value: Callable[[OpStats], float] | None    # None: computed by the runner
    moves: str
    on: tuple[str, ...]


def calls(*spans):
    return lambda s: float(sum(s.calls.get(n, 0) for n in spans))


def self_s(*spans):
    return lambda s: sum(s.self_s.get(n, 0.0) for n in spans)


def counter(key):
    return lambda s: float(s.counters.get(key, 0))


def per_call(key, span):
    """Counter per call of `span`; 0 when the span never ran."""
    return lambda s: s.counters.get(key, 0) / s.calls[span] if s.calls.get(span) else 0.0


def cell_steps_per_s(s: OpStats) -> float:
    busy = s.incl_s.get("pde.solve", 0.0)
    return s.counters.get("solve.cell_steps", 0) / busy if busy else 0.0


def _layer(prefix, span, moves, on, *, with_calls=True, with_self=True):
    out = []
    if with_calls:
        out.append(LayerMetric(f"{prefix}.calls", "count", "lower", calls(*span), moves, on))
    if with_self:
        out.append(LayerMetric(f"{prefix}.self_s", "s", "lower", self_s(*span), moves, on))
    return out


M = LayerMetric
DRIFT_ON = ("indep_gap", "cli_readme")

LAYER_METRICS: list[LayerMetric] = [
    *_layer("particles.drift_batch", ("particles.drift_batch",), "wall_s", DRIFT_ON),
    M("particles.drift_batch.pair_evals", "count", "lower",
      counter("drift_batch.pairs"), "wall_s", DRIFT_ON),
    M("particles.drift_batch.mean_rows", "replicas", "higher",
      per_call("drift_batch.rows", "particles.drift_batch"), "wall_s", DRIFT_ON),
    M("particles.drift_batch.scratch_bytes", "B", "lower",
      counter("drift_batch.scratch_bytes"), "peak_rss_mb", ("indep_gap",)),
    *_layer("particles.drift", ("particles.drift",), "wall_s", ("simulate_large",)),
    M("particles.drift.pair_evals", "count", "lower",
      counter("drift.pairs"), "wall_s", ("simulate_large",)),
    *_layer("particles.step", STEPPERS, "wall_s", ("simulate_large",)),
    *_layer("kernels.eval", ("kernels.eval",), "wall_s", ("indep_gap", "simulate_large")),
    *_layer("weights.check_scaling", ("weights.check_scaling",), "wall_s", ("simulate_large",)),
    M("weights.check_scaling.useful_ratio", "ratio", "higher",
      per_call("check_scaling.distinct", "weights.check_scaling"), "wall_s", ("simulate_large",)),
    *_layer("weights.kernel_apply", ("weights.kernel_apply",), "wall_s", ("noisy_torus",)),
    *_layer("pde.solve", ("pde.solve",), "wall_s", ("noisy_torus",)),
    M("pde.solve.steps", "count", "lower", counter("solve.steps"), "wall_s", ("noisy_torus",)),
    *_layer("pde.step_transport", ("pde.step_transport",), "wall_s", ("noisy_torus",),
            with_calls=False),
    *_layer("pde.fiber_convolution", ("pde.fiber_convolution",), "wall_s", ("noisy_torus",)),
    M("pde.cell_steps_per_s", "1/s", "higher", cell_steps_per_s, "wall_s", ("noisy_torus",)),
    *_layer("seeding.normal_block", ("seeding.normal_block",), "wall_s", ("noisy_torus",)),
    *_layer("seeding.stream", ("seeding.stream",), "wall_s", ("noisy_torus",), with_self=False),
    *_layer("metrics.w1", ("metrics.w1",), "wall_s", GAP_WORKLOADS),
    *_layer("metrics.independence_gap", ("metrics.independence_gap",), "wall_s",
            GAP_WORKLOADS, with_calls=False),
    *_layer("metrics.meanfield_gap", ("metrics.meanfield_gap",), "wall_s", ("cli_readme",),
            with_calls=False),
    *_layer("observables.tau", ("observables.tau",), "wall_s", ("cli_readme",)),
    M("observables.tau.lattice_entries", "count", "lower",
      counter("tau.lattice_entries"), "wall_s", ("cli_readme",)),
    *_layer("observables.hierarchy_residual", ("observables.hierarchy_residual",), "wall_s",
            ("cli_readme",), with_calls=False),
    *_layer("rearrange.build_phi", ("rearrange.build_phi",), "wall_s", ("cli_readme",),
            with_calls=False),
    *_layer("rearrange.modulus", ("rearrange.modulus",), "wall_s", ("cli_readme",),
            with_calls=False),
    *[M(f"cli.{c}.wall_s", "s", "lower", lambda s, c=c: s.incl_s.get(f"cli.{c}", 0.0),
        "wall_s", ("cli_readme", "simulate_large") if c == "simulate" else ("cli_readme",))
      for c in CLI_COMMANDS],
    *_layer("cli.emit", ("cli.emit",), "wall_s", ("cli_readme",), with_calls=False),
    M("cli.emit.bytes", "B", "lower", counter("emit.bytes"), "wall_s", ("cli_readme",)),
    M("trace.coverage", "ratio", "higher", lambda s: s.coverage, "", ()),
]

# Traced over untraced median wall time of one operation, minus one; it
# compares operations, so it is computed by the runner, not from one OpStats.
OVERHEAD = M("trace.overhead_frac", "ratio", "lower", None, "", ())

PER_LAYER = [*LAYER_METRICS, OVERHEAD]
