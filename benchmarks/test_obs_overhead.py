"""Observability benchmark: tracing cost and the NullRecorder's non-cost.

Two fronts, both recorded into ``BENCH_obs_overhead.json``:

* **trace overhead** — one cell per fidelity tier (scalar, vector, packet)
  timed unobserved and with a :class:`~repro.obs.recorder.TraceRecorder`
  attached.  The observed run must stay bit-identical (recording receives
  timestamps the engines already computed) and the traced/null wall-clock
  ratio must stay under a pinned ceiling.
* **null overhead** — the default :class:`~repro.obs.recorder.NullRecorder`
  must cost the vector engine ≤ 3% in aggregate.  A differential timing of
  two full runs cannot resolve 3% reliably, so the pin is computed from
  first principles: microbenchmark the ``obs.enabled`` attribute check,
  bound the checks per request from the traced run's own event volume,
  and divide by the measured per-request wall time.

Set ``REPRO_BENCH_SMOKE=1`` (the CI docs job does) for a shorter replay
with relaxed ceilings and no baseline file.
"""

import json
import os
import pathlib
import time

from conftest import bench_environment, run_once, write_baseline

from repro.analysis.report import format_table
from repro.experiments.common import DEFAULT_SCALE, EvaluationScale
from repro.experiments.obs_overhead import OVERHEAD_CELLS, run_obs_overhead
from repro.obs.recorder import NULL_RECORDER, TraceRecorder

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
NUM_BATCHES = 4 if SMOKE else 16
REPEATS = 2 if SMOKE else 3
#: Traced/null wall-clock ceiling per tier aggregate (measured ~1.0-1.1x;
#: the packet cell pays the most — its bridge replays every transfer).
TRACE_CEILING = 2.5 if SMOKE else 1.75
#: The paper-facing pin: recording *off* must cost the vector engine ≤ 3%.
NULL_CEILING = 0.03
#: Vector-engine cells the null pin aggregates over.
VECTOR_SYSTEMS = ("pond", "pifs-rec")

BASELINE_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_obs_overhead.json"


def _merge_baseline(section: str, payload: dict) -> None:
    """Update one section of the baseline file, preserving the others."""
    data = {}
    if BASELINE_PATH.exists():
        try:
            data = json.loads(BASELINE_PATH.read_text())
        except (ValueError, OSError):
            data = {}
    data.setdefault("benchmark", "obs_overhead")
    data["recorded_unix"] = int(time.time())
    data["host"] = bench_environment()
    data[section] = payload
    write_baseline(BASELINE_PATH, data)


def _bench_scale() -> EvaluationScale:
    from dataclasses import replace

    return replace(DEFAULT_SCALE, num_batches=NUM_BATCHES)


def test_trace_overhead(benchmark):
    """Bit-identity + the wall-clock ceiling of an attached TraceRecorder."""
    report = run_once(
        benchmark, run_obs_overhead, _bench_scale(), OVERHEAD_CELLS, REPEATS
    )

    aggregate = sum(r["traced_ms"] for r in report.values()) / sum(
        r["null_ms"] for r in report.values()
    )

    print()
    print(format_table(
        ["cell", "null_ms", "traced_ms", "ratio", "events", "identical"],
        [
            [cell, r["null_ms"], r["traced_ms"], r["ratio"], r["events"], str(r["identical"])]
            for cell, r in report.items()
        ],
        float_format="{:,.3f}",
    ))
    print(f"aggregate trace overhead: {aggregate:.3f}x (ceiling {TRACE_CEILING}x)")

    for cell, row in report.items():
        assert row["identical"], f"{cell}: recording perturbed the simulated total"
        assert row["events"] > 0, f"{cell}: the traced run recorded nothing"

    _merge_baseline("trace", {
        "description": "one cell per fidelity tier (scalar/vector/packet) "
        f"at the default evaluation scale with {NUM_BATCHES} batches, "
        f"unobserved vs TraceRecorder attached, best of {REPEATS} runs each",
        "entries": report,
        "aggregate_ratio": aggregate,
        "ceiling": TRACE_CEILING,
    })

    assert aggregate <= TRACE_CEILING, (
        f"trace overhead {aggregate:.3f}x above the {TRACE_CEILING}x ceiling"
    )


def _null_check_cost_ns(iterations: int = 1_000_000) -> float:
    """Wall cost of one ``obs.enabled`` check on the NullRecorder, in ns.

    Differences out the bare loop so only the attribute access is priced.
    """
    obs = NULL_RECORDER
    hits = 0
    start = time.perf_counter_ns()
    for _ in range(iterations):
        if obs.enabled:
            hits += 1
    checked = time.perf_counter_ns() - start
    start = time.perf_counter_ns()
    for _ in range(iterations):
        pass
    bare = time.perf_counter_ns() - start
    assert hits == 0
    return max(0.0, (checked - bare) / iterations)


def _vector_cell(system: str, scale: EvaluationScale):
    """(wall_ns, requests, events) of one vector-engine session."""
    from repro.api.session import Simulation

    sim = Simulation(system, scale=scale).engine("vector")
    best_ns, requests = float("inf"), 0
    for _ in range(REPEATS):
        sim.observe(None)
        start = time.perf_counter_ns()
        run = sim.run(cache=False)
        best_ns = min(best_ns, time.perf_counter_ns() - start)
        requests = run.sim.requests
    recorder = TraceRecorder(label=f"null-pin:{system}")
    traced = sim.observe(recorder).run(cache=False)
    assert traced.total_ns == run.total_ns
    return best_ns, requests, len(recorder) + sum(1 for _ in recorder.metrics())


def test_null_overhead(benchmark):
    """NullRecorder (recording off) costs the vector engine ≤ 3% aggregate.

    Every gated emission site executes at most one ``obs.enabled`` check
    per event it *would* record, so the traced run's event+metric volume
    bounds the checks the unobserved run paid.  That count times the
    microbenchmarked per-check cost, over the measured wall time, is the
    overhead fraction — resolvable well below the 3% pin, unlike a
    differential timing of two noisy full runs.
    """
    def grid():
        scale = _bench_scale()
        per_check_ns = _null_check_cost_ns()
        rows = []
        for system in VECTOR_SYSTEMS:
            wall_ns, requests, checks = _vector_cell(system, scale)
            overhead = checks * per_check_ns / wall_ns if wall_ns else 0.0
            rows.append({
                "system": system,
                "wall_ms": wall_ns / 1e6,
                "requests": requests,
                "bound_checks": checks,
                "per_check_ns": per_check_ns,
                "overhead_fraction": overhead,
            })
        return rows

    rows = run_once(benchmark, grid)
    aggregate = sum(r["overhead_fraction"] * r["wall_ms"] for r in rows) / sum(
        r["wall_ms"] for r in rows
    )

    print()
    print(format_table(
        ["system", "wall_ms", "requests", "bound_checks", "per_check_ns", "overhead_pct"],
        [
            [r["system"], r["wall_ms"], r["requests"], r["bound_checks"],
             r["per_check_ns"], 100.0 * r["overhead_fraction"]]
            for r in rows
        ],
        float_format="{:,.3f}",
    ))
    print(f"aggregate NullRecorder overhead: {100.0 * aggregate:.3f}% "
          f"(ceiling {100.0 * NULL_CEILING:.0f}%)")

    _merge_baseline("null", {
        "description": "vector-engine sessions at the default evaluation "
        f"scale with {NUM_BATCHES} batches: per-check cost of the "
        "NullRecorder attribute test times the traced event volume "
        "(an upper bound on checks paid), over the measured wall time",
        "entries": rows,
        "aggregate_overhead_fraction": aggregate,
        "ceiling": NULL_CEILING,
    })

    assert aggregate <= NULL_CEILING, (
        f"NullRecorder overhead {100.0 * aggregate:.3f}% above the "
        f"{100.0 * NULL_CEILING:.0f}% ceiling"
    )
