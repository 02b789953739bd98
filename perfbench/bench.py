"""Measurement loops and the result line of ``perfbench/run.py``.

``--trace 0`` measures the end-to-end metrics with nothing wrapped:

1. Set-up (build the trace and the systems) runs in :data:`SETUP_BLOCKS`
   blocks with the library's trace cache cleared before each build;
   ``setup_s`` is the median block's time per set-up.
2. A first round of sessions gives the reference results.  Every later
   session must match its digest, and the primary system's closed-loop
   request latencies are collected from it for ``sim_p50_us`` and
   ``sim_p999_us``.
3. Rounds then run back to back for ``--seconds`` (at least
   :data:`MIN_ROUNDS`).  ``lookups_per_s`` is the median over rounds of a
   round's lookups over its sessions' wall time.
4. ``peak_rss_mib`` is the process's resident-memory high-water mark.

Host time is measured on shared machines whose speed drifts by tens of
percent over minutes, with unchanged code.  Each set-up block and each
round is therefore bracketed by :func:`host_probe`, a fixed pure-Python
workload independent of the library, and its wall time is scaled to a
host on which the probe takes :data:`PROBE_REFERENCE_S`: ``setup_s`` and
``lookups_per_s`` are in reference-host seconds.  The human-readable lines
also give the unscaled host figures.

``--trace 1`` alternates untraced and traced rounds for ``--seconds`` (at
least :data:`MIN_TRACED_ROUNDS` of each) and reports the per-layer
metrics as medians over the traced rounds, the tracing overhead (median
traced over median untraced round wall) and ``trace.coverage``, the share
of session wall under layer spans: the wall minus the self time of the
session spans themselves (``bench.session`` around the library call, and
``sls.run``, the engine's request loop).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.api.session import clear_cache
from repro.sls.result import LatencyStats

from perfbench import checks, tracing, workloads

MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
SETUP_BLOCKS = 9
#: A set-up block repeats set-up until it lasts about this long, so that a
#: set-up of a millisecond (a streamed trace) is timed over many repeats.
SETUP_BLOCK_S = 0.2
TRACED_SETUPS = 3
#: Where the traced run writes its spans, relative to the working directory.
SPANS_DIR = ".perfbench"
#: Wall time of :func:`host_probe` on the reference host.
PROBE_REFERENCE_S = 0.015


def host_probe() -> float:
    """Wall seconds of a fixed pure-Python integer loop.

    It allocates nothing lasting, so it measures the host rather than the
    state of this process's heap.
    """
    started = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    return time.perf_counter() - started

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("lookups_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_ns_per_lookup", "ns"),
    ("sim_p50_us", "us"),
    ("sim_p999_us", "us"),
)

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("traces.build_s", "s"),
    ("traces.window_s", "s"),
    ("traces.passes", "count"),
    ("api.build_system_s", "s"),
    ("sls.begin_session_s", "s"),
    ("sls.request_s", "s"),
    ("sls.request_s.pond", "s"),
    ("sls.request_s.beacon", "s"),
    ("sls.request_s.pifs-rec", "s"),
    ("sls.vector_requests", "count"),
    ("sls.scalar_requests", "count"),
    ("sls.finish_session_s", "s"),
    ("vector.load_window_s", "s"),
    ("vector.flush_s", "s"),
    ("vector.fallbacks", "count"),
    ("memsys.placement_s", "s"),
    ("pagemgmt.maintenance_calls", "count"),
    ("pagemgmt.maintenance_s", "s"),
    ("pagemgmt.migrations", "count"),
    ("pifs.buffer_hit_ratio", "ratio"),
    ("serve.admit_s", "s"),
    ("serve.dispatch_s", "s"),
    ("serve.batches", "count"),
    ("serve.batch_p50_us", "us"),
    ("serve.batch_p99_us", "us"),
    ("fleet.route_s", "s"),
    ("fleet.shard_iter_s", "s"),
    ("fleet.shard_s_max", "s"),
    ("fleet.shard_s_mean", "s"),
    ("fleet.shard_lookup_imbalance", "ratio"),
    ("session.glue_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
)


class Ledger:
    """Runs rounds, checks every session, and counts attempted and failed ones."""

    def __init__(self, workload: workloads.Workload, totals: Tuple[int, int]) -> None:
        self.workload = workload
        self.totals = totals
        self.attempted = 0
        self.failed = 0
        #: Result digests of the run's first round, in session order.
        self.reference: Optional[List[str]] = None

    def run(self, round_fn: Callable[[], List[workloads.Session]]) -> Optional[List[workloads.Session]]:
        planned = len(self.workload.systems)
        self.attempted += planned
        try:
            sessions = round_fn()
        except Exception:  # a session that raises counts as failed; measuring goes on
            self.failed += planned
            traceback.print_exc(file=sys.stderr)
            return None
        digests = [checks.result_digest(session.result) for session in sessions]
        if self.reference is None:
            self.reference = digests
        for session, digest, expected in zip(sessions, digests, self.reference):
            problems = checks.check_session(self.workload, session.result, self.totals)
            if digest != expected:
                problems.append("the simulated result differs from the run's first session")
            self.flag(session.system, problems)
        return sessions

    def flag(self, system: str, problems: Sequence[str]) -> None:
        """Count a session with failed checks (it was already attempted)."""
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"check failed: {self.workload.name}/{system}: {problem}", file=sys.stderr)

    @property
    def digest(self) -> str:
        return checks.sim_digest(self.reference or [])


def host_speed(seconds: float, probe_before: float) -> Tuple[float, float]:
    """``seconds`` of host wall, and the same scaled to the reference host.

    The probe runs again after the measured work; the mean of the two
    probes gives the host's speed while the work ran.
    """
    probe_s = (probe_before + host_probe()) / 2
    return seconds, seconds * PROBE_REFERENCE_S / probe_s


def timed_setup(build: Callable[[], workloads.Inputs]) -> Tuple[float, float, workloads.Inputs]:
    """Median time of one set-up (reference-host and host seconds) and its inputs."""
    clear_cache()
    started = time.perf_counter()
    inputs = build()  # also pays the lazy imports and first-touch costs
    repeats = max(1, math.ceil(SETUP_BLOCK_S / max(time.perf_counter() - started, 1e-9)))
    host, scaled = [], []
    for _ in range(SETUP_BLOCKS):
        probe_s = host_probe()
        started = time.perf_counter()
        for _ in range(repeats):
            inputs = None
            clear_cache()
            inputs = build()
        seconds, reference_s = host_speed((time.perf_counter() - started) / repeats, probe_s)
        host.append(seconds)
        scaled.append(reference_s)
    return statistics.median(scaled), statistics.median(host), inputs


def _round_wall(sessions: List[workloads.Session]) -> float:
    return sum(session.wall_s for session in sessions)


def measure(workload: workloads.Workload, seed: int, seconds: float, size: workloads.Size):
    """End-to-end metrics of one run (see the module docstring)."""
    setup_s, host_setup_s, inputs = timed_setup(lambda: workloads.build_inputs(workload, seed, size))
    ledger = Ledger(workload, checks.trace_totals(inputs.trace))
    latencies: List[float] = []
    with workloads.request_latencies(inputs, latencies):
        reference = ledger.run(lambda: workloads.run_round(inputs))
    if reference is None:
        return ledger, {}, {}
    sim_metrics = workloads.sim_metrics(workload, reference, latencies)
    if workload.mode != "serve":
        ledger.flag(workloads.PRIMARY, checks.check_percentiles(LatencyStats.from_samples(latencies)))
    # Only one round's results are alive at a time, so every round starts
    # from the same heap and the memory high-water mark is one round's.
    reference = latencies = None
    host_rates, rates = [], []
    rounds = 0
    started = time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() - started < seconds:
        rounds += 1
        gc.collect()
        probe_s = host_probe()
        sessions = ledger.run(lambda: workloads.run_round(inputs))
        if sessions:
            wall_s, reference_s = host_speed(_round_wall(sessions), probe_s)
            lookups = sum(session.lookups for session in sessions)
            host_rates.append(lookups / wall_s)
            rates.append(lookups / reference_s)
        sessions = None
    if not rates:
        return ledger, {}, {}
    metrics = {
        "lookups_per_s": statistics.median(rates),
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics.update(sim_metrics)
    host = {"lookups_per_s": statistics.median(host_rates), "setup_s": host_setup_s}
    return ledger, metrics, host


def _batch_of(sessions: List[workloads.Session]) -> Dict[int, tuple]:
    """Served request id -> (host, dispatch time, lane): its batch."""
    return {
        record.request_id: (record.host_id, record.dispatch_ns, record.lane)
        for session in sessions
        for record in (getattr(session.result, "records", None) or [])
    }


def _setup_seconds(tracer: tracing.Tracer, name: str) -> float:
    """Median over traced set-ups of the time spent in ``name`` spans."""
    code = tracer.code(name)
    per_setup: Dict[int, float] = {}
    for index in range(len(tracer)):
        run = tracer.run_of[index]
        if run < 0 and tracer.name[index] == code:
            per_setup[run] = per_setup.get(run, 0.0) + tracer.end[index] - tracer.start[index]
    return statistics.median(per_setup.values()) if per_setup else 0.0


def measure_traced(workload: workloads.Workload, seed: int, seconds: float, size: workloads.Size):
    """Per-layer metrics of one traced run (see the module docstring)."""
    build = lambda: workloads.build_inputs(workload, seed, size)  # noqa: E731
    clear_cache()
    inputs = build()
    ledger = Ledger(workload, checks.trace_totals(inputs.trace))
    if ledger.run(lambda: workloads.run_round(inputs)) is None:
        return ledger, {}, {}
    tracer = tracing.Tracer()
    classes = {name: type(system) for name, system in zip(workload.systems, inputs.systems)}
    with tracing.instrument(tracer, classes):
        for setup in range(TRACED_SETUPS):
            tracer.run = -1 - setup
            inputs = None
            clear_cache()
            inputs = build()
    untraced: List[float] = []
    traced: List[float] = []
    per_round: List[Dict[str, float]] = []
    started = time.perf_counter()
    while len(per_round) < MIN_TRACED_ROUNDS or time.perf_counter() - started < seconds:
        gc.collect()
        sessions = ledger.run(lambda: workloads.run_round(inputs))
        if sessions:
            untraced.append(_round_wall(sessions))
        sessions = None
        tracer.run = max(tracer.run, 0) + 1
        first_span = len(tracer)
        gc.collect()
        with tracing.instrument(tracer, classes):
            sessions = ledger.run(lambda: workloads.run_round(inputs, span=tracer.span))
        if sessions is None:
            if not per_round and not untraced:
                return ledger, {}, {}
            continue
        traced.append(_round_wall(sessions))
        metrics = tracing.round_metrics(
            tracer, tracer.self_times(), tracer.run, sessions, _batch_of(sessions)
        )
        metrics["trace.spans"] = float(len(tracer) - first_span)
        per_round.append(metrics)
        sessions = None
    if not per_round or not untraced:
        return ledger, {}, {}
    metrics = {name: statistics.median(values[name] for values in per_round) for name in per_round[0]}
    metrics["traces.build_s"] = _setup_seconds(tracer, "traces.build_workload")
    metrics["api.build_system_s"] = _setup_seconds(tracer, "api.build_system")
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(untraced)
    os.makedirs(SPANS_DIR, exist_ok=True)
    tracer.write(os.path.join(SPANS_DIR, f"{workload.name}-seed{seed}-spans.npz"))
    return ledger, metrics, {}


def main(argv: Optional[Sequence[str]] = None, size: workloads.Size = workloads.FULL) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one benchmark workload and print its metrics; the last line is JSON.",
    )
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time of the run")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: report per-layer metrics from a traced run instead",
    )
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        ledger, metrics, host = measure_traced(workload, args.seed, args.seconds, size)
        declared = PER_LAYER
    else:
        ledger, metrics, host = measure(workload, args.seed, args.seconds, size)
        declared = END_TO_END

    print(
        f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
        f"{ledger.attempted} sessions, {ledger.failed} failed"
    )
    for name, unit in declared:
        if name in metrics:
            print(f"  {name:<30} {metrics[name]:>16.6g} {unit}")
    for name, value in host.items():
        print(f"  {name:<30} {value:>16.6g} (host, unscaled)")
    print(f"sim_digest {workload.name} {ledger.digest}")
    print(f"error_rate {ledger.failed / ledger.attempted:g} ({ledger.failed}/{ledger.attempted})")
    complete = all(name in metrics for name, _ in declared)
    print(json.dumps({
        "correct": ledger.failed == 0 and complete,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in declared if name in metrics
        },
    }))
    return 0
