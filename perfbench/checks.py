"""Checks on every timed session's simulated outputs, and ``sim_digest``.

A session fails when any check fails, and ``error_rate`` is failed
sessions over attempted ones.  The checks:

* the simulated result is identical to that of the run's first session
  (their digests match; see ``Ledger`` in bench.py);
* requests and lookups equal the trace's own totals, counted from the
  trace batches, and a fleet's shards sum to them exactly;
* every served request has arrival <= dispatch <= start <= complete;
* latency percentiles are monotone: p50 <= p90 <= p95 <= p99 <= p99.9;
* the offered load, requests over the arrival span, matches the
  configured QPS within :func:`offered_load_tolerance`.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Iterable, List, Sequence, Tuple

import numpy as np

from repro.serve.arrivals import NS_PER_S


def offered_load_tolerance(requests: int) -> float:
    """Five standard deviations of the rate of ``requests`` Poisson arrivals.

    The rate estimated from n arrivals has a relative standard deviation
    of 1/sqrt(n), so the tolerance is 4.5 % at 12,288 requests.
    """
    return 5.0 / math.sqrt(requests)


def trace_totals(trace: Any) -> Tuple[int, int]:
    """(requests, lookups) counted from the trace batches themselves.

    A request is one non-empty bag of one table in one batch; its lookups
    are the bag's indices.
    """
    batches = trace.stream if getattr(trace, "streaming", False) else trace.trace
    requests = lookups = 0
    for batch in batches:
        for table in range(batch.num_tables):
            indices = batch.indices_per_table[table]
            bounds = np.append(np.asarray(batch.offsets_per_table[table]), len(indices))
            requests += int(np.count_nonzero(np.diff(bounds)))
            lookups += len(indices)
    return requests, lookups


def result_digest(result: Any) -> str:
    """Hash of a result's dict form.

    ``to_dict`` of the replay, serve and fleet results leaves out the
    per-request records, and none of them holds a wall-clock field.
    """
    text = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def sim_digest(digests: Iterable[str]) -> str:
    """One digest for a round's sessions, printed as ``sim_digest``."""
    return hashlib.sha256("|".join(digests).encode()).hexdigest()[:16]


def check_counts(what: str, sim: Any, totals: Tuple[int, int]) -> List[str]:
    requests, lookups = totals
    problems = []
    if sim.requests != requests:
        problems.append(f"{what} has {sim.requests} requests, the trace {requests}")
    if sim.lookups != lookups:
        problems.append(f"{what} has {sim.lookups} lookups, the trace {lookups}")
    return problems


def check_percentiles(stats: Any) -> List[str]:
    values = [stats.p50_ns, stats.p90_ns, stats.p95_ns, stats.p99_ns, stats.p999_ns]
    if any(low > high for low, high in zip(values, values[1:])):
        return [f"latency percentiles p50..p99.9 are not monotone: {values}"]
    return []


def check_records(records: Sequence[Any]) -> List[str]:
    bad = [
        record for record in records
        if not record.arrival_ns <= record.dispatch_ns <= record.start_ns <= record.complete_ns
    ]
    if bad:
        return [f"{len(bad)} requests break arrival <= dispatch <= start <= complete, first {bad[0]}"]
    return []


def check_offered_load(records: Sequence[Any], qps: float) -> List[str]:
    if not records:
        return ["no request was served"]
    span_s = max(record.arrival_ns for record in records) / NS_PER_S
    offered = len(records) / span_s
    tolerance = offered_load_tolerance(len(records))
    if abs(offered / qps - 1.0) > tolerance:
        return [f"offered load {offered:.4g}/s is not {qps:.4g}/s within {tolerance:.1%}"]
    return []


def check_session(workload: Any, result: Any, totals: Tuple[int, int]) -> List[str]:
    """Every check of one session's result against the trace's totals."""
    if workload.mode == "fleet":
        problems = check_counts("the fleet", result.combined, totals)
        shards = result.per_shard
        if len(shards) != workload.shards:
            problems.append(f"{len(shards)} shard results for {workload.shards} shards")
        summed = (sum(sim.requests for sim in shards), sum(sim.lookups for sim in shards))
        if summed != tuple(totals):
            problems.append(f"shards sum to {summed} (requests, lookups), the trace {totals}")
        return problems
    if workload.mode == "serve":
        records = result.records or []
        problems = check_counts("the served session", result.sim, totals)
        served = (result.requests, len(records), sum(record.lookups for record in records))
        if served != (totals[0], totals[0], totals[1]):
            problems.append(f"served (requests, records, lookups) {served}, trace totals {totals}")
        problems += check_records(records)
        problems += check_percentiles(result.latency)
        problems += check_offered_load(records, workload.qps)
        return problems
    return check_counts(result.system, result, totals)
