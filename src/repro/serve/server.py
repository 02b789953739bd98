"""Event-driven open-loop serving of an SLS workload.

The serving loop stands between the arrival processes and the simulated
systems: requests arrive open-loop (the arrival process does not wait for
completions), wait in per-host admission queues, are grouped by the dynamic
batcher, and are then serviced on the host's thread lanes by any registered
:class:`~repro.sls.engine.SLSSystem` through the engine's per-request
``service_request`` hook (or, under the vector engine, its batched twin
``service_batch_vector``).  Every request's enqueue → dispatch → complete
timestamps are recorded and folded into a :class:`ServeResult`.

The whole pipeline is deterministic: arrivals are seeded, batching is a
pure function of the arrival schedule, and batches are serviced in global
``(dispatch, host, sequence)`` order so the shared device models see one
well-defined access order regardless of Python iteration details.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import islice
from typing import Dict, List, Optional

from repro.serve.arrivals import UnknownArrivalError, arrival_process
from repro.serve.batcher import Batch, BatchPolicy, DynamicBatcher
from repro.serve.metrics import RequestRecord, ServeResult, summarize
from repro.serve.queue import AdmissionQueue
from repro.sls.engine import SLSSystem
from repro.traces.workload import SLSWorkload


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of one serving session (picklable, usable as a sweep unit).

    Every field is validated at construction; an invalid value raises a
    ``ValueError`` that names the field.
    """

    qps: float
    arrival: str = "poisson"
    max_batch_size: int = 8
    max_wait_ns: float = 100_000.0
    seed: int = 2024
    sla_ns: Optional[float] = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.qps) and self.qps > 0):
            raise ValueError(f"qps must be positive and finite, got {self.qps!r}")
        if self.sla_ns is not None and not self.sla_ns > 0:
            raise ValueError(f"sla_ns must be positive, got {self.sla_ns!r}")
        if self.max_batch_size < 1:
            raise ValueError(f"max_batch_size must be at least 1, got {self.max_batch_size!r}")
        if not self.max_wait_ns >= 0:
            raise ValueError(f"max_wait_ns must be non-negative, got {self.max_wait_ns!r}")
        try:
            arrival_process(self.arrival)
        except UnknownArrivalError as error:
            raise ValueError(f"arrival: {error}") from None

    @property
    def policy(self) -> BatchPolicy:
        return BatchPolicy(max_batch_size=self.max_batch_size, max_wait_ns=self.max_wait_ns)


def serve(system: SLSSystem, workload: SLSWorkload, config: ServeConfig) -> ServeResult:
    """Serve ``workload`` on ``system`` under ``config`` and return metrics.

    Request ``i`` (by request id) arrives at stamp ``i`` of the configured
    arrival schedule, so a fleet shard view, which holds only some ids, is
    offered its share of the load.  Ids must increase along the workload,
    as every workload source numbers them.  Each arrival is admitted to
    its host's queue and batched; a batch is serviced on that host's
    earliest-free thread lane, its requests back-to-back on one lane (the
    closed-loop engine's one-bag-per-thread model).

    One loop serves every workload.  The trace is consumed window by
    window (an eager workload is one window) and the arrival schedule is
    generated lazily, so a streamed trace stays at O(window) residency.
    Emitted batches wait in a min-heap keyed ``(dispatch, host, index)``
    and dispatch once sim-time provably passes them.  The watermark is
    ``min(T, earliest open-batch deadline across hosts)`` for the current
    arrival time ``T``: a future batch either fills on an arrival
    (dispatch ≥ T), times out (dispatch = its host's deadline, and
    per-host deadlines only move forward as entries drain), or flushes at
    close (again at its deadline) — so nothing can enter the heap below
    the watermark, and popping strictly below it dispatches batches in
    globally sorted ``(dispatch, host, index)`` order with a lookahead of
    about ``max_wait_ns`` worth of batches.

    Under the vector engine every batch is resolved and timed as one call
    to :meth:`~repro.sls.engine.SLSSystem.service_batch_vector`; otherwise
    each request goes through
    :meth:`~repro.sls.engine.SLSSystem.service_request`.  Both produce the
    same records and backend state.
    """
    process = arrival_process(config.arrival)
    arrivals = process.iter_arrival_times_ns(None, config.qps, config.seed)

    num_hosts = system.system.num_hosts
    threads_per_host = system.system.host_threads

    system.begin_session(workload)
    vector = getattr(system, "_vector", None)
    if vector is not None and getattr(workload, "streaming", False):
        # Streamed sessions keep the scalar dispatch that perfbench's
        # ``serve-stream`` workload measures; batch-scoped vector dispatch
        # is bit-identical on them (tests/test_serve.py), and switching it
        # on changes what that benchmark workload measures.  The context
        # is dropped before any request runs: its kernels snapshot the
        # fresh machine, and syncing them at finish would overwrite the
        # scalar path's state.
        system._vector = vector = None
        system._vector_fallback_reason = "streaming serve dispatches on the scalar path"
    batch_service = system.service_batch_vector if vector is not None else None
    obs = system.obs
    record_obs = obs.enabled

    queues = {host: AdmissionQueue(host) for host in range(num_hosts)}
    batchers = {
        host: DynamicBatcher(config.policy, queues[host]) for host in range(num_hosts)
    }
    lanes: Dict[int, List[float]] = {
        host: [0.0] * threads_per_host for host in range(num_hosts)
    }
    pending: List = []  # heap of (dispatch_ns, host_id, index, batch)
    records: List[RequestRecord] = []
    num_batches = 0

    def dispatch(batch: Batch) -> None:
        lane_times = lanes[batch.host_id]
        lane = min(range(threads_per_host), key=lambda i: (lane_times[i], i))
        dispatched = max(batch.dispatch_ns, lane_times[lane])
        requests = [entry.request for entry in batch.entries]
        if batch_service is not None:
            completions = batch_service(requests, dispatched, batch.host_id)
        else:
            completions = []
            cursor = dispatched
            for request in requests:
                cursor = system.service_request(request, cursor, batch.host_id)
                completions.append(cursor)
        # Requests run back-to-back: each starts where the previous one ended.
        started = dispatched
        for entry, complete_ns in zip(batch.entries, completions):
            records.append(
                RequestRecord(
                    request_id=entry.request.request_id,
                    host_id=batch.host_id,
                    lane=lane,
                    arrival_ns=entry.arrival_ns,
                    dispatch_ns=batch.dispatch_ns,
                    start_ns=started,
                    complete_ns=complete_ns,
                    lookups=entry.request.num_candidates,
                )
            )
            started = complete_ns
        lane_times[lane] = started
        if record_obs:
            obs.span(
                "batch", dispatched, started,
                track=f"host{batch.host_id}.lane{lane}", cat="serve",
                args={"size": len(batch.entries), "index": batch.index},
            )
            obs.count("serve.batches")
            for record in records[len(records) - len(batch.entries):]:
                if record.start_ns > record.arrival_ns:
                    obs.span(
                        "wait", record.arrival_ns, record.start_ns,
                        track=f"host{batch.host_id}.queue", cat="serve",
                        args={"id": record.request_id},
                    )

    with obs.phase("serve.stream"):
        next_id = 0
        for window in workload.iter_windows():
            for request in window:
                # Skip the stamps of ids this workload does not hold.
                arrival_ns = next(islice(arrivals, request.request_id - next_id, None))
                next_id = request.request_id + 1
                host = request.host_id % num_hosts
                for batch in batchers[host].offer(request, arrival_ns):
                    heapq.heappush(pending, (batch.dispatch_ns, batch.host_id, batch.index, batch))
                    num_batches += 1
                # Everything dispatching strictly below the watermark is final:
                # another host may still hold an open batch whose wait timer
                # already expired (it flushes at that deadline on its *next*
                # arrival or at close), so the safe horizon is the earliest
                # open deadline anywhere, not this arrival time (see docstring).
                watermark = arrival_ns
                for batcher in batchers.values():
                    deadline = batcher.queue.deadline_ns(config.max_wait_ns)
                    if deadline is not None and deadline < watermark:
                        watermark = deadline
                while pending and pending[0][0] < watermark:
                    dispatch(heapq.heappop(pending)[3])
        # The last window's requests are admitted: drop them before the
        # closing dispatches and the session's count pass.
        window = None
        for host in range(num_hosts):
            for batch in batchers[host].close():
                heapq.heappush(pending, (batch.dispatch_ns, batch.host_id, batch.index, batch))
                num_batches += 1
        while pending:
            dispatch(heapq.heappop(pending)[3])

    with obs.phase("serve.summarize"):
        records.sort(key=lambda record: record.request_id)
        total_ns = max((record.complete_ns for record in records), default=0.0)
        if record_obs:
            for host, queue in queues.items():
                if not queue.admitted:
                    continue
                for time_ns, depth in queue.timeline:
                    obs.counter(f"queue.host{host}", time_ns, depth)
    sim = system.finish_session(total_ns)

    # Mean queue depth averages over hosts that actually admitted work: a
    # host whose queue stayed empty must not drag the mean toward zero, and
    # a session where *no* host admitted anything (empty workload) reports
    # 0.0 instead of dividing by zero.
    active_queues = {h: q for h, q in queues.items() if q.admitted}
    mean_depth = (
        sum(queue.mean_depth() for queue in active_queues.values()) / len(active_queues)
        if active_queues
        else 0.0
    )
    return summarize(
        system.name,
        records,
        qps=config.qps,
        arrival=config.arrival,
        max_batch_size=config.max_batch_size,
        max_wait_ns=config.max_wait_ns,
        seed=config.seed,
        sla_ns=config.sla_ns,
        batches=num_batches,
        queue_depth_timelines={h: q.timeline for h, q in active_queues.items()},
        mean_queue_depth=mean_depth,
        max_queue_depth=max((q.max_depth for q in active_queues.values()), default=0),
        sim=sim,
    )


__all__ = ["ServeConfig", "serve"]
