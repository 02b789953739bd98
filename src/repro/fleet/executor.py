"""Fleet execution: N per-rack systems replaying shard views of one trace.

:class:`Fleet` composes ``fleet_shards`` independent
:class:`~repro.sls.engine.SLSSystem` instances — one per rack, each with
its own fabric and its shard of the partitioned table space — behind one
:class:`~repro.fleet.router.Router`.  Shards are embarrassingly
parallel, so execution generalizes the sweep engine's chunking from grid
points to shards: the same persistent worker pool
(:func:`repro.api.sweep.worker_pool`), the same parent-built shared
workload shipped once per task (a streaming workload travels as its
small stream handle), and the same deterministic reassembly — results
are collected in shard order, so serial and pooled execution are
byte-identical for any worker count.  Both run every shard through the
one shard executor, :func:`execute_shard`.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Any, List, Optional, Tuple

from repro.api.session import (
    RunSpec,
    build_system,
    build_workload,
    cached_workload,
    seed_workload_cache,
    system_label,
    workload_key,
)
from repro.fleet.result import (
    FleetResult,
    FleetServeResult,
    combine_sim_results,
    summarize_fleet_serve,
)
from repro.fleet.router import Router, make_router
from repro.fleet.shard import ShardWorkload, shard_views
from repro.obs.recorder import NULL_RECORDER, TraceRecorder
from repro.serve.server import serve

__all__ = ["Fleet", "execute_shard", "run_fleet", "serve_fleet"]


def _shard_base(spec: RunSpec) -> RunSpec:
    """The per-shard spec: the fleet fields cleared, everything else kept.

    Each shard is an ordinary single-system run over its shard view;
    clearing the fleet fields keeps :func:`execute_shard` from recursing
    and lets shards share the base spec's workload cache key.
    """
    return replace(spec, fleet_shards=0, fleet_router="table-affinity", fleet_seed=0)


def execute_shard(
    base_spec: RunSpec,
    router: Router,
    shard: int,
    num_shards: int,
    config: Any = None,
    shared_workload_key: Optional[str] = None,
    shared_workload: Any = None,
    record: bool = False,
    in_process: bool = False,
) -> dict:
    """Replay one shard, or serve it under ``config`` (the pool's unit).

    Module-level and picklable.  Mirrors
    :func:`repro.api.session.execute_chunk`: a parent-built shared
    workload is installed into the worker's cache first, and with
    ``record=True`` the payload's ``obs`` carries the shard's
    observability snapshot for ``shard-<i>`` attribution in the parent.
    The payload's ``result`` is the shard's ``SimResult`` or
    ``ServeResult``.  A served shard also ships ``samples``, its
    per-request (latency, queue_wait, service) triples: enough for exact
    fleet percentiles, so the record list itself is dropped before it
    would cross a process boundary.  With ``in_process=True`` nothing
    crosses one: the records stay and the payload's ``system`` holds the
    shard's system for inspection.
    """
    if shared_workload_key and shared_workload is not None:
        seed_workload_cache(shared_workload_key, shared_workload)
    system = build_system(base_spec)
    workload = ShardWorkload(build_workload(base_spec), router, shard, num_shards)
    recorder = NULL_RECORDER
    if record:
        recorder = TraceRecorder(label=f"shard-{shard}")
        set_recorder = getattr(system, "set_recorder", None)
        if set_recorder is not None:
            set_recorder(recorder)
    with recorder.phase(f"fleet.shard-{shard}"):
        result = system.run(workload) if config is None else serve(system, workload, config)
    payload = {
        "result": result,
        "obs": recorder.snapshot() if record else None,
        "pid": os.getpid(),
    }
    if config is not None:
        payload["samples"] = [
            (request.latency_ns, request.queue_wait_ns, request.service_ns)
            for request in result.records or []
        ]
        if not in_process:
            result.records = None
    if in_process:
        payload["system"] = system
    return payload


class Fleet:
    """N sharded systems behind a request router (see module docstring).

    Built from a fleet-shaped :class:`~repro.api.session.RunSpec`
    (``fleet_shards >= 1``); :meth:`run` and :meth:`serve` execute every
    shard — serially in-process with ``workers=0`` (retaining the shard
    systems on :attr:`systems` for inspection), or across the persistent
    worker pool with ``workers > 0`` — and aggregate the fleet result.
    """

    def __init__(self, spec: RunSpec) -> None:
        if spec.fleet_shards < 1:
            raise ValueError(
                "a Fleet needs fleet_shards >= 1; set it via Simulation.fleet(n)"
            )
        self.spec = spec
        self.base_spec = _shard_base(spec)
        self.num_shards = int(spec.fleet_shards)
        self.router = make_router(spec.fleet_router, seed=spec.fleet_seed)
        #: Per-shard systems of the last serial :meth:`run`/:meth:`serve`
        #: (``None`` after pooled execution — workers keep their systems).
        self.systems: Optional[List[Any]] = None

    @property
    def router_policy(self) -> str:
        return self.router.policy

    def shard_workloads(self) -> List[ShardWorkload]:
        """All shard views over the (cached) shared base workload."""
        return shard_views(build_workload(self.base_spec), self.router, self.num_shards)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _shared_workload(self) -> Tuple[Optional[str], Any]:
        """Parent-build the shared base workload once, as the sweep engine does."""
        key = workload_key(self.base_spec)
        shared = cached_workload(key)
        if shared is None:
            shared = build_workload(self.base_spec)
        return key, shared

    def _execute(self, config: Any, workers: int, recorder: Optional[Any]) -> List[dict]:
        """Run :func:`execute_shard` for every shard, pooled or serially in-process.

        Both paths hand every shard identical inputs and collect payloads
        in shard order, so their results match byte for byte.
        """
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers!r}")
        key, shared = self._shared_workload()
        args = [
            (self.base_spec, self.router, shard, self.num_shards, config, key, shared,
             recorder is not None)
            for shard in range(self.num_shards)
        ]
        if workers:
            from repro.api.sweep import worker_pool

            pool = worker_pool().get(min(int(workers), self.num_shards))
            pending = [pool.apply_async(execute_shard, shard_args) for shard_args in args]
            payloads = [task.get() for task in pending]
            self.systems = None
        else:
            payloads = [execute_shard(*shard_args, in_process=True) for shard_args in args]
            self.systems = [payload["system"] for payload in payloads]
        if recorder is not None:
            for shard, payload in enumerate(payloads):
                recorder.merge(payload["obs"], process=f"shard-{shard}")
        return payloads

    def run(self, workers: int = 0, recorder: Optional[Any] = None) -> FleetResult:
        """Replay every shard closed-loop and aggregate the fleet result."""
        per_shard = [payload["result"] for payload in self._execute(None, workers, recorder)]
        return FleetResult(
            system=system_label(self.spec.system),
            router=self.router_policy,
            num_shards=self.num_shards,
            combined=combine_sim_results(per_shard),
            per_shard=per_shard,
        )

    def serve(
        self, config: Any, workers: int = 0, recorder: Optional[Any] = None
    ) -> FleetServeResult:
        """Serve every shard open-loop under one arrival stream, concurrently.

        Request ``i`` arrives at stamp ``i`` of the configured arrival
        schedule whichever shard it is routed to, mirroring a frontend that
        fans one arrival stream out across racks: together the shards are
        offered the configured QPS.
        """
        payloads = self._execute(config, workers, recorder)
        return summarize_fleet_serve(
            system=system_label(self.spec.system),
            router=self.router_policy,
            qps=config.qps,
            sla_ns=config.sla_ns,
            per_shard=[payload["result"] for payload in payloads],
            samples=[payload["samples"] for payload in payloads],
        )


def run_fleet(
    spec: RunSpec, workers: int = 0, recorder: Optional[Any] = None
) -> FleetResult:
    """Run the fleet described by ``spec`` (see :class:`Fleet`)."""
    return Fleet(spec).run(workers=workers, recorder=recorder)


def serve_fleet(
    spec: RunSpec, config: Any, workers: int = 0, recorder: Optional[Any] = None
) -> FleetServeResult:
    """Serve the fleet described by ``spec`` open-loop (see :class:`Fleet`)."""
    return Fleet(spec).serve(config, workers=workers, recorder=recorder)
