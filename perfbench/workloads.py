"""The benchmark's four workloads and the sessions they run.

Every workload replays the library's seeded Meta-like trace generator
(``meta`` distribution, 8 tables), re-seeded every batch
(:class:`MetaTrace`), at the size :data:`FULL`.  The seed comes from the
command line (default :data:`DEFAULT_SEED`) and drives the trace, the
Poisson arrivals and the fleet router, so one seed always gives the same
inputs.  All workloads run the vector engine.

============  =======================  =====  =====  =================================
workload      systems                  model  hosts  what runs
============  =======================  =====  =====  =================================
replay        pond, beacon, pifs-rec   RMC2   1      closed-loop replay, eager trace
serve         pifs-rec                 RMC1   2      open-loop serve, 1e6 qps, eager
serve-stream  pifs-rec                 RMC1   2      ``serve`` with the trace streamed
fleet         pifs-rec, 8 hash shards  RMC1   1      closed-loop streamed replay
============  =======================  =====  =====  =================================

``replay`` is the paper's Fig-12 comparison and the simulator's main use.
``serve`` adds admission, batching and batch dispatch over the same
kernels; ``serve-stream`` feeds the same inputs through the streamed serve
loop; ``fleet`` runs the shard views, routing and re-generated trace passes
of an 8-rack fleet serially in-process.

Host time is closed loop everywhere: sessions run back to back, each
starting when the previous one returns.  ``serve`` and ``serve-stream``
are open loop in *simulated* time: Poisson arrivals at the configured
rate, independent of completions.

The ``sim_*`` metrics come from the pifs-rec session and repeat exactly
for a seed:

* ``sim_ns_per_lookup`` is ``total_ns / lookups``.  Under serving,
  ``total_ns`` is the completion of the last request, so it follows the
  arrival schedule.
* ``sim_p50_us`` and ``sim_p999_us`` are per-request latency percentiles:
  arrival to completion under serving, and lane start to finish under
  closed-loop replay (the fleet pools its shards).

The simulator is unvalidated: the repository holds no measurements of real
hardware, so these figures carry no error against reality.  They pin the
model's own behaviour.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Any, Callable, ContextManager, Dict, Iterator, List, Optional, Tuple

import numpy as np

import repro.api.session as api
from repro.api.session import RunSpec, Simulation
from repro.config import WorkloadConfig
from repro.fleet.executor import Fleet
from repro.serve.server import ServeConfig, serve
from repro.sls.result import LatencyStats
from repro.traces.meta import TraceBatch, iter_meta_like_trace
from repro.traces.stream import BatchStream
from repro.traces.workload import StreamingWorkload, workload_from_batches

from perfbench.tracing import Patches

DEFAULT_SEED = 1
ENGINE = "vector"
ROUTER = "hash"
#: The system whose session gives the ``sim_*`` metrics.
PRIMARY = "pifs-rec"


@dataclass(frozen=True)
class Size:
    """Trace size: ``batches`` batches of ``batch_size`` queries over 8 tables."""

    batches: int
    batch_size: int


#: 24 x 64 queries x 8 tables = 12,288 requests per session, so p99.9 has
#: 12 samples beyond it.
FULL = Size(batches=24, batch_size=64)
#: The size the benchmark's own tests run.
TINY = Size(batches=2, batch_size=8)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (see the module docstring)."""

    name: str
    mode: str  # "replay", "serve" or "fleet"
    systems: Tuple[str, ...]
    model: str
    hosts: int = 1
    stream: bool = False
    qps: float = 0.0
    sla_ns: Optional[float] = None
    shards: int = 0


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("replay", "replay", ("pond", "beacon", "pifs-rec"), "RMC2"),
        Workload("serve", "serve", ("pifs-rec",), "RMC1", hosts=2, qps=1e6, sla_ns=50_000.0),
        Workload(
            "serve-stream", "serve", ("pifs-rec",), "RMC1",
            hosts=2, stream=True, qps=1e6, sla_ns=50_000.0,
        ),
        Workload("fleet", "fleet", ("pifs-rec",), "RMC1", stream=True, shards=8),
    )
}


class MetaBatches(BatchStream):
    """The Meta-like generator run once per batch config (see :class:`MetaTrace`)."""

    def __init__(self, configs: List[WorkloadConfig]) -> None:
        self.configs = configs

    def __iter__(self) -> Iterator[TraceBatch]:
        for config in self.configs:
            yield from iter_meta_like_trace(config)


@dataclass(frozen=True)
class MetaTrace:
    """Workload provider: the seeded Meta-like trace, re-seeded every batch.

    The library's generator draws each table's mean bag size once per
    seed.  Over 8 tables two seeds then differ by about 10 % in lookups per
    request, which moves every timed and simulated figure between seeds.
    One generator seed per batch, derived from the benchmark seed, averages
    those draws over batches x tables, so the figures barely move between
    seeds while each seed still gives its own rows and bags.  The hot row
    set depends only on the table size, so locality is the generator's.
    """

    seed: int

    label = "meta-per-batch"

    def build(self, spec: RunSpec):
        model = spec.scale.model(spec.model)
        configs = [
            WorkloadConfig(
                model=model,
                batch_size=spec.batch_size,
                pooling_factor=spec.scale.pooling_factor,
                num_batches=1,
                distribution="meta",
                seed=int(np.random.SeedSequence([self.seed, batch]).generate_state(1)[0]),
            )
            for batch in range(spec.num_batches)
        ]
        options = dict(
            distribution="meta",
            batch_size=spec.batch_size,
            num_batches=spec.num_batches,
            num_hosts=spec.num_hosts,
        )
        if spec.stream:
            return StreamingWorkload(MetaBatches(configs), model, **options)
        return workload_from_batches(list(MetaBatches(configs)), model, **options)


def session_spec(workload: Workload, system: str, seed: int, size: Size) -> RunSpec:
    """The library's run spec for one of the workload's sessions."""
    session = (
        Simulation(system)
        .model(workload.model)
        .workload_provider(MetaTrace(seed))
        .batch_size(size.batch_size)
        .num_batches(size.batches)
        .hosts(workload.hosts)
        .engine(ENGINE)
        .stream(workload.stream)
    )
    if workload.shards:
        session.fleet(workload.shards, router=ROUTER, seed=seed)
    return session.spec()


@dataclass
class Inputs:
    """What the sessions of one run share, built by :func:`build_inputs`."""

    workload: Workload
    specs: Dict[str, RunSpec]
    #: The seeded trace: an ``SLSWorkload``, or a ``StreamingWorkload``.
    trace: Any
    #: One system per session, built by set-up; sessions run on fresh copies.
    systems: List[Any]
    serve_config: Optional[ServeConfig]


def build_inputs(workload: Workload, seed: int, size: Size) -> Inputs:
    """Set-up: build the trace and the systems (the work ``setup_s`` times).

    The library caches built traces; callers clear that cache first so
    every set-up builds from scratch.
    """
    specs = {system: session_spec(workload, system, seed, size) for system in workload.systems}
    trace = api.build_workload(specs[workload.systems[0]])
    systems = [api.build_system(spec) for spec in specs.values()]
    config = None
    if workload.mode == "serve":
        config = ServeConfig(qps=workload.qps, arrival="poisson", seed=seed, sla_ns=workload.sla_ns)
    return Inputs(workload, specs, trace, systems, config)


@dataclass
class Session:
    """One timed call into the library: a replay, a serve or a fleet run."""

    system: str
    #: ``SimResult`` (replay), ``ServeResult`` (serve) or ``FleetResult``.
    result: Any
    wall_s: float
    lookups: int
    #: The system objects the session ran on (a fleet has one per shard).
    systems: List[Any]


SpanFactory = Callable[[str, Optional[str]], ContextManager]


def _no_span(name: str, tag: Optional[str] = None) -> ContextManager:
    return nullcontext()


def run_round(inputs: Inputs, span: SpanFactory = _no_span) -> List[Session]:
    """Run each of the workload's sessions once, each on a freshly built system.

    Fresh systems keep page-management policy state from carrying over
    between sessions.  Only the library call itself is timed.
    """
    workload = inputs.workload
    sessions: List[Session] = []
    for name in workload.systems:
        spec = inputs.specs[name]
        if workload.mode == "fleet":
            fleet = Fleet(spec)
            with span("bench.session", name):
                started = time.perf_counter()
                result = fleet.run(workers=0)
                wall_s = time.perf_counter() - started
            sessions.append(
                Session(name, result, wall_s, result.combined.lookups, list(fleet.systems))
            )
            continue
        system = api.build_system(spec)
        with span("bench.session", name):
            started = time.perf_counter()
            if workload.mode == "serve":
                result = serve(system, inputs.trace, inputs.serve_config)
            else:
                result = system.run(inputs.trace)
            wall_s = time.perf_counter() - started
        lookups = result.sim.lookups if workload.mode == "serve" else result.lookups
        sessions.append(Session(name, result, wall_s, lookups, [system]))
    return sessions


@contextmanager
def request_latencies(inputs: Inputs, sink: List[float]) -> Iterator[None]:
    """Collect the primary system's closed-loop request latencies into ``sink``.

    Wraps the request methods of the primary system's class (a fleet
    builds its shard systems itself) and restores them on exit.  Only the
    outermost call of a request is recorded.
    """
    depth = [0]

    def timed(original: Callable) -> Callable:
        def request(self, request, start_ns, host_id):
            depth[0] += 1
            try:
                finish_ns = original(self, request, start_ns, host_id)
            finally:
                depth[0] -= 1
            if not depth[0]:
                sink.append(finish_ns - start_ns)
            return finish_ns

        return request

    cls = type(inputs.systems[inputs.workload.systems.index(PRIMARY)])
    with Patches() as patches:
        patches.swap(cls, "process_request", timed)
        patches.swap(cls, "process_request_vector", timed)
        yield


def sim_metrics(workload: Workload, sessions: List[Session], latencies: List[float]) -> Dict[str, float]:
    """The ``sim_*`` metrics of one round (see the module docstring)."""
    primary = next(session for session in sessions if session.system == PRIMARY)
    result = primary.result
    if workload.mode == "serve":
        sim, stats = result.sim, result.latency
    else:
        sim = result.combined if workload.mode == "fleet" else result
        stats = LatencyStats.from_samples(latencies)
    return {
        "sim_ns_per_lookup": sim.total_ns / sim.lookups,
        "sim_p50_us": stats.p50_ns / 1e3,
        "sim_p999_us": stats.p999_ns / 1e3,
    }
