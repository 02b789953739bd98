"""Cross-engine differential test harness.

One assertion shape pins the repository's load-bearing guarantee: every
engine tier ({scalar, vector, packet}), every workload residency mode
({eager, streaming}) and every observability mode ({recording off, on})
must produce the *same simulation* — bit-identical SimResult counters,
latency records, backend/memory state, and (within an engine) NetStats.

:func:`assert_run_identical` / :func:`assert_serve_identical` run every
requested ``(engine, streaming, observe)`` variant of one spec and check:

* **within an engine**: all variants are fully identical, including the
  packet tier's ``net`` report;
* **across engines**: identical after stripping ``net`` (only the packet
  tier produces one — its *presence* is the only allowed difference).

A spec is either an :class:`~repro.api.session.RunSpec` (the facade's
picklable run description — scenarios compile to one) or a plain
:class:`RunCase` (registered system name + machine config + seeded
workload recipe) for fixture-level tests that bypass the facade.

Both functions return the per-engine fingerprints so callers can make
additional engine-specific assertions (e.g. that the packet tier counted
packets and saw no congestion) without re-running anything.
"""

from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.api.registry import create_system
from repro.api.session import RunSpec
from repro.api.session import build_system as _build_spec_system
from repro.api.session import build_workload as _build_spec_workload
from repro.config import SystemConfig, WorkloadConfig
from repro.obs.recorder import TraceRecorder
from repro.serve.server import ServeConfig, serve
from repro.sls.engine import ENGINES
from repro.traces.workload import build_workload

__all__ = [
    "ENGINES",
    "RunCase",
    "assert_fleet_identical",
    "assert_run_identical",
    "assert_serve_identical",
    "backend_fingerprint",
    "record_tuples",
    "run_fingerprint",
    "serve_fingerprint",
    "sim_fingerprint",
]


@dataclass(frozen=True)
class RunCase:
    """A differential case outside the spec facade.

    ``workload`` is the seeded recipe, not a built workload object — the
    harness builds the eager and streaming twins from it, which is exactly
    the equivalence under test.
    """

    system: str
    config: SystemConfig
    workload: WorkloadConfig
    num_hosts: int = 1


def _build(spec, engine: str, streaming: bool):
    """(system, workload) for one variant of the spec."""
    if isinstance(spec, RunCase):
        system = create_system(spec.system, spec.config).set_engine(engine)
        workload = build_workload(
            spec.workload, num_hosts=spec.num_hosts, streaming=streaming
        )
        return system, workload
    if isinstance(spec, RunSpec):
        variant = replace(spec, engine=engine, stream=streaming)
        return _build_spec_system(variant), _build_spec_workload(variant)
    raise TypeError(
        f"expected a RunSpec or harness.RunCase, got {type(spec).__name__}"
    )


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------
def backend_fingerprint(system) -> dict:
    """Observable backend/memory state after a session (for exact equality)."""
    backends = system.backends
    state = {
        "devices": [
            (device.reads, device.writes, device.link.bytes_transferred,
             device.link.transfers, device.link.busy_until_ns,
             device.link.total_queue_delay_ns)
            for device in backends.devices
        ],
        "device_dram": [
            (device.dram.controller.requests,
             device.dram.controller.average_latency_ns(),
             device.dram.controller.row_buffer_hit_rate(),
             device.dram.controller.last_finish_ns)
            for device in backends.devices
        ],
        "local_dram": [
            (dram.controller.requests, dram.controller.average_latency_ns(),
             dram.controller.row_buffer_hit_rate(), dram.controller.last_finish_ns)
            for dram in backends.local_dram_per_host
        ],
        "switch_forwarded": [switch.forwarded_requests for switch in backends.switches],
        "ports": sorted(
            (key, port.link.bytes_transferred, port.link.transfers,
             port.link.busy_until_ns, port.link.total_queue_delay_ns)
            for key, port in backends.host_ports.items()
        ),
        "pages": (
            system.tiered.node_id_table().tolist(),
            system.tiered.access_count_table().tolist(),
        ),
        "node_access": system.tiered.node_access_counts(),
    }
    from repro.pifs.switch import PIFSSwitch

    for switch in backends.switches:
        if isinstance(switch, PIFSSwitch):
            state.setdefault("pifs", []).append(
                (switch.buffer.hits, switch.buffer.misses, switch.buffer.evictions,
                 switch.buffer.occupancy, sorted(switch.buffer._entries),
                 switch.process_core._earliest_free_ns,
                 switch._next_sumtag)
            )
    return state


def sim_fingerprint(result) -> Dict[str, Any]:
    """A SimResult as ``{"sim": <dict without net>, "net": <net or None>}``."""
    data = result.to_dict()
    return {"net": data.pop("net", None), "sim": data}


def run_fingerprint(system, result) -> Dict[str, Any]:
    """Closed-loop fingerprint: SimResult + NetStats + backend state."""
    fingerprint = sim_fingerprint(result)
    fingerprint["backend"] = backend_fingerprint(system)
    return fingerprint


def record_tuples(records) -> list:
    """Latency records as plain tuples (exact equality, order included)."""
    return [
        (r.request_id, r.host_id, r.lane, r.arrival_ns,
         r.dispatch_ns, r.start_ns, r.complete_ns, r.lookups)
        for r in (records or ())
    ]


def serve_fingerprint(result) -> Dict[str, Any]:
    """Open-loop fingerprint: ServeResult dict + NetStats + latency records."""
    data = result.to_dict()
    sim = data.get("sim")
    net = sim.pop("net", None) if isinstance(sim, dict) else None
    return {"net": net, "serve": data, "records": record_tuples(result.records)}


def _strip_net(fingerprint: Dict[str, Any]) -> Dict[str, Any]:
    return {key: value for key, value in fingerprint.items() if key != "net"}


def _fleet_serve_dict_without_net(result) -> Dict[str, Any]:
    """A FleetServeResult dict with every (combined and per-shard) ``net`` removed."""
    data = result.to_dict()
    for sim in [data["sim"]] + [shard["sim"] for shard in data["per_shard"]]:
        if sim is not None:
            sim.pop("net", None)
    return data


# ---------------------------------------------------------------------------
# The differential assertions
# ---------------------------------------------------------------------------
def _attach_recorder(system) -> TraceRecorder:
    recorder = TraceRecorder()
    set_recorder = getattr(system, "set_recorder", None)
    assert set_recorder is not None, "system does not support observability"
    set_recorder(recorder)
    return recorder


def _check_vector_context(system, engine: str, streaming: bool, serving: bool) -> None:
    """The vector engine must actually have engaged (not silently fallen back).

    A context lives for one session, so after the run none is left; a
    vector session built one exactly when it recorded no fallback reason.
    """
    assert system._vector is None, "the vector context outlived its session"
    if engine != "vector" or not getattr(system, "supports_vector_engine", True):
        return
    if serving and streaming:
        # Streaming serve dispatches on the scalar oracle path by design
        # (results are pinned identical to the vector path regardless).
        return
    assert system._vector_fallback_reason is None, "vector context was not built"


def _sweep_variants(spec, *, engines, streaming, observe, execute) -> Dict[str, Any]:
    """Shared driver: run every variant, compare within and across engines."""
    per_engine: Dict[str, Any] = {}
    reference: Optional[Tuple[Dict[str, Any], str]] = None
    for engine in engines:
        engine_reference: Optional[Tuple[Dict[str, Any], str]] = None
        for stream in streaming:
            for observed in observe:
                label = f"engine={engine}, streaming={stream}, observe={observed}"
                fingerprint = execute(engine, stream, observed)
                if engine_reference is None:
                    engine_reference = (fingerprint, label)
                else:
                    assert fingerprint == engine_reference[0], (
                        f"{label} diverged from {engine_reference[1]}"
                    )
        assert engine_reference is not None, "empty streaming/observe axes"
        per_engine[engine] = engine_reference[0]
        stripped = _strip_net(engine_reference[0])
        if reference is None:
            reference = (stripped, engine_reference[1])
        else:
            assert stripped == reference[0], (
                f"{engine_reference[1]} diverged from {reference[1]}"
            )
    return per_engine


def assert_run_identical(
    spec,
    *,
    engines: Sequence[str] = ENGINES,
    streaming: Sequence[bool] = (False, True),
    observe: Sequence[bool] = (False,),
) -> Dict[str, Any]:
    """Pin closed-loop bit-identity across every requested variant.

    Runs the spec once per ``(engine, streaming, observe)`` combination
    and asserts the fingerprints (SimResult, NetStats, backend state)
    agree — fully within an engine, net-stripped across engines.  Returns
    ``{engine: fingerprint}`` for follow-up engine-specific assertions.
    """

    def execute(engine: str, stream: bool, observed: bool) -> Dict[str, Any]:
        system, workload = _build(spec, engine, stream)
        recorder = _attach_recorder(system) if observed else None
        result = system.run(workload)
        _check_vector_context(system, engine, stream, serving=False)
        if recorder is not None:
            assert len(recorder) > 0, "recording captured no events"
        return run_fingerprint(system, result)

    return _sweep_variants(
        spec, engines=engines, streaming=streaming, observe=observe, execute=execute
    )


def assert_fleet_identical(
    spec,
    *,
    shard_counts: Sequence[int] = (1, 3),
    engines: Sequence[str] = ENGINES,
    streaming: Sequence[bool] = (False, True),
    observe: Sequence[bool] = (False,),
    serve_config: Optional[ServeConfig] = None,
    workers: int = 2,
) -> Dict[str, Any]:
    """Pin the fleet layer's two oracles (the fleet analogue of the above).

    1. **1-shard fleet ≡ single system.**  For every ``(engine,
       streaming, observe)`` variant, a 1-shard fleet of the spec must be
       bit-identical to the plain single-system run: SimResult counters,
       NetStats, the shard system's backend/memory state — and, when
       ``serve_config`` is given, the full ServeResult including the
       per-request latency records.
    2. **Worker-count independence.**  For every count in
       ``shard_counts``, serial (in-process) and pooled execution of the
       same fleet spec must produce identical result dicts.

    Fleet execution goes through the spec facade, so ``spec`` must be a
    :class:`~repro.api.session.RunSpec`; a :class:`RunCase` raises
    ``TypeError``.  Returns the per-engine single-run fingerprints.
    """
    if not isinstance(spec, RunSpec):
        raise TypeError(
            "assert_fleet_identical needs a RunSpec (fleets compile from the "
            f"spec facade), got {type(spec).__name__}"
        )
    from repro.fleet.executor import Fleet

    def one_shard_spec(engine: str, stream: bool) -> RunSpec:
        return replace(
            spec, engine=engine, stream=stream, fleet_shards=1,
            fleet_router=spec.fleet_router, fleet_seed=spec.fleet_seed,
        )

    def execute(engine: str, stream: bool, observed: bool) -> Dict[str, Any]:
        plain = replace(spec, engine=engine, stream=stream, fleet_shards=0)
        label = f"engine={engine}, streaming={stream}, observe={observed}"

        system, workload = _build(plain, engine, stream)
        recorder = _attach_recorder(system) if observed else None
        result = system.run(workload)
        if recorder is not None:
            assert len(recorder) > 0, "recording captured no events"
        single_fp = run_fingerprint(system, result)

        fleet = Fleet(one_shard_spec(engine, stream))
        fleet_recorder = TraceRecorder() if observed else None
        fleet_result = fleet.run(recorder=fleet_recorder)
        assert fleet.systems is not None and len(fleet.systems) == 1
        fleet_fp = run_fingerprint(fleet.systems[0], fleet_result.per_shard[0])
        assert fleet_fp == single_fp, (
            f"1-shard fleet diverged from the single-system run ({label})"
        )
        # The combined aggregate of one shard IS the shard (net included).
        assert fleet_result.combined.to_dict() == result.to_dict(), (
            f"1-shard combined aggregate diverged ({label})"
        )
        if fleet_recorder is not None:
            assert len(fleet_recorder) > 0, "fleet recording captured no events"

        if serve_config is not None:
            serve_system, serve_workload = _build(plain, engine, stream)
            single_serve = serve(serve_system, serve_workload, serve_config)
            fleet_serve = Fleet(one_shard_spec(engine, stream)).serve(serve_config)
            assert fleet_serve.per_shard, "fleet serve returned no shard results"
            assert serve_fingerprint(fleet_serve.per_shard[0]) == serve_fingerprint(
                single_serve
            ), f"1-shard fleet serve diverged from the single-system serve ({label})"
            assert fleet_serve.latency == single_serve.latency, (
                f"fleet-level latency stats diverged ({label})"
            )
        return single_fp

    per_engine = _sweep_variants(
        spec, engines=engines, streaming=streaming, observe=observe, execute=execute
    )

    # Worker-count independence (serial vs pooled) for every shard count,
    # on every engine x streaming variant — shard views leave request-id
    # gaps the vector context must handle, so the pooled/serial sweep must
    # not silently run a single fidelity.  Across engines, the multi-shard
    # combined aggregate and the serial serve result must agree once
    # NetStats (packet-tier-only) is stripped — the same
    # within/across-engine contract the single-system oracles pin.
    for shards in shard_counts:
        for stream in streaming:
            reference = None
            serve_reference = None
            for engine in engines:
                fleet_spec = replace(
                    spec, engine=engine, stream=stream, fleet_shards=int(shards)
                )
                label = f"shards={shards}, engine={engine}, streaming={stream}"
                serial = Fleet(fleet_spec).run()
                pooled = Fleet(fleet_spec).run(workers=workers)
                assert serial.to_dict() == pooled.to_dict(), (
                    f"pooled fleet run diverged from serial ({label})"
                )
                combined = dict(serial.combined.to_dict(), net=None)
                if reference is None:
                    reference = (combined, label)
                else:
                    assert combined == reference[0], (
                        f"fleet combined aggregate: {label} diverged from "
                        f"{reference[1]}"
                    )
                if serve_config is not None:
                    serial_serve = Fleet(fleet_spec).serve(serve_config)
                    pooled_serve = Fleet(fleet_spec).serve(
                        serve_config, workers=workers
                    )
                    assert serial_serve.to_dict() == pooled_serve.to_dict(), (
                        f"pooled fleet serve diverged from serial ({label})"
                    )
                    served = _fleet_serve_dict_without_net(serial_serve)
                    if serve_reference is None:
                        serve_reference = (served, label)
                    else:
                        assert served == serve_reference[0], (
                            f"fleet serve: {label} diverged from {serve_reference[1]}"
                        )
    return per_engine


def assert_serve_identical(
    spec,
    config: ServeConfig,
    *,
    engines: Sequence[str] = ENGINES,
    streaming: Sequence[bool] = (False, True),
    observe: Sequence[bool] = (False,),
) -> Dict[str, Any]:
    """Pin open-loop (serving) bit-identity across every requested variant.

    Like :func:`assert_run_identical` but drives the system through the
    :mod:`repro.serve` loop; the fingerprint carries the full ServeResult
    dict, the NetStats, and the per-request latency records.
    """

    def execute(engine: str, stream: bool, observed: bool) -> Dict[str, Any]:
        system, workload = _build(spec, engine, stream)
        recorder = _attach_recorder(system) if observed else None
        result = serve(system, workload, config)
        _check_vector_context(system, engine, stream, serving=True)
        if recorder is not None:
            assert len(recorder) > 0, "recording captured no events"
        return serve_fingerprint(result)

    return _sweep_variants(
        spec, engines=engines, streaming=streaming, observe=observe, execute=execute
    )
