"""Fluent simulation sessions.

:class:`Simulation` is the single entry point that owns the whole
config-derivation → system-construction → workload-building pipeline the
experiment drivers, examples and CLI used to hand-wire::

    from repro.api import Simulation

    result = Simulation("pifs-rec").model("RMC4").hosts(4).batch_size(64).run()

A session compiles to an immutable, picklable :class:`RunSpec`;
:func:`execute_spec` turns a spec into a :class:`RunResult` and is the unit
of work the parallel sweep engine ships to worker processes.  Results are
cached by a stable hash of the spec (:func:`spec_key`), so repeated runs of
an identical configuration are free.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import os
import pickle
import types
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Dict, Optional, Sequence, Tuple, Union

from repro.api.registry import SystemFactory, UnknownSystemError, system_factory
from repro.api.results import RunResult
from repro.config import DEFAULT_SYSTEM, ModelConfig, SystemConfig
from repro.experiments.common import (
    DEFAULT_SCALE,
    QUICK_SCALE,
    EvaluationScale,
    evaluation_system,
    evaluation_workload,
)

#: A config transform rewrites the derived :class:`SystemConfig` (e.g. to
#: swap the on-switch buffer policy).  Must be picklable (module-level
#: functions or callable class instances) to work with parallel sweeps.
ConfigTransform = Callable[[SystemConfig], SystemConfig]

SystemLike = Union[str, SystemFactory]


@dataclass(frozen=True)
class RunSpec:
    """Immutable, picklable description of one simulation run."""

    system: SystemLike = "pifs-rec"
    model: Union[str, ModelConfig] = "RMC1"
    scale: EvaluationScale = DEFAULT_SCALE
    distribution: Optional[str] = None
    batch_size: Optional[int] = None
    num_batches: Optional[int] = None
    pooling_factor: Optional[int] = None
    num_hosts: int = 1
    num_fabric_switches: int = 1
    num_cxl_devices: Optional[int] = None
    local_capacity_bytes: Optional[int] = None
    base_config: SystemConfig = DEFAULT_SYSTEM
    config_transforms: Tuple[ConfigTransform, ...] = ()
    system_options: Tuple[Tuple[str, Any], ...] = ()
    engine: str = "scalar"
    #: Optional workload provider (``.build(spec) -> SLSWorkload``): trace
    #: files, drifting popularity, multi-tenant mixes — see
    #: :mod:`repro.scenarios.workloads`.  ``None`` uses the stationary
    #: synthetic generators.
    workload_provider: Optional[Any] = None
    #: Fault/degradation specs applied at every session setup (see
    #: :mod:`repro.scenarios.faults`); both engines see them identically.
    faults: Tuple[Any, ...] = ()
    #: Packet-tier configuration (:class:`~repro.net.fabric.PacketConfig`);
    #: only consulted when ``engine == "packet"``.  ``None`` is the
    #: uncongested default (unbounded port buffers).
    packet: Optional[Any] = None
    #: Out-of-core streaming: build the workload as a
    #: :class:`~repro.traces.workload.StreamingWorkload` (requests are
    #: materialized window by window; RSS stays O(window) instead of
    #: O(trace)).  The simulated numbers are bit-identical either way.
    stream: bool = False
    #: Fleet execution: partition the workload across this many per-rack
    #: systems behind ``fleet_router`` (see :mod:`repro.fleet`).  ``0``
    #: is the plain single-system run; ``1`` is a one-rack fleet, which
    #: replays bit-identically to the single-system run.
    fleet_shards: int = 0
    #: Request-routing policy in front of the fleet's shards (one of
    #: :data:`repro.fleet.router.ROUTER_POLICIES`).
    fleet_router: str = "table-affinity"
    #: Seed for the router's hashing/tie-breaking decisions.
    fleet_seed: int = 0

    def __post_init__(self) -> None:
        """Reject out-of-range knobs here, naming the field, instead of clamping them later."""
        for name in _AT_LEAST_ONE:
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value!r}")
        if self.fleet_shards < 0:
            raise ValueError(f"fleet_shards must be >= 0, got {self.fleet_shards!r}")
        # Imported here: repro.fleet imports this module.
        from repro.fleet.router import ROUTER_POLICIES

        if self.fleet_router not in ROUTER_POLICIES:
            known = ", ".join(ROUTER_POLICIES)
            raise ValueError(f"unknown fleet_router {self.fleet_router!r}; expected one of: {known}")


#: Count fields of :class:`RunSpec` that must be at least 1 when set
#: (``None`` means the scale's default).
_AT_LEAST_ONE = (
    "batch_size", "num_batches", "pooling_factor",
    "num_hosts", "num_fabric_switches", "num_cxl_devices",
)


def system_label(system: SystemLike) -> str:
    """Display label of a system axis value (name string or factory)."""
    if isinstance(system, str):
        return system
    label = getattr(system, "label", None)
    if label:
        return str(label)
    name = getattr(system, "name", None)
    if isinstance(name, str) and name:
        return name
    return getattr(system, "__name__", repr(system))


def model_label(model: Union[str, ModelConfig]) -> str:
    return model if isinstance(model, str) else model.name


#: Object ids currently being tokenized — breaks reference cycles (e.g. a
#: method using ``super()`` holds a ``__class__`` closure cell pointing back
#: at the class being tokenized).
_TOKEN_STACK: set = set()


def _stable_token(value: Any) -> str:
    """A deterministic string for hashing spec fields.

    Never falls back to the default ``repr`` of an arbitrary object: that
    embeds a memory address, which is both unstable across processes and —
    worse — reusable after garbage collection, so two *different* configs
    could silently share a cache key.  Objects are tokenized structurally
    (type plus recursively tokenized state) instead.
    """
    marker = id(value)
    if marker in _TOKEN_STACK:
        return f"<cycle:{type(value).__qualname__}>"
    _TOKEN_STACK.add(marker)
    try:
        return _stable_token_inner(value)
    finally:
        _TOKEN_STACK.discard(marker)


def _stable_token_inner(value: Any) -> str:
    if isinstance(value, functools.partial):
        inner = ", ".join(
            [_stable_token(value.func)]
            + [_stable_token(a) for a in value.args]
            + [f"{k}={_stable_token(v)}" for k, v in sorted(value.keywords.items())]
        )
        return f"partial({inner})"
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(_stable_token(item) for item in value) + ")"
    if isinstance(value, dict):
        # Sort by tokenized key so unorderable keys and dict insertion order
        # cannot change the hash.
        items = sorted((_stable_token(k), _stable_token(v)) for k, v in value.items())
        return "{" + ", ".join(f"{k}: {v}" for k, v in items) + "}"
    if isinstance(value, (set, frozenset)):
        return "{" + ", ".join(sorted(_stable_token(item) for item in value)) + "}"
    if value is None or isinstance(value, (bool, int, float, complex, str, bytes)):
        return repr(value)
    # Objects with external state (e.g. a file-backed workload provider)
    # expose cache_token() so their cache identity tracks the state the
    # fields alone cannot see — an overwritten trace file must not be
    # served stale from the workload/result caches.
    token_fn = getattr(value, "cache_token", None)
    if callable(token_fn):
        return _stable_token(token_fn())
    if inspect.isclass(value):
        return _class_token(value)
    if inspect.isroutine(value):
        # Qualname alone is not enough: two lambdas/closures from the same
        # factory share it.  Fold in the bound receiver, closure cells,
        # argument defaults and a body hash so distinct behavior hashes
        # distinctly.
        token = f"{getattr(value, '__module__', '?')}.{value.__qualname__}"
        receiver = getattr(value, "__self__", None)
        if receiver is not None:
            token += f"<{_stable_token(receiver)}>"
        closure = getattr(value, "__closure__", None)
        if closure:
            token += "[" + ", ".join(_stable_token(cell.cell_contents) for cell in closure) + "]"
        defaults = getattr(value, "__defaults__", None)
        if defaults:
            token += "(" + ", ".join(_stable_token(item) for item in defaults) + ")"
        code = getattr(value, "__code__", None)
        if code is not None:
            token += "#" + _code_token(code)
        return token
    cls = type(value)
    state = getattr(value, "__dict__", None)
    if state is None:
        state = {name: getattr(value, name) for name in getattr(cls, "__slots__", ()) if hasattr(value, name)}
    if state:
        items = ", ".join(f"{key}={_stable_token(item)}" for key, item in sorted(state.items()))
        return f"{cls.__module__}.{cls.__qualname__}({items})"
    # No introspectable state (extension types like numpy arrays): hash the
    # pickled content.  An object that cannot be pickled either has no
    # stable token — raise so callers bypass the cache for this spec rather
    # than risk two different configs sharing a key.
    try:
        payload = pickle.dumps(value, protocol=4)
    except Exception as error:
        raise TypeError(f"cannot derive a stable cache token for {value!r}") from error
    return f"{cls.__module__}.{cls.__qualname__}~{hashlib.sha256(payload).hexdigest()[:12]}"


def _class_token(cls: type) -> str:
    """Token for a class: qualified name plus a hash of its own behavior.

    Qualname alone is not enough — a notebook cell or parametrized factory
    can re-define a class of the same name with different behavior (e.g. a
    method closing over a parameter), and a name-only token would serve the
    old class's cached results for the new one.
    """
    parts = [
        f"{cls.__module__}.{cls.__qualname__}",
        "(" + ", ".join(f"{base.__module__}.{base.__qualname__}" for base in cls.__bases__) + ")",
    ]
    for attr_name in sorted(vars(cls)):
        if attr_name.startswith("__") and attr_name not in ("__init__", "__call__"):
            continue
        attr = inspect.getattr_static(cls, attr_name)
        attr = getattr(attr, "__func__", attr)  # unwrap static/classmethods
        try:
            if inspect.isroutine(attr):
                parts.append(f"{attr_name}:{_stable_token(attr)}")
            elif attr is None or isinstance(attr, (bool, int, float, str, bytes, tuple)):
                parts.append(f"{attr_name}={attr!r}")
        except TypeError:
            continue  # untokenizable attribute: skip rather than fail the class
    digest = hashlib.sha256("|".join(parts).encode()).hexdigest()[:12]
    return f"{cls.__module__}.{cls.__qualname__}#{digest}"


def _code_token(code: types.CodeType) -> str:
    """Hash a code object's behavior: bytecode, constants and names.

    Bytecode alone is not enough — constants are referenced by index, so two
    lambdas differing only in a literal share identical ``co_code``.
    """
    consts = ", ".join(
        _code_token(const) if isinstance(const, types.CodeType) else _stable_token(const)
        for const in code.co_consts
    )
    payload = "|".join((code.co_code.hex(), consts, ",".join(code.co_names)))
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _system_token(system: SystemLike) -> str:
    """Token for the spec's system field.

    Names are resolved to their registered factory so (a) a ``replace=True``
    re-registration changes the cache key instead of silently serving the
    previous factory's cached results, and (b) ``Simulation("pond")`` and
    ``Simulation(PondSystem)`` share cached work.  Unknown names fall back
    to the raw string — execution will raise the proper error.
    """
    if isinstance(system, str):
        try:
            return _stable_token(system_factory(system))
        except UnknownSystemError:
            return repr(system)
    return _stable_token(system)


def _cache_view(spec: RunSpec) -> RunSpec:
    """Resolve defaulted fields so semantically equal specs hash equally.

    ``distribution=None`` runs the same workload as ``distribution="meta"``
    and ``batch_size=None`` the same as the scale's default — normalizing
    before hashing lets e.g. fig12b's meta column hit fig12a's cache.
    """
    scale = spec.scale
    return replace(
        spec,
        distribution=spec.distribution or "meta",
        batch_size=scale.batch_size if spec.batch_size is None else spec.batch_size,
        num_batches=scale.num_batches if spec.num_batches is None else spec.num_batches,
        pooling_factor=(
            scale.pooling_factor if spec.pooling_factor is None else spec.pooling_factor
        ),
        num_cxl_devices=(
            scale.num_cxl_devices if spec.num_cxl_devices is None else spec.num_cxl_devices
        ),
        local_capacity_bytes=(
            scale.local_capacity_bytes()
            if spec.local_capacity_bytes is None
            else spec.local_capacity_bytes
        ),
    )


def spec_key(spec: RunSpec) -> str:
    """Stable content hash of a :class:`RunSpec` (the result-cache key).

    Raises :class:`TypeError` when the spec carries an object no stable
    token can be derived for; use :func:`safe_spec_key` to bypass the cache
    in that case.
    """
    spec = _cache_view(spec)
    tokens = []
    for spec_field in fields(RunSpec):
        value = getattr(spec, spec_field.name)
        token = _system_token(value) if spec_field.name == "system" else _stable_token(value)
        tokens.append(f"{spec_field.name}={token}")
    return hashlib.sha256("|".join(tokens).encode()).hexdigest()[:16]


def safe_spec_key(spec: RunSpec) -> Optional[str]:
    """:func:`spec_key`, or ``None`` when the spec is not stably hashable."""
    try:
        return spec_key(spec)
    except TypeError:
        return None


def build_system_config(spec: RunSpec) -> SystemConfig:
    """Derive the :class:`SystemConfig` for a spec."""
    config = evaluation_system(
        spec.scale,
        num_cxl_devices=spec.num_cxl_devices,
        num_fabric_switches=spec.num_fabric_switches,
        num_hosts=spec.num_hosts,
        local_capacity_bytes=spec.local_capacity_bytes,
        base=spec.base_config,
    )
    for transform in spec.config_transforms:
        config = transform(config)
    return config


def workload_key(spec: RunSpec) -> Optional[str]:
    """Hash of only the workload-determining spec fields (or ``None``).

    Two specs with equal keys replay the identical seeded workload — the
    workload cache and the sweep engine's chunked scheduling (grid points
    sharing a workload are executed by the same worker) both key on it.
    """
    view = _cache_view(spec)
    parts = (
        view.model,
        view.scale,
        view.distribution,
        view.batch_size,
        view.num_batches,
        view.pooling_factor,
        view.num_hosts,
        view.workload_provider,
        # A streaming workload is a different container type (lazy windows
        # vs. a materialized request list); the caches must not hand one
        # out where the other was built.
        view.stream,
    )
    try:
        return hashlib.sha256(_stable_token(parts).encode()).hexdigest()[:16]
    except TypeError:
        return None


#: Backwards-compatible private alias (pre-existing internal name).
_workload_key = workload_key


def build_workload(spec: RunSpec):
    """Build (or reuse) the seeded SLS workload for a spec.

    Workloads are deterministic functions of a few spec fields and are
    read-only during simulation (the seed drivers shared one workload
    object across systems), so grid points differing only in machine or
    system configuration share a single build instead of regenerating an
    identical trace per run.
    """
    key = workload_key(spec)
    if key is not None:
        hit = _WORKLOAD_CACHE.get(key)
        if hit is not None:
            return hit
    if spec.workload_provider is not None:
        # Providers honor ``spec.stream`` themselves where it applies
        # (TraceFileWorkload streams its file; generators that must
        # materialize — drift, multi-tenant — build eagerly regardless).
        workload = spec.workload_provider.build(spec)
    else:
        workload = evaluation_workload(
            spec.model,
            spec.scale,
            distribution=spec.distribution or "meta",
            batch_size=spec.batch_size,
            num_hosts=spec.num_hosts,
            num_batches=spec.num_batches,
            pooling_factor=spec.pooling_factor,
            streaming=spec.stream,
        )
    if key is not None:
        seed_workload_cache(key, workload)
    return workload


def cached_workload(key: Optional[str]):
    """The workload cached under ``key``, or ``None``."""
    if not key:
        return None
    return _WORKLOAD_CACHE.get(key)


def seed_workload_cache(key: str, workload) -> None:
    """Install a pre-built workload under its :func:`workload_key`.

    The sweep engine ships parent-built workloads into its persistent
    workers with the chunk they belong to, so no worker ever re-derives a
    trace the parent (or an earlier sweep) already built.
    """
    _WORKLOAD_CACHE[key] = workload
    while len(_WORKLOAD_CACHE) > _WORKLOAD_CACHE_MAX:
        _WORKLOAD_CACHE.pop(next(iter(_WORKLOAD_CACHE)))


def execute_chunk(
    tasks: Sequence[Tuple[RunSpec, str]],
    shared_workload_key: Optional[str] = None,
    shared_workload: Any = None,
    record: bool = False,
) -> Any:
    """Execute a same-workload chunk of specs in one worker round trip.

    Module-level and picklable (the unit the persistent sweep pool ships).
    When the parent attaches the chunk's shared workload, it is installed
    into the worker's cache first so every spec in the chunk reuses it.

    With ``record=True`` a worker-local :class:`TraceRecorder` observes the
    chunk and the return value becomes ``{"results": [...], "obs":
    snapshot, "pid": <worker pid>}`` — the parent folds the snapshot into
    its own recorder with worker attribution
    (:meth:`TraceRecorder.merge <repro.obs.recorder.TraceRecorder.merge>`).
    """
    if shared_workload_key and shared_workload is not None:
        seed_workload_cache(shared_workload_key, shared_workload)
    if not record:
        return [execute_spec(spec, key) for spec, key in tasks]
    from repro.obs.recorder import TraceRecorder

    recorder = TraceRecorder(label=f"chunk-pid{os.getpid()}")
    with recorder.phase("sweep.chunk"):
        results = [execute_spec(spec, key, recorder=recorder) for spec, key in tasks]
    return {"results": results, "obs": recorder.snapshot(), "pid": os.getpid()}


def build_system(spec: RunSpec):
    """Instantiate the (configured) system under evaluation for a spec."""
    factory = spec.system if callable(spec.system) else system_factory(spec.system)
    config = build_system_config(spec)
    options = dict(spec.system_options)
    system = factory(config, **options) if options else factory(config)
    if spec.engine != "scalar":
        # Third-party factories may return duck-typed systems without the
        # engine knob; only SLSSystem descendants know how to switch.
        set_engine = getattr(system, "set_engine", None)
        if set_engine is not None:
            set_engine(spec.engine)
    if spec.faults:
        set_mutators = getattr(system, "set_session_mutators", None)
        if set_mutators is None:
            raise TypeError(
                f"system {system_label(spec.system)!r} does not support session "
                "mutators; fault injection needs an SLSSystem descendant"
            )
        set_mutators(tuple(fault.apply for fault in spec.faults))
    if spec.packet is not None:
        set_packet = getattr(system, "set_packet_config", None)
        if set_packet is None:
            raise TypeError(
                f"system {system_label(spec.system)!r} does not support the "
                "packet tier; packet fidelity needs an SLSSystem descendant"
            )
        set_packet(spec.packet)
    return system


def spec_params(spec: RunSpec) -> Dict[str, Any]:
    """JSON-safe coordinate dict recorded on the :class:`RunResult`."""
    params: Dict[str, Any] = {
        "system": system_label(spec.system),
        "model": model_label(spec.model),
        "batch_size": spec.scale.batch_size if spec.batch_size is None else spec.batch_size,
        "distribution": spec.distribution or "meta",
        "hosts": spec.num_hosts,
        "switches": spec.num_fabric_switches,
        "devices": (
            spec.scale.num_cxl_devices if spec.num_cxl_devices is None else spec.num_cxl_devices
        ),
    }
    if spec.local_capacity_bytes is not None:
        params["local_capacity_bytes"] = spec.local_capacity_bytes
    if spec.engine != "scalar":
        params["engine"] = spec.engine
    if spec.stream:
        params["stream"] = True
    if spec.workload_provider is not None:
        params["workload"] = getattr(
            spec.workload_provider, "label", type(spec.workload_provider).__name__
        )
    if spec.faults:
        params["faults"] = [
            getattr(fault, "kind", type(fault).__name__) for fault in spec.faults
        ]
    if spec.packet is not None:
        params["packet"] = spec.packet.to_dict()
    if spec.fleet_shards:
        params["shards"] = spec.fleet_shards
        params["router"] = spec.fleet_router
    return params


def execute_serve_spec(
    spec: RunSpec, config: "ServeConfig", recorder: Optional[Any] = None
) -> "ServeResult":
    """Run one open-loop serving session for a spec (module-level, picklable).

    The serving counterpart of :func:`execute_spec`: builds the system and
    the seeded workload, then drives the system through the
    :mod:`repro.serve` loop instead of the closed-loop replay.  Serving
    results are not cached — the metrics depend on the arrival seed and QPS
    in addition to the spec, and sessions are cheap relative to sweeps.
    ``recorder`` installs an observability recorder on the system for the
    session (observe-only; the metrics are unchanged).
    """
    from repro.serve.server import serve as _serve

    if spec.fleet_shards:
        # Fleet sessions serve every shard and pool the samples; shards
        # run serially here — execute_serve_spec itself may already be
        # inside a (daemonic) sweep worker, which cannot nest pools.
        from repro.fleet.executor import serve_fleet

        return serve_fleet(spec, config, workers=0, recorder=recorder)
    if recorder is None:
        system = build_system(spec)
        workload = build_workload(spec)
        return _serve(system, workload, config)
    with recorder.phase("system.build"):
        system = build_system(spec)
    with recorder.phase("workload.build"):
        workload = build_workload(spec)
    set_recorder = getattr(system, "set_recorder", None)
    if set_recorder is not None:
        set_recorder(recorder)
    return _serve(system, workload, config)


class ServeEvaluator:
    """Picklable ``qps -> ServeResult`` callable used by the SLA sweep.

    Sweep probes only read the summary statistics, so the per-request
    record list is dropped before the result crosses a process boundary —
    it scales with the workload and would otherwise be pickled back from
    every parallel grid evaluation.
    """

    def __init__(self, spec: RunSpec, config: "ServeConfig") -> None:
        self.spec = spec
        self.config = config

    def __call__(self, qps: float) -> "ServeResult":
        result = execute_serve_spec(self.spec, replace(self.config, qps=float(qps)))
        result.records = None
        return result


def execute_spec(
    spec: RunSpec, key: Optional[str] = None, recorder: Optional[Any] = None
) -> RunResult:
    """Run one spec end-to-end (workload build → system build → replay).

    Module-level so :mod:`multiprocessing` can pickle it into sweep workers.
    The cache key is computed *before* the run: stateful option objects
    (e.g. page-management policies) mutate while simulating, and a post-run
    hash would never match the lookup key of an identical fresh spec.
    Callers that already hashed the spec pass ``key`` to skip re-hashing.

    ``recorder`` installs an observability recorder on the system for this
    run; the build stages are wall-clock attributed and the returned
    result carries the recorder digest on ``RunResult.obs``.  Recording is
    observe-only — the simulated numbers are bit-identical either way.
    """
    if key is None:
        key = safe_spec_key(spec) or ""
    if spec.fleet_shards:
        # Fleet sessions replay every shard and fold the per-shard
        # results into one combined SimResult; shards run serially here
        # — execute_spec itself may already be inside a (daemonic) sweep
        # worker, which cannot nest pools.  Use repro.fleet.run_fleet
        # directly for pooled shard execution and per-shard breakdowns.
        from repro.fleet.executor import run_fleet

        fleet = run_fleet(spec, workers=0, recorder=recorder)
        report = getattr(recorder, "report", None) if recorder is not None else None
        return RunResult(
            system=system_label(spec.system),
            model=model_label(spec.model),
            params=spec_params(spec),
            sim=fleet.combined,
            config_key=key,
            obs=report() if report is not None else None,
        )
    if recorder is None:
        # System first: an unknown name fails fast instead of after the
        # (expensive) workload generation.
        system = build_system(spec)
        workload = build_workload(spec)
        sim = system.run(workload)
        obs_report = None
    else:
        with recorder.phase("system.build"):
            system = build_system(spec)
        with recorder.phase("workload.build"):
            workload = build_workload(spec)
        set_recorder = getattr(system, "set_recorder", None)
        if set_recorder is not None:
            set_recorder(recorder)
        sim = system.run(workload)
        report = getattr(recorder, "report", None)
        obs_report = report() if report is not None else None
    return RunResult(
        system=system_label(spec.system),
        model=model_label(spec.model),
        params=spec_params(spec),
        sim=sim,
        config_key=key,
        obs=obs_report,
    )


# ---------------------------------------------------------------------------
# Result and workload caches
# ---------------------------------------------------------------------------
_RESULT_CACHE: Dict[str, RunResult] = {}
_WORKLOAD_CACHE: Dict[str, Any] = {}
#: Simple FIFO bounds so a long-lived process sweeping many distinct
#: configurations cannot grow the caches monotonically.
_RESULT_CACHE_MAX = 512
_WORKLOAD_CACHE_MAX = 64


def public_copy(
    result: RunResult, spec: RunSpec, coords: Optional[Dict[str, Any]] = None
) -> RunResult:
    """A caller-owned copy of a cached/stored run.

    Mutating it (params *or* the SimResult's counters) must never reach
    back into the cache, and the labels come from the *requesting* spec:
    name- and factory-addressed sessions share a cache entry, so the
    cached labels may belong to whichever form ran first.  ``coords`` are
    overlaid on the params (the sweep engine's axis coordinates).
    """
    params = spec_params(spec)
    if coords:
        params.update(coords)
    return RunResult(
        system=system_label(spec.system),
        model=model_label(spec.model),
        params=params,
        sim=result.sim.copy(),
        config_key=result.config_key,
    )


def cached_result(key: Optional[str]) -> Optional[RunResult]:
    if not key:
        return None
    return _RESULT_CACHE.get(key)


def store_result(result: RunResult) -> None:
    if result.config_key:
        _RESULT_CACHE[result.config_key] = result
        while len(_RESULT_CACHE) > _RESULT_CACHE_MAX:
            _RESULT_CACHE.pop(next(iter(_RESULT_CACHE)))


def clear_cache() -> None:
    """Drop every cached :class:`RunResult` and workload (mainly for tests)."""
    _RESULT_CACHE.clear()
    _WORKLOAD_CACHE.clear()


def cache_size() -> int:
    return len(_RESULT_CACHE)


class Simulation:
    """Fluent builder for one simulation run.

    Every setter returns ``self`` so sessions chain; :meth:`clone` gives an
    independent copy (the sweep engine clones its base per grid point).
    """

    def __init__(self, system: SystemLike = "pifs-rec", **settings: Any) -> None:
        self._spec = RunSpec(system=system)
        self._memo_key: Optional[str] = None
        # Observability recorder; lives on the session (not the picklable
        # spec) and is installed on the system per run by execute_spec.
        self._recorder: Optional[Any] = None
        self.apply(**settings)

    # ------------------------------------------------------------------
    # Fluent setters
    # ------------------------------------------------------------------
    def _set(self, **changes: Any) -> "Simulation":
        self._spec = replace(self._spec, **changes)
        self._memo_key = None
        return self

    def system(self, system: SystemLike) -> "Simulation":
        """Select the system under evaluation: a registered name or factory."""
        return self._set(system=system)

    def model(self, model: Union[str, ModelConfig]) -> "Simulation":
        """Select the DLRM model: an RMC name (scaled) or a full config.

        Names are case-insensitive and validated eagerly so typos fail at
        build time rather than deep inside the workload builder.
        """
        if isinstance(model, str):
            from repro.config import MODEL_CONFIGS

            name = model.upper()
            if name not in MODEL_CONFIGS:
                known = ", ".join(sorted(MODEL_CONFIGS))
                raise ValueError(f"unknown model {model!r}; expected one of: {known}")
            model = name
        return self._set(model=model)

    def scale(self, scale: Union[str, EvaluationScale]) -> "Simulation":
        """Select the evaluation scale: ``"default"``, ``"quick"`` or custom."""
        if isinstance(scale, str):
            try:
                scale = {"default": DEFAULT_SCALE, "quick": QUICK_SCALE}[scale.lower()]
            except KeyError:
                raise ValueError(f"unknown scale {scale!r}; expected 'default' or 'quick'") from None
        return self._set(scale=scale)

    def quick(self) -> "Simulation":
        """Shorthand for ``.scale("quick")``."""
        return self._set(scale=QUICK_SCALE)

    def distribution(self, name: str) -> "Simulation":
        """Select the trace distribution (meta, zipfian, normal, uniform, random)."""
        return self._set(distribution=name)

    def batch_size(self, batch_size: int) -> "Simulation":
        return self._set(batch_size=int(batch_size))

    def num_batches(self, num_batches: int) -> "Simulation":
        return self._set(num_batches=int(num_batches))

    def pooling(self, pooling_factor: int) -> "Simulation":
        """Average bag size (lookups per sample per table)."""
        return self._set(pooling_factor=int(pooling_factor))

    def hosts(self, num_hosts: int) -> "Simulation":
        """Number of concurrent hosts (applies to workload and machine)."""
        return self._set(num_hosts=int(num_hosts))

    def switches(self, num_switches: int) -> "Simulation":
        return self._set(num_fabric_switches=int(num_switches))

    def devices(self, num_devices: int) -> "Simulation":
        return self._set(num_cxl_devices=int(num_devices))

    def local_capacity(self, capacity_bytes: int) -> "Simulation":
        return self._set(local_capacity_bytes=int(capacity_bytes))

    def base_config(self, config: SystemConfig) -> "Simulation":
        """Replace the :class:`SystemConfig` the scale derivation starts from."""
        return self._set(base_config=config)

    def configure(self, *transforms: ConfigTransform) -> "Simulation":
        """Append transforms rewriting the derived :class:`SystemConfig`."""
        return self._set(config_transforms=self._spec.config_transforms + tuple(transforms))

    def options(self, **options: Any) -> "Simulation":
        """Extra keyword arguments for the system factory (e.g. policies)."""
        merged = dict(self._spec.system_options)
        merged.update(options)
        return self._set(system_options=tuple(sorted(merged.items(), key=lambda kv: kv[0])))

    def engine(self, engine: str) -> "Simulation":
        """Select the replay fidelity: ``"scalar"``, ``"vector"`` or ``"packet"``.

        The vector engine resolves lookup batches as numpy arrays and times
        them through flattened kernels; results are numerically identical
        for every built-in system, several times faster.  The packet engine
        attaches ``repro.net`` port queues to every fabric link — identical
        to scalar when uncongested, and reporting queue-depth timelines,
        drops and backpressure via ``result.net`` (see :meth:`packet` for
        the congestion knobs).  Validated eagerly so typos fail at
        session-build time.
        """
        from repro.sls.engine import ENGINES

        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of: {', '.join(ENGINES)}")
        return self._set(engine=engine)

    def fidelity(self, fidelity: str) -> "Simulation":
        """Alias of :meth:`engine` — the knob reads as a fidelity level."""
        return self.engine(fidelity)

    def stream(self, enabled: bool = True) -> "Simulation":
        """Stream the workload out-of-core instead of materializing it.

        With ``stream(True)`` the session's workload is built as a
        :class:`~repro.traces.workload.StreamingWorkload`: the trace source
        (synthetic generator or file) is replayed window by window, so peak
        memory stays proportional to the active window rather than the
        whole trace, and :meth:`serve` consumes arrivals lazily with
        bounded lookahead.  Every simulated number — SimResult counters,
        latency records, backend state — is bit-identical to the eager
        path on all three engines; streaming only changes *when* requests
        are resident.
        """
        return self._set(stream=bool(enabled))

    def fleet(
        self,
        shards: int,
        router: Optional[str] = None,
        seed: Optional[int] = None,
    ) -> "Simulation":
        """Partition the run across ``shards`` per-rack systems.

        Each shard is a full :class:`~repro.sls.system.SLSSystem` (its
        own fabric and table shard of the partitioned address space)
        replaying the slice of the workload the ``router`` policy
        assigns to it — see :mod:`repro.fleet`.  ``shards=0`` restores
        the plain single-system run; ``shards=1`` is a one-rack fleet,
        bit-identical to the single-system run.  ``router`` is one of
        :data:`~repro.fleet.router.ROUTER_POLICIES` (default
        ``"table-affinity"``); ``seed`` feeds the router's hashing and
        tie-breaking.  Composes with every other knob — engines,
        streaming, faults, packet fidelity, observability.
        """
        changes: Dict[str, Any] = {"fleet_shards": int(shards)}
        if router is not None:
            changes["fleet_router"] = router
        if seed is not None:
            changes["fleet_seed"] = int(seed)
        return self._set(**changes)

    def shards(self, shards: int) -> "Simulation":
        """Shorthand for :meth:`fleet` keeping the current router policy."""
        return self.fleet(shards)

    def router(self, policy: str) -> "Simulation":
        """Select the fleet's request-routing policy (see :meth:`fleet`)."""
        return self._set(fleet_router=policy)

    def packet(self, config: Optional[Any] = None, **knobs: Any) -> "Simulation":
        """Configure the packet tier and select ``engine("packet")``.

        Accepts a :class:`~repro.net.fabric.PacketConfig`, keyword knobs
        (``capacity=4, policy="priority", drop=True, ...``), or nothing —
        the uncongested default.  ``packet(None)`` with no knobs clears the
        configuration without changing the engine.
        """
        from repro.net.fabric import PacketConfig

        if config is not None and knobs:
            raise ValueError("pass either a PacketConfig or keyword knobs, not both")
        if config is None and not knobs:
            return self._set(packet=None)
        if config is None:
            config = PacketConfig(**knobs)
        elif isinstance(config, dict):
            config = PacketConfig.from_dict(config)
        elif not isinstance(config, PacketConfig):
            raise ValueError(f"expected a PacketConfig, dict or knobs, got {config!r}")
        return self._set(packet=config, engine="packet")

    def workload_provider(self, provider: Optional[Any]) -> "Simulation":
        """Source the workload from a provider instead of the generators.

        A provider exposes ``build(spec) -> SLSWorkload`` (and ideally a
        ``label``): trace files, drifting popularity, multi-tenant mixes —
        see :mod:`repro.scenarios.workloads`.  ``None`` restores the
        default synthetic generators.
        """
        if provider is not None and not hasattr(provider, "build"):
            raise ValueError(
                "workload provider must expose build(spec); see "
                "repro.scenarios.workloads for the shipped providers"
            )
        return self._set(workload_provider=provider)

    def faults(self, *faults: Any) -> "Simulation":
        """Append fault/degradation injections applied at session setup.

        Each fault exposes ``apply(system)`` (see
        :mod:`repro.scenarios.faults`); the engine runs them after the
        machine is built and before the vector kernels snapshot it, so
        both engines replay the identical degraded machine.
        """
        for fault in faults:
            if not hasattr(fault, "apply"):
                raise ValueError(
                    "fault specs must expose apply(system); see "
                    "repro.scenarios.faults for the shipped faults"
                )
        return self._set(faults=self._spec.faults + tuple(faults))

    def scenario(self, scenario: Any) -> "Simulation":
        """Apply a named or explicit :class:`~repro.scenarios.Scenario`.

        The scenario's workload/machine/fault dimensions overwrite the
        session's current values (its system only when this session still
        has the default); the session's scale is preserved — so
        ``Simulation("pond").quick().scenario("fault-slow-link")``
        evaluates Pond under the scenario at quick scale.  The session's
        engine is preserved unless the scenario pins a fidelity or packet
        configuration (the congestion scenarios are meaningless without
        the packet tier).
        """
        from repro.scenarios.base import Scenario
        from repro.scenarios.registry import scenario as resolve_scenario

        resolved = scenario if isinstance(scenario, Scenario) else resolve_scenario(scenario)
        if isinstance(self._spec.system, str) and self._spec.system == "pifs-rec":
            self.system(resolved.system)
        self.model(resolved.model)
        # Every workload/machine/fault field is taken from the scenario —
        # including the Nones, which mean "the scale's default", and the
        # fields a Scenario cannot even express (capacity override, config
        # transforms, factory options): a leaked session value would make
        # this session diverge from what `python -m repro scenario run
        # <name>` computes for the same name.
        self._set(
            distribution=resolved.distribution,
            batch_size=resolved.batch_size,
            num_batches=resolved.num_batches,
            pooling_factor=resolved.pooling_factor,
            num_hosts=resolved.resolved_hosts,
            num_fabric_switches=resolved.switches,
            num_cxl_devices=resolved.devices,
            local_capacity_bytes=None,
            base_config=DEFAULT_SYSTEM,
            config_transforms=(),
            system_options=(),
            faults=(),
            packet=None,
            fleet_shards=0,
            fleet_router="table-affinity",
            fleet_seed=0,
        )
        self.workload_provider(resolved.workload)
        if resolved.faults:
            self.faults(*resolved.faults)
        if resolved.fidelity is not None:
            self.engine(resolved.fidelity)
        if resolved.packet is not None:
            self.packet(resolved.packet)
        if resolved.shards:
            self.fleet(resolved.shards, router=resolved.router)
        return self

    def run_scenario(self, scenario: Any, cache: bool = True) -> RunResult:
        """Run a named/explicit scenario on this session (see :meth:`scenario`)."""
        return self.clone().scenario(scenario).run(cache=cache)

    #: Aliases accepted by :meth:`apply` (and therefore by ``Sweep`` axes and
    #: keyword construction) in addition to the method names themselves.
    _ALIASES = {
        "num_hosts": "hosts",
        "num_fabric_switches": "switches",
        "num_cxl_devices": "devices",
        "local_capacity_bytes": "local_capacity",
        "pooling_factor": "pooling",
        "trace": "distribution",
        "fidelity": "engine",
        "streaming": "stream",
        "fleet_shards": "shards",
        "fleet_router": "router",
    }

    #: The only methods :meth:`apply` may dispatch to — keeps sweep axes and
    #: keyword construction from invoking non-setter methods like ``run``.
    _SETTERS = frozenset({
        "system", "model", "scale", "distribution", "batch_size", "num_batches",
        "pooling", "hosts", "switches", "devices", "local_capacity",
        "base_config", "configure", "options", "engine", "packet",
        "workload_provider", "faults", "scenario", "stream",
        "fleet", "shards", "router",
    })

    def apply(self, **settings: Any) -> "Simulation":
        """Apply settings by name (``apply(model="RMC4", hosts=2)``)."""
        for key, value in settings.items():
            name = self._ALIASES.get(key, key)
            if name not in self._SETTERS:
                raise ValueError(f"unknown simulation setting {key!r}")
            method = getattr(self, name)
            if name == "options":
                if not isinstance(value, dict):
                    raise ValueError("'options' setting expects a dict")
                method(**value)
            elif name in ("configure", "faults"):
                items = value if isinstance(value, (tuple, list)) else (value,)
                method(*items)
            else:
                method(value)
        return self

    # ------------------------------------------------------------------
    # Compilation and execution
    # ------------------------------------------------------------------
    def clone(self) -> "Simulation":
        duplicate = Simulation.__new__(Simulation)
        duplicate._spec = self._spec  # RunSpec is immutable; sharing is safe
        duplicate._memo_key = self._memo_key
        duplicate._recorder = self._recorder
        return duplicate

    def spec(self) -> RunSpec:
        return self._spec

    def observe(self, recorder: Any = True) -> "Simulation":
        """Attach an observability recorder to this session.

        ``observe()`` (or ``observe(True)``) creates a fresh
        :class:`~repro.obs.recorder.TraceRecorder`; pass your own recorder
        to share one across sessions, or ``None``/``False`` to disable.
        Subsequent :meth:`run`/:meth:`serve` calls install it on the system
        — spans, counters and wall-clock phases accumulate on it, exportable
        via :meth:`TraceRecorder.write_chrome_trace
        <repro.obs.recorder.TraceRecorder.write_chrome_trace>`.  Observed
        runs bypass the result cache (a cache hit would execute nothing and
        record nothing).  Recording never changes the simulated numbers.
        """
        if recorder is True:
            from repro.obs.recorder import TraceRecorder

            recorder = TraceRecorder()
        elif recorder is False:
            recorder = None
        self._recorder = recorder
        return self

    @property
    def recorder(self) -> Optional[Any]:
        """The recorder attached via :meth:`observe` (``None`` when off)."""
        return self._recorder

    def describe(self) -> Dict[str, Any]:
        """The run's JSON-safe coordinates (without executing it)."""
        return spec_params(self._spec)

    def build_system_config(self) -> SystemConfig:
        return build_system_config(self._spec)

    def build_workload(self):
        return build_workload(self._spec)

    def build_system(self):
        return build_system(self._spec)

    def run(self, cache: bool = True) -> RunResult:
        """Execute the session and return its :class:`RunResult`.

        With ``cache=True`` (the default) an identical earlier run — same
        config hash — is returned without re-simulating.
        """
        # The key is memoized per session state: stateful option objects
        # (policies) mutate during a run, so hashing them again on a second
        # .run() of the same session would miss the cache and re-simulate
        # from dirty policy state.
        if self._memo_key is None:
            self._memo_key = safe_spec_key(self._spec) or ""
        if self._recorder is not None:
            # Observed runs bypass the result cache entirely: a hit would
            # record nothing, and storing would let a later unobserved run
            # see stale obs digests.
            return execute_spec(self._spec, key=self._memo_key, recorder=self._recorder)
        if cache:
            hit = cached_result(self._memo_key)
            if hit is not None:
                return public_copy(hit, self._spec)
        result = execute_spec(self._spec, key=self._memo_key)
        if cache:
            store_result(result)
            # Hand out a copy so callers annotating the returned params or
            # counters cannot poison the cached entry (the sweep engine
            # does the same when overlaying axis coordinates).
            return public_copy(result, self._spec)
        return result

    # ------------------------------------------------------------------
    # Online serving terminals
    # ------------------------------------------------------------------
    def _serve_config(
        self,
        qps: float,
        arrival: str,
        max_batch_size: int,
        max_wait_ns: float,
        seed: Optional[int],
        sla_ns: Optional[float],
    ) -> "ServeConfig":
        from repro.serve.server import ServeConfig

        return ServeConfig(
            qps=float(qps),
            arrival=arrival,
            max_batch_size=int(max_batch_size),
            max_wait_ns=float(max_wait_ns),
            seed=self._spec.scale.seed if seed is None else int(seed),
            sla_ns=sla_ns,
        )

    def serve(
        self,
        qps: float,
        *,
        arrival: str = "poisson",
        max_batch_size: int = 8,
        max_wait_ns: float = 100_000.0,
        seed: Optional[int] = None,
        sla_ns: Optional[float] = None,
    ) -> "ServeResult":
        """Serve this session's workload open-loop at ``qps`` requests/s.

        The online counterpart of :meth:`run`: requests arrive via the
        named arrival process, queue per host, are dynamically batched and
        serviced on the host thread lanes; the result carries the latency
        percentiles (p50..p99.9), goodput and queue-depth metrics instead
        of only the aggregate completion time.  The arrival seed defaults
        to the evaluation scale's seed, so identical sessions reproduce
        identical metrics.
        """
        config = self._serve_config(qps, arrival, max_batch_size, max_wait_ns, seed, sla_ns)
        return execute_serve_spec(self._spec, config, recorder=self._recorder)

    def sla_sweep(
        self,
        sla_ns: float,
        qps_bounds: Tuple[float, float],
        *,
        percentile: str = "p99",
        grid_points: int = 4,
        refine_iters: int = 8,
        parallel: bool = False,
        processes: Optional[int] = None,
        arrival: str = "poisson",
        max_batch_size: int = 8,
        max_wait_ns: float = 100_000.0,
        seed: Optional[int] = None,
    ) -> "SLASweepResult":
        """Max sustainable QPS whose ``percentile`` latency meets ``sla_ns``.

        A geometric QPS grid brackets the saturation point, then a binary
        search refines it.  ``parallel=True`` fans the independent grid
        evaluations out over worker processes; the returned numbers are
        identical to the serial path (the refinement stage is sequential
        either way).
        """
        from repro.serve.metrics import sla_sweep as _sla_sweep

        config = self._serve_config(
            qps_bounds[0], arrival, max_batch_size, max_wait_ns, seed, sla_ns
        )
        evaluator = ServeEvaluator(self._spec, config)
        if not parallel:
            return _sla_sweep(
                evaluator,
                sla_ns,
                qps_bounds,
                percentile=percentile,
                grid_points=grid_points,
                refine_iters=refine_iters,
            )
        # The independent grid evaluations borrow the persistent sweep
        # worker pool — no fork per sla_sweep() call, and the workers'
        # workload caches carry over between sweeps.
        from repro.api.sweep import worker_pool

        workers = min(grid_points, os.cpu_count() or 1) if processes is None else processes
        pool = worker_pool().get(max(1, workers))
        return _sla_sweep(
            evaluator,
            sla_ns,
            qps_bounds,
            percentile=percentile,
            grid_points=grid_points,
            refine_iters=refine_iters,
            map_fn=pool.map,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        coords = ", ".join(f"{k}={v!r}" for k, v in self.describe().items())
        return f"Simulation({coords})"


__all__ = [
    "ConfigTransform",
    "RunSpec",
    "ServeEvaluator",
    "Simulation",
    "build_system",
    "build_system_config",
    "build_workload",
    "cache_size",
    "cached_result",
    "cached_workload",
    "clear_cache",
    "execute_chunk",
    "execute_serve_spec",
    "execute_spec",
    "seed_workload_cache",
    "workload_key",
    "public_copy",
    "safe_spec_key",
    "spec_key",
    "spec_params",
    "store_result",
    "system_label",
    "model_label",
]
