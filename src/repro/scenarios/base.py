"""Declarative scenarios: workload x traffic x fault dimensions, named.

A :class:`Scenario` is a frozen, JSON-round-trippable description of one
evaluation situation — which workload shape runs (model, trace
distribution, a drifting hot set, a trace file, a multi-tenant mix), on
which machine (hosts/switches/devices), under which degradations
(:mod:`repro.scenarios.faults`), and optionally under which open-loop
traffic (:class:`TrafficSpec`).  Scenarios compile onto the existing
façade: :meth:`Scenario.simulation` returns a configured
:class:`~repro.api.session.Simulation`, so every scenario runs closed-loop
(:meth:`run`), open-loop (:meth:`serve`), across systems and its declared
axes (:meth:`sweep`), on either engine, and from the CLI
(``python -m repro scenario run <name>``) — deterministically under the
session seed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.config import ENGINES, MODEL_CONFIGS, ROUTER_POLICIES
from repro.scenarios.faults import FaultSpec, fault_from_dict
from repro.scenarios.workloads import (
    MultiTenantWorkload,
    provider_from_dict,
)
from repro.serve.server import ServeConfig

#: Axis names a scenario may sweep over.  ``tables`` is special-cased (it
#: rewrites the evaluation scale); the rest map to Simulation settings.
SCENARIO_AXES = (
    "system",
    "model",
    "distribution",
    "batch_size",
    "pooling",
    "tables",
    "devices",
    "switches",
    "hosts",
    "shards",
    "router",
)


@dataclass(frozen=True)
class TrafficSpec:
    """Open-loop traffic dimension of a scenario (the serve-path knobs)."""

    qps: float = 1e5
    arrival: str = "poisson"
    max_batch_size: int = 8
    max_wait_us: float = 100.0
    sla_ms: Optional[float] = None

    def __post_init__(self) -> None:
        # Validate eagerly (like every sibling spec) through the serve
        # config this spec describes, so a bad knob fails at scenario
        # definition, not at serve time.
        ServeConfig(
            qps=self.qps,
            arrival=self.arrival,
            max_batch_size=self.max_batch_size,
            max_wait_ns=self.max_wait_us * 1e3,
            sla_ns=self.sla_ns,
        )

    @property
    def sla_ns(self) -> Optional[float]:
        return None if self.sla_ms is None else self.sla_ms * 1e6

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TrafficSpec":
        return cls(**dict(data))


@dataclass(frozen=True)
class Scenario:
    """One named, deterministic evaluation situation (see module docstring)."""

    name: str
    description: str = ""
    system: str = "pifs-rec"
    model: str = "RMC1"
    distribution: Optional[str] = None
    batch_size: Optional[int] = None
    num_batches: Optional[int] = None
    pooling_factor: Optional[int] = None
    hosts: Optional[int] = None
    switches: int = 1
    devices: Optional[int] = None
    workload: Optional[Any] = None  # a workload provider (see repro.scenarios.workloads)
    faults: Tuple[FaultSpec, ...] = ()
    traffic: Optional[TrafficSpec] = None
    #: Pinned replay fidelity (``"scalar"``/``"vector"``/``"packet"``);
    #: ``None`` leaves the session's engine choice alone.  Congestion
    #: scenarios pin ``"packet"`` — their queueing effects do not exist at
    #: analytic fidelity.
    fidelity: Optional[str] = None
    #: Packet-tier knobs (:class:`~repro.net.fabric.PacketConfig`); implies
    #: packet fidelity when set.
    packet: Optional[Any] = None
    #: Fleet dimension: partition the run across this many per-rack
    #: systems behind ``router`` (0 = plain single-system run; see
    #: :mod:`repro.fleet`).
    shards: int = 0
    #: Request-routing policy in front of the shards (one of
    #: :data:`repro.config.ROUTER_POLICIES`).
    router: str = "table-affinity"
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a scenario needs a name")
        if self.model.upper() not in MODEL_CONFIGS:
            known = ", ".join(sorted(MODEL_CONFIGS))
            raise ValueError(f"unknown model {self.model!r}; expected one of: {known}")
        if self.fidelity is not None and self.fidelity not in ENGINES:
            raise ValueError(
                f"unknown fidelity {self.fidelity!r}; expected one of: " + ", ".join(ENGINES)
            )
        if self.shards < 0:
            raise ValueError("shards must be non-negative")
        if self.router not in ROUTER_POLICIES:
            raise ValueError(
                f"unknown router policy {self.router!r}; expected one of: "
                + ", ".join(ROUTER_POLICIES)
            )
        object.__setattr__(self, "faults", tuple(self.faults))
        object.__setattr__(
            self, "axes", tuple((str(k), tuple(v)) for k, v in self.axes)
        )
        for axis, values in self.axes:
            if axis not in SCENARIO_AXES:
                raise ValueError(
                    f"unknown scenario axis {axis!r}; expected one of: "
                    + ", ".join(SCENARIO_AXES)
                )
            if not values:
                raise ValueError(f"scenario axis {axis!r} has no values")

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    @property
    def resolved_hosts(self) -> int:
        """Host count: explicit, the multi-tenant total, or 1."""
        if self.hosts is not None:
            return self.hosts
        if isinstance(self.workload, MultiTenantWorkload):
            return self.workload.total_hosts
        return 1

    def dimensions(self) -> str:
        """One-line summary of the scenario's dimensions (CLI listing)."""
        parts = [self.model]
        if self.workload is not None:
            parts.append(self.workload.label)
        elif self.distribution:
            parts.append(self.distribution)
        machine = f"{self.resolved_hosts}h/{self.switches}sw"
        if self.devices is not None:
            machine += f"/{self.devices}dev"
        parts.append(machine)
        if self.shards:
            parts.append(f"{self.shards}shards/{self.router}")
        parts.extend(fault.kind for fault in self.faults)
        if self.traffic is not None:
            parts.append(f"{self.traffic.qps:g}qps/{self.traffic.arrival}")
        if self.fidelity is not None:
            parts.append(self.fidelity)
        if self.packet is not None:
            parts.append(f"buf{self.packet.capacity}")
        for axis, values in self.axes:
            parts.append(f"{axis}x{len(values)}")
        return " ".join(parts)

    def parameters(self) -> str:
        """The fault/traffic/packet parameters that distinguish this scenario.

        One compact human-readable string for CLI tables — the knob values
        themselves (degradation factors, offered load, buffer credits), not
        just the dimension names that :meth:`dimensions` reports.
        """
        parts: List[str] = [fault.describe() for fault in self.faults]
        if self.traffic is not None:
            traffic = f"{self.traffic.qps:g} qps {self.traffic.arrival}"
            traffic += f", batch<={self.traffic.max_batch_size}"
            traffic += f", wait<={self.traffic.max_wait_us:g}us"
            if self.traffic.sla_ms is not None:
                parts.append(traffic + f", SLA {self.traffic.sla_ms:g}ms")
            else:
                parts.append(traffic)
        if self.packet is not None:
            packet = f"packet buffers={self.packet.capacity or 'unbounded'}"
            packet += f", {self.packet.policy}"
            if self.packet.drop:
                packet += f", drop+retry {self.packet.retry_ns:g}ns"
            parts.append(packet)
        elif self.fidelity is not None:
            parts.append(f"fidelity={self.fidelity}")
        if self.shards:
            parts.append(f"fleet {self.shards} shards, {self.router}")
        return "; ".join(parts) if parts else "-"

    # ------------------------------------------------------------------
    # Compilation onto the façade
    # ------------------------------------------------------------------
    def simulation(
        self,
        system: Optional[str] = None,
        engine: Optional[str] = None,
        scale: Optional[Any] = None,
        quick: bool = False,
        observe: Optional[Any] = None,
        stream: bool = False,
    ):
        """A configured :class:`~repro.api.session.Simulation` for this scenario.

        Delegates to :meth:`Simulation.scenario` so there is exactly one
        scenario → session mapping: ``Scenario.run()``,
        ``Simulation.run_scenario()`` and the CLI cannot drift apart.
        ``observe`` attaches a recorder (see :meth:`Simulation.observe`),
        so ``entry.run(observe=recorder)`` and ``entry.serve(observe=recorder)``
        land closed- and open-loop spans on one shared timeline.  ``stream``
        replays the scenario's workload out-of-core (see
        :meth:`Simulation.stream`) — bit-identical, O(window) resident.
        """
        from repro.api.session import Simulation

        sim = Simulation(system or self.system)
        if quick:
            sim.quick()
        elif scale is not None:
            sim.scale(scale)
        sim.scenario(self)
        if system is not None:
            # Re-assert the explicit choice: Simulation.scenario() cannot
            # tell an explicitly requested "pifs-rec" from its constructor
            # default and would hand the name back to the scenario.
            sim.system(system)
        if engine is not None:
            sim.engine(engine)
        if observe is not None:
            sim.observe(observe)
        if stream:
            sim.stream()
        return sim

    def run(self, cache: bool = True, **session_kwargs: Any):
        """Run the scenario closed-loop; returns the :class:`RunResult`."""
        return self.simulation(**session_kwargs).run(cache=cache)

    def serve(self, qps: Optional[float] = None, **session_kwargs: Any):
        """Serve the scenario open-loop under its traffic spec.

        Scenarios without an explicit :class:`TrafficSpec` use the spec's
        defaults; ``qps`` overrides the offered load either way.
        """
        traffic = self.traffic or TrafficSpec()
        return self.simulation(**session_kwargs).serve(
            qps if qps is not None else traffic.qps,
            arrival=traffic.arrival,
            max_batch_size=traffic.max_batch_size,
            max_wait_ns=traffic.max_wait_us * 1e3,
            sla_ns=traffic.sla_ns,
        )

    def sweep(
        self,
        systems: Optional[Sequence[str]] = None,
        **session_kwargs: Any,
    ):
        """A :class:`~repro.api.sweep.Sweep` over the scenario's axes.

        ``systems`` adds/overrides a system axis (the CLI's
        ``scenario compare`` passes the systems to compare).  Scenarios
        without declared axes sweep over systems alone.
        """
        from repro.api.sweep import Sweep, point

        base = self.simulation(**session_kwargs)
        over: Dict[str, List[Any]] = {}
        if systems:
            over["system"] = list(dict.fromkeys(systems))
        scale = base.spec().scale
        for axis, values in self.axes:
            if axis == "system" and "system" in over:
                continue  # explicit systems win over the declared axis
            if axis == "tables":
                over[axis] = [
                    point(n, scale=replace(scale, num_tables=int(n))) for n in values
                ]
            else:
                over[axis] = list(values)
        if not over:
            over["system"] = [self.system]
        return Sweep(over, base=base)

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "system": self.system,
            "model": self.model,
            "distribution": self.distribution,
            "batch_size": self.batch_size,
            "num_batches": self.num_batches,
            "pooling_factor": self.pooling_factor,
            "hosts": self.hosts,
            "switches": self.switches,
            "devices": self.devices,
            "workload": None if self.workload is None else self.workload.to_dict(),
            "faults": [fault.to_dict() for fault in self.faults],
            "traffic": None if self.traffic is None else self.traffic.to_dict(),
            "fidelity": self.fidelity,
            "packet": None if self.packet is None else self.packet.to_dict(),
            "shards": self.shards,
            "router": self.router,
            "axes": [[axis, list(values)] for axis, values in self.axes],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        from repro.net.fabric import PacketConfig

        payload = dict(data)
        workload = payload.get("workload")
        traffic = payload.get("traffic")
        packet = payload.get("packet")
        return cls(
            name=str(payload["name"]),
            description=str(payload.get("description", "")),
            system=str(payload.get("system", "pifs-rec")),
            model=str(payload.get("model", "RMC1")),
            distribution=payload.get("distribution"),
            batch_size=payload.get("batch_size"),
            num_batches=payload.get("num_batches"),
            pooling_factor=payload.get("pooling_factor"),
            hosts=payload.get("hosts"),
            switches=int(payload.get("switches", 1)),
            devices=payload.get("devices"),
            workload=None if workload is None else provider_from_dict(workload),
            faults=tuple(fault_from_dict(f) for f in payload.get("faults") or ()),
            traffic=None if traffic is None else TrafficSpec.from_dict(traffic),
            fidelity=payload.get("fidelity"),
            packet=None if packet is None else PacketConfig.from_dict(packet),
            shards=int(payload.get("shards", 0)),
            router=str(payload.get("router", "table-affinity")),
            axes=tuple(
                (str(axis), tuple(values)) for axis, values in payload.get("axes") or ()
            ),
        )

    def to_json(self, **kwargs: Any) -> str:
        import json

        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_json(cls, payload: str) -> "Scenario":
        import json

        return cls.from_dict(json.loads(payload))


__all__ = ["SCENARIO_AXES", "Scenario", "TrafficSpec"]
