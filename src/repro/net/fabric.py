"""Fabric-wide attachment of the packet tier.

:class:`PacketFabric` walks a prepared system's fabric — every host
upstream link, every device downstream link, and the inter-switch hop
channel when a multi-switch coordinator exists — and installs a
:class:`~repro.net.port.PortQueue` on each.  The queues observe (and, under
load, perturb) every transfer; :meth:`PacketFabric.finalize` replays their
admission/delivery events through one seeded :class:`~repro.net.core.EventCore`
to produce globally time-ordered queue-depth timelines and the
:class:`~repro.net.stats.NetStats` digest.

Attachment happens in ``begin_session`` *after* session mutators run, so
fault injection (``CXLLink.degrade``, ``FabricTopology.degrade_hops``)
composes with the packet tier: a degraded link serializes slower, holds
buffer credits longer, and therefore backs up its queue — the degradation
changes occupancy, not just the analytic price.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict, List, Mapping, Optional

from repro.net.core import EventCore
from repro.net.packet import Priority
from repro.net.port import POLICIES, PortQueue
from repro.net.stats import NetStats, PortStats
from repro.obs.log import warn_once


@dataclass(frozen=True)
class PacketConfig:
    """Knobs of the packet tier (JSON round-trippable, hashable).

    The default configuration — unbounded buffers — is the uncongested
    limit: every queue admits instantly and the tier is bit-identical to
    the analytic tier while still recording per-port timelines.
    """

    #: Buffer credits per port; 0 means unbounded (uncongested limit).
    capacity: int = 0
    #: ``"fifo"`` (all classes contend) or ``"priority"`` (credits reserved
    #: for CONTROL/INSTRUCTION traffic).
    policy: str = "fifo"
    #: Drop-and-retry instead of credit backpressure when the buffer is full.
    drop: bool = False
    #: Retry interval after a drop.
    retry_ns: float = 500.0
    #: Forced-admission bound so drop mode always makes progress.
    max_retries: int = 64
    #: Credits on the inter-switch hop channel; ``None`` inherits ``capacity``.
    hop_capacity: Optional[int] = None
    #: EventCore seed for tie-breaking simultaneous events.
    seed: int = 0
    #: Per-port queue-depth timeline cap (breakpoints); 0 disables timelines.
    timeline_points: int = 256

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ValueError("capacity must be >= 0")
        if self.policy not in POLICIES:
            raise ValueError(f"unknown queue policy {self.policy!r}; expected one of {POLICIES}")
        if not math.isfinite(self.retry_ns) or self.retry_ns <= 0:
            raise ValueError(f"retry_ns must be positive and finite, got {self.retry_ns!r}")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if self.hop_capacity is not None and self.hop_capacity < 0:
            raise ValueError("hop_capacity must be >= 0")
        if self.timeline_points < 0:
            raise ValueError("timeline_points must be >= 0")

    @property
    def effective_hop_capacity(self) -> int:
        return self.capacity if self.hop_capacity is None else self.hop_capacity

    def to_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "PacketConfig":
        known = {f.name for f in fields(cls)}
        return cls(**{key: value for key, value in data.items() if key in known})


class PacketFabric:
    """Port queues over every link of one prepared system."""

    #: Name of the inter-switch hop channel's queue.
    HOP_CHANNEL = "fabric.hop"

    def __init__(self, config: Optional[PacketConfig] = None) -> None:
        self._config = config or PacketConfig()
        self._queues: List[PortQueue] = []
        self._links: List[object] = []
        self._coordinator: Optional[object] = None

    @property
    def config(self) -> PacketConfig:
        return self._config

    @property
    def queues(self) -> List[PortQueue]:
        return list(self._queues)

    def queue(self, name: str) -> PortQueue:
        for q in self._queues:
            if q.name == name:
                return q
        raise KeyError(f"no port queue named {name!r}")

    def _make_queue(self, name: str, capacity: int) -> PortQueue:
        cfg = self._config
        return PortQueue(
            name,
            capacity=capacity,
            policy=cfg.policy,
            drop=cfg.drop,
            retry_ns=cfg.retry_ns,
            max_retries=cfg.max_retries,
        )

    def attach(self, system: object) -> None:
        """Install queues on every port of ``system``'s prepared fabric."""
        backends = getattr(system, "backends", None)
        if backends is None:
            raise RuntimeError(
                "PacketFabric.attach requires a prepared system "
                "(begin_session builds the fabric first)"
            )
        cfg = self._config
        if cfg.capacity > 0 or cfg.effective_hop_capacity > 0 or cfg.drop:
            warn_once(
                "packet.finite-buffers",
                "finite packet buffers (capacity=%s, hop_capacity=%s, drop=%s) "
                "perturb admission times; results will diverge from the "
                "analytic tier, so do not assert bit-identity against it",
                cfg.capacity, cfg.effective_hop_capacity, cfg.drop,
            )
        links = [port.link for port in backends.host_ports.values()]
        links.extend(device.link for device in backends.devices)
        for link in links:
            queue = self._make_queue(link.name, cfg.capacity)
            link.attach_port(queue)
            self._queues.append(queue)
            self._links.append(link)
        coordinator = getattr(system, "coordinator", None)
        if coordinator is not None and hasattr(coordinator, "attach_hop_port"):
            hop_queue = self._make_queue(self.HOP_CHANNEL, cfg.effective_hop_capacity)
            coordinator.attach_hop_port(
                hop_queue, bytes_hint=getattr(backends, "row_bytes", 0)
            )
            self._queues.append(hop_queue)
            self._coordinator = coordinator

    def detach(self) -> None:
        """Remove every installed queue (leaves observations intact)."""
        for link in self._links:
            link.attach_port(None)
        self._links = []
        if self._coordinator is not None:
            self._coordinator.attach_hop_port(None)
            self._coordinator = None

    # ------------------------------------------------------------------
    # Digest
    # ------------------------------------------------------------------
    def finalize(self) -> NetStats:
        """Fold every queue's observations into a :class:`NetStats`.

        Idempotent — the queues' records are replayed, not consumed.  The
        replay runs through one seeded :class:`EventCore` so simultaneous
        events across ports resolve in one deterministic global order
        (deliveries drain queues before same-nanosecond admissions refill
        them).
        """
        cfg = self._config
        stats = NetStats(seed=cfg.seed)
        core = EventCore(seed=cfg.seed)
        indexed = list(enumerate(self._queues))
        times: List[float] = []
        prios: List[int] = []
        keys: List[int] = []
        ports: List[int] = []
        deltas: List[int] = []
        key_base = 0
        for index, queue in indexed:
            for time_ns, delta, key in queue.events():
                times.append(time_ns)
                # Deliveries (delta < 0) outrank admissions at a tie.
                prios.append(0 if delta < 0 else 1)
                keys.append(key_base + key)
                ports.append(index)
                deltas.append(delta)
            key_base += 2 * queue.packets
        depths = [0] * len(self._queues)
        trails: List[List[List[float]]] = [[] for _ in self._queues]
        weighted = [0.0] * len(self._queues)
        last_time = [None] * len(self._queues)
        first_time = [None] * len(self._queues)
        maxima = [0] * len(self._queues)
        for position in core.ordered(times, prios, keys):
            index = ports[position]
            delta = deltas[position]
            time_ns = times[position]
            if last_time[index] is not None:
                weighted[index] += depths[index] * (time_ns - last_time[index])
            else:
                first_time[index] = time_ns
            last_time[index] = time_ns
            depths[index] += delta
            if depths[index] > maxima[index]:
                maxima[index] = depths[index]
            trail = trails[index]
            if trail and trail[-1][0] == time_ns:
                trail[-1][1] = depths[index]
            else:
                trail.append([time_ns, depths[index]])
        for index, queue in indexed:
            span = 0.0
            if first_time[index] is not None and last_time[index] is not None:
                span = last_time[index] - first_time[index]
            mean_depth = weighted[index] / span if span > 0.0 else 0.0
            port = PortStats(
                name=queue.name,
                packets=queue.packets,
                bytes=sum(flow.bytes for flow in queue.flows.values()),
                drops=queue.drops,
                retries=queue.retries,
                backpressure_ns=queue.backpressure_ns,
                max_depth=maxima[index],
                mean_depth=mean_depth,
                flows={
                    Priority(priority).name: flow.to_dict()
                    for priority, flow in sorted(queue.flows.items())
                },
                timeline=_downsample(trails[index], cfg.timeline_points),
            )
            stats.ports[port.name] = port
            stats.packets += port.packets
            stats.drops += port.drops
            stats.retries += port.retries
            stats.backpressure_ns += port.backpressure_ns
            if port.max_depth > stats.max_queue_depth:
                stats.max_queue_depth = port.max_depth
        return stats


def _downsample(trail: List[List[float]], cap: int) -> List[List[float]]:
    """Thin a breakpoint trail to at most ``cap`` points (keep endpoints)."""
    if cap <= 0:
        return []
    if len(trail) <= cap:
        return [list(point) for point in trail]
    stride = (len(trail) - 1) / (cap - 1)
    picked = [trail[round(i * stride)] for i in range(cap - 1)]
    picked.append(trail[-1])
    return [list(point) for point in picked]


__all__ = ["PacketConfig", "PacketFabric"]
