"""Fleet-level results: per-shard breakdowns plus combined aggregates.

Shards run concurrently (one rack each), so the combined completion time
is the *maximum* shard ``total_ns`` while every throughput counter —
requests, lookups, rows per tier, buffer traffic — is the *sum* across
shards.  Serving sessions additionally pool the per-request latency
samples of all shards, so the fleet p50..p99.9 and goodput are computed
over the union of requests, not averaged per shard.  Everything
round-trips through JSON like the single-system results do.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.net.stats import NetStats, PortStats
from repro.serve.arrivals import NS_PER_S
from repro.serve.metrics import ServeResult
from repro.sls.result import LatencyStats, SimResult

__all__ = [
    "FleetResult",
    "FleetServeResult",
    "combine_sim_results",
    "merge_net_stats",
]


def merge_net_stats(per_shard: Sequence[Optional[NetStats]]) -> Optional[NetStats]:
    """Merge per-shard packet-tier digests into one fleet digest.

    Counters sum, the queue-depth maximum is the max across shards, and
    ports are re-keyed ``shard<i>:<port>`` so same-named ports of
    different racks stay distinguishable.  ``None`` when no shard ran at
    packet fidelity.
    """
    present = [(shard, net) for shard, net in enumerate(per_shard) if net is not None]
    if not present:
        return None
    if len(per_shard) == 1:
        # A 1-shard fleet is the single-system run; hand its digest back
        # untouched (no re-keying) so the combined result stays
        # bit-identical to the plain run.
        return NetStats.from_dict(present[0][1].to_dict())
    ports: Dict[str, PortStats] = {}
    for shard, net in present:
        for name, port in net.ports.items():
            key = f"shard{shard}:{name}"
            merged = PortStats.from_dict(port.to_dict())
            merged.name = key
            ports[key] = merged
    return NetStats(
        seed=present[0][1].seed,
        packets=sum(net.packets for _, net in present),
        drops=sum(net.drops for _, net in present),
        retries=sum(net.retries for _, net in present),
        backpressure_ns=sum(net.backpressure_ns for _, net in present),
        max_queue_depth=max(net.max_queue_depth for _, net in present),
        ports=ports,
    )


def combine_sim_results(per_shard: Sequence[SimResult]) -> SimResult:
    """Fold per-shard :class:`SimResult` values into the fleet aggregate."""
    if not per_shard:
        raise ValueError("cannot combine zero shard results")
    device_counts: Dict[int, int] = {}
    extra: Dict[str, float] = {}
    for sim in per_shard:
        for device, count in sim.device_access_counts.items():
            device_counts[device] = device_counts.get(device, 0) + count
        for key, value in sim.extra.items():
            extra[key] = extra.get(key, 0.0) + value
    return SimResult(
        system=per_shard[0].system,
        total_ns=max(sim.total_ns for sim in per_shard),
        requests=sum(sim.requests for sim in per_shard),
        lookups=sum(sim.lookups for sim in per_shard),
        local_rows=sum(sim.local_rows for sim in per_shard),
        cxl_rows=sum(sim.cxl_rows for sim in per_shard),
        remote_socket_rows=sum(sim.remote_socket_rows for sim in per_shard),
        buffer_hits=sum(sim.buffer_hits for sim in per_shard),
        buffer_misses=sum(sim.buffer_misses for sim in per_shard),
        migrations=sum(sim.migrations for sim in per_shard),
        migration_cost_ns=sum(sim.migration_cost_ns for sim in per_shard),
        stall_cycles=sum(sim.stall_cycles for sim in per_shard),
        backpressure_ns=sum(sim.backpressure_ns for sim in per_shard),
        bytes_to_host=sum(sim.bytes_to_host for sim in per_shard),
        device_access_counts=device_counts,
        extra=extra,
        net=merge_net_stats([sim.net for sim in per_shard]),
    )


@dataclass
class FleetResult:
    """Outcome of one closed-loop fleet replay (per-shard + combined)."""

    system: str
    router: str
    num_shards: int
    combined: SimResult
    per_shard: List[SimResult] = field(default_factory=list)

    @property
    def total_ns(self) -> float:
        """Fleet completion time: the slowest shard's wall clock."""
        return self.combined.total_ns

    @property
    def requests(self) -> int:
        return self.combined.requests

    @property
    def lookups(self) -> int:
        return self.combined.lookups

    @property
    def goodput_lookups_per_us(self) -> float:
        """Aggregate lookup throughput over the fleet completion time."""
        return self.combined.throughput_lookups_per_us

    def shard_breakdown(self) -> List[Dict[str, Any]]:
        """Per-shard summary rows (shard index, requests, lookups, total_ns)."""
        return [
            {
                "shard": shard,
                "requests": sim.requests,
                "lookups": sim.lookups,
                "total_ns": sim.total_ns,
            }
            for shard, sim in enumerate(self.per_shard)
        ]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "system": self.system,
            "router": self.router,
            "num_shards": self.num_shards,
            "combined": self.combined.to_dict(),
            "per_shard": [sim.to_dict() for sim in self.per_shard],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FleetResult":
        return cls(
            system=str(data["system"]),
            router=str(data["router"]),
            num_shards=int(data["num_shards"]),
            combined=SimResult.from_dict(data["combined"]),
            per_shard=[SimResult.from_dict(entry) for entry in data.get("per_shard") or []],
        )

    def to_json(self, **kwargs: Any) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_json(cls, payload: str) -> "FleetResult":
        return cls.from_dict(json.loads(payload))


@dataclass
class FleetServeResult:
    """Outcome of one open-loop fleet serving session.

    ``latency``/``queue_wait``/``service`` are computed over the pooled
    per-request samples of every shard; ``duration_ns`` is the slowest
    shard's span (shards serve concurrently), and goodput/achieved QPS
    are fleet totals over that span.  ``per_shard`` keeps each rack's
    full :class:`~repro.serve.metrics.ServeResult` for breakdowns.
    """

    system: str
    router: str
    num_shards: int
    qps: float
    requests: int
    duration_ns: float
    latency: LatencyStats
    queue_wait: LatencyStats
    service: LatencyStats
    achieved_qps: float
    goodput_qps: float
    sla_attainment: float
    sla_ns: Optional[float] = None
    sim: Optional[SimResult] = None
    per_shard: List[ServeResult] = field(default_factory=list)
    #: Kept for duck-compatibility with ServeResult consumers that strip
    #: request records before pickling; fleet results never carry any.
    records: Optional[Any] = None

    @property
    def max_queue_depth(self) -> int:
        """The deepest admission queue of any shard."""
        return max((shard.max_queue_depth for shard in self.per_shard), default=0)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "system": self.system,
            "router": self.router,
            "num_shards": self.num_shards,
            "qps": self.qps,
            "requests": self.requests,
            "duration_ns": self.duration_ns,
            "latency": self.latency.to_dict(),
            "queue_wait": self.queue_wait.to_dict(),
            "service": self.service.to_dict(),
            "achieved_qps": self.achieved_qps,
            "goodput_qps": self.goodput_qps,
            "sla_attainment": self.sla_attainment,
            "sla_ns": self.sla_ns,
            "sim": self.sim.to_dict() if self.sim is not None else None,
            "per_shard": [shard.to_dict() for shard in self.per_shard],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FleetServeResult":
        sim = data.get("sim")
        return cls(
            system=str(data["system"]),
            router=str(data["router"]),
            num_shards=int(data["num_shards"]),
            qps=float(data["qps"]),
            requests=int(data["requests"]),
            duration_ns=float(data["duration_ns"]),
            latency=LatencyStats.from_dict(data["latency"]),
            queue_wait=LatencyStats.from_dict(data["queue_wait"]),
            service=LatencyStats.from_dict(data["service"]),
            achieved_qps=float(data["achieved_qps"]),
            goodput_qps=float(data["goodput_qps"]),
            sla_attainment=float(data["sla_attainment"]),
            sla_ns=None if data.get("sla_ns") is None else float(data["sla_ns"]),
            sim=None if sim is None else SimResult.from_dict(sim),
            per_shard=[ServeResult.from_dict(entry) for entry in data.get("per_shard") or []],
        )

    def to_json(self, **kwargs: Any) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_json(cls, payload: str) -> "FleetServeResult":
        return cls.from_dict(json.loads(payload))


#: Per-request (latency, queue_wait, service) samples of one shard.
ShardSamples = List[Tuple[float, float, float]]


def summarize_fleet_serve(
    *,
    system: str,
    router: str,
    qps: float,
    sla_ns: Optional[float],
    per_shard: Sequence[ServeResult],
    samples: Sequence[ShardSamples],
) -> FleetServeResult:
    """Fold per-shard serving outcomes into a :class:`FleetServeResult`.

    ``samples`` carries each shard's raw per-request timing triples —
    the workers extract them before dropping the (unpicklable-at-scale)
    record lists — so the fleet percentiles are exact over the union.
    """
    if len(per_shard) != len(samples):
        raise ValueError("per_shard and samples must align")
    latencies = [entry[0] for shard in samples for entry in shard]
    waits = [entry[1] for shard in samples for entry in shard]
    services = [entry[2] for shard in samples for entry in shard]
    requests = len(latencies)
    duration_ns = max((shard.duration_ns for shard in per_shard), default=0.0)
    duration_s = duration_ns / NS_PER_S
    if sla_ns is None:
        met = requests
    else:
        met = sum(1 for latency in latencies if latency <= sla_ns)
    stats = LatencyStats.from_samples(latencies)
    sims = [shard.sim for shard in per_shard if shard.sim is not None]
    combined_sim = combine_sim_results(sims) if len(sims) == len(per_shard) and sims else None
    if combined_sim is not None:
        combined_sim.latency = stats
    return FleetServeResult(
        system=system,
        router=router,
        num_shards=len(per_shard),
        qps=qps,
        requests=requests,
        duration_ns=duration_ns,
        latency=stats,
        queue_wait=LatencyStats.from_samples(waits),
        service=LatencyStats.from_samples(services),
        achieved_qps=requests / duration_s if duration_s > 0 else 0.0,
        goodput_qps=met / duration_s if duration_s > 0 else 0.0,
        sla_attainment=met / requests if requests else 0.0,
        sla_ns=sla_ns,
        sim=combined_sim,
        per_shard=list(per_shard),
    )
