"""Serving metrics: tail latency, goodput, queue depth, SLA sweeps.

The serving loop records an enqueue → dispatch → complete timestamp triple
per request; this module turns those records into the quantities online
systems are judged by — latency percentiles up to p99.9, goodput under a
latency SLA, and queue-depth behaviour — and provides the SLA sweep that
binary-searches the maximum sustainable QPS under a latency budget.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.serve.arrivals import NS_PER_S
from repro.sls.result import LatencyStats, SimResult


@dataclass(frozen=True)
class RequestRecord:
    """Lifecycle timestamps of one served request (all ns)."""

    request_id: int
    host_id: int
    lane: int
    arrival_ns: int
    dispatch_ns: float
    start_ns: float
    complete_ns: float
    lookups: int

    @property
    def latency_ns(self) -> float:
        """End-to-end latency: arrival to completion."""
        return self.complete_ns - self.arrival_ns

    @property
    def queue_wait_ns(self) -> float:
        """Time spent in the admission queue before batch dispatch."""
        return self.dispatch_ns - self.arrival_ns

    @property
    def service_ns(self) -> float:
        """Pure service time on the lane (excludes queueing and dispatch)."""
        return self.complete_ns - self.start_ns


@dataclass
class ServeResult:
    """Outcome of one open-loop serving session.

    ``records`` carries the raw per-request timeline for analysis but is
    deliberately excluded from the JSON round trip (it scales with the
    workload; the summary statistics do not).
    """

    system: str
    qps: float
    arrival: str
    max_batch_size: int
    max_wait_ns: float
    seed: int
    requests: int
    duration_ns: float
    latency: LatencyStats
    queue_wait: LatencyStats
    service: LatencyStats
    achieved_qps: float
    goodput_qps: float
    sla_attainment: float
    batches: int
    mean_batch_size: float
    max_queue_depth: int
    mean_queue_depth: float
    queue_depth_timelines: Dict[int, List[Tuple[int, int]]] = field(default_factory=dict)
    sla_ns: Optional[float] = None
    sim: Optional[SimResult] = None
    records: Optional[List[RequestRecord]] = None

    # ------------------------------------------------------------------
    # JSON round trip (records excluded, see class docstring)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("records", "sim", "latency", "queue_wait", "service")
        }
        data["latency"] = self.latency.to_dict()
        data["queue_wait"] = self.queue_wait.to_dict()
        data["service"] = self.service.to_dict()
        data["sim"] = self.sim.to_dict() if self.sim is not None else None
        data["queue_depth_timelines"] = {
            str(host): [[int(t), int(d)] for t, d in timeline]
            for host, timeline in self.queue_depth_timelines.items()
        }
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServeResult":
        known = {f.name for f in fields(cls)}
        payload = {key: value for key, value in data.items() if key in known}
        for stats_field in ("latency", "queue_wait", "service"):
            value = payload.get(stats_field)
            if value is not None and not isinstance(value, LatencyStats):
                payload[stats_field] = LatencyStats.from_dict(value)
        sim = payload.get("sim")
        if sim is not None and not isinstance(sim, SimResult):
            payload["sim"] = SimResult.from_dict(sim)
        payload["queue_depth_timelines"] = {
            int(host): [(int(t), int(d)) for t, d in timeline]
            for host, timeline in dict(payload.get("queue_depth_timelines") or {}).items()
        }
        payload.pop("records", None)
        return cls(**payload)

    def to_json(self, **kwargs: Any) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_json(cls, payload: str) -> "ServeResult":
        return cls.from_dict(json.loads(payload))


def summarize(
    system: str,
    records: Sequence[RequestRecord],
    *,
    qps: float,
    arrival: str,
    max_batch_size: int,
    max_wait_ns: float,
    seed: int,
    sla_ns: Optional[float],
    batches: int,
    queue_depth_timelines: Mapping[int, Sequence[Tuple[int, int]]],
    mean_queue_depth: float,
    max_queue_depth: Optional[int] = None,
    sim: Optional[SimResult] = None,
) -> ServeResult:
    """Fold per-request records into a :class:`ServeResult`.

    ``max_queue_depth`` must come from the queues' own ``max_depth``
    tracking when available: timeline entries sharing a timestamp collapse
    to the final state, so a size-triggered dispatch (which pops at the
    exact ns of the arrival that filled the batch) erases the peak from
    the timeline.
    """
    latencies = [record.latency_ns for record in records]
    stats = LatencyStats.from_samples(latencies)
    first_arrival = min((record.arrival_ns for record in records), default=0)
    last_complete = max((record.complete_ns for record in records), default=0.0)
    duration_ns = max(0.0, last_complete - first_arrival)
    duration_s = duration_ns / NS_PER_S
    achieved = len(records) / duration_s if duration_s > 0 else 0.0
    if sla_ns is None:
        met = len(records)
    else:
        met = sum(1 for latency in latencies if latency <= sla_ns)
    attainment = met / len(records) if records else 0.0
    if sim is not None:
        sim.latency = stats
    timelines = {int(host): list(timeline) for host, timeline in queue_depth_timelines.items()}
    if max_queue_depth is None:
        max_queue_depth = max(
            (depth for timeline in timelines.values() for _, depth in timeline), default=0
        )
    return ServeResult(
        system=system,
        qps=qps,
        arrival=arrival,
        max_batch_size=max_batch_size,
        max_wait_ns=max_wait_ns,
        seed=seed,
        sla_ns=sla_ns,
        requests=len(records),
        duration_ns=duration_ns,
        latency=stats,
        queue_wait=LatencyStats.from_samples([r.queue_wait_ns for r in records]),
        service=LatencyStats.from_samples([r.service_ns for r in records]),
        achieved_qps=achieved,
        goodput_qps=met / duration_s if duration_s > 0 else 0.0,
        sla_attainment=attainment,
        batches=batches,
        mean_batch_size=len(records) / batches if batches else 0.0,
        max_queue_depth=max_queue_depth,
        mean_queue_depth=mean_queue_depth,
        queue_depth_timelines=timelines,
        sim=sim,
        records=list(records),
    )


# ---------------------------------------------------------------------------
# SLA sweep: max sustainable QPS under a latency budget
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SLAProbe:
    """One evaluated QPS point of an SLA sweep."""

    qps: float
    latency_ns: float
    meets_sla: bool


@dataclass
class SLASweepResult:
    """Outcome of :func:`sla_sweep`."""

    sla_ns: float
    percentile: str
    max_sustainable_qps: float
    probes: List[SLAProbe] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sla_ns": self.sla_ns,
            "percentile": self.percentile,
            "max_sustainable_qps": self.max_sustainable_qps,
            "probes": [asdict(probe) for probe in self.probes],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SLASweepResult":
        return cls(
            sla_ns=float(data["sla_ns"]),
            percentile=str(data.get("percentile", "p99")),
            max_sustainable_qps=float(data["max_sustainable_qps"]),
            probes=[SLAProbe(**probe) for probe in data.get("probes") or []],
        )


def _geometric_grid(lo: float, hi: float, points: int) -> List[float]:
    ratio = (hi / lo) ** (1.0 / (points - 1))
    return [lo * ratio**i for i in range(points)]


def check_sla_sweep_args(
    sla_ns: float, qps_bounds: Tuple[float, float], grid_points: int, refine_iters: int
) -> None:
    """Raise a ``ValueError`` naming the :func:`sla_sweep` argument out of range.

    Callers that start workers for the sweep check first, so a bad value
    fails before any process exists.
    """
    lo, hi = qps_bounds
    if lo <= 0 or hi <= 0 or lo > hi:
        raise ValueError("qps_bounds must satisfy 0 < lo <= hi")
    if sla_ns <= 0:
        raise ValueError("sla_ns must be positive")
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points!r}")
    if refine_iters < 0:
        raise ValueError(f"refine_iters must be >= 0, got {refine_iters!r}")


def sla_sweep(
    evaluate: Callable[[float], ServeResult],
    sla_ns: float,
    qps_bounds: Tuple[float, float],
    *,
    percentile: str = "p99",
    grid_points: int = 4,
    refine_iters: int = 8,
    map_fn: Callable[[Callable[[float], ServeResult], Iterable[float]], Iterable[ServeResult]] = map,
) -> SLASweepResult:
    """Find the maximum QPS whose ``percentile`` latency meets ``sla_ns``.

    Two stages: a geometric QPS grid brackets the saturation point (its
    evaluations are independent, so ``map_fn`` may be a process pool's
    ``map`` — serial and parallel execution produce identical results),
    then a serial binary search refines inside the bracket.  The result is
    monotone non-increasing as the budget tightens: any probe that meets a
    tight budget also meets every looser one, so a tighter budget's search
    path can never overtake a looser one's.
    """
    check_sla_sweep_args(sla_ns, qps_bounds, grid_points, refine_iters)
    lo, hi = qps_bounds
    probes: List[SLAProbe] = []

    def probe_of(qps: float, result: ServeResult) -> SLAProbe:
        latency = result.latency.quantile(percentile)
        probe = SLAProbe(qps=qps, latency_ns=latency, meets_sla=latency <= sla_ns)
        probes.append(probe)
        return probe

    grid = _geometric_grid(lo, hi, grid_points)
    graded = [
        probe_of(qps, result) for qps, result in zip(grid, map_fn(evaluate, grid))
    ]

    best_ok: Optional[float] = None
    first_fail: Optional[float] = None
    for probe in graded:  # grid is ascending; keep the last passing point
        if probe.meets_sla:
            best_ok = probe.qps
            first_fail = None
        elif first_fail is None:
            first_fail = probe.qps
    if best_ok is None:
        return SLASweepResult(sla_ns, percentile, 0.0, probes)
    if first_fail is None:  # even the top of the range meets the budget
        return SLASweepResult(sla_ns, percentile, best_ok, probes)

    search_lo, search_hi = best_ok, first_fail
    for _ in range(refine_iters):
        mid = (search_lo + search_hi) / 2.0
        if probe_of(mid, evaluate(mid)).meets_sla:
            search_lo = mid
        else:
            search_hi = mid
    return SLASweepResult(sla_ns, percentile, search_lo, probes)


__all__ = [
    "RequestRecord",
    "SLAProbe",
    "SLASweepResult",
    "ServeResult",
    "check_sla_sweep_args",
    "sla_sweep",
    "summarize",
]
