"""Per-port packet queues with finite buffers and credit-based backpressure.

A :class:`PortQueue` sits in front of one fabric port (a ``CXLLink`` or the
inter-switch hop channel) and models its ingress buffer as a pool of
``capacity`` credits.  A packet holds a credit from admission until it is
delivered at the far end; when no credit is free the queue either stalls the
sender until one frees up (credit-based backpressure, the CXL default) or
drops the packet and retries after ``retry_ns`` (drop mode).

Crucially the queue never re-prices a transfer: it only perturbs the
*admission time*, and the analytic arithmetic in
:meth:`CXLLink.transfer <repro.cxl.link.CXLLink.transfer>` runs unchanged on
the admitted timestamp.  With ``capacity == 0`` (unbounded) admission is the
identity function, which is what makes the packet tier bit-identical to the
analytic tier in the uncongested limit — by construction, not by duplicated
arithmetic.

Two queueing policies:

* ``"fifo"`` — every priority class contends for the same credit pool.
* ``"priority"`` — credits are reserved for latency-critical classes:
  packets at or above :class:`~repro.net.packet.Priority.INSTRUCTION`
  urgency (CONTROL and INSTRUCTION) bypass the capacity check, so
  instruction streams never stall behind NMP data bursts.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.cxl.protocol import MemOpcode
from repro.net.packet import Flow, Priority, classify

POLICIES = ("fifo", "priority")

#: Record layout: (issued_ns, admitted_ns, delivered_ns, bytes, op_tag)
_PacketRecord = Tuple[float, float, float, int, object]


class PortQueue:
    """Finite ingress buffer in front of one fabric port."""

    def __init__(
        self,
        name: str,
        *,
        capacity: int = 0,
        policy: str = "fifo",
        drop: bool = False,
        retry_ns: float = 500.0,
        max_retries: int = 64,
        reserve_priority: Priority = Priority.INSTRUCTION,
    ) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0 (0 means unbounded)")
        if policy not in POLICIES:
            raise ValueError(f"unknown queue policy {policy!r}; expected one of {POLICIES}")
        if retry_ns <= 0:
            raise ValueError("retry_ns must be positive")
        if max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        self.name = name
        self._capacity = int(capacity)
        self._policy = policy
        self._drop = bool(drop)
        self._retry_ns = float(retry_ns)
        self._max_retries = int(max_retries)
        self._reserve_priority = Priority(reserve_priority)
        #: Sorted delivery times of admitted packets (buffer-credit ledger).
        #: Only maintained when the buffer is finite — an unbounded queue
        #: never consults occupancy, keeping the uncongested hot path cheap.
        self._deliveries: List[float] = []
        self._records: List[_PacketRecord] = []
        self._drops = 0
        self._retries = 0
        self._backpressure_ns = 0.0
        #: Lazily aggregated from the records (invalidated by packet count)
        #: so the per-transfer hot path stays two list appends.
        self._flows_cache: Optional[Dict[Priority, Flow]] = None
        self._flows_count = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def policy(self) -> str:
        return self._policy

    @property
    def drop_mode(self) -> bool:
        return self._drop

    @property
    def packets(self) -> int:
        return len(self._records)

    @property
    def drops(self) -> int:
        return self._drops

    @property
    def retries(self) -> int:
        return self._retries

    @property
    def backpressure_ns(self) -> float:
        return self._backpressure_ns

    @property
    def flows(self) -> Dict[Priority, Flow]:
        """Per-priority-class aggregates, computed lazily from the records."""
        if self._flows_cache is None or self._flows_count != len(self._records):
            flows: Dict[Priority, Flow] = {}
            for issued, admitted, _delivered, size, op in self._records:
                priority, label = classify(op)
                flow = flows.get(priority)
                if flow is None:
                    flow = flows[priority] = Flow(port=self.name, priority=priority)
                flow.packets += 1
                flow.bytes += size
                stalled = admitted - issued
                if stalled > 0.0:
                    flow.stalled_ns += stalled
                flow.by_op[label] = flow.by_op.get(label, 0) + 1
            self._flows_cache = flows
            self._flows_count = len(self._records)
        return dict(self._flows_cache)

    def occupancy(self, time_ns: float) -> int:
        """Buffer credits held at ``time_ns`` (finite-capacity queues only)."""
        deliveries = self._deliveries
        return len(deliveries) - bisect_right(deliveries, time_ns)


    def events(self) -> Iterator[Tuple[float, int, int]]:
        """(time_ns, delta, key) occupancy events for the EventCore replay."""
        for key, (_issued, admitted, delivered, _size, _op) in enumerate(self._records):
            yield admitted, +1, 2 * key
            yield delivered, -1, 2 * key + 1

    # ------------------------------------------------------------------
    # Hot path: bracket one transfer
    # ------------------------------------------------------------------
    def admit(
        self,
        start_ns: float,
        op: Optional[Union[MemOpcode, Priority]] = None,
        priority: Optional[Priority] = None,
    ) -> float:
        """Grant a buffer credit; returns the admission timestamp.

        Identity when the buffer is unbounded or a credit is free at
        ``start_ns``.  Otherwise backpressure stalls the sender until the
        oldest in-flight packets deliver, or drop mode discards and retries
        every ``retry_ns`` (forcing admission after ``max_retries`` so
        sessions always make progress).
        """
        capacity = self._capacity
        if capacity <= 0:
            return start_ns
        if priority is None:
            priority = classify(op)[0]
        if self._policy == "priority" and priority <= self._reserve_priority:
            # Reserved credits: latency-critical classes never wait.
            return start_ns
        deliveries = self._deliveries
        held = len(deliveries) - bisect_right(deliveries, start_ns)
        if held < capacity:
            return start_ns
        if self._drop:
            admit_ns = start_ns
            for _attempt in range(self._max_retries):
                self._drops += 1
                self._retries += 1
                admit_ns += self._retry_ns
                if len(deliveries) - bisect_right(deliveries, admit_ns) < capacity:
                    break
            return admit_ns
        # Credit backpressure: the earliest time a slot frees up is the
        # delivery of the (capacity)-th newest in-flight packet.
        admit_ns = deliveries[len(deliveries) - capacity]
        return admit_ns if admit_ns > start_ns else start_ns

    def depart(
        self,
        issued_ns: float,
        admitted_ns: float,
        delivered_ns: float,
        size_bytes: int,
        op: Optional[Union[MemOpcode, Priority]] = None,
    ) -> None:
        """Record a completed transfer (credit returned at ``delivered_ns``)."""
        if self._capacity > 0:
            insort(self._deliveries, delivered_ns)
        self._records.append((issued_ns, admitted_ns, delivered_ns, int(size_bytes), op))
        stalled = admitted_ns - issued_ns
        if stalled > 0.0:
            self._backpressure_ns += stalled


__all__ = ["POLICIES", "PortQueue"]
