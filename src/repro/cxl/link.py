"""FlexBus / CXL link model.

A link is characterized by a peak bandwidth (GB/s == bytes per ns), a
propagation latency (I/O port + retimer), and a busy-until timestamp that
serializes transfers, which is how flex-bus congestion under heavy memory
traffic (§III "limitations") manifests in the simulator.
"""

from __future__ import annotations


class CXLLink:
    """A unidirectional CXL/FlexBus link."""

    def __init__(
        self,
        bandwidth_gbps: float,
        propagation_ns: float = 15.0,
        name: str = "link",
    ) -> None:
        if bandwidth_gbps <= 0:
            raise ValueError("bandwidth must be positive")
        self._bandwidth = bandwidth_gbps
        self._propagation_ns = propagation_ns
        self._name = name
        #: Optional packet-tier port queue (``fidelity="packet"``); when
        #: attached it brackets every transfer — admission before the
        #: analytic arithmetic, observation after.
        self._port = None
        self._busy_until_ns = 0.0
        self._bytes_transferred = 0
        self._transfers = 0
        self._queued_ns = 0.0

    @property
    def name(self) -> str:
        return self._name

    @property
    def bandwidth_gbps(self) -> float:
        return self._bandwidth

    @property
    def propagation_ns(self) -> float:
        return self._propagation_ns

    @property
    def bytes_transferred(self) -> int:
        return self._bytes_transferred

    @property
    def transfers(self) -> int:
        return self._transfers

    @property
    def busy_until_ns(self) -> float:
        return self._busy_until_ns

    @property
    def total_queue_delay_ns(self) -> float:
        """Total time transfers spent waiting for the link to free up."""
        return self._queued_ns

    def degrade(
        self, bandwidth_scale: float = 1.0, extra_propagation_ns: float = 0.0
    ) -> None:
        """Degrade the link in place: scale bandwidth, add propagation delay.

        Models a FlexBus link renegotiated to a narrower width / lower rate
        or a marginal retimer adding latency.  Must be applied while no
        flattened kernel holds the link's state (the engine applies session
        mutators before the vector kernels are built), because kernels
        snapshot ``bandwidth_gbps``/``propagation_ns`` at construction.
        """
        if bandwidth_scale <= 0:
            raise ValueError("bandwidth_scale must be positive")
        if extra_propagation_ns < 0:
            raise ValueError("extra_propagation_ns must be non-negative")
        self._bandwidth = self._bandwidth * bandwidth_scale
        self._propagation_ns = self._propagation_ns + extra_propagation_ns

    def attach_port(self, port) -> None:
        """Install (or remove, with ``None``) a packet-tier port queue.

        The queue brackets :meth:`transfer`: it may delay the admission time
        (credit backpressure / drop-retry) and observes every completed
        transfer.  It never re-prices the transfer itself — the analytic
        arithmetic below stays the single source of truth, which is what
        keeps the packet tier bit-identical in the uncongested limit.
        """
        self._port = port

    @property
    def port(self):
        """The attached packet-tier port queue, if any."""
        return self._port

    def transfer(self, bytes_count: int, start_ns: float, op=None) -> float:
        """Transfer ``bytes_count`` bytes beginning no earlier than ``start_ns``.

        Returns the time at which the last byte arrives at the far end.
        ``op`` optionally tags the transfer with the protocol opcode it
        carries (a :class:`~repro.cxl.protocol.MemOpcode`) — ignored by the
        analytic arithmetic, consumed by the packet tier for priority
        queueing and flow accounting.
        """
        if bytes_count < 0:
            raise ValueError("bytes_count must be non-negative")
        port = self._port
        admitted = start_ns if port is None else port.admit(start_ns, op)
        serialization = bytes_count / self._bandwidth
        begin = max(admitted, self._busy_until_ns)
        self._queued_ns += begin - admitted
        finish_serialization = begin + serialization
        self._busy_until_ns = finish_serialization
        self._bytes_transferred += bytes_count
        self._transfers += 1
        delivered = finish_serialization + self._propagation_ns
        if port is not None:
            port.depart(start_ns, admitted, delivered, bytes_count, op)
        return delivered

    def utilization(self, elapsed_ns: float) -> float:
        """Link utilization over ``elapsed_ns``."""
        if elapsed_ns <= 0:
            return 0.0
        return min(1.0, (self._bytes_transferred / self._bandwidth) / elapsed_ns)

    def reset(self) -> None:
        self._busy_until_ns = 0.0
        self._bytes_transferred = 0
        self._transfers = 0
        self._queued_ns = 0.0


__all__ = ["CXLLink"]
