"""Multi-layer instruction forwarding across fabric switches (§IV-C).

In a scaled-out fabric every switch owns a local host and local Type 3
memory.  A row-accumulation request whose candidates span several switches
is split: each remote switch accumulates its local candidates and forwards
only the partial sum back to the local switch, which combines the sub-sums
once every one has arrived, so the latest return trip decides.  Switches
without a process core (CNV = 0) forward raw rows instead, and the local
switch accumulates them itself.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.config import CXLConfig
from repro.cxl.topology import FabricTopology
from repro.net.packet import Priority


class MultiSwitchCoordinator:
    """Cost model for splitting an accumulation across a fabric of switches."""

    def __init__(
        self,
        topology: FabricTopology,
        cxl_config: CXLConfig,
        compute_capable: Optional[Sequence[bool]] = None,
    ) -> None:
        self._topology = topology
        self._config = cxl_config
        if compute_capable is None:
            compute_capable = [True] * topology.num_switches
        if len(compute_capable) != topology.num_switches:
            raise ValueError("compute_capable must have one flag per switch")
        self._cnv = list(compute_capable)
        # Packet-tier hop channel (``fidelity="packet"``): a PortQueue that
        # treats a sub-sum's round trip as holding one buffer credit from
        # admission until it lands back at the home switch.
        self._hop_port = None
        self._hop_bytes = 0

    @property
    def num_switches(self) -> int:
        return self._topology.num_switches

    @property
    def topology(self) -> FabricTopology:
        """The fabric topology behind this coordinator (fault injection
        degrades inter-switch hops through it)."""
        return self._topology

    def is_compute_capable(self, switch_id: int) -> bool:
        """The CNV bit read during configuration (§IV-C2)."""
        return self._cnv[switch_id]

    def attach_hop_port(self, port, bytes_hint: int = 0) -> None:
        """Install (or remove, with ``None``) a packet-tier hop channel.

        ``bytes_hint`` sizes the forwarded sub-sum payload for flow
        accounting (typically the embedding row width).
        """
        self._hop_port = port
        self._hop_bytes = int(bytes_hint)

    def return_trip_ns(self, home_switch_id: int, remote_switch_id: int, ready_ns: float) -> float:
        """When a remote sub-sum ready at ``ready_ns`` lands at the home switch.

        The analytic price is the request/response hop pair
        (``2 * hop_latency_ns``).  With a packet-tier hop channel attached,
        the sub-sum first needs a transit credit: ``degrade_hops`` lengthens
        the transit, credits are held longer, occupancy rises, and a finite
        channel backs up — degradation alters occupancy, not just the price.
        Without a channel (or with unbounded credits) the arithmetic below
        is bit-identical to the historical inline pricing.
        """
        hop_ns = 2 * self.hop_latency_ns(home_switch_id, remote_switch_id)
        port = self._hop_port
        if port is None:
            return ready_ns + hop_ns
        admitted = port.admit(ready_ns, Priority.BULK)
        landed = admitted + hop_ns
        port.depart(ready_ns, admitted, landed, self._hop_bytes, Priority.BULK)
        return landed

    def hop_latency_ns(self, src: int, dst: int) -> float:
        """Inter-switch hop latency between two switches of the fabric.

        Served from the topology's route table — the BFS behind it runs
        once per (src, dst) pair per session, not once per request.
        """
        return self._topology.hop_latency_ns(src, dst)

    def remote_accumulation_time(
        self,
        local_switch: int,
        remote_switch: int,
        rows: int,
        row_bytes: int,
        per_row_fetch_ns: float,
        issue_ns: float,
    ) -> float:
        """Time for ``remote_switch`` to produce and deliver its contribution.

        A compute-capable remote switch accumulates its rows locally and
        forwards one ``row_bytes`` partial sum; a CNV=0 switch streams every
        raw row to ``local_switch``, which accumulates them itself.
        """
        if rows <= 0:
            raise ValueError("rows must be positive")
        hop_ns = self._topology.hop_latency_ns(local_switch, remote_switch)
        request_arrival = issue_ns + hop_ns
        if self.is_compute_capable(remote_switch):
            # Fetches to the remote switch's local devices proceed in
            # parallel; the slowest row dominates, plus one partial-sum
            # transfer back.
            local_done = request_arrival + per_row_fetch_ns
            return local_done + hop_ns
        # CNV=0: every raw row crosses the inter-switch link and is
        # accumulated by the local switch's process core.
        stream_ns = rows * (row_bytes / self._config.downstream_port_bandwidth_gbps)
        return request_arrival + per_row_fetch_ns + hop_ns + stream_ns


__all__ = ["MultiSwitchCoordinator"]
