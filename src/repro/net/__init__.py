"""Packet-level congestion tier (``repro.net``).

The analytic tier prices every transfer with closed-form arithmetic on
:class:`~repro.cxl.link.CXLLink`; it can scale bandwidth but cannot show
queueing collapse, incast at the PIFS switch, or priority inversion between
instruction streams and NMP bursts.  This package adds the missing layer:

* :class:`EventCore` — a deterministic priority-queue event core with seeded
  tie-breaking, the global-time ordering authority for the tier.
* :class:`Flow` / :class:`Priority` — per-port, per-class transfer records
  carrying the CXL protocol's transaction opcodes and priority classes.
* :class:`PortQueue` — a finite packet buffer in front of one fabric port,
  with FIFO or priority-reserved credits, credit-based backpressure and an
  optional drop/retry mode.
* :class:`PacketFabric` — attaches queues to every link of a prepared
  system and folds their observations into :class:`NetStats`.

The tier is engaged with ``fidelity="packet"`` and is *bit-identical* to the
analytic tier in the uncongested limit: queues only perturb the admission
time of a transfer, and an unbounded queue admits every packet immediately,
leaving the analytic arithmetic untouched.
"""

from repro.net.core import Event, EventCore, seeded_rank
from repro.net.fabric import PacketConfig, PacketFabric
from repro.net.packet import Flow, Priority, priority_of_opcode
from repro.net.port import PortQueue
from repro.net.stats import NetStats, PortStats

__all__ = [
    "Event",
    "EventCore",
    "Flow",
    "NetStats",
    "PacketConfig",
    "PacketFabric",
    "PortQueue",
    "PortStats",
    "Priority",
    "priority_of_opcode",
    "seeded_rank",
]
