"""Packet and flow abstractions over the CXL protocol's transaction types.

Every :meth:`CXLLink.transfer <repro.cxl.link.CXLLink.transfer>` call is one
packet.  The call sites tag transfers with the :class:`~repro.cxl.protocol.MemOpcode`
they carry (command flits, PIFS instruction slots, data responses); the
packet tier maps opcodes onto four priority classes so port queues can
reserve credits for latency-critical traffic:

========== =====================================================
CONTROL    request command flits (``MEM_RD``/``MEM_WR``/``MEM_INV``)
INSTRUCTION PIFS configuration and fetch slots, NMP command slots
DATA       row payloads and responses (``MEM_RD_DATA``)
BULK       inter-switch sub-sum forwarding and other background bulk
========== =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Dict, Optional, Union

from repro.cxl.protocol import MemOpcode


class Priority(IntEnum):
    """Packet priority class; lower values are more latency-critical."""

    CONTROL = 0
    INSTRUCTION = 1
    DATA = 2
    BULK = 3


#: Opcode → priority class used when a transfer is tagged with its opcode.
PRIORITY_OF_OPCODE: Dict[MemOpcode, Priority] = {
    MemOpcode.MEM_RD: Priority.CONTROL,
    MemOpcode.MEM_WR: Priority.CONTROL,
    MemOpcode.MEM_INV: Priority.CONTROL,
    MemOpcode.PIFS_CONFIG: Priority.INSTRUCTION,
    MemOpcode.PIFS_DATA_FETCH: Priority.INSTRUCTION,
    MemOpcode.MEM_RD_DATA: Priority.DATA,
}


def priority_of_opcode(op: Optional[Union[MemOpcode, Priority]]) -> Priority:
    """The priority class of a transfer tagged ``op``.

    ``op`` may be a :class:`MemOpcode` (mapped through
    :data:`PRIORITY_OF_OPCODE`), an explicit :class:`Priority` (used where no
    single opcode applies, e.g. inter-switch sub-sum forwarding is ``BULK``),
    or ``None`` — untagged transfers default to ``DATA``.
    """
    if op is None:
        return Priority.DATA
    if isinstance(op, Priority):
        return op
    return PRIORITY_OF_OPCODE.get(MemOpcode(op), Priority.DATA)


def op_label(op: Optional[Union[MemOpcode, Priority]]) -> str:
    """Stable string label for a transfer tag (flow accounting keys)."""
    if op is None:
        return "untagged"
    if isinstance(op, Priority):
        return op.name
    return MemOpcode(op).name


#: Distinct transfer tags are few (a handful of opcodes + priorities); the
#: hot paths classify each packet through this cache instead of re-running
#: the enum machinery per transfer.
_TAG_CACHE: Dict[object, "tuple[Priority, str]"] = {}


def classify(op: Optional[Union[MemOpcode, Priority]]) -> "tuple[Priority, str]":
    """``(priority, label)`` of a transfer tag, cached per distinct tag."""
    try:
        return _TAG_CACHE[op]
    except KeyError:
        tag = (priority_of_opcode(op), op_label(op))
        _TAG_CACHE[op] = tag
        return tag


@dataclass
class Flow:
    """Aggregate of all packets of one priority class through one port."""

    port: str
    priority: Priority
    packets: int = 0
    bytes: int = 0
    stalled_ns: float = 0.0
    by_op: Dict[str, int] = field(default_factory=dict)

    def record(self, packet_bytes: int, stalled_ns: float, op_key: str) -> None:
        self.packets += 1
        self.bytes += int(packet_bytes)
        self.stalled_ns += float(stalled_ns)
        self.by_op[op_key] = self.by_op.get(op_key, 0) + 1

    def to_dict(self) -> Dict[str, object]:
        return {
            "port": self.port,
            "priority": self.priority.name,
            "packets": self.packets,
            "bytes": self.bytes,
            "stalled_ns": self.stalled_ns,
            "by_op": dict(self.by_op),
        }


__all__ = [
    "Flow",
    "PRIORITY_OF_OPCODE",
    "Priority",
    "classify",
    "op_label",
    "priority_of_opcode",
]
