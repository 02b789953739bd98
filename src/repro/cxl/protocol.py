"""CXL transaction-layer messages used by the simulator.

Only the fields that influence behaviour are modelled.  The enhanced
instruction format of Fig 9 (sumtag, SumCandidateCount, vectorsize, SPID
rewrite) lives in :mod:`repro.pifs.instructions`; this module defines the
standard opcodes and the CXL.mem message containers shared by hosts,
switches and devices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from itertools import count

_MESSAGE_IDS = count()


class MemOpcode(IntEnum):
    """CXL.mem memory opcodes (subset) plus the two PIFS extensions.

    ``MEM_RD``/``MEM_WR`` are the standard request opcodes forwarded
    unchanged by a conventional fabric switch.  ``PIFS_DATA_FETCH`` (0b1110)
    and ``PIFS_CONFIG`` (0b1111) are the enhanced opcodes introduced in
    Fig 9: a data-fetch carries a sumtag + vectorsize, a configuration
    message programs the Accumulate Configuration Register with the
    SumCandidateCount and the reserved result address.
    """

    MEM_RD = 0b0000
    MEM_WR = 0b0001
    MEM_RD_DATA = 0b0010
    MEM_INV = 0b0011
    PIFS_DATA_FETCH = 0b1110
    PIFS_CONFIG = 0b1111


@dataclass
class CXLMemM2S:
    """A CXL.mem master-to-subordinate request."""

    opcode: MemOpcode
    address: int
    spid: int  # source port id (which agent issued the request)
    dpid: int = 0  # destination port id (filled in by switch routing)
    tag: int = 0
    sumtag: int = 0
    vector_size: int = 0  # number of 16 B chunks forming a row access
    sum_candidate_count: int = 0
    weight: float = 1.0
    data_bytes: int = 64
    issue_ns: float = 0.0
    message_id: int = field(default_factory=lambda: next(_MESSAGE_IDS))


@dataclass
class CXLMemS2M:
    """A CXL.mem subordinate-to-master response (data + valid signal)."""

    request_id: int
    address: int
    data_valid: bool
    finish_ns: float
    data_bytes: int = 64


__all__ = ["MemOpcode", "CXLMemM2S", "CXLMemS2M"]
