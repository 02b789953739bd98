"""Tiered-memory substrate: pages, memory nodes, placement, page hotness.

The package models the machine of the characterization study (§III): a
local-DRAM tier, an optional remote-CPU-socket tier, and one or more CXL
memory nodes.  Placement is page granular (4 KB), matching the paper's
software architecture; the page table's access-count column and the
migration engine are the mechanisms the page-management policies in
:mod:`repro.pagemgmt` build on.
"""

from repro.memsys.address_space import AddressSpace
from repro.memsys.allocator import InterleaveAllocator, PlacementPolicy
from repro.memsys.node import MemoryNode, MemoryTier
from repro.memsys.page import page_id_of
from repro.memsys.tiered import TieredMemorySystem

__all__ = [
    "AddressSpace",
    "InterleaveAllocator",
    "PlacementPolicy",
    "MemoryNode",
    "MemoryTier",
    "page_id_of",
    "TieredMemorySystem",
]
