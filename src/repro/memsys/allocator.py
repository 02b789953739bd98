"""Initial page-placement policies.

The characterization study compares four placements of the embedding
working set (Fig 5):

* ``LOCAL_ONLY``       — everything in CPU-attached local DRAM,
* ``REMOTE_FRACTION``  — a fraction spills to the remote CPU socket,
* ``CXL_FRACTION``     — the same fraction spills to CXL memory,
* ``INTERLEAVE``       — software interleaving: the spill fraction is
  round-robined across all CXL nodes while the rest stays local (the 4:1
  policy the paper found optimal),
* ``CXL_ONLY``         — everything on CXL (the BEACON placement).
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, List, Sequence

from repro.memsys.node import MemoryNode, MemoryTier


class PlacementPolicy(Enum):
    LOCAL_ONLY = "local_only"
    REMOTE_FRACTION = "remote_fraction"
    CXL_FRACTION = "cxl_fraction"
    INTERLEAVE = "interleave"
    CXL_ONLY = "cxl_only"


class InterleaveAllocator:
    """Maps page ids to memory nodes according to a placement policy."""

    def __init__(
        self,
        nodes: Sequence[MemoryNode],
        policy: PlacementPolicy = PlacementPolicy.INTERLEAVE,
        spill_fraction: float = 0.2,
    ) -> None:
        if not nodes:
            raise ValueError("at least one memory node is required")
        if not 0.0 <= spill_fraction <= 1.0:
            raise ValueError("spill_fraction must be in [0, 1]")
        self._nodes = list(nodes)
        self._policy = policy
        self._spill_fraction = spill_fraction
        self._local = [n for n in self._nodes if n.tier is MemoryTier.LOCAL_DRAM]
        self._remote = [n for n in self._nodes if n.tier is MemoryTier.REMOTE_SOCKET]
        self._cxl = [n for n in self._nodes if n.tier is MemoryTier.CXL]

    @property
    def policy(self) -> PlacementPolicy:
        return self._policy

    @property
    def spill_fraction(self) -> float:
        return self._spill_fraction

    def _require(self, nodes: List[MemoryNode], tier: str) -> List[MemoryNode]:
        if not nodes:
            raise ValueError(f"placement policy {self._policy.value} needs a {tier} node")
        return nodes

    def place_pages(self, num_pages: int) -> Dict[int, int]:
        """Return a mapping page_id -> node_id for ``num_pages`` pages.

        Pages are placed deterministically: page ids are striped so that the
        spill fraction is spread uniformly over the whole address range
        (every k-th page spills), which mirrors interleaved allocation rather
        than allocating a contiguous cold region.
        """
        if num_pages <= 0:
            raise ValueError("num_pages must be positive")
        placement: Dict[int, int] = {}
        if self._policy is PlacementPolicy.LOCAL_ONLY:
            local = self._require(self._local, "local DRAM")
            for page in range(num_pages):
                placement[page] = local[page % len(local)].node_id
            return placement
        if self._policy is PlacementPolicy.CXL_ONLY:
            # Everything lives on a single CXL expander (the configuration the
            # characterization study compares the interleave policy against).
            cxl = self._require(self._cxl, "CXL")
            for page in range(num_pages):
                placement[page] = cxl[0].node_id
            return placement

        if self._policy is PlacementPolicy.REMOTE_FRACTION:
            spill_nodes = self._require(self._remote, "remote socket")
        elif self._policy is PlacementPolicy.CXL_FRACTION:
            # A single CXL expander absorbs the spill (no software
            # interleaving) — the configuration of Fig 5 (c)-(d).
            spill_nodes = self._require(self._cxl, "CXL")[:1]
        else:  # INTERLEAVE spreads the spill across every CXL node
            spill_nodes = self._require(self._cxl, "CXL")
        local = self._require(self._local, "local DRAM")

        if self._spill_fraction <= 0.0:
            period, spill_per_period = 1, 0
        else:
            period = max(1, round(1.0 / self._spill_fraction))
            spill_per_period = 1
        spill_counter = 0
        for page in range(num_pages):
            spills = period > 0 and (page % period) < spill_per_period and self._spill_fraction > 0
            if spills:
                node = spill_nodes[spill_counter % len(spill_nodes)]
                spill_counter += 1
            else:
                node = local[page % len(local)]
            placement[page] = node.node_id
        return placement


__all__ = ["InterleaveAllocator", "PlacementPolicy"]
