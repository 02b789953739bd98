"""Tiered memory system: page table, per-node accounting, migration engine."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import CACHE_LINE_BYTES, MIGRATION_MODES, PAGE_SIZE_BYTES
from repro.memsys.node import MemoryNode, MemoryTier


@dataclass
class MigrationRecord:
    """One page migration event."""

    page_id: int
    src_node: int
    dst_node: int
    cost_ns: float
    mode: str  # "page_block" | "cacheline_block"


@dataclass
class MigrationStats:
    """Aggregate migration accounting: page moves and their summed cost (ns)."""

    migrations: int = 0
    cost_ns: float = 0.0


class TieredMemorySystem:
    """Page-granular placement over a set of memory nodes.

    The tiered system owns the page table, per-node access counters and
    the migration engine that models the cost of page-block vs
    cache-line-block migration (§IV-B4).  The page table is two numpy
    columns indexed by page id: the node holding each page (``-1`` for an
    unplaced id) and its access count since the last decay, the two facts
    the page-management policies read (§IV-B2, §IV-B3).  The count column
    is the only page hotness: the policies rank pages through
    :meth:`ranked_pages`.
    """

    #: Cost to move one cache line between nodes (ns): the copy is pipelined
    #: over the CXL link, so the per-line cost is close to its serialization
    #: time; used by both migration modes.
    CACHELINE_COPY_NS = 5.0
    #: Extra fixed software overhead of an OS page-granular migration
    #: (unmap/TLB-shootdown/remap) in ns.
    PAGE_BLOCK_OVERHEAD_NS = 1500.0
    #: Extra fixed overhead of the cache-line-granular migration controller.
    CACHELINE_BLOCK_OVERHEAD_NS = 100.0
    #: Share of an epoch's migration cost that queries see as a stall, per
    #: migration mode.  Cache-line-block migration stages only the in-flight
    #: line in the switch, so it barely blocks query processing; OS
    #: page-block migration makes the whole page inaccessible and stalls the
    #: queries that touch it for a sizeable fraction of the copy.
    STALL_FRACTION = {"page_block": 0.25, "cacheline_block": 0.05}

    def __init__(
        self,
        nodes: Sequence[MemoryNode],
        migration_mode: str = "cacheline_block",
    ) -> None:
        if not nodes:
            raise ValueError("at least one node is required")
        if migration_mode not in MIGRATION_MODES:
            raise ValueError(f"unknown migration mode {migration_mode!r}")
        self._nodes: Dict[int, MemoryNode] = {node.node_id: node for node in nodes}
        if len(self._nodes) != len(nodes):
            raise ValueError("node ids must be unique")
        self._migration_mode = migration_mode
        self._node = np.zeros(0, dtype=np.int64)
        self._count = np.zeros(0, dtype=np.int64)
        # Node id -> "in this tier" flags for the column passes; an unplaced
        # page's -1 reads the spare last slot, which is in no tier.
        size = max(self._nodes) + 2
        self._in_tier = {tier: np.zeros(size, dtype=bool) for tier in MemoryTier}
        for node in nodes:
            self._in_tier[node.tier][node.node_id] = True
        self._migration_stats = MigrationStats()
        # Placement generation: bumped whenever any page changes node, so
        # batched resolvers can cache gathers from the node column and
        # invalidate them only when a migration/placement actually happened.
        self._generation = 0

    # ------------------------------------------------------------------
    # Construction / placement
    # ------------------------------------------------------------------
    @property
    def migration_mode(self) -> str:
        return self._migration_mode

    @property
    def migration_stats(self) -> MigrationStats:
        return self._migration_stats

    def nodes(self) -> List[MemoryNode]:
        return [self._nodes[k] for k in sorted(self._nodes)]

    def node(self, node_id: int) -> MemoryNode:
        return self._nodes[node_id]

    def nodes_by_tier(self, tier: MemoryTier) -> List[MemoryNode]:
        return [n for n in self.nodes() if n.tier is tier]

    def install_placement(self, placement: Dict[int, int]) -> None:
        """Install an initial page placement (page id -> node id)."""
        page_ids = np.fromiter(placement, dtype=np.int64, count=len(placement))
        if page_ids.min(initial=0) < 0:
            raise ValueError("page ids must be non-negative")
        grow = int(page_ids.max(initial=-1)) + 1 - self._node.size
        if grow > 0:
            self._node = np.concatenate([self._node, np.full(grow, -1, dtype=np.int64)])
            self._count = np.concatenate([self._count, np.zeros(grow, dtype=np.int64)])
        placed = page_ids[self._node[page_ids] >= 0]
        if placed.size:
            raise ValueError(f"page {placed[0]} already placed")
        for node_id, pages in Counter(placement.values()).items():
            if node_id not in self._nodes:
                raise KeyError(f"unknown node id {node_id}")
            self._nodes[node_id].allocate(pages * PAGE_SIZE_BYTES)
        self._node[page_ids] = np.fromiter(placement.values(), dtype=np.int64, count=len(placement))
        self._generation += 1

    def place_page(self, page_id: int, node_id: int) -> None:
        """Place a single page (used by tests and incremental allocation)."""
        self.install_placement({page_id: node_id})

    # ------------------------------------------------------------------
    # Lookup / access recording
    # ------------------------------------------------------------------
    def _node_id(self, page_id: int) -> int:
        """The node id holding ``page_id``; :class:`KeyError` if unplaced.

        The range check keeps a negative id from reading the column from
        its end.
        """
        if 0 <= page_id < self._node.size:
            node_id = self._node.item(page_id)
            if node_id >= 0:
                return node_id
        raise KeyError(page_id)

    def node_of_address(self, address: int) -> MemoryNode:
        """The node currently holding ``address``."""
        return self._nodes[self._node_id(address // PAGE_SIZE_BYTES)]

    def node_of_page(self, page_id: int) -> MemoryNode:
        return self._nodes[self._node_id(page_id)]

    def record_access(self, address: int) -> None:
        """Record an access to ``address`` in page and node counters."""
        page_id = address // PAGE_SIZE_BYTES
        node_id = self._node_id(page_id)
        self._count[page_id] += 1
        self._nodes[node_id].access_count += 1

    def record_pages(self, page_ids: Sequence[int]) -> None:
        """Record one access per entry of ``page_ids`` (the batched path).

        Equivalent to calling :meth:`record_access` once per page: one
        bincount of the pages is added to the count column and one of
        their owning nodes to the node counters.  The pages must be placed
        under the *current* placement — the vectorized engine flushes
        before every maintenance pass, so no migration falls between
        record and flush.
        """
        pages = np.asarray(page_ids, dtype=np.int64)
        counts = np.bincount(pages)
        self._count[: counts.size] += counts
        for node_id, count in enumerate(np.bincount(self._node[pages]).tolist()):
            if count:
                self._nodes[node_id].access_count += count

    def node_access_counts(self) -> Dict[int, int]:
        """Accesses recorded per node; these counts never decay."""
        return {node_id: node.access_count for node_id, node in self._nodes.items()}

    # ------------------------------------------------------------------
    # The page columns (the vectorized engine and the policies read them)
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Monotonic placement version; changes iff some page changed node."""
        return self._generation

    def node_id_table(self) -> np.ndarray:
        """The ``page id -> node id`` column (int64; ``-1`` for unplaced).

        Batched resolvers gather node ids for whole address batches with
        one numpy indexing operation.  The array is the live column: moves
        write it in place and a placement that grows the table replaces it,
        so callers read it and do not keep it.
        """
        return self._node

    def access_count_table(self) -> np.ndarray:
        """The ``page id -> access count`` column (int64); live, like :meth:`node_id_table`."""
        return self._count

    def pages_in(self, tier: MemoryTier) -> np.ndarray:
        """Ids of the pages held by ``tier``'s nodes, ascending."""
        return np.flatnonzero(self._in_tier[tier][self._node])

    def pages_on(self, node_id: int) -> np.ndarray:
        """Ids of the pages held by node ``node_id``, ascending."""
        return np.flatnonzero(self._node == node_id)

    def ranked_pages(self, page_ids: np.ndarray, k: int, hottest: bool) -> List[Tuple[int, int]]:
        """The first ``k`` of ``page_ids`` (ascending) as (page id, count).

        Pages rank by access count, hottest or coldest first, and equal
        counts rank in page-id order.  The rank key ``±count * span +
        page_id`` is unique, so the partial selection keeps that order;
        int64 holds it while ``count * span`` stays below 2**63.
        """
        if k == 0 or page_ids.size == 0:
            return []
        page_counts = self._count[page_ids]
        span = int(page_ids[-1]) + 1
        key = (-page_counts if hottest else page_counts) * span + page_ids
        top = np.argpartition(key, min(k, key.size) - 1)[:k]
        top = top[np.argsort(key[top])]
        return list(zip(page_ids[top].tolist(), page_counts[top].tolist()))

    # ------------------------------------------------------------------
    # Migration
    # ------------------------------------------------------------------
    def migration_cost_ns(self, mode: Optional[str] = None) -> float:
        """Cost of migrating one page under ``mode`` (default: configured)."""
        mode = mode or self._migration_mode
        lines = PAGE_SIZE_BYTES // CACHE_LINE_BYTES
        copy_cost = lines * self.CACHELINE_COPY_NS
        if mode == "page_block":
            return copy_cost + self.PAGE_BLOCK_OVERHEAD_NS
        return copy_cost + self.CACHELINE_BLOCK_OVERHEAD_NS

    def migration_stall_ns(self, cost_ns: float, mode: Optional[str] = None) -> float:
        """The query-visible stall of migrations costing ``cost_ns`` under
        ``mode`` (default: configured); see :attr:`STALL_FRACTION`."""
        return cost_ns * self.STALL_FRACTION[mode or self._migration_mode]

    def migrate_page(
        self, page_id: int, dst_node_id: int, mode: Optional[str] = None
    ) -> MigrationRecord:
        """Migrate ``page_id`` to ``dst_node_id``; returns the event record."""
        if dst_node_id not in self._nodes:
            raise KeyError(f"unknown node id {dst_node_id}")
        src_node_id = self._node_id(page_id)
        mode = mode or self._migration_mode
        if src_node_id == dst_node_id:
            return MigrationRecord(page_id, src_node_id, dst_node_id, 0.0, mode)
        dst = self._nodes[dst_node_id]
        if not dst.can_fit(PAGE_SIZE_BYTES):
            raise MemoryError(f"node {dst.name} has no room for page {page_id}")
        cost = self.migration_cost_ns(mode)
        dst.allocate(PAGE_SIZE_BYTES)
        self._nodes[src_node_id].release(PAGE_SIZE_BYTES)
        self._node[page_id] = dst_node_id
        self._generation += 1
        self._migration_stats.migrations += 1
        self._migration_stats.cost_ns += cost
        return MigrationRecord(page_id, src_node_id, dst_node_id, cost, mode)

    def swap_pages(self, page_a: int, page_b: int) -> List[MigrationRecord]:
        """Swap the placements of two pages (claim & swap, Fig 10a)."""
        node_a = self._node_id(page_a)
        node_b = self._node_id(page_b)
        if node_a == node_b:
            return []
        # Perform the swap without requiring slack capacity on either node:
        # the exchange is modelled as two migrations whose capacity effects
        # cancel out.
        self._node[page_a] = node_b
        self._node[page_b] = node_a
        self._generation += 1
        cost = self.migration_cost_ns()
        self._migration_stats.migrations += 2
        self._migration_stats.cost_ns += 2 * cost
        return [
            MigrationRecord(page_a, node_a, node_b, cost, self._migration_mode),
            MigrationRecord(page_b, node_b, node_a, cost, self._migration_mode),
        ]

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def decay_hotness(self, factor: float = 0.5) -> None:
        """Scale every page count by ``factor``, truncating."""
        if not 0.0 <= factor <= 1.0:
            raise ValueError("decay factor must be in [0, 1]")
        self._count = (self._count * factor).astype(np.int64)


__all__ = ["TieredMemorySystem", "MigrationRecord", "MigrationStats"]
