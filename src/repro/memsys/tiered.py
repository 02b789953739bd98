"""Tiered memory system: page table, per-node accounting, migration engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.config import CACHE_LINE_BYTES, MIGRATION_MODES, PAGE_SIZE_BYTES
from repro.memsys.hotness import AccessTracker
from repro.memsys.node import MemoryNode, MemoryTier
from repro.memsys.page import Page, page_id_of


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
    """Aggregate migration accounting."""

    migrations: int = 0
    total_cost_ns: float = 0.0
    blocked_row_accesses: int = 0

    def record(self, cost_ns: float, blocked_rows: int) -> None:
        self.migrations += 1
        self.total_cost_ns += cost_ns
        self.blocked_row_accesses += blocked_rows


class TieredMemorySystem:
    """Page-granular placement over a set of memory nodes.

    The tiered system owns the page table (page id -> node), per-page and
    per-node access counters, and the migration engine that models the cost
    of page-block vs cache-line-block migration (§IV-B4).
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

    def __init__(
        self,
        nodes: Sequence[MemoryNode],
        page_size: int = PAGE_SIZE_BYTES,
        migration_mode: str = "cacheline_block",
    ) -> None:
        if not nodes:
            raise ValueError("at least one node is required")
        if migration_mode not in MIGRATION_MODES:
            raise ValueError(f"unknown migration mode {migration_mode!r}")
        self._nodes: Dict[int, MemoryNode] = {node.node_id: node for node in nodes}
        if len(self._nodes) != len(nodes):
            raise ValueError("node ids must be unique")
        self._page_size = page_size
        self._migration_mode = migration_mode
        self._pages: Dict[int, Page] = {}
        self._node_access: Dict[int, AccessTracker] = {
            node_id: AccessTracker() for node_id in self._nodes
        }
        self._migration_stats = MigrationStats()
        self._migration_log: List[MigrationRecord] = []
        # Placement generation: bumped whenever any page changes node, so
        # batched resolvers can cache the dense page table and invalidate it
        # only when a migration/placement actually happened.
        self._generation = 0
        self._table_cache: Optional[np.ndarray] = None
        self._table_cache_generation = -1

    # ------------------------------------------------------------------
    # Construction / placement
    # ------------------------------------------------------------------
    @property
    def page_size(self) -> int:
        return self._page_size

    @property
    def migration_mode(self) -> str:
        return self._migration_mode

    @property
    def migration_stats(self) -> MigrationStats:
        return self._migration_stats

    @property
    def migration_log(self) -> List[MigrationRecord]:
        return list(self._migration_log)

    def nodes(self) -> List[MemoryNode]:
        return [self._nodes[k] for k in sorted(self._nodes)]

    def node(self, node_id: int) -> MemoryNode:
        return self._nodes[node_id]

    def nodes_by_tier(self, tier: MemoryTier) -> List[MemoryNode]:
        return [n for n in self.nodes() if n.tier is tier]

    def pages(self) -> List[Page]:
        return [self._pages[k] for k in sorted(self._pages)]

    def num_pages(self) -> int:
        return len(self._pages)

    def install_placement(self, placement: Dict[int, int]) -> None:
        """Install an initial page placement (page id -> node id)."""
        for page_id, node_id in placement.items():
            if node_id not in self._nodes:
                raise KeyError(f"unknown node id {node_id}")
            if page_id in self._pages:
                raise ValueError(f"page {page_id} already placed")
            self._nodes[node_id].allocate(self._page_size)
            self._pages[page_id] = Page(page_id=page_id, node_id=node_id)
        self._generation += 1

    def place_page(self, page_id: int, node_id: int) -> Page:
        """Place a single page (used by tests and incremental allocation)."""
        self.install_placement({page_id: node_id})
        return self._pages[page_id]

    # ------------------------------------------------------------------
    # Lookup / access recording
    # ------------------------------------------------------------------
    def page(self, page_id: int) -> Page:
        return self._pages[page_id]

    def node_of_address(self, address: int) -> MemoryNode:
        """The node currently holding ``address``."""
        page = self._pages[page_id_of(address, self._page_size)]
        return self._nodes[page.node_id]

    def node_of_page(self, page_id: int) -> MemoryNode:
        return self._nodes[self._pages[page_id].node_id]

    def record_access(self, address: int, now_ns: float = 0.0) -> Page:
        """Record an access to ``address`` in page and node counters."""
        page_id = page_id_of(address, self._page_size)
        page = self._pages[page_id]
        page.record_access(now_ns)
        self._node_access[page.node_id].record(page_id)
        self._nodes[page.node_id].access_count += 1
        return page

    def node_access_tracker(self, node_id: int) -> AccessTracker:
        return self._node_access[node_id]

    def node_access_counts(self) -> Dict[int, int]:
        """Access counts per node since the last counter reset."""
        return {node_id: node.access_count for node_id, node in self._nodes.items()}

    # ------------------------------------------------------------------
    # Batched lookup / access recording (the vectorized-engine fast path)
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Monotonic placement version; changes iff some page changed node."""
        return self._generation

    def node_id_table(self) -> np.ndarray:
        """Dense ``page id -> node id`` array (int64; ``-1`` for unplaced).

        Batched resolvers gather node ids for whole address batches with
        one numpy indexing operation instead of a dict lookup per access.
        The array is live: :meth:`migrate_page` and :meth:`swap_pages`
        patch the moved pages into it in place, and :meth:`install_placement`
        makes the next call rebuild it.  Callers read it and do not keep it.
        """
        if self._table_cache is None or self._table_cache_generation != self._generation:
            size = (max(self._pages) + 1) if self._pages else 0
            table = np.full(size, -1, dtype=np.int64)
            if size:
                page_ids = np.fromiter(self._pages.keys(), dtype=np.int64, count=len(self._pages))
                node_ids = np.fromiter(
                    (page.node_id for page in self._pages.values()),
                    dtype=np.int64,
                    count=len(self._pages),
                )
                table[page_ids] = node_ids
            self._table_cache = table
            self._table_cache_generation = self._generation
        return self._table_cache

    def _move_in_table(self, moves: Dict[int, int]) -> None:
        """Bump the generation after ``moves`` (page id -> new node id).

        A table that was current before the move is patched, not rebuilt:
        the moved pages were placed, so they lie inside it.
        """
        current = self._table_cache_generation == self._generation
        self._generation += 1
        if current:
            for page_id, node_id in moves.items():
                self._table_cache[page_id] = node_id
            self._table_cache_generation = self._generation

    def node_ids_of_pages(self, page_ids: np.ndarray) -> np.ndarray:
        """Node ids currently holding each page of ``page_ids`` (vectorized).

        Raises :class:`KeyError` for unplaced pages, like the scalar
        :meth:`node_of_page` dict lookup would.
        """
        table = self.node_id_table()
        page_ids = np.asarray(page_ids)
        if page_ids.size and (
            int(page_ids.min()) < 0 or int(page_ids.max()) >= table.shape[0]
        ):
            out_of_range = page_ids[(page_ids < 0) | (page_ids >= table.shape[0])]
            raise KeyError(int(out_of_range[0]))
        resolved = table[page_ids]
        if resolved.size and resolved.min() < 0:
            missing = int(page_ids[np.argmin(resolved)])
            raise KeyError(missing)
        return resolved

    def node_ids_of_addresses(self, addresses: np.ndarray) -> np.ndarray:
        """Node ids currently holding each byte address (vectorized)."""
        return self.node_ids_of_pages(np.asarray(addresses) // self._page_size)

    def record_accesses(self, addresses: np.ndarray, now_ns: float = 0.0) -> None:
        """Record one access per address, all timestamped ``now_ns``.

        Equivalent to ``for a in addresses: self.record_access(a, now_ns)``
        (per-page counts, per-node trackers and node counters all match the
        scalar loop exactly), with the aggregation done by numpy.
        """
        page_ids = np.asarray(addresses) // self._page_size
        unique, counts = np.unique(page_ids, return_counts=True)
        page_counts = dict(zip(unique.tolist(), counts.tolist()))
        self.apply_access_counts(page_counts, dict.fromkeys(page_counts, now_ns))

    def apply_access_counts(
        self, page_counts: Dict[int, int], last_access_ns: Dict[int, float]
    ) -> None:
        """Flush pre-aggregated access counts into pages/trackers/nodes.

        ``page_counts`` maps page id to the number of accesses recorded since
        the last flush and ``last_access_ns`` to the timestamp of the most
        recent one.  The counts must have been gathered under the *current*
        placement (no migration between gather and flush) — the vectorized
        engine guarantees this by flushing before every maintenance pass.
        """
        nodes = self._nodes
        trackers = self._node_access
        per_node: Dict[int, Dict[int, int]] = {}
        for page_id, count in page_counts.items():
            page = self._pages[page_id]
            page.access_count += count
            page.last_access_ns = last_access_ns[page_id]
            per_node.setdefault(page.node_id, {})[page_id] = count
        for node_id, counts in per_node.items():
            trackers[node_id].record_counts(counts)
            nodes[node_id].access_count += sum(counts.values())

    # ------------------------------------------------------------------
    # Migration
    # ------------------------------------------------------------------
    def migration_cost_ns(self, mode: Optional[str] = None) -> float:
        """Cost of migrating one page under ``mode`` (default: configured)."""
        mode = mode or self._migration_mode
        lines = self._page_size // CACHE_LINE_BYTES
        copy_cost = lines * self.CACHELINE_COPY_NS
        if mode == "page_block":
            return copy_cost + self.PAGE_BLOCK_OVERHEAD_NS
        return copy_cost + self.CACHELINE_BLOCK_OVERHEAD_NS

    def blocked_rows_per_migration(self, row_bytes: int, mode: Optional[str] = None) -> int:
        """How many row vectors are made inaccessible during one migration.

        With OS page-block migration every row in the page is blocked; with
        the cache-line-block mechanism only the rows sharing the in-flight
        cache line are blocked.
        """
        mode = mode or self._migration_mode
        rows_per_page = max(1, self._page_size // row_bytes)
        if mode == "page_block":
            return rows_per_page
        rows_per_line = max(1, CACHE_LINE_BYTES // row_bytes)
        return min(rows_per_page, rows_per_line)

    def migrate_page(
        self,
        page_id: int,
        dst_node_id: int,
        row_bytes: int = 64,
        mode: Optional[str] = None,
    ) -> MigrationRecord:
        """Migrate ``page_id`` to ``dst_node_id``; returns the event record."""
        if dst_node_id not in self._nodes:
            raise KeyError(f"unknown node id {dst_node_id}")
        page = self._pages[page_id]
        src_node_id = page.node_id
        if src_node_id == dst_node_id:
            record = MigrationRecord(page_id, src_node_id, dst_node_id, 0.0, mode or self._migration_mode)
            return record
        dst = self._nodes[dst_node_id]
        src = self._nodes[src_node_id]
        if not dst.can_fit(self._page_size):
            raise MemoryError(f"node {dst.name} has no room for page {page_id}")
        mode = mode or self._migration_mode
        cost = self.migration_cost_ns(mode)
        blocked = self.blocked_rows_per_migration(row_bytes, mode)
        dst.allocate(self._page_size)
        src.release(self._page_size)
        page.node_id = dst_node_id
        page.migrations += 1
        self._move_in_table({page_id: dst_node_id})
        self._migration_stats.record(cost, blocked)
        record = MigrationRecord(page_id, src_node_id, dst_node_id, cost, mode)
        self._migration_log.append(record)
        return record

    def swap_pages(self, page_a: int, page_b: int, row_bytes: int = 64) -> List[MigrationRecord]:
        """Swap the placements of two pages (claim & swap, Fig 10a)."""
        a = self._pages[page_a]
        b = self._pages[page_b]
        if a.node_id == b.node_id:
            return []
        node_a, node_b = a.node_id, b.node_id
        # Perform the swap without requiring slack capacity on either node:
        # the exchange is modelled as two migrations whose capacity effects
        # cancel out.
        a.node_id, b.node_id = node_b, node_a
        a.migrations += 1
        b.migrations += 1
        self._move_in_table({page_a: node_b, page_b: node_a})
        cost = self.migration_cost_ns()
        blocked = self.blocked_rows_per_migration(row_bytes)
        records = [
            MigrationRecord(page_a, node_a, node_b, cost, self._migration_mode),
            MigrationRecord(page_b, node_b, node_a, cost, self._migration_mode),
        ]
        for record in records:
            self._migration_stats.record(record.cost_ns, blocked)
            self._migration_log.append(record)
        return records

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def reset_access_counters(self) -> None:
        for node in self._nodes.values():
            node.reset_counters()
        for tracker in self._node_access.values():
            tracker.reset()
        for page in self._pages.values():
            page.access_count = 0

    def decay_hotness(self, factor: float = 0.5) -> None:
        # Inline Page.decay (validating the factor once, not per page): the
        # epoch decay walks every page and the per-page method call was a
        # measurable slice of maintenance on both engines.
        if not 0.0 <= factor <= 1.0:
            raise ValueError("decay factor must be in [0, 1]")
        for page in self._pages.values():
            page.access_count = int(page.access_count * factor)
        for tracker in self._node_access.values():
            tracker.decay(factor)


__all__ = ["TieredMemorySystem", "MigrationRecord", "MigrationStats"]
