"""Embedding spreading for bandwidth optimization (§IV-B3).

Cold pages are initially interleaved across CXL nodes.  When one node's
access count exceeds the average of the other nodes by more than
``1 - migrate_threshold``, the node is *warm*: its most-accessed pages are
redistributed to the least-accessed node, and if the destination is out of
capacity, its coldest page moves back to the overburdened node.  The
procedure iterates until the access frequencies are balanced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.config import PAGE_SIZE_BYTES
from repro.memsys.node import MemoryNode, MemoryTier
from repro.memsys.tiered import TieredMemorySystem


@dataclass
class RebalanceOutcome:
    """Result of one spreading pass."""

    migrations: int
    cost_ns: float
    warm_nodes: List[int]


class SpreadingPolicy:
    """Balance access counts across CXL memory nodes."""

    def __init__(
        self,
        migrate_threshold: float = 0.35,
        max_migrations_per_epoch: int = 8,
        max_iterations: int = 4,
    ) -> None:
        if not 0.0 < migrate_threshold <= 1.0:
            raise ValueError("migrate_threshold must be in (0, 1]")
        self.migrate_threshold = migrate_threshold
        self.max_migrations_per_epoch = max_migrations_per_epoch
        self.max_iterations = max_iterations

    # ------------------------------------------------------------------
    def warm_trigger_ratio(self) -> float:
        """A node is warm when its access count exceeds the others' average
        by this multiplicative factor (``1 + (1 - migrate_threshold)``)."""
        return 1.0 + (1.0 - self.migrate_threshold)

    def find_warm_nodes(self, tiered: TieredMemorySystem) -> List[int]:
        """CXL nodes whose access counts exceed the warm trigger."""
        cxl_nodes = tiered.nodes_by_tier(MemoryTier.CXL)
        if len(cxl_nodes) < 2:
            return []
        warm: List[int] = []
        for node in cxl_nodes:
            others = [n.access_count for n in cxl_nodes if n.node_id != node.node_id]
            average = sum(others) / len(others) if others else 0.0
            if average <= 0:
                continue
            if node.access_count > average * self.warm_trigger_ratio():
                warm.append(node.node_id)
        return warm

    def _coldest_node(self, tiered: TieredMemorySystem, exclude: int) -> Optional[MemoryNode]:
        candidates = [n for n in tiered.nodes_by_tier(MemoryTier.CXL) if n.node_id != exclude]
        if not candidates:
            return None
        return min(candidates, key=lambda n: n.access_count)

    def rebalance(self, tiered: TieredMemorySystem) -> RebalanceOutcome:
        """Run the redistribution procedure; returns migrations and their cost."""
        migrations = 0
        cost = 0.0
        all_warm: List[int] = []
        for _ in range(self.max_iterations):
            warm_nodes = self.find_warm_nodes(tiered)
            if not warm_nodes or migrations >= self.max_migrations_per_epoch:
                break
            all_warm.extend(w for w in warm_nodes if w not in all_warm)
            for warm_id in warm_nodes:
                if migrations >= self.max_migrations_per_epoch:
                    break
                destination = self._coldest_node(tiered, exclude=warm_id)
                if destination is None:
                    break
                # The warm node's most-accessed pages, as it holds them now.
                hottest = tiered.ranked_pages(tiered.pages_on(warm_id), 4, hottest=True)
                moved_any = False
                for page_id, page_count in hottest:
                    if migrations >= self.max_migrations_per_epoch:
                        break
                    if not destination.can_fit(PAGE_SIZE_BYTES):
                        # Destination full: swap with the destination's
                        # coldest page instead of a one-way migration.
                        coldest = tiered.ranked_pages(
                            tiered.pages_on(destination.node_id), 1, hottest=False
                        )
                        if not coldest:
                            break
                        records = tiered.swap_pages(page_id, coldest[0][0])
                        cost += sum(r.cost_ns for r in records)
                        migrations += len(records)
                    else:
                        record = tiered.migrate_page(page_id, destination.node_id)
                        cost += record.cost_ns
                        migrations += 1
                    moved_any = True
                    # Transfer the moved page's access count between node counters so
                    # the balance check sees the effect of the migration.
                    tiered.node(warm_id).access_count = max(
                        0, tiered.node(warm_id).access_count - page_count
                    )
                    destination.access_count += page_count
                if not moved_any:
                    break
        return RebalanceOutcome(migrations=migrations, cost_ns=cost, warm_nodes=all_warm)


__all__ = ["SpreadingPolicy", "RebalanceOutcome"]
