"""Embedding spreading for bandwidth optimization (§IV-B3).

Cold pages are initially interleaved across CXL nodes.  When one node's
recent traffic (its pages' decayed access counts) exceeds the average of
the other nodes by more than ``1 - migrate_threshold``, the node is *warm*:
its most-accessed pages are redistributed to the least-accessed node, and
if the destination is out of capacity, its coldest page moves back to the
overburdened node.  The procedure iterates until the frequencies balance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.config import PAGE_SIZE_BYTES
from repro.memsys.node import MemoryTier
from repro.memsys.tiered import TieredMemorySystem


@dataclass
class RebalanceOutcome:
    """Result of one spreading pass."""

    migrations: int
    warm_nodes: List[int]


class SpreadingPolicy:
    """Balance the recent access counts of the CXL memory nodes."""

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
        """A node is warm when its hotness exceeds the others' average
        by this multiplicative factor (``1 + (1 - migrate_threshold)``)."""
        return 1.0 + (1.0 - self.migrate_threshold)

    @staticmethod
    def node_hotness(tiered: TieredMemorySystem) -> Dict[int, int]:
        """Each CXL node's recent traffic: its pages' decayed access counts summed."""
        cxl_ids = [node.node_id for node in tiered.nodes_by_tier(MemoryTier.CXL)]
        nodes = tiered.node_id_table()
        placed = nodes >= 0
        sums = np.bincount(
            nodes[placed], tiered.access_count_table()[placed], minlength=max(cxl_ids, default=-1) + 1
        )
        return {node_id: int(sums[node_id]) for node_id in cxl_ids}

    def find_warm_nodes(self, hotness: Dict[int, int]) -> List[int]:
        """The nodes of ``hotness`` (:meth:`node_hotness`) over the warm trigger."""
        if len(hotness) < 2:
            return []
        total = sum(hotness.values())
        warm: List[int] = []
        for node_id, count in hotness.items():
            average = (total - count) / (len(hotness) - 1)
            if average > 0 and count > average * self.warm_trigger_ratio():
                warm.append(node_id)
        return warm

    def rebalance(self, tiered: TieredMemorySystem) -> RebalanceOutcome:
        """Run the redistribution procedure.

        Each move carries its page's count, net of a swap partner's, from
        the warm node's hotness to the destination's.
        """
        hotness = self.node_hotness(tiered)
        migrations = 0
        all_warm: List[int] = []
        for _ in range(self.max_iterations):
            warm_nodes = self.find_warm_nodes(hotness)
            if not warm_nodes or migrations >= self.max_migrations_per_epoch:
                break
            all_warm.extend(w for w in warm_nodes if w not in all_warm)
            for warm_id in warm_nodes:
                if migrations >= self.max_migrations_per_epoch:
                    break
                # A warm node implies another CXL node: the coldest of them.
                others = (node_id for node_id in hotness if node_id != warm_id)
                destination_id = min(others, key=hotness.__getitem__)
                destination = tiered.node(destination_id)
                # The warm node's most-accessed pages, as it holds them now;
                # a page without recent traffic balances nothing.
                hottest = tiered.ranked_pages(tiered.pages_on(warm_id), 4, hottest=True)
                moved_any = False
                for page_id, count in hottest:
                    if migrations >= self.max_migrations_per_epoch or count == 0:
                        break
                    if not destination.can_fit(PAGE_SIZE_BYTES):
                        # Destination full: swap with the destination's
                        # coldest page instead of a one-way migration.
                        coldest = tiered.ranked_pages(
                            tiered.pages_on(destination_id), 1, hottest=False
                        )
                        if not coldest:
                            break
                        partner_id, partner_count = coldest[0]
                        migrations += len(tiered.swap_pages(page_id, partner_id))
                        count -= partner_count
                    else:
                        tiered.migrate_page(page_id, destination_id)
                        migrations += 1
                    moved_any = True
                    hotness[warm_id] -= count
                    hotness[destination_id] += count
                if not moved_any:
                    break
        return RebalanceOutcome(migrations=migrations, warm_nodes=all_warm)


__all__ = ["SpreadingPolicy", "RebalanceOutcome"]
