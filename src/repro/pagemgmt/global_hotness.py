"""Global hotness detection and hot/cold page swapping (§IV-B2).

Each host builds per-device page heatmaps, identifies the globally hottest
pages and keeps them in its private hot region (local DRAM).  Periodically,
pages whose access frequency has aged are reclassified as public cold pages
and demoted to CXL, while hotter CXL pages are promoted in their place
("claim & swap", Fig 10a).  The aggressiveness of the exchange is governed
by the *cold age threshold*: a CXL page replaces the coldest private hot
page only when its access count exceeds the resident page's count by more
than the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.memsys.node import MemoryTier
from repro.memsys.tiered import TieredMemorySystem
from repro.pagemgmt.regions import HostRegions


@dataclass
class SwapOutcome:
    """Result of one global-hotness maintenance pass."""

    promotions: int
    demotions: int


class GlobalHotnessPolicy:
    """Hot/cold page exchange between local DRAM and CXL memory."""

    def __init__(
        self,
        cold_age_threshold: float = 0.16,
        max_swaps_per_epoch: int = 4,
        host_regions: Optional[HostRegions] = None,
    ) -> None:
        if not 0.0 <= cold_age_threshold <= 1.0:
            raise ValueError("cold_age_threshold must be in [0, 1]")
        if max_swaps_per_epoch < 0:
            raise ValueError("max_swaps_per_epoch must be non-negative")
        self.cold_age_threshold = cold_age_threshold
        self.max_swaps_per_epoch = max_swaps_per_epoch
        self.regions = host_regions or HostRegions(host_id=0)

    # ------------------------------------------------------------------
    def _candidates(
        self, tiered: TieredMemorySystem
    ) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]:
        """The first ``max_swaps_per_epoch`` (page id, count) pairs of each tier.

        Local pages come coldest first and CXL pages hottest first; equal
        counts rank in page-id order.
        """
        k = self.max_swaps_per_epoch
        return (
            tiered.ranked_pages(tiered.pages_in(MemoryTier.LOCAL_DRAM), k, hottest=False),
            tiered.ranked_pages(tiered.pages_in(MemoryTier.CXL), k, hottest=True),
        )

    def run_epoch(self, tiered: TieredMemorySystem) -> SwapOutcome:
        """Perform up to ``max_swaps_per_epoch`` claim-&-swap exchanges."""
        local_pages, cxl_pages = self._candidates(tiered)
        promotions = 0
        demotions = 0
        swaps = min(self.max_swaps_per_epoch, len(local_pages), len(cxl_pages))
        for i in range(swaps):
            cold_page_id, cold_count = local_pages[i]
            hot_page_id, hot_count = cxl_pages[i]
            # Promote only when the CXL page is hotter than the resident page
            # by more than the cold-age threshold.
            if hot_count <= cold_count * (1.0 + self.cold_age_threshold):
                break
            if self.regions.is_claimed_by_other(hot_page_id):
                continue
            records = tiered.swap_pages(hot_page_id, cold_page_id)
            if not records:
                continue
            self.regions.claim(hot_page_id)
            self.regions.release(cold_page_id)
            promotions += 1
            demotions += 1
        return SwapOutcome(promotions=promotions, demotions=demotions)


__all__ = ["GlobalHotnessPolicy", "SwapOutcome"]
