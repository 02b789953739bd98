"""One software page-management epoch (§IV-B)."""

from __future__ import annotations

from repro.memsys.tiered import TieredMemorySystem
from repro.pagemgmt.global_hotness import GlobalHotnessPolicy
from repro.pagemgmt.spreading import SpreadingPolicy


def run_page_management_epoch(
    tiered: TieredMemorySystem,
    hotness: GlobalHotnessPolicy,
    spreading: SpreadingPolicy,
    row_bytes: int,
) -> float:
    """Claim-&-swap, then spreading, then halve the hotness counts.

    Returns the epoch's migration cost in ns; the caller books it and
    charges its own share of it as a stall.
    """
    swap = hotness.run_epoch(tiered, row_bytes=row_bytes)
    balance = spreading.rebalance(tiered, row_bytes=row_bytes)
    tiered.decay_hotness(0.5)
    return swap.cost_ns + balance.cost_ns


__all__ = ["run_page_management_epoch"]
