"""One software page-management epoch (§IV-B)."""

from __future__ import annotations

from repro.memsys.tiered import TieredMemorySystem
from repro.pagemgmt.global_hotness import GlobalHotnessPolicy
from repro.pagemgmt.spreading import SpreadingPolicy


def run_page_management_epoch(
    tiered: TieredMemorySystem,
    hotness: GlobalHotnessPolicy,
    spreading: SpreadingPolicy,
) -> float:
    """Claim-&-swap, then spreading, then halve the hotness counts.

    Returns the epoch's migration cost in ns; the caller books it and
    charges its share of it as a stall
    (:meth:`~repro.memsys.tiered.TieredMemorySystem.migration_stall_ns`).
    """
    swap = hotness.run_epoch(tiered)
    balance = spreading.rebalance(tiered)
    tiered.decay_hotness(0.5)
    return swap.cost_ns + balance.cost_ns


__all__ = ["run_page_management_epoch"]
