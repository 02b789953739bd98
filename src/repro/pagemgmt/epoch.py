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

    Returns the epoch's migration cost in ns, as the tiered memory's
    :class:`~repro.memsys.tiered.MigrationStats` booked it; the caller
    charges its share of it as a stall
    (:meth:`~repro.memsys.tiered.TieredMemorySystem.migration_stall_ns`).
    """
    booked = tiered.migration_stats.cost_ns
    hotness.run_epoch(tiered)
    spreading.rebalance(tiered)
    tiered.decay_hotness(0.5)
    return tiered.migration_stats.cost_ns - booked


__all__ = ["run_page_management_epoch"]
