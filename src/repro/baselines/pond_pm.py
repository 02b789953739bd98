"""Pond + PM: Pond hardware with the paper's software page management."""

from __future__ import annotations

from dataclasses import replace

from repro.api.registry import register_system
from repro.config import SystemConfig
from repro.memsys.tiered import TieredMemorySystem
from repro.pagemgmt.epoch import run_page_management_epoch
from repro.pagemgmt.global_hotness import GlobalHotnessPolicy
from repro.pagemgmt.spreading import SpreadingPolicy
from repro.sls.engine import SLSSystem
from repro.traces.workload import SLSRequest, SLSWorkload


@register_system("pond+pm")
class PondPMSystem(SLSSystem):
    """Pond plus the software optimizations of §IV-B, without PIFS hardware.

    The page-management policies run on the OS path, so migrations use
    page-block semantics (the whole page is inaccessible while it moves) and
    their cost stalls query processing.  Data still moves to the host for
    every row, which is why the improvement over Pond is limited (§VI-C2).
    """

    name = "Pond+PM"
    supports_vector_engine = True

    def __init__(self, system: SystemConfig) -> None:
        # The OS has no migration controller: force page-block migration.
        system = replace(system, page_mgmt=replace(system.page_mgmt, migration_mode="page_block"))
        super().__init__(system, use_pifs_switch=False)
        self.hotness_policy = GlobalHotnessPolicy(
            cold_age_threshold=system.page_mgmt.cold_age_threshold
        )
        self.spreading_policy = SpreadingPolicy(
            migrate_threshold=system.page_mgmt.migrate_threshold
        )

    def build_placement(self, workload: SLSWorkload) -> TieredMemorySystem:
        return self.place_capacity_order(workload)

    def process_request(self, request: SLSRequest, start_ns: float, host_id: int) -> float:
        return self.host_accumulate_bag(request.addresses, start_ns, host_id)

    def process_request_vector(self, request: SLSRequest, start_ns: float, host_id: int) -> float:
        return self.host_accumulate_bag_vector(request, start_ns, host_id)

    def maintenance(self, now_ns: float) -> float:
        cost = run_page_management_epoch(self.tiered, self.hotness_policy, self.spreading_policy)
        return self.tiered.migration_stall_ns(cost)


__all__ = ["PondPMSystem"]
