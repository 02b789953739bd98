"""Software page management (§IV-B).

* :mod:`repro.pagemgmt.regions` — private hot region / public cold region
  bookkeeping (§IV-B2, Fig 10a).
* :mod:`repro.pagemgmt.global_hotness` — global hotness detection and the
  cold-age-threshold swap policy between local DRAM and CXL (§IV-B2).
* :mod:`repro.pagemgmt.spreading` — embedding spreading across CXL nodes
  driven by the migrate threshold (§IV-B3).
* :mod:`repro.pagemgmt.epoch` — one maintenance epoch: swap, spread, decay.

Migrations are priced by the page table's own cost model
(:meth:`~repro.memsys.tiered.TieredMemorySystem.migration_cost_ns`, page-block
vs cache-line-block, §IV-B4), whose ``migration_stall_ns`` gives the share
queries see as a stall.
"""

from repro.pagemgmt.epoch import run_page_management_epoch
from repro.pagemgmt.global_hotness import GlobalHotnessPolicy
from repro.pagemgmt.regions import HostRegions
from repro.pagemgmt.spreading import SpreadingPolicy

__all__ = [
    "GlobalHotnessPolicy",
    "HostRegions",
    "SpreadingPolicy",
    "run_page_management_epoch",
]
