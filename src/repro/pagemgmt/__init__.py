"""Software page management (§IV-B).

* :mod:`repro.pagemgmt.regions` — private hot region / public cold region
  bookkeeping (§IV-B2, Fig 10a).
* :mod:`repro.pagemgmt.global_hotness` — global hotness detection and the
  cold-age-threshold swap policy between local DRAM and CXL (§IV-B2).
* :mod:`repro.pagemgmt.spreading` — embedding spreading across CXL nodes
  driven by the migrate threshold (§IV-B3).
* :mod:`repro.pagemgmt.migration` — page-block vs cache-line-block migration
  cost model (§IV-B4).
* :mod:`repro.pagemgmt.epoch` — one maintenance epoch: swap, spread, decay.
"""

from repro.pagemgmt.epoch import run_page_management_epoch
from repro.pagemgmt.global_hotness import GlobalHotnessPolicy
from repro.pagemgmt.migration import MigrationCostModel
from repro.pagemgmt.regions import HostRegions
from repro.pagemgmt.spreading import SpreadingPolicy

__all__ = [
    "GlobalHotnessPolicy",
    "MigrationCostModel",
    "HostRegions",
    "SpreadingPolicy",
    "run_page_management_epoch",
]
