"""PIFS-Rec: the paper's primary contribution.

The package implements the hardware and software architecture of §IV:

* :mod:`repro.pifs.instructions` — the enhanced CXL.mem instruction format
  (Fig 9) and instruction repacking performed by the switch.
* :mod:`repro.pifs.onswitch_buffer` — the on-switch SRAM buffer with the
  Hottest-Recording (HTR), LRU and FIFO replacement policies (§IV-A4).
* :mod:`repro.pifs.ooo` — the out-of-order accumulation engine with swap
  registers and SRAM spill (§IV-A5).
* :mod:`repro.pifs.process_core` — the Process Core: instruction decode and
  repacking, the Accumulate Configuration Register with capacity
  back-pressure, and the accumulate logic (§IV-A2/A3).
* :mod:`repro.pifs.switch` — the PIFS fabric switch combining all of the
  above on top of the base CXL switch.  HTR counts its rows in the
  on-switch buffer itself, and the cache-line-block migration of §IV-B4 is
  priced by the page table
  (:meth:`~repro.memsys.tiered.TieredMemorySystem.migration_cost_ns`).
* :mod:`repro.pifs.forwarding` — multi-layer instruction forwarding across
  switches: the sub-sum return trip and the CNV capability bit (§IV-C).
* :mod:`repro.pifs.host` — the host-side flow: SumCandidateCounter
  computation, instruction issue and result snooping (§IV-A2).
* :mod:`repro.pifs.runtime` — the user-space SLS API (§IV-D).
"""

from repro.pifs.forwarding import MultiSwitchCoordinator
from repro.pifs.host import PIFSHost
from repro.pifs.instructions import PIFSInstruction, repack_instruction
from repro.pifs.onswitch_buffer import OnSwitchBuffer
from repro.pifs.ooo import OutOfOrderAccumulator
from repro.pifs.process_core import ProcessCore
from repro.pifs.runtime import PIFSRuntime, SLSCallResult
from repro.pifs.switch import PIFSSwitch

__all__ = [
    "MultiSwitchCoordinator",
    "PIFSHost",
    "PIFSInstruction",
    "repack_instruction",
    "OnSwitchBuffer",
    "OutOfOrderAccumulator",
    "ProcessCore",
    "PIFSRuntime",
    "SLSCallResult",
    "PIFSSwitch",
]
