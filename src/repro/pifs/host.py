"""Host-side flow of PIFS-Rec (§IV-A2 "Asynchronous Communication").

The host computes the SumCandidateCounter for every accumulation request by
determining which row candidates reside outside its local DRAM (the analogue
of PyTorch's ``data_ptr()`` + ``move_pages()`` inspection), reserves a result
address, issues the PIFS instructions for the non-local candidates, locally
accumulates the candidates it holds in its own DRAM, and snoops the reserved
address until the switch's D2H writeback lands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.config import SystemConfig
from repro.memsys.tiered import TieredMemorySystem
from repro.memsys.node import MemoryTier


@dataclass
class CandidateSplit:
    """The host's partition of one request's row candidates."""

    local_addresses: List[int]
    remote_addresses: List[int]

    @property
    def sum_candidate_count(self) -> int:
        """The SumCandidateCounter configured into the fabric switch."""
        return len(self.remote_addresses)


class PIFSHost:
    """Host-side cost model for the PIFS-Rec flow."""

    #: Latency to accumulate one row vector on the host (SIMD add on data
    #: already brought into the cache hierarchy).
    HOST_ACCUMULATE_NS_PER_ROW = 1.0
    #: Latency to detect the switch's writeback via the standard CXL snooping
    #: mechanism and hand the result to the application.
    SNOOP_DETECT_NS = 20.0
    #: Overhead of combining the locally accumulated partial sum with the
    #: switch-produced partial sum.
    COMBINE_NS = 2.0
    #: Number of outstanding local loads the host core sustains (MSHR limit).
    LOCAL_MLP = 8

    def __init__(self, host_id: int, system: SystemConfig) -> None:
        self.host_id = host_id
        self.system = system

    # ------------------------------------------------------------------
    def split_candidates(
        self, addresses: Sequence[int], tiered: TieredMemorySystem
    ) -> CandidateSplit:
        """Partition row candidates into local-DRAM and remote (CXL) sets."""
        local: List[int] = []
        remote: List[int] = []
        for address in addresses:
            node = tiered.node_of_address(int(address))
            if node.tier is MemoryTier.LOCAL_DRAM:
                local.append(int(address))
            else:
                remote.append(int(address))
        return CandidateSplit(local_addresses=local, remote_addresses=remote)

    # ------------------------------------------------------------------
    def accumulate_local(
        self,
        addresses: Sequence[int],
        start_ns: float,
        local_access,
    ) -> float:
        """Accumulate locally held rows; ``local_access(addr, t)`` returns finish time.

        Loads are issued in groups bounded by the core's outstanding-miss
        capacity; accumulation of a group overlaps with the next group's
        loads, so only the per-row SIMD add is serialized.
        """
        if not addresses:
            return start_ns
        cursor = start_ns
        finish = start_ns
        for group_start in range(0, len(addresses), self.LOCAL_MLP):
            group = addresses[group_start : group_start + self.LOCAL_MLP]
            group_finish = cursor
            for address in group:
                group_finish = max(group_finish, local_access(address, cursor))
            cursor = group_finish
            finish = group_finish + len(group) * self.HOST_ACCUMULATE_NS_PER_ROW
        return finish

    def combine(self, local_done_ns: float, remote_done_ns: float) -> float:
        """Combine the local partial sum with the snooped switch result."""
        remote_visible = remote_done_ns + self.SNOOP_DETECT_NS
        return max(local_done_ns, remote_visible) + self.COMBINE_NS


__all__ = ["PIFSHost", "CandidateSplit"]
