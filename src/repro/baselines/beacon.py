"""BEACON-S: in-switch near-data processing without PIFS-Rec's optimizations."""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

from repro.api.registry import register_system
from repro.config import BufferConfig, SystemConfig
from repro.memsys.tiered import TieredMemorySystem
from repro.pifs.switch import PIFSSwitch, RowFetch
from repro.sls.engine import SLSSystem
from repro.traces.workload import SLSRequest, SLSWorkload


@register_system("beacon")
class BeaconSystem(SLSSystem):
    """BEACON adapted to SLS (the paper's "BEACON-S").

    BEACON places the whole working set in CXL memory (no DRAM/CXL
    interleaving), relies on custom DIMM-style instructions that require an
    additional address-translation step inside the switch, has no on-switch
    row buffer, processes accumulations in order, and supports only a single
    fabric switch.
    """

    name = "BEACON"
    supports_vector_engine = True

    #: Latency of the extra memory-translation logic BEACON needs per row.
    ADDRESS_TRANSLATION_NS = 20.0

    def __init__(self, system: SystemConfig) -> None:
        # Disable the PIFS-specific switch features.
        pifs = replace(
            system.pifs,
            out_of_order=False,
            on_switch_buffer=BufferConfig(policy="none", capacity_bytes=0),
        )
        system = replace(system, pifs=pifs, num_fabric_switches=1)
        super().__init__(system, use_pifs_switch=True)

    def build_placement(self, workload: SLSWorkload) -> TieredMemorySystem:
        return self.place_cxl_only(workload)

    def process_request(self, request: SLSRequest, start_ns: float, host_id: int) -> float:
        rows: List[RowFetch] = []
        for address in request.addresses:
            address = int(address)
            self.tiered.record_access(address)
            rows.append(RowFetch(address=address, device_id=self.device_of_address(address)))

        switch = self.backends.switches[0]
        assert isinstance(switch, PIFSSwitch)
        port = self.backends.host_port(host_id, switch.switch_id)
        outcome = switch.accumulate(
            rows,
            host_port=port,
            issue_ns=start_ns,
            result_address=(1 << 41) | (request.request_id << 8),
            per_row_overhead_ns=self.ADDRESS_TRANSLATION_NS,
        )
        # The host still pays a small cost to pick up the result.
        return outcome.host_notified_ns + self.HOST_CXL_OVERHEAD_NS

    def process_request_vector(self, request: SLSRequest, start_ns: float, host_id: int) -> float:
        """The in-switch accumulation flow on pre-resolved batches."""
        ctx = self._vector
        begin, end = ctx.locate(request.request_id)
        # CXL-only placement: the precomputed split is the whole bag.
        _, remote_ks, remote_devs, _ = ctx.split(begin, end)

        _, notified = ctx.switch_kernels[0].accumulate(
            ctx.port_kernels[host_id][0],
            remote_ks,
            remote_devs,
            ctx.addr,
            ctx.cch,
            ctx.cfb,
            ctx.crow,
            ctx.dev_access_switch,
            start_ns,
            per_row_overhead_ns=self.ADDRESS_TRANSLATION_NS,
            notify_host=True,
        )
        return notified + self.HOST_CXL_OVERHEAD_NS


__all__ = ["BeaconSystem"]
