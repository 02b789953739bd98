"""PIFS-Rec as an end-to-end SLS system (hardware + software architecture)."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.api.registry import register_system
from repro.config import SystemConfig
from repro.cxl.bias_table import BiasMode
from repro.cxl.topology import FabricTopology
from repro.memsys.tiered import TieredMemorySystem
from repro.pagemgmt.epoch import run_page_management_epoch
from repro.pagemgmt.global_hotness import GlobalHotnessPolicy
from repro.pagemgmt.spreading import SpreadingPolicy
from repro.pifs.forwarding import MultiSwitchCoordinator
from repro.pifs.host import PIFSHost
from repro.pifs.switch import PIFSSwitch, RowFetch
from repro.sls.engine import SLSSystem
from repro.traces.workload import SLSRequest, SLSWorkload


@register_system("pifs-rec")
class PIFSRecSystem(SLSSystem):
    """The full PIFS-Rec design (§IV).

    Hardware: process cores in every fabric switch, on-switch HTR buffer,
    out-of-order accumulation.  Software: online global-hotness page
    swapping between local DRAM and CXL plus embedding spreading across CXL
    nodes, using cache-line-block migration.
    """

    name = "PIFS-Rec"
    supports_vector_engine = True

    def __init__(
        self,
        system: SystemConfig,
        page_management: bool = True,
        hotness_policy: Optional[GlobalHotnessPolicy] = None,
        spreading_policy: Optional[SpreadingPolicy] = None,
    ) -> None:
        super().__init__(system, use_pifs_switch=True)
        self.page_management = page_management
        self.hotness_policy = hotness_policy or GlobalHotnessPolicy(
            cold_age_threshold=system.page_mgmt.cold_age_threshold
        )
        self.spreading_policy = spreading_policy or SpreadingPolicy(
            migrate_threshold=system.page_mgmt.migrate_threshold
        )
        self.hosts: Dict[int, PIFSHost] = {}
        self.coordinator: Optional[MultiSwitchCoordinator] = None

    # ------------------------------------------------------------------
    def build_placement(self, workload: SLSWorkload) -> TieredMemorySystem:
        if self.page_management:
            # With page management enabled the placement starts from the
            # hotness-ordered steady state the global-hotness policy converges
            # to (convergence is fast thanks to cache-line-granular
            # migration); the online policies keep refining it below.
            return self.place_hotness_order(workload)
        # Without page management PIFS-Rec inherits Pond's capacity-ordered
        # placement.
        return self.place_capacity_order(workload)

    def prepare(self, workload: SLSWorkload) -> None:
        self.hosts = {
            host_id: PIFSHost(host_id, self.system)
            for host_id in range(self.system.num_hosts)
        }
        # The embedding-table region is designated device-bias (§IV-A1), so
        # in-switch fetches never pay the host-bias coherence round trip;
        # every device address is an embedding row, so it is the default.
        for device in self.backends.devices:
            device.bias_table.set_default(BiasMode.DEVICE)
        num_switches = self.system.num_fabric_switches
        if num_switches > 1:
            topology = FabricTopology(num_switches, self.system.cxl)
            compute = [
                isinstance(sw, PIFSSwitch) and sw.compute_enabled
                for sw in self.backends.switches
            ]
            self.coordinator = MultiSwitchCoordinator(topology, self.system.cxl, compute)
        else:
            self.coordinator = None

    # ------------------------------------------------------------------
    def process_request(self, request: SLSRequest, start_ns: float, host_id: int) -> float:
        host = self.hosts[host_id]
        split = host.split_candidates(request.addresses, self.tiered)

        local_done = host.accumulate_local(
            split.local_addresses,
            start_ns,
            lambda address, now, _host=host_id: self.host_local_access(address, now, _host),
        )

        if not split.remote_addresses:
            return local_done

        # Record CXL accesses for the placement policies and the result.
        for address in split.remote_addresses:
            self.tiered.record_access(address)

        remote_done = self._accumulate_in_fabric(split.remote_addresses, start_ns, host_id, request)
        return host.combine(local_done, remote_done)

    def _accumulate_in_fabric(
        self,
        addresses: List[int],
        start_ns: float,
        host_id: int,
        request: SLSRequest,
    ) -> float:
        """Run the in-switch accumulation for the non-local candidates."""
        by_switch: Dict[int, List[RowFetch]] = {}
        for address in addresses:
            device_id = self.device_of_address(address)
            switch_id = self.backends.device_switch[device_id]
            by_switch.setdefault(switch_id, []).append(
                RowFetch(address=address, device_id=device_id)
            )

        home_switch_id = self.backends.host_home_switch[host_id]
        result_address = (1 << 40) | (request.request_id << 8)
        finishes: List[float] = []
        for switch_id, rows in by_switch.items():
            switch = self.backends.switches[switch_id]
            assert isinstance(switch, PIFSSwitch)
            port = self.backends.host_port(host_id, switch_id)
            is_home = switch_id == home_switch_id
            outcome = switch.accumulate(
                rows,
                host_port=port,
                issue_ns=start_ns,
                result_address=result_address,
                notify_host=is_home or self.coordinator is None,
            )
            finish = outcome.host_notified_ns
            if not is_home and self.coordinator is not None:
                # Sub-sum produced at the remote switch travels back to the
                # home switch (inter-switch hops in both directions for the
                # forwarded instructions and the returning partial result).
                # The coordinator prices the round trip — and, under packet
                # fidelity, routes it through the hop channel's credit pool.
                finish = self.coordinator.return_trip_ns(
                    home_switch_id, switch_id, outcome.result_ready_ns
                )
            finishes.append(finish)
        return max(finishes)

    # ------------------------------------------------------------------
    # Vector-engine twin
    # ------------------------------------------------------------------
    def prepare_vector(self, ctx) -> None:
        """Build the per-host fused local-accumulation closures once."""
        num_drams = len(ctx.local_dram_kernels)
        self._local_bags = [
            ctx.local_dram_kernels[host_id % num_drams].mlp_bag(
                self.hosts[host_id].LOCAL_MLP,
                self.HOST_LOCAL_OVERHEAD_NS,
                self.hosts[host_id].HOST_ACCUMULATE_NS_PER_ROW,
            )
            for host_id in range(ctx.num_hosts)
        ]

    def process_request_vector(self, request: SLSRequest, start_ns: float, host_id: int) -> float:
        """The PIFS-Rec request flow on pre-resolved batches.

        Candidate split, local SIMD accumulation and the in-switch
        accumulation all run on the vector context's resolution arrays and
        flattened kernels with the scalar path's exact arithmetic.
        """
        ctx = self._vector
        begin, end = ctx.locate(request.request_id)
        local_ks, remote_ks, remote_devs, remote_sws = ctx.split(begin, end)
        host = self.hosts[host_id]

        # Local candidates: host-side loads in LOCAL_MLP groups, run through
        # the per-host fused DRAM bag closure (one Python call per bag).
        local_done = start_ns
        if local_ks:
            local_done = self._local_bags[host_id](local_ks, ctx.lch, ctx.lfb, ctx.lrow, start_ns)

        if not remote_ks:
            return local_done

        # Remote candidates: accumulate in-fabric.
        addr = ctx.addr
        cch, cfb, crow = ctx.cch, ctx.cfb, ctx.crow

        dev_access = ctx.dev_access_switch
        ports = ctx.port_kernels[host_id]
        if ctx.single_switch:
            # One switch: it is every host's home switch and the coordinator
            # is disabled, so the whole remote set is one accumulation.
            _, remote_done = ctx.switch_kernels[0].accumulate(
                ports[0],
                remote_ks,
                remote_devs,
                addr,
                cch,
                cfb,
                crow,
                dev_access,
                start_ns,
            )
        else:
            by_switch: Dict[int, Tuple[list, list]] = {}
            for j, k in enumerate(remote_ks):
                bucket = by_switch.get(remote_sws[j])
                if bucket is None:
                    by_switch[remote_sws[j]] = ([k], [remote_devs[j]])
                else:
                    bucket[0].append(k)
                    bucket[1].append(remote_devs[j])
            home_switch_id = ctx.home_switch[host_id]
            coordinator = self.coordinator
            remote_done = None
            for switch_id, (switch_ks, switch_devs) in by_switch.items():
                kernel = ctx.switch_kernels[switch_id]
                is_home = switch_id == home_switch_id
                result_ready, notified = kernel.accumulate(
                    ports[switch_id],
                    switch_ks,
                    switch_devs,
                    addr,
                    cch,
                    cfb,
                    crow,
                    dev_access,
                    start_ns,
                    notify_host=is_home or coordinator is None,
                )
                finish = notified
                if not is_home and coordinator is not None:
                    hop_ns = 2 * coordinator.hop_latency_ns(home_switch_id, switch_id)
                    finish = result_ready + hop_ns
                if remote_done is None or finish > remote_done:
                    remote_done = finish

        # host.combine(): snoop the writeback, fold in the local partial sum.
        remote_visible = remote_done + host.SNOOP_DETECT_NS
        combined = local_done if local_done > remote_visible else remote_visible
        return combined + host.COMBINE_NS

    # ------------------------------------------------------------------
    def maintenance(self, now_ns: float) -> float:
        if not self.page_management:
            return 0.0
        cost = run_page_management_epoch(self.tiered, self.hotness_policy, self.spreading_policy)
        return self.tiered.migration_stall_ns(cost)


@register_system("pifs-rec-nopm")
class PIFSRecNoPM(PIFSRecSystem):
    """PIFS-Rec hardware without the software page management (ablation)."""

    name = "PIFS-Rec (no PM)"

    def __init__(self, system: SystemConfig) -> None:
        super().__init__(system, page_management=False)


__all__ = ["PIFSRecSystem", "PIFSRecNoPM"]
