"""RecNMP: DIMM-side near-memory processing for SLS (§VI-B baseline)."""

from __future__ import annotations

from typing import List

from repro.api.registry import register_system
from repro.config import KIB, BufferConfig, SystemConfig
from repro.cxl.protocol import MemOpcode
from repro.memsys.tiered import TieredMemorySystem
from repro.net.packet import Priority
from repro.pagemgmt.epoch import run_page_management_epoch
from repro.pagemgmt.global_hotness import GlobalHotnessPolicy
from repro.pagemgmt.spreading import SpreadingPolicy
from repro.pifs.onswitch_buffer import OnSwitchBuffer
from repro.sls.engine import SLSSystem
from repro.traces.workload import SLSRequest, SLSWorkload


@register_system("recnmp")
class RecNMPSystem(SLSSystem):
    """RecNMP with the paper's memory setting.

    Rows resident in local DRAM are accumulated by the near-memory units on
    the DIMMs: lookups proceed with bank-level parallelism, a rank-level
    cache (RankCache) absorbs reused rows, and only the pooled result crosses
    the memory channel.  Rows that spill to the CXL pool are likewise served
    by NMP-capable DIMMs inside the Type 3 expanders ("their computational
    hardware configuration with our memory setting", §VI-B): the host issues
    per-row commands through the fabric switch, the DIMM-side units fetch and
    accumulate with bank-level parallelism, and one partial sum per device
    returns to the host.  What RecNMP lacks relative to PIFS-Rec is the
    switch-level view: no on-switch buffer shared across devices, no
    instruction repacking, and per-device partial results that the host must
    combine.
    """

    name = "RecNMP"
    supports_vector_engine = True

    #: Per-row latency of the DIMM-side accumulate unit.
    NMP_ACCUMULATE_NS = 1.0
    #: Command latency for the host to issue one NMP-SLS macro instruction.
    NMP_COMMAND_NS = 15.0
    #: Latency to return the pooled result over the channel.
    NMP_RESULT_NS = 10.0
    #: RankCache capacity (128 KB per rank, 8 ranks as in RecNMP-base x8).
    RANKCACHE_BYTES = 8 * 128 * KIB

    def __init__(self, system: SystemConfig, page_management: bool = True) -> None:
        super().__init__(system, use_pifs_switch=False)
        self.page_management = page_management
        self.hotness_policy = GlobalHotnessPolicy(
            cold_age_threshold=system.page_mgmt.cold_age_threshold
        )
        self.spreading_policy = SpreadingPolicy(
            migrate_threshold=system.page_mgmt.migrate_threshold
        )
        self._rank_cache: OnSwitchBuffer | None = None

    def build_placement(self, workload: SLSWorkload) -> TieredMemorySystem:
        # RecNMP profiles hot embeddings and keeps them on the NMP-capable
        # DIMMs (its RankCache design assumes this allocation), so the local
        # tier starts from the hotness-ordered placement.
        return self.place_hotness_order(workload)

    def prepare(self, workload: SLSWorkload) -> None:
        cache_config = BufferConfig(
            capacity_bytes=self.RANKCACHE_BYTES, policy="lru", hit_latency_ns=5.0
        )
        self._rank_cache = OnSwitchBuffer(cache_config, workload.model.embedding_row_bytes)

    def row_buffers(self) -> List[OnSwitchBuffer]:
        """The RankCache: its lookup counts are the result's buffer hits and misses."""
        return [self._rank_cache]

    # ------------------------------------------------------------------
    def _nmp_accumulate(self, addresses: List[int], start_ns: float) -> float:
        """Near-memory accumulation of locally resident rows."""
        if not addresses:
            return start_ns
        issue = start_ns + self.NMP_COMMAND_NS
        last_row = issue
        for address in addresses:
            self.tiered.record_access(address)
            if self._rank_cache.lookup(address):
                ready = issue + self._rank_cache.hit_latency_ns()
            else:
                ready = self.backends.local_dram.access(
                    address, issue, bytes_requested=self.backends.row_bytes
                )
                self._rank_cache.insert(address)
            last_row = max(last_row, ready + self.NMP_ACCUMULATE_NS)
        return last_row + self.NMP_RESULT_NS

    def _nmp_cxl_accumulate(self, addresses: List[int], start_ns: float, host_id: int) -> float:
        """Near-memory accumulation inside the CXL expanders' NMP DIMMs."""
        if not addresses:
            return start_ns
        by_device: dict[int, List[int]] = {}
        for address in addresses:
            by_device.setdefault(self.device_of_address(address), []).append(address)

        controller_penalty = self.system.cxl.access_penalty_ns / 2.0
        finishes: List[float] = []
        for device_id, device_addresses in by_device.items():
            device = self.backends.devices[device_id]
            switch = self.backends.switch_of_device(device_id)
            port = self.backends.host_port(host_id, switch.switch_id)
            last_row = start_ns
            for address in device_addresses:
                self.tiered.record_access(address)
                command_at_switch = (
                    port.link.transfer(
                        self.system.cxl.slot_bytes, start_ns, op=Priority.INSTRUCTION
                    )
                    + switch.FORWARD_LATENCY_NS
                )
                command_at_dimm = (
                    device.link.transfer(
                        self.system.cxl.slot_bytes, command_at_switch, op=Priority.INSTRUCTION
                    )
                    + controller_penalty
                )
                if self._rank_cache.lookup(address):
                    ready = command_at_dimm + self._rank_cache.hit_latency_ns()
                else:
                    ready = device.dram.access(
                        address, command_at_dimm, bytes_requested=self.backends.row_bytes
                    )
                    self._rank_cache.insert(address)
                last_row = max(last_row, ready + self.NMP_ACCUMULATE_NS)
            # One partial sum per device crosses both links back to the host.
            result_at_switch = device.link.transfer(
                self.backends.row_bytes, last_row, op=MemOpcode.MEM_RD_DATA
            )
            result_at_host = port.link.transfer(
                self.backends.row_bytes, result_at_switch, op=MemOpcode.MEM_RD_DATA
            )
            finishes.append(result_at_host + self.HOST_CXL_OVERHEAD_NS)
        # The host combines the per-device partial sums.
        return max(finishes) + len(by_device) * self.HOST_ACCUMULATE_NS_PER_ROW

    def process_request(self, request: SLSRequest, start_ns: float, host_id: int) -> float:
        local: List[int] = []
        remote: List[int] = []
        for address in request.addresses:
            address = int(address)
            if self.is_local(address):
                local.append(address)
            else:
                remote.append(address)
        local_done = self._nmp_accumulate(local, start_ns)
        remote_done = self._nmp_cxl_accumulate(remote, start_ns, host_id)
        return max(local_done, remote_done)

    # ------------------------------------------------------------------
    # Vector-engine twin
    # ------------------------------------------------------------------
    def prepare_vector(self, ctx) -> None:
        # Route table, built once per session: for every (host, device) the
        # bound closures a remote NMP burst needs — device link, device
        # DRAM, the host's upstream port on the device's switch — plus the
        # switch forwarding latency.  Kernel closures stay valid for the
        # whole session, so the request loop pays one list index per bucket.
        self._nmp_routes = [
            [
                (
                    kernel.link_transfer,
                    kernel.link_transfer_seq,
                    kernel.dram.access,
                    ctx.port_kernels[host_id][switch_id].transfer,
                    ctx.port_kernels[host_id][switch_id].transfer_stream,
                    ctx.forward_ns[switch_id],
                )
                for kernel, switch_id in zip(ctx.device_kernels, ctx.device_switch)
            ]
            for host_id in range(ctx.num_hosts)
        ]

    def process_request_vector(self, request: SLSRequest, start_ns: float, host_id: int) -> float:
        """The NMP request flow on pre-resolved batches (same arithmetic)."""
        ctx = self._vector
        begin, end = ctx.locate(request.request_id)
        local_ks, remote_ks, remote_devs, _ = ctx.split(begin, end)
        addr = ctx.addr
        cache = self._rank_cache
        lookup = cache.lookup
        insert = cache.insert
        hit_ns = cache.hit_latency_ns()
        accumulate_ns = self.NMP_ACCUMULATE_NS

        by_device: dict = {}
        for j, k in enumerate(remote_ks):
            bucket = by_device.get(remote_devs[j])
            if bucket is None:
                by_device[remote_devs[j]] = [k]
            else:
                bucket.append(k)

        # Local rows: DIMM-side NMP with the RankCache, all issued together.
        local_done = start_ns
        if local_ks:
            lch, lfb, lrow = ctx.lch, ctx.lfb, ctx.lrow
            dram_access = ctx.local_access[0]  # the scalar path uses host 0's DIMMs
            issue = start_ns + self.NMP_COMMAND_NS
            last_row = issue
            # Hits all finish at the same issue-anchored time — fold their
            # timing in once; per hit row only the cache lookup runs.
            any_hit = False
            for k in local_ks:
                if lookup(addr[k]):
                    any_hit = True
                else:
                    ready = dram_access(lch[k], lfb[k], lrow[k], issue)
                    insert(addr[k])
                    done = ready + accumulate_ns
                    if done > last_row:
                        last_row = done
            if any_hit:
                done = (issue + hit_ns) + accumulate_ns
                if done > last_row:
                    last_row = done
            local_done = last_row + self.NMP_RESULT_NS

        # Remote rows: NMP inside the CXL expanders, one partial per device.
        remote_done = start_ns
        if by_device:
            cch, cfb, crow = ctx.cch, ctx.cfb, ctx.crow
            controller_penalty = self.system.cxl.access_penalty_ns / 2.0
            slot_bytes = self.system.cxl.slot_bytes
            row_bytes = ctx.row_bytes
            cxl_overhead = self.HOST_CXL_OVERHEAD_NS
            best = None
            routes = self._nmp_routes[host_id]
            for device_id, ks in by_device.items():
                link_transfer, link_seq, dram_access, port_transfer, port_stream, forward_ns = routes[
                    device_id
                ]
                count = len(ks)
                # The per-row NMP commands are all issued at start_ns: one
                # stream call crosses the upstream port, one sequenced call
                # the device link — the same serialization chains as the
                # per-row transfers (the port and device links never
                # interleave within one device's burst).
                commands_at_dimm = link_seq(
                    slot_bytes, port_stream(slot_bytes, start_ns, count), forward_ns
                )
                last_row = start_ns
                # Cache hits finish in command order (the device-link chain
                # is non-decreasing): the last hit stands in for all of
                # them, so per hit row only the lookup runs.
                last_hit = -1
                for i in range(count):
                    k = ks[i]
                    if lookup(addr[k]):
                        last_hit = i
                    else:
                        ready = dram_access(
                            cch[k], cfb[k], crow[k], commands_at_dimm[i] + controller_penalty
                        )
                        insert(addr[k])
                        done = ready + accumulate_ns
                        if done > last_row:
                            last_row = done
                if last_hit >= 0:
                    done = ((commands_at_dimm[last_hit] + controller_penalty) + hit_ns) + accumulate_ns
                    if done > last_row:
                        last_row = done
                result_at_switch = link_transfer(row_bytes, last_row)
                result_at_host = port_transfer(row_bytes, result_at_switch)
                finish = result_at_host + cxl_overhead
                if best is None or finish > best:
                    best = finish
            remote_done = best + len(by_device) * self.HOST_ACCUMULATE_NS_PER_ROW

        return local_done if local_done > remote_done else remote_done

    def maintenance(self, now_ns: float) -> float:
        if not self.page_management:
            return 0.0
        cost = run_page_management_epoch(self.tiered, self.hotness_policy, self.spreading_policy)
        # The epoch runs on the OS path, so queries see the page-block share.
        return self.tiered.migration_stall_ns(cost, "page_block")


__all__ = ["RecNMPSystem"]
