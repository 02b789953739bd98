"""Tests for the PIFS switch accumulation flow, host flow and forwarding."""

import pytest

from repro.config import CXLConfig, DDR4_CXL_CONFIG, PIFSConfig, SystemConfig
from repro.cxl.device import CXLType3Device
from repro.cxl.topology import FabricTopology
from repro.memsys.node import MemoryNode, MemoryTier
from repro.memsys.tiered import TieredMemorySystem
from repro.pifs.forwarding import MultiSwitchCoordinator
from repro.pifs.host import PIFSHost
from repro.pifs.switch import PIFSSwitch, RowFetch


def build_switch(num_devices=2, compute_enabled=True, **pifs_kwargs):
    from dataclasses import replace

    pifs_config = replace(PIFSConfig(), **pifs_kwargs) if pifs_kwargs else PIFSConfig()
    switch = PIFSSwitch(CXLConfig(), pifs_config, row_bytes=256, compute_enabled=compute_enabled)
    for i in range(num_devices):
        switch.attach_device(CXLType3Device(i, DDR4_CXL_CONFIG, CXLConfig()))
    port = switch.attach_host("host0")
    return switch, port


class TestPIFSSwitchAccumulate:
    def test_accumulate_completes_and_notifies_host(self):
        switch, port = build_switch()
        rows = [RowFetch(address=i * 256, device_id=i % 2) for i in range(8)]
        outcome = switch.accumulate(rows, port, issue_ns=0.0, result_address=0x8000)
        # The result crosses the upstream link back to the host.
        assert outcome.host_notified_ns > outcome.result_ready_ns
        assert switch.buffer.hits + switch.buffer.misses == 8
        assert sum(switch.device(i).reads for i in range(2)) == switch.buffer.misses

    def test_sumtag_retired_after_accumulation(self):
        switch, port = build_switch()
        rows = [RowFetch(address=0, device_id=0)]
        outcome = switch.accumulate(rows, port, issue_ns=0.0)
        assert switch.process_core.active_sumtags == 0
        assert outcome.result_ready_ns > 0
        # The accumulation took sumtag 0, so the next one is 1.
        assert switch.allocate_sumtag() == 1

    def test_repeated_rows_hit_buffer(self):
        switch, port = build_switch()
        rows = [RowFetch(address=0x40, device_id=0)] * 4
        switch.accumulate(rows, port, issue_ns=0.0)
        assert (switch.buffer.hits, switch.buffer.misses) == (3, 1)

    def test_empty_rows_rejected(self):
        switch, port = build_switch()
        with pytest.raises(ValueError):
            switch.accumulate([], port, issue_ns=0.0)

    def test_compute_disabled_raises(self):
        switch, port = build_switch(compute_enabled=False)
        with pytest.raises(RuntimeError):
            switch.accumulate([RowFetch(0, 0)], port, issue_ns=0.0)

    def test_per_row_overhead_slows_accumulation(self):
        fast_switch, fast_port = build_switch()
        slow_switch, slow_port = build_switch()
        rows = [RowFetch(address=i * 256, device_id=0) for i in range(4)]
        fast = fast_switch.accumulate(rows, fast_port, issue_ns=0.0)
        slow = slow_switch.accumulate(rows, slow_port, issue_ns=0.0, per_row_overhead_ns=50.0)
        assert slow.result_ready_ns > fast.result_ready_ns

    def test_parallel_devices_faster_than_single(self):
        multi, multi_port = build_switch(num_devices=4)
        single, single_port = build_switch(num_devices=1)
        multi_rows = [RowFetch(address=i * 4096, device_id=i % 4) for i in range(16)]
        single_rows = [RowFetch(address=i * 4096, device_id=0) for i in range(16)]
        multi_out = multi.accumulate(multi_rows, multi_port, issue_ns=0.0)
        single_out = single.accumulate(single_rows, single_port, issue_ns=0.0)
        assert multi_out.result_ready_ns < single_out.result_ready_ns

    def test_sumtag_allocator_wraps(self):
        switch, _ = build_switch()
        tags = {switch.allocate_sumtag() for _ in range(600)}
        assert max(tags) < 512

    def test_no_notify_skips_upstream_transfer(self):
        switch, port = build_switch()
        rows = [RowFetch(address=0, device_id=0)]
        outcome = switch.accumulate(rows, port, issue_ns=0.0, notify_host=False)
        assert outcome.host_notified_ns == pytest.approx(outcome.result_ready_ns)


class TestPIFSHost:
    def _tiered(self):
        nodes = [
            MemoryNode(0, MemoryTier.LOCAL_DRAM, 1 << 20, 90.0, 400.0),
            MemoryNode(1, MemoryTier.CXL, 1 << 20, 190.0, 25.0),
        ]
        tiered = TieredMemorySystem(nodes)
        tiered.install_placement({0: 0, 1: 1})
        return tiered

    def test_split_candidates(self):
        host = PIFSHost(0, SystemConfig())
        tiered = self._tiered()
        split = host.split_candidates([100, 5000], tiered)
        assert split.local_addresses == [100]
        assert split.remote_addresses == [5000]
        assert split.sum_candidate_count == 1

    def test_accumulate_local_empty(self):
        host = PIFSHost(0, SystemConfig())
        assert host.accumulate_local([], 10.0, lambda a, t: t + 1) == 10.0

    def test_accumulate_local_groups(self):
        host = PIFSHost(0, SystemConfig())
        finish = host.accumulate_local(list(range(0, 64 * 20, 64)), 0.0, lambda a, t: t + 50.0)
        # 20 rows with MLP 8 -> 3 groups of loads plus per-row adds.
        assert finish >= 3 * 50.0

    def test_combine_waits_for_slowest(self):
        host = PIFSHost(0, SystemConfig())
        combined = host.combine(local_done_ns=100.0, remote_done_ns=500.0)
        assert combined == 500.0 + host.SNOOP_DETECT_NS + host.COMBINE_NS


class TestForwarding:
    def test_cnv_bit(self):
        coordinator = MultiSwitchCoordinator(
            FabricTopology(2, CXLConfig()), CXLConfig(), compute_capable=[True, False]
        )
        assert coordinator.is_compute_capable(0)
        assert not coordinator.is_compute_capable(1)

    def test_cnv0_switch_streams_raw_rows(self):
        cxl = CXLConfig()
        topo = FabricTopology(2, cxl)
        smart = MultiSwitchCoordinator(topo, cxl, compute_capable=[True, True])
        dumb = MultiSwitchCoordinator(topo, cxl, compute_capable=[True, False])
        smart_time = smart.remote_accumulation_time(0, 1, rows=32, row_bytes=256, per_row_fetch_ns=200.0, issue_ns=0.0)
        dumb_time = dumb.remote_accumulation_time(0, 1, rows=32, row_bytes=256, per_row_fetch_ns=200.0, issue_ns=0.0)
        assert dumb_time > smart_time

    def test_invalid_rows(self):
        coordinator = MultiSwitchCoordinator(FabricTopology(2, CXLConfig()), CXLConfig())
        with pytest.raises(ValueError):
            coordinator.remote_accumulation_time(0, 1, rows=0, row_bytes=64, per_row_fetch_ns=1.0, issue_ns=0.0)

    def test_compute_capable_length_checked(self):
        with pytest.raises(ValueError):
            MultiSwitchCoordinator(FabricTopology(2, CXLConfig()), CXLConfig(), compute_capable=[True])
