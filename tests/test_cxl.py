"""Tests for the CXL substrate (repro.cxl)."""

import pytest

from repro.config import CXLConfig, DDR4_CXL_CONFIG
from repro.cxl.bias_table import BiasMode, BiasTable
from repro.cxl.device import CXLType3Device
from repro.cxl.fabric_manager import FabricManager
from repro.cxl.link import CXLLink
from repro.cxl.protocol import CXLMemM2S, MemOpcode
from repro.cxl.switch import FabricSwitch
from repro.cxl.topology import FabricTopology


class TestProtocol:
    def test_message_ids_unique(self):
        a = CXLMemM2S(opcode=MemOpcode.MEM_RD, address=0, spid=1)
        b = CXLMemM2S(opcode=MemOpcode.MEM_RD, address=0, spid=1)
        assert a.message_id != b.message_id


class TestLink:
    def test_transfer_includes_serialization_and_propagation(self):
        link = CXLLink(bandwidth_gbps=64.0, propagation_ns=10.0)
        finish = link.transfer(640, start_ns=0.0)
        assert finish == pytest.approx(640 / 64.0 + 10.0)

    def test_back_to_back_transfers_queue(self):
        link = CXLLink(bandwidth_gbps=1.0, propagation_ns=0.0)
        first = link.transfer(100, 0.0)
        second = link.transfer(100, 0.0)
        assert second == pytest.approx(first + 100.0)
        assert link.total_queue_delay_ns == pytest.approx(100.0)

    def test_utilization_bounded(self):
        link = CXLLink(bandwidth_gbps=10.0)
        link.transfer(1000, 0.0)
        assert 0.0 < link.utilization(1000.0) <= 1.0

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            CXLLink(bandwidth_gbps=0.0)

    def test_reset(self):
        link = CXLLink(bandwidth_gbps=10.0)
        link.transfer(100, 0.0)
        link.reset()
        assert link.bytes_transferred == 0
        assert link.transfers == 0


class TestBiasTable:
    def test_default_host_bias_pays_penalty(self):
        table = BiasTable()
        assert table.mode(0) is BiasMode.HOST
        assert table.device_access_penalty_ns(0) > 0

    def test_device_bias_has_no_penalty(self):
        table = BiasTable()
        table.set_mode(0, BiasMode.DEVICE, length_bytes=8192)
        assert table.mode(4095) is BiasMode.DEVICE
        assert table.device_access_penalty_ns(100) == 0.0

    def test_region_boundaries(self):
        table = BiasTable()
        table.set_mode(0, BiasMode.DEVICE, length_bytes=4096)
        assert table.mode(4096) is BiasMode.HOST

    def test_flip_counter(self):
        table = BiasTable()
        table.set_mode(0, BiasMode.DEVICE)
        table.set_mode(0, BiasMode.HOST)
        table.set_mode(0, BiasMode.HOST)
        assert table.flips == 2


class TestFabricManager:
    def test_bind_assigns_unique_cache_ids(self):
        fm = FabricManager()
        a = fm.bind(0, "host0", "host")
        b = fm.bind(1, "dev0", "type3")
        assert a.cache_id != b.cache_id

    def test_duplicate_port_rejected(self):
        fm = FabricManager()
        fm.bind(0, "host0", "host")
        with pytest.raises(ValueError):
            fm.bind(0, "host1", "host")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FabricManager().bind(0, "x", "gpu")

    def test_devices_and_hosts_filters(self):
        fm = FabricManager()
        fm.bind(0, "host0", "host")
        fm.bind(1, "dev0", "type3")
        fm.bind(2, "dev1", "type3")
        assert len(fm.devices()) == 2
        assert len(fm.hosts()) == 1

    def test_unbind(self):
        fm = FabricManager()
        fm.bind(0, "host0", "host")
        fm.unbind(0)
        assert fm.binding_for_port(0) is None
        with pytest.raises(KeyError):
            fm.unbind(0)


class TestType3Device:
    def test_access_slower_than_raw_dram(self):
        cxl = CXLConfig()
        device = CXLType3Device(0, DDR4_CXL_CONFIG, cxl)
        finish = device.access(0, 0.0, bytes_requested=64)
        raw = device.dram.controller.average_latency_ns()
        assert finish > raw  # link + controller penalty on top of the media

    def test_read_write_counters(self):
        device = CXLType3Device(0, DDR4_CXL_CONFIG, CXLConfig())
        device.access(0, 0.0)
        device.access(64, 0.0, is_write=True)
        assert device.reads == 1
        assert device.writes == 1

    def test_reset(self):
        device = CXLType3Device(0, DDR4_CXL_CONFIG, CXLConfig())
        device.access(0, 0.0)
        device.reset()
        assert device.reads == 0


class TestFabricSwitch:
    def _build(self, devices=2):
        switch = FabricSwitch(CXLConfig())
        for i in range(devices):
            switch.attach_device(CXLType3Device(i, DDR4_CXL_CONFIG, CXLConfig()))
        port = switch.attach_host("host0")
        return switch, port

    def test_host_read_roundtrip(self):
        switch, port = self._build()
        finish = switch.host_read(port, device_id=0, address=0, issue_ns=0.0)
        assert finish > 100.0  # includes the CXL access penalty
        assert switch.forwarded_requests == 1

    def test_host_read_includes_cxl_penalty(self):
        switch, port = self._build()
        finish = switch.host_read(port, 0, 0, issue_ns=0.0)
        assert finish >= CXLConfig().access_penalty_ns / 2

    def test_devices_listed(self):
        switch, _ = self._build(devices=3)
        assert [d.device_id for d in switch.devices()] == [0, 1, 2]

    def test_unknown_port_raises(self):
        switch, _ = self._build()
        with pytest.raises(KeyError):
            switch._device_for_port(999)

    def test_reset_clears_counters(self):
        switch, port = self._build()
        switch.host_read(port, 0, 0, 0.0)
        switch.reset()
        assert switch.forwarded_requests == 0


class TestTopology:
    def test_fully_connected(self):
        topo = FabricTopology(4, CXLConfig())
        assert topo.are_connected(0, 3)
        assert topo.hop_count(0, 3) == 1

    def test_hop_latency(self):
        cxl = CXLConfig()
        topo = FabricTopology(3, cxl)
        assert topo.hop_latency_ns(0, 2) == pytest.approx(cxl.inter_switch_hop_ns)
        assert topo.hop_latency_ns(1, 1) == 0.0

    def test_ring_topology_multi_hop(self):
        topo = FabricTopology(4, CXLConfig(), fully_connected=False)
        topo.add_link(0, 1)
        topo.add_link(1, 2)
        topo.add_link(2, 3)
        assert topo.hop_count(0, 3) == 3

    def test_disconnected_raises(self):
        topo = FabricTopology(2, CXLConfig(), fully_connected=False)
        with pytest.raises(ValueError):
            topo.hop_count(0, 1)

    def test_self_link_rejected(self):
        topo = FabricTopology(2, CXLConfig(), fully_connected=False)
        with pytest.raises(ValueError):
            topo.add_link(0, 0)

    def test_out_of_range(self):
        topo = FabricTopology(2, CXLConfig())
        with pytest.raises(ValueError):
            topo.neighbors(5)
