"""Tests for the PIFS hardware components (instructions, buffer, OoO, PC)."""

import pytest

from repro.config import BufferConfig, CXLConfig, PIFSConfig
from repro.cxl.protocol import MemOpcode
from repro.pifs.instructions import (
    PIFSInstruction,
    decode_vector_size,
    encode_vector_size,
    repack_instruction,
)
from repro.pifs.onswitch_buffer import OnSwitchBuffer
from repro.pifs.ooo import OutOfOrderAccumulator
from repro.pifs.process_core import ProcessCore
from repro.pifs.switch import PIFSSwitch


class TestInstructions:
    def test_vector_size_roundtrip(self):
        for row_bytes in (16, 32, 64, 128, 256, 512, 1024, 2048):
            assert decode_vector_size(encode_vector_size(row_bytes)) == row_bytes

    def test_unsupported_row_size(self):
        with pytest.raises(ValueError):
            encode_vector_size(48)

    def test_data_fetch_fields(self):
        instr = PIFSInstruction.data_fetch(address=0x1000, row_bytes=128, sumtag=5, spid=2)
        assert instr.is_data_fetch and not instr.is_config
        assert instr.row_bytes == 128
        assert instr.sumtag == 5

    def test_configuration_fields(self):
        instr = PIFSInstruction.configuration(result_address=0x2000, sum_candidate_count=9, sumtag=1, spid=2)
        assert instr.is_config
        assert instr.sum_candidate_count == 9
        assert instr.address == 0x2000

    def test_sumtag_width_enforced(self):
        with pytest.raises(ValueError):
            PIFSInstruction.data_fetch(address=0, row_bytes=64, sumtag=512, spid=0)

    def test_repack_rewrites_opcode_and_spid(self):
        fetch = PIFSInstruction.data_fetch(address=0x40, row_bytes=64, sumtag=3, spid=7)
        repacked = repack_instruction(fetch, switch_spid=0xFFF, device_dpid=4)
        assert repacked.opcode is MemOpcode.MEM_RD
        assert repacked.spid == 0xFFF
        assert repacked.dpid == 4
        assert repacked.data_bytes == 64

    def test_repack_rejects_config(self):
        config = PIFSInstruction.configuration(0, 1, 0, 0)
        with pytest.raises(ValueError):
            repack_instruction(config, 1, 2)

    def test_to_message(self):
        fetch = PIFSInstruction.data_fetch(address=0x40, row_bytes=64, sumtag=3, spid=7)
        message = fetch.to_message()
        assert message.opcode is MemOpcode.PIFS_DATA_FETCH
        assert message.sumtag == 3


class TestOnSwitchBuffer:
    def _buffer(self, policy="htr", capacity=1024, row_bytes=64):
        return OnSwitchBuffer(BufferConfig(policy=policy, capacity_bytes=capacity, htr_interval=64), row_bytes)

    def test_miss_then_hit(self):
        buf = self._buffer()
        assert buf.lookup(0x40) is False
        buf.insert(0x40)
        assert buf.lookup(0x40) is True
        assert buf.hits == 1 and buf.misses == 1

    def test_capacity_rows(self):
        buf = self._buffer(capacity=256, row_bytes=64)
        assert buf.capacity_rows == 4

    def test_none_policy_never_hits(self):
        buf = self._buffer(policy="none", capacity=0)
        buf.insert(0x40)
        assert buf.lookup(0x40) is False

    def test_fifo_evicts_oldest(self):
        buf = self._buffer(policy="fifo", capacity=128, row_bytes=64)  # 2 rows
        buf.insert(0x0)
        buf.insert(0x40)
        buf.insert(0x80)
        assert not buf.contains(0x0)
        assert buf.contains(0x80)

    def test_lru_evicts_least_recent(self):
        buf = self._buffer(policy="lru", capacity=128, row_bytes=64)
        buf.insert(0x0)
        buf.insert(0x40)
        buf.lookup(0x0)  # touch 0x0 so 0x40 becomes LRU
        buf.insert(0x80)
        assert buf.contains(0x0)
        assert not buf.contains(0x40)

    def test_htr_keeps_hot_rows(self):
        buf = self._buffer(policy="htr", capacity=128, row_bytes=64)  # 2 rows
        for _ in range(10):
            buf.lookup(0x0)
        buf.insert(0x0)
        buf.lookup(0x40)
        buf.insert(0x40)
        # A cold newcomer must not displace the hot resident row.
        buf.lookup(0x80)
        buf.insert(0x80)
        assert buf.contains(0x0)

    def test_hit_ratio(self):
        buf = self._buffer()
        buf.insert(0x0)
        buf.lookup(0x0)
        buf.lookup(0x40)
        assert buf.hit_ratio() == pytest.approx(0.5)

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            OnSwitchBuffer(BufferConfig(policy="mru"), 64)

    @pytest.mark.parametrize("policy, capacity", [("none", 0), ("none", 1024), ("lru", 0)])
    def test_disabled_kernel_counts_misses_in_bulk(self, policy, capacity):
        """A disabled buffer's switch kernel leaves it as ``n`` scalar lookups do."""
        scalar = self._buffer(policy=policy, capacity=capacity)
        for address in (0x0, 0x40, 0x0):
            assert scalar.lookup(address) is False
        switch, fetched = self._accumulate(policy, capacity, [0x0, 0x40, 0x0])
        assert fetched == [0x0, 0x40, 0x0]
        for buffer in (scalar, switch.buffer):
            assert (buffer.hits, buffer.misses, buffer._accesses_since_curate) == (0, 3, 3)
            assert buffer.occupancy == 0
        switch, fetched = self._accumulate("lru", 1024, [0x0, 0x40, 0x0])
        assert fetched == [0x0, 0x40]
        assert (switch.buffer.hits, switch.buffer.misses, switch.buffer.occupancy) == (1, 2, 2)

    def _accumulate(self, policy, capacity, addresses):
        """One switch-kernel accumulation from a host port over one stub device.

        Returns the switch, synced, and the addresses fetched from the device.
        """
        config = BufferConfig(policy=policy, capacity_bytes=capacity, htr_interval=64)
        switch = PIFSSwitch(CXLConfig(), PIFSConfig(on_switch_buffer=config), 64)
        port = switch.attach_host("host0")
        kernel = switch.batch_kernel(64)
        fetched = []
        zeros = [0] * len(addresses)
        kernel.accumulate(
            kernel.port_kernel(port),
            list(range(len(addresses))),
            zeros,
            addresses,
            zeros,
            zeros,
            zeros,
            [lambda channel, bank, row, address, ns: fetched.append(address) or ns + 10.0],
            0.0,
        )
        kernel.sync()
        return switch, fetched

    def test_occupancy_never_exceeds_capacity(self):
        buf = self._buffer(policy="lru", capacity=256, row_bytes=64)
        for i in range(100):
            buf.lookup(i * 64)
            buf.insert(i * 64)
        assert buf.occupancy <= buf.capacity_rows


class TestOutOfOrderAccumulator:
    def test_same_sumtag_no_overhead(self):
        acc = OutOfOrderAccumulator(PIFSConfig())
        base = acc.accumulate_element(1)
        again = acc.accumulate_element(1)
        assert again == base == acc.cycle_ns * PIFSConfig().accumulate_cycles_per_element

    def test_ooo_switch_cheaper_than_inorder(self):
        config = PIFSConfig()
        ooo = OutOfOrderAccumulator(config, out_of_order=True)
        ino = OutOfOrderAccumulator(config, out_of_order=False)
        for engine in (ooo, ino):
            engine.accumulate_element(1)
        ooo_cost = ooo.accumulate_element(2)
        ino_cost = ino.accumulate_element(2)
        assert ooo_cost < ino_cost
        assert ino.stats.stall_cycles > 0

    def test_swap_register_exhaustion_spills(self):
        config = PIFSConfig(swap_registers=1)
        acc = OutOfOrderAccumulator(config, out_of_order=True)
        acc.accumulate_element(1)
        swapped = acc.accumulate_element(2)  # uses the only swap register
        spilled = acc.accumulate_element(3)  # must spill to SRAM
        base = config.accumulate_cycles_per_element
        assert swapped == acc.cycle_ns * (base + config.swap_cycles * 0.5)
        assert spilled == acc.cycle_ns * (base + config.sram_spill_cycles)
        assert spilled > swapped

    def test_finish_frees_swap_register(self):
        config = PIFSConfig(swap_registers=1)
        acc = OutOfOrderAccumulator(config, out_of_order=True)
        acc.accumulate_element(1)
        swapped = acc.accumulate_element(2)
        acc.finish_sumtag(1)
        # The freed register takes the next switch: no spill.
        assert acc.accumulate_element(3) == swapped

    def test_reset(self):
        acc = OutOfOrderAccumulator(PIFSConfig(), out_of_order=False)
        base = acc.accumulate_element(1)
        acc.accumulate_element(2)
        assert acc.stats.stall_cycles > 0
        acc.reset()
        assert acc.stats.stall_cycles == 0
        # No sumtag is active after a reset, so the next element is no switch.
        assert acc.accumulate_element(3) == base


class TestProcessCore:
    def _configured(self, count=3, sumtag=1):
        core = ProcessCore(PIFSConfig())
        instr = PIFSInstruction.configuration(0x9000, count, sumtag, spid=0)
        ready = core.configure(instr, now_ns=0.0)
        return core, ready

    def test_configure_creates_acr_entry(self):
        core, ready = self._configured(count=5)
        assert core.active_sumtags == 1
        assert ready == core.configure_ns
        # The entry counts down the five candidates.
        for _ in range(4):
            core.accumulate(1, ready)
        assert not core.is_complete(1)
        core.accumulate(1, ready)
        assert core.is_complete(1)

    def test_fetch_requires_configuration(self):
        core = ProcessCore(PIFSConfig())
        fetch = PIFSInstruction.data_fetch(0x40, 64, sumtag=9, spid=0)
        with pytest.raises(KeyError):
            core.register_fetch(fetch, 0.0)

    def test_accumulate_until_complete(self):
        core, ready = self._configured(count=2)
        fetch = PIFSInstruction.data_fetch(0x40, 64, sumtag=1, spid=0)
        core.register_fetch(fetch, ready)
        assert not core.is_complete(1)
        core.accumulate(1, ready + 10)
        done = core.accumulate(1, ready + 20)
        assert done == ready + 20 + core.element_ns
        assert core.is_complete(1)
        core.retire(1, ready + 30)
        assert core.active_sumtags == 0

    def test_retire_incomplete_raises(self):
        core, ready = self._configured(count=2)
        core.accumulate(1, ready)
        with pytest.raises(RuntimeError):
            core.retire(1, ready)

    def test_acr_backpressure(self):
        config = PIFSConfig(acr_capacity=1)
        core = ProcessCore(config)
        core.configure(PIFSInstruction.configuration(0, 1, 0, 0), now_ns=0.0)
        ready = core.configure(PIFSInstruction.configuration(0, 1, 1, 0), now_ns=0.0)
        # The full ACR holds the second sumtag back one cycle, then decodes it.
        assert core.stats.backpressure_ns == core.cycle_ns
        assert ready == core.cycle_ns + core.configure_ns

    def test_reset(self):
        core = ProcessCore(PIFSConfig(acr_capacity=1))
        core.configure(PIFSInstruction.configuration(0, 1, 0, 0), now_ns=0.0)
        core.configure(PIFSInstruction.configuration(0, 1, 1, 0), now_ns=0.0)
        core.reset()
        assert core.active_sumtags == 0
        assert core.stats.backpressure_ns == 0.0
