"""Tests for the DRAM substrate (repro.dram)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CACHE_LINE_BYTES, DDR5_TIMINGS, DRAMConfig
from repro.dram.address_mapping import AddressMapping
from repro.dram.bank import Bank, RowBufferResult
from repro.dram.channel import Channel
from repro.dram.controller import DRAMController, MemoryRequest
from repro.dram.device import DRAMDevice


@pytest.fixture
def config():
    return DRAMConfig(channels=2, ranks_per_channel=2, banks_per_rank=4)


class TestAddressMapping:
    def test_decode_fields_in_range(self, config):
        mapping = AddressMapping(config)
        for address in range(0, 1 << 20, 4096 + 64):
            decoded = mapping.decode(address)
            assert 0 <= decoded.channel < config.channels
            assert 0 <= decoded.rank < config.ranks_per_channel
            assert 0 <= decoded.bank < config.banks_per_rank
            assert 0 <= decoded.column < mapping.lines_per_row()

    def test_consecutive_lines_stripe_channels(self, config):
        mapping = AddressMapping(config)
        a = mapping.decode(0)
        b = mapping.decode(CACHE_LINE_BYTES)
        assert a.channel != b.channel

    def test_same_line_same_decode(self, config):
        mapping = AddressMapping(config)
        assert mapping.decode(10) == mapping.decode(63)

    def test_negative_address_rejected(self, config):
        with pytest.raises(ValueError):
            AddressMapping(config).decode(-1)

    @given(
        channels=st.sampled_from([1, 2, 3, 4, 12]),
        ranks=st.integers(min_value=1, max_value=4),
        banks=st.sampled_from([1, 3, 4, 16]),
        row_size=st.sampled_from([16, 32, 64, 128, 1024, 8192]),
        addresses=st.lists(st.integers(min_value=0, max_value=1 << 45), max_size=32),
    )
    @settings(max_examples=200, deadline=None)
    def test_flat_batch_decode_matches_scalar(self, channels, ranks, banks, row_size, addresses):
        """The kernels' flat coordinates are the scalar decode's, for any shape
        (12 channels as in local DDR5, rows shorter than a cache line)."""
        mapping = AddressMapping(DRAMConfig(
            channels=channels, ranks_per_channel=ranks, banks_per_rank=banks,
            row_size_bytes=row_size,
        ))
        channel, flat_bank, row = mapping.decode_flat_batch(np.array(addresses, dtype=np.int64))
        expected = []
        for address in addresses:
            decoded = mapping.decode(address)
            flat = (decoded.channel * ranks + decoded.rank) * banks + decoded.bank
            expected.append((decoded.channel, flat, decoded.row))
        assert list(zip(channel.tolist(), flat_bank.tolist(), row.tolist())) == expected
        with pytest.raises(ValueError):
            mapping.decode_flat_batch(np.array(addresses + [-1], dtype=np.int64))

    def test_bank_key_hashable(self, config):
        decoded = AddressMapping(config).decode(0)
        assert decoded.bank_key == (decoded.channel, decoded.rank, decoded.bank)


class TestBank:
    def test_first_access_is_miss(self):
        bank = Bank(DDR5_TIMINGS)
        access = bank.access(row=3, arrival_ns=0.0)
        assert access.result is RowBufferResult.MISS
        assert bank.misses == 1

    def test_second_access_same_row_hits(self):
        bank = Bank(DDR5_TIMINGS)
        bank.access(row=3, arrival_ns=0.0)
        access = bank.access(row=3, arrival_ns=100.0)
        assert access.result is RowBufferResult.HIT

    def test_conflict_on_other_row(self):
        bank = Bank(DDR5_TIMINGS)
        bank.access(row=3, arrival_ns=0.0)
        access = bank.access(row=7, arrival_ns=100.0)
        assert access.result is RowBufferResult.CONFLICT

    def test_hit_is_fastest(self):
        timings = DDR5_TIMINGS
        hit_bank, miss_bank, conflict_bank = Bank(timings), Bank(timings), Bank(timings)
        hit_bank.access(row=1, arrival_ns=0.0)
        conflict_bank.access(row=2, arrival_ns=0.0)
        t0 = 1000.0
        hit = hit_bank.access(1, t0).ready_ns - t0
        miss = miss_bank.access(1, t0).ready_ns - t0
        conflict = conflict_bank.access(1, t0).ready_ns - t0
        assert hit < miss < conflict

    def test_back_to_back_accesses_serialize(self):
        bank = Bank(DDR5_TIMINGS)
        first = bank.access(row=1, arrival_ns=0.0)
        second = bank.access(row=1, arrival_ns=0.0)
        assert second.start_ns >= first.ready_ns

    def test_precharge_closes_row(self):
        bank = Bank(DDR5_TIMINGS)
        bank.access(row=1, arrival_ns=0.0)
        bank.precharge()
        assert bank.open_row is None
        assert bank.access(row=1, arrival_ns=100.0).result is RowBufferResult.MISS

    def test_reset(self):
        bank = Bank(DDR5_TIMINGS)
        bank.access(row=1, arrival_ns=0.0)
        bank.reset()
        assert bank.hits == bank.misses == bank.conflicts == 0
        assert bank.next_ready_ns == 0.0


class TestChannel:
    def test_access_returns_increasing_time(self, config):
        channel = Channel(config)
        t1 = channel.access(rank=0, bank=0, row=0, arrival_ns=0.0)
        t2 = channel.access(rank=0, bank=1, row=0, arrival_ns=0.0)
        assert t1 > 0
        assert t2 >= t1  # shared data bus serializes the bursts

    def test_bytes_transferred_accumulates(self, config):
        channel = Channel(config)
        channel.access(0, 0, 0, 0.0, bytes_requested=256)
        assert channel.bytes_transferred == 256

    def test_utilization_bounded(self, config):
        channel = Channel(config)
        for i in range(32):
            channel.access(0, i % config.banks_per_rank, i, float(i))
        assert 0.0 < channel.utilization(channel.bus_free_ns) <= 1.0

    def test_reset(self, config):
        channel = Channel(config)
        channel.access(0, 0, 0, 0.0)
        channel.reset()
        assert channel.bytes_transferred == 0
        assert channel.bus_free_ns == 0.0


class TestController:
    def test_latency_positive(self, config):
        controller = DRAMController(config)
        response = controller.service(MemoryRequest(address=0, arrival_ns=0.0))
        assert response.latency_ns > 0

    def test_sequential_stream_gets_row_hits(self, config):
        controller = DRAMController(config)
        for i in range(256):
            controller.access(i * CACHE_LINE_BYTES, arrival_ns=i * 5.0)
        assert controller.row_buffer_hit_rate() > 0.5

    def test_average_latency_tracks_requests(self, config):
        controller = DRAMController(config)
        assert controller.average_latency_ns() == 0.0
        controller.access(0, 0.0)
        assert controller.average_latency_ns() > 0.0
        assert controller.requests == 1

    def test_parallel_banks_faster_than_same_bank(self, config):
        same_bank = DRAMController(config)
        spread = DRAMController(config)
        # Row-conflicting stream to a single bank vs striped across banks.
        row_stride = config.row_size_bytes * config.channels * config.ranks_per_channel * config.banks_per_rank
        bank_stride = config.row_size_bytes * config.channels
        same_finish = max(same_bank.access(i * row_stride, 0.0) for i in range(16))
        spread_finish = max(spread.access(i * bank_stride, 0.0) for i in range(16))
        assert spread_finish < same_finish


class TestDevice:
    def test_stats(self, config):
        device = DRAMDevice(config)
        device.access(0, 0.0)
        device.access(CACHE_LINE_BYTES, 10.0)
        stats = device.stats()
        assert stats.requests == 2
        assert stats.bytes_transferred >= 2 * CACHE_LINE_BYTES
        assert stats.average_latency_ns > 0

    def test_bandwidth_computation(self, config):
        device = DRAMDevice(config)
        device.access(0, 0.0, bytes_requested=1024)
        assert device.stats().bandwidth_gbps(100.0) == pytest.approx(1024 / 100.0)

    def test_reset(self, config):
        device = DRAMDevice(config)
        device.access(0, 0.0)
        device.reset()
        assert device.stats().requests == 0
