"""Tests for the tiered-memory substrate (repro.memsys)."""

import pytest

from repro.config import GIB, PAGE_SIZE_BYTES, RMC1
from repro.memsys.address_space import AddressSpace
from repro.memsys.allocator import InterleaveAllocator, PlacementPolicy
from repro.memsys.node import MemoryNode, MemoryTier
from repro.memsys.page import page_id_of
from repro.memsys.tiered import TieredMemorySystem


def make_nodes(num_cxl=2, local_capacity=1 * GIB):
    nodes = [
        MemoryNode(0, MemoryTier.LOCAL_DRAM, local_capacity, 90.0, 400.0),
        MemoryNode(1, MemoryTier.REMOTE_SOCKET, 1 * GIB, 140.0, 70.0),
    ]
    for i in range(num_cxl):
        nodes.append(MemoryNode(2 + i, MemoryTier.CXL, 1 * GIB, 190.0, 25.0))
    return nodes


class TestPage:
    def test_page_id_of(self):
        assert page_id_of(0) == 0
        assert page_id_of(4095) == 0
        assert page_id_of(4096) == 1

    def test_negative_address(self):
        with pytest.raises(ValueError):
            page_id_of(-1)

    def test_record_and_decay(self):
        tiered = TieredMemorySystem(make_nodes())
        tiered.place_page(0, 0)
        tiered.record_access(1)
        tiered.record_access(2)
        assert tiered.access_count_table()[0] == 2
        tiered.decay_hotness(0.5)
        assert tiered.access_count_table()[0] == 1

    def test_decay_validation(self):
        with pytest.raises(ValueError):
            TieredMemorySystem(make_nodes()).decay_hotness(1.5)


class TestMemoryNode:
    def test_allocate_release(self):
        node = make_nodes()[0]
        node.allocate(PAGE_SIZE_BYTES)
        assert node.used_bytes == PAGE_SIZE_BYTES
        node.release(PAGE_SIZE_BYTES)
        assert node.used_bytes == 0

    def test_over_allocation_raises(self):
        node = MemoryNode(0, MemoryTier.CXL, PAGE_SIZE_BYTES, 100.0, 10.0)
        node.allocate(PAGE_SIZE_BYTES)
        with pytest.raises(MemoryError):
            node.allocate(1)

    def test_serve_serializes_on_bandwidth(self):
        node = MemoryNode(0, MemoryTier.CXL, 1 * GIB, 100.0, bandwidth_gbps=1.0)
        first = node.serve(0.0, 100)
        second = node.serve(0.0, 100)
        assert second > first

    def test_serve_includes_latency(self):
        node = MemoryNode(0, MemoryTier.CXL, 1 * GIB, 150.0, 100.0)
        assert node.serve(0.0, 64) >= 150.0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            MemoryNode(0, MemoryTier.CXL, 0, 100.0, 10.0)


class TestAddressSpace:
    def test_for_model(self):
        space = AddressSpace.for_model(RMC1)
        assert space.num_tables == RMC1.num_tables
        assert space.row_bytes == RMC1.embedding_row_bytes

    def test_table_stride_page_aligned(self):
        space = AddressSpace(num_tables=2, num_embeddings=100, row_bytes=48)
        assert space.table_stride % space.page_size == 0
        assert space.table_stride >= space.table_bytes

    def test_row_address_roundtrip(self):
        space = AddressSpace(num_tables=4, num_embeddings=1000, row_bytes=64)
        for table in range(4):
            for row in (0, 1, 500, 999):
                addr = space.row_address(table, row)
                assert space.locate(addr) == (table, row)

    def test_out_of_range(self):
        space = AddressSpace(num_tables=2, num_embeddings=10, row_bytes=64)
        with pytest.raises(ValueError):
            space.row_address(2, 0)
        with pytest.raises(ValueError):
            space.row_address(0, 10)

    def test_rows_per_page(self):
        space = AddressSpace(num_tables=1, num_embeddings=10, row_bytes=256)
        assert space.rows_per_page == 16

    def test_total_pages(self):
        space = AddressSpace(num_tables=2, num_embeddings=64, row_bytes=64)
        assert space.total_pages == space.total_bytes // space.page_size


class TestAllocator:
    def test_local_only(self):
        nodes = make_nodes()
        placement = InterleaveAllocator(nodes, PlacementPolicy.LOCAL_ONLY).place_pages(100)
        assert set(placement.values()) == {0}

    def test_cxl_only_single_expander(self):
        nodes = make_nodes(num_cxl=3)
        placement = InterleaveAllocator(nodes, PlacementPolicy.CXL_ONLY).place_pages(100)
        assert set(placement.values()) == {2}

    def test_interleave_spill_fraction(self):
        nodes = make_nodes(num_cxl=2)
        allocator = InterleaveAllocator(nodes, PlacementPolicy.INTERLEAVE, spill_fraction=0.2)
        placement = allocator.place_pages(1000)
        spilled = sum(1 for node in placement.values() if node >= 2)
        assert 150 <= spilled <= 250  # ~20 %

    def test_interleave_uses_all_cxl_nodes(self):
        nodes = make_nodes(num_cxl=3)
        allocator = InterleaveAllocator(nodes, PlacementPolicy.INTERLEAVE, spill_fraction=0.5)
        placement = allocator.place_pages(100)
        assert {n for n in placement.values() if n >= 2} == {2, 3, 4}

    def test_cxl_fraction_single_node(self):
        nodes = make_nodes(num_cxl=3)
        allocator = InterleaveAllocator(nodes, PlacementPolicy.CXL_FRACTION, spill_fraction=0.5)
        placement = allocator.place_pages(100)
        assert {n for n in placement.values() if n >= 2} == {2}

    def test_remote_fraction_requires_remote_node(self):
        nodes = [n for n in make_nodes() if n.tier is not MemoryTier.REMOTE_SOCKET]
        allocator = InterleaveAllocator(nodes, PlacementPolicy.REMOTE_FRACTION)
        with pytest.raises(ValueError):
            allocator.place_pages(10)

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            InterleaveAllocator(make_nodes(), spill_fraction=1.5)


class TestTieredMemorySystem:
    def _system(self, pages=64, num_cxl=2):
        tiered = TieredMemorySystem(make_nodes(num_cxl=num_cxl))
        placement = {p: (0 if p % 2 == 0 else 2 + (p % num_cxl)) for p in range(pages)}
        tiered.install_placement(placement)
        return tiered

    def test_placement_tracks_capacity(self):
        tiered = self._system(pages=10)
        local = tiered.node(0)
        assert local.used_bytes == 5 * PAGE_SIZE_BYTES

    def test_duplicate_placement_rejected(self):
        tiered = self._system(pages=4)
        with pytest.raises(ValueError):
            tiered.place_page(0, 0)

    def test_node_of_address(self):
        tiered = self._system()
        assert tiered.node_of_address(0).node_id == 0
        assert tiered.node_of_address(PAGE_SIZE_BYTES).tier is MemoryTier.CXL

    def test_record_access_updates_counters(self):
        tiered = self._system()
        tiered.record_access(100)
        assert tiered.access_count_table()[0] == 1
        assert tiered.node(0).access_count == 1

    def test_migrate_page_moves_capacity(self):
        tiered = self._system()
        before_local = tiered.node(0).used_bytes
        record = tiered.migrate_page(0, 2)
        assert record.cost_ns > 0
        assert tiered.node(0).used_bytes == before_local - PAGE_SIZE_BYTES
        assert tiered.node_of_page(0).node_id == 2
        assert tiered.migration_stats.migrations == 1

    def test_migrate_to_same_node_is_free(self):
        tiered = self._system()
        record = tiered.migrate_page(0, 0)
        assert record.cost_ns == 0.0
        assert tiered.migration_stats.migrations == 0

    def test_swap_pages(self):
        tiered = self._system()
        node_a = tiered.node_of_page(0).node_id
        node_b = tiered.node_of_page(1).node_id
        tiered.swap_pages(0, 1)
        assert tiered.node_of_page(0).node_id == node_b
        assert tiered.node_of_page(1).node_id == node_a

    def test_cacheline_migration_cheaper_than_page_block(self):
        tiered = self._system()
        assert tiered.migration_cost_ns("cacheline_block") < tiered.migration_cost_ns("page_block")

    def test_unknown_migration_mode(self):
        with pytest.raises(ValueError):
            TieredMemorySystem(make_nodes(), migration_mode="teleport")

    def test_ranked_pages_on_a_node(self):
        """Hottest or coldest first, ties in page-id order, unaccessed pages included."""
        tiered = self._system(pages=8)
        assert tiered.pages_on(3).tolist() == [1, 3, 5, 7]
        assert tiered.pages_on(2).tolist() == []
        for page_id, times in ((3, 3), (5, 1), (7, 3), (0, 9)):
            for _ in range(times):
                tiered.record_access(page_id * PAGE_SIZE_BYTES)
        pages = tiered.pages_on(3)
        assert tiered.ranked_pages(pages, 2, hottest=True) == [(3, 3), (7, 3)]
        assert tiered.ranked_pages(pages, 2, hottest=False) == [(1, 0), (5, 1)]
        assert tiered.ranked_pages(pages, 9, hottest=True) == [(3, 3), (7, 3), (5, 1), (1, 0)]
        assert tiered.ranked_pages(pages, 0, hottest=True) == []
