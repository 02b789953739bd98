"""Tests for the page-management policies (repro.pagemgmt)."""

import pytest

from repro.config import GIB, PAGE_SIZE_BYTES
from repro.memsys.node import MemoryNode, MemoryTier
from repro.memsys.tiered import TieredMemorySystem
from repro.pagemgmt.global_hotness import GlobalHotnessPolicy
from repro.pagemgmt.regions import HostRegions
from repro.pagemgmt.spreading import SpreadingPolicy


def build_tiered(num_cxl=4, pages_per_node=16):
    nodes = [MemoryNode(0, MemoryTier.LOCAL_DRAM, 1 * GIB, 90.0, 400.0)]
    nodes += [MemoryNode(1 + i, MemoryTier.CXL, 1 * GIB, 190.0, 25.0) for i in range(num_cxl)]
    tiered = TieredMemorySystem(nodes)
    placement = {}
    page = 0
    for node in nodes:
        for _ in range(pages_per_node):
            placement[page] = node.node_id
            page += 1
    tiered.install_placement(placement)
    return tiered


class TestHostRegions:
    def test_claim_and_release(self):
        claims = {}
        regions = HostRegions(host_id=0, global_claims=claims)
        assert regions.claim(5)
        assert regions.owns(5)
        regions.release(5)
        assert not regions.owns(5)
        assert 5 not in claims

    def test_claim_conflict_between_hosts(self):
        claims = {}
        host0 = HostRegions(0, global_claims=claims)
        host1 = HostRegions(1, global_claims=claims)
        assert host0.claim(7)
        assert not host1.claim(7)
        assert host1.num_private_pages == 0


class TestGlobalHotness:
    def test_promotes_hot_cxl_pages(self):
        tiered = build_tiered()
        hot_cxl_page = 20  # lives on a CXL node
        for _ in range(50):
            tiered.record_access(hot_cxl_page * PAGE_SIZE_BYTES)
        policy = GlobalHotnessPolicy(cold_age_threshold=0.16, max_swaps_per_epoch=4)
        outcome = policy.run_epoch(tiered)
        assert outcome.promotions >= 1
        assert tiered.node_of_page(hot_cxl_page).tier is MemoryTier.LOCAL_DRAM
        assert tiered.migration_stats.cost_ns > 0

    def test_no_swap_when_local_already_hot(self):
        tiered = build_tiered()
        for page in range(4):  # local pages
            for _ in range(50):
                tiered.record_access(page * PAGE_SIZE_BYTES)
        policy = GlobalHotnessPolicy()
        outcome = policy.run_epoch(tiered)
        assert outcome.promotions == 0

    def test_higher_threshold_means_fewer_swaps(self):
        def run(threshold):
            tiered = build_tiered()
            for page in range(16, 24):
                for _ in range(page):
                    tiered.record_access(page * PAGE_SIZE_BYTES)
            for page in range(4):
                for _ in range(10):
                    tiered.record_access(page * PAGE_SIZE_BYTES)
            policy = GlobalHotnessPolicy(cold_age_threshold=threshold, max_swaps_per_epoch=8)
            return policy.run_epoch(tiered).promotions

        assert run(0.02) >= run(0.9)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            GlobalHotnessPolicy(cold_age_threshold=1.5)


class TestSpreading:
    def test_warm_node_detection(self):
        tiered = build_tiered(num_cxl=4)
        # Hammer node 1's pages only.
        for page in range(16, 32):
            for _ in range(20):
                tiered.record_access(page * PAGE_SIZE_BYTES)
        for page in range(32, 80):
            tiered.record_access(page * PAGE_SIZE_BYTES)
        policy = SpreadingPolicy(migrate_threshold=0.35)
        warm = policy.find_warm_nodes(policy.node_hotness(tiered))
        assert warm == [1]

    def test_rebalance_moves_pages_off_warm_node(self):
        tiered = build_tiered(num_cxl=4)
        for page in range(16, 32):
            for _ in range(20):
                tiered.record_access(page * PAGE_SIZE_BYTES)
        for page in range(32, 80):
            tiered.record_access(page * PAGE_SIZE_BYTES)
        policy = SpreadingPolicy(migrate_threshold=0.35, max_migrations_per_epoch=4)
        outcome = policy.rebalance(tiered)
        assert outcome.migrations >= 1
        assert tiered.migration_stats.cost_ns > 0
        assert 1 in outcome.warm_nodes

    def test_no_migration_when_balanced(self):
        tiered = build_tiered(num_cxl=4)
        for page in range(16, 80):
            tiered.record_access(page * PAGE_SIZE_BYTES)
        outcome = SpreadingPolicy().rebalance(tiered)
        assert outcome.migrations == 0

    def test_higher_threshold_triggers_more_easily(self):
        low = SpreadingPolicy(migrate_threshold=0.10)
        high = SpreadingPolicy(migrate_threshold=0.50)
        assert high.warm_trigger_ratio() < low.warm_trigger_ratio()

    def test_single_cxl_node_never_warm(self):
        tiered = build_tiered(num_cxl=1)
        for page in range(16, 32):
            tiered.record_access(page * PAGE_SIZE_BYTES)
        policy = SpreadingPolicy()
        assert policy.find_warm_nodes(policy.node_hotness(tiered)) == []

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            SpreadingPolicy(migrate_threshold=0.0)

    def test_traffic_that_has_decayed_away_marks_no_node_warm(self):
        """Node 1 served a burst epochs ago; recent traffic is even, so nothing moves."""
        tiered = build_tiered(num_cxl=3, pages_per_node=4)
        for _ in range(100):
            tiered.record_access(4 * PAGE_SIZE_BYTES)
        for _ in range(8):
            tiered.decay_hotness(0.5)
        for page in (5, 9, 13):  # one page on each CXL node
            for _ in range(2):
                tiered.record_access(page * PAGE_SIZE_BYTES)
        placement = tiered.node_id_table().tolist()
        served = tiered.node_access_counts()
        outcome = SpreadingPolicy().rebalance(tiered)
        assert outcome.warm_nodes == []
        assert outcome.migrations == 0
        assert tiered.node_id_table().tolist() == placement
        assert tiered.node_access_counts() == served

    def test_only_pages_with_recent_traffic_move(self):
        """Node 1's three pages without traffic stay; its one hot page moves."""
        tiered = build_tiered(num_cxl=3, pages_per_node=4)
        for _ in range(30):
            tiered.record_access(4 * PAGE_SIZE_BYTES)
        for page in (8, 12):
            tiered.record_access(page * PAGE_SIZE_BYTES)
        served = tiered.node_access_counts()
        outcome = SpreadingPolicy(max_iterations=1).rebalance(tiered)
        assert outcome.warm_nodes == [1]
        assert outcome.migrations == 1
        assert tiered.node_of_page(4).node_id == 2
        assert tiered.node_access_counts() == served

    @staticmethod
    def three_nodes(destination_pages, placement, hits):
        """Local DRAM (node 0) and CXL nodes 1 and 2; node 2 holds ``destination_pages``."""
        tiered = TieredMemorySystem([
            MemoryNode(0, MemoryTier.LOCAL_DRAM, 1 * GIB, 90.0, 400.0),
            MemoryNode(1, MemoryTier.CXL, 1 * GIB, 190.0, 25.0),
            MemoryNode(2, MemoryTier.CXL, destination_pages * PAGE_SIZE_BYTES, 190.0, 25.0),
        ])
        tiered.install_placement(placement)
        for page, times in hits.items():
            for _ in range(times):
                tiered.record_access(page * PAGE_SIZE_BYTES)
        return tiered

    def test_a_page_promoted_off_the_warm_node_takes_no_candidate_slot(self):
        """The four hottest pages node 1 still holds move, not three of them."""
        placement = {0: 0, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 2}
        tiered = self.three_nodes(16, placement, {1: 100, 2: 50, 3: 40, 4: 30, 5: 20, 7: 10})
        # Claim-&-swap promotes page 1 and demotes page 0 onto node 1.
        GlobalHotnessPolicy(max_swaps_per_epoch=1).run_epoch(tiered)
        outcome = SpreadingPolicy().rebalance(tiered)
        assert outcome.migrations == 4
        assert tiered.node_id_table().tolist() == [1, 0, 2, 2, 2, 2, 1, 2]

    def test_a_full_destination_swaps_with_a_page_it_holds(self):
        """The swap partner is on the destination, so local DRAM keeps its pages."""
        placement = {0: 0, 1: 1, 2: 1, 3: 1, 4: 1, 5: 2, 6: 2}
        tiered = self.three_nodes(2, placement, {1: 50, 2: 40, 3: 30, 4: 20, 5: 1, 6: 5})
        # Page 5 is promoted out of the full destination; page 0 takes its place.
        tiered.swap_pages(5, 0)
        outcome = SpreadingPolicy(max_migrations_per_epoch=2).rebalance(tiered)
        assert outcome.migrations == 2
        table = tiered.node_id_table().tolist()
        assert [page for page, node in enumerate(table) if node == 0] == [5]
        assert table == [1, 2, 1, 1, 1, 0, 2]
