"""The page table as columns, pinned to the one-record-per-page design.

``TieredMemorySystem`` holds two numpy columns indexed by page id: the
owning node (-1 = unplaced) and the access count.  :class:`PageDictModel`
is the design they replace — a dict of page records plus per-node
counters — kept here as the reference.  Random sequences of every
operation that touches the columns must leave both in the same state.
The claim-&-swap candidates must equal the sort-based ranking truncated
to the swap cap.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import GIB, PAGE_SIZE_BYTES
from repro.memsys.node import MemoryNode, MemoryTier
from repro.memsys.tiered import TieredMemorySystem
from repro.pagemgmt.global_hotness import GlobalHotnessPolicy

TIERS = (MemoryTier.LOCAL_DRAM, MemoryTier.REMOTE_SOCKET, MemoryTier.CXL, MemoryTier.CXL)
DECAY_FACTORS = (0.0, 0.5, 0.75, 1.0)


def make_tiered():
    return TieredMemorySystem(
        [MemoryNode(node_id, tier, GIB, 90.0, 38.4) for node_id, tier in enumerate(TIERS)]
    )


class PageDictModel:
    """One record per placed page and per-node counters."""

    def __init__(self):
        self.node = {}
        self.count = {}
        self.node_count = dict.fromkeys(range(len(TIERS)), 0)

    def place(self, page_id, node_id):
        self.node[page_id] = node_id
        self.count[page_id] = 0

    def record(self, page_id):
        node_id = self.node[page_id]
        self.count[page_id] += 1
        self.node_count[node_id] += 1

    def swap(self, page_a, page_b):
        self.node[page_a], self.node[page_b] = self.node[page_b], self.node[page_a]

    def decay(self, factor):
        self.count = {page_id: int(count * factor) for page_id, count in self.count.items()}


def assert_same_state(tiered, model):
    size = max(model.node) + 1 if model.node else 0
    nodes = np.full(size, -1, dtype=np.int64)
    counts = np.zeros(size, dtype=np.int64)
    for page_id, node_id in model.node.items():
        nodes[page_id] = node_id
        counts[page_id] = model.count[page_id]
    assert tiered.node_id_table().tolist() == nodes.tolist()
    assert tiered.access_count_table().tolist() == counts.tolist()
    assert tiered.node_access_counts() == model.node_count
    for node_id in range(len(TIERS)):
        held = sorted(page_id for page_id, node in model.node.items() if node == node_id)
        assert tiered.pages_on(node_id).tolist() == held


OPS = st.lists(
    st.tuples(
        st.sampled_from(["place", "migrate", "swap", "record", "flush", "decay"]),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=40),
        st.lists(st.integers(min_value=0, max_value=40), max_size=12),
    ),
    max_size=60,
)


@given(ops=OPS)
@settings(max_examples=200, deadline=None)
def test_columns_follow_the_page_dict_model(ops):
    tiered = make_tiered()
    model = PageDictModel()
    start = {page_id: page_id % len(TIERS) for page_id in range(0, 16, 2)}
    tiered.install_placement(start)
    for page_id, node_id in start.items():
        model.place(page_id, node_id)
    for op, a, b, picks in ops:
        placed = sorted(model.node)
        if op == "place":
            if a not in model.node:
                tiered.place_page(a, b % len(TIERS))
                model.place(a, b % len(TIERS))
        elif op == "migrate":
            page_id = placed[a % len(placed)]
            tiered.migrate_page(page_id, b % len(TIERS))
            model.node[page_id] = b % len(TIERS)
        elif op == "swap":
            page_a, page_b = placed[a % len(placed)], placed[b % len(placed)]
            tiered.swap_pages(page_a, page_b)
            model.swap(page_a, page_b)
        elif op == "record":
            page_id = placed[a % len(placed)]
            tiered.record_access(page_id * PAGE_SIZE_BYTES + b)
            model.record(page_id)
        elif op == "flush":
            pages = [placed[pick % len(placed)] for pick in picks]
            if pages:
                tiered.record_pages(pages)
            for page_id in pages:
                model.record(page_id)
        else:
            factor = DECAY_FACTORS[a % len(DECAY_FACTORS)]
            tiered.decay_hotness(factor)
            model.decay(factor)
        assert_same_state(tiered, model)


# ----------------------------------------------------------------------
# Claim-&-swap candidates
# ----------------------------------------------------------------------
def sorted_candidates(tiered, k):
    """The sort-based ranking over every page, truncated to ``k``."""
    local_ids = {node.node_id for node in tiered.nodes_by_tier(MemoryTier.LOCAL_DRAM)}
    cxl_ids = {node.node_id for node in tiered.nodes_by_tier(MemoryTier.CXL)}
    counts = tiered.access_count_table().tolist()
    local_pages, cxl_pages = [], []
    for page_id, node_id in enumerate(tiered.node_id_table().tolist()):
        if node_id in local_ids:
            local_pages.append((page_id, counts[page_id]))
        elif node_id in cxl_ids:
            cxl_pages.append((page_id, counts[page_id]))
    local_pages.sort(key=lambda entry: entry[1])
    cxl_pages.sort(key=lambda entry: entry[1], reverse=True)
    return local_pages[:k], cxl_pages[:k]


@given(
    placement=st.dictionaries(
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=0, max_value=len(TIERS) - 1),
        max_size=80,
    ),
    hits=st.lists(st.integers(min_value=0, max_value=300), max_size=240),
    cap=st.integers(min_value=0, max_value=16),
)
@example(placement={0: 0, 1: 2, 2: 3}, hits=[1, 1, 2], cap=0)
@example(placement={0: 0, 1: 2, 2: 3}, hits=[1, 1, 2], cap=16)
@settings(max_examples=300, deadline=None)
def test_candidates_equal_the_sorted_ranking(placement, hits, cap):
    tiered = make_tiered()
    tiered.install_placement(placement)
    placed = sorted(placement)
    if placed and hits:
        tiered.record_pages([placed[hit % len(placed)] for hit in hits])
    policy = GlobalHotnessPolicy(max_swaps_per_epoch=cap)
    assert policy._candidates(tiered) == sorted_candidates(tiered, cap)


# ----------------------------------------------------------------------
# Scalar lookups
# ----------------------------------------------------------------------
@pytest.mark.parametrize("page_id", [1, 3, 99, -1])
def test_lookups_of_pages_not_placed_raise_key_error(page_id):
    """A hole, the end of the table, far beyond it, and a negative id.

    Page 2, the last placed page, is what numpy's negative indexing would
    return for -1.
    """
    tiered = make_tiered()
    tiered.install_placement({0: 0, 2: 2})
    with pytest.raises(KeyError):
        tiered.node_of_page(page_id)
    with pytest.raises(KeyError):
        tiered.node_of_address(page_id * PAGE_SIZE_BYTES)


def test_placement_rejects_negative_page_ids():
    """A negative id would write the column from its end."""
    tiered = make_tiered()
    tiered.install_placement({0: 0, 2: 2})
    with pytest.raises(ValueError):
        tiered.install_placement({-1: 0})
    assert tiered.node_id_table().tolist() == [0, -1, 2]
