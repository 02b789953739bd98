"""Periodic work that scales with change, pinned to its from-scratch reference.

Three periodic steps update what changed since the previous one instead of
rescanning everything:

* HTR curation re-keys only the rows probed since the last curation;
* migrations write the ``page id -> node id`` column in place instead of
  rebuilding it;
* the vector engine re-gathers about what the previous placement
  generation consumed instead of a fixed window.

Each must leave every observable result exactly as the rescan did.
"""

from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api.registry import create_system
from repro.config import BufferConfig, DEFAULT_SYSTEM, RMC1, WorkloadConfig, scaled_model
from repro.memsys.node import MemoryNode, MemoryTier
from repro.memsys.tiered import TieredMemorySystem
from repro.pifs.onswitch_buffer import OnSwitchBuffer
from repro.sls.vector import VectorContext
from repro.traces.workload import build_workload

ROW_BYTES = 64


class RescanBuffer(OnSwitchBuffer):
    """The buffer with the full-rescan curation: ``most_common`` and a heap rebuild."""

    def _curate(self) -> None:
        self._accesses_since_curate = 0
        self._touched.clear()
        hottest = self._counts.most_common(self._capacity_rows)
        desired = {addr for addr, _ in hottest}
        current = set(self._entries)
        for addr in current - desired:
            del self._entries[addr]
            self._evictions += 1
        for addr in desired - current:
            if len(self._entries) < self._capacity_rows:
                self._entries[addr] = self._insertions
                self._insertions += 1
        self._rebuild_heap()


def _htr(buffer_cls, capacity_rows, interval):
    config = BufferConfig(
        policy="htr", capacity_bytes=capacity_rows * ROW_BYTES, htr_interval=interval
    )
    return buffer_cls(config, ROW_BYTES)


def _state(buffer):
    return list(buffer._entries.items()), buffer._heap_top(), buffer.evictions


@st.composite
def curation_streams(draw):
    """Skewed row streams over a small alphabet, so profiled counts tie heavily.

    Rows map to addresses through a drawn permutation, so first-seen order
    and address order disagree.
    """
    alphabet = draw(st.integers(min_value=2, max_value=48))
    row = st.tuples(
        st.integers(min_value=0, max_value=alphabet - 1),
        st.integers(min_value=0, max_value=alphabet - 1),
    ).map(min)
    rows = draw(st.lists(row, min_size=1, max_size=300))
    return dict(
        addresses=[ROW_BYTES * slot for slot in draw(st.permutations(range(alphabet)))],
        rows=rows,
        capacity=draw(st.integers(min_value=1, max_value=32)),
        interval=draw(st.integers(min_value=1, max_value=64)),
        resize_at=draw(st.integers(min_value=0, max_value=len(rows))),
        resized=draw(st.integers(min_value=1, max_value=32)),
        sync_every=draw(st.integers(min_value=1, max_value=50)),
    )


def _case(rows, capacity, interval, resize_at, resized, addresses=None):
    return dict(
        addresses=addresses or [ROW_BYTES * slot for slot in range(max(rows) + 1)],
        rows=rows, capacity=capacity, interval=interval, resize_at=resize_at,
        resized=resized, sync_every=1,
    )


@given(case=curation_streams())
# A grown buffer must not keep ranking from the smaller top-k.
@example(case=_case([0, 0, 0, 1, 1, 2, 3, 4] + [5] * 8, 2, 8, 8, 4))
# Ties at the cut go to the row seen first, not the lower address.
@example(case=_case([0, 1, 1, 0], 1, 2, 4, 1, addresses=[128, 64]))
@settings(max_examples=300, deadline=None)
def test_incremental_curation_matches_the_rescan(case):
    """Scalar and kernel lookups curate exactly as ``most_common`` + heap rebuild."""
    reference = _htr(RescanBuffer, case["capacity"], case["interval"])
    scalar = _htr(OnSwitchBuffer, case["capacity"], case["interval"])
    batched = _htr(OnSwitchBuffer, case["capacity"], case["interval"])
    kernel = batched.batch_kernel()
    for step, row in enumerate(case["rows"]):
        if step == case["resize_at"]:
            kernel.sync()  # kernels snapshot the capacity: rebuild after a resize
            for buffer in (reference, scalar, batched):
                buffer.resize(case["resized"] * ROW_BYTES)
            kernel = batched.batch_kernel()
        address = case["addresses"][row]
        hits = []
        for lookup, insert in (
            (reference.lookup, reference.insert),
            (scalar.lookup, scalar.insert),
            (kernel.lookup, kernel.insert),
        ):
            hit = lookup(address)
            if not hit:
                insert(address)
            hits.append(hit)
        assert hits[1] == hits[2] == hits[0]
        expected = _state(reference)
        assert _state(scalar) == expected
        assert _state(batched) == expected
        if step % case["sync_every"] == 0:
            kernel.sync()
            assert (batched.hits, batched.misses) == (reference.hits, reference.misses)
    kernel.sync()
    for buffer in (scalar, batched):
        assert (buffer.hits, buffer.misses, buffer.evictions) == (
            reference.hits, reference.misses, reference.evictions,
        )
        assert list(buffer._counts.items()) == list(reference._counts.items())


def test_curation_does_not_rebuild_the_heap_every_time():
    """Only newcomers are pushed; the heap is rebuilt when stale entries pile up."""
    buffer = _htr(OnSwitchBuffer, capacity_rows=8, interval=4)
    rebuilds = []
    rebuild = buffer._rebuild_heap
    buffer._rebuild_heap = lambda: (rebuilds.append(len(buffer._heap)), rebuild())
    curations = 0
    for row in list(range(64)) * 4:
        if not buffer.lookup(row * ROW_BYTES):
            buffer.insert(row * ROW_BYTES)
        curations += buffer._accesses_since_curate == 0
    assert curations == 64
    assert len(rebuilds) < curations // 4
    assert all(size > 2 * buffer.capacity_rows for size in rebuilds)


# ----------------------------------------------------------------------
# The node column
# ----------------------------------------------------------------------
def _fresh_table(placement):
    table = np.full(max(placement) + 1, -1, dtype=np.int64)
    for page_id, node_id in placement.items():
        table[page_id] = node_id
    return table


@given(
    moves=st.lists(
        st.tuples(
            st.sampled_from(["migrate", "swap", "place", "read"]),
            st.integers(min_value=0, max_value=40),
            st.integers(min_value=0, max_value=40),
        ),
        max_size=60,
    )
)
@settings(max_examples=100, deadline=None)
def test_patched_node_table_equals_a_fresh_build(moves):
    nodes = [
        MemoryNode(node_id, MemoryTier.LOCAL_DRAM if node_id == 0 else MemoryTier.CXL,
                   1 << 30, 90.0, 38.4)
        for node_id in range(4)
    ]
    tiered = TieredMemorySystem(nodes)
    placement = {page_id: page_id % 4 for page_id in range(0, 16, 2)}
    tiered.install_placement(placement)
    for op, a, b in moves:
        placed = sorted(placement)
        if op == "migrate":
            page_id = placed[a % len(placed)]
            tiered.migrate_page(page_id, b % 4)
            placement[page_id] = b % 4
        elif op == "swap":
            page_a, page_b = placed[a % len(placed)], placed[b % len(placed)]
            tiered.swap_pages(page_a, page_b)
            placement[page_a], placement[page_b] = placement[page_b], placement[page_a]
        elif op == "place" and a not in placement:
            tiered.place_page(a, b % 4)
            placement[a] = b % 4
        elif op == "read":
            assert np.array_equal(tiered.node_id_table(), _fresh_table(placement))
    assert np.array_equal(tiered.node_id_table(), _fresh_table(placement))


# ----------------------------------------------------------------------
# Consumption-sized re-gathers
# ----------------------------------------------------------------------
def test_regathers_track_consumption_under_frequent_migration(monkeypatch):
    """A short migration epoch re-gathers about what each generation consumes.

    A fixed 8192-position gather after every placement change would gather
    many times the trace here; the gathers are counted, not timed.
    """
    model = replace(scaled_model(RMC1, 4096 / RMC1.num_embeddings), num_tables=8)
    workload = build_workload(
        WorkloadConfig(model=model, batch_size=32, num_batches=2, pooling_factor=40, seed=5)
    )
    config = replace(
        DEFAULT_SYSTEM,
        local_dram_capacity_bytes=workload.address_space.total_bytes // 4,
        num_cxl_devices=4,
        host_threads=4,
        page_mgmt=replace(DEFAULT_SYSTEM.page_mgmt, migration_epoch_accesses=256),
    )
    gathered = [0]
    ensure = VectorContext._ensure_window

    def counted(self, begin, end):
        cached = (
            self.tiered.generation == self._node_generation
            and self._window_start <= begin
            and end <= self._window_end
        )
        ensure(self, begin, end)
        if not cached:
            gathered[0] += self._window_end - self._window_start

    monkeypatch.setattr(VectorContext, "_ensure_window", counted)
    result = create_system("pifs-rec", config).set_engine("vector").run(workload)
    assert result.lookups >= 20_000
    assert result.migrations >= 20
    assert gathered[0] <= 3 * result.lookups
