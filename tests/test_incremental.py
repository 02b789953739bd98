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

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api.registry import create_system
from repro.config import (
    BufferConfig,
    CXLConfig,
    DEFAULT_SYSTEM,
    PIFSConfig,
    RMC1,
    WorkloadConfig,
    scaled_model,
)
from repro.memsys.node import MemoryNode, MemoryTier
from repro.memsys.tiered import TieredMemorySystem
from repro.pifs.onswitch_buffer import OnSwitchBuffer
from repro.pifs.switch import PIFSSwitch
from repro.sls.vector import VectorContext
from repro.traces.workload import build_workload

ROW_BYTES = 64


class RescanBuffer(OnSwitchBuffer):
    """The buffer with the full-rescan curation: ``most_common`` and a heap rebuild."""

    def _curate(self) -> None:
        self._accesses_since_curate = 0
        self._touched.clear()
        hottest = Counter(self._counts).most_common(self._capacity_rows)
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


def _config(policy, capacity_rows, interval):
    return BufferConfig(
        policy=policy, capacity_bytes=capacity_rows * ROW_BYTES, htr_interval=interval
    )


def _htr(buffer_cls, capacity_rows, interval):
    return buffer_cls(_config("htr", capacity_rows, interval), ROW_BYTES)


def _state(buffer):
    return (
        list(buffer._entries.items()),
        buffer._heap_top(),
        list(buffer._fifo),
        buffer.evictions,
        list(buffer._counts.items()),
    )


def _accumulate(kernel, port, addresses):
    """One in-switch accumulation of ``addresses`` from ``port`` over one stub device."""
    count = len(addresses)
    zeros = [0] * count
    kernel.accumulate(
        kernel.port_kernel(port),
        list(range(count)),
        zeros,
        addresses,
        zeros,
        zeros,
        zeros,
        [lambda channel, bank, row, address, ns: ns + 10.0],
        0.0,
    )


@st.composite
def curation_streams(draw):
    """Skewed row streams over a small alphabet, so profiled counts tie heavily.

    Rows map to addresses through a drawn permutation, so first-seen order
    and address order disagree.  The stream is cut into accumulations of
    drawn sizes, cycled.
    """
    alphabet = draw(st.integers(min_value=2, max_value=48))
    row = st.tuples(
        st.integers(min_value=0, max_value=alphabet - 1),
        st.integers(min_value=0, max_value=alphabet - 1),
    ).map(min)
    rows = draw(st.lists(row, min_size=1, max_size=300))
    return dict(
        policy=draw(st.sampled_from(["htr", "htr", "lru", "fifo"])),
        addresses=[ROW_BYTES * slot for slot in draw(st.permutations(range(alphabet)))],
        rows=rows,
        capacity=draw(st.integers(min_value=1, max_value=32)),
        interval=draw(st.integers(min_value=1, max_value=64)),
        resize_at=draw(st.integers(min_value=0, max_value=len(rows))),
        resized=draw(st.integers(min_value=1, max_value=32)),
        sizes=draw(st.lists(st.integers(min_value=1, max_value=16), min_size=1, max_size=6)),
        sync_every=draw(st.integers(min_value=1, max_value=8)),
    )


def _case(rows, capacity, interval, resize_at, resized, addresses=None, policy="htr", sizes=(1,)):
    return dict(
        policy=policy,
        addresses=addresses or [ROW_BYTES * slot for slot in range(max(rows) + 1)],
        rows=rows, capacity=capacity, interval=interval, resize_at=resize_at,
        resized=resized, sizes=list(sizes), sync_every=1,
    )


def _replay(case):
    """Feed ``case`` to the rescan oracle, the scalar buffer and a switch kernel.

    The oracle and the scalar buffer take one lookup (and an insert after
    a miss) per row, checked against each other after every row; the
    kernel takes each accumulation whole, checked after each one.  Returns
    the events the oracle saw: ``straddle`` (a curation before an
    accumulation's last row), ``repeat`` (a row twice in one
    accumulation), ``refused`` (an insert HTR declined).
    """
    config = _config(case["policy"], case["capacity"], case["interval"])
    reference = RescanBuffer(config, ROW_BYTES)
    scalar = OnSwitchBuffer(config, ROW_BYTES)
    switch = PIFSSwitch(CXLConfig(), PIFSConfig(on_switch_buffer=config), ROW_BYTES)
    batched = switch.buffer
    port = switch.attach_host("host0")
    kernel = switch.batch_kernel(ROW_BYTES)
    addresses = [case["addresses"][row] for row in case["rows"]]
    events = set()
    start = 0
    resized = False
    step = 0
    while start < len(addresses):
        if not resized and start >= case["resize_at"]:
            kernel.sync()  # kernels snapshot the policy flags: rebuild after a resize
            for buffer in (reference, scalar, batched):
                buffer.resize(case["resized"] * ROW_BYTES)
            kernel = switch.batch_kernel(ROW_BYTES)
            resized = True
        size = case["sizes"][step % len(case["sizes"])]
        chunk = addresses[start:start + size]
        start += len(chunk)
        for position, address in enumerate(chunk):
            hit = reference.lookup(address)
            if reference._accesses_since_curate == 0 and position < len(chunk) - 1:
                events.add("straddle")
            if not hit:
                reference.insert(address)
                if address not in reference._entries:
                    events.add("refused")
            assert scalar.lookup(address) == hit
            if not hit:
                scalar.insert(address)
            assert _state(scalar) == _state(reference)
        if len(set(chunk)) < len(chunk):
            events.add("repeat")
        _accumulate(kernel, port, chunk)
        assert _state(batched) == _state(reference)
        if step % case["sync_every"] == 0:
            kernel.sync()
            assert (batched.hits, batched.misses, batched._accesses_since_curate) == (
                reference.hits, reference.misses, reference._accesses_since_curate,
            )
        step += 1
    kernel.sync()
    for buffer in (scalar, batched):
        assert (buffer.hits, buffer.misses, buffer.evictions) == (
            reference.hits, reference.misses, reference.evictions,
        )
        assert buffer._accesses_since_curate == reference._accesses_since_curate
    return events


@given(case=curation_streams())
# A grown buffer must not keep ranking from the smaller top-k.
@example(case=_case([0, 0, 0, 1, 1, 2, 3, 4] + [5] * 8, 2, 8, 8, 4))
# Ties at the cut go to the row seen first, not the lower address.
@example(case=_case([0, 1, 1, 0], 1, 2, 4, 1, addresses=[128, 64]))
# Several curations inside one accumulation.
@example(case=_case([0, 1, 2, 0, 1, 3, 0, 4, 0, 2, 5, 0], 2, 2, 12, 2, sizes=(12,)))
@settings(max_examples=300, deadline=None)
def test_incremental_curation_matches_the_rescan(case):
    """Scalar lookups and the switch kernel's accumulations curate exactly as
    ``most_common`` + heap rebuild, under HTR, LRU and FIFO."""
    _replay(case)


@pytest.mark.parametrize("policy", ["htr", "lru", "fifo"])
def test_accumulations_straddle_curations_repeat_rows_and_refuse_inserts(policy):
    """The kernel path is pinned where it differs from one probe per call."""
    rows = [0, 0, 0, 1, 1, 2, 3, 0, 4, 5, 5, 0, 1, 6, 6, 7, 0, 2, 2, 8]
    events = _replay(_case(rows, 3, 5, len(rows), 3, policy=policy, sizes=(4, 7, 3)))
    assert "repeat" in events
    if policy == "htr":
        assert events == {"straddle", "repeat", "refused"}


def test_vector_session_matches_a_rescan_buffer():
    """A pifs-rec vector session over the rescan oracle returns the same result."""
    model = replace(scaled_model(RMC1, 4096 / RMC1.num_embeddings), num_tables=4)
    workload = build_workload(
        WorkloadConfig(model=model, batch_size=64, num_batches=2, pooling_factor=40, seed=3)
    )
    buffer = BufferConfig(capacity_bytes=32 * model.embedding_row_bytes, htr_interval=128)
    config = replace(
        DEFAULT_SYSTEM,
        local_dram_capacity_bytes=workload.address_space.total_bytes // 4,
        pifs=replace(DEFAULT_SYSTEM.pifs, on_switch_buffer=buffer),
    )

    def rescan(system):
        for switch in system.backends.switches:
            switch.buffer = RescanBuffer(switch.buffer.config, model.embedding_row_bytes)

    plain = create_system("pifs-rec", config).set_engine("vector")
    oracle = create_system("pifs-rec", config).set_engine("vector").set_session_mutators([rescan])
    expected = oracle.run(workload)
    result = plain.run(workload)
    assert result.to_dict() == expected.to_dict()
    buffers = [switch.buffer for switch in oracle.backends.switches]
    assert all(isinstance(b, RescanBuffer) for b in buffers)
    assert sum(b.evictions for b in buffers) > 0
    assert sum(b.hits + b.misses for b in buffers) > 20 * buffer.htr_interval


class _MeteredDict(dict):
    """A dict that records the keys read from it and the entries walked over."""

    keyed = set()
    walked = 0

    def __getitem__(self, key):
        _MeteredDict.keyed.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        _MeteredDict.keyed.add(key)
        return super().get(key, default)

    def __iter__(self):
        for key in super().__iter__():
            _MeteredDict.walked += 1
            yield key

    def __reversed__(self):
        for key in super().__reversed__():
            _MeteredDict.walked += 1
            yield key


def _metered_curation(buffer_cls):
    """What one curation reads of the count and rank maps after 20,000 rows.

    Returns the rows it read by key, the entries it walked, the distinct
    rows probed since the previous curation and the rows first counted
    since then.
    """
    capacity, interval = 16, 50
    buffer = _htr(buffer_cls, capacity, interval)
    buffer._counts = _MeteredDict()
    buffer._first_seen = _MeteredDict()
    rows = (np.random.default_rng(5).zipf(1.3, size=20_000 + interval) % 20_000).tolist()
    for row in rows[:20_000]:
        if not buffer.lookup(row * ROW_BYTES):
            buffer.insert(row * ROW_BYTES)
    assert buffer._accesses_since_curate == 0  # a curation just ran
    assert len(buffer._counts) > 100 * capacity
    counted = len(buffer._counts)
    last = rows[20_000:]
    meters = []
    curate = buffer._curate

    def metered():
        _MeteredDict.keyed = set()
        _MeteredDict.walked = 0
        flags = buffer._flags
        curate()
        meters.append((len(_MeteredDict.keyed), _MeteredDict.walked))
        # The per-rank flag column is reused, not rebuilt per curation,
        # unless the new rows outgrow it, and it is left clear.
        assert buffer._flags is flags or len(buffer._by_rank) > len(flags)
        assert not buffer._flags.any()

    buffer._curate = metered
    for row in last:
        if not buffer.lookup(row * ROW_BYTES):
            buffer.insert(row * ROW_BYTES)
    assert len(meters) == 1
    keyed, walked = meters[0]
    return keyed, walked, len(set(last)), len(buffer._counts) - counted


def test_curation_keys_the_touched_rows_and_walks_the_new_tail():
    """After N >> capacity rows, one curation keys at most the rows probed
    since the previous one plus the capacity, extends first-seen ranks
    over the counter's new tail only and reuses its per-rank flag column
    (counted, not timed)."""
    keyed, walked, touched, new = _metered_curation(OnSwitchBuffer)
    assert keyed <= touched + 16
    assert walked <= new
    # The meter sees a full rescan: most_common reads every counted row.
    keyed, walked, touched, new = _metered_curation(RescanBuffer)
    assert keyed > 10 * (touched + 16)


def test_counts_past_the_packed_key_are_refused():
    """A count of 2**31 would wrap the packed sort key: curation refuses it."""
    buffer = _htr(OnSwitchBuffer, 1, 12)
    for _ in range(11):
        buffer.lookup(0)
    buffer._counts[0] = 1 << 31
    with pytest.raises(OverflowError):
        buffer.lookup(0)  # the twelfth probe curates


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
