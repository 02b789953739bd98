"""Bounded-memory regression: streaming residency is O(window), not O(trace).

The out-of-core promise in numbers: flattening a ~1M-request trace through
:meth:`StreamingWorkload.iter_windows` must stay within a fixed allocation
budget that is a small fraction of what the materialized request list
costs (~1 GiB at this scale — the eager twin of the big test is therefore
*skipped*, deliberately).  ``tracemalloc`` measures the peak python-side
allocation delta, which numpy array buffers participate in, so a window
accidentally pinned past its turn (or requests accumulated across
windows) fails loudly here long before a real trace would OOM a host.

The vector engine's resolution state is bounded the same way: one
block of lists per dispatch unit while a session runs, and nothing once
it has finished.
"""

import tracemalloc
from dataclasses import replace
from typing import Tuple

import pytest

from repro.api.registry import create_system
from repro.api.session import Simulation, build_system
from repro.api.session import build_workload as build_spec_workload
from repro.config import DEFAULT_SYSTEM, RMC1, WorkloadConfig, scaled_model
from repro.dram.address_mapping import AddressMapping
from repro.fleet.executor import Fleet
from repro.sls.vector import VectorContext
from repro.traces.workload import build_workload

MiB = 2**20

#: ~1M requests: 3907 batches x 64 samples x 4 tables.
BIG_CONFIG = WorkloadConfig(
    model=replace(scaled_model(RMC1, 4096 / RMC1.num_embeddings), num_tables=4),
    batch_size=64,
    num_batches=3907,
    pooling_factor=4,
    seed=42,
)
BIG_REQUESTS = 3907 * 64 * 4

#: Peak allocation budget for streaming the big trace.  Measured residency
#: is ~17 MiB (one 64-batch window of requests plus generator state); the
#: eager request list costs ~1 GiB, so the budget sits an order of
#: magnitude above noise and two below the failure mode.
BIG_BUDGET_BYTES = 96 * MiB


#: The vector context's per-position lists, all as long as its block.
BLOCK_LISTS = (
    "addr", "lch", "lfb", "lrow", "cch", "cfb", "crow", "local_flags", "row_device",
)


def _traced_deltas(consume) -> Tuple[int, int]:
    """``(peak, held)`` tracemalloc deltas (bytes) over ``consume()``."""
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        consume()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - base, held - base


def _peak_delta(consume) -> int:
    """Peak tracemalloc delta (bytes) over ``consume()``."""
    return _traced_deltas(consume)[0]


@pytest.mark.slow
def test_million_request_stream_holds_memory_budget():
    workload = build_workload(BIG_CONFIG, streaming=True)

    consumed = 0

    def consume():
        nonlocal consumed
        for window in workload.iter_windows():
            consumed += len(window)

    peak = _peak_delta(consume)
    assert consumed == BIG_REQUESTS  # the full ~1M-request trace went by
    assert peak < BIG_BUDGET_BYTES, (
        f"streaming a {consumed:,}-request trace peaked at "
        f"{peak / MiB:.1f} MiB (budget {BIG_BUDGET_BYTES / MiB:.0f} MiB) — "
        "a window is being retained past its turn"
    )


@pytest.mark.skip(
    reason="eager twin of the 1M-request trace materializes ~1 GiB of "
    "request objects by design; the streaming path above is the point"
)
def test_million_request_eager_baseline():  # pragma: no cover
    workload = build_workload(BIG_CONFIG)
    assert len(workload.requests) == BIG_REQUESTS


@pytest.mark.slow
def test_streaming_replay_end_to_end_holds_memory_budget():
    """A full closed-loop engine replay (placement, migration, DRAM models)
    over a streamed trace also stays O(window): the engine must consume
    windows as they come, never a materialized request list."""
    config = replace(BIG_CONFIG, num_batches=98)  # ~25k requests, same shape
    model = config.model
    system_config = replace(
        DEFAULT_SYSTEM,
        local_dram_capacity_bytes=max(8192, model.table_bytes),
        num_cxl_devices=2,
        host_threads=2,
    )
    workload = build_workload(config, streaming=True)
    system = create_system("pifs-rec", system_config).set_engine("vector")

    results = {}

    def consume():
        results["run"] = system.run(workload)

    peak = _peak_delta(consume)
    assert results["run"].total_ns > 0.0
    assert peak < 64 * MiB, (
        f"streaming replay peaked at {peak / MiB:.1f} MiB — the engine is "
        "materializing the trace instead of consuming windows"
    )


def _small_machine(model):
    return replace(
        DEFAULT_SYSTEM,
        local_dram_capacity_bytes=max(8192, model.table_bytes),
        num_cxl_devices=2,
        host_threads=2,
    )


@pytest.mark.slow
def test_eager_vector_replay_holds_one_block_and_releases_it(monkeypatch):
    """An eager vector replay (~440k lookups) resolves one block at a time
    and keeps no resolution state after ``run``.  Whole-unit lists cost
    ~90 MiB at the peak and ~64 MiB still held after the run; one block
    per gather costs ~20 MiB at the peak and ~3 MiB held (page-table,
    buffer and model state that outlive any session)."""
    config = replace(BIG_CONFIG, num_batches=98, pooling_factor=16)
    workload = build_workload(config)
    system = create_system("pifs-rec", _small_machine(config.model)).set_engine("vector")

    longest_list = 0
    ensure_window = VectorContext._ensure_window

    def measured(self, begin, end):
        nonlocal longest_list
        ensure_window(self, begin, end)
        longest_list = max(longest_list, *(len(getattr(self, name)) for name in BLOCK_LISTS))

    monkeypatch.setattr(VectorContext, "_ensure_window", measured)
    results = {}

    def consume():
        results["run"] = system.run(workload)

    peak, held = _traced_deltas(consume)
    assert results["run"].lookups == workload.total_lookups > 400_000
    assert peak < 48 * MiB, (
        f"eager vector replay peaked at {peak / MiB:.1f} MiB — resolution "
        "lists cover more than one block"
    )
    assert held < 16 * MiB, (
        f"{held / MiB:.1f} MiB still held after run — the session's vector "
        "context outlived it"
    )
    assert system._vector is None and system._vector_fallback_reason is None
    longest_request = max(request.num_candidates for request in workload.requests)
    assert 0 < longest_list <= max(VectorContext.NODE_WINDOW, longest_request)


def test_vector_replay_decodes_each_position_once(monkeypatch):
    """A block gathered after a migration starts inside the old block; its
    overlap with the old block carries over instead of being decoded
    again, so the positions decoded equal the lookups replayed."""
    spec = Simulation("pifs-rec").quick().batch_size(64).num_batches(8).engine("vector").spec()
    decode_block = VectorContext._decode_block
    decode_flat_batch = AddressMapping.decode_flat_batch
    decoding = None  # the local mapping of the context inside _decode_block
    decoded = carried = 0

    def counted_block(self, begin, end):
        nonlocal carried, decoding
        # (A context under construction may have no block yet.)
        carried += getattr(self, "_block_start", 0) <= begin < getattr(self, "_block_end", 0)
        decoding = self._local_mapping
        try:
            decode_block(self, begin, end)
        finally:
            decoding = None

    def counted_decode(self, addresses):
        nonlocal decoded
        if self is decoding:
            decoded += len(addresses)
        return decode_flat_batch(self, addresses)

    monkeypatch.setattr(VectorContext, "_decode_block", counted_block)
    monkeypatch.setattr(AddressMapping, "decode_flat_batch", counted_decode)
    result = build_system(spec).run(build_spec_workload(spec))
    assert result.lookups > VectorContext.NODE_WINDOW and result.migrations > 0
    assert carried > 0, "no block started inside the previous one"
    assert decoded == result.lookups


def test_fleet_shards_hold_no_vector_context():
    spec = Simulation("pifs-rec").quick().num_batches(2).engine("vector").fleet(4).spec()
    fleet = Fleet(spec)
    fleet.run(workers=0)
    assert len(fleet.systems) == 4
    for system in fleet.systems:
        assert system._vector is None
        assert system._vector_fallback_reason is None
