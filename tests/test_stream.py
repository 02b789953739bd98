"""Streaming ≡ eager: property tests for the out-of-core trace path.

The streaming workload promises *bit-identical reconstruction*: whatever
trace batches go in — random bag boundaries, empty bags, any window size
(including 1 and larger than the whole trace), either on-disk format —
the lazily flattened request stream must equal the eager one element for
element.  Hypothesis drives the shapes so the identity is a property of
the flattening code, not of one golden trace.
"""

import pickle
from itertools import chain, zip_longest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import RMC1, WorkloadConfig, scaled_model
from repro.memsys.address_space import AddressSpace
from repro.fleet.router import _request_key
from repro.traces.files import save_criteo_tsv, save_trace, workload_from_trace
from repro.traces.meta import TraceBatch
from repro.traces.stream import (
    DEFAULT_WINDOW_BATCHES,
    MemoryBatchStream,
    NpzBatchStream,
    SyntheticBatchStream,
    TsvBatchStream,
)
from repro.traces.workload import (
    SLSRequest,
    StreamingWorkload,
    build_workload,
    workload_from_batches,
)

MODEL = scaled_model(RMC1, 256 / RMC1.num_embeddings)


# ---------------------------------------------------------------------------
# Random traces: arbitrary bag boundaries, empty bags included
# ---------------------------------------------------------------------------
def random_batches(seed, num_batches, num_tables, batch_size, max_pool):
    """Random batches with jagged bags — empty bags and pool-size spread."""
    rng = np.random.default_rng(seed)
    batches = []
    for _ in range(num_batches):
        indices_per_table, offsets_per_table = [], []
        for _ in range(num_tables):
            pools = rng.integers(0, max_pool + 1, size=batch_size)
            offsets = np.concatenate([[0], np.cumsum(pools)[:-1]]).astype(np.int64)
            indices = rng.integers(
                0, MODEL.num_embeddings, size=int(pools.sum()), dtype=np.int64
            )
            indices_per_table.append(indices)
            offsets_per_table.append(offsets)
        batches.append(
            TraceBatch(
                indices_per_table=indices_per_table,
                offsets_per_table=offsets_per_table,
            )
        )
    return batches


def reference_requests(batches, num_hosts=1):
    """The bag rule as a plain per-bag loop, kept here as the reference.

    Bag ``s`` of a (batch, table) runs from ``offsets[s]`` to the next
    offset, the last one to the end of the indices; empty bags get no id;
    bag ``s`` goes to host ``s % num_hosts``; addresses come from the
    scalar ``row_address``.
    """
    space = AddressSpace.for_model(MODEL)
    requests = []
    for batch in batches:
        for table in range(batch.num_tables):
            indices = np.asarray(batch.indices_per_table[table], dtype=np.int64)
            bounds = [int(offset) for offset in batch.offsets_per_table[table]] + [len(indices)]
            for sample in range(len(bounds) - 1):
                rows = indices[bounds[sample]:bounds[sample + 1]]
                if len(rows) == 0:
                    continue
                addresses = [space.row_address(table, int(row)) for row in rows]
                requests.append(SLSRequest(
                    request_id=len(requests),
                    host_id=sample % num_hosts,
                    table=table,
                    sample=sample,
                    rows=rows,
                    addresses=np.array(addresses, dtype=np.int64),
                    row_bytes=MODEL.embedding_row_bytes,
                ))
    return requests


def assert_requests_equal(eager_requests, streamed_requests):
    """Element-for-element equality, array contents included."""
    for eager, streamed in zip_longest(eager_requests, streamed_requests):
        assert eager is not None and streamed is not None, "length mismatch"
        assert eager.request_id == streamed.request_id
        assert eager.host_id == streamed.host_id
        assert eager.table == streamed.table
        assert eager.sample == streamed.sample
        assert eager.row_bytes == streamed.row_bytes
        assert np.array_equal(eager.rows, streamed.rows)
        assert np.array_equal(eager.addresses, streamed.addresses)


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    num_batches=st.integers(min_value=1, max_value=6),
    num_tables=st.integers(min_value=1, max_value=3),
    batch_size=st.integers(min_value=1, max_value=5),
    max_pool=st.integers(min_value=0, max_value=4),
    window_batches=st.integers(min_value=1, max_value=8),
    num_hosts=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=40, deadline=None)
def test_streaming_reconstruction_is_bit_identical(
    seed, num_batches, num_tables, batch_size, max_pool, window_batches, num_hosts
):
    """The core property: any trace, any window size (1 .. > trace length),
    any host fan-out — ``chain(*iter_windows())`` equals the eager list."""
    batches = random_batches(seed, num_batches, num_tables, batch_size, max_pool)
    eager = workload_from_batches(batches, MODEL, num_hosts=num_hosts)
    streaming = StreamingWorkload(
        MemoryBatchStream(batches),
        MODEL,
        num_hosts=num_hosts,
        window_batches=window_batches,
    )
    assert_requests_equal(reference_requests(batches, num_hosts), eager.requests)
    assert_requests_equal(eager.requests, chain(*streaming.iter_windows()))
    # Aggregates agree without materializing a single request.
    assert len(streaming) == len(eager.requests)
    assert streaming.total_lookups == eager.total_lookups
    assert streaming.total_bytes == eager.total_bytes
    assert streaming.unique_pages() == eager.unique_pages()
    # The profiling pass sees the eager addresses, in order.
    streamed_addresses = list(streaming.iter_address_arrays())
    eager_addresses = list(eager.iter_address_arrays())
    assert len(streamed_addresses) <= num_batches
    assert np.array_equal(
        np.concatenate(streamed_addresses or [np.zeros(0, dtype=np.int64)]),
        np.concatenate(eager_addresses or [np.zeros(0, dtype=np.int64)]),
    )


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    num_batches=st.integers(min_value=1, max_value=6),
    num_tables=st.integers(min_value=1, max_value=3),
    batch_size=st.integers(min_value=1, max_value=5),
    max_pool=st.integers(min_value=0, max_value=4),
    window_batches=st.integers(min_value=1, max_value=8),
    num_hosts=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=40, deadline=None)
def test_bag_windows_rebuild_the_request_windows(
    seed, num_batches, num_tables, batch_size, max_pool, window_batches, num_hosts
):
    """iter_bags() holds each window's bags as columns: their keys, their
    addresses and the requests rebuilt from any subset of them equal what
    the reference per-bag loop builds for that window's batches."""
    batches = random_batches(seed, num_batches, num_tables, batch_size, max_pool)
    streaming = StreamingWorkload(
        MemoryBatchStream(batches), MODEL, num_hosts=num_hosts, window_batches=window_batches
    )
    space, row_bytes = streaming.address_space, MODEL.embedding_row_bytes
    reference = reference_requests(batches, num_hosts)
    window_ends = [
        len(reference_requests(batches[:end], num_hosts))
        for end in range(window_batches, num_batches + window_batches, window_batches)
    ]
    windows = [reference[begin:end] for begin, end in zip([0] + window_ends, window_ends)]
    assert [len(window) for window in streaming.iter_windows()] == [len(w) for w in windows]
    keep = np.random.default_rng(seed)
    for bags, window in zip_longest(streaming.iter_bags(), windows):
        assert bags is not None and window is not None, "window count mismatch"
        assert_requests_equal(window, bags.requests(space, row_bytes))
        keys = list(zip(*(column.tolist() for column in bags.keys())))
        assert keys == [_request_key(request) for request in window]
        if window:
            assert np.array_equal(
                bags.addresses(space), np.concatenate([r.addresses for r in window])
            )
        mask = keep.random(len(bags)) < 0.5
        kept = [request for request, kept in zip(window, mask.tolist()) if kept]
        assert_requests_equal(kept, bags.take(mask).requests(space, row_bytes))


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    window_batches=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=15, deadline=None)
def test_windows_partition_the_stream(seed, window_batches):
    """windows() is a pure grouping: concatenation restores the batch list,
    every window is full except possibly the last."""
    batches = random_batches(seed, 5, 2, 3, 3)
    stream = MemoryBatchStream(batches)
    windows = list(stream.windows(window_batches))
    assert [b for w in windows for b in w] == batches
    assert all(len(w) == window_batches for w in windows[:-1])
    if windows:
        assert 1 <= len(windows[-1]) <= window_batches


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=10, deadline=None)
def test_streams_are_reiterable(seed):
    """Two passes over one stream observe identical batches (profiling pass
    + replay pass + verification pass all see the same trace)."""
    config = WorkloadConfig(model=MODEL, batch_size=3, num_batches=2, seed=seed)
    stream = SyntheticBatchStream(config)
    first, second = list(stream), list(stream)
    assert len(first) == len(second) > 0
    for a, b in zip(first, second):
        for t in range(a.num_tables):
            assert np.array_equal(a.indices_per_table[t], b.indices_per_table[t])
            assert np.array_equal(a.offsets_per_table[t], b.offsets_per_table[t])


# ---------------------------------------------------------------------------
# On-disk round trips: npz and TSV streamed vs loaded whole
# ---------------------------------------------------------------------------
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    window_batches=st.sampled_from([1, 3, DEFAULT_WINDOW_BATCHES]),
)
@settings(max_examples=10, deadline=None)
def test_npz_streamed_equals_eager(seed, window_batches, tmp_path_factory):
    batches = random_batches(seed, 4, 2, 3, 3)
    path = tmp_path_factory.mktemp("npz") / "trace.npz"
    save_trace(batches, path)
    eager = workload_from_trace(path, MODEL)
    streamed = workload_from_trace(
        path, MODEL, streaming=True, window_batches=window_batches
    )
    assert streamed.streaming and isinstance(streamed.stream, NpzBatchStream)
    assert_requests_equal(eager.requests, iter(streamed))


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    batch_size=st.integers(min_value=1, max_value=7),
    window_batches=st.sampled_from([1, 2, DEFAULT_WINDOW_BATCHES]),
)
@settings(max_examples=10, deadline=None)
def test_tsv_streamed_equals_eager(seed, batch_size, window_batches, tmp_path_factory):
    # TSV is single-lookup-per-bag by format; vary the batch regrouping.
    batches = random_batches(seed, 3, 2, 4, 1)
    single = [
        TraceBatch(
            indices_per_table=b.indices_per_table,
            offsets_per_table=[
                np.arange(len(idx), dtype=np.int64) for idx in b.indices_per_table
            ],
        )
        for b in batches
        if all(len(idx) == b.batch_size for idx in b.indices_per_table)
    ]
    if not single:  # degenerate draw: no expressible batch
        return
    path = tmp_path_factory.mktemp("tsv") / "trace.tsv"
    save_criteo_tsv(single, path)
    eager = workload_from_trace(path, MODEL, batch_size=batch_size)
    streamed = workload_from_trace(
        path, MODEL, batch_size=batch_size, streaming=True,
        window_batches=window_batches,
    )
    assert isinstance(streamed.stream, TsvBatchStream)
    assert_requests_equal(eager.requests, iter(streamed))


# ---------------------------------------------------------------------------
# The streaming container's contract
# ---------------------------------------------------------------------------
class TestStreamingWorkloadContract:
    def test_requests_attribute_refuses(self):
        streaming = build_workload(
            WorkloadConfig(model=MODEL, batch_size=2, num_batches=1, seed=1),
            streaming=True,
        )
        with pytest.raises(AttributeError, match="no materialized request list"):
            streaming.requests

    def test_synthetic_streaming_equals_eager(self):
        config = WorkloadConfig(
            model=MODEL, batch_size=4, num_batches=3, pooling_factor=6, seed=9
        )
        eager = build_workload(config, num_hosts=2)
        streaming = build_workload(config, num_hosts=2, streaming=True)
        assert_requests_equal(eager.requests, iter(streaming))
        assert_requests_equal(eager.requests, streaming.materialize().requests)

    def test_window_larger_than_trace(self):
        config = WorkloadConfig(model=MODEL, batch_size=2, num_batches=2, seed=3)
        eager = build_workload(config)
        streaming = build_workload(config, streaming=True, window_batches=10_000)
        windows = list(streaming.iter_windows())
        assert len(windows) == 1  # everything fits one window
        assert_requests_equal(eager.requests, windows[0])

    def test_invalid_window_rejected(self):
        config = WorkloadConfig(model=MODEL, batch_size=2, num_batches=1, seed=1)
        with pytest.raises(ValueError, match="window_batches must be positive"):
            build_workload(config, streaming=True, window_batches=0)
        streaming = build_workload(config, streaming=True)
        with pytest.raises(ValueError, match="window_batches must be positive"):
            next(streaming.iter_windows(0))

    def test_pickles_as_a_handle(self, tmp_path):
        """Sweep workers receive path + params, not megabytes of arrays."""
        batches = random_batches(5, 3, 2, 3, 2)
        path = save_trace(batches, tmp_path / "trace.npz")
        streaming = workload_from_trace(path, MODEL, streaming=True)
        clone = pickle.loads(pickle.dumps(streaming))
        assert clone.stream.path == streaming.stream.path
        assert_requests_equal(iter(streaming), iter(clone))
        # The handle is small: no batch arrays ride along.
        assert len(pickle.dumps(streaming)) < 4096
