"""One workload contract: every source is windows of bags.

Each workload source — synthetic generators eager and streamed, trace
files of both formats, drift, the multi-tenant mixes, the PIFS runtime and
fleet shard views over eager and streamed bases — provides only its bags;
every derived member (the requests window by window, the address arrays,
the counts, the unique pages) comes from the one definition in
``repro.traces.workload``.  This file checks each member of each source
against the per-bag reference loop of ``test_stream.py``.
"""

from itertools import chain

import numpy as np
import pytest

from repro.config import WorkloadConfig
from repro.fleet.router import HashRouter, PowerOfTwoRouter, TableAffinityRouter, request_keys
from repro.fleet.shard import shard_views
from repro.memsys.address_space import AddressSpace
from repro.pifs.runtime import PIFSRuntime
from repro.scenarios import scenario
from repro.traces.drift import build_drifting_workload, generate_drifting_trace
from repro.traces.files import (
    load_criteo_tsv,
    save_criteo_tsv,
    save_trace,
    workload_from_trace,
)
from repro.traces.meta import TraceBatch, generate_meta_like_trace
from repro.traces.stream import MemoryBatchStream
from repro.traces.workload import (
    SLSRequest,
    StreamingWorkload,
    build_workload,
    workload_from_batches,
)
from test_stream import MODEL, assert_requests_equal, random_batches, reference_requests

EMPTY = np.zeros(0, dtype=np.int64)
CONFIG = WorkloadConfig(model=MODEL, batch_size=5, num_batches=4, pooling_factor=3, seed=11)
ROUTERS = (TableAffinityRouter(), HashRouter(seed=3), PowerOfTwoRouter(seed=5))


def assert_contract(workload, expected):
    """Every derived member of ``workload`` agrees with the reference requests."""
    expected = list(expected)
    assert_requests_equal(expected, chain(*workload.iter_windows()))
    assert_requests_equal(expected, iter(workload))
    assert len(workload) == workload.num_requests == len(expected)
    assert workload.total_lookups == sum(request.num_candidates for request in expected)
    assert workload.total_bytes == sum(request.bytes_accessed for request in expected)
    addresses = np.concatenate([request.addresses for request in expected] or [EMPTY])
    streamed = list(workload.iter_address_arrays())
    assert np.array_equal(np.concatenate(streamed or [EMPTY]), addresses)
    page_size = workload.address_space.page_size
    assert workload.unique_pages() == len(set((addresses // page_size).tolist()))
    assert workload.working_set_bytes == workload.address_space.total_bytes


# ---------------------------------------------------------------------------
# Sources: each returns (workload, reference requests)
# ---------------------------------------------------------------------------
def _synthetic(streaming, window_batches=1):
    def build(tmp_path):
        workload = build_workload(
            CONFIG, num_hosts=2, streaming=streaming, window_batches=window_batches
        )
        return workload, reference_requests(generate_meta_like_trace(CONFIG), 2)

    return build


def _npz(streaming):
    def build(tmp_path):
        batches = random_batches(7, 5, 3, 4, 3)
        path = save_trace(batches, tmp_path / "trace.npz")
        workload = workload_from_trace(
            path, MODEL, num_hosts=3, streaming=streaming, window_batches=2
        )
        return workload, reference_requests(batches, 3)

    return build


def _tsv(streaming):
    def build(tmp_path):
        batches = [
            TraceBatch(
                [np.arange(6, dtype=np.int64) * 7 + table for table in range(2)],
                [np.arange(6, dtype=np.int64)] * 2,
            )
            for _ in range(3)
        ]
        path = save_criteo_tsv(batches, tmp_path / "trace.tsv")
        workload = workload_from_trace(
            path, MODEL, batch_size=4, num_hosts=2, streaming=streaming, window_batches=2
        )
        return workload, reference_requests(load_criteo_tsv(path, batch_size=4), 2)

    return build


def _drift(tmp_path):
    workload = build_drifting_workload(CONFIG, period_batches=2, num_hosts=2)
    return workload, reference_requests(generate_drifting_trace(CONFIG, period_batches=2), 2)


def _tenants(name):
    def build(tmp_path):
        spec = scenario(name).simulation(quick=True).spec()
        provider = spec.workload_provider
        model = provider.combined_model(spec)
        expected = reference_requests(provider.batches(spec), provider.total_hosts, model)
        return provider.build(spec), expected

    return build


def runtime_reference(model, handles, indices_per_table, offsets_per_table):
    """The runtime's former per-row request loop, kept as the reference."""
    space = AddressSpace.for_model(model)
    requests = []
    for handle, indices, offsets in zip(handles, indices_per_table, offsets_per_table):
        idx = np.asarray(indices, dtype=np.int64)
        offs = np.asarray(offsets, dtype=np.int64)
        bounds = np.concatenate([offs, [len(idx)]])
        for sample in range(len(offs)):
            rows = idx[int(bounds[sample]) : int(bounds[sample + 1])]
            if len(rows) == 0:
                continue
            addresses = np.array([space.row_address(handle, int(r)) for r in rows], dtype=np.int64)
            requests.append(SLSRequest(
                request_id=len(requests), host_id=0, table=handle, sample=sample,
                rows=rows, addresses=addresses, row_bytes=model.embedding_row_bytes,
            ))
    return requests


def _runtime(tmp_path):
    """Out-of-order and repeated table handles, an empty bag included."""
    runtime = PIFSRuntime(seed=0)
    for rows in (500, 300, 400):
        runtime.allocate_embedding_table(num_embeddings=rows, embedding_dim=16)
    rng = np.random.default_rng(3)
    handles = [2, 0, 2, 1]
    indices = [rng.integers(0, 300, size=size) for size in (12, 7, 9, 4)]
    offsets = [[0, 3, 3, 8], [0, 2, 2, 5], [0, 4, 9, 9], [0, 1, 2, 3]]
    workload = runtime._workload(handles, indices, offsets)
    return workload, runtime_reference(workload.model, handles, indices, offsets)


SOURCES = {
    "eager": _synthetic(False),
    "streamed-w1": _synthetic(True, 1),
    "streamed-w3": _synthetic(True, 3),
    "npz-eager": _npz(False),
    "npz-streamed": _npz(True),
    "tsv-eager": _tsv(False),
    "tsv-streamed": _tsv(True),
    "drift": _drift,
    "tenant-mix": _tenants("tenant-mix"),
    "tenant-quad": _tenants("tenant-quad"),
    "priority-inversion": _tenants("priority-inversion"),
    "runtime": _runtime,
}


@pytest.mark.parametrize("source", list(SOURCES))
def test_every_source_derives_its_members_from_its_bags(source, tmp_path):
    workload, expected = SOURCES[source](tmp_path)
    assert expected, "the source yields no request"
    assert_contract(workload, expected)


def test_runtime_simulates_the_contract_workload():
    """``sls_multi`` times exactly the workload the contract derives."""
    runtime = PIFSRuntime(seed=0)
    for _ in range(2):
        runtime.allocate_embedding_table(num_embeddings=64, embedding_dim=8)
    call = ([1, 0, 1], [[3, 4, 5], [0, 1], [9]], [[0, 2], [0, 1], [0, 1]])
    result = runtime.sls_multi(*call)
    workload = runtime._workload(*call)
    assert (result.sim.requests, result.sim.lookups) == (len(workload), workload.total_lookups)
    assert result.values.shape == (2, 3, 8)


# ---------------------------------------------------------------------------
# Shard views: the base's bags masked by one route per window
# ---------------------------------------------------------------------------
def _bases():
    batches = random_batches(21, 5, 3, 4, 3)
    eager = workload_from_batches(batches, MODEL, num_hosts=2)
    streamed = StreamingWorkload(
        MemoryBatchStream(batches), MODEL, num_hosts=2, window_batches=2
    )
    return reference_requests(batches, 2), {"eager": eager, "streamed": streamed}


@pytest.mark.parametrize("router", ROUTERS, ids=lambda router: router.policy)
@pytest.mark.parametrize("base_kind", ["eager", "streamed"])
def test_shard_views_follow_the_contract_and_partition_the_base(base_kind, router):
    reference, bases = _bases()
    base = bases[base_kind]
    bound = router.bind(3, MODEL.num_tables)
    shards = bound.route(*request_keys(reference)).tolist()
    union = []
    for view in shard_views(base, router, 3):
        expected = [r for r, shard in zip(reference, shards) if shard == view.shard]
        assert_contract(view, expected)
        union.extend(view)
    ids = [request.request_id for request in union]
    assert len(ids) == len(set(ids)), "a request landed on two shards"
    union.sort(key=lambda request: request.request_id)
    assert_requests_equal(reference, union)


def test_a_batch_outside_the_host_range_fails_with_the_range():
    batch = TraceBatch([np.arange(4, dtype=np.int64)], [np.array([0, 2])], hosts=(1, 2))
    with pytest.raises(ValueError, match=r"host range \(first_host=1, host_count=2\)"):
        workload_from_batches([batch], MODEL, num_hosts=2)
    workload = workload_from_batches([batch], MODEL, num_hosts=3)
    assert [request.host_id for request in workload] == [1, 2]
