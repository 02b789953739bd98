"""SLS workload container consumed by every simulated system."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, List, Optional, Union

import numpy as np

from repro.config import ModelConfig, WorkloadConfig
from repro.memsys.address_space import AddressSpace
from repro.traces.meta import TraceBatch, generate_meta_like_trace
from repro.traces.stream import (
    DEFAULT_WINDOW_BATCHES,
    BatchStream,
    SyntheticBatchStream,
    as_batch_stream,
)
from repro.traces.synthetic import TraceDistribution


@dataclass
class SLSRequest:
    """One row-accumulation request: sum ``rows`` of ``table`` into one vector.

    This is the unit of work the host hands to the SLS engine (one bag of one
    sample on one table).  ``addresses`` are the byte addresses of every row
    candidate in the shared embedding address space.
    """

    request_id: int
    host_id: int
    table: int
    sample: int
    rows: np.ndarray
    addresses: np.ndarray
    row_bytes: int

    @property
    def num_candidates(self) -> int:
        return len(self.rows)

    @property
    def bytes_accessed(self) -> int:
        return self.num_candidates * self.row_bytes


@dataclass
class SLSWorkload:
    """A full SLS workload: requests plus the address space they live in.

    ``trace`` holds the per-batch (indices, offsets) arrays the requests
    were flattened from, when known — it is what the trace-file export
    (:func:`repro.traces.files.save_workload_trace`) writes, enabling a
    bit-identical save → load → rebuild round trip.  Workloads assembled
    directly from requests (e.g. multi-tenant mixes) carry ``None``.
    """

    model: ModelConfig
    address_space: AddressSpace
    requests: List[SLSRequest]
    batch_size: int
    num_batches: int
    distribution: str
    trace: Optional[List[TraceBatch]] = None

    #: Eager workloads hold every request resident (duck-typed marker, see
    #: :class:`StreamingWorkload`).
    streaming = False

    def __iter__(self) -> Iterator[SLSRequest]:
        return iter(self.requests)

    def iter_windows(self) -> Iterator[List[SLSRequest]]:
        """The whole request list as one window (the :class:`StreamingWorkload` contract)."""
        yield self.requests

    def iter_address_arrays(self) -> Iterator[np.ndarray]:
        """Every request's addresses, concatenated in request order, as one array."""
        if self.requests:
            yield np.concatenate([request.addresses for request in self.requests])

    def __len__(self) -> int:
        return len(self.requests)

    def __getstate__(self):
        """Pickle without the source trace batches.

        In memory ``trace`` is nearly free (the requests' arrays are views
        into the same buffers), but pickling materializes every view — a
        workload shipped to a sweep worker would carry each index twice.
        The simulation never reads ``trace``; it exists for the in-process
        export path, so it stays on this side of the boundary.
        """
        state = self.__dict__.copy()
        state["trace"] = None
        return state

    # ``total_lookups``/``total_bytes`` are summed once and cached: requests
    # are immutable after construction and the online serving loop reads
    # these per-tick, so recomputing the full sums on every access would put
    # an O(requests) walk on the serving hot path.
    @cached_property
    def total_lookups(self) -> int:
        return int(sum(r.num_candidates for r in self.requests))

    @cached_property
    def total_bytes(self) -> int:
        return int(sum(r.bytes_accessed for r in self.requests))

    @property
    def working_set_bytes(self) -> int:
        return self.address_space.total_bytes

    def unique_pages(self) -> int:
        if not self.requests:
            return 0
        page_size = self.address_space.page_size
        addresses = np.concatenate([request.addresses for request in self.requests])
        return int(np.unique(addresses // page_size).size)


def flatten_table_bags(
    requests: List[SLSRequest],
    request_id: int,
    table: int,
    indices: np.ndarray,
    offsets: np.ndarray,
    table_addresses: np.ndarray,
    row_bytes: int,
    host_of_sample: Callable[[int], int],
) -> int:
    """Append one :class:`SLSRequest` per non-empty bag of one (batch, table).

    The single bag-flattening loop every workload source shares —
    :func:`workload_from_batches` and the multi-tenant provider both
    delegate here, so bag semantics (bounds, empty-bag skip, address
    views) cannot drift between them.  ``host_of_sample`` maps a sample
    index to its issuing host; returns the next free request id.
    """
    bounds = np.concatenate([offsets, [len(indices)]])
    for sample in range(len(offsets)):
        start, end = int(bounds[sample]), int(bounds[sample + 1])
        rows = indices[start:end]
        if len(rows) == 0:
            continue
        requests.append(
            SLSRequest(
                request_id=request_id,
                host_id=host_of_sample(sample),
                table=table,
                sample=sample,
                rows=rows,
                addresses=table_addresses[start:end],
                row_bytes=row_bytes,
            )
        )
        request_id += 1
    return request_id


def workload_from_batches(
    batches: List[TraceBatch],
    model: ModelConfig,
    *,
    distribution: str = "file",
    batch_size: Optional[int] = None,
    num_batches: Optional[int] = None,
    host_id: int = 0,
    num_hosts: int = 1,
    space: Optional[AddressSpace] = None,
) -> SLSWorkload:
    """Flatten trace batches into an :class:`SLSWorkload`.

    The shared request-construction path behind every workload source:
    synthetic generators (:func:`build_workload`), trace files
    (:mod:`repro.traces.files`) and the drifting-popularity generator all
    produce :class:`~repro.traces.meta.TraceBatch` lists and meet here, so
    a trace exported to disk and re-loaded rebuilds the *identical*
    request stream.  When ``num_hosts`` is greater than one, requests are
    assigned to hosts round-robin by sample, matching the paper's
    multi-host experiments where concurrent hosts issue batches against
    the same tables.
    """
    space = space or AddressSpace.for_model(model)
    row_bytes = model.embedding_row_bytes
    hosts = max(1, num_hosts)

    def host_of_sample(sample: int) -> int:
        return (host_id + sample) % hosts

    requests: List[SLSRequest] = []
    request_id = 0
    for batch in batches:
        for table in range(batch.num_tables):
            indices = batch.indices_per_table[table].astype(np.int64)
            offsets = batch.offsets_per_table[table]
            # One vectorized address computation per (batch, table); the
            # per-bag arrays are views into it.
            table_addresses = space.row_addresses(table, indices)
            request_id = flatten_table_bags(
                requests, request_id, table, indices, offsets,
                table_addresses, row_bytes, host_of_sample,
            )
    return SLSWorkload(
        model=model,
        address_space=space,
        requests=requests,
        batch_size=(batches[0].batch_size if batches else 0) if batch_size is None else batch_size,
        num_batches=len(batches) if num_batches is None else num_batches,
        distribution=distribution,
        trace=list(batches),
    )


class StreamingWorkload:
    """An out-of-core workload: batch windows flattened on demand.

    The streaming twin of :class:`SLSWorkload`.  Instead of a materialized
    request list it holds a re-iterable :class:`~repro.traces.stream.BatchStream`
    and flattens one *window* (``window_batches`` trace batches) of
    :class:`SLSRequest` objects at a time — through the exact
    :func:`flatten_table_bags` path the eager constructor uses, with the
    same sequential request ids and the same round-robin host assignment,
    so the reconstructed request stream is bit-identical to the eager
    workload built from the same batches.  Only the active window is
    resident; everything that needs whole-trace aggregates
    (``num_requests``, ``total_lookups``) comes from one cheap batch-level
    counting pass over the stream.

    Pickles as a small handle (the stream's path + decode parameters plus
    the model/space configs), which is what sweep workers receive instead
    of materialized workloads.
    """

    streaming = True

    def __init__(
        self,
        stream: Union[BatchStream, List[TraceBatch]],
        model: ModelConfig,
        *,
        distribution: str = "file",
        batch_size: Optional[int] = None,
        num_batches: Optional[int] = None,
        host_id: int = 0,
        num_hosts: int = 1,
        space: Optional[AddressSpace] = None,
        window_batches: int = DEFAULT_WINDOW_BATCHES,
    ) -> None:
        if window_batches <= 0:
            raise ValueError("window_batches must be positive")
        self.stream = as_batch_stream(stream)
        self.model = model
        self.address_space = space or AddressSpace.for_model(model)
        self.distribution = distribution
        self.host_id = host_id
        self.num_hosts = max(1, num_hosts)
        self.window_batches = window_batches
        self._batch_size = batch_size
        self._num_batches = num_batches
        self._scan: Optional[dict] = None

    # ------------------------------------------------------------------
    # Whole-trace aggregates (one batch-level pass, cached)
    # ------------------------------------------------------------------
    def _scanned(self) -> dict:
        """Count requests/lookups without flattening any request objects."""
        if self._scan is None:
            num_requests = 0
            total_lookups = 0
            num_batches = 0
            batch_size = 0
            for batch in self.stream:
                if num_batches == 0:
                    batch_size = batch.batch_size
                num_batches += 1
                for table in range(batch.num_tables):
                    indices = batch.indices_per_table[table]
                    offsets = np.asarray(batch.offsets_per_table[table])
                    bounds = np.concatenate([offsets, [len(indices)]])
                    num_requests += int(np.count_nonzero(np.diff(bounds)))
                    total_lookups += int(len(indices))
            self._scan = {
                "num_requests": num_requests,
                "total_lookups": total_lookups,
                "num_batches": num_batches,
                "batch_size": batch_size,
            }
        return self._scan

    @property
    def num_requests(self) -> int:
        return self._scanned()["num_requests"]

    @property
    def total_lookups(self) -> int:
        return self._scanned()["total_lookups"]

    @property
    def total_bytes(self) -> int:
        # Row size is uniform across tables, so bytes = lookups x row size
        # exactly as the eager per-request sum.
        return self.total_lookups * self.model.embedding_row_bytes

    @property
    def batch_size(self) -> int:
        if self._batch_size is not None:
            return self._batch_size
        return self._scanned()["batch_size"]

    @property
    def num_batches(self) -> int:
        if self._num_batches is not None:
            return self._num_batches
        return self._scanned()["num_batches"]

    @property
    def working_set_bytes(self) -> int:
        return self.address_space.total_bytes

    @property
    def requests(self):
        raise AttributeError(
            "StreamingWorkload holds no materialized request list; iterate "
            "the workload (or iter_windows()) instead, or call materialize()"
        )

    def __len__(self) -> int:
        return self.num_requests

    # ------------------------------------------------------------------
    # Lazy request reconstruction
    # ------------------------------------------------------------------
    def _host_of_sample(self) -> Callable[[int], int]:
        host_id, hosts = self.host_id, self.num_hosts

        def host_of_sample(sample: int) -> int:
            return (host_id + sample) % hosts

        return host_of_sample

    def iter_windows(
        self, window_batches: Optional[int] = None
    ) -> Iterator[List[SLSRequest]]:
        """Yield windows of flattened requests, one window resident at a time.

        Request ids run sequentially across windows and hosts are assigned
        by the eager round-robin rule, so ``chain(*iter_windows())``
        reproduces ``materialize().requests`` element for element.
        """
        space = self.address_space
        row_bytes = self.model.embedding_row_bytes
        host_of_sample = self._host_of_sample()
        request_id = 0
        if window_batches is None:
            window_batches = self.window_batches
        for window in self.stream.windows(window_batches):
            requests: List[SLSRequest] = []
            for batch in window:
                for table in range(batch.num_tables):
                    indices = batch.indices_per_table[table].astype(np.int64)
                    offsets = batch.offsets_per_table[table]
                    table_addresses = space.row_addresses(table, indices)
                    request_id = flatten_table_bags(
                        requests, request_id, table, indices, offsets,
                        table_addresses, row_bytes, host_of_sample,
                    )
            yield requests

    def __iter__(self) -> Iterator[SLSRequest]:
        for window in self.iter_windows():
            for request in window:
                yield request

    def iter_address_arrays(self) -> Iterator[np.ndarray]:
        """Per-(batch, table) resolved address arrays, in request order.

        Bags partition each (batch, table) index array completely (offsets
        start at 0, the last bag ends at the array's end), so concatenating
        these arrays equals concatenating the eager per-request address
        arrays — which is what keeps the streaming hotness-profiling pass
        bit-identical to the eager one, insertion order included.
        """
        space = self.address_space
        for batch in self.stream:
            for table in range(batch.num_tables):
                indices = batch.indices_per_table[table].astype(np.int64)
                yield space.row_addresses(table, indices)

    def unique_pages(self) -> int:
        page_size = self.address_space.page_size
        pages: set = set()
        for addresses in self.iter_address_arrays():
            pages.update((addresses // page_size).tolist())
        return len(pages)

    def shard_view(self, router, shard: int, num_shards: int):
        """One shard's view of this workload under a fleet router.

        Returns a :class:`~repro.fleet.shard.ShardWorkload` filtering
        this stream to the requests ``router`` assigns to ``shard`` —
        same global request ids, same O(window) residency, one shared
        stream handle across all shards (the fleet engine's feeding
        mechanism; see :mod:`repro.fleet`).
        """
        from repro.fleet.shard import ShardWorkload

        return ShardWorkload(self, router, shard, num_shards)

    def materialize(self) -> SLSWorkload:
        """Build the equivalent eager :class:`SLSWorkload` (whole trace resident)."""
        return workload_from_batches(
            self.stream.materialize(),
            self.model,
            distribution=self.distribution,
            batch_size=self._batch_size,
            num_batches=self._num_batches,
            host_id=self.host_id,
            num_hosts=self.num_hosts,
            space=self.address_space,
        )


def build_workload(
    config: WorkloadConfig,
    distribution: Optional[str] = None,
    host_id: int = 0,
    num_hosts: int = 1,
    streaming: bool = False,
    window_batches: int = DEFAULT_WINDOW_BATCHES,
) -> Union[SLSWorkload, StreamingWorkload]:
    """Build an :class:`SLSWorkload` from a :class:`~repro.config.WorkloadConfig`.

    Generates the seeded trace batches for the configured distribution and
    flattens them through :func:`workload_from_batches`.  With
    ``streaming=True`` the batches are *not* materialized: the returned
    :class:`StreamingWorkload` drives the seeded generator lazily and
    reconstructs the identical request stream window by window.
    """
    dist_name = distribution or config.distribution
    dist = TraceDistribution.from_name(dist_name)
    if streaming:
        return StreamingWorkload(
            SyntheticBatchStream(config, distribution=dist.value),
            config.model,
            distribution=dist.value,
            batch_size=config.batch_size,
            num_batches=config.num_batches,
            host_id=host_id,
            num_hosts=num_hosts,
            window_batches=window_batches,
        )
    batches: List[TraceBatch] = generate_meta_like_trace(config, distribution=dist)
    return workload_from_batches(
        batches,
        config.model,
        distribution=dist.value,
        batch_size=config.batch_size,
        num_batches=config.num_batches,
        host_id=host_id,
        num_hosts=num_hosts,
    )


__all__ = [
    "SLSRequest",
    "SLSWorkload",
    "StreamingWorkload",
    "build_workload",
    "flatten_table_bags",
    "workload_from_batches",
]
