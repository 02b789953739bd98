"""SLS workload container consumed by every simulated system."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, List, Optional, Sequence, Tuple, Union

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


@dataclass(frozen=True)
class WindowBags:
    """The non-empty bags of a window of trace batches as columns.

    One entry per bag, in request order (batch, then table, then sample),
    with the global request id and the host it gets.  ``rows`` holds the
    window's indices back to back; bag ``i`` reads ``rows[start[i]:start[i]
    + length[i]]``.  This is the one bag rule: every workload source builds
    its :class:`SLSRequest` objects through :meth:`requests`, so bag
    semantics (bounds, empty-bag skip, ids, hosts) cannot drift between
    sources.  A consumer that keeps only some bags (:meth:`take`, a fleet
    shard view) resolves addresses and builds requests for those alone.
    """

    request_id: np.ndarray
    host: np.ndarray
    table: np.ndarray
    sample: np.ndarray
    start: np.ndarray
    length: np.ndarray
    rows: np.ndarray

    @classmethod
    def of(
        cls, window: Sequence[TraceBatch], first_id: int, host_id: int = 0, num_hosts: int = 1
    ) -> "WindowBags":
        """The bags of one window of trace batches, numbered from ``first_id``.

        Bag ``s`` of a (batch, table) runs from ``offsets[s]`` to the next
        offset, the last one to the end of the indices; empty bags get no
        id; bag ``s`` goes to host ``(host_id + s) % num_hosts``.
        """
        groups = [
            (table, batch.indices_per_table[table], batch.offsets_per_table[table])
            for batch in window
            for table in range(batch.num_tables)
        ]
        if not groups:
            empty = np.zeros(0, dtype=np.int64)
            return cls(empty, empty, empty, empty, empty, empty, empty)
        sizes = np.array([len(indices) for _, indices, _ in groups], dtype=np.int64)
        counts = np.array([len(offsets) for _, _, offsets in groups], dtype=np.int64)
        rows = np.concatenate([indices for _, indices, _ in groups]).astype(np.int64, copy=False)
        offsets = np.concatenate([offsets for _, _, offsets in groups]).astype(np.int64, copy=False)
        group_of_bag = np.repeat(np.arange(len(groups)), counts)
        size = sizes[group_of_bag]
        # Each bag ends where the next bag of its group starts; a group's last
        # bag ends at the group's end.  Clipping keeps Python slice semantics.
        following = np.empty_like(offsets)
        following[:-1] = offsets[1:]
        last_bag = np.cumsum(counts)[counts > 0] - 1
        following[last_bag] = sizes[counts > 0]
        begin = np.clip(offsets, 0, size)
        length = np.clip(following, begin, size) - begin
        first_bag = np.cumsum(counts) - counts
        sample = np.arange(len(offsets)) - np.repeat(first_bag, counts)
        table = np.repeat(np.array([table for table, _, _ in groups], dtype=np.int64), counts)
        start = (np.cumsum(sizes) - sizes)[group_of_bag] + begin
        kept = length > 0
        sample = sample[kept]
        return cls(
            request_id=first_id + np.arange(int(np.count_nonzero(kept)), dtype=np.int64),
            host=(host_id + sample) % num_hosts,
            table=table[kept],
            sample=sample,
            start=start[kept],
            length=length[kept],
            rows=rows,
        )

    def __len__(self) -> int:
        return len(self.request_id)

    def keys(self) -> Tuple[np.ndarray, ...]:
        """Every bag's routing key: table, sample, length, first row, last row."""
        last = self.start + self.length - 1
        return (self.table, self.sample, self.length, self.rows[self.start], self.rows[last])

    def take(self, mask: np.ndarray) -> "WindowBags":
        """The bags where ``mask`` holds (sharing the window's ``rows``)."""
        return WindowBags(
            self.request_id[mask], self.host[mask], self.table[mask],
            self.sample[mask], self.start[mask], self.length[mask], self.rows,
        )

    def _resolved(self, space: AddressSpace) -> Tuple[np.ndarray, np.ndarray]:
        """The bags' rows back to back, in request order, and their addresses.

        Bags come in (batch, table) order, so each run of bags on one table
        is resolved in one call and no per-row table array is built.
        """
        total = int(self.length.sum())
        packed_start = np.cumsum(self.length) - self.length
        if total == len(self.rows) and np.array_equal(packed_start, self.start):
            # The bags tile the window's rows in order: nothing to gather.
            rows = self.rows
        else:
            rows = self.rows[np.arange(total) + np.repeat(self.start - packed_start, self.length)]
        addresses = np.empty(len(rows), dtype=np.int64)
        run = np.flatnonzero(np.diff(self.table, prepend=-1))
        begin = packed_start[run]
        end = np.append(begin[1:], len(rows))
        for table, lo, hi in zip(self.table[run].tolist(), begin.tolist(), end.tolist()):
            addresses[lo:hi] = space.row_addresses(table, rows[lo:hi])
        return rows, addresses

    def addresses(self, space: AddressSpace) -> np.ndarray:
        """The bags' row addresses back to back, in request order."""
        return self._resolved(space)[1]

    def requests(self, space: AddressSpace, row_bytes: int) -> List[SLSRequest]:
        """One :class:`SLSRequest` per bag; its rows and addresses are views."""
        rows, addresses = self._resolved(space)
        requests: List[SLSRequest] = []
        begin = 0
        for request_id, host, table, sample, end in zip(
            self.request_id.tolist(), self.host.tolist(), self.table.tolist(),
            self.sample.tolist(), np.cumsum(self.length).tolist(),
        ):
            requests.append(SLSRequest(
                request_id=request_id,
                host_id=host,
                table=table,
                sample=sample,
                rows=rows[begin:end],
                addresses=addresses[begin:end],
                row_bytes=row_bytes,
            ))
            begin = end
        return requests


def _check_num_hosts(num_hosts: int) -> None:
    if num_hosts < 1:
        raise ValueError(f"num_hosts must be >= 1, got {num_hosts!r}")


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
    _check_num_hosts(num_hosts)
    space = space or AddressSpace.for_model(model)
    row_bytes = model.embedding_row_bytes
    requests: List[SLSRequest] = []
    # One batch per window keeps the window's temporaries small.
    for batch in batches:
        bags = WindowBags.of([batch], len(requests), host_id, num_hosts)
        requests.extend(bags.requests(space, row_bytes))
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
    :class:`SLSRequest` objects at a time — through the
    :class:`WindowBags` rule the eager constructor uses, with the
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
        _check_num_hosts(num_hosts)
        self.stream = as_batch_stream(stream)
        self.model = model
        self.address_space = space or AddressSpace.for_model(model)
        self.distribution = distribution
        self.host_id = host_id
        self.num_hosts = num_hosts
        self.window_batches = window_batches
        self._batch_size = batch_size
        self._num_batches = num_batches
        self._scan: Optional[dict] = None

    # ------------------------------------------------------------------
    # Whole-trace aggregates (one batch-level pass, cached)
    # ------------------------------------------------------------------
    def _scanned(self) -> dict:
        """Count requests/lookups by the :class:`WindowBags` rule, building no request."""
        if self._scan is None:
            num_requests = 0
            total_lookups = 0
            num_batches = 0
            batch_size = 0
            for batch in self.stream:
                if num_batches == 0:
                    batch_size = batch.batch_size
                num_batches += 1
                bags = WindowBags.of([batch], num_requests)
                num_requests += len(bags)
                total_lookups += int(bags.length.sum())
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
    def iter_bags(self, window_batches: Optional[int] = None) -> Iterator[WindowBags]:
        """Yield each window as :class:`WindowBags`, building no request.

        Request ids run sequentially across windows and hosts follow the
        eager round-robin rule, so a consumer keeping some bags of each
        window (a fleet shard view) rebuilds exactly those requests.
        """
        if window_batches is None:
            window_batches = self.window_batches
        request_id = 0
        for window in self.stream.windows(window_batches):
            bags = WindowBags.of(window, request_id, self.host_id, self.num_hosts)
            request_id += len(bags)
            yield bags

    def iter_windows(
        self, window_batches: Optional[int] = None
    ) -> Iterator[List[SLSRequest]]:
        """Yield windows of requests, one window resident at a time.

        Each batch's bags are built by the eager rule, so
        ``chain(*iter_windows())`` reproduces ``materialize().requests``
        element for element.  Building batch by batch keeps the
        temporaries, and the trace batches held, to one batch.
        """
        if window_batches is None:
            window_batches = self.window_batches
        if window_batches <= 0:
            raise ValueError("window_batches must be positive")
        space, row_bytes = self.address_space, self.model.embedding_row_bytes
        requests: List[SLSRequest] = []
        batches = 0
        for batches, bags in enumerate(self.iter_bags(1), 1):
            requests.extend(bags.requests(space, row_bytes))
            if batches % window_batches == 0:
                yield requests
                requests = []
        if batches % window_batches:
            yield requests

    def __iter__(self) -> Iterator[SLSRequest]:
        for window in self.iter_windows():
            for request in window:
                yield request

    def iter_address_arrays(self) -> Iterator[np.ndarray]:
        """Each batch's request addresses back to back, in request order.

        Their concatenation equals the eager per-request address arrays
        concatenated, which is what keeps the streaming hotness-profiling
        pass bit-identical to the eager one, insertion order included.
        One batch is resident at a time.
        """
        for bags in self.iter_bags(1):
            if len(bags):
                yield bags.addresses(self.address_space)

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
    "WindowBags",
    "build_workload",
    "workload_from_batches",
]
