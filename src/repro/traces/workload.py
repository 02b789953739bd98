"""SLS workloads: windows of bags, consumed by every simulated system.

Every workload is one contract (:class:`Workload`): a re-iterable source
of :class:`WindowBags` windows (:meth:`Workload.iter_bags`).  Requests,
address arrays, counts and unique pages derive from those bags in one
place, so the eager :class:`SLSWorkload` (the whole trace resident as one
window), the out-of-core :class:`StreamingWorkload` and a fleet shard view
(:class:`~repro.fleet.shard.ShardWorkload`) replay, count and profile the
same requests by the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
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


@dataclass(frozen=True)
class WindowBags:
    """The non-empty bags of a window of trace batches as columns.

    One entry per bag, in request order (batch, then table, then sample),
    with the global request id and the host it gets.  ``rows`` holds the
    window's indices back to back; bag ``i`` reads ``rows[start[i]:start[i]
    + length[i]]``.  This is the one bag rule: every workload builds its
    :class:`SLSRequest` objects through :meth:`requests`, so bag semantics
    (bounds, empty-bag skip, ids, hosts) cannot drift between sources.  A
    consumer that keeps only some bags (:meth:`take`, a fleet shard view)
    resolves addresses and builds requests for those alone.
    """

    request_id: np.ndarray
    host: np.ndarray
    table: np.ndarray
    sample: np.ndarray
    start: np.ndarray
    length: np.ndarray
    rows: np.ndarray

    @classmethod
    def of(cls, window: Sequence[TraceBatch], first_id: int, num_hosts: int = 1) -> "WindowBags":
        """The bags of one window of trace batches, numbered from ``first_id``.

        Bag ``s`` of a (batch, table) runs from ``offsets[s]`` to the next
        offset, the last one to the end of the indices; empty bags get no
        id; bag ``s`` goes to host ``first_host + s % host_count`` under
        its batch's host range, ``(0, num_hosts)`` when the batch has none.
        """
        ranges = [batch.hosts or (0, num_hosts) for batch in window]
        for first_host, host_count in ranges:
            if first_host < 0 or host_count < 1 or first_host + host_count > num_hosts:
                raise ValueError(
                    f"batch host range (first_host={first_host}, host_count={host_count}) "
                    f"lies outside num_hosts={num_hosts}"
                )
        groups = [
            (table, batch.indices_per_table[table], batch.offsets_per_table[table], hosts)
            for batch, hosts in zip(window, ranges)
            for table in range(batch.num_tables)
        ]
        if not groups:
            empty = np.zeros(0, dtype=np.int64)
            return cls(empty, empty, empty, empty, empty, empty, empty)
        sizes = np.array([len(indices) for _, indices, _, _ in groups], dtype=np.int64)
        counts = np.array([len(offsets) for _, _, offsets, _ in groups], dtype=np.int64)
        rows = np.concatenate([indices for _, indices, _, _ in groups]).astype(np.int64, copy=False)
        offsets = np.concatenate([offsets for _, _, offsets, _ in groups]).astype(np.int64, copy=False)
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
        table = np.repeat(np.array([table for table, _, _, _ in groups], dtype=np.int64), counts)
        start = (np.cumsum(sizes) - sizes)[group_of_bag] + begin
        kept = length > 0
        sample = sample[kept]
        group = group_of_bag[kept]
        first_host, host_count = np.array([hosts for _, _, _, hosts in groups], dtype=np.int64).T
        return cls(
            request_id=first_id + np.arange(int(np.count_nonzero(kept)), dtype=np.int64),
            host=first_host[group] + sample % host_count[group],
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


class Workload:
    """The one workload contract: a re-iterable source of :class:`WindowBags`.

    A workload has a ``model``, an ``address_space``, a ``distribution``
    label, ``batch_size`` and ``num_batches``, and provides
    :meth:`iter_bags`: its windows of bags, request ids running on
    sequentially from one window to the next.  Everything else derives from
    those bags here, once: the requests window by window, the address
    arrays the hotness profile reads, the request and lookup counts (one
    pass, cached, building no request) and the unique pages.  So a replay,
    a count and a profile of any workload see the same requests.
    """

    #: Whether the workload reads its trace from a stream (only serve's
    #: dispatch choice reads it).
    streaming = False
    #: The trace batches the bags come from (a list or a re-iterable
    #: stream), or ``None`` when the workload holds none; it is what
    #: :func:`~repro.traces.files.save_workload_trace` writes.
    trace = None

    model: ModelConfig
    address_space: AddressSpace

    def iter_bags(self) -> Iterator[WindowBags]:
        """Yield the workload's windows of bags."""
        raise NotImplementedError

    def iter_windows(self) -> Iterator[List[SLSRequest]]:
        """Yield the requests window by window; one window is resident at a time."""
        space, row_bytes = self.address_space, self.model.embedding_row_bytes
        for bags in self.iter_bags():
            yield bags.requests(space, row_bytes)

    def __iter__(self) -> Iterator[SLSRequest]:
        return chain.from_iterable(self.iter_windows())

    def iter_address_arrays(self) -> Iterator[np.ndarray]:
        """Each window's request addresses back to back, in request order.

        Their concatenation is every request's addresses in request order,
        which is what keeps the hotness profile independent of where the
        windows are cut, insertion order included.
        """
        for bags in self.iter_bags():
            if len(bags):
                yield bags.addresses(self.address_space)

    @cached_property
    def _counts(self) -> Tuple[int, int]:
        """``(requests, lookups)`` counted from the bags, building no request."""
        requests = lookups = 0
        for bags in self.iter_bags():
            requests += len(bags)
            lookups += int(bags.length.sum())
        return requests, lookups

    @property
    def num_requests(self) -> int:
        return self._counts[0]

    def __len__(self) -> int:
        return self._counts[0]

    @property
    def total_lookups(self) -> int:
        return self._counts[1]

    @property
    def total_bytes(self) -> int:
        # Row size is uniform across tables, so bytes = lookups x row size.
        return self.total_lookups * self.model.embedding_row_bytes

    @property
    def working_set_bytes(self) -> int:
        return self.address_space.total_bytes

    def unique_pages(self) -> int:
        space = self.address_space
        seen = np.zeros(space.total_pages, dtype=bool)
        for addresses in self.iter_address_arrays():
            seen[addresses // space.page_size] = True
        return int(np.count_nonzero(seen))


def _check_num_hosts(num_hosts: int) -> None:
    if num_hosts < 1:
        raise ValueError(f"num_hosts must be >= 1, got {num_hosts!r}")


@dataclass(eq=False)
class SLSWorkload(Workload):
    """An eager workload: the whole trace resident as one window of bags.

    ``trace`` holds the batches ``bags`` was flattened from; it is what the
    trace-file export (:func:`repro.traces.files.save_workload_trace`)
    writes, enabling a bit-identical save → load → rebuild round trip.
    ``requests`` is the window's request list, built once with the
    workload and yielded as its one window.
    """

    model: ModelConfig
    address_space: AddressSpace
    bags: WindowBags
    batch_size: int
    num_batches: int
    distribution: str
    trace: Optional[List[TraceBatch]] = None

    def __post_init__(self) -> None:
        self.requests  # built with the workload: every session replays it

    @cached_property
    def requests(self) -> List[SLSRequest]:
        """The window's request list (rebuilt on first use after a pickle)."""
        return self.bags.requests(self.address_space, self.model.embedding_row_bytes)

    def iter_bags(self) -> Iterator[WindowBags]:
        yield self.bags

    def iter_windows(self) -> Iterator[List[SLSRequest]]:
        yield self.requests

    def __getstate__(self):
        """Pickle the bags alone.

        The request arrays are views into the bags' buffers in memory, but
        pickling materializes every view, so a workload shipped to a sweep
        worker would carry each index twice, and a fleet worker replaying
        one shard builds only that shard's requests; ``trace`` exists for
        the in-process export path and stays on this side of the boundary.
        """
        state = self.__dict__.copy()
        state["trace"] = None
        state.pop("requests", None)
        return state


def workload_from_batches(
    batches: Sequence[TraceBatch],
    model: ModelConfig,
    *,
    distribution: str = "file",
    batch_size: Optional[int] = None,
    num_batches: Optional[int] = None,
    num_hosts: int = 1,
    space: Optional[AddressSpace] = None,
) -> SLSWorkload:
    """Flatten trace batches into an :class:`SLSWorkload`.

    The shared request-construction path behind every eager workload
    source: synthetic generators (:func:`build_workload`), trace files
    (:mod:`repro.traces.files`), the drifting-popularity generator, the
    multi-tenant provider and the PIFS runtime all produce
    :class:`~repro.traces.meta.TraceBatch` lists and meet here, so a trace
    exported to disk and re-loaded rebuilds the *identical* request stream.
    Bags go to hosts round-robin by sample over ``num_hosts``, matching the
    paper's multi-host experiments where concurrent hosts issue batches
    against the same tables, or over a batch's own host range.
    """
    _check_num_hosts(num_hosts)
    batches = list(batches)
    return SLSWorkload(
        model=model,
        address_space=space or AddressSpace.for_model(model),
        bags=WindowBags.of(batches, 0, num_hosts),
        batch_size=(batches[0].batch_size if batches else 0) if batch_size is None else batch_size,
        num_batches=len(batches) if num_batches is None else num_batches,
        distribution=distribution,
        trace=batches,
    )


class StreamingWorkload(Workload):
    """An out-of-core workload: batch windows flattened on demand.

    Instead of a resident window it holds a re-iterable
    :class:`~repro.traces.stream.BatchStream` and flattens one *window*
    (``window_batches`` trace batches) of bags at a time, through the
    :class:`WindowBags` rule the eager constructor uses, so the rebuilt
    request stream is bit-identical to the eager workload built from the
    same batches.  Only the active window is resident, and building the
    workload reads no batch.

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
        self.num_hosts = num_hosts
        self.window_batches = window_batches
        self._batch_size = batch_size
        self._num_batches = num_batches

    @property
    def trace(self) -> BatchStream:
        return self.stream

    @cached_property
    def _shape(self) -> Tuple[int, int]:
        """``(batch_size, num_batches)`` read from the stream, when not given."""
        batch_size = num_batches = 0
        for num_batches, batch in enumerate(self.stream, 1):
            if num_batches == 1:
                batch_size = batch.batch_size
        return batch_size, num_batches

    @property
    def batch_size(self) -> int:
        return self._shape[0] if self._batch_size is None else self._batch_size

    @property
    def num_batches(self) -> int:
        return self._shape[1] if self._num_batches is None else self._num_batches

    @property
    def requests(self):
        raise AttributeError(
            "StreamingWorkload holds no materialized request list; iterate "
            "the workload (or iter_windows()) instead, or call materialize()"
        )

    def iter_bags(self) -> Iterator[WindowBags]:
        """Yield the stream's windows of ``window_batches`` batches as bags."""
        request_id = 0
        for window in self.stream.windows(self.window_batches):
            bags = WindowBags.of(window, request_id, self.num_hosts)
            # The bags hold the window's rows: drop its batches before the
            # window is consumed.
            window.clear()
            request_id += len(bags)
            yield bags

    def materialize(self) -> SLSWorkload:
        """Build the equivalent eager :class:`SLSWorkload` (whole trace resident)."""
        return workload_from_batches(
            self.stream.materialize(),
            self.model,
            distribution=self.distribution,
            batch_size=self._batch_size,
            num_batches=self._num_batches,
            num_hosts=self.num_hosts,
            space=self.address_space,
        )


def build_workload(
    config: WorkloadConfig,
    distribution: Optional[str] = None,
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
    dist = TraceDistribution.from_name(distribution or config.distribution)
    options = dict(
        distribution=dist.value,
        batch_size=config.batch_size,
        num_batches=config.num_batches,
        num_hosts=num_hosts,
    )
    if streaming:
        return StreamingWorkload(
            SyntheticBatchStream(config, distribution=dist.value),
            config.model,
            window_batches=window_batches,
            **options,
        )
    batches = generate_meta_like_trace(config, distribution=dist)
    return workload_from_batches(batches, config.model, **options)


__all__ = [
    "SLSRequest",
    "SLSWorkload",
    "StreamingWorkload",
    "WindowBags",
    "Workload",
    "build_workload",
    "workload_from_batches",
]
