"""Shard views: one shard's slice of a shared workload.

:class:`ShardWorkload` wraps a base workload (eager
:class:`~repro.traces.workload.SLSWorkload` or out-of-core
:class:`~repro.traces.workload.StreamingWorkload`) and exposes only the
requests a :class:`~repro.fleet.router.Router` assigns to one shard —
duck-type compatible with the engine/serve workload contract, so a
plain :class:`~repro.sls.system.SLSSystem` replays a shard with no
fleet-specific code.

Two invariants make fleet results trustworthy:

* **Global request ids.**  A shard view filters, never renumbers: the
  surviving requests are the *same objects* (same ids, hosts, addresses)
  the base workload would produce, so a 1-shard fleet replays a stream
  bit-identical to the plain single-system run, and the union of all
  shards' requests is exactly the base workload — no dupes, no gaps.
* **O(window) residency.**  Streaming shard views filter window by
  window over the base's one shared stream handle; only the active
  window is ever resident, and the view pickles as the base's small
  path+range handle plus the router (a few hundred bytes — workers
  never receive trace bytes).

Table-affinity shard views additionally slice the stream by table range
*before* address resolution (the range-sharded fast path): bags of
tables outside the shard's partition range are counted for id
continuity but never flattened.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, List, Optional

import numpy as np

from repro.fleet.router import Router, TableAffinityRouter, TablePartition
from repro.traces.workload import SLSRequest, StreamingWorkload, flatten_table_bags

__all__ = ["ShardWorkload", "shard_views"]


class ShardWorkload:
    """One shard's view of a shared base workload (see module docstring).

    ``router`` decides membership; stateful policies (power-of-two-
    choices) are re-bound for every pass over the stream, so repeated
    replays — the counting pass, hotness profiling, the engine replay —
    all see the identical assignment.
    """

    def __init__(self, base, router: Router, shard: int, num_shards: int) -> None:
        num_shards = int(num_shards)
        shard = int(shard)
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if not 0 <= shard < num_shards:
            raise ValueError(f"shard {shard} out of range [0, {num_shards})")
        if not isinstance(router, Router):
            raise TypeError(f"expected a repro.fleet Router, got {router!r}")
        self.base = base
        self.router = router
        self.shard = shard
        self.num_shards = num_shards
        self._scan: Optional[dict] = None
        self._requests: Optional[List[SLSRequest]] = None

    # ------------------------------------------------------------------
    # Base pass-throughs (the engine's workload contract)
    # ------------------------------------------------------------------
    @property
    def streaming(self) -> bool:
        return bool(getattr(self.base, "streaming", False))

    @property
    def model(self):
        return self.base.model

    @property
    def address_space(self):
        return self.base.address_space

    @property
    def distribution(self) -> str:
        return self.base.distribution

    @property
    def batch_size(self) -> int:
        return self.base.batch_size

    @property
    def num_batches(self) -> int:
        return self.base.num_batches

    @property
    def working_set_bytes(self) -> int:
        return self.base.working_set_bytes

    def _bind(self):
        return self.router.bind(self.num_shards, self.address_space.num_tables)

    @property
    def table_range(self):
        """This shard's owned table range under the fleet's partition."""
        partition = TablePartition(self.address_space.num_tables, self.num_shards)
        return partition.range_of(self.shard)

    # ------------------------------------------------------------------
    # Request access
    # ------------------------------------------------------------------
    @property
    def requests(self) -> List[SLSRequest]:
        """The shard's materialized request list (eager bases only).

        Mirrors the base contract: a streaming base raises
        ``AttributeError`` here exactly like
        :class:`~repro.traces.workload.StreamingWorkload` does.
        """
        if self.streaming:
            raise AttributeError(
                "streaming shard views hold no materialized request list; "
                "iterate the view (or iter_windows()) instead"
            )
        if self._requests is None:
            bound = self._bind()
            self._requests = [
                request for request in self.base.requests
                if bound.route(request) == self.shard
            ]
        return self._requests

    def iter_windows(
        self, window_batches: Optional[int] = None
    ) -> Iterator[List[SLSRequest]]:
        """Yield this shard's requests window by window (one window resident)."""
        if not self.streaming:
            yield self.requests
            return
        if self.router.table_affine and isinstance(self.base, StreamingWorkload):
            yield from self._iter_table_range_windows(window_batches)
            return
        bound = self._bind()
        for window in self.base.iter_windows(window_batches):
            yield [request for request in window if bound.route(request) == self.shard]

    def _iter_table_range_windows(
        self, window_batches: Optional[int]
    ) -> Iterator[List[SLSRequest]]:
        """Range-sharded stream slice: flatten only this shard's tables.

        Bags of foreign tables are *counted* (to keep the global request
        ids identical to the base flattening) but never resolved into
        addresses or request objects — the per-shard flattening cost
        scales with the shard's own table range, not the whole trace.
        """
        base = self.base
        lo, hi = self.table_range
        space = base.address_space
        row_bytes = base.model.embedding_row_bytes
        host_of_sample = base._host_of_sample()
        if window_batches is None:
            window_batches = base.window_batches
        request_id = 0
        for window in base.stream.windows(window_batches):
            requests: List[SLSRequest] = []
            for batch in window:
                for table in range(batch.num_tables):
                    indices = batch.indices_per_table[table]
                    offsets = batch.offsets_per_table[table]
                    if not lo <= table < hi:
                        bounds = np.concatenate([np.asarray(offsets), [len(indices)]])
                        request_id += int(np.count_nonzero(np.diff(bounds)))
                        continue
                    indices = indices.astype(np.int64)
                    table_addresses = space.row_addresses(table, indices)
                    request_id = flatten_table_bags(
                        requests, request_id, table, indices, offsets,
                        table_addresses, row_bytes, host_of_sample,
                    )
            yield requests

    def __iter__(self) -> Iterator[SLSRequest]:
        return chain.from_iterable(self.iter_windows())

    def iter_address_arrays(self) -> Iterator[np.ndarray]:
        """This shard's addresses in request order, one array per window.

        The hotness-profiling pass consumes these; concatenating the kept
        requests' own addresses keeps the profile bit-identical to
        profiling the equivalent eager shard (same counts, same
        first-occurrence order).
        """
        for window in self.iter_windows():
            if window:
                yield np.concatenate([request.addresses for request in window])

    # ------------------------------------------------------------------
    # Whole-shard aggregates (one filtered pass, cached)
    # ------------------------------------------------------------------
    def _scanned(self) -> dict:
        if self._scan is None:
            num_requests = 0
            total_lookups = 0
            for window in self.iter_windows():
                num_requests += len(window)
                total_lookups += int(sum(r.num_candidates for r in window))
            self._scan = {"num_requests": num_requests, "total_lookups": total_lookups}
        return self._scan

    @property
    def num_requests(self) -> int:
        return self._scanned()["num_requests"]

    def __len__(self) -> int:
        return self.num_requests

    @property
    def total_lookups(self) -> int:
        return self._scanned()["total_lookups"]

    @property
    def total_bytes(self) -> int:
        return self.total_lookups * self.model.embedding_row_bytes

    def unique_pages(self) -> int:
        page_size = self.address_space.page_size
        pages: set = set()
        for addresses in self.iter_address_arrays():
            pages.update((addresses // page_size).tolist())
        return len(pages)

    # ------------------------------------------------------------------
    # Pickling: ship the handle, never the cache
    # ------------------------------------------------------------------
    def __getstate__(self):
        """Drop the derived caches so a shipped view is only the handle.

        The filtered request list (eager bases) is views into the base's
        arrays in memory but would materialize copies across a pickle
        boundary, and the scan cache is recomputed in one cheap pass.
        """
        state = self.__dict__.copy()
        state["_scan"] = None
        state["_requests"] = None
        return state


def shard_views(base, router: Router, num_shards: int) -> List[ShardWorkload]:
    """All ``num_shards`` shard views of ``base`` under one router."""
    return [ShardWorkload(base, router, shard, num_shards) for shard in range(num_shards)]
