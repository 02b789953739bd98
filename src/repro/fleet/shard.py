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
  surviving requests equal (same ids, hosts, rows, addresses) the ones
  the base workload would produce, so a 1-shard fleet replays a stream
  bit-identical to the plain single-system run, and the union of all
  shards' requests is exactly the base workload — no dupes, no gaps.
* **O(window) residency.**  Streaming shard views filter window by
  window over the base's one shared stream handle; only the active
  window is ever resident, and the view pickles as the base's small
  stream handle plus the router (a few hundred bytes — workers never
  receive trace bytes).

Streaming views route, then flatten, under every policy: each window of
the base stream arrives as bag columns
(:meth:`~repro.traces.workload.StreamingWorkload.iter_bags`), one
:meth:`~repro.fleet.router.BoundRouter.route` call assigns all of its
bags, and only the shard's own bags are resolved to addresses or built
into requests.  The request count and the hotness profile read the kept
bags' arrays and build no request at all.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, List, Optional

import numpy as np

from repro.fleet.router import Router, request_keys
from repro.traces.workload import SLSRequest, WindowBags

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
            requests = self.base.requests
            shards = self._bind().route(*request_keys(requests)).tolist()
            self._requests = [
                request for request, shard in zip(requests, shards) if shard == self.shard
            ]
        return self._requests

    def _iter_own_bags(self, window_batches: Optional[int] = None) -> Iterator[WindowBags]:
        """Route each window of the base stream once; yield this shard's bags of it."""
        bound = self._bind()
        for bags in self.base.iter_bags(window_batches):
            yield bags.take(bound.route(*bags.keys()) == self.shard)

    def iter_windows(
        self, window_batches: Optional[int] = None
    ) -> Iterator[List[SLSRequest]]:
        """Yield this shard's requests window by window (one window resident)."""
        if not self.streaming:
            yield self.requests
            return
        space, row_bytes = self.address_space, self.model.embedding_row_bytes
        for bags in self._iter_own_bags(window_batches):
            yield bags.requests(space, row_bytes)

    def __iter__(self) -> Iterator[SLSRequest]:
        return chain.from_iterable(self.iter_windows())

    def iter_address_arrays(self) -> Iterator[np.ndarray]:
        """This shard's addresses in request order, one array per window.

        The hotness-profiling pass consumes these; they are the kept
        requests' own addresses back to back, so the profile is
        bit-identical to profiling the equivalent eager shard (same
        counts, same first-occurrence order).
        """
        if not self.streaming:
            if self.requests:
                yield np.concatenate([request.addresses for request in self.requests])
            return
        for bags in self._iter_own_bags():
            if len(bags):
                yield bags.addresses(self.address_space)

    # ------------------------------------------------------------------
    # Whole-shard aggregates (one filtered pass, cached)
    # ------------------------------------------------------------------
    def _scanned(self) -> dict:
        if self._scan is None:
            if self.streaming:
                num_requests = total_lookups = 0
                for bags in self._iter_own_bags():
                    num_requests += len(bags)
                    total_lookups += int(bags.length.sum())
            else:
                num_requests = len(self.requests)
                total_lookups = sum(request.num_candidates for request in self.requests)
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
