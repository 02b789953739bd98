"""Shard views: one shard's slice of a shared workload.

:class:`ShardWorkload` wraps a base workload (eager
:class:`~repro.traces.workload.SLSWorkload` or out-of-core
:class:`~repro.traces.workload.StreamingWorkload`) and exposes only the
requests a :class:`~repro.fleet.router.Router` assigns to one shard.  It
is a :class:`~repro.traces.workload.Workload` like its base, so a plain
:class:`~repro.sls.engine.SLSSystem` replays a shard with no
fleet-specific code.

Each window of the base arrives as bag columns
(:meth:`~repro.traces.workload.Workload.iter_bags`; an eager base is one
window), one :meth:`~repro.fleet.router.BoundRouter.route` call assigns
all of its bags, and the view keeps the shard's own bags.  Requests,
counts and the hotness profile derive from those bags by the workload
contract, so only the shard's own bags are resolved to addresses or built
into requests, and the count builds no request at all.

Two invariants make fleet results trustworthy:

* **Global request ids.**  A shard view filters, never renumbers: the
  surviving requests equal (same ids, hosts, rows, addresses) the ones
  the base workload would produce, so a 1-shard fleet replays a stream
  bit-identical to the plain single-system run, and the union of all
  shards' requests is exactly the base workload — no dupes, no gaps.
* **O(window) residency.**  Over a streamed base, views filter window by
  window over the base's one shared stream handle; only the active
  window is ever resident, and the view pickles as the base's small
  stream handle plus the router (a few hundred bytes — workers never
  receive trace bytes).
"""

from __future__ import annotations

from typing import Iterator, List

from repro.fleet.router import Router
from repro.traces.workload import WindowBags, Workload

__all__ = ["ShardWorkload", "shard_views"]


class ShardWorkload(Workload):
    """One shard's view of a shared base workload (see module docstring).

    ``router`` decides membership; stateful policies (power-of-two-
    choices) are re-bound for every pass over the base, so repeated
    passes — the count, hotness profiling, the engine replay — all see
    the identical assignment.
    """

    def __init__(self, base: Workload, router: Router, shard: int, num_shards: int) -> None:
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
        self.model = base.model
        self.address_space = base.address_space
        self.distribution = base.distribution

    @property
    def streaming(self) -> bool:
        return self.base.streaming

    @property
    def batch_size(self) -> int:
        return self.base.batch_size

    @property
    def num_batches(self) -> int:
        return self.base.num_batches

    def iter_bags(self) -> Iterator[WindowBags]:
        """Route each window of the base once; yield this shard's bags of it."""
        bound = self.router.bind(self.num_shards, self.address_space.num_tables)
        for bags in self.base.iter_bags():
            yield bags.take(bound.route(*bags.keys()) == self.shard)


def shard_views(base: Workload, router: Router, num_shards: int) -> List[ShardWorkload]:
    """All ``num_shards`` shard views of ``base`` under one router."""
    return [ShardWorkload(base, router, shard, num_shards) for shard in range(num_shards)]
