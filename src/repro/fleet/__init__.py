"""Datacenter-scale fleet simulation: sharded systems behind request routers.

The paper models a handful of hosts on one fabric; ``repro.fleet``
composes N of those single-fabric systems — one per rack, each owning a
table shard of the partitioned embedding space — behind a pluggable
request-routing tier, and aggregates fleet-level results (goodput,
p50..p99.9, per-shard breakdowns).  The moving parts:

* :mod:`repro.fleet.router` — routing policies (``hash``,
  ``power-of-two-choices``, ``table-affinity``) and the table partition.
* :mod:`repro.fleet.shard` — :class:`~repro.fleet.shard.ShardWorkload`,
  one shard's view over a shared (eager or streamed) workload: its
  bags masked per window, with global request ids and O(window)
  residency.
* :mod:`repro.fleet.executor` — :class:`~repro.fleet.executor.Fleet`,
  executing shards serially or across the persistent worker pool.
* :mod:`repro.fleet.result` — per-shard + combined aggregates with JSON
  round trips.

Entry points: ``Simulation.fleet(shards, router=...)`` for sessions and
sweeps, ``python -m repro run|serve --shards N`` on the CLI, or
:func:`run_fleet` / :func:`serve_fleet` directly when per-shard
breakdowns and pooled shard execution are wanted.
"""

from repro.fleet.executor import Fleet, run_fleet, serve_fleet
from repro.fleet.result import (
    FleetResult,
    FleetServeResult,
    combine_sim_results,
    merge_net_stats,
)
from repro.fleet.router import (
    ROUTER_POLICIES,
    HashRouter,
    PowerOfTwoRouter,
    Router,
    TableAffinityRouter,
    TablePartition,
    make_router,
)
from repro.fleet.shard import ShardWorkload, shard_views

__all__ = [
    "Fleet",
    "FleetResult",
    "FleetServeResult",
    "HashRouter",
    "PowerOfTwoRouter",
    "ROUTER_POLICIES",
    "Router",
    "ShardWorkload",
    "TableAffinityRouter",
    "TablePartition",
    "combine_sim_results",
    "make_router",
    "merge_net_stats",
    "run_fleet",
    "serve_fleet",
    "shard_views",
]
