"""Declarative parameter sweeps with a multiprocessing execution engine.

A :class:`Sweep` expands a dict of axes into the cartesian product of grid
points, configures one :class:`~repro.api.session.Simulation` per point, and
executes them serially or across worker processes::

    from repro.api import Simulation, Sweep

    result = Sweep(
        over={"system": ["pond", "pifs-rec"], "batch_size": [8, 64]},
        base=Simulation().quick(),
    ).run(parallel=True)
    print(result.table())

Axis keys name :class:`Simulation` settings (``system``, ``model``,
``batch_size``, ``hosts``, ``devices``, ...).  An axis value may also be a
:func:`point` bundling several settings under one coordinate label — e.g.
the scale-out experiments grow hosts, switches and devices together::

    Sweep(over={"fabric": [point(n, hosts=n, switches=n, devices=n)
                           for n in (1, 2, 4)]})

Results come back in deterministic product order (first axis outermost)
regardless of which worker finished first, and parallel execution is
byte-identical to serial because every run derives its seeded workload
from the spec.  Runs are cached by config hash across sweeps.

Parallel grids execute on a process-wide **persistent worker pool**
(:func:`worker_pool`): grid points are scheduled as chunks grouped by
workload key, each chunk ships (or derives) its trace exactly once, and
the pool — with its workers' workload caches — survives across ``run()``
calls, so a sequence of sweeps pays pool startup once and never
re-derives a workload the process has already built.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import sys
from dataclasses import dataclass
from itertools import product
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.api.results import RunResult, SweepResult
from repro.config import ModelConfig
from repro.api.session import (
    RunSpec,
    Simulation,
    cached_result,
    cached_workload,
    execute_chunk,
    execute_spec,
    model_label,
    public_copy,
    safe_spec_key,
    seed_workload_cache,
    store_result,
    system_label,
    workload_key,
)
from repro.obs.log import get_logger

LOG = get_logger("api.sweep")


def _pool_context():
    # ``fork`` skips re-importing the package in every worker, but is only
    # reliably safe on Linux (macOS frameworks can crash after fork, which
    # is why spawn is the platform default there).  Specs and the executor
    # functions are module-level and picklable, so the spawn-based default
    # contexts work everywhere else.
    if sys.platform.startswith("linux"):
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()  # pragma: no cover - macOS/Windows


class WorkerPool:
    """Persistent, reusable worker pool for parallel sweep execution.

    The previous engine forked a fresh pool inside every ``Sweep.run``
    call and tore it down with the grid: every sweep re-paid pool startup,
    and the workers' workload/result caches died with them.  This pool is
    created on first parallel use and then shared by every later sweep
    (and SLA-sweep grid stage) in the process.  It is transparently
    rebuilt when a larger pool is requested or when the system registry
    changed since the workers were created — forked workers bake in the
    registry, so a name registered afterwards would not resolve in a stale
    worker.
    """

    def __init__(self) -> None:
        self._pool = None
        self._size = 0
        self._generation = -1

    def get(self, workers: int):
        """A live pool with at least ``workers`` processes."""
        from repro.api.registry import registry_generation

        generation = registry_generation()
        if self._pool is None or self._size < workers or self._generation != generation:
            if self._pool is not None:
                LOG.debug(
                    "rebuilding worker pool (size %d -> %d, registry generation %d -> %d)",
                    self._size, workers, self._generation, generation,
                )
            self.shutdown()
            self._pool = _pool_context().Pool(processes=workers)
            self._size = workers
            self._generation = generation
        return self._pool

    @property
    def size(self) -> int:
        return self._size

    def active(self) -> bool:
        return self._pool is not None

    def shutdown(self) -> None:
        """Terminate the pool (idempotent); the next ``get`` starts fresh."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
            self._size = 0
            self._generation = -1


#: The process-wide persistent pool (see :class:`WorkerPool`).
_WORKER_POOL = WorkerPool()
atexit.register(_WORKER_POOL.shutdown)


def worker_pool() -> WorkerPool:
    """The process-wide persistent sweep pool."""
    return _WORKER_POOL


def shutdown_worker_pool() -> None:
    """Tear down the persistent sweep pool (tests, embedders, benchmarks)."""
    _WORKER_POOL.shutdown()


@dataclass(frozen=True)
class AxisPoint:
    """One labeled grid point bundling several simulation settings."""

    label: Any
    settings: Tuple[Tuple[str, Any], ...]


def point(label: Any, **settings: Any) -> AxisPoint:
    """Build an :class:`AxisPoint` (see the module docstring)."""
    return AxisPoint(label=label, settings=tuple(settings.items()))


def _coordinate(value: Any) -> Any:
    """The coordinate recorded in ``RunResult.params`` for an axis value."""
    if isinstance(value, AxisPoint):
        return value.label
    if isinstance(value, ModelConfig):
        return model_label(value)
    if callable(value):
        return system_label(value)
    return value


class Sweep:
    """A declarative grid of simulation runs."""

    def __init__(
        self,
        over: Mapping[str, Iterable[Any]],
        base: Optional[Simulation] = None,
        **base_settings: Any,
    ) -> None:
        if not over:
            raise ValueError("a sweep needs at least one axis")
        self._axes: List[Tuple[str, List[Any]]] = [
            (str(key), list(values)) for key, values in over.items()
        ]
        for key, values in self._axes:
            if not values:
                raise ValueError(f"sweep axis {key!r} has no values")
        self._base = (base or Simulation()).clone().apply(**base_settings)
        self._compiled: Optional[Tuple[Any, Any, Any]] = None

    # ------------------------------------------------------------------
    # Grid expansion
    # ------------------------------------------------------------------
    @property
    def axes(self) -> List[Tuple[str, List[Any]]]:
        """Axes with coordinate labels (what the results are keyed by)."""
        return [
            (key, [_coordinate(value) for value in values]) for key, values in self._axes
        ]

    def __len__(self) -> int:
        size = 1
        for _, values in self._axes:
            size *= len(values)
        return size

    def points(self) -> List[Dict[str, Any]]:
        """Raw grid points in deterministic product order."""
        keys = [key for key, _ in self._axes]
        return [
            dict(zip(keys, combo))
            for combo in product(*(values for _, values in self._axes))
        ]

    def _apply_axis(self, sim: Simulation, key: str, value: Any) -> None:
        if isinstance(value, AxisPoint):
            sim.apply(**dict(value.settings))
        else:
            sim.apply(**{key: value})

    def simulations(self) -> List[Tuple[Simulation, Dict[str, Any]]]:
        """One configured (simulation, coordinates) pair per grid point."""
        configured: List[Tuple[Simulation, Dict[str, Any]]] = []
        for grid_point in self.points():
            sim = self._base.clone()
            coords: Dict[str, Any] = {}
            for key, value in grid_point.items():
                self._apply_axis(sim, key, value)
                coords[key] = _coordinate(value)
            configured.append((sim, coords))
        return configured

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _compile(self):
        """Configured sims, their specs, and cache keys — computed once.

        Keys are frozen at first use: option objects carried on the specs
        mutate while simulating, and recomputing keys per ``run()`` call
        would make a sweep re-run miss its own cached results.
        """
        if self._compiled is None:
            sims = self.simulations()
            specs = [sim.spec() for sim, _ in sims]
            keys = [safe_spec_key(spec) for spec in specs]
            self._compiled = (sims, specs, keys)
        return self._compiled

    def run(
        self,
        parallel: bool = False,
        processes: Optional[int] = None,
        cache: bool = True,
        recorder: Optional[Any] = None,
    ) -> SweepResult:
        """Execute every grid point and return the ordered results.

        ``parallel=True`` fans the uncached runs out over the persistent
        worker pool (default size: CPU count capped at the number of
        runs): grid points are scheduled as chunks grouped by workload
        key — every chunk's trace is derived (or fetched from the
        cross-run cache) once and shared by all its runs — and the pool
        itself survives across ``run()`` calls, so repeated sweeps pay
        neither pool startup nor workload re-derivation.  Ordering and
        values are identical to the serial path.

        ``recorder`` (or a recorder attached to the base session via
        ``Simulation.observe``) observes the sweep: config-hash cache
        hits/misses are counted, serial runs record directly into it, and
        parallel chunks record worker-side and are merged back with
        ``worker-<pid>`` attribution.  Recording never changes the
        results.
        """
        if processes is not None and processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes!r}")
        sims, specs, keys = self._compile()
        if recorder is None:
            recorder = getattr(self._base, "_recorder", None)
        record = recorder is not None and getattr(recorder, "enabled", False)

        slots: List[Optional[RunResult]] = [None] * len(specs)
        pending: List[int] = []
        for index, key in enumerate(keys):
            hit = cached_result(key) if cache else None
            if hit is not None:
                slots[index] = hit
                if record:
                    recorder.count("cache.result.hits")
            else:
                pending.append(index)
                if record:
                    recorder.count("cache.result.misses")

        # Execute with the keys frozen at compile time: stateful option
        # objects (policies) mutate during the run, so a key recomputed
        # later would drift and a re-run of this sweep would miss the cache.
        fresh = self._execute(
            [(specs[i], keys[i] or "") for i in pending], parallel, processes,
            recorder=recorder if record else None,
        )
        for index, result in zip(pending, fresh):
            slots[index] = result
            if cache:
                store_result(result)

        results: List[RunResult] = []
        for slot, spec, (_, coords) in zip(slots, specs, sims):
            assert slot is not None
            # Caller-owned copy from the requesting spec with this sweep's
            # coordinates overlaid: axis keys (including labeled AxisPoints
            # like "fabric") stay addressable, labels are deterministic
            # regardless of cache warmth, and the cached copy is never
            # mutated.
            results.append(public_copy(slot, spec, coords))
        return SweepResult(axes=self.axes, results=results)

    @staticmethod
    def _chunk_by_workload(
        tasks: Sequence[Tuple[RunSpec, str]], workers: int = 1
    ) -> List[Tuple[List[int], Optional[str]]]:
        """Group task indices into dispatch chunks sharing one workload.

        Returns ``(indices, workload_key)`` pairs in deterministic
        first-occurrence order; specs whose workload is not stably
        hashable get singleton chunks with key ``None``.  When grouping
        produces fewer chunks than ``workers`` — a systems-only sweep
        collapses into a single workload group — the largest chunks are
        split (each part still ships the same shared workload) so the
        pool stays fully occupied.
        """
        chunks: List[Tuple[List[int], Optional[str]]] = []
        by_key: Dict[str, List[int]] = {}
        for index, (spec, _) in enumerate(tasks):
            key = workload_key(spec)
            if key is None:
                chunks.append(([index], None))
                continue
            bucket = by_key.get(key)
            if bucket is None:
                bucket = [index]
                by_key[key] = bucket
                chunks.append((bucket, key))
            else:
                bucket.append(index)
        # Subdivide until every worker can get a chunk (or chunks are all
        # singletons).  Splitting is deterministic: always the largest
        # chunk, earliest first on ties, halved in place.
        target = min(workers, len(tasks))
        while len(chunks) < target:
            position = max(
                range(len(chunks)), key=lambda i: (len(chunks[i][0]), -i)
            )
            indices, key = chunks[position]
            if len(indices) <= 1:
                break
            middle = (len(indices) + 1) // 2
            chunks[position : position + 1] = [
                (indices[:middle], key),
                (indices[middle:], key),
            ]
        return chunks

    @staticmethod
    def _execute(
        tasks: Sequence[Tuple[RunSpec, str]],
        parallel: bool,
        processes: Optional[int],
        recorder: Optional[Any] = None,
    ) -> List[RunResult]:
        if not tasks:
            return []
        workers = min(len(tasks), os.cpu_count() or 1) if processes is None else processes
        if not parallel or workers <= 1 or len(tasks) == 1:
            return [execute_spec(spec, key, recorder=recorder) for spec, key in tasks]

        from collections import Counter

        record = recorder is not None
        chunks = Sweep._chunk_by_workload(tasks, workers)
        chunks_per_key = Counter(key for _, key in chunks if key is not None)
        pool = _WORKER_POOL.get(workers)
        grants = []
        for indices, chunk_key in chunks:
            chunk_tasks = [tasks[i] for i in indices]
            # The chunk's workload travels with it when the parent already
            # holds it (free — warmed by an earlier sweep or serial run) or
            # when several runs share it, in which case one parent build
            # replaces a per-worker derivation each and warms the
            # cross-run cache.  A cold singleton derives in its worker, in
            # parallel with the other chunks.
            shared = cached_workload(chunk_key)
            if (
                shared is None
                and chunk_key is not None
                and (len(indices) > 1 or chunks_per_key[chunk_key] > 1)
            ):
                from repro.api.session import build_workload

                shared = build_workload(chunk_tasks[0][0])
            grants.append(
                pool.apply_async(execute_chunk, (chunk_tasks, chunk_key, shared, record))
            )
        results: List[Optional[RunResult]] = [None] * len(tasks)
        for (indices, _), grant in zip(chunks, grants):
            payload = grant.get()
            if record:
                # Workers ship their recorder snapshot with the chunk; the
                # merge keys every worker's events under its own Perfetto
                # process so parallel execution reads as parallel tracks.
                chunk_results = payload["results"]
                recorder.merge(payload["obs"], process=f"worker-{payload['pid']}")
                recorder.count("sweep.chunks")
            else:
                chunk_results = payload
            for index, result in zip(indices, chunk_results):
                results[index] = result
        return results  # type: ignore[return-value]


def run_grid(
    over: Mapping[str, Iterable[Any]],
    base: Optional[Simulation] = None,
    parallel: bool = False,
    **base_settings: Any,
) -> SweepResult:
    """One-shot helper: build a :class:`Sweep` and run it."""
    return Sweep(over, base=base, **base_settings).run(parallel=parallel)


__all__ = [
    "AxisPoint",
    "Sweep",
    "WorkerPool",
    "point",
    "run_grid",
    "shutdown_worker_pool",
    "worker_pool",
]
