"""Sweep-engine scaling benchmark: persistent pool vs. the legacy pool.

A multi-point parallel sweep (4 systems x 4-6 batch sizes, vector
engine; 16+ grid points) is executed through each engine mode, mimicking
how the experiment drivers chain sweeps: a warm-up sweep sharing the
measured grid's workloads, then the timed grid.

* ``reuse_pool=False`` (the PR-3 engine): a fresh fork pool per ``run()``
  call, one task per IPC round trip, every worker re-deriving the traces
  it touches — and everything torn down with the grid.
* ``reuse_pool=True`` (the persistent engine): the pool survives between
  sweeps, grid points are scheduled as chunks grouped by workload key,
  and each chunk ships its trace from the parent's cross-run cache.

The benchmark asserts the persistent engine returns results identical to
the serial path, pins the wall-clock floor, and records the
``BENCH_sweep_scaling.json`` baseline.  Set ``REPRO_BENCH_SMOKE=1`` for
fewer repetitions, a relaxed floor and no baseline file.
"""

import os
import pathlib
import time

from conftest import bench_environment, run_once, write_baseline

from repro.api.session import Simulation, clear_cache
from repro.api.sweep import Sweep, shutdown_worker_pool

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
REPEATS = 2 if SMOKE else 5
SWEEP_FLOOR = 1.1 if SMOKE else 1.5
PROCESSES = 4

#: Many cheap grid points: the regime where engine overhead (pool
#: startup, per-task IPC, per-worker trace re-derivation) is what a sweep
#: actually pays for, and exactly how the figure drivers use sweeps.
MEASURED_GRID = {
    "system": ["beacon", "recnmp", "pifs-rec", "tpp"],
    "batch_size": [4, 8, 16, 32],
}
#: Two systems per workload so the warm-up's chunks are multi-task — the
#: parent builds (and caches) each trace once, exactly like the figure
#: drivers' comparison sweeps.
WARMUP_GRID = {
    "system": ["pond", "pond+pm"],
    "batch_size": MEASURED_GRID["batch_size"],
}

BASELINE_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_sweep_scaling.json"


def _base():
    return Simulation().quick().num_batches(1).engine("vector")


def _measured_sweep():
    return Sweep(MEASURED_GRID, base=_base())


def _timed_sequence(reuse_pool):
    """Warm-up sweep then the timed 16-point grid, from a cold engine."""
    clear_cache()
    shutdown_worker_pool()
    Sweep(WARMUP_GRID, base=_base()).run(
        parallel=True, processes=PROCESSES, reuse_pool=reuse_pool, cache=False
    )
    started = time.perf_counter()
    result = _measured_sweep().run(
        parallel=True, processes=PROCESSES, reuse_pool=reuse_pool, cache=False
    )
    return time.perf_counter() - started, result


def _compare_engines():
    clear_cache()
    serial = _measured_sweep().run(parallel=False, cache=False)

    legacy_s = float("inf")
    persistent_s = float("inf")
    persistent = None
    for _ in range(REPEATS):
        elapsed, _result = _timed_sequence(reuse_pool=False)
        legacy_s = min(legacy_s, elapsed)
        elapsed, persistent = _timed_sequence(reuse_pool=True)
        persistent_s = min(persistent_s, elapsed)
    shutdown_worker_pool()

    # Parallel execution on the persistent pool is byte-identical to serial.
    assert [r.params for r in persistent] == [r.params for r in serial]
    assert [r.total_ns for r in persistent] == [r.total_ns for r in serial], (
        "persistent-pool sweep diverged from the serial path"
    )
    return {
        "points": len(serial),
        "legacy_ms": legacy_s * 1e3,
        "persistent_ms": persistent_s * 1e3,
        "speedup": legacy_s / persistent_s,
    }


def test_sweep_scaling(benchmark):
    row = run_once(benchmark, _compare_engines)

    print()
    print(
        f"{row['points']}-point parallel sweep ({PROCESSES} workers): "
        f"legacy fork-per-run pool {row['legacy_ms']:,.0f} ms, "
        f"persistent+chunked pool {row['persistent_ms']:,.0f} ms "
        f"({row['speedup']:.2f}x)"
    )

    write_baseline(BASELINE_PATH, {
        "benchmark": "sweep_scaling",
        "description": f"{row['points']}-point parallel sweep "
        f"({len(MEASURED_GRID['system'])} systems x "
        f"{len(MEASURED_GRID['batch_size'])} batch sizes, quick "
        "scale, vector engine) after a workload-sharing warm-up "
        "sweep: legacy fork-per-run pool vs the persistent chunked "
        f"pool, {PROCESSES} workers, best of {REPEATS} sequences "
        "each",
        "recorded_unix": int(time.time()),
        "host": bench_environment(),
        "entry": row,
        "floors": {"sweep_speedup": SWEEP_FLOOR},
    })

    assert row["speedup"] >= SWEEP_FLOOR, (
        f"persistent sweep engine {row['speedup']:.2f}x below the {SWEEP_FLOOR}x floor"
    )
