"""Sweep-engine scaling benchmark: persistent pool vs. a fork-per-sweep pool.

A multi-point parallel sweep (4 systems x 4-6 batch sizes, vector
engine; 16+ grid points) is executed through each engine, mimicking
how the experiment drivers chain sweeps: a warm-up sweep sharing the
measured grid's workloads, then the timed grid.

* legacy (the comparator, built here): a fresh fork pool per sweep that
  runs ``execute_spec`` once per grid point — one task per IPC round
  trip, every worker re-deriving the traces it touches, and everything
  torn down with the grid.
* persistent (``Sweep.run``): the pool survives between sweeps, grid
  points are scheduled as chunks grouped by workload key, and each chunk
  ships its trace from the parent's cross-run cache.

The benchmark asserts the persistent engine returns results identical to
the serial path, pins the wall-clock floor, and records the
``BENCH_sweep_scaling.json`` baseline.  Each repeat times the two engines
back to back, alternating which goes first, so a slow spell of the host
lands on both sides of a pair; the floor holds the median over repeats of
the paired legacy/persistent ratio.  Set ``REPRO_BENCH_SMOKE=1`` for
fewer repetitions, a relaxed floor and no baseline file.
"""

import os
import pathlib
import statistics
import time

from conftest import bench_environment, run_once, write_baseline

from repro.api.session import Simulation, clear_cache, execute_spec, safe_spec_key
from repro.api.sweep import Sweep, _pool_context, shutdown_worker_pool

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


def _legacy_run(sweep):
    """Run every grid point in a fresh fork pool, one ``execute_spec`` each."""
    specs = [sim.spec() for sim, _ in sweep.simulations()]
    tasks = [(spec, safe_spec_key(spec) or "") for spec in specs]
    with _pool_context().Pool(processes=PROCESSES) as pool:
        return pool.starmap(execute_spec, tasks)


def _persistent_run(sweep):
    return sweep.run(parallel=True, processes=PROCESSES, cache=False)


def _timed_sequence(run):
    """Warm-up sweep then the timed 16-point grid, from a cold engine."""
    clear_cache()
    shutdown_worker_pool()
    run(Sweep(WARMUP_GRID, base=_base()))
    started = time.perf_counter()
    result = run(_measured_sweep())
    return time.perf_counter() - started, result


def _compare_engines():
    clear_cache()
    serial = _measured_sweep().run(parallel=False, cache=False)

    runs = {"legacy": _legacy_run, "persistent": _persistent_run}
    seconds = {"legacy": [], "persistent": []}
    persistent = None
    for repeat in range(REPEATS):
        order = ("legacy", "persistent") if repeat % 2 == 0 else ("persistent", "legacy")
        for engine in order:
            elapsed, result = _timed_sequence(runs[engine])
            seconds[engine].append(elapsed)
            if engine == "persistent":
                persistent = result
    shutdown_worker_pool()

    # Parallel execution on the persistent pool is byte-identical to serial.
    assert [r.params for r in persistent] == [r.params for r in serial]
    assert [r.total_ns for r in persistent] == [r.total_ns for r in serial], (
        "persistent-pool sweep diverged from the serial path"
    )
    legacy_s, persistent_s = seconds["legacy"], seconds["persistent"]
    return {
        "points": len(serial),
        "legacy_ms": statistics.median(legacy_s) * 1e3,
        "persistent_ms": statistics.median(persistent_s) * 1e3,
        "speedup": statistics.median(
            legacy / persistent for legacy, persistent in zip(legacy_s, persistent_s)
        ),
        # The best-of-N ratio the floor held before pairing, for comparison.
        "best_of_speedup": min(legacy_s) / min(persistent_s),
    }


def test_sweep_scaling(benchmark):
    row = run_once(benchmark, _compare_engines)

    print()
    print(
        f"{row['points']}-point parallel sweep ({PROCESSES} workers): "
        f"legacy fork-per-run pool {row['legacy_ms']:,.0f} ms, "
        f"persistent+chunked pool {row['persistent_ms']:,.0f} ms (medians); "
        f"median paired ratio {row['speedup']:.2f}x, best-of-{REPEATS} ratio "
        f"{row['best_of_speedup']:.2f}x"
    )

    write_baseline(BASELINE_PATH, {
        "benchmark": "sweep_scaling",
        "description": f"{row['points']}-point parallel sweep "
        f"({len(MEASURED_GRID['system'])} systems x "
        f"{len(MEASURED_GRID['batch_size'])} batch sizes, quick "
        "scale, vector engine) after a workload-sharing warm-up "
        "sweep: legacy fork-per-run pool vs the persistent chunked "
        f"pool, {PROCESSES} workers, {REPEATS} back-to-back pairs of "
        "sequences (alternating order); times are medians, speedup the "
        "median paired ratio",
        "recorded_unix": int(time.time()),
        "host": bench_environment(),
        "entry": row,
        "floors": {"sweep_speedup": SWEEP_FLOOR},
    })

    assert row["speedup"] >= SWEEP_FLOOR, (
        f"persistent sweep engine {row['speedup']:.2f}x below the {SWEEP_FLOOR}x floor"
    )
