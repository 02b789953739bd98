"""Fleet scaling benchmark: 8-shard pooled vs serial execution.

A ~1M-request streamed trace (vector engine, table-affinity router) is
replayed across 8 fleet shards twice: serially in-process
(``Fleet.run(workers=0)``) and across the persistent worker pool
(``workers=8``, each shard shipped as a small stream-handle view — the
parent never materializes the trace).  The benchmark asserts the two
paths return byte-identical fleet results, reports the fleet goodput and
(from a pooled open-loop session) the fleet tail latency, and records
the ``BENCH_fleet_scaling.json`` baseline.

The pinned floor is parallel speedup, so it is conditioned on the host
actually having cores to scale onto:

* ``cpus >= 2``: pooled must beat serial by ``POOLED_FLOOR`` (1.5x full,
  1.1x relaxed under ``REPRO_BENCH_SMOKE=1`` — the CI floor).
* ``cpus == 1``: parallel speedup is physically impossible, so the bench
  degrades to pinning the orchestration overhead instead — pooled
  wall-clock must stay within ``OVERHEAD_CEILING`` of serial.  The
  recorded baseline keeps the multi-core CI floor and notes which bound
  was applied (the host's CPU count is in the environment block).
"""

import os
import pathlib
import time

from conftest import bench_environment, run_once, write_baseline

from repro.api.session import Simulation, clear_cache
from repro.api.sweep import shutdown_worker_pool, worker_pool
from repro.experiments.common import DEFAULT_SCALE
from repro.fleet import Fleet
from repro.serve.server import ServeConfig

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
SHARDS = 8
WORKERS = 8
ROUTER = "table-affinity"
BATCH_SIZE = 64
#: 2048 batches x 8 tables x 64 queries ~= 1.05M requests (the ISSUE's
#: ~1M-request trace); smoke sessions replay a 32k-request slice.
NUM_BATCHES = 64 if SMOKE else 2048
SERVE_BATCHES = 16 if SMOKE else 64
REPEATS = 2

POOLED_FLOOR = 1.1 if SMOKE else 1.5
#: Single-core fallback: pooled execution may pay IPC/scheduling overhead
#: but must stay within this ceiling of the serial wall-clock.
OVERHEAD_CEILING = 1.6
PARALLEL_HOST = (os.cpu_count() or 1) >= 2

BASELINE_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_fleet_scaling.json"


def _fleet_spec(num_batches=None):
    return (
        Simulation()
        .scale(DEFAULT_SCALE)
        .engine("vector")
        .batch_size(BATCH_SIZE)
        .num_batches(num_batches or NUM_BATCHES)
        .stream()
        .fleet(SHARDS, router=ROUTER)
        .spec()
    )


def _best(repeats, run):
    best, result = float("inf"), None
    for _ in range(repeats):
        started = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - started)
    return best, result


def _compare_modes():
    clear_cache()
    shutdown_worker_pool()
    fleet = Fleet(_fleet_spec())

    # The parent holds the trace as a handle, never as materialized
    # requests: every shard ships as a small path+range+router view.
    import pickle

    for view in fleet.shard_workloads():
        payload = pickle.dumps(view)
        assert len(payload) < 4096, (
            f"shard view pickled to {len(payload)} bytes — not a handle"
        )

    # Warm what both modes share: the counted stream handle and the pool
    # (the persistent-pool regime every chained fleet session runs in).
    # The tiny pooled fleet run pays the workers' first-task imports so the
    # timed comparison measures shard execution, not interpreter startup.
    fleet._shared_workload()
    worker_pool().get(WORKERS)
    Fleet(_fleet_spec(2)).run(workers=WORKERS)

    serial_s, serial = _best(REPEATS, lambda: Fleet(_fleet_spec()).run(workers=0))
    pooled_s, pooled = _best(REPEATS, lambda: Fleet(_fleet_spec()).run(workers=WORKERS))

    # Pooled execution must not change a single number.
    assert serial.to_dict() == pooled.to_dict(), (
        "pooled fleet execution diverged from the serial path"
    )

    # Fleet tail latency from a pooled open-loop session on a shorter
    # slice of the same trace (serving is per-request work; the scaling
    # measurement above stays closed-loop).
    serve_result = Fleet(_fleet_spec(SERVE_BATCHES)).serve(
        ServeConfig(qps=3e5, arrival="poisson", seed=7, sla_ns=5e6),
        workers=WORKERS,
    )
    assert serve_result.latency.is_finite(), "fleet serve latency not finite"

    shutdown_worker_pool()
    return {
        "shards": SHARDS,
        "workers": WORKERS,
        "router": ROUTER,
        "requests": serial.requests,
        "lookups": serial.lookups,
        "serial_ms": serial_s * 1e3,
        "pooled_ms": pooled_s * 1e3,
        "speedup": serial_s / pooled_s,
        "goodput_lookups_per_us": serial.goodput_lookups_per_us,
        "serve_requests": serve_result.requests,
        "serve_p99_ns": serve_result.latency.p99_ns,
        "serve_goodput_qps": serve_result.goodput_qps,
    }


def test_fleet_scaling(benchmark):
    row = run_once(benchmark, _compare_modes)

    print()
    print(
        f"{row['requests']:,}-request streamed trace across {SHARDS} shards "
        f"({ROUTER} router): serial {row['serial_ms']:,.0f} ms, "
        f"pooled x{WORKERS} {row['pooled_ms']:,.0f} ms "
        f"({row['speedup']:.2f}x), fleet goodput "
        f"{row['goodput_lookups_per_us']:,.1f} lookups/us"
    )
    print(
        f"fleet serve ({row['serve_requests']:,} requests): "
        f"p99 {row['serve_p99_ns']:,.0f} ns, "
        f"goodput {row['serve_goodput_qps']:,.0f} qps"
    )
    applied = (
        {"fleet_pooled_speedup": POOLED_FLOOR}
        if PARALLEL_HOST
        else {"fleet_pooled_overhead_ceiling": OVERHEAD_CEILING}
    )
    if not PARALLEL_HOST:
        print(
            "single-CPU host: parallel speedup impossible, pinning the "
            f"pooled overhead ceiling ({OVERHEAD_CEILING}x) instead of the "
            f"{POOLED_FLOOR}x CI floor"
        )

    write_baseline(BASELINE_PATH, {
        "benchmark": "fleet_scaling",
        "description": f"{row['requests']:,}-request streamed trace "
        f"({NUM_BATCHES} batches x {BATCH_SIZE} queries, vector "
        f"engine) replayed across {SHARDS} fleet shards behind the "
        f"{ROUTER} router: in-process serial vs the persistent "
        f"{WORKERS}-worker pool (results asserted byte-identical), "
        f"best of {REPEATS}; plus a pooled open-loop session for "
        "the fleet tail latency",
        "recorded_unix": int(time.time()),
        "host": bench_environment(),
        "entry": row,
        "floors": {"fleet_pooled_speedup": 1.5, "applied": applied},
    })

    if PARALLEL_HOST:
        assert row["speedup"] >= POOLED_FLOOR, (
            f"pooled fleet execution {row['speedup']:.2f}x below the "
            f"{POOLED_FLOOR}x floor"
        )
    else:
        assert row["pooled_ms"] <= row["serial_ms"] * OVERHEAD_CEILING, (
            f"pooled fleet overhead {row['pooled_ms'] / row['serial_ms']:.2f}x "
            f"exceeds the single-core {OVERHEAD_CEILING}x ceiling"
        )
