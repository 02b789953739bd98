"""Serve-path vectorization benchmark: scalar serve vs. vector serve.

Drives the open-loop serving pipeline (seeded Poisson arrivals, per-host
admission queues, dynamic batching, lane scheduling) end to end with both
engines: with ``engine="vector"`` the dispatch loop routes every dynamic
batch through :meth:`SLSSystem.service_batch_vector`, so the batch is
timed on the numpy-resolved fast path and the per-request cursors are
recovered from the batch result.  The benchmark asserts the two paths
produce identical serving metrics (percentiles, goodput, backend
counters), pins the serve-path throughput floor, and records the
``BENCH_serve_vector.json`` baseline.

Set ``REPRO_BENCH_SMOKE=1`` for a shorter session with relaxed floors and
no baseline file.
"""

import os
import pathlib
import time

from conftest import bench_environment, run_once, write_baseline

from repro.analysis.report import format_table
from repro.api.session import Simulation, clear_cache
from repro.experiments.common import DEFAULT_SCALE
from repro.serve.server import ServeConfig, serve

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
NUM_BATCHES = 4 if SMOKE else 16
MODEL = "RMC1"
#: The CLI's default serving comparison set.
SYSTEMS = ("pifs-rec", "pond", "beacon")
SERVE_FLOOR = 1.3 if SMOKE else 2.0
REPEATS = 2 if SMOKE else 3
CONFIG = ServeConfig(qps=3e5, arrival="poisson", max_batch_size=8, seed=7)

BASELINE_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_serve_vector.json"


def _session(name, engine):
    sim = Simulation(name).model(MODEL).scale(DEFAULT_SCALE).num_batches(NUM_BATCHES)
    if engine != "scalar":
        sim.engine(engine)
    return sim


def _best_serve(repeats, name, engine, workload):
    best, result = float("inf"), None
    for _ in range(repeats):
        system = _session(name, engine).build_system()
        started = time.perf_counter()
        result = serve(system, workload, CONFIG)
        best = min(best, time.perf_counter() - started)
    return best, result


def _serve_grid():
    rows = []
    for name in SYSTEMS:
        clear_cache()
        workload = _session(name, "scalar").build_workload()
        scalar_s, scalar_result = _best_serve(REPEATS, name, "scalar", workload)
        vector_s, vector_result = _best_serve(REPEATS, name, "vector", workload)
        # The vector serve path must not change a single serving metric.
        assert scalar_result.latency.to_dict() == vector_result.latency.to_dict(), (
            f"{name}: vector serve latency percentiles diverged"
        )
        assert scalar_result.sim.to_dict() == vector_result.sim.to_dict(), (
            f"{name}: vector serve backend counters diverged"
        )
        assert scalar_result.goodput_qps == vector_result.goodput_qps
        rows.append(
            {
                "system": name,
                "requests": scalar_result.requests,
                "scalar_ms": scalar_s * 1e3,
                "vector_ms": vector_s * 1e3,
                "speedup": scalar_s / vector_s,
            }
        )
    return rows


def test_serve_vectorization(benchmark):
    rows = run_once(benchmark, _serve_grid)

    aggregate = sum(r["scalar_ms"] for r in rows) / sum(r["vector_ms"] for r in rows)

    print()
    print(format_table(
        ["system", "requests", "scalar_ms", "vector_ms", "speedup"],
        [[r["system"], r["requests"], r["scalar_ms"], r["vector_ms"], r["speedup"]] for r in rows],
        float_format="{:,.2f}",
    ))
    print(f"serve-path aggregate ({', '.join(SYSTEMS)}): {aggregate:.2f}x")

    write_baseline(BASELINE_PATH, {
        "benchmark": "serve_vector",
        "description": "open-loop serving session (model "
        f"{MODEL}, {NUM_BATCHES} batches, poisson arrivals at "
        f"{CONFIG.qps:,.0f} qps, batch<= {CONFIG.max_batch_size}), "
        f"scalar vs vector serve path, best of {REPEATS} runs each",
        "recorded_unix": int(time.time()),
        "host": bench_environment(),
        "entries": rows,
        "aggregate": {
            "systems": list(SYSTEMS),
            "serve_speedup": aggregate,
        },
        "floors": {"serve_aggregate": SERVE_FLOOR},
    })

    assert aggregate >= SERVE_FLOOR, (
        f"serve-path vector speedup {aggregate:.2f}x below the {SERVE_FLOOR}x floor"
    )
