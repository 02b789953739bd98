"""Engine vectorization benchmark: scalar oracle vs. the batched engine.

Replays the Fig 12 evaluation workload (the default evaluation scale, RMC2,
meta trace) on every Fig 12 scheme with both engines, asserts the results
are numerically identical, pins the speedup floors, and records the first
``BENCH_engine_vectorization.json`` baseline so later PRs can track the
performance trajectory.

Two floors are pinned:

* the **host-centric** schemes (Pond, Pond+PM, BEACON) — whose replay loop
  was pure per-lookup Python overhead — must aggregate to >= 5x;
* the **full Fig 12 grid** (adding RecNMP and PIFS-Rec, whose scalar paths
  are structurally leaner, so their headroom is smaller) must aggregate to
  >= 3x.

Set ``REPRO_BENCH_SMOKE=1`` (the CI docs job does) for a shorter replay
with relaxed floors and no baseline file.
"""

import os
import pathlib
import time

from conftest import bench_environment, run_once, write_baseline

from repro.analysis.report import format_table
from repro.api.session import Simulation, clear_cache
from repro.experiments.common import DEFAULT_SCALE
from repro.experiments.fig12 import FIG12_SYSTEMS

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
#: More batches than the figure sweeps so per-session fixed costs (kernel
#: construction, placement profiling) amortize the way long replays do.
NUM_BATCHES = 4 if SMOKE else 16
MODEL = "RMC2"
HOST_CENTRIC = ("pond", "pond+pm", "beacon")
HOST_CENTRIC_FLOOR = 3.0 if SMOKE else 5.0
FULL_GRID_FLOOR = 2.0 if SMOKE else 3.0
REPEATS = 2 if SMOKE else 3

BASELINE_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_engine_vectorization.json"
FABRIC_BASELINE_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_fabric_kernels.json"

#: The systems whose replay is dominated by the switch/fabric kernels (the
#: in-switch accumulation path or, for RecNMP, per-row fabric commands).
FABRIC_SYSTEMS = ("recnmp", "pifs-rec", "pifs-rec-nopm", "beacon")
FABRIC_MODEL = "RMC1"
#: Aggregate floor over every fabric-kernel system.
FABRIC_FLOOR = 2.5 if SMOKE else 4.0
#: Floor for PIFS-Rec alone (the paper's system).
FABRIC_PIFS_FLOOR = 2.0 if SMOKE else 3.0
#: Floor for the recnmp+pifs-rec pair the PR-4 rewrite targeted.  RecNMP's
#: scalar path is structurally lean (no object-stack walk per lookup), so
#: its own ceiling is ~2x and the pair lands lower than the full set.
FABRIC_PAIR_FLOOR = 1.5 if SMOKE else 2.4


def _session(name, engine, model=MODEL):
    sim = Simulation(name).model(model).scale(DEFAULT_SCALE).num_batches(NUM_BATCHES)
    if engine != "scalar":
        sim.engine(engine)
    return sim


def _best_of(repeats, system, workload):
    best, result = float("inf"), None
    for _ in range(repeats):
        started = time.perf_counter()
        result = system.run(workload)
        best = min(best, time.perf_counter() - started)
    return best, result


def _replay_grid():
    rows = []
    for name in FIG12_SYSTEMS:
        clear_cache()
        workload = _session(name, "scalar").build_workload()
        scalar_system = _session(name, "scalar").build_system()
        vector_system = _session(name, "vector").build_system()
        scalar_s, scalar_result = _best_of(REPEATS, scalar_system, workload)
        vector_s, vector_result = _best_of(REPEATS, vector_system, workload)
        assert vector_system._vector_fallback_reason is None, f"{name}: vector context missing"
        assert scalar_result.to_dict() == vector_result.to_dict(), (
            f"{name}: vector engine diverged from the scalar oracle"
        )
        rows.append(
            {
                "system": name,
                "lookups": scalar_result.lookups,
                "scalar_ms": scalar_s * 1e3,
                "vector_ms": vector_s * 1e3,
                "speedup": scalar_s / vector_s,
            }
        )
    return rows


def test_engine_vectorization(benchmark):
    rows = run_once(benchmark, _replay_grid)

    scalar_total = sum(row["scalar_ms"] for row in rows)
    vector_total = sum(row["vector_ms"] for row in rows)
    host_scalar = sum(r["scalar_ms"] for r in rows if r["system"] in HOST_CENTRIC)
    host_vector = sum(r["vector_ms"] for r in rows if r["system"] in HOST_CENTRIC)
    full_speedup = scalar_total / vector_total
    host_speedup = host_scalar / host_vector

    print()
    print(format_table(
        ["system", "lookups", "scalar_ms", "vector_ms", "speedup"],
        [[r["system"], r["lookups"], r["scalar_ms"], r["vector_ms"], r["speedup"]] for r in rows],
        float_format="{:,.2f}",
    ))
    print(f"host-centric aggregate ({', '.join(HOST_CENTRIC)}): {host_speedup:.2f}x")
    print(f"full fig12 grid aggregate: {full_speedup:.2f}x")

    write_baseline(BASELINE_PATH, {
        "benchmark": "engine_vectorization",
        "description": "fig12-scale replay (model RMC2, meta trace, "
        f"{NUM_BATCHES} batches at the default evaluation scale), "
        "scalar vs vector engine, best of "
        f"{REPEATS} runs each",
        "recorded_unix": int(time.time()),
        "host": bench_environment(),
        "entries": rows,
        "aggregate": {
            "host_centric_systems": list(HOST_CENTRIC),
            "host_centric_speedup": host_speedup,
            "full_grid_speedup": full_speedup,
        },
        "floors": {
            "host_centric": HOST_CENTRIC_FLOOR,
            "full_grid": FULL_GRID_FLOOR,
        },
    })

    # The host-centric replay loop was pure interpreter overhead: the batched
    # engine must clear 5x there.  RecNMP/PIFS-Rec spend real work in shared
    # policy/buffer code, so the full-grid floor is lower.
    assert host_speedup >= HOST_CENTRIC_FLOOR, (
        f"host-centric replay speedup {host_speedup:.2f}x below the "
        f"{HOST_CENTRIC_FLOOR}x floor"
    )
    assert full_speedup >= FULL_GRID_FLOOR, (
        f"full-grid replay speedup {full_speedup:.2f}x below the {FULL_GRID_FLOOR}x floor"
    )


def _fabric_grid():
    rows = []
    for name in FABRIC_SYSTEMS:
        clear_cache()
        workload = _session(name, "scalar", FABRIC_MODEL).build_workload()
        scalar_system = _session(name, "scalar", FABRIC_MODEL).build_system()
        vector_system = _session(name, "vector", FABRIC_MODEL).build_system()
        scalar_s, scalar_result = _best_of(REPEATS, scalar_system, workload)
        vector_s, vector_result = _best_of(REPEATS, vector_system, workload)
        assert vector_system._vector_fallback_reason is None, f"{name}: vector context missing"
        assert scalar_result.to_dict() == vector_result.to_dict(), (
            f"{name}: vector engine diverged from the scalar oracle"
        )
        rows.append(
            {
                "system": name,
                "lookups": scalar_result.lookups,
                "scalar_ms": scalar_s * 1e3,
                "vector_ms": vector_s * 1e3,
                "speedup": scalar_s / vector_s,
            }
        )
    return rows


def test_fabric_kernels(benchmark):
    """The PR-4 fabric-kernel front: in-switch/fabric systems, fig12 scale.

    Replays the fig12-scale workload (model RMC1) on every system whose
    vector path runs through the rewritten switch/fabric kernels, pins the
    per-system and aggregate speedup floors, and records the
    ``BENCH_fabric_kernels.json`` baseline.
    """
    rows = run_once(benchmark, _fabric_grid)
    by_name = {row["system"]: row for row in rows}

    fabric_speedup = sum(r["scalar_ms"] for r in rows) / sum(r["vector_ms"] for r in rows)
    pair = [by_name["recnmp"], by_name["pifs-rec"]]
    pair_speedup = sum(r["scalar_ms"] for r in pair) / sum(r["vector_ms"] for r in pair)
    pifs_speedup = by_name["pifs-rec"]["speedup"]

    print()
    print(format_table(
        ["system", "lookups", "scalar_ms", "vector_ms", "speedup"],
        [[r["system"], r["lookups"], r["scalar_ms"], r["vector_ms"], r["speedup"]] for r in rows],
        float_format="{:,.2f}",
    ))
    print(f"fabric-kernel aggregate ({', '.join(FABRIC_SYSTEMS)}): {fabric_speedup:.2f}x")
    print(f"recnmp+pifs-rec pair: {pair_speedup:.2f}x")

    write_baseline(FABRIC_BASELINE_PATH, {
        "benchmark": "fabric_kernels",
        "description": "fig12-scale replay (model "
        f"{FABRIC_MODEL}, meta trace, {NUM_BATCHES} batches at the "
        "default evaluation scale) of the fabric/in-switch systems, "
        f"scalar vs vector engine, best of {REPEATS} runs each",
        "recorded_unix": int(time.time()),
        "host": bench_environment(),
        "entries": rows,
        "aggregate": {
            "fabric_systems": list(FABRIC_SYSTEMS),
            "fabric_speedup": fabric_speedup,
            "recnmp_pifs_pair_speedup": pair_speedup,
            "pifs_rec_speedup": pifs_speedup,
        },
        "floors": {
            "fabric_aggregate": FABRIC_FLOOR,
            "pifs_rec": FABRIC_PIFS_FLOOR,
            "recnmp_pifs_pair": FABRIC_PAIR_FLOOR,
        },
    })

    assert fabric_speedup >= FABRIC_FLOOR, (
        f"fabric-kernel aggregate {fabric_speedup:.2f}x below the {FABRIC_FLOOR}x floor"
    )
    assert pifs_speedup >= FABRIC_PIFS_FLOOR, (
        f"pifs-rec speedup {pifs_speedup:.2f}x below the {FABRIC_PIFS_FLOOR}x floor"
    )
    assert pair_speedup >= FABRIC_PAIR_FLOOR, (
        f"recnmp+pifs-rec pair {pair_speedup:.2f}x below the {FABRIC_PAIR_FLOOR}x floor"
    )
