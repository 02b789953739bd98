"""Packet-tier benchmark: fidelity contract, overhead ceiling, divergence.

Two fronts, both recorded into ``BENCH_packet_tier.json``:

* **overhead** — replays the fig12-scale workload on fabric-bound systems
  with the scalar engine and with ``fidelity="packet"`` (unbounded
  buffers).  The results must be bit-identical (the tier's fidelity
  contract) and the slowdown must stay under a pinned ceiling: the tier
  is two list-appends per transfer plus one vectorized replay at session
  end, not a second simulator.
* **congestion evidence** — replays the catalog congestion scenarios
  (`flash-crowd-incast`, `priority-inversion`, `hot-table-nmp-storm`)
  against their analytic twins and asserts each shows queueing effects
  the analytic tier cannot price: diverging completion time, nonzero
  credit backpressure or drop/retry counts, and nonzero queue-depth
  timelines.

Set ``REPRO_BENCH_SMOKE=1`` (the CI docs job does) for a shorter replay
with a relaxed ceiling and no baseline file.
"""

import json
import os
import pathlib
import time

from conftest import bench_environment, run_once, write_baseline

from repro.analysis.report import format_table
from repro.api.session import Simulation, clear_cache
from repro.experiments.common import DEFAULT_SCALE

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
NUM_BATCHES = 4 if SMOKE else 16
MODEL = "RMC2"
#: Fabric-bound systems: every lookup crosses links the tier instruments.
OVERHEAD_SYSTEMS = ("pond", "recnmp", "pifs-rec")
#: Aggregate packet/scalar wall-clock ceiling (the tier is an observer,
#: not a second simulator).  Measured ~1.4-1.9x per system.
OVERHEAD_CEILING = 3.5 if SMOKE else 2.5
REPEATS = 2 if SMOKE else 3

CONGESTION_SCENARIOS = ("flash-crowd-incast", "priority-inversion", "hot-table-nmp-storm")

BASELINE_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_packet_tier.json"


def _merge_baseline(section: str, payload: dict) -> None:
    """Update one section of the baseline file, preserving the other."""
    data = {}
    if BASELINE_PATH.exists():
        try:
            data = json.loads(BASELINE_PATH.read_text())
        except (ValueError, OSError):
            data = {}
    data.setdefault("benchmark", "packet_tier")
    data["recorded_unix"] = int(time.time())
    data["host"] = bench_environment()
    data[section] = payload
    write_baseline(BASELINE_PATH, data)


def _session(name, engine):
    sim = Simulation(name).model(MODEL).scale(DEFAULT_SCALE).num_batches(NUM_BATCHES)
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


def _strip_net(result) -> dict:
    data = result.to_dict()
    data.pop("net", None)
    return data


def _overhead_grid():
    rows = []
    for name in OVERHEAD_SYSTEMS:
        clear_cache()
        workload = _session(name, "scalar").build_workload()
        scalar_system = _session(name, "scalar").build_system()
        packet_system = _session(name, "packet").build_system()
        scalar_s, scalar_result = _best_of(REPEATS, scalar_system, workload)
        packet_s, packet_result = _best_of(REPEATS, packet_system, workload)
        assert _strip_net(scalar_result) == _strip_net(packet_result), (
            f"{name}: uncongested packet tier diverged from the scalar oracle"
        )
        net = packet_result.net
        assert net is not None and net.packets > 0
        assert not net.congested, f"{name}: unbounded buffers reported congestion"
        rows.append(
            {
                "system": name,
                "lookups": scalar_result.lookups,
                "packets": net.packets,
                "scalar_ms": scalar_s * 1e3,
                "packet_ms": packet_s * 1e3,
                "overhead": packet_s / scalar_s,
            }
        )
    return rows


def test_packet_overhead(benchmark):
    """Bit-identity + the overhead ceiling of the uncongested packet tier."""
    rows = run_once(benchmark, _overhead_grid)

    aggregate = sum(r["packet_ms"] for r in rows) / sum(r["scalar_ms"] for r in rows)

    print()
    print(format_table(
        ["system", "lookups", "packets", "scalar_ms", "packet_ms", "overhead"],
        [
            [r["system"], r["lookups"], r["packets"], r["scalar_ms"], r["packet_ms"], r["overhead"]]
            for r in rows
        ],
        float_format="{:,.2f}",
    ))
    print(f"aggregate packet-tier overhead: {aggregate:.2f}x (ceiling {OVERHEAD_CEILING}x)")

    _merge_baseline("overhead", {
        "description": "fig12-scale replay (model "
        f"{MODEL}, meta trace, {NUM_BATCHES} batches at the default "
        "evaluation scale), scalar engine vs fidelity='packet' with "
        f"unbounded buffers, best of {REPEATS} runs each",
        "entries": rows,
        "aggregate_overhead": aggregate,
        "ceiling": OVERHEAD_CEILING,
    })

    assert aggregate <= OVERHEAD_CEILING, (
        f"packet-tier overhead {aggregate:.2f}x above the {OVERHEAD_CEILING}x ceiling"
    )


def _congestion_grid():
    from repro.scenarios import catalog  # noqa: F401  (registers the catalog)
    from repro.scenarios.registry import scenario

    rows = []
    for name in CONGESTION_SCENARIOS:
        entry = scenario(name)
        analytic = entry.simulation(quick=True).engine("scalar").packet(None).run(cache=False)
        packet = entry.run(quick=True, cache=False)
        net = packet.net
        timeline_points = sum(
            1 for port in net.ports.values() for _t, depth in port.timeline if depth > 0
        )
        rows.append(
            {
                "scenario": name,
                "analytic_total_ns": analytic.total_ns,
                "packet_total_ns": packet.total_ns,
                "divergence_pct": 100.0 * (packet.total_ns / analytic.total_ns - 1.0),
                "backpressure_ns": net.backpressure_ns,
                "drops": net.drops,
                "retries": net.retries,
                "max_queue_depth": net.max_queue_depth,
                "congested_ports": sorted(net.congested_ports()),
                "nonzero_timeline_points": timeline_points,
            }
        )
    return rows


def test_congestion_divergence(benchmark):
    """Every catalog congestion scenario shows effects analytic tiers cannot."""
    rows = run_once(benchmark, _congestion_grid)

    print()
    print(format_table(
        ["scenario", "divergence_pct", "backpressure_ns", "drops", "max_depth"],
        [
            [r["scenario"], r["divergence_pct"], r["backpressure_ns"], r["drops"],
             r["max_queue_depth"]]
            for r in rows
        ],
        float_format="{:,.2f}",
    ))

    _merge_baseline("congestion", {
        "description": "catalog congestion scenarios (quick scale) vs "
        "their analytic twins: completion-time divergence and the "
        "queueing counters behind it",
        "entries": rows,
    })

    for row in rows:
        name = row["scenario"]
        # Queueing left visible marks: stalls or drop/retries, congested
        # ports, and nonzero queue-depth timelines.
        assert row["backpressure_ns"] > 0.0 or row["drops"] > 0, (
            f"{name}: no backpressure and no drops — not a congestion scenario"
        )
        assert row["congested_ports"], f"{name}: no port reported congestion"
        assert row["nonzero_timeline_points"] > 0, f"{name}: empty queue-depth timelines"
        # And completion time genuinely diverged from the analytic answer.
        assert row["divergence_pct"] > 0.1, (
            f"{name}: packet tier within 0.1% of the analytic tier "
            f"({row['divergence_pct']:.3f}%)"
        )
