"""Streaming serve benchmark: out-of-core replay at eager speed.

Drives one open-loop serving session per system twice — once with the
whole workload materialized, once streamed out-of-core
(:class:`~repro.traces.workload.StreamingWorkload`, lazy arrivals,
bounded-lookahead dispatch) — and pins the streaming promise from both
sides: the serving metrics (latency percentiles, per-request records,
goodput, backend counters) are bit-identical, and the streaming session
costs at most ``STREAM_CEILING`` of the eager wall-clock.  The closed-loop
replay path is pinned the same way.  Each repeat times the two sides back
to back, alternating which goes first, so a slow spell of the host lands
on both sides of a pair; the ceiling holds the median over repeats of the
paired streamed/eager ratio summed over the systems.  Records the
``BENCH_stream_serve.json`` trajectory baseline.

Set ``REPRO_BENCH_SMOKE=1`` for a shorter session with a relaxed ceiling
and no baseline file.
"""

import os
import pathlib
import statistics
import time

from conftest import bench_environment, paired_ratio, paired_seconds, run_once, write_baseline

from repro.analysis.report import format_table
from repro.api.session import Simulation, clear_cache
from repro.experiments.common import DEFAULT_SCALE
from repro.serve.server import ServeConfig, serve

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
NUM_BATCHES = 4 if SMOKE else 16
MODEL = "RMC1"
SYSTEMS = ("pifs-rec", "pond", "beacon")
#: Streaming wall-clock ceiling relative to eager (the ISSUE's 1.2x bound;
#: smoke sessions are too short to time stably, so the ceiling relaxes).
STREAM_CEILING = 1.5 if SMOKE else 1.2
REPEATS = 2 if SMOKE else 3
CONFIG = ServeConfig(qps=3e5, arrival="poisson", max_batch_size=8, seed=7)

BASELINE_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_stream_serve.json"


def _session(name, stream):
    sim = Simulation(name).model(MODEL).scale(DEFAULT_SCALE).num_batches(NUM_BATCHES)
    if stream:
        sim.stream()
    return sim


def _paired(repeats, run):
    """``repeats`` timings of ``run(stream)`` per side, the sides back to back.

    Even repeats run eager first, odd ones streamed first.  Returns the
    eager and the streamed seconds per repeat and each side's last result.
    """
    seconds, results = paired_seconds({False: lambda: run(False), True: lambda: run(True)}, repeats)
    return seconds[False], seconds[True], results[False], results[True]


def _median_paired_ratio(rows, mode):
    """The median over repeats of sum(streamed) / sum(eager) across ``rows``."""
    return paired_ratio(
        [r[f"stream_{mode}_ms"] for r in rows], [r[f"eager_{mode}_ms"] for r in rows]
    )


def _serve_once(name, stream):
    # Cold session each repeat: the eager path must pay workload
    # construction just as the streaming path regenerates the trace during
    # replay — that is the wall-clock a fresh serving session actually costs.
    clear_cache()
    session = _session(name, stream)
    system = session.build_system()
    workload = session.build_workload()
    return serve(system, workload, CONFIG)


def _run_once(name, stream):
    clear_cache()
    session = _session(name, stream)
    system = session.build_system()
    return system.run(session.build_workload())


def _stream_grid():
    rows = []
    for name in SYSTEMS:
        eager_s, stream_s, eager_serve, stream_serve = _paired(
            REPEATS, lambda stream: _serve_once(name, stream)
        )
        # Out-of-core replay must not change a single serving metric.
        assert eager_serve.latency.to_dict() == stream_serve.latency.to_dict(), (
            f"{name}: streaming serve latency percentiles diverged"
        )
        assert eager_serve.sim.to_dict() == stream_serve.sim.to_dict(), (
            f"{name}: streaming serve backend counters diverged"
        )
        assert eager_serve.records == stream_serve.records, (
            f"{name}: streaming serve per-request records diverged"
        )
        assert eager_serve.goodput_qps == stream_serve.goodput_qps

        eager_run_s, stream_run_s, eager_run, stream_run = _paired(
            REPEATS, lambda stream: _run_once(name, stream)
        )
        assert eager_run.to_dict() == stream_run.to_dict(), (
            f"{name}: streaming closed-loop replay diverged"
        )
        rows.append(
            {
                "system": name,
                "requests": eager_serve.requests,
                "eager_serve_ms": [t * 1e3 for t in eager_s],
                "stream_serve_ms": [t * 1e3 for t in stream_s],
                "eager_run_ms": [t * 1e3 for t in eager_run_s],
                "stream_run_ms": [t * 1e3 for t in stream_run_s],
            }
        )
    return rows


def test_stream_serve(benchmark):
    rows = run_once(benchmark, _stream_grid)
    serve_ratio = _median_paired_ratio(rows, "serve")
    run_ratio = _median_paired_ratio(rows, "run")

    median = statistics.median
    print()
    print(format_table(
        ["system", "requests", "eager_serve_ms", "stream_serve_ms",
         "eager_run_ms", "stream_run_ms"],
        [[r["system"], r["requests"], median(r["eager_serve_ms"]), median(r["stream_serve_ms"]),
          median(r["eager_run_ms"]), median(r["stream_run_ms"])]
         for r in rows],
        float_format="{:,.2f}",
    ))
    print(
        f"streaming/eager median paired ratio ({', '.join(SYSTEMS)}, "
        f"{REPEATS} repeats): serve {serve_ratio:.2f}x, closed-loop {run_ratio:.2f}x "
        f"(ceiling {STREAM_CEILING}x)"
    )

    write_baseline(BASELINE_PATH, {
        "benchmark": "stream_serve",
        "description": "open-loop serving + closed-loop replay "
        f"(model {MODEL}, {NUM_BATCHES} batches, poisson arrivals "
        f"at {CONFIG.qps:,.0f} qps, batch<= {CONFIG.max_batch_size}), "
        f"eager vs out-of-core streaming workload, {REPEATS} interleaved pairs, "
        "ms per repeat; ratios are the median paired ratio; metrics asserted "
        "bit-identical",
        "recorded_unix": int(time.time()),
        "host": bench_environment(),
        "entries": rows,
        "aggregate": {
            "systems": list(SYSTEMS),
            "serve_ratio": serve_ratio,
            "run_ratio": run_ratio,
        },
        "ceilings": {"stream_over_eager": STREAM_CEILING},
    })

    assert serve_ratio <= STREAM_CEILING, (
        f"streaming serve costs {serve_ratio:.2f}x eager "
        f"(ceiling {STREAM_CEILING}x)"
    )
    assert run_ratio <= STREAM_CEILING, (
        f"streaming closed-loop replay costs {run_ratio:.2f}x eager "
        f"(ceiling {STREAM_CEILING}x)"
    )
