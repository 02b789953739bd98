"""Command-line interface of the reproduction (``python -m repro``).

Subcommands:

* ``run`` — one simulation session: ``python -m repro run pifs-rec --quick``
* ``sweep`` — a declarative grid: ``python -m repro sweep --system pond
  --system pifs-rec --batch-size 8 --batch-size 64 --quick``
* ``serve`` — online open-loop serving with tail-latency metrics:
  ``python -m repro serve pifs-rec --qps 2e5 --arrival poisson --sla-ms 5``
  (``--all --smoke`` is the CI guard: one short session per registered
  system, failing on unknown systems or non-finite percentiles)
* ``compare`` — every (or selected) system on one workload, normalized and
  with speedups against a baseline
* ``figures`` — regenerate every figure/table of the paper (subsumes the
  old ``python -m repro.experiments.runner``)
* ``bench`` — run the performance benchmark suite and record/update the
  ``BENCH_*.json`` baselines, the only way they are written (``--smoke``
  for the relaxed CI mode, which records nothing)
* ``scenario`` — the named-scenario catalog (workload mixes, popularity
  drift, trace files, fault injection): ``python -m repro scenario
  list|run|compare`` (``run --all --smoke`` is the CI guard)
* ``trace`` — observed sessions with Chrome/Perfetto ``trace_event``
  export: ``python -m repro trace run|serve|scenario ... --out trace.json``
  (``trace run <system> --smoke`` is the CI guard: quick scale plus
  schema validation of the emitted trace)
* ``fleet`` — sharded datacenter-scale simulation: N per-rack systems
  behind a request router: ``python -m repro fleet run|serve --shards 8
  --router table-affinity`` (``fleet run --smoke`` is the CI guard)
* ``systems`` — list the registered systems

Also installed as the ``pifs-rec`` console script.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.api.registry import UnknownSystemError, available_systems
from repro.scenarios.registry import UnknownScenarioError
from repro.api.results import SweepResult
from repro.api.session import Simulation
from repro.api.sweep import Sweep


def _add_scale_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run at the reduced 'quick' evaluation scale (smaller models, "
        "fewer batches; seconds instead of minutes)",
    )


def _add_machine_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--hosts", type=int, default=None, metavar="N",
        help="concurrent hosts sharing the CXL pool (default: 1)",
    )
    parser.add_argument(
        "--switches", type=int, default=None, metavar="N",
        help="fabric switches; hosts and devices are spread across them (default: 1)",
    )
    parser.add_argument(
        "--devices", type=int, default=None, metavar="N",
        help="CXL Type 3 memory devices behind the switches (default: 4)",
    )
    parser.add_argument(
        "--engine",
        choices=["scalar", "vector", "packet"],
        default=None,
        help="replay fidelity: 'scalar' walks the device models per lookup "
        "(the oracle), 'vector' resolves lookup batches as numpy arrays "
        "through flattened kernels — numerically identical, several times "
        "faster; 'packet' attaches per-port packet queues to every fabric "
        "link — identical to scalar when uncongested, and reporting "
        "queue depths, drops and backpressure (default: scalar)",
    )
    _add_stream_argument(parser)


def _add_stream_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--stream",
        action="store_true",
        help="stream the workload out-of-core: requests are materialized "
        "window by window (and serve consumes arrivals lazily), so peak "
        "memory stays proportional to the active window instead of the "
        "whole trace; every simulated number is bit-identical to the "
        "eager path",
    )


def _base_simulation(args: argparse.Namespace, system: str = "pifs-rec") -> Simulation:
    sim = Simulation(system)
    if args.quick:
        sim.quick()
    for setting in ("hosts", "switches", "devices", "engine"):
        value = getattr(args, setting, None)
        if value is not None:
            sim.apply(**{setting: value})
    if getattr(args, "num_batches", None) is not None:
        sim.num_batches(args.num_batches)
    if getattr(args, "stream", False):
        sim.stream()
    return sim


def _print_sweep(result: SweepResult, as_json: bool, metrics: Sequence[str]) -> None:
    if as_json:
        print(result.to_json(indent=2))
    else:
        print(result.table(metrics=metrics))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------
def _cmd_run(args: argparse.Namespace) -> int:
    sim = _base_simulation(args, args.system).model(args.model)
    if args.batch_size is not None:
        sim.batch_size(args.batch_size)
    if args.distribution is not None:
        sim.distribution(args.distribution)
    run = sim.run()
    if args.json:
        print(run.to_json(indent=2))
        return 0
    print(f"system        : {run.system}")
    if run.params.get("engine"):
        print(f"engine        : {run.params['engine']}")
    print(f"model         : {run.model}  (trace: {run.params['distribution']})")
    print(
        f"machine       : {run.params['hosts']} host(s), "
        f"{run.params['switches']} switch(es), {run.params['devices']} CXL device(s)"
    )
    print(f"total latency : {run.total_ns:,.0f} ns for {run.sim.lookups} lookups")
    print(f"per lookup    : {run.latency_per_lookup_ns:,.2f} ns")
    print(f"local / CXL   : {run.sim.local_rows} / {run.sim.cxl_rows} rows")
    if run.sim.buffer_hits or run.sim.buffer_misses:
        print(f"buffer hits   : {run.sim.buffer_hit_ratio:.1%}")
    if run.sim.migrations:
        print(f"migrations    : {run.sim.migrations} ({run.sim.migration_cost_fraction:.2%} of time)")
    if run.sim.net is not None:
        net = run.sim.net
        print(
            f"packet tier   : {net.packets} packets, max queue depth "
            f"{net.max_queue_depth}, {net.drops} drops, "
            f"{net.backpressure_ns:,.0f} ns backpressure"
        )
        congested = net.congested_ports()
        if congested:
            print(f"congested     : {', '.join(congested)}")
    return 0


#: Default comparison set for ``python -m repro serve`` with no systems named.
DEFAULT_SERVE_SYSTEMS = ("pifs-rec", "pond", "beacon")


def _cmd_serve(args: argparse.Namespace) -> int:
    import math

    from repro.analysis.report import format_table

    if args.all:
        systems = list(available_systems())
    elif args.system:
        systems = _dedupe(args.system)
    else:
        systems = list(DEFAULT_SERVE_SYSTEMS)
    if args.smoke:
        args.quick = True
    sla_ns = args.sla_ms * 1e6 if args.sla_ms is not None else None

    serve_kwargs = dict(
        arrival=args.arrival,
        max_batch_size=args.max_batch,
        max_wait_ns=args.max_wait_us * 1e3,
        seed=args.seed,
        sla_ns=sla_ns,
    )
    results = []
    failures = []
    for name in systems:
        sim = _base_simulation(args, name).model(args.model)
        try:
            result = sim.serve(args.qps, **serve_kwargs)
        except Exception as error:  # smoke mode reports every broken system
            if not args.smoke:
                raise
            failures.append(f"{name}: {type(error).__name__}: {error}")
            continue
        if not result.latency.is_finite():
            failures.append(f"{name}: non-finite latency percentile")
            continue
        results.append((name, result))

    sla_sweeps = {}
    if args.find_max_qps:
        if sla_ns is None:
            print("error: --find-max-qps requires --sla-ms", file=sys.stderr)
            return 2
        bounds = (args.qps_min, args.qps_max)
        for name in systems:
            sweep = (
                _base_simulation(args, name)
                .model(args.model)
                .sla_sweep(
                    sla_ns,
                    bounds,
                    arrival=args.arrival,
                    max_batch_size=args.max_batch,
                    max_wait_ns=args.max_wait_us * 1e3,
                    seed=args.seed,
                )
            )
            if not math.isfinite(sweep.max_sustainable_qps):
                failures.append(f"{name}: non-finite sustainable QPS")
                continue
            sla_sweeps[name] = sweep

    if args.json:
        import json

        payload = {"results": [result.to_dict() for _, result in results]}
        if sla_sweeps:
            payload["sla_sweeps"] = {
                name: sweep.to_dict() for name, sweep in sla_sweeps.items()
            }
        print(json.dumps(payload, indent=2))
    else:
        rows = [
            [
                name,
                result.latency.p50_ns,
                result.latency.p95_ns,
                result.latency.p99_ns,
                result.goodput_qps,
                result.sla_attainment,
                result.max_queue_depth,
            ]
            for name, result in results
        ]
        print(
            f"open-loop serving: model {args.model}, {args.qps:,.0f} qps offered, "
            f"{args.arrival} arrivals, batch<= {args.max_batch}, "
            f"max wait {args.max_wait_us:,.0f} us"
            + (f", SLA {args.sla_ms} ms" if args.sla_ms is not None else "")
        )
        print(format_table(
            ["system", "p50_ns", "p95_ns", "p99_ns", "goodput_qps", "sla_attain", "max_queue"],
            rows,
        ))
        net_rows = [
            [
                name,
                result.sim.net.packets,
                result.sim.net.max_queue_depth,
                result.sim.net.drops,
                result.sim.net.retries,
                result.sim.net.backpressure_ns,
            ]
            for name, result in results
            if result.sim is not None and result.sim.net is not None
        ]
        if net_rows:
            print()
            print("packet tier (per-port queues on every fabric link):")
            print(format_table(
                ["system", "packets", "max_depth", "drops", "retries", "backpressure_ns"],
                net_rows,
            ))
        if sla_sweeps:
            print()
            print(f"max sustainable QPS under a {args.sla_ms} ms p99 budget:")
            print(format_table(
                ["system", "max_qps", "probes"],
                [
                    [name, sweep.max_sustainable_qps, len(sweep.probes)]
                    for name, sweep in sla_sweeps.items()
                ],
            ))

    for failure in failures:
        print(f"serve failure: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _dedupe(values):
    """Drop repeated axis values while preserving order."""
    return list(dict.fromkeys(values))


def _cmd_sweep(args: argparse.Namespace) -> int:
    over = {}
    if args.system:
        over["system"] = _dedupe(args.system)
    if args.model:
        over["model"] = _dedupe(args.model)
    if args.batch_size:
        over["batch_size"] = _dedupe(args.batch_size)
    if args.distribution:
        over["distribution"] = _dedupe(args.distribution)
    if not over:
        over = {"system": list(available_systems())}
    result = Sweep(over, base=_base_simulation(args)).run(parallel=not args.serial, processes=args.jobs)
    _print_sweep(result, args.json, metrics=("total_ns", "latency_per_lookup_ns"))
    if not args.json and over.get("system") and len(over["system"]) > 1:
        baseline_runs = result.where(system=over["system"][0])
        print()
        baseline_name = over["system"][0]
        print(f"speedup over {baseline_name!r} at equal coordinates:")
        for run in result:
            if run.params["system"] == baseline_name:
                continue
            reference = next(
                b for b in baseline_runs
                if {k: v for k, v in b.params.items() if k != "system"}
                == {k: v for k, v in run.params.items() if k != "system"}
            )
            coords = ", ".join(
                f"{key}={value}" for key, value in run.params.items()
                if key != "system" and len(result.axis_values(key)) > 1
            )
            print(f"  {run.params['system']:>14} [{coords}]: {run.speedup_over(reference):.2f}x")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    systems = _dedupe(args.system or available_systems())
    if args.baseline not in systems:
        systems = [args.baseline, *systems]
    sim = _base_simulation(args).model(args.model)
    if args.batch_size is not None:
        sim.batch_size(args.batch_size)
    result = Sweep({"system": systems}, base=sim).run(parallel=not args.serial, processes=args.jobs)
    if args.json:
        print(result.to_json(indent=2))
        return 0
    baseline = result.only(system=args.baseline)
    normalized = result.normalized("total_ns")
    from repro.analysis.report import format_table

    rows = [
        [
            run.params["system"],
            run.total_ns,
            norm,
            baseline.total_ns / run.total_ns,
            run.sim.local_rows,
            run.sim.cxl_rows,
        ]
        for run, norm in zip(result, normalized)
    ]
    print(f"model {args.model}, batch {result[0].params['batch_size']}, "
          f"{result[0].sim.lookups} lookups; speedup vs {args.baseline!r}:")
    print(format_table(
        ["system", "latency_ns", "normalized", "speedup", "local rows", "CXL rows"],
        rows,
        float_format="{:,.3f}",
    ))
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments import runner
    from repro.experiments.common import DEFAULT_SCALE, QUICK_SCALE

    scale = QUICK_SCALE if args.quick else DEFAULT_SCALE
    runner.run_all(scale, parallel=not args.serial)
    return 0


#: The perf-benchmark files ``bench`` knows by short name, in run order.
BENCH_SUITES = {
    "engine": "test_engine_vectorization.py",
    "obs": "test_obs_overhead.py",
    "packet": "test_packet_tier.py",
    "serve": "test_serve_vector.py",
    "fleet": "test_fleet_scaling.py",
    "stream": "test_stream_serve.py",
    "sweep": "test_sweep_scaling.py",
    "workload": "test_workload_vectorization.py",
}


def _bench_directory():
    """Locate the repository's ``benchmarks/`` directory (or ``None``).

    The benchmarks are part of the source checkout, not the installed
    package: look next to the current working directory first, then
    relative to this file (``src/repro/api/cli.py`` → repo root).
    """
    import pathlib

    candidates = (
        pathlib.Path.cwd() / "benchmarks",
        pathlib.Path(__file__).resolve().parents[3] / "benchmarks",
    )
    for candidate in candidates:
        if (candidate / "conftest.py").is_file():
            return candidate
    return None


def _cmd_bench(args: argparse.Namespace) -> int:
    import os

    try:
        import pytest
    except ImportError:  # pragma: no cover - dev-only dependency
        print(
            "error: the bench subcommand needs pytest and pytest-benchmark "
            "(pip install pytest pytest-benchmark)",
            file=sys.stderr,
        )
        return 2
    bench_dir = _bench_directory()
    if bench_dir is None:
        print(
            "error: benchmarks/ directory not found — run from a source "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    if args.smoke:
        os.environ["REPRO_BENCH_SMOKE"] = "1"
    smoke = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
    # The suites write their baselines only under this flag, so a plain
    # pytest run never rewrites the committed files.
    os.environ["REPRO_BENCH_RECORD"] = "0" if smoke else "1"

    if args.all:
        targets = [str(bench_dir)]
    else:
        suites = _dedupe(args.suite) if args.suite else list(BENCH_SUITES)
        targets = [str(bench_dir / BENCH_SUITES[suite]) for suite in suites]
    mode = "smoke mode (relaxed floors, no baselines recorded)" if smoke else (
        "recording mode (BENCH_*.json baselines will be updated)"
    )
    print(f"running benchmarks in {mode}")
    return int(pytest.main([*targets, "-q", "-s"]))


#: Default comparison set for ``python -m repro scenario compare``.
DEFAULT_COMPARE_SYSTEMS = ("pifs-rec", "pond", "beacon")


def _print_scenario_run(name: str, run) -> None:
    params = run.params
    extras = []
    if params.get("workload"):
        extras.append(str(params["workload"]))
    if params.get("faults"):
        extras.append("faults: " + ", ".join(params["faults"]))
    suffix = f"  [{'; '.join(extras)}]" if extras else ""
    print(
        f"{name:>22}  {run.params['system']:>14}  "
        f"{run.total_ns:>16,.0f} ns  {run.latency_per_lookup_ns:>10,.2f} ns/lookup  "
        f"local/CXL {run.sim.local_rows}/{run.sim.cxl_rows}{suffix}"
    )


def _cmd_scenario_list(args: argparse.Namespace) -> int:
    from repro.scenarios import available_scenarios, scenario

    if args.json:
        import json

        print(json.dumps(
            [scenario(name).to_dict() for name in available_scenarios()], indent=2
        ))
        return 0
    for name in available_scenarios():
        entry = scenario(name)
        print(f"{name:>22}  {entry.dimensions()}")
        if args.verbose and entry.description:
            print(f"{'':>24}{entry.description}")
        if args.verbose:
            parameters = entry.parameters()
            if parameters != "-":
                print(f"{'':>24}[{parameters}]")
    return 0


def _cmd_scenario_run(args: argparse.Namespace) -> int:
    from repro.scenarios import available_scenarios, scenario

    if args.all:
        names = list(available_scenarios())
    elif args.name:
        names = _dedupe(args.name)
    else:
        print("error: name a scenario or pass --all (see 'scenario list')", file=sys.stderr)
        return 2
    if args.smoke:
        args.quick = True
    session_kwargs = dict(
        system=args.system, engine=args.engine, quick=args.quick,
        stream=args.stream,
    )

    if args.export_trace:
        if len(names) != 1:
            print("error: --export-trace takes exactly one scenario", file=sys.stderr)
            return 2
        from repro.traces.files import save_workload_trace

        workload = scenario(names[0]).simulation(**session_kwargs).build_workload()
        path = save_workload_trace(workload, args.export_trace)
        print(f"exported {len(workload.requests)} requests "
              f"({workload.total_lookups} lookups) to {path}")
        return 0

    payloads = []
    failures = []
    for name in names:
        entry = scenario(name)
        try:
            run = entry.run(**session_kwargs)
            serve_result = entry.serve(**session_kwargs) if args.serve else None
        except Exception as error:  # smoke mode reports every broken scenario
            if not args.smoke:
                raise
            failures.append(f"{name}: {type(error).__name__}: {error}")
            continue
        if args.smoke and not (run.total_ns > 0):
            failures.append(f"{name}: non-positive total latency")
            continue
        if args.json:
            payload = {"scenario": entry.to_dict(), "run": run.to_dict()}
            if serve_result is not None:
                payload["serve"] = serve_result.to_dict()
            payloads.append(payload)
        else:
            _print_scenario_run(name, run)
            if serve_result is not None:
                latency = serve_result.latency
                print(
                    f"{'':>24}serve: p50 {latency.p50_ns:,.0f} ns, "
                    f"p99 {latency.p99_ns:,.0f} ns, "
                    f"goodput {serve_result.goodput_qps:,.0f} qps"
                )
    if args.json:
        import json

        print(json.dumps(payloads, indent=2))
    for failure in failures:
        print(f"scenario failure: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_scenario_compare(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.scenarios import scenario

    names = _dedupe(args.name)
    if len(names) > 1:
        return _compare_scenarios(names, args)
    entry = scenario(names[0])
    systems = _dedupe(args.system) if args.system else list(DEFAULT_COMPARE_SYSTEMS)
    sweep = entry.sweep(systems=systems, engine=args.engine, quick=args.quick,
                        stream=args.stream)
    result = sweep.run(parallel=not args.serial, processes=args.jobs)
    if args.json:
        print(result.to_json(indent=2))
        return 0
    print(f"scenario {names[0]!r}: {entry.dimensions()}")
    if entry.description:
        print(entry.description)
    print(f"parameters: {entry.parameters()}")
    print()
    axis_names = [key for key, _ in result.axes]
    baseline_system = systems[0]
    baseline_runs = result.where(system=baseline_system)
    rows = []
    for run in result:
        reference = next(
            (
                b for b in baseline_runs
                if {k: v for k, v in b.params.items() if k != "system"}
                == {k: v for k, v in run.params.items() if k != "system"}
            ),
            None,
        )
        rows.append(
            [run.params.get(axis, "") for axis in axis_names]
            + [
                run.total_ns,
                run.latency_per_lookup_ns,
                run.speedup_over(reference) if reference is not None else float("nan"),
            ]
        )
    print(format_table(
        [*axis_names, "total_ns", "ns_per_lookup", f"speedup_vs_{baseline_system}"],
        rows,
    ))
    return 0


def _compare_scenarios(names, args: argparse.Namespace) -> int:
    """Compare several scenarios side by side on the same system(s).

    The table carries each scenario's distinguishing fault/traffic/packet
    parameters next to its metrics, so two rows differing only in knob
    values (e.g. two link degradations) are tellable apart.
    """
    from repro.analysis.report import format_table
    from repro.scenarios import scenario

    systems = _dedupe(args.system) if args.system else [scenario(names[0]).system]
    runs = {}
    payloads = []
    for name in names:
        entry = scenario(name)
        for system in systems:
            run = entry.run(system=system, engine=args.engine, quick=args.quick,
                            stream=args.stream)
            runs[(name, system)] = run
            payloads.append({
                "scenario": entry.to_dict(),
                "system": system,
                "run": run.to_dict(),
            })
    if args.json:
        import json

        print(json.dumps(payloads, indent=2))
        return 0
    print(f"comparing {len(names)} scenarios on: {', '.join(systems)}")
    print()
    rows = []
    for name in names:
        entry = scenario(name)
        for system in systems:
            run = runs[(name, system)]
            reference = runs[(names[0], system)]
            net = run.sim.net
            rows.append([
                name,
                system,
                entry.parameters(),
                entry.shards if entry.shards else "-",
                entry.router if entry.shards else "-",
                run.total_ns,
                run.latency_per_lookup_ns,
                reference.total_ns / run.total_ns,
                "-" if net is None else f"{net.max_queue_depth}d/{net.drops}x",
            ])
    print(format_table(
        ["scenario", "system", "parameters", "shards", "router", "total_ns",
         "ns_per_lookup", f"speedup_vs_{names[0]}", "queue"],
        rows,
    ))
    return 0


def _write_trace_outputs(recorder, args: argparse.Namespace) -> int:
    """Validate, report and export an observed session's recorder.

    Shared tail of every ``trace`` subcommand: schema-validate the
    Chrome/Perfetto export (non-empty ``traceEvents``, required keys),
    write ``--out`` / ``--metrics-out``, and print the wall-clock phase
    attribution.  Returns 1 when the trace fails validation.
    """
    from repro.analysis.report import format_table
    from repro.obs.recorder import validate_chrome_trace

    problems = validate_chrome_trace(recorder.to_chrome_trace())
    suffix = f" ({recorder.dropped} dropped)" if recorder.dropped else ""
    if args.out:
        path = recorder.write_chrome_trace(args.out)
        print(f"trace   : {len(recorder)} events{suffix} -> {path} "
              "(load in https://ui.perfetto.dev or chrome://tracing)")
    else:
        print(f"trace   : {len(recorder)} events{suffix} (pass --out to export)")
    if args.metrics_out:
        if str(args.metrics_out).lower().endswith(".csv"):
            path = recorder.write_metrics_csv(args.metrics_out)
        else:
            path = recorder.write_metrics_json(args.metrics_out)
        print(f"metrics : {len(recorder.metrics())} series -> {path}")
    phases = [
        [name[len("phase."):-len("_ms")], value]
        for name, value in recorder.metrics().items()
        if name.startswith("phase.") and name.endswith("_ms")
    ]
    if phases:
        print()
        print("self-profile (wall-clock attribution):")
        print(format_table(["phase", "wall_ms"], phases, float_format="{:,.3f}"))
    for problem in problems:
        print(f"trace schema: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _cmd_trace_run(args: argparse.Namespace) -> int:
    from repro.obs.recorder import TraceRecorder

    if args.smoke:
        args.quick = True
    recorder = TraceRecorder(label=f"run:{args.system}")
    sim = _base_simulation(args, args.system).model(args.model).observe(recorder)
    if args.batch_size is not None:
        sim.batch_size(args.batch_size)
    run = sim.run()
    print(f"system  : {run.system}  engine {run.params.get('engine') or 'scalar'}, "
          f"{run.sim.lookups} lookups, {run.total_ns:,.0f} ns")
    return _write_trace_outputs(recorder, args)


def _cmd_trace_serve(args: argparse.Namespace) -> int:
    from repro.obs.recorder import TraceRecorder

    if args.smoke:
        args.quick = True
    recorder = TraceRecorder(label=f"serve:{args.system}")
    sim = _base_simulation(args, args.system).model(args.model).observe(recorder)
    result = sim.serve(
        args.qps,
        arrival=args.arrival,
        max_batch_size=args.max_batch,
        max_wait_ns=args.max_wait_us * 1e3,
        seed=args.seed,
    )
    print(f"system  : {args.system}  {args.qps:,.0f} qps {args.arrival}, "
          f"{result.requests} requests in {result.batches} batches, "
          f"p99 {result.latency.p99_ns:,.0f} ns")
    return _write_trace_outputs(recorder, args)


def _cmd_trace_scenario(args: argparse.Namespace) -> int:
    from repro.obs.recorder import TraceRecorder
    from repro.scenarios import scenario

    if args.smoke:
        args.quick = True
    entry = scenario(args.name)
    recorder = TraceRecorder(label=f"scenario:{args.name}")
    session_kwargs = dict(system=args.system, engine=args.engine, quick=args.quick,
                          stream=args.stream)
    sim = entry.simulation(**session_kwargs).observe(recorder)
    run = sim.run()
    print(f"scenario: {args.name}  [{entry.dimensions()}]")
    print(f"run     : {run.params['system']}  {run.total_ns:,.0f} ns, "
          f"{run.sim.lookups} lookups")
    if not args.no_serve:
        # The open-loop session lands on the same recorder, so the exported
        # timeline shows serve batching next to the engine/packet spans.
        serve_result = entry.serve(**session_kwargs, observe=recorder)
        print(f"serve   : {serve_result.requests} requests in "
              f"{serve_result.batches} batches, "
              f"p99 {serve_result.latency.p99_ns:,.0f} ns")
    return _write_trace_outputs(recorder, args)


def _fleet_simulation(args: argparse.Namespace) -> Simulation:
    """The fleet-shaped session shared by ``fleet run`` and ``fleet serve``."""
    if args.smoke:
        args.quick = True
    sim = _base_simulation(args, args.system).model(args.model)
    if getattr(args, "batch_size", None) is not None:
        sim.batch_size(args.batch_size)
    if getattr(args, "distribution", None) is not None:
        sim.distribution(args.distribution)
    sim.fleet(args.shards, router=args.router, seed=args.fleet_seed)
    return sim


def _print_fleet_breakdown(result) -> None:
    from repro.analysis.report import format_table

    rows = [
        [row["shard"], row["requests"], row["lookups"], row["total_ns"]]
        for row in result.shard_breakdown()
    ]
    print(format_table(["shard", "requests", "lookups", "total_ns"], rows))


def _cmd_fleet_run(args: argparse.Namespace) -> int:
    from repro.fleet import run_fleet

    sim = _fleet_simulation(args)
    result = run_fleet(sim.spec(), workers=args.workers)
    if args.json:
        print(result.to_json(indent=2))
        return 0
    print(f"fleet         : {result.num_shards} shard(s) of {result.system}, "
          f"router {result.router}")
    print(f"completion    : {result.total_ns:,.0f} ns (slowest shard)")
    print(f"requests      : {result.requests} ({result.lookups} lookups)")
    print(f"goodput       : {result.goodput_lookups_per_us:,.2f} lookups/us aggregate")
    print()
    _print_fleet_breakdown(result)
    if args.smoke:
        failures = []
        if not result.total_ns > 0:
            failures.append("non-positive fleet completion time")
        if sum(sim_.requests for sim_ in result.per_shard) != result.requests:
            failures.append("per-shard requests do not sum to the fleet total")
        for failure in failures:
            print(f"fleet smoke failure: {failure}", file=sys.stderr)
        return 1 if failures else 0
    return 0


def _cmd_fleet_serve(args: argparse.Namespace) -> int:
    from repro.fleet import serve_fleet

    sim = _fleet_simulation(args)
    config = sim._serve_config(
        args.qps, args.arrival, args.max_batch, args.max_wait_us * 1e3,
        args.seed, args.sla_ms * 1e6 if args.sla_ms is not None else None,
    )
    result = serve_fleet(sim.spec(), config, workers=args.workers)
    if args.json:
        print(result.to_json(indent=2))
        return 0
    latency = result.latency
    print(f"fleet         : {result.num_shards} shard(s) of {result.system}, "
          f"router {result.router}")
    print(f"offered       : {result.qps:,.0f} qps {args.arrival}, "
          f"achieved {result.achieved_qps:,.0f} qps over {result.requests} requests")
    print(f"latency       : p50 {latency.p50_ns:,.0f} ns, p95 {latency.p95_ns:,.0f} ns, "
          f"p99 {latency.p99_ns:,.0f} ns, p99.9 {latency.p999_ns:,.0f} ns")
    print(f"goodput       : {result.goodput_qps:,.0f} qps"
          + (f" ({result.sla_attainment:.1%} within SLA)" if result.sla_ns else ""))
    if args.smoke:
        failures = []
        if not latency.is_finite():
            failures.append("non-finite fleet latency percentile")
        if result.requests <= 0:
            failures.append("fleet served zero requests")
        for failure in failures:
            print(f"fleet smoke failure: {failure}", file=sys.stderr)
        return 1 if failures else 0
    return 0


def _cmd_systems(args: argparse.Namespace) -> int:
    from repro.api.registry import system_factory

    for name in available_systems():
        factory = system_factory(name)
        doc = (factory.__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else ""
        print(f"{name:>16}  {summary}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    raw = argparse.RawDescriptionHelpFormatter
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="PIFS-Rec reproduction: run simulations, sweeps, online serving "
        "sessions and the paper's figures.",
        epilog="Use 'python -m repro <command> --help' for per-command options and "
        "examples.  Also installed as the 'pifs-rec' console script.",
    )
    parser.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error"],
        default=None,
        metavar="LEVEL",
        help="configure the 'repro' logger namespace and print diagnostics to "
        "stderr: debug | info | warning | error (default: logging stays off)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser(
        "run",
        help="run one closed-loop simulation session",
        description="Replay one SLS workload on one registered system and print the "
        "resulting latency, per-lookup cost and local/CXL row split.",
        epilog="examples:\n"
        "  python -m repro run pifs-rec --quick\n"
        "  python -m repro run pond --model RMC4 --batch-size 64 --engine vector\n"
        "  python -m repro run recnmp --distribution zipfian --json",
        formatter_class=raw,
    )
    run.add_argument("system", help="registered system name (list them with 'systems')")
    run.add_argument("--model", default="RMC1", metavar="RMC",
                     help="DLRM model from Table I: RMC1..RMC4 (default: RMC1)")
    run.add_argument("--batch-size", type=int, default=None, metavar="N",
                     help="queries per inference batch (default: the scale's setting)")
    run.add_argument("--num-batches", type=int, default=None, metavar="N",
                     help="number of batches replayed (default: the scale's setting)")
    run.add_argument("--distribution", default=None, metavar="NAME",
                     help="trace distribution: meta | zipfian | normal | uniform | random "
                     "(default: meta)")
    _add_machine_arguments(run)
    _add_scale_arguments(run)
    run.add_argument("--json", action="store_true", help="print the RunResult as JSON")
    run.set_defaults(func=_cmd_run)

    sweep = subparsers.add_parser(
        "sweep",
        help="run a declarative parameter sweep (cartesian grid)",
        description="Expand the repeatable axis flags into a cartesian grid, execute "
        "every point (in parallel by default, cached by config hash) and print an "
        "aligned table plus speedups against the first system axis value.",
        epilog="examples:\n"
        "  python -m repro sweep --system pond --system pifs-rec --batch-size 8 "
        "--batch-size 64 --quick\n"
        "  python -m repro sweep --model RMC1 --model RMC4 --engine vector --json",
        formatter_class=raw,
    )
    sweep.add_argument("--system", action="append", default=None, metavar="NAME",
                       help="system axis value (repeatable; default: every registered system)")
    sweep.add_argument("--model", action="append", default=None, metavar="RMC",
                       help="model axis value (repeatable)")
    sweep.add_argument("--batch-size", type=int, action="append", default=None, metavar="N",
                       help="batch-size axis value (repeatable)")
    sweep.add_argument("--distribution", action="append", default=None, metavar="NAME",
                       help="trace-distribution axis value (repeatable)")
    sweep.add_argument("--num-batches", type=int, default=None, metavar="N",
                       help="batches replayed at every grid point")
    _add_machine_arguments(sweep)
    _add_scale_arguments(sweep)
    sweep.add_argument("--serial", action="store_true",
                       help="evaluate the grid in-process instead of the worker pool "
                       "(results are identical either way)")
    sweep.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="worker process count (default: one per grid point, capped "
                       "at the CPU count)")
    sweep.add_argument("--json", action="store_true", help="print the SweepResult as JSON")
    sweep.set_defaults(func=_cmd_sweep)

    serve = subparsers.add_parser(
        "serve",
        help="online open-loop serving with tail-latency SLA metrics",
        description="Serve the workload open-loop: requests arrive on a seeded "
        "arrival process at --qps, queue per host, are dynamically batched and "
        "serviced on the host thread lanes.  Reports latency percentiles "
        "(p50..p99.9), goodput, SLA attainment and queue depths per system.",
        epilog="examples:\n"
        "  python -m repro serve pifs-rec pond --qps 2e5 --sla-ms 5 --quick\n"
        "  python -m repro serve --all --smoke --qps 3e5 --sla-ms 1   # CI guard\n"
        "  python -m repro serve pifs-rec --find-max-qps --sla-ms 2 --quick",
        formatter_class=raw,
    )
    serve.add_argument("system", nargs="*", default=[],
                       help=f"systems to serve (default: {' '.join(DEFAULT_SERVE_SYSTEMS)})")
    serve.add_argument("--all", action="store_true", help="serve every registered system")
    serve.add_argument("--smoke", action="store_true",
                       help="CI guard: quick scale, keep going past failures, exit 1 on any")
    serve.add_argument("--qps", type=float, default=2e5, metavar="QPS",
                       help="offered load in requests/s (default: 2e5)")
    serve.add_argument("--arrival", default="poisson", metavar="NAME",
                       help="arrival process: constant | poisson | bursty | mmpp | diurnal "
                       "(default: poisson)")
    serve.add_argument("--sla-ms", type=float, default=None, metavar="MS",
                       help="latency SLA in milliseconds (enables SLA attainment)")
    serve.add_argument("--max-batch", type=int, default=8, metavar="N",
                       help="dynamic batcher max batch size (default: 8)")
    serve.add_argument("--max-wait-us", type=float, default=100.0, metavar="US",
                       help="dynamic batcher max wait in microseconds (default: 100)")
    serve.add_argument("--seed", type=int, default=None, metavar="SEED",
                       help="arrival-process seed (default: the scale's seed)")
    serve.add_argument("--model", default="RMC1", metavar="RMC",
                       help="DLRM model: RMC1..RMC4 (default: RMC1)")
    serve.add_argument("--num-batches", type=int, default=None, metavar="N",
                       help="batches in the served workload")
    serve.add_argument("--find-max-qps", action="store_true",
                       help="binary-search the max sustainable QPS under --sla-ms")
    serve.add_argument("--qps-min", type=float, default=1e4, metavar="QPS",
                       help="lower QPS bound of --find-max-qps (default: 1e4)")
    serve.add_argument("--qps-max", type=float, default=2e6, metavar="QPS",
                       help="upper QPS bound of --find-max-qps (default: 2e6)")
    _add_machine_arguments(serve)
    _add_scale_arguments(serve)
    serve.add_argument("--json", action="store_true", help="print ServeResults as JSON")
    serve.set_defaults(func=_cmd_serve)

    compare = subparsers.add_parser(
        "compare",
        help="compare systems on one workload (normalized + speedups)",
        description="Run every (or the selected) registered system on one identical "
        "workload and print absolute latency, min-max normalized latency and the "
        "speedup over --baseline.",
        epilog="examples:\n"
        "  python -m repro compare --quick\n"
        "  python -m repro compare --system pond --system pifs-rec --model RMC4 "
        "--baseline pond --engine vector",
        formatter_class=raw,
    )
    compare.add_argument("--system", action="append", default=None, metavar="NAME",
                         help="system to include (repeatable; default: all registered)")
    compare.add_argument("--model", default="RMC4", metavar="RMC",
                         help="DLRM model: RMC1..RMC4 (default: RMC4)")
    compare.add_argument("--batch-size", type=int, default=None, metavar="N",
                         help="queries per inference batch")
    compare.add_argument("--baseline", default="pond", metavar="NAME",
                         help="system speedups are computed against (default: pond)")
    _add_machine_arguments(compare)
    _add_scale_arguments(compare)
    compare.add_argument("--serial", action="store_true",
                         help="evaluate in-process instead of the worker pool")
    compare.add_argument("--jobs", type=int, default=None, metavar="N",
                         help="worker process count")
    compare.add_argument("--json", action="store_true", help="print the SweepResult as JSON")
    compare.set_defaults(func=_cmd_compare)

    figures = subparsers.add_parser(
        "figures",
        help="regenerate every figure/table of the paper",
        description="Re-run the full evaluation pipeline (Fig 5-18 plus the tables) "
        "at the default or --quick scale, printing each figure's data series.",
        epilog="example:\n  python -m repro figures --quick --serial",
        formatter_class=raw,
    )
    _add_scale_arguments(figures)
    figures.add_argument("--serial", action="store_true", help="disable the process pool")
    figures.set_defaults(func=_cmd_figures)

    bench = subparsers.add_parser(
        "bench",
        help="run the performance benchmarks and record BENCH_*.json baselines",
        description="Run the perf benchmark suite (engine vectorization, fabric "
        "kernels, serve path, sweep scaling, workload build) under pytest.  "
        "Outside smoke mode every suite pins its speedup floors and, because "
        "this command sets REPRO_BENCH_RECORD=1, records/updates the "
        "BENCH_*.json baseline files at the repository root; a plain pytest "
        "run of benchmarks/ never writes them.  Honors REPRO_BENCH_SMOKE=1 "
        "(same as --smoke): shorter runs, relaxed floors, no baselines "
        "written.",
        epilog="examples:\n"
        "  python -m repro bench                      # full run, updates BENCH_*.json\n"
        "  python -m repro bench --smoke              # CI guard\n"
        "  python -m repro bench --suite serve --suite sweep\n"
        "  python -m repro bench --all                # also the paper-figure suite",
        formatter_class=raw,
    )
    bench.add_argument(
        "--suite",
        action="append",
        choices=sorted(BENCH_SUITES),
        default=None,
        metavar="NAME",
        help="perf suite to run (repeatable): "
        + " | ".join(sorted(BENCH_SUITES))
        + " (default: every suite)",
    )
    bench.add_argument(
        "--all",
        action="store_true",
        help="run the entire benchmarks/ directory (adds the per-figure "
        "regeneration suites; takes minutes)",
    )
    bench.add_argument(
        "--smoke",
        action="store_true",
        help="smoke mode: sets REPRO_BENCH_SMOKE=1 (short runs, relaxed "
        "floors, baselines untouched)",
    )
    bench.set_defaults(func=_cmd_bench)

    scenario = subparsers.add_parser(
        "scenario",
        help="run the named-scenario catalog (workload mixes, drift, faults)",
        description="The scenario catalog composes workload, traffic and fault "
        "dimensions into named, deterministic, JSON-round-trippable situations "
        "(see docs/SCENARIOS.md).  'list' shows them, 'run' executes one or "
        "all, 'compare' sweeps one across systems and its declared axes.",
        epilog="examples:\n"
        "  python -m repro scenario list --verbose\n"
        "  python -m repro scenario run fault-slow-link --quick\n"
        "  python -m repro scenario run --all --smoke          # CI guard\n"
        "  python -m repro scenario run drift-rotation --serve --engine vector\n"
        "  python -m repro scenario compare tenant-mix --quick\n"
        "  python -m repro scenario run paper-baseline --export-trace trace.npz",
        formatter_class=raw,
    )
    scenario_commands = scenario.add_subparsers(dest="scenario_command", required=True)

    scenario_list = scenario_commands.add_parser(
        "list",
        help="list every registered scenario with its dimensions",
        description="One line per scenario: name plus a compact dimension "
        "summary (model, workload source, machine, faults, traffic, axes).",
        epilog="example:\n  python -m repro scenario list --verbose",
        formatter_class=raw,
    )
    scenario_list.add_argument("--verbose", action="store_true",
                               help="also print each scenario's description")
    scenario_list.add_argument("--json", action="store_true",
                               help="print the full scenario definitions as JSON")
    scenario_list.set_defaults(func=_cmd_scenario_list)

    scenario_run = scenario_commands.add_parser(
        "run",
        help="run one or more scenarios (closed-loop; --serve adds open-loop)",
        description="Execute named scenarios deterministically.  Results are "
        "bit-identical between --engine scalar and --engine vector; --smoke is "
        "the CI guard (quick scale, keep going past failures, exit 1 on any).",
        epilog="examples:\n"
        "  python -m repro scenario run fault-buffer-squeeze --quick\n"
        "  python -m repro scenario run tenant-mix --system pond --engine vector\n"
        "  python -m repro scenario run --all --smoke",
        formatter_class=raw,
    )
    scenario_run.add_argument("name", nargs="*", default=[],
                              help="scenario name(s) (list them with 'scenario list')")
    scenario_run.add_argument("--all", action="store_true",
                              help="run every registered scenario")
    scenario_run.add_argument("--smoke", action="store_true",
                              help="CI guard: quick scale, keep going past failures, "
                              "exit 1 on any")
    scenario_run.add_argument("--system", default=None, metavar="NAME",
                              help="override the scenario's system under test")
    scenario_run.add_argument("--engine", choices=["scalar", "vector", "packet"],
                              default=None,
                              help="replay fidelity (scenario results are bit-identical "
                              "between scalar, vector and uncongested packet)")
    scenario_run.add_argument("--serve", action="store_true",
                              help="also serve the scenario open-loop under its "
                              "traffic spec (tail-latency metrics)")
    scenario_run.add_argument("--export-trace", default=None, metavar="PATH",
                              help="export the scenario's workload trace as a "
                              "lossless .npz archive instead of running it")
    scenario_run.add_argument("--json", action="store_true",
                              help="print scenario + result payloads as JSON")
    _add_scale_arguments(scenario_run)
    _add_stream_argument(scenario_run)
    scenario_run.set_defaults(func=_cmd_scenario_run)

    scenario_compare = scenario_commands.add_parser(
        "compare",
        help="sweep one scenario across systems, or several side by side",
        description="With one scenario: expand its declared axes (pooling, "
        "tables, ...) times the selected systems into a grid, run it on the "
        "sweep engine and print latencies plus speedups against the first "
        "system.  With several scenarios: run each on the selected system(s) "
        "and print them side by side, with the fault/traffic/packet parameter "
        "values that distinguish them in the table.",
        epilog="examples:\n"
        "  python -m repro scenario compare pooling-scaling --quick\n"
        "  python -m repro scenario compare fault-slow-link --system pond "
        "--system pifs-rec --engine vector\n"
        "  python -m repro scenario compare paper-baseline flash-crowd-incast "
        "hot-table-nmp-storm --quick",
        formatter_class=raw,
    )
    scenario_compare.add_argument("name", nargs="+",
                                  help="scenario(s) to compare (see 'scenario list')")
    scenario_compare.add_argument("--system", action="append", default=None,
                                  metavar="NAME",
                                  help="system to include (repeatable; default: "
                                  + " ".join(DEFAULT_COMPARE_SYSTEMS) + ")")
    scenario_compare.add_argument("--engine", choices=["scalar", "vector", "packet"],
                                  default=None,
                                  help="replay fidelity for every grid point")
    scenario_compare.add_argument("--serial", action="store_true",
                                  help="evaluate in-process instead of the worker pool")
    scenario_compare.add_argument("--jobs", type=int, default=None, metavar="N",
                                  help="worker process count")
    scenario_compare.add_argument("--json", action="store_true",
                                  help="print the SweepResult as JSON")
    _add_scale_arguments(scenario_compare)
    _add_stream_argument(scenario_compare)
    scenario_compare.set_defaults(func=_cmd_scenario_compare)

    trace = subparsers.add_parser(
        "trace",
        help="run an observed session and export a Chrome/Perfetto trace",
        description="Attach a TraceRecorder (repro.obs) to one session — "
        "closed-loop, open-loop serving, or a named scenario — and export "
        "the captured spans/counters as Chrome trace_event JSON (--out, "
        "loadable in ui.perfetto.dev or chrome://tracing) plus flat metrics "
        "(--metrics-out, .json or .csv).  Recording never perturbs results: "
        "observed runs stay bit-identical to unobserved ones.",
        epilog="examples:\n"
        "  python -m repro trace run pifs-rec --engine vector --quick --out trace.json\n"
        "  python -m repro trace serve pond --qps 2e5 --out serve.json "
        "--metrics-out serve.csv\n"
        "  python -m repro trace scenario hot-table-nmp-storm --out trace.json\n"
        "  python -m repro trace run pond --smoke            # CI guard",
        formatter_class=raw,
    )
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)

    def _add_trace_outputs(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument("--out", default=None, metavar="PATH",
                               help="write the Chrome/Perfetto trace_event JSON here")
        subparser.add_argument("--metrics-out", default=None, metavar="PATH",
                               help="write the flat metrics here (.csv for CSV, "
                               "anything else for JSON)")
        subparser.add_argument("--smoke", action="store_true",
                               help="CI guard: quick scale; exit 1 if the emitted "
                               "trace fails trace_event schema validation")

    trace_run = trace_commands.add_parser(
        "run",
        help="observe one closed-loop session",
        description="Run one closed-loop session with a TraceRecorder attached: "
        "session/request/maintenance spans, kernel counters, packet-tier "
        "bridging (with --engine packet) and wall-clock phase attribution.",
        epilog="example:\n"
        "  python -m repro trace run pifs-rec --engine vector --quick --out trace.json",
        formatter_class=raw,
    )
    trace_run.add_argument("system", help="registered system name")
    trace_run.add_argument("--model", default="RMC1", metavar="RMC",
                           help="DLRM model: RMC1..RMC4 (default: RMC1)")
    trace_run.add_argument("--batch-size", type=int, default=None, metavar="N",
                           help="queries per inference batch")
    trace_run.add_argument("--num-batches", type=int, default=None, metavar="N",
                           help="number of batches replayed")
    _add_machine_arguments(trace_run)
    _add_scale_arguments(trace_run)
    _add_trace_outputs(trace_run)
    trace_run.set_defaults(func=_cmd_trace_run)

    trace_serve = trace_commands.add_parser(
        "serve",
        help="observe one open-loop serving session",
        description="Serve one system open-loop with a TraceRecorder attached: "
        "admission/batch/wait spans per host lane, queue-depth counters, and "
        "the engine's per-request spans on the same timeline.",
        epilog="example:\n"
        "  python -m repro trace serve pond --qps 2e5 --arrival bursty --out serve.json",
        formatter_class=raw,
    )
    trace_serve.add_argument("system", help="registered system name")
    trace_serve.add_argument("--model", default="RMC1", metavar="RMC",
                             help="DLRM model: RMC1..RMC4 (default: RMC1)")
    trace_serve.add_argument("--qps", type=float, default=2e5, metavar="QPS",
                             help="offered load in requests/s (default: 2e5)")
    trace_serve.add_argument("--arrival", default="poisson", metavar="NAME",
                             help="arrival process: constant | poisson | bursty | "
                             "mmpp | diurnal (default: poisson)")
    trace_serve.add_argument("--max-batch", type=int, default=8, metavar="N",
                             help="dynamic batcher max batch size (default: 8)")
    trace_serve.add_argument("--max-wait-us", type=float, default=100.0, metavar="US",
                             help="dynamic batcher max wait in microseconds (default: 100)")
    trace_serve.add_argument("--seed", type=int, default=None, metavar="SEED",
                             help="arrival-process seed (default: the scale's seed)")
    trace_serve.add_argument("--num-batches", type=int, default=None, metavar="N",
                             help="batches in the served workload")
    _add_machine_arguments(trace_serve)
    _add_scale_arguments(trace_serve)
    _add_trace_outputs(trace_serve)
    trace_serve.set_defaults(func=_cmd_trace_serve)

    trace_scenario = trace_commands.add_parser(
        "scenario",
        help="observe a named scenario (closed-loop + its traffic spec)",
        description="Run a catalog scenario closed-loop AND serve it open-loop "
        "under its traffic spec, both on one shared TraceRecorder — the "
        "exported timeline shows serve batching, engine/kernel spans and "
        "packet-queue backpressure together.  --no-serve keeps it closed-loop "
        "only.",
        epilog="example:\n"
        "  python -m repro trace scenario hot-table-nmp-storm --out trace.json",
        formatter_class=raw,
    )
    trace_scenario.add_argument("name",
                                help="scenario name (list them with 'scenario list')")
    trace_scenario.add_argument("--system", default=None, metavar="NAME",
                                help="override the scenario's system under test")
    trace_scenario.add_argument("--engine", choices=["scalar", "vector", "packet"],
                                default=None, help="replay fidelity override")
    trace_scenario.add_argument("--no-serve", action="store_true",
                                help="skip the open-loop serving pass")
    _add_scale_arguments(trace_scenario)
    _add_stream_argument(trace_scenario)
    _add_trace_outputs(trace_scenario)
    trace_scenario.set_defaults(func=_cmd_trace_scenario)

    fleet = subparsers.add_parser(
        "fleet",
        help="simulate a sharded fleet of systems behind a request router",
        description="Compose N per-rack systems (repro.fleet) — each with its "
        "own fabric and its shard of the partitioned table space — behind a "
        "request router (hash | power-of-two-choices | table-affinity) and "
        "replay or serve one workload across them.  Shards execute on the "
        "persistent worker pool with --workers; results are identical for "
        "any worker count, and a 1-shard fleet is bit-identical to the "
        "plain single-system run.",
        epilog="examples:\n"
        "  python -m repro fleet run --shards 8 --router table-affinity --quick\n"
        "  python -m repro fleet run --shards 4 --router hash --stream --workers 4\n"
        "  python -m repro fleet serve --shards 4 --qps 4e5 --sla-ms 5 --quick\n"
        "  python -m repro fleet run --smoke                  # CI guard",
        formatter_class=raw,
    )
    fleet_commands = fleet.add_subparsers(dest="fleet_command", required=True)

    def _add_fleet_arguments(subparser: argparse.ArgumentParser) -> None:
        from repro.fleet import ROUTER_POLICIES

        subparser.add_argument("system", nargs="?", default="pifs-rec",
                               help="registered system per shard (default: pifs-rec)")
        subparser.add_argument("--shards", type=int, default=4, metavar="N",
                               help="per-rack systems in the fleet (default: 4)")
        subparser.add_argument("--router", choices=list(ROUTER_POLICIES),
                               default="table-affinity",
                               help="request routing policy (default: table-affinity)")
        subparser.add_argument("--fleet-seed", type=int, default=0, metavar="SEED",
                               help="router hashing/tie-break seed (default: 0)")
        subparser.add_argument("--workers", type=int, default=0, metavar="N",
                               help="worker processes executing shards (default: 0 = "
                               "in-process serial; results are identical either way)")
        subparser.add_argument("--model", default="RMC1", metavar="RMC",
                               help="DLRM model: RMC1..RMC4 (default: RMC1)")
        subparser.add_argument("--num-batches", type=int, default=None, metavar="N",
                               help="batches in the shared workload")
        subparser.add_argument("--smoke", action="store_true",
                               help="CI guard: quick scale plus fleet sanity checks, "
                               "exit 1 on any failure")
        _add_machine_arguments(subparser)
        _add_scale_arguments(subparser)
        subparser.add_argument("--json", action="store_true",
                               help="print the fleet result as JSON")

    fleet_run = fleet_commands.add_parser(
        "run",
        help="replay one workload closed-loop across the fleet",
        description="Partition the workload across the shards with the selected "
        "router and replay every shard; prints the combined fleet result "
        "(completion = slowest shard, counters summed) and the per-shard "
        "breakdown.",
        epilog="examples:\n"
        "  python -m repro fleet run --shards 8 --quick\n"
        "  python -m repro fleet run --shards 4 --router hash --stream --workers 4",
        formatter_class=raw,
    )
    _add_fleet_arguments(fleet_run)
    fleet_run.add_argument("--batch-size", type=int, default=None, metavar="N",
                           help="queries per inference batch")
    fleet_run.add_argument("--distribution", default=None, metavar="NAME",
                           help="trace distribution: meta | zipfian | normal | "
                           "uniform | random (default: meta)")
    fleet_run.set_defaults(func=_cmd_fleet_run)

    fleet_serve = fleet_commands.add_parser(
        "serve",
        help="serve one workload open-loop across the fleet",
        description="Serve every shard open-loop under one arrival schedule at "
        "the offered QPS (each rack sees the arrivals of its router-assigned "
        "requests, so together they are offered the QPS) and report "
        "fleet-level tail latency over the pooled per-request samples: "
        "p50..p99.9, achieved QPS, goodput and SLA attainment.",
        epilog="examples:\n"
        "  python -m repro fleet serve --shards 4 --qps 4e5 --sla-ms 5 --quick\n"
        "  python -m repro fleet serve --router power-of-two-choices --smoke",
        formatter_class=raw,
    )
    _add_fleet_arguments(fleet_serve)
    fleet_serve.add_argument("--qps", type=float, default=2e5, metavar="QPS",
                             help="offered load in requests/s (default: 2e5)")
    fleet_serve.add_argument("--arrival", default="poisson", metavar="NAME",
                             help="arrival process: constant | poisson | bursty | "
                             "mmpp | diurnal (default: poisson)")
    fleet_serve.add_argument("--sla-ms", type=float, default=None, metavar="MS",
                             help="latency SLA in milliseconds (enables SLA attainment)")
    fleet_serve.add_argument("--max-batch", type=int, default=8, metavar="N",
                             help="dynamic batcher max batch size (default: 8)")
    fleet_serve.add_argument("--max-wait-us", type=float, default=100.0, metavar="US",
                             help="dynamic batcher max wait in microseconds (default: 100)")
    fleet_serve.add_argument("--seed", type=int, default=None, metavar="SEED",
                             help="arrival-process seed (default: the scale's seed)")
    fleet_serve.set_defaults(func=_cmd_fleet_serve)

    systems = subparsers.add_parser(
        "systems",
        help="list the registered systems",
        description="List every system registered with @register_system (built-ins "
        "and plugins) together with the first line of its docstring.  These names "
        "are what 'run', 'sweep', 'serve' and 'compare' accept.",
        epilog="example:\n  python -m repro systems",
        formatter_class=raw,
    )
    systems.set_defaults(func=_cmd_systems)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.log_level is not None:
        from repro.obs.log import setup_logging

        setup_logging(args.log_level)
    try:
        return args.func(args)
    except (UnknownSystemError, UnknownScenarioError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())


__all__ = ["build_parser", "main"]
