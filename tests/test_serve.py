"""Tests for the online serving subsystem (:mod:`repro.serve`)."""

import json
import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from repro.api.session import Simulation
from repro.serve import (
    AdmissionQueue,
    BatchPolicy,
    DynamicBatcher,
    ServeConfig,
    ServeResult,
    UnknownArrivalError,
    arrival_process,
    available_arrivals,
    serve,
)
from repro.serve.metrics import sla_sweep
from repro.sls.result import LatencyStats, SimResult, percentile

ARRIVAL_NAMES = ("constant", "poisson", "bursty", "mmpp", "diurnal")


# ---------------------------------------------------------------------------
# Arrival processes
# ---------------------------------------------------------------------------
class TestArrivals:
    @pytest.mark.parametrize("name", ARRIVAL_NAMES)
    def test_seeded_schedules_are_byte_identical(self, name):
        process = arrival_process(name)
        first = process.arrival_times_ns(512, 2e5, seed=97)
        second = process.arrival_times_ns(512, 2e5, seed=97)
        assert first.dtype == np.int64
        assert first.tobytes() == second.tobytes()

    @pytest.mark.parametrize("name", [n for n in ARRIVAL_NAMES if n != "constant"])
    def test_different_seed_changes_schedule(self, name):
        process = arrival_process(name)
        assert not np.array_equal(
            process.arrival_times_ns(256, 2e5, seed=1),
            process.arrival_times_ns(256, 2e5, seed=2),
        )

    @pytest.mark.parametrize("name", ARRIVAL_NAMES)
    def test_schedules_are_monotone_and_non_negative(self, name):
        times = arrival_process(name).arrival_times_ns(512, 1e5, seed=3)
        assert len(times) == 512
        assert times[0] >= 0
        assert (np.diff(times) >= 0).all()

    @pytest.mark.parametrize("name", ARRIVAL_NAMES)
    def test_long_run_rate_tracks_target_qps(self, name):
        times = arrival_process(name).arrival_times_ns(20_000, 1e5, seed=5)
        mean_gap_ns = float(times[-1]) / len(times)
        # 10 us target gap; bursty/diurnal have heavy correlations, so the
        # tolerance is loose but still rules out rate-balance bugs (a
        # request-count-weighted MMPP lands at ~2x the target gap).
        assert 0.7 <= mean_gap_ns / 10_000.0 <= 1.4

    def test_constant_is_perfectly_paced(self):
        times = arrival_process("constant").arrival_times_ns(10, 1e6, seed=0)
        assert np.array_equal(times, np.arange(1, 11) * 1000)

    def test_empty_and_invalid_inputs(self):
        process = arrival_process("poisson")
        assert len(process.arrival_times_ns(0, 1e5, seed=1)) == 0
        with pytest.raises(ValueError):
            process.arrival_times_ns(10, 0.0, seed=1)
        with pytest.raises(UnknownArrivalError):
            arrival_process("pareto")
        assert set(ARRIVAL_NAMES) <= set(available_arrivals())

    def test_bursty_parameter_validation(self):
        with pytest.raises(ValueError):
            arrival_process("bursty", burst_ratio=0.5)
        with pytest.raises(ValueError):
            arrival_process("bursty", burst_ratio=10.0, burst_fraction=0.2)
        with pytest.raises(ValueError):
            arrival_process("diurnal", amplitude=1.5)


# ---------------------------------------------------------------------------
# Queue + dynamic batcher
# ---------------------------------------------------------------------------
class FakeRequest:
    def __init__(self, request_id):
        self.request_id = request_id
        self.num_candidates = 1


def drive(policy, arrivals):
    """Feed (request_id, arrival_ns) pairs through a batcher; return batches."""
    queue = AdmissionQueue(host_id=0)
    batcher = DynamicBatcher(policy, queue)
    batches = []
    for request_id, now in arrivals:
        batches.extend(batcher.offer(FakeRequest(request_id), now))
    batches.extend(batcher.close())
    return batches, queue


class TestBatcher:
    def test_full_batch_dispatches_at_filling_arrival(self):
        policy = BatchPolicy(max_batch_size=3, max_wait_ns=1_000_000)
        batches, _ = drive(policy, [(0, 100), (1, 200), (2, 450), (3, 500)])
        assert [len(b) for b in batches] == [3, 1]
        assert batches[0].dispatch_ns == 450  # filled on the third arrival
        assert batches[1].dispatch_ns == 500 + 1_000_000  # timer flush at close

    def test_arrival_exactly_at_deadline_joins_the_batch(self):
        policy = BatchPolicy(max_batch_size=8, max_wait_ns=1000)
        batches, _ = drive(policy, [(0, 100), (1, 1100)])
        assert [len(b) for b in batches] == [2]
        assert batches[0].dispatch_ns == 1100  # deadline == oldest + max_wait

    def test_arrival_just_after_deadline_starts_a_new_batch(self):
        policy = BatchPolicy(max_batch_size=8, max_wait_ns=1000)
        batches, _ = drive(policy, [(0, 100), (1, 1101)])
        assert [len(b) for b in batches] == [1, 1]
        assert batches[0].dispatch_ns == 1100  # timer fired before the arrival
        assert batches[1].dispatch_ns == 1101 + 1000

    def test_end_of_stream_flushes_at_deadline_not_last_arrival(self):
        policy = BatchPolicy(max_batch_size=8, max_wait_ns=5000)
        batches, _ = drive(policy, [(0, 100), (1, 300)])
        assert [len(b) for b in batches] == [2]
        assert batches[0].dispatch_ns == 100 + 5000

    def test_zero_wait_batches_only_simultaneous_arrivals(self):
        policy = BatchPolicy(max_batch_size=4, max_wait_ns=0)
        batches, _ = drive(policy, [(0, 100), (1, 100), (2, 101), (3, 102)])
        assert [len(b) for b in batches] == [2, 1, 1]
        assert [b.dispatch_ns for b in batches] == [100, 101, 102]

    def test_queue_wait_and_timeline_accounting(self):
        policy = BatchPolicy(max_batch_size=2, max_wait_ns=10_000)
        batches, queue = drive(policy, [(0, 0), (1, 400), (2, 500)])
        assert batches[0].queue_wait_ns == [400, 0]
        assert queue.max_depth == 2
        assert queue.admitted == 3
        # Timeline ends drained; same-timestamp transitions coalesce to the
        # final state (push+dispatch at t=400 settles at depth 0), so the
        # timeline never exceeds the tracked max_depth.
        assert queue.timeline[-1][1] == 0
        assert max(depth for _, depth in queue.timeline) <= queue.max_depth
        assert queue.mean_depth() >= 0.0

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_batch_size=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_wait_ns=-1.0)


# ---------------------------------------------------------------------------
# Percentile math and LatencyStats
# ---------------------------------------------------------------------------
class TestPercentiles:
    @pytest.mark.parametrize("size", [1, 2, 5, 100, 1001])
    @pytest.mark.parametrize("q", [0.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0])
    def test_matches_numpy_percentile(self, size, q):
        rng = np.random.default_rng(size)
        samples = rng.exponential(1e4, size=size)
        assert percentile(samples.tolist(), q) == pytest.approx(
            float(np.percentile(samples, q)), rel=1e-12, abs=1e-9
        )

    def test_latency_stats_fields_match_numpy(self):
        rng = np.random.default_rng(7)
        samples = rng.lognormal(9.0, 1.0, size=4096)
        stats = LatencyStats.from_samples(samples.tolist())
        assert stats.count == len(samples)
        assert stats.mean_ns == pytest.approx(float(samples.mean()))
        for q, field_value in [
            (50.0, stats.p50_ns),
            (90.0, stats.p90_ns),
            (95.0, stats.p95_ns),
            (99.0, stats.p99_ns),
            (99.9, stats.p999_ns),
        ]:
            assert field_value == pytest.approx(float(np.percentile(samples, q)), rel=1e-12)
        assert stats.min_ns <= stats.p50_ns <= stats.p95_ns <= stats.p99_ns <= stats.max_ns
        assert stats.is_finite()

    def test_percentile_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)

    def test_latency_stats_round_trip_and_quantile(self):
        stats = LatencyStats.from_samples([3.0, 1.0, 2.0])
        rebuilt = LatencyStats.from_dict(json.loads(json.dumps(stats.to_dict())))
        assert rebuilt == stats
        assert stats.quantile("p50") == stats.p50_ns
        assert stats.quantile("mean") == stats.mean_ns
        with pytest.raises(ValueError):
            stats.quantile("p42")
        assert LatencyStats.from_samples([]).count == 0

    def test_sim_result_carries_latency_section(self):
        stats = LatencyStats.from_samples([10.0, 20.0, 30.0])
        sim = SimResult(system="x", total_ns=30.0, requests=3, lookups=3, latency=stats)
        rebuilt = SimResult.from_dict(json.loads(json.dumps(sim.to_dict())))
        assert rebuilt.latency == stats
        assert rebuilt.latency.is_finite()
        # Absent section stays absent.
        bare = SimResult(system="x", total_ns=1.0, requests=1, lookups=1)
        assert SimResult.from_dict(bare.to_dict()).latency is None


# ---------------------------------------------------------------------------
# End-to-end serving sessions
# ---------------------------------------------------------------------------
def quick_session(system="pifs-rec", **settings):
    return Simulation(system).quick().apply(**settings)


class TestServing:
    def test_identical_seeds_reproduce_identical_metrics(self):
        first = quick_session().serve(2e5, seed=13)
        second = quick_session().serve(2e5, seed=13)
        assert first.to_dict() == second.to_dict()
        # Byte-identical request timelines, not just summary stats.
        assert [
            (r.request_id, r.arrival_ns, r.dispatch_ns, r.start_ns, r.complete_ns)
            for r in first.records
        ] == [
            (r.request_id, r.arrival_ns, r.dispatch_ns, r.start_ns, r.complete_ns)
            for r in second.records
        ]

    def test_different_arrival_seed_changes_latency(self):
        first = quick_session().serve(2e5, seed=13)
        second = quick_session().serve(2e5, seed=14)
        assert first.latency.to_dict() != second.latency.to_dict()

    @pytest.mark.parametrize("system", ["pifs-rec", "pond", "beacon"])
    def test_systems_report_finite_tail_latency(self, system):
        result = quick_session(system).serve(3e5, sla_ns=5e6)
        workload = quick_session(system).build_workload()
        assert result.requests == len(workload.requests)
        assert result.latency.count == result.requests
        assert result.latency.is_finite()
        assert 0.0 < result.latency.p50_ns <= result.latency.p95_ns <= result.latency.p99_ns
        assert result.goodput_qps > 0.0
        assert 0.0 <= result.sla_attainment <= 1.0
        assert result.batches > 0
        assert result.mean_batch_size == pytest.approx(result.requests / result.batches)
        assert result.sim is not None and result.sim.latency == result.latency

    @pytest.mark.parametrize("arrival", ARRIVAL_NAMES)
    def test_every_arrival_process_serves(self, arrival):
        result = quick_session("pond").serve(4e5, arrival=arrival, seed=5)
        assert result.arrival == arrival
        assert result.latency.is_finite() and result.latency.p99_ns > 0

    def test_latency_degrades_toward_saturation(self):
        base = quick_session("pond", num_batches=8)
        relaxed = base.clone().serve(4e5, max_wait_ns=20_000.0)
        saturated = base.clone().serve(8e6, max_wait_ns=20_000.0)
        assert saturated.latency.p99_ns > relaxed.latency.p99_ns
        assert saturated.achieved_qps < 8e6  # the host cannot keep up

    def test_max_queue_depth_survives_size_triggered_dispatch(self):
        # A size-triggered dispatch pops at the exact ns of the arrival that
        # filled the batch, which collapses the peak out of the timeline —
        # max_queue_depth must come from the queue's own tracking instead.
        result = quick_session("pond").serve(1e7, max_batch_size=8, seed=2)
        assert result.max_queue_depth == 8
        timeline_peak = max(
            (depth for tl in result.queue_depth_timelines.values() for _, depth in tl),
            default=0,
        )
        assert result.max_queue_depth >= timeline_peak

    def test_serve_result_json_round_trip_excludes_records(self):
        result = quick_session("pond").serve(2e5, sla_ns=1e6)
        rebuilt = ServeResult.from_json(result.to_json())
        assert rebuilt.records is None
        assert rebuilt.to_dict() == result.to_dict()
        assert rebuilt.queue_depth_timelines == result.queue_depth_timelines

    def test_serve_config_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(qps=0.0)
        with pytest.raises(ValueError):
            ServeConfig(qps=1e5, sla_ns=-1.0)
        with pytest.raises(FrozenInstanceError):
            replace(ServeConfig(qps=1e5), qps=2e5).__setattr__("qps", 1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("qps", math.nan),
            ("qps", math.inf),
            ("qps", 0.0),
            ("qps", -1e5),
            ("sla_ns", math.nan),
            ("sla_ns", 0.0),
            ("sla_ns", -1.0),
            ("max_batch_size", 0),
            ("max_wait_ns", -1.0),
            ("max_wait_ns", math.nan),
            ("arrival", "pareto"),
        ],
    )
    def test_serve_config_rejects_an_invalid_field_by_name(self, field, value):
        settings = {"qps": 1e5, field: value}
        with pytest.raises(ValueError, match=field):
            ServeConfig(**settings)

    def test_direct_serve_entry_point(self, tiny_workload, tiny_system):
        from repro.baselines.pond import PondSystem

        result = serve(
            PondSystem(tiny_system), tiny_workload, ServeConfig(qps=5e5, seed=3)
        )
        assert result.requests == len(tiny_workload.requests)
        assert result.system == "Pond"
        assert result.latency.is_finite()


# ---------------------------------------------------------------------------
# SLA sweep
# ---------------------------------------------------------------------------
def sweep_session():
    return Simulation("pond").quick().num_batches(6)


SWEEP_KWARGS = dict(
    qps_bounds=(5e4, 4e6),
    grid_points=3,
    refine_iters=4,
    max_wait_ns=20_000.0,
)


class TestSLASweep:
    def test_serial_and_parallel_sweeps_are_identical(self):
        serial = sweep_session().sla_sweep(6e4, parallel=False, **SWEEP_KWARGS)
        parallel = sweep_session().sla_sweep(6e4, parallel=True, **SWEEP_KWARGS)
        assert serial.to_dict() == parallel.to_dict()
        assert serial.max_sustainable_qps > 0.0

    def test_max_qps_monotone_as_budget_tightens(self):
        budgets_ns = (2e5, 8e4, 5e4, 3e4, 1.5e4)
        sustained = [
            sweep_session().sla_sweep(budget, **SWEEP_KWARGS).max_sustainable_qps
            for budget in budgets_ns
        ]
        assert all(math.isfinite(q) for q in sustained)
        assert all(a >= b for a, b in zip(sustained, sustained[1:]))

    def test_sweep_records_probes_and_round_trips(self):
        result = sweep_session().sla_sweep(6e4, **SWEEP_KWARGS)
        assert len(result.probes) >= SWEEP_KWARGS["grid_points"]
        for probe in result.probes:
            assert math.isfinite(probe.latency_ns)
            assert probe.meets_sla == (probe.latency_ns <= result.sla_ns)
        rebuilt = type(result).from_dict(json.loads(json.dumps(result.to_dict())))
        assert rebuilt.to_dict() == result.to_dict()

    def test_impossible_budget_returns_zero(self):
        result = sweep_session().sla_sweep(1.0, **SWEEP_KWARGS)  # 1 ns budget
        assert result.max_sustainable_qps == 0.0

    @pytest.mark.parametrize("processes", [0, -1])
    def test_non_positive_process_count_is_rejected(self, processes):
        with pytest.raises(ValueError, match="processes must be >= 1"):
            sweep_session().sla_sweep(6e4, parallel=True, processes=processes, **SWEEP_KWARGS)

    def test_bad_bounds_are_rejected(self):
        with pytest.raises(ValueError):
            sla_sweep(lambda qps: None, 1e5, (1e5, 1e4))
        with pytest.raises(ValueError):
            sla_sweep(lambda qps: None, -1.0, (1e4, 1e5))

    @pytest.mark.parametrize(
        "knobs, message",
        [
            ({"grid_points": 1}, "grid_points must be >= 2"),
            ({"grid_points": 0, "refine_iters": -5}, "grid_points must be >= 2"),
            ({"refine_iters": -1}, "refine_iters must be >= 0"),
        ],
    )
    def test_search_knobs_below_their_minimum_are_rejected_before_any_probe(self, knobs, message):
        def evaluate(qps):
            pytest.fail(f"probed {qps} qps")

        with pytest.raises(ValueError, match=message):
            sla_sweep(evaluate, 6e4, (5e4, 4e6), **knobs)
        with pytest.raises(ValueError, match=message):
            sweep_session().sla_sweep(6e4, (5e4, 4e6), **knobs)

    @pytest.mark.parametrize(
        "knobs, message",
        [
            ({"grid_points": 0}, "grid_points must be >= 2"),
            ({"refine_iters": -1}, "refine_iters must be >= 0"),
        ],
    )
    def test_parallel_sweep_rejects_search_knobs_before_starting_workers(
        self, knobs, message, monkeypatch
    ):
        import repro.api.sweep

        def no_pool():
            pytest.fail("the worker pool was touched before the knobs were checked")

        monkeypatch.setattr(repro.api.sweep, "worker_pool", no_pool)
        with pytest.raises(ValueError, match=message):
            sweep_session().sla_sweep(6e4, (5e4, 4e6), parallel=True, **knobs)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestServeCLI:
    def test_default_serve_reports_three_systems(self, capsys):
        from repro.api.cli import main

        assert main(["serve", "--quick", "--qps", "3e5", "--sla-ms", "1"]) == 0
        out = capsys.readouterr().out
        for column in ("p50_ns", "p95_ns", "p99_ns", "goodput_qps"):
            assert column in out
        for system in ("pifs-rec", "pond", "beacon"):
            assert system in out

    def test_smoke_mode_covers_every_registered_system(self, capsys):
        from repro.api.cli import main
        from repro.api.registry import available_systems

        assert main(["serve", "--all", "--smoke", "--qps", "3e5"]) == 0
        out = capsys.readouterr().out
        for system in available_systems():
            assert system in out

    def test_unknown_system_exits_with_error(self, capsys):
        from repro.api.cli import main

        assert main(["serve", "not-a-system", "--quick"]) == 2
        assert "unknown system" in capsys.readouterr().err

    def test_json_output_with_sla_sweep_is_valid_json(self, capsys):
        from repro.api.cli import main

        code = main([
            "serve", "pond", "--quick", "--json",
            "--find-max-qps", "--sla-ms", "0.06",
            "--qps-min", "5e4", "--qps-max", "2e6",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [entry["system"] for entry in payload["results"]] == ["Pond"]
        assert "pond" in payload["sla_sweeps"]
        assert math.isfinite(payload["sla_sweeps"]["pond"]["max_sustainable_qps"])

    def test_find_max_qps_without_sla_is_an_error(self, capsys, monkeypatch):
        from repro.api.cli import main

        monkeypatch.setattr(Simulation, "serve", _never_served)
        assert main(["serve", "pond", "--quick", "--find-max-qps"]) == 2
        assert "--sla-ms" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--router", "hash"],
        ["--fleet-seed", "3"],
        ["--workers", "2"],
        ["beacon", "--trace-out", "trace.json"],
    ], ids=["router", "fleet-seed", "workers", "export-two-systems"])
    def test_flags_are_checked_before_the_first_session(self, flags, capsys, monkeypatch):
        from repro.api.cli import main

        monkeypatch.setattr(Simulation, "serve", _never_served)
        assert main(["serve", "pond", *flags, "--quick"]) == 2
        assert flags[-2] in capsys.readouterr().err

    def test_shards_serve_a_fleet(self, capsys):
        from repro.api.cli import main
        from repro.fleet import FleetServeResult

        assert main([
            "serve", "pifs-rec", "--quick", "--shards", "2",
            "--qps", "3e5", "--sla-ms", "5", "--json",
        ]) == 0
        result = FleetServeResult.from_dict(json.loads(capsys.readouterr().out)["results"][0])
        assert result.num_shards == 2
        assert result.requests > 0 and result.latency.is_finite()
        assert result.max_queue_depth == max(shard.max_queue_depth for shard in result.per_shard)

    def test_shards_exit_1_when_the_fleet_serves_nothing(self, monkeypatch, capsys):
        from repro.api import cli
        from repro.fleet import serve_fleet

        def empty_serve_fleet(*args, **kwargs):
            result = serve_fleet(*args, **kwargs)
            result.requests = 0
            return result

        monkeypatch.setattr(cli, "serve_fleet", empty_serve_fleet)
        assert cli.main(["serve", "pifs-rec", "--quick", "--shards", "2", "--qps", "3e5"]) == 1
        assert "served zero requests" in capsys.readouterr().err


def _never_served(*args, **kwargs):
    pytest.fail("serve ran a session before checking its flags")


# ---------------------------------------------------------------------------
# Queue-depth aggregation edge cases
# ---------------------------------------------------------------------------
class TestQueueDepthAggregation:
    """The mean-queue-depth average must only span hosts that admitted work."""

    def test_zero_request_workload(self, tiny_model, tiny_system):
        from repro.api.registry import create_system
        from repro.config import WorkloadConfig
        from repro.traces.workload import build_workload

        workload = build_workload(
            WorkloadConfig(model=tiny_model, batch_size=2, num_batches=0, pooling_factor=4, seed=5)
        )
        assert not workload.requests
        result = serve(create_system("pond", tiny_system), workload, ServeConfig(qps=1e5))
        assert result.requests == 0
        assert result.mean_queue_depth == 0.0
        assert result.max_queue_depth == 0
        assert result.queue_depth_timelines == {}
        assert result.mean_batch_size == 0.0
        assert result.achieved_qps == 0.0
        assert result.sla_attainment == 0.0

    def test_hosts_without_admissions_are_excluded(self, tiny_workload, tiny_system):
        """A host that never admits must not drag the mean toward zero.

        The workload targets host 0 only; serving it on a two-host machine
        must leave host 1 out of the timelines and produce the same mean
        depth as the single-host machine (queue dynamics are a pure
        function of arrivals and batching).
        """
        from repro.api.registry import create_system

        single = serve(
            create_system("pond", tiny_system), tiny_workload, ServeConfig(qps=2e5, seed=3)
        )
        two_hosts = serve(
            create_system("pond", replace(tiny_system, num_hosts=2)),
            tiny_workload,
            ServeConfig(qps=2e5, seed=3),
        )
        assert set(two_hosts.queue_depth_timelines) == {0}
        assert two_hosts.mean_queue_depth == single.mean_queue_depth
        assert two_hosts.max_queue_depth == single.max_queue_depth


# ---------------------------------------------------------------------------
# Vector serve dispatch
# ---------------------------------------------------------------------------
class TestVectorServeDispatch:
    def test_vector_engine_routes_through_batch_hook(self, tiny_workload, tiny_system, monkeypatch):
        from repro.api.registry import create_system
        from repro.sls.engine import SLSSystem

        calls = []
        original = SLSSystem.service_batch_vector

        def spy(self, requests, start_ns, host_id):
            calls.append(len(requests))
            return original(self, requests, start_ns, host_id)

        monkeypatch.setattr(SLSSystem, "service_batch_vector", spy)
        system = create_system("pifs-rec", tiny_system).set_engine("vector")
        result = serve(system, tiny_workload, ServeConfig(qps=2e5))
        assert system._vector_fallback_reason is None
        assert calls, "vector serve did not dispatch through service_batch_vector"
        assert sum(calls) == len(tiny_workload.requests)
        assert result.requests == len(tiny_workload.requests)

    def test_scalar_engine_keeps_per_request_dispatch(self, tiny_workload, tiny_system, monkeypatch):
        from repro.api.registry import create_system
        from repro.sls.engine import SLSSystem

        calls = []
        original = SLSSystem.service_batch_vector

        def spy(self, requests, start_ns, host_id):
            calls.append(len(requests))
            return original(self, requests, start_ns, host_id)

        monkeypatch.setattr(SLSSystem, "service_batch_vector", spy)
        serve(create_system("pifs-rec", tiny_system), tiny_workload, ServeConfig(qps=2e5))
        assert calls == []

    def test_batch_hook_requires_vector_context(self, tiny_workload, tiny_system):
        from repro.api.registry import create_system

        system = create_system("pond", tiny_system)
        system.begin_session(tiny_workload)
        with pytest.raises(RuntimeError, match="vector context"):
            system.service_batch_vector(list(tiny_workload.requests[:1]), 0.0, 0)

    def test_batch_hook_matches_sequential_service(self, tiny_workload, tiny_system):
        from repro.api.registry import create_system

        batched = create_system("pifs-rec", tiny_system).set_engine("vector")
        batched.begin_session(tiny_workload)
        completions = batched.service_batch_vector(list(tiny_workload.requests), 0.0, 0)

        sequential = create_system("pifs-rec", tiny_system).set_engine("vector")
        sequential.begin_session(tiny_workload)
        cursor = 0.0
        expected = []
        for request in tiny_workload.requests:
            cursor = sequential.service_request(request, cursor, 0)
            expected.append(cursor)
        assert completions == expected

    def test_context_holds_one_batch_and_none_after_serve(
        self, tiny_workload, tiny_system, monkeypatch
    ):
        """Every dispatched batch is the context's whole unit, and it lists
        only positions of that batch; the context ends with the session."""
        from repro.api.registry import create_system
        from repro.sls.engine import SLSSystem

        config = ServeConfig(qps=2e5, max_batch_size=4)
        original = SLSSystem.service_batch_vector
        served = []

        def spy(self, requests, start_ns, host_id):
            completions = original(self, requests, start_ns, host_id)
            context = self._vector
            assert 0 < len(context._spans) <= config.max_batch_size
            assert set(context._spans) == {request.request_id for request in requests}
            addresses = np.concatenate([request.addresses for request in requests]).tolist()
            start = context._block_start
            assert 0 < len(context.addr) <= len(addresses)
            assert context.addr == addresses[start:start + len(context.addr)]
            served.append(len(requests))
            return completions

        monkeypatch.setattr(SLSSystem, "service_batch_vector", spy)
        system = create_system("pifs-rec", tiny_system).set_engine("vector")
        serve(system, tiny_workload, config)
        assert sum(served) == len(tiny_workload.requests)
        assert system._vector is None

    def test_batch_hook_on_a_streamed_session_matches_eager(self, tiny_workload_config, tiny_system):
        """Streamed sessions can dispatch vector batches: same completions and state."""
        from harness import run_fingerprint
        from repro.api.registry import create_system
        from repro.traces.workload import build_workload

        def serve_in_batches(workload):
            system = create_system("pifs-rec", tiny_system).set_engine("vector")
            system.begin_session(workload)
            requests = list(workload)
            cursor, completions = 0.0, []
            for start in range(0, len(requests), 3):
                completions += system.service_batch_vector(requests[start:start + 3], cursor, 0)
                cursor = completions[-1]
            result = system.finish_session(cursor)
            return completions, run_fingerprint(system, result)

        eager = build_workload(tiny_workload_config)
        streamed = build_workload(tiny_workload_config, streaming=True, window_batches=1)
        assert serve_in_batches(streamed) == serve_in_batches(eager)
