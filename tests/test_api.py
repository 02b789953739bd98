"""Tests for the ``repro.api`` façade: registry, sessions, sweeps, results."""

import csv
import json

import pytest

from repro.api import (
    DuplicateSystemError,
    RunResult,
    Simulation,
    Sweep,
    SweepResult,
    UnknownSystemError,
    available_systems,
    clear_cache,
    create_system,
    point,
    register_system,
    spec_key,
    system_factory,
    unregister_system,
)
from repro.api.session import RunSpec, cache_size
from repro.baselines import SYSTEM_FACTORIES
from repro.baselines.pond import PondSystem
from repro.config import DEFAULT_SYSTEM
from repro.experiments.common import DEFAULT_SCALE, EvaluationScale, evaluation_system
from repro.sls.result import SimResult

#: Very small scale so API tests stay fast.
TINY_SCALE = EvaluationScale(
    model_scale=0.004,
    num_tables=2,
    batch_size=2,
    num_batches=1,
    pooling_factor=4,
    host_threads=4,
    migration_epoch_accesses=256,
)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestRegistry:
    def test_builtins_registered(self):
        names = available_systems()
        for name in ("pond", "pond+pm", "beacon", "recnmp", "tpp", "pifs-rec", "pifs-rec-nopm"):
            assert name in names

    def test_decorator_registration_and_unregister(self):
        @register_system("test-dummy")
        class Dummy(PondSystem):
            name = "Dummy"

        try:
            assert "test-dummy" in available_systems()
            assert system_factory("TEST-DUMMY") is Dummy
        finally:
            unregister_system("test-dummy")
        assert "test-dummy" not in available_systems()

    def test_duplicate_name_rejected(self):
        with pytest.raises(DuplicateSystemError):
            register_system("pond", PondSystem.__bases__[0])

    def test_same_factory_reregistration_is_noop(self):
        register_system("pond", system_factory("pond"))
        assert system_factory("pond") is SYSTEM_FACTORIES["pond"]

    def test_unknown_name(self, tiny_system):
        with pytest.raises(UnknownSystemError) as excinfo:
            create_system("magic", tiny_system)
        assert "magic" in str(excinfo.value)
        # Stays catchable as the KeyError the old registry raised.
        with pytest.raises(KeyError):
            create_system("magic", tiny_system)

    def test_unknown_system_error_pickles(self):
        import pickle

        error = UnknownSystemError("typo", {"pond": None, "beacon": None})
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, UnknownSystemError)
        assert clone.name == "typo"
        assert clone.known == error.known
        assert str(clone) == str(error)

    def test_parallel_sweep_propagates_unknown_system(self):
        sweep = Sweep(
            over={"system": ["definitely-not-registered", "pond"]},
            base=Simulation(scale=TINY_SCALE),
        )
        with pytest.raises(UnknownSystemError):
            sweep.run(parallel=True, processes=2, cache=False)

    def test_suggestion_for_close_miss(self, tiny_system):
        with pytest.raises(UnknownSystemError) as excinfo:
            create_system("pifs_rec", tiny_system)
        assert "did you mean" in str(excinfo.value)

    def test_unregistered_builtin_self_heals(self):
        unregister_system("pond")
        assert "pond" in available_systems()  # listings restore without a resolve
        assert system_factory("pond") is PondSystem
        assert "pond" in SYSTEM_FACTORIES

    def test_legacy_mapping_view(self):
        assert "pond" in SYSTEM_FACTORIES
        assert set(SYSTEM_FACTORIES) == set(available_systems())
        assert callable(SYSTEM_FACTORIES["pifs-rec"])


class TestSimulationBuilder:
    def test_defaults_track_default_system(self):
        sim = Simulation()
        spec = sim.spec()
        assert spec.system == "pifs-rec"
        assert spec.model == "RMC1"
        assert spec.scale is DEFAULT_SCALE
        assert spec.base_config is DEFAULT_SYSTEM
        # The derived machine equals the plain evaluation derivation of the
        # default scale over DEFAULT_SYSTEM.
        assert sim.build_system_config() == evaluation_system(DEFAULT_SCALE)

    def test_fluent_chaining_and_describe(self):
        sim = Simulation("pond").model("RMC4").hosts(2).batch_size(64).quick()
        coords = sim.describe()
        assert coords["system"] == "pond"
        assert coords["model"] == "RMC4"
        assert coords["hosts"] == 2
        assert coords["batch_size"] == 64
        config = sim.build_system_config()
        assert config.num_hosts == 2

    def test_clone_isolated(self):
        base = Simulation("pond").scale(TINY_SCALE)
        other = base.clone().system("pifs-rec").batch_size(4)
        assert base.spec().system == "pond"
        assert base.spec().batch_size is None
        assert other.spec().system == "pifs-rec"

    def test_unknown_setting_rejected(self):
        with pytest.raises(ValueError):
            Simulation(bogus_setting=3)

    def test_non_setter_methods_rejected_as_settings(self):
        with pytest.raises(ValueError):
            Simulation(run=True)
        with pytest.raises(ValueError):
            Sweep(over={"clone": [1]}, base=Simulation(scale=TINY_SCALE)).simulations()

    def test_model_names_case_insensitive_and_validated(self):
        assert Simulation().model("rmc4").spec().model == "RMC4"
        with pytest.raises(ValueError) as excinfo:
            Simulation().model("RMC9")
        assert "RMC1" in str(excinfo.value)

    def test_run_produces_runresult(self):
        run = Simulation("pond").scale(TINY_SCALE).run()
        assert isinstance(run, RunResult)
        assert run.system == "pond"
        assert run.total_ns > 0
        assert run.sim.requests > 0

    def test_run_caches_by_config_hash(self):
        sim = Simulation("pond").scale(TINY_SCALE)
        first = sim.run()
        assert cache_size() == 1
        second = sim.clone().run()
        assert cache_size() == 1  # cache hit, no re-simulation
        assert second.sim == first.sim
        third = sim.clone().batch_size(4).run()
        assert third.config_key != first.config_key
        assert cache_size() == 2

    def test_cache_hits_return_caller_owned_copies(self):
        sim = Simulation("pond").scale(TINY_SCALE)
        first = sim.run()
        first.params["note"] = "annotated by caller"
        first.sim.total_ns = 12345.0
        first.sim.device_access_counts.clear()
        second = sim.clone().run()
        assert "note" not in second.params  # cache entry not poisoned
        assert second.sim.total_ns != 12345.0
        assert second.sim.device_access_counts

    def test_spec_key_stable_and_sensitive(self):
        a = Simulation("pond").scale(TINY_SCALE).spec()
        b = Simulation("pond").scale(TINY_SCALE).spec()
        c = Simulation("pond").scale(TINY_SCALE).devices(2).spec()
        assert spec_key(a) == spec_key(b)
        assert spec_key(a) != spec_key(c)

    def test_spec_key_hashes_option_objects_structurally(self):
        from repro.pagemgmt.global_hotness import GlobalHotnessPolicy

        def key_for(threshold):
            # Fresh policy object each call: equal state must mean equal key,
            # regardless of object identity or reused memory addresses.
            policy = GlobalHotnessPolicy(cold_age_threshold=threshold)
            return spec_key(
                Simulation("pifs-rec").scale(TINY_SCALE).options(hotness_policy=policy).spec()
            )

        assert key_for(0.04) == key_for(0.04)
        assert key_for(0.04) != key_for(0.20)

    def test_spec_key_distinguishes_closures_and_partials(self):
        from functools import partial

        from repro.config import replace_page_mgmt

        def key_with(transform):
            return spec_key(Simulation("pond").scale(TINY_SCALE).configure(transform).spec())

        def make_transform(threshold):
            def transform(config):
                return replace_page_mgmt(config, migrate_threshold=threshold)
            return transform

        # Two closures from the same factory share a qualname but differ in
        # captured state; two equal-state partials must hash identically.
        assert key_with(make_transform(0.10)) != key_with(make_transform(0.50))
        assert key_with(lambda c, t=0.1: replace_page_mgmt(c, migrate_threshold=t)) != \
            key_with(lambda c, t=0.5: replace_page_mgmt(c, migrate_threshold=t))
        assert key_with(partial(replace_page_mgmt, migrate_threshold=0.2)) == \
            key_with(partial(replace_page_mgmt, migrate_threshold=0.2))

    def test_spec_key_distinguishes_lambda_constants(self):
        from dataclasses import replace as dc_replace

        def key_with(transform):
            return spec_key(Simulation("pond").scale(TINY_SCALE).configure(transform).spec())

        # Same bytecode, different literal constant: must not collide.
        assert key_with(lambda c: dc_replace(c, num_hosts=2)) != \
            key_with(lambda c: dc_replace(c, num_hosts=4))

    def test_replacing_a_registered_factory_invalidates_cached_key(self):
        first = Simulation("pond").scale(TINY_SCALE).run()

        class OtherPond(PondSystem):
            name = "OtherPond"

        register_system("pond", OtherPond, replace=True)
        try:
            second = Simulation("pond").scale(TINY_SCALE).run()
            assert second.config_key != first.config_key
            assert second.sim is not first.sim
            assert second.sim.system == "OtherPond"
        finally:
            register_system("pond", PondSystem, replace=True)

    def test_stable_token_distinguishes_parametrized_classes(self):
        from repro.api.session import _stable_token

        def make(extra):
            class Custom(PondSystem):
                def process_request(self, request, start_ns, host_id):
                    return super().process_request(request, start_ns, host_id) + extra

            return Custom

        # Same qualname, different captured behavior: distinct tokens.
        assert _stable_token(make(0)) != _stable_token(make(1_000_000))
        # Equal behavior: equal tokens (and no super()-cycle blowup).
        assert _stable_token(make(5)) == _stable_token(make(5))

    def test_registration_is_atomic_on_alias_conflict(self):
        from repro.api import DuplicateSystemError

        class Mine(PondSystem):
            name = "Mine"

        with pytest.raises(DuplicateSystemError):
            register_system("mine-unique", Mine, aliases=("pond",))
        # The failed call must not leave the primary name half-registered.
        assert "mine-unique" not in available_systems()

    def test_stable_token_distinguishes_set_state(self):
        from repro.api.session import _stable_token

        assert _stable_token({1, 2, 3}) != _stable_token(set())
        assert _stable_token(frozenset({"a"})) != _stable_token(frozenset({"b"}))
        assert _stable_token({2, 1}) == _stable_token({1, 2})

    def test_cache_key_computed_before_run(self):
        from repro.pagemgmt.global_hotness import GlobalHotnessPolicy

        def fresh():
            return (
                Simulation("pifs-rec")
                .scale(TINY_SCALE)
                .options(hotness_policy=GlobalHotnessPolicy(cold_age_threshold=0.16))
            )

        first = fresh().run()
        assert cache_size() == 1
        # The policy object mutates during the run; an identical fresh spec
        # must still hit the cache (key hashed pre-run, not post-run).
        second = fresh().run()
        assert cache_size() == 1
        assert second.config_key == first.config_key
        assert second.sim == first.sim

    def test_explicit_zero_values_are_honored(self):
        from repro.experiments.common import evaluation_system

        config = evaluation_system(TINY_SCALE, local_capacity_bytes=0)
        assert config.local_dram_capacity_bytes == 0
        # Zero is a valid capacity, so the facade must not swap in a default
        # (zero counts such as num_batches are rejected by RunSpec instead).
        config = Simulation().scale(TINY_SCALE).local_capacity(0).build_system_config()
        assert config.local_dram_capacity_bytes == 0


class TestRunSpecValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("batch_size", 0),
            ("num_batches", 0),
            ("pooling_factor", 0),
            ("pooling_factor", -3),
            ("num_hosts", 0),
            ("num_fabric_switches", 0),
            ("num_cxl_devices", 0),
            ("fleet_shards", -1),
            ("fleet_router", "round-robin"),
            ("engine", "warp"),
        ],
    )
    def test_run_spec_rejects_an_invalid_field_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            RunSpec(**{field: value})

    @pytest.mark.parametrize(
        "setter, field",
        [
            ("pooling", "pooling_factor"),
            ("hosts", "num_hosts"),
            ("devices", "num_cxl_devices"),
            ("switches", "num_fabric_switches"),
            ("batch_size", "batch_size"),
            ("num_batches", "num_batches"),
        ],
    )
    def test_zero_counts_fail_at_the_setter(self, setter, field):
        session = Simulation().quick()
        with pytest.raises(ValueError, match=field):
            getattr(session, setter)(0)
        assert getattr(session.spec(), field) != 0


class TestResultsRoundTrip:
    def test_simresult_json_round_trip(self):
        sim = Simulation("pifs-rec").scale(TINY_SCALE).run().sim
        assert isinstance(sim, SimResult)
        clone = SimResult.from_dict(json.loads(json.dumps(sim.to_dict())))
        assert clone == sim

    def test_runresult_json_round_trip(self):
        run = Simulation("pond").scale(TINY_SCALE).run()
        clone = RunResult.from_json(run.to_json())
        assert clone == run
        assert clone.sim.device_access_counts == run.sim.device_access_counts

    def test_sweepresult_json_round_trip(self):
        result = Sweep(
            over={"system": ["pond", "pifs-rec"]},
            base=Simulation(scale=TINY_SCALE),
        ).run()
        clone = SweepResult.from_json(result.to_json())
        assert clone == result
        assert clone.pivot("system", "model") == result.pivot("system", "model")

    def test_metric_rejects_non_numeric_names(self):
        run = Simulation("pond").scale(TINY_SCALE).run()
        assert run.metric("total_ns") == run.total_ns
        for bad in ("system", "speedup_over", "device_access_counts", "no_such_metric"):
            with pytest.raises(AttributeError):
                run.metric(bad)

    def test_metric_and_speedup_helpers(self):
        result = Sweep(
            over={"system": ["pond", "pifs-rec"]},
            base=Simulation(scale=TINY_SCALE),
        ).run()
        pond = result.only(system="pond")
        pifs = result.only(system="pifs-rec")
        assert pifs.speedup_over(pond) == pond.total_ns / pifs.total_ns
        normalized = result.normalized("total_ns")
        assert max(normalized) == pytest.approx(1.0)


class TestSweep:
    def test_2x2_grid_deterministic_order(self):
        sweep = Sweep(
            over={"system": ["pond", "pifs-rec"], "batch_size": [2, 4]},
            base=Simulation(scale=TINY_SCALE),
        )
        assert len(sweep) == 4
        result = sweep.run(cache=False)
        coords = [(r.params["system"], r.params["batch_size"]) for r in result]
        assert coords == [("pond", 2), ("pond", 4), ("pifs-rec", 2), ("pifs-rec", 4)]

    @pytest.mark.parametrize("processes", [0, -2])
    def test_non_positive_process_count_is_rejected(self, processes):
        sweep = Sweep(over={"batch_size": [2, 4]}, base=Simulation(scale=TINY_SCALE))
        with pytest.raises(ValueError, match="processes must be >= 1"):
            sweep.run(parallel=True, processes=processes)

    def test_serial_and_parallel_identical(self):
        sweep = Sweep(
            over={"system": ["pond", "pifs-rec"], "batch_size": [2, 4]},
            base=Simulation(scale=TINY_SCALE),
        )
        serial = sweep.run(parallel=False, cache=False)
        parallel = sweep.run(parallel=True, processes=2, cache=False)
        assert serial.to_json() == parallel.to_json()

    def test_sweep_uses_cache(self):
        base = Simulation(scale=TINY_SCALE)
        Sweep(over={"system": ["pond"]}, base=base).run()
        assert cache_size() == 1
        result = Sweep(over={"system": ["pond"], "batch_size": [TINY_SCALE.batch_size]}, base=base).run()
        # An explicit batch equal to the scale default normalizes to the
        # same cache key: pure cache hit, nothing re-simulates.
        assert cache_size() == 1
        assert len(result) == 1
        assert result[0].params["batch_size"] == TINY_SCALE.batch_size

    def test_name_and_factory_sessions_share_cache(self):
        first = Simulation("pond").scale(TINY_SCALE).run()
        assert cache_size() == 1
        second = Simulation(PondSystem).scale(TINY_SCALE).run()
        assert cache_size() == 1  # cache hit: the name resolved to the factory
        assert second.sim == first.sim
        # Labels follow the requesting session, not whichever form ran first.
        assert first.system == "pond"
        assert second.system == "Pond"

    def test_untokenizable_option_bypasses_cache(self):
        class Unpicklable:
            def __reduce__(self):
                raise TypeError("nope")

        sim = Simulation("pond").scale(TINY_SCALE).options(marker=Unpicklable())
        from repro.api.session import safe_spec_key

        assert safe_spec_key(sim.spec()) is None

    def test_stable_token_hashes_numpy_content(self):
        import numpy as np

        from repro.api.session import _stable_token

        assert _stable_token(np.array([1])) != _stable_token(np.array([2, 3, 4]))
        assert _stable_token(np.array([1, 2])) == _stable_token(np.array([1, 2]))

    def test_sweep_rerun_hits_cache_despite_stateful_options(self):
        from repro.pagemgmt.global_hotness import GlobalHotnessPolicy

        sweep = Sweep(
            over={
                "config": [
                    point(
                        "tuned",
                        system="pifs-rec",
                        options={"hotness_policy": GlobalHotnessPolicy(cold_age_threshold=0.16)},
                    )
                ]
            },
            base=Simulation(scale=TINY_SCALE),
        )
        first = sweep.run()
        assert cache_size() == 1
        # The policy object may mutate during the run; re-running the same
        # sweep must still hit the cache (keys frozen at compile time).
        second = sweep.run()
        assert cache_size() == 1
        assert second[0].sim == first[0].sim

    def test_axis_points_bundle_settings(self):
        result = Sweep(
            over={"fabric": [point(1, hosts=1, switches=1), point(2, hosts=2, switches=2)]},
            base=Simulation("pifs-rec", scale=TINY_SCALE),
        ).run()
        assert [r.params["fabric"] for r in result] == [1, 2]
        assert [r.params["hosts"] for r in result] == [1, 2]

    def test_pivot_matches_where(self):
        result = Sweep(
            over={"system": ["pond", "pifs-rec"], "batch_size": [2, 4]},
            base=Simulation(scale=TINY_SCALE),
        ).run()
        table = result.pivot("batch_size", "system")
        assert table[2]["pond"] == result.only(system="pond", batch_size=2).total_ns
        assert set(table) == {2, 4}

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            Sweep(over={"system": []})
        with pytest.raises(ValueError):
            Sweep(over={})


class TestCLI:
    def test_run_subcommand(self, capsys):
        from repro.api.cli import main

        assert main(["run", "pifs-rec", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "pifs-rec" in out
        assert "total latency" in out

    def test_sweep_subcommand_prints_comparison(self, capsys):
        from repro.api.cli import main

        assert main([
            "sweep", "--system", "pond", "--system", "pifs-rec",
            "--batch-size", "2", "--batch-size", "4", "--quick", "--serial",
        ]) == 0
        out = capsys.readouterr().out
        assert "total_ns" in out
        assert "speedup over 'pond'" in out

    def test_systems_subcommand(self, capsys):
        from repro.api.cli import main

        assert main(["systems"]) == 0
        out = capsys.readouterr().out
        assert "pifs-rec" in out and "pond" in out

    def test_run_json_round_trips(self, capsys):
        from repro.api.cli import main

        assert main(["run", "pond", "--quick", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert RunResult.from_dict(payload).system == "pond"

    def test_run_records_trace_and_metrics_without_changing_the_result(self, tmp_path, capsys):
        from repro.api.cli import main
        from repro.obs.recorder import validate_chrome_trace

        assert main(["run", "pond", "--quick", "--json"]) == 0
        plain = RunResult.from_dict(json.loads(capsys.readouterr().out))
        trace, metrics = tmp_path / "trace.json", tmp_path / "metrics.csv"
        assert main([
            "run", "pond", "--quick", "--json",
            "--trace-out", str(trace), "--metrics-out", str(metrics),
        ]) == 0
        # The trace report goes to stderr: stdout stays one JSON document.
        observed = RunResult.from_dict(json.loads(capsys.readouterr().out))
        assert observed.sim.to_dict() == plain.sim.to_dict()
        assert validate_chrome_trace(json.loads(trace.read_text())) == []
        with open(metrics, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["metric", "value"] and len(rows) > 1

    def test_trace_out_builds_the_chrome_trace_once(self, tmp_path, monkeypatch, capsys):
        from repro.api.cli import main
        from repro.obs.recorder import TraceRecorder

        builds = []
        build = TraceRecorder.to_chrome_trace

        def counted(self):
            builds.append(self)
            return build(self)

        monkeypatch.setattr(TraceRecorder, "to_chrome_trace", counted)
        trace = tmp_path / "trace.json"
        assert main(["run", "pond", "--quick", "--trace-out", str(trace)]) == 0
        assert len(builds) == 1
        assert json.loads(trace.read_text()) == build(builds[0])

    def test_run_shards_prints_a_fleet_result(self, capsys):
        from repro.api.cli import main
        from repro.fleet import FleetResult

        outputs = []
        for workers in ("0", "2"):
            assert main([
                "run", "pifs-rec", "--quick", "--shards", "2", "--json", "--workers", workers,
            ]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        fleet = FleetResult.from_json(outputs[0])
        assert fleet.num_shards == 2
        assert sum(shard.requests for shard in fleet.per_shard) == fleet.requests > 0

    def test_run_shards_exits_1_when_the_shards_lose_a_request(self, monkeypatch, capsys):
        from repro.api import cli
        from repro.fleet import run_fleet

        def lossy_run_fleet(*args, **kwargs):
            result = run_fleet(*args, **kwargs)
            result.per_shard[0].requests -= 1
            return result

        monkeypatch.setattr(cli, "run_fleet", lossy_run_fleet)
        assert cli.main(["run", "pifs-rec", "--quick", "--shards", "2"]) == 1
        assert "do not sum to the trace" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--router=hash", "--fleet-seed=3", "--workers=2"])
    def test_fleet_options_need_shards(self, option, capsys):
        from repro.api.cli import main

        assert main(["run", "pond", "--quick", option]) == 2
        assert option.split("=")[0] in capsys.readouterr().err

    def test_negative_worker_counts_exit_2(self, capsys):
        from repro.api.cli import main

        assert main(["run", "pifs-rec", "--quick", "--shards", "2", "--workers", "-3"]) == 2
        assert "workers must be >= 0" in capsys.readouterr().err
        assert main(["sweep", "--quick", "--jobs", "-2"]) == 2
        assert "processes must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["trace", "run", "pond"], ["fleet", "run"]])
    def test_trace_and_fleet_families_are_gone(self, argv, capsys):
        from repro.api.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


class TestSweepEngineCacheKey:
    """The config-hash cache must never serve one engine's results to the other."""

    def test_sweep_cache_key_distinguishes_engines(self):
        clear_cache()
        grid = {"batch_size": [2, 4]}
        scalar = Sweep(grid, base=Simulation("pond").scale(TINY_SCALE)).run()
        size_after_scalar = cache_size()
        assert size_after_scalar >= 2
        vector = Sweep(
            grid, base=Simulation("pond").scale(TINY_SCALE).engine("vector")
        ).run()
        # The vector points executed and were cached under their own keys —
        # not served from the scalar entries.
        assert cache_size() == size_after_scalar + 2
        for scalar_run, vector_run in zip(scalar, vector):
            assert scalar_run.config_key and vector_run.config_key
            assert scalar_run.config_key != vector_run.config_key
            # Equivalence: distinct cache entries, identical numbers.
            assert scalar_run.total_ns == vector_run.total_ns

    def test_engine_axis_points_get_distinct_keys(self):
        sweep = Sweep(
            {"engine": ["scalar", "vector"]}, base=Simulation("pond").scale(TINY_SCALE)
        )
        _, _, keys = sweep._compile()
        assert len(keys) == 2
        assert keys[0] and keys[1]
        assert keys[0] != keys[1]


class TestWorkerPool:
    """The persistent sweep pool: reuse, rebuild triggers, chunked scheduling."""

    def teardown_method(self):
        from repro.api.sweep import shutdown_worker_pool

        shutdown_worker_pool()

    def test_pool_persists_across_runs(self):
        from repro.api.sweep import shutdown_worker_pool, worker_pool

        shutdown_worker_pool()
        clear_cache()
        base = Simulation("pond").scale(TINY_SCALE)
        Sweep({"batch_size": [2, 4]}, base=base).run(parallel=True, processes=2, cache=False)
        pool = worker_pool()
        assert pool.active()
        first = pool._pool
        Sweep({"batch_size": [2, 4]}, base=Simulation("beacon").scale(TINY_SCALE)).run(
            parallel=True, processes=2, cache=False
        )
        assert pool._pool is first, "second sweep should reuse the live pool"
        shutdown_worker_pool()
        assert not pool.active()

    def test_pool_rebuilt_when_registry_changes(self):
        from repro.api.sweep import shutdown_worker_pool, worker_pool

        shutdown_worker_pool()
        clear_cache()
        base = Simulation("pond").scale(TINY_SCALE)
        Sweep({"batch_size": [2, 4]}, base=base).run(parallel=True, processes=2, cache=False)
        first = worker_pool()._pool
        register_system("pool-generation-probe", PondSystem, replace=True)
        try:
            Sweep({"batch_size": [2, 4]}, base=base).run(
                parallel=True, processes=2, cache=False
            )
            assert worker_pool()._pool is not first, (
                "a registry change must rebuild the forked workers"
            )
        finally:
            unregister_system("pool-generation-probe")

    def test_chunks_group_by_workload_in_first_occurrence_order(self):
        sweep = Sweep(
            {"system": ["pond", "beacon"], "batch_size": [2, 4]},
            base=Simulation().scale(TINY_SCALE),
        )
        tasks = [(sim.spec(), "") for sim, _ in sweep.simulations()]
        chunks = Sweep._chunk_by_workload(tasks)
        # Product order is (pond,2),(pond,4),(beacon,2),(beacon,4): two
        # workloads, each shared by both systems.
        assert [indices for indices, _ in chunks] == [[0, 2], [1, 3]]
        assert all(key for _, key in chunks)

    def test_single_workload_grid_still_occupies_every_worker(self):
        """A systems-only sweep (one shared workload) must not serialize.

        All grid points share one workload key; the scheduler has to split
        the group so each of the workers gets a chunk — every part still
        carrying the same workload key.
        """
        sweep = Sweep(
            {"system": ["pond", "beacon", "recnmp", "pifs-rec"]},
            base=Simulation().scale(TINY_SCALE),
        )
        tasks = [(sim.spec(), "") for sim, _ in sweep.simulations()]
        chunks = Sweep._chunk_by_workload(tasks, workers=4)
        assert len(chunks) == 4
        assert sorted(i for indices, _ in chunks for i in indices) == [0, 1, 2, 3]
        assert len({key for _, key in chunks}) == 1
        # Splitting stops at singletons even when more workers are free.
        assert len(Sweep._chunk_by_workload(tasks, workers=16)) == 4

    def test_parallel_persistent_matches_serial(self):
        from repro.api.sweep import shutdown_worker_pool

        grid = {"system": ["pond", "beacon"], "batch_size": [2, 4]}
        clear_cache()
        serial = Sweep(grid, base=Simulation().scale(TINY_SCALE)).run(parallel=False, cache=False)
        clear_cache()
        shutdown_worker_pool()
        parallel = Sweep(grid, base=Simulation().scale(TINY_SCALE)).run(
            parallel=True, processes=2, cache=False
        )
        assert [r.params for r in serial] == [r.params for r in parallel]
        assert [r.total_ns for r in serial] == [r.total_ns for r in parallel]
