"""The scenario subsystem: registry, composition, faults, determinism, CLI.

Engine bit-identity for scenarios lives in test_engine_equivalence.py; this
file covers the scenario layer itself — the catalog resolves and runs, the
JSON round trip is lossless, faults degrade what they claim to degrade (and
nothing else), multi-tenant/drift workloads have the promised structure,
and the ``python -m repro scenario`` CLI drives it all.
"""

import json

import numpy as np
import pytest

from harness import serve_fingerprint, sim_fingerprint
from repro.api.cli import main as cli_main
from repro.api.session import Simulation, build_system, clear_cache
from repro.config import BufferConfig, DEFAULT_SYSTEM
from repro.cxl.topology import FabricTopology
from repro.pifs.onswitch_buffer import OnSwitchBuffer
from repro.scenarios import (
    BufferDegradation,
    DeviceDegradation,
    DriftWorkload,
    DuplicateScenarioError,
    HopDegradation,
    LinkDegradation,
    MultiTenantWorkload,
    Scenario,
    TenantSpec,
    TraceFileWorkload,
    TrafficSpec,
    UnknownScenarioError,
    available_scenarios,
    fault_from_dict,
    provider_from_dict,
    register_scenario,
    scenario,
    unregister_scenario,
)
from repro.traces.files import save_workload_trace, workload_from_trace
from test_result_pins import result_digest

#: Every scenario the starter catalog promises (ISSUE 5 wants >= 8).
CATALOG = (
    "paper-baseline",
    "zipfian-skew",
    "uniform-stress",
    "drift-rotation",
    "tenant-mix",
    "tenant-quad",
    "fault-slow-link",
    "fault-degraded-device",
    "fault-buffer-squeeze",
    "fabric-congested",
    "pooling-scaling",
    "table-scaling",
)


#: The catalog's multi-tenant scenarios: their batches carry host ranges.
MULTI_TENANT = ("tenant-mix", "tenant-quad", "priority-inversion")


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestRegistry:
    def test_catalog_is_shipped(self):
        names = available_scenarios()
        assert len(names) >= 8
        assert set(CATALOG) <= set(names)

    def test_case_insensitive_resolution(self):
        assert scenario("PAPER-BASELINE").name == "paper-baseline"

    def test_unknown_scenario_suggests(self):
        with pytest.raises(UnknownScenarioError, match="paper-baseline"):
            scenario("paper-baselin")

    def test_register_and_unregister(self):
        custom = Scenario(name="test-custom", description="x", distribution="uniform")
        register_scenario(custom)
        try:
            assert scenario("test-custom") == custom
            with pytest.raises(DuplicateScenarioError):
                register_scenario(Scenario(name="test-custom", distribution="random"))
            register_scenario(
                Scenario(name="test-custom", distribution="random"), replace=True
            )
            assert scenario("test-custom").distribution == "random"
        finally:
            unregister_scenario("test-custom")
        with pytest.raises(UnknownScenarioError):
            scenario("test-custom")

    def test_decorator_factory_form(self):
        @register_scenario
        def _factory():
            return Scenario(name="test-factory", distribution="meta")

        try:
            assert scenario("test-factory").distribution == "meta"
        finally:
            unregister_scenario("test-factory")

    def test_non_scenario_rejected(self):
        with pytest.raises(TypeError):
            register_scenario("not-a-scenario")  # type: ignore[arg-type]

    def test_listing_uses_display_names(self):
        """Mixed-case registrations list under their own name, not the key."""
        register_scenario(Scenario(name="Test-MixedCase", distribution="meta"))
        try:
            assert "Test-MixedCase" in available_scenarios()
            assert "test-mixedcase" not in available_scenarios()
            assert scenario("test-mixedcase").name == "Test-MixedCase"
        finally:
            unregister_scenario("Test-MixedCase")


class TestScenarioDefinition:
    @pytest.mark.parametrize("name", CATALOG)
    def test_json_round_trip(self, name):
        entry = scenario(name)
        rebuilt = Scenario.from_json(entry.to_json())
        assert rebuilt == entry
        assert rebuilt.to_dict() == entry.to_dict()
        json.dumps(entry.to_dict())  # strictly JSON-safe

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            Scenario(name="bad", model="RMC9")

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario axis"):
            Scenario(name="bad", axes=(("frequency", (1, 2)),))

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="has no values"):
            Scenario(name="bad", axes=(("pooling", ()),))

    def test_fault_round_trip_dispatch(self):
        for fault in (
            LinkDegradation(bandwidth_scale=0.5, devices=(1, 2)),
            DeviceDegradation(extra_read_ns=50.0),
            BufferDegradation(capacity_bytes=1024),
            HopDegradation(extra_hop_ns=10.0),
        ):
            assert fault_from_dict(fault.to_dict()) == fault
        with pytest.raises(ValueError, match="unknown fault kind"):
            fault_from_dict({"kind": "meteor-strike"})

    def test_provider_round_trip_dispatch(self):
        for provider in (
            TraceFileWorkload(path="x.npz"),
            DriftWorkload(period_batches=3),
            MultiTenantWorkload(
                tenants=(TenantSpec(name="a"), TenantSpec(name="b", model="RMC2"))
            ),
        ):
            assert provider_from_dict(provider.to_dict()) == provider
        with pytest.raises(ValueError, match="unknown workload provider"):
            provider_from_dict({"kind": "quantum"})

    def test_traffic_spec_validates_eagerly(self):
        with pytest.raises(ValueError, match="unknown arrival process"):
            TrafficSpec(arrival="possion")
        with pytest.raises(ValueError, match="qps must be positive"):
            TrafficSpec(qps=0.0)

    @pytest.mark.parametrize(
        "knob, value, field",
        [
            ("qps", float("nan"), "qps"),
            ("qps", float("inf"), "qps"),
            ("max_batch_size", 0, "max_batch_size"),
            ("max_wait_us", -1.0, "max_wait_ns"),
            ("sla_ms", 0.0, "sla_ns"),
            ("sla_ms", -1.0, "sla_ns"),
        ],
    )
    def test_traffic_spec_rejects_what_serve_config_rejects(self, knob, value, field):
        with pytest.raises(ValueError, match=field):
            TrafficSpec(**{knob: value})

    def test_invalid_fault_parameters(self):
        with pytest.raises(ValueError):
            LinkDegradation(bandwidth_scale=0.0)
        with pytest.raises(ValueError):
            DeviceDegradation(extra_read_ns=-1.0)
        with pytest.raises(ValueError):
            BufferDegradation(capacity_scale=1.5)
        with pytest.raises(ValueError):
            HopDegradation(extra_hop_ns=-5.0)

    def test_multi_tenant_validation(self):
        with pytest.raises(ValueError, match="at least two tenants"):
            MultiTenantWorkload(tenants=(TenantSpec(name="solo"),))
        with pytest.raises(ValueError, match="unknown tenant model"):
            TenantSpec(name="x", model="RMC99")
        with pytest.raises(ValueError, match="at least one host"):
            TenantSpec(name="x", hosts=0)


class TestDeterminism:
    @pytest.mark.parametrize("name", ["paper-baseline", "fault-slow-link", "tenant-mix"])
    def test_same_seed_same_result(self, name):
        first = scenario(name).run(quick=True, cache=False)
        second = scenario(name).run(quick=True, cache=False)
        assert sim_fingerprint(first.sim) == sim_fingerprint(second.sim)

    def test_serve_deterministic(self):
        first = scenario("paper-baseline").serve(quick=True)
        second = scenario("paper-baseline").serve(quick=True)
        # Full fingerprint: latency stats, per-request records, sim + net.
        assert serve_fingerprint(first) == serve_fingerprint(second)
        assert first.goodput_qps == second.goodput_qps


class TestFaultEffects:
    def _baseline(self, system="pifs-rec"):
        return scenario("paper-baseline").run(quick=True, system=system, cache=False)

    def test_link_degradation_slows_fabric_traffic(self):
        degraded = scenario("fault-slow-link").run(quick=True, cache=False)
        assert degraded.total_ns > self._baseline().total_ns

    def test_device_degradation_slows_reads(self):
        degraded = scenario("fault-degraded-device").run(quick=True, cache=False)
        assert degraded.total_ns > self._baseline().total_ns

    def test_faults_compose(self):
        single = scenario("fault-slow-link").run(quick=True, cache=False)
        sim = scenario("fault-slow-link").simulation(quick=True)
        sim.faults(DeviceDegradation(extra_read_ns=500.0, devices=(0, 1, 2, 3)))
        both = sim.run(cache=False)
        assert both.total_ns > single.total_ns

    def test_fault_params_recorded(self):
        run = scenario("fault-slow-link").run(quick=True, cache=False)
        assert run.params["faults"] == ["link-degrade"]

    def test_link_degrade_scoped_to_devices(self):
        sim = Simulation("pifs-rec").quick().faults(
            LinkDegradation(bandwidth_scale=0.5, devices=(0,))
        )
        system = sim.build_system()
        system.begin_session(sim.build_workload())
        links = [device.link for device in system.backends.devices]
        assert links[0].bandwidth_gbps == pytest.approx(
            DEFAULT_SYSTEM.cxl.downstream_port_bandwidth_gbps * 0.5
        )
        for link in links[1:]:
            assert link.bandwidth_gbps == DEFAULT_SYSTEM.cxl.downstream_port_bandwidth_gbps

    def test_buffer_resize_semantics(self):
        buffer = OnSwitchBuffer(BufferConfig(capacity_bytes=1024, policy="lru"), row_bytes=256)
        for address in range(4):
            buffer.lookup(address * 256)
            buffer.insert(address * 256)
        assert buffer.occupancy == 4
        buffer.resize(512)  # 2 rows: evicts the 2 oldest residents
        assert buffer.capacity_rows == 2
        assert buffer.occupancy == 2
        assert buffer.evictions == 2

    def test_buffer_fault_applies_to_pifs_switch(self):
        sim = Simulation("pifs-rec").quick().faults(BufferDegradation(capacity_scale=0.25))
        system = sim.build_system()
        system.begin_session(sim.build_workload())
        expected = int(DEFAULT_SYSTEM.pifs.on_switch_buffer.capacity_bytes * 0.25)
        for switch in system.backends.switches:
            assert switch.buffer.config.capacity_bytes == expected

    def test_buffer_fault_noop_on_bufferless_system(self):
        run = (
            Simulation("pond")
            .quick()
            .faults(BufferDegradation(capacity_scale=0.25))
            .run(cache=False)
        )
        reference = Simulation("pond").quick().run(cache=False)
        assert sim_fingerprint(run.sim) == sim_fingerprint(reference.sim)

    def test_hop_degradation_changes_route_table(self):
        topology = FabricTopology(2, DEFAULT_SYSTEM.cxl)
        healthy = topology.hop_latency_ns(0, 1)
        topology.degrade_hops(400.0)
        assert topology.hop_latency_ns(0, 1) == healthy + 400.0

    def test_hop_degradation_slows_multi_switch_session(self):
        healthy = (
            scenario("fabric-congested")
            .simulation(quick=True)
            ._set(faults=())  # the same machine without the fault
            .run(cache=False)
        )
        degraded = scenario("fabric-congested").run(quick=True, cache=False)
        assert degraded.total_ns > healthy.total_ns


class TestWorkloadMixes:
    def test_multi_tenant_structure(self):
        entry = scenario("tenant-mix")
        sim = entry.simulation(quick=True)
        workload = sim.build_workload()
        provider = entry.workload
        assert isinstance(provider, MultiTenantWorkload)
        assert entry.resolved_hosts == provider.total_hosts == 2
        # Tenant 0 (RMC1) owns the low table range and host 0; tenant 1
        # (RMC3) the high range and host 1.
        scale = sim.spec().scale
        tables_0 = scale.model("RMC1").num_tables
        space = workload.address_space
        for request in workload.requests:
            if request.table < tables_0:
                assert request.host_id == 0
            else:
                assert request.host_id == 1
            # Rows resolve in their tenant's region of the combined space.
            assert request.addresses.tolist() == [
                space.row_address(request.table, int(row)) for row in request.rows
            ]
        assert {r.host_id for r in workload.requests} == {0, 1}
        assert workload.model.num_tables == tables_0 + scale.model("RMC3").num_tables

    def test_multi_tenant_host_mismatch_rejected(self):
        sim = scenario("tenant-mix").simulation(quick=True).hosts(5)
        with pytest.raises(ValueError, match="set .hosts"):
            sim.build_workload()

    def test_heterogeneous_embedding_dim_rejected(self):
        provider = MultiTenantWorkload(
            tenants=(
                TenantSpec(name="a", model="RMC1"),  # dim 64
                TenantSpec(name="b", model="RMC4"),  # dim 128
            )
        )
        sim = Simulation("pifs-rec").quick().hosts(2).workload_provider(provider)
        with pytest.raises(ValueError, match="embedding dimension"):
            sim.build_workload()

    @pytest.mark.parametrize("engine", ["scalar", "vector"])
    @pytest.mark.parametrize("name", MULTI_TENANT)
    def test_multi_tenant_trace_replays_identically(self, name, engine, tmp_path):
        """The exported mix, reloaded under the combined model and the
        tenants' hosts, replays to the provider's own SimResult digest."""
        spec = scenario(name).simulation(system="pifs-rec", engine=engine, quick=True).spec()
        provider = spec.workload_provider
        workload = provider.build(spec)
        path = save_workload_trace(workload, tmp_path / f"{name}.npz")
        reloaded = workload_from_trace(
            path, provider.combined_model(spec), num_hosts=provider.total_hosts
        )
        assert len(reloaded) == len(workload)
        assert result_digest(build_system(spec).run(reloaded)) == result_digest(
            build_system(spec).run(workload)
        )

    def test_tenant_trace_rejects_fewer_hosts(self, tmp_path):
        spec = scenario("tenant-quad").simulation(quick=True).spec()
        provider = spec.workload_provider
        path = save_workload_trace(provider.build(spec), tmp_path / "quad.npz")
        with pytest.raises(ValueError, match=r"host range \(first_host=\d+, host_count=\d+\)"):
            workload_from_trace(path, provider.combined_model(spec), num_hosts=2)

    def test_tenant_interleaving(self):
        """Batches interleave round-robin, so tenants contend throughout."""
        workload = scenario("tenant-mix").simulation(quick=True).build_workload()
        hosts = [request.host_id for request in workload.requests]
        first_half = hosts[: len(hosts) // 2]
        assert {0, 1} <= set(first_half)

    def test_drift_scenario_runs_with_provider_label(self):
        run = scenario("drift-rotation").run(quick=True, cache=False)
        assert run.params["workload"] == "drift:2"

    def test_workload_provider_distinct_cache_keys(self):
        """Provider workloads must not collide with generator workloads."""
        from repro.api.session import workload_key

        base = Simulation("pifs-rec").quick()
        drift = base.clone().workload_provider(DriftWorkload(period_batches=2))
        faster = base.clone().workload_provider(DriftWorkload(period_batches=4))
        keys = {
            workload_key(base.spec()),
            workload_key(drift.spec()),
            workload_key(faster.spec()),
        }
        assert len(keys) == 3

    def test_provider_requires_build(self):
        with pytest.raises(ValueError, match="build"):
            Simulation().workload_provider(object())

    def test_trace_file_cache_invalidates_on_overwrite(self, tmp_path):
        """An overwritten trace file must not be served stale from cache."""
        import numpy as np

        from repro.traces.files import save_trace
        from repro.traces.meta import TraceBatch

        def batch(value):
            return TraceBatch(
                indices_per_table=[np.asarray([value], dtype=np.int64)],
                offsets_per_table=[np.asarray([0], dtype=np.int64)],
            )

        path = tmp_path / "t.npz"
        save_trace([batch(1)], path)
        sim = Simulation("pifs-rec").quick().workload_provider(
            TraceFileWorkload(str(path))
        )
        first = sim.build_workload()
        assert first.requests[0].rows.tolist() == [1]
        import os

        save_trace([batch(2)], path)
        os.utime(path, ns=(1, 1))  # force a distinct mtime even on fast FS
        second = Simulation("pifs-rec").quick().workload_provider(
            TraceFileWorkload(str(path))
        ).build_workload()
        assert second.requests[0].rows.tolist() == [2]


class TestSweepIntegration:
    def test_scenario_axes_expand(self):
        sweep = scenario("pooling-scaling").sweep(systems=["pond", "pifs-rec"], quick=True)
        assert len(sweep) == 6  # 2 systems x 3 pooling values

    def test_tables_axis_rewrites_scale(self):
        sweep = scenario("table-scaling").sweep(quick=True)
        results = sweep.run(parallel=False)
        lookups = [run.sim.lookups for run in results]
        assert lookups == sorted(lookups) and lookups[0] < lookups[-1]

    def test_faulted_sweep_parallel_matches_serial(self):
        entry = scenario("fault-slow-link")
        serial = entry.sweep(systems=["pond", "pifs-rec"], quick=True).run(parallel=False)
        clear_cache()
        parallel = entry.sweep(systems=["pond", "pifs-rec"], quick=True).run(
            parallel=True, processes=2
        )
        assert [run.sim.to_dict() for run in serial] == [
            run.sim.to_dict() for run in parallel
        ]


class TestSessionIntegration:
    def test_run_scenario_by_name(self):
        run = Simulation("pond").quick().run_scenario("fault-slow-link")
        assert run.params["system"] == "pond"
        assert run.params["faults"] == ["link-degrade"]

    def test_scenario_keeps_scale_and_engine(self):
        sim = Simulation().quick().engine("vector").scenario("zipfian-skew")
        spec = sim.spec()
        assert spec.engine == "vector"
        assert spec.distribution == "zipfian"
        from repro.experiments.common import QUICK_SCALE

        assert spec.scale == QUICK_SCALE

    def test_explicit_system_survives_scenario(self):
        sim = Simulation("beacon").quick().scenario("fault-slow-link")
        assert sim.spec().system == "beacon"

    def test_explicit_default_system_override(self):
        """`--system pifs-rec` must win even against a non-default scenario system."""
        register_scenario(Scenario(name="test-pond-scn", system="pond"))
        try:
            assert scenario("test-pond-scn").simulation(quick=True).spec().system == "pond"
            sim = scenario("test-pond-scn").simulation(system="pifs-rec", quick=True)
            assert sim.spec().system == "pifs-rec"
        finally:
            unregister_scenario("test-pond-scn")

    def test_scenario_overwrites_leaked_workload_knobs(self):
        """A stale session setting must not leak into a named scenario run.

        Otherwise `sim.run_scenario(name)` and `python -m repro scenario
        run <name>` would silently compute different numbers for the same
        scenario name.
        """
        from dataclasses import replace

        sim = (
            Simulation()
            .quick()
            .distribution("uniform")
            .batch_size(2)
            .pooling(3)
            .devices(2)
            .local_capacity(4096)
            .options(page_management=False)
            .base_config(replace(DEFAULT_SYSTEM, host_threads=2))
            .scenario("fault-slow-link")
        )
        reference = scenario("fault-slow-link").simulation(quick=True)
        assert sim.spec() == reference.spec()

    def test_scenario_grid_honors_scale(self):
        from repro.experiments.common import QUICK_SCALE
        from repro.experiments.scenario_grid import run_scenario_grid

        clear_cache()
        grid = run_scenario_grid(
            QUICK_SCALE, scenarios=("paper-baseline",), systems=("pifs-rec",)
        )
        expected = scenario("paper-baseline").run(quick=True, engine="vector")
        assert grid["paper-baseline"]["pifs-rec"] == expected.total_ns


class TestScenarioCLI:
    def test_list(self, capsys):
        assert cli_main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in CATALOG:
            assert name in out

    def test_list_json(self, capsys):
        assert cli_main(["scenario", "list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {entry["name"] for entry in payload} >= set(CATALOG)

    def test_run_named(self, capsys):
        assert cli_main(["scenario", "run", "fault-slow-link", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "fault-slow-link" in out and "link-degrade" in out

    def test_run_json(self, capsys):
        assert cli_main(["scenario", "run", "paper-baseline", "--quick", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["scenario"]["name"] == "paper-baseline"
        assert payload[0]["run"]["sim"]["total_ns"] > 0

    def test_run_requires_name_or_all(self, capsys):
        assert cli_main(["scenario", "run"]) == 2

    def test_unknown_scenario_exit_code(self, capsys):
        assert cli_main(["scenario", "run", "not-a-scenario", "--quick"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_compare_serial(self, capsys):
        assert cli_main([
            "scenario", "compare", "fault-degraded-device",
            "--system", "pond", "--system", "pifs-rec", "--quick", "--serial",
        ]) == 0
        out = capsys.readouterr().out
        assert "speedup_vs_pond" in out

    @pytest.mark.parametrize("flags", [[], ["--stream"]], ids=["eager", "stream"])
    def test_export_trace(self, flags, tmp_path, capsys):
        target = tmp_path / "exported.npz"
        assert cli_main([
            "scenario", "run", "paper-baseline", "--quick",
            "--export-trace", str(target), *flags,
        ]) == 0
        assert target.is_file()
        from repro.traces.files import load_trace, save_workload_trace

        assert load_trace(target)
        eager = scenario("paper-baseline").simulation(quick=True).build_workload()
        reference = save_workload_trace(eager, tmp_path / "eager.npz")
        with np.load(target) as exported, np.load(reference) as expected:
            assert sorted(exported.files) == sorted(expected.files)
            for name in expected.files:
                np.testing.assert_array_equal(exported[name], expected[name])

    @pytest.mark.parametrize("name", MULTI_TENANT)
    def test_multi_tenant_export_trace(self, name, tmp_path, capsys):
        target = tmp_path / f"{name}.npz"
        assert cli_main([
            "scenario", "run", name, "--quick", "--export-trace", str(target),
        ]) == 0
        workload = scenario(name).simulation(quick=True).build_workload()
        assert f"exported {len(workload)} requests" in capsys.readouterr().out
        with np.load(target) as archive:
            assert "batch0_hosts" in archive.files

    def test_serve_trace_holds_serve_and_engine_spans(self, tmp_path, capsys):
        from repro.obs.recorder import validate_chrome_trace

        target = tmp_path / "trace.json"
        assert cli_main([
            "scenario", "run", "hot-table-nmp-storm", "--serve", "--quick",
            "--trace-out", str(target),
        ]) == 0
        trace = json.loads(target.read_text())
        assert validate_chrome_trace(trace) == []
        spans = {(event.get("cat"), event["name"]) for event in trace["traceEvents"]}
        assert ("serve", "batch") in spans and ("sim", "request") in spans

    def test_export_trace_single_scenario_only(self, capsys):
        assert cli_main([
            "scenario", "run", "paper-baseline", "zipfian-skew",
            "--quick", "--export-trace", "x.npz",
        ]) == 2
