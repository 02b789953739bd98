"""Scalar ↔ vector ↔ packet engine equivalence, eager ↔ streaming.

The vector and packet engines are only allowed to be *faster* or *more
detailed* — never different — and streaming a workload out-of-core is only
allowed to change memory residency, never the simulation.  These tests pin,
for every registered system, that every engine tier produces a
:class:`~repro.sls.result.SimResult` numerically identical to the scalar
oracle (closed-loop replay *and* the online serving path), that the backend
models are left in the same observable state (device counters, DRAM
statistics, buffer contents, page hotness), and that the eager and
streaming workload twins replay identically.  The shared differential
harness (:mod:`harness`) owns the fingerprinting; a hypothesis sweep varies
the workload shape so the equivalence is a property, not a golden value.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harness import (
    RunCase,
    assert_run_identical,
    assert_serve_identical,
    backend_fingerprint,
    serve_fingerprint,
)
from repro.api.registry import available_systems, create_system
from repro.api.session import Simulation, RunSpec, build_system, clear_cache
from repro.config import DEFAULT_SYSTEM, PAGE_SIZE_BYTES, RMC1, WorkloadConfig, scaled_model
from repro.dram.device import DRAMDevice
from repro.memsys.node import MemoryNode, MemoryTier, placement_arrays
from repro.memsys.tiered import TieredMemorySystem
from repro.serve.server import ServeConfig, serve
from repro.sls.engine import ENGINES, SLSSystem
from repro.sls.vector import VectorContext
from repro.traces.workload import build_workload

ALL_SYSTEMS = ("pond", "pond+pm", "beacon", "recnmp", "tpp", "pifs-rec", "pifs-rec-nopm")

#: Kept under its historical name — several asserts below fingerprint a
#: system they built by hand.
_backend_fingerprint = backend_fingerprint


def _run(name, system_config, workload, engine):
    system = create_system(name, system_config).set_engine(engine)
    result = system.run(workload)
    return system, result


@pytest.fixture(scope="module")
def multi_workload_config(tiny_model):
    """A two-host workload recipe (exercises per-host lanes, ports, drams)."""
    return WorkloadConfig(
        model=tiny_model, batch_size=4, num_batches=2, pooling_factor=8, seed=13
    )


class TestClosedLoopEquivalence:
    @pytest.mark.parametrize("name", ALL_SYSTEMS)
    def test_simresult_identical(self, name, tiny_workload_config, tiny_system):
        assert_run_identical(
            RunCase(name, tiny_system, tiny_workload_config),
            engines=("scalar", "vector"),
        )

    @pytest.mark.parametrize("name", ALL_SYSTEMS)
    def test_backend_state_identical(self, name, tiny_workload_config, tiny_system):
        # Recording on/off is part of the grid here: the recorder only
        # receives timestamps the simulation already computed.
        assert_run_identical(
            RunCase(name, tiny_system, tiny_workload_config),
            engines=("scalar", "vector"),
            streaming=(False,),
            observe=(False, True),
        )

    @pytest.mark.parametrize("name", ["pifs-rec", "pond", "recnmp"])
    def test_multi_host_multi_switch(self, name, multi_workload_config, tiny_system):
        config = replace(tiny_system, num_hosts=2, num_fabric_switches=2)
        assert_run_identical(
            RunCase(name, config, multi_workload_config, num_hosts=2),
            engines=("scalar", "vector"),
        )

    @pytest.mark.parametrize("distribution", ["zipfian", "uniform", "random"])
    def test_distributions(self, distribution, tiny_model, tiny_system):
        workload_config = WorkloadConfig(
            model=tiny_model, batch_size=4, num_batches=2,
            pooling_factor=8, seed=7, distribution=distribution,
        )
        for name in ("pond", "pifs-rec"):
            assert_run_identical(
                RunCase(name, tiny_system, workload_config),
                engines=("scalar", "vector"),
            )


@given(
    batch_size=st.integers(min_value=1, max_value=6),
    pooling=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**16),
    name=st.sampled_from(["pond", "beacon", "recnmp", "pifs-rec"]),
)
@settings(max_examples=12, deadline=None)
def test_equivalence_property(batch_size, pooling, seed, name):
    """Engine equivalence holds across workload shapes, not one golden trace."""
    model = replace(scaled_model(RMC1, 256 / RMC1.num_embeddings), num_tables=3)
    workload_config = WorkloadConfig(
        model=model, batch_size=batch_size, num_batches=1,
        pooling_factor=pooling, seed=seed,
    )
    config = replace(
        DEFAULT_SYSTEM,
        local_dram_capacity_bytes=max(8192, model.table_bytes),
        num_cxl_devices=2,
        host_threads=2,
        page_mgmt=replace(DEFAULT_SYSTEM.page_mgmt, migration_epoch_accesses=64),
    )
    assert_run_identical(
        RunCase(name, config, workload_config), engines=("scalar", "vector")
    )


class TestServeEquivalence:
    @pytest.mark.parametrize("name", ALL_SYSTEMS)
    def test_serve_records_identical(self, name, tiny_workload_config, tiny_system):
        assert_serve_identical(
            RunCase(name, tiny_system, tiny_workload_config),
            ServeConfig(qps=3e5, arrival="poisson", max_batch_size=4, seed=11),
            engines=("scalar", "vector"),
        )

    @pytest.mark.parametrize("arrival", ["bursty", "mmpp", "diurnal"])
    @pytest.mark.parametrize("name", ["pifs-rec", "recnmp"])
    def test_serve_arrivals_multi_host(
        self, name, arrival, multi_workload_config, tiny_system
    ):
        """Serve equivalence under bursty/diurnal load, 2 hosts x 2 switches.

        The batched dispatch path (and the streaming loop's bounded-lookahead
        heap) must reproduce the scalar serve loop exactly even when arrivals
        cluster (MMPP bursts) or drift (diurnal), per-host queues fill
        unevenly, and the fabric spans multiple switches.
        """
        config = replace(tiny_system, num_hosts=2, num_fabric_switches=2)
        assert_serve_identical(
            RunCase(name, config, multi_workload_config, num_hosts=2),
            ServeConfig(
                qps=2.5e5, arrival=arrival, max_batch_size=4,
                max_wait_ns=50_000.0, seed=17,
            ),
            engines=("scalar", "vector"),
        )

    def test_simulation_serve_terminal(self):
        clear_cache()
        scalar = Simulation("pifs-rec").quick().serve(2e5, seed=3)
        clear_cache()
        vector = Simulation("pifs-rec").quick().engine("vector").serve(2e5, seed=3)
        clear_cache()
        streamed = Simulation("pifs-rec").quick().stream().serve(2e5, seed=3)
        assert scalar.latency.to_dict() == vector.latency.to_dict()
        assert scalar.goodput_qps == vector.goodput_qps
        assert serve_fingerprint(streamed) == serve_fingerprint(scalar)


class TestScenarioEquivalence:
    """Scenario runs — faults, mixes, drift — are engine-bit-identical too.

    Faults mutate the machine at session setup (before the vector kernels
    snapshot it) and scenario workloads come from providers instead of the
    stationary generators; both paths must leave the scalar oracle and the
    vector engine in perfect agreement, SimResult and backend state alike.
    Scenarios compile to a :class:`RunSpec`, so the harness drives them
    straight through the facade (including the ``stream`` knob — providers
    that must materialize simply rebuild eagerly).
    """

    #: At least one fault-injection and one multi-tenant scenario (ISSUE 5
    #: acceptance), plus drift, a congested multi-switch fabric, and the
    #: buffer cut.
    SCENARIOS = (
        "fault-slow-link",
        "fault-degraded-device",
        "fault-buffer-squeeze",
        "fabric-congested",
        "tenant-mix",
        "drift-rotation",
    )

    @staticmethod
    def _spec(name) -> RunSpec:
        from repro.scenarios import scenario

        return scenario(name).simulation(quick=True).spec()

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_simresult_identical(self, name):
        assert_run_identical(self._spec(name), engines=("scalar", "vector"))

    @pytest.mark.parametrize("name", ["fault-slow-link", "tenant-mix"])
    def test_backend_state_identical(self, name):
        assert_run_identical(
            self._spec(name),
            engines=("scalar", "vector"),
            streaming=(False,),
            observe=(False, True),
        )

    @pytest.mark.parametrize("name", ["fault-degraded-device", "tenant-mix"])
    def test_serve_identical(self, name):
        from repro.scenarios import scenario

        scalar = scenario(name).serve(quick=True, engine="scalar")
        vector = scenario(name).serve(quick=True, engine="vector")
        assert serve_fingerprint(vector) == serve_fingerprint(scalar)

    def test_faults_change_results(self):
        """Guard against a fault hook that silently stops applying."""
        from repro.scenarios import scenario

        baseline = scenario("paper-baseline").run(quick=True, cache=False)
        for name in ("fault-slow-link", "fault-degraded-device"):
            assert scenario(name).run(quick=True, cache=False).total_ns > baseline.total_ns


class TestEngineKnob:
    def test_set_engine_validates(self, tiny_system):
        system = create_system("pond", tiny_system)
        with pytest.raises(ValueError, match="unknown engine"):
            system.set_engine("warp")
        assert system.set_engine("vector") is system
        assert system.engine == "vector"

    def test_simulation_engine_validates(self):
        with pytest.raises(ValueError, match="unknown engine"):
            Simulation("pond").engine("warp")

    def test_engines_constant(self):
        assert ENGINES == ("scalar", "vector", "packet")

    def test_spec_key_distinguishes_engines(self):
        from repro.api.session import spec_key

        scalar_key = spec_key(RunSpec(system="pond"))
        vector_key = spec_key(RunSpec(system="pond", engine="vector"))
        assert scalar_key != vector_key

    def test_build_system_applies_engine(self):
        system = build_system(RunSpec(system="pond", engine="vector"))
        assert system.engine == "vector"

    def test_params_record_engine(self):
        clear_cache()
        run = Simulation("pond").quick().engine("vector").run()
        assert run.params["engine"] == "vector"
        clear_cache()
        scalar_run = Simulation("pond").quick().run()
        assert "engine" not in scalar_run.params

    def test_sweep_axis(self):
        from repro.api.sweep import Sweep

        clear_cache()
        result = Sweep(
            over={"engine": ["scalar", "vector"]},
            base=Simulation("pond").quick(),
        ).run(parallel=False)
        assert len(result) == 2
        assert result[0].total_ns == result[1].total_ns

    def test_unsupported_system_falls_back_to_scalar(self, tiny_workload, tiny_system, monkeypatch):
        class Stubborn(SLSSystem):
            name = "stubborn"

            def build_placement(self, workload):
                return self.place_capacity_order(workload)

            def process_request(self, request, start_ns, host_id):
                return self.host_accumulate_bag(request.addresses, start_ns, host_id)

        assert Stubborn.supports_vector_engine is False

        def no_context(*args, **kwargs):
            pytest.fail("a VectorContext was built for a scalar-only system")

        monkeypatch.setattr(VectorContext, "__init__", no_context)
        system = Stubborn(tiny_system).set_engine("vector")
        result = system.run(tiny_workload)
        reference = Stubborn(tiny_system).run(tiny_workload)
        assert result.to_dict() == reference.to_dict()


class TestPacketEquivalence:
    """Uncongested packet tier ↔ scalar oracle, for every registered system.

    ``fidelity="packet"`` threads every fabric transfer through a
    :class:`repro.net.port.PortQueue`.  With the default (unbounded)
    :class:`repro.net.fabric.PacketConfig` the queues observe without
    perturbing, so the SimResult must be bit-identical to the scalar tier
    — except for the extra ``net`` report, which must exist, count every
    packet, and show zero congestion.
    """

    @staticmethod
    def _assert_net_clean(fingerprints) -> None:
        assert fingerprints["scalar"]["net"] is None
        net = fingerprints["packet"]["net"]
        assert net is not None, "packet fabric was not attached"
        assert net["packets"] > 0
        assert net["backpressure_ns"] == 0.0
        assert net["drops"] == 0 and net["retries"] == 0

    @pytest.mark.parametrize("name", ALL_SYSTEMS)
    def test_simresult_identical(self, name, tiny_workload_config, tiny_system):
        fingerprints = assert_run_identical(
            RunCase(name, tiny_system, tiny_workload_config),
            engines=("scalar", "packet"),
        )
        self._assert_net_clean(fingerprints)

    @pytest.mark.parametrize("name", ALL_SYSTEMS)
    def test_backend_state_identical(self, name, tiny_workload_config, tiny_system):
        assert_run_identical(
            RunCase(name, tiny_system, tiny_workload_config),
            engines=("scalar", "packet"),
            streaming=(False,),
            observe=(False, True),
        )

    @pytest.mark.parametrize("name", ["pifs-rec", "pond", "recnmp"])
    def test_multi_host_multi_switch(self, name, multi_workload_config, tiny_system):
        """The inter-switch hop channel rides the packet tier too."""
        config = replace(tiny_system, num_hosts=2, num_fabric_switches=2)
        fingerprints = assert_run_identical(
            RunCase(name, config, multi_workload_config, num_hosts=2),
            engines=("scalar", "packet"),
        )
        self._assert_net_clean(fingerprints)

    @pytest.mark.parametrize("name", ALL_SYSTEMS)
    def test_serve_records_identical(self, name, tiny_workload_config, tiny_system):
        assert_serve_identical(
            RunCase(name, tiny_system, tiny_workload_config),
            ServeConfig(qps=3e5, arrival="poisson", max_batch_size=4, seed=11),
            engines=("scalar", "packet"),
        )

    def test_finite_buffers_diverge(self, tiny_workload, tiny_system):
        """The identity is a property of unbounded queues, not a tautology:
        a 1-credit buffer must actually change the answer."""
        from repro.net.fabric import PacketConfig

        _, scalar = _run("recnmp", tiny_system, tiny_workload, "scalar")
        system = create_system("recnmp", tiny_system).set_engine("packet")
        system.set_packet_config(PacketConfig(capacity=1))
        congested = system.run(tiny_workload)
        assert congested.net.backpressure_ns > 0.0
        assert congested.total_ns > scalar.total_ns


class TestBatchedPrimitives:
    """The layer-level batch kernels against their scalar counterparts."""

    def test_dram_kernel_access_batch(self):
        rng = np.random.default_rng(5)
        addresses = rng.integers(0, 1 << 24, size=256, dtype=np.int64)
        scalar_device = DRAMDevice(DEFAULT_SYSTEM.cxl_dram)
        batch_device = DRAMDevice(DEFAULT_SYSTEM.cxl_dram)
        expected = [scalar_device.access(int(a), 0.0, bytes_requested=256) for a in addresses]
        kernel = batch_device.batch_kernel(256)
        channel, flat_bank, row = kernel.mapping.decode_flat_batch(addresses)
        got = [
            kernel.access(ch, fb, rw, 0.0)
            for ch, fb, rw in zip(channel.tolist(), flat_bank.tolist(), row.tolist())
        ]
        kernel.sync()
        assert got == expected
        assert batch_device.stats().__dict__ == scalar_device.stats().__dict__

    def test_decode_batch_matches_scalar(self):
        from repro.dram.address_mapping import AddressMapping

        mapping = AddressMapping(DEFAULT_SYSTEM.local_dram)
        rng = np.random.default_rng(9)
        addresses = rng.integers(0, 1 << 30, size=512, dtype=np.int64)
        ch, rank, bank, row, col = mapping.decode_batch(addresses)
        for i, address in enumerate(addresses.tolist()):
            decoded = mapping.decode(address)
            assert (decoded.channel, decoded.rank, decoded.bank, decoded.row, decoded.column) == (
                ch[i], rank[i], bank[i], row[i], col[i],
            )

    def test_kernel_link_transfers_match_scalar(self):
        """The port and device kernels repeat ``CXLLink.transfer`` exactly."""
        from repro.config import CXLConfig, DDR4_CXL_CONFIG
        from repro.cxl.device import CXLType3Device
        from repro.cxl.switch import FabricSwitch

        starts = [0.0, 1.0, 1.5, 100.0, 100.0]

        def check(scalar_link, batch_link, kernel, got, stream_starts):
            expected = [scalar_link.transfer(64, s) for s in starts]
            expected += [scalar_link.transfer(16, s) for s in stream_starts]
            kernel.sync()
            assert got == expected
            for name in ("busy_until_ns", "total_queue_delay_ns", "transfers", "bytes_transferred"):
                assert getattr(batch_link, name) == getattr(scalar_link, name)

        switches = [FabricSwitch(CXLConfig()) for _ in range(2)]
        ports = [switch.attach_host("host0") for switch in switches]
        kernel = switches[1].batch_kernel(64).port_kernel(ports[1])
        got = [kernel.transfer(64, s) for s in starts] + kernel.transfer_stream(16, 200.0, 3)
        check(ports[0].link, ports[1].link, kernel, got, [200.0] * 3)

        devices = [CXLType3Device(0, DDR4_CXL_CONFIG, CXLConfig()) for _ in range(2)]
        kernel = devices[1].batch_kernel(64)
        got = [kernel.link_transfer(64, s) for s in starts]
        got += kernel.link_transfer_seq(16, starts, 0.5)
        check(devices[0].link, devices[1].link, kernel, got, [s + 0.5 for s in starts])

    def test_record_accesses_matches_scalar_loop(self):
        def fresh():
            tiered = TieredMemorySystem(
                [
                    MemoryNode(0, MemoryTier.LOCAL_DRAM, 1 << 20, 90.0, 38.4),
                    MemoryNode(1, MemoryTier.CXL, 1 << 20, 190.0, 25.6),
                ]
            )
            tiered.install_placement({0: 0, 1: 1, 2: 1})
            return tiered

        addresses = np.array([0, 100, 4096, 8191, 8200, 100], dtype=np.int64)
        scalar = fresh()
        for address in addresses.tolist():
            scalar.record_access(int(address))
        batched = fresh()
        batched.record_pages((addresses // PAGE_SIZE_BYTES).tolist())
        assert np.array_equal(scalar.access_count_table(), batched.access_count_table())
        assert scalar.node_access_counts() == batched.node_access_counts()

    def test_node_id_table_tracks_generation(self):
        tiered = TieredMemorySystem(
            [
                MemoryNode(0, MemoryTier.LOCAL_DRAM, 1 << 20, 90.0, 38.4),
                MemoryNode(1, MemoryTier.CXL, 1 << 20, 190.0, 25.6),
            ]
        )
        tiered.install_placement({0: 0, 1: 1})
        table = tiered.node_id_table()
        assert table.tolist() == [0, 1]
        generation = tiered.generation
        tiered.migrate_page(0, 1)
        assert tiered.generation > generation
        assert tiered.node_id_table().tolist() == [1, 1]
        with pytest.raises(KeyError):
            tiered.node_of_page(7)

    def test_placement_arrays(self):
        nodes = [
            MemoryNode(0, MemoryTier.LOCAL_DRAM, 1 << 20, 90.0, 38.4),
            MemoryNode(1, MemoryTier.CXL, 1 << 20, 190.0, 25.6),
            MemoryNode(2, MemoryTier.CXL, 1 << 20, 190.0, 25.6),
        ]
        is_local, device = placement_arrays(nodes)
        assert is_local.tolist() == [True, False, False]
        assert device.tolist() == [-1, 0, 1]
