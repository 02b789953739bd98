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

    @pytest.mark.parametrize("policy", ["htr", "lru", "none"])
    def test_folded_counters_match_scalar_through_two_syncs(self, policy):
        """Every kernel path, synced twice, leaves the models as its scalar twin.

        The row loops keep timing state, order-dependent float sums and the
        per-bank outcome counts; every other statistic is derived at the
        sync from counts kept since the previous one.  Each DRAM's channel
        0 is touched by the scalar path before the kernels exist, the odd
        channels (the last among them) never are, and device 1 is never
        read, so its controller keeps a last finish of 0.  The closures
        taken before the first sync are used after it.
        """
        from repro.config import (
            DDR4_CXL_CONFIG, DDR5_LOCAL_CONFIG, BufferConfig, CXLConfig, PIFSConfig,
        )
        from repro.cxl.bias_table import BiasMode
        from repro.cxl.device import CXLType3Device
        from repro.pifs.host import PIFSHost
        from repro.pifs.switch import PIFSSwitch, RowFetch

        row_bytes = 128  # two bursts per access
        host = PIFSHost(0, DEFAULT_SYSTEM)
        overhead = 3.0
        translation = 20.0 if policy == "none" else 0.0
        buffer = BufferConfig(policy=policy, capacity_bytes=4 * row_bytes, htr_interval=4)

        def machine():
            switch = PIFSSwitch(CXLConfig(), PIFSConfig(on_switch_buffer=buffer), row_bytes)
            port = switch.attach_host("host0")
            devices = [CXLType3Device(i, DDR4_CXL_CONFIG, CXLConfig()) for i in range(2)]
            for device in devices:
                switch.attach_device(device)
            # Device bias over the first half of the rows: both penalties occur.
            devices[0].bias_table.set_mode(0, BiasMode.DEVICE, 1 << 16)
            dram = DRAMDevice(DDR5_LOCAL_CONFIG)
            # Channel 0 of every DRAM, late, before any kernel is built.
            dram.access(0, 5000.0, bytes_requested=row_bytes)
            switch.host_read(port, 0, 0, 5000.0, bytes_requested=row_bytes)
            return switch, port, devices, dram

        def links(link):
            return (link.busy_until_ns, link.total_queue_delay_ns, link.transfers,
                    link.bytes_transferred)

        def fingerprint(switch, port, devices, dram):
            drams = [dram] + [device.dram for device in devices]
            return dict(
                drams=[
                    (d.stats().__dict__, d.controller.last_finish_ns,
                     [(c.bus_free_ns, c.busy_ns, c.bytes_transferred)
                      for c in d.controller.channels],
                     [(b.hits, b.misses, b.conflicts, b.open_row, b.next_ready_ns)
                      for c in d.controller.channels for b in c.banks])
                    for d in drams
                ],
                devices=[(device.reads, links(device.link)) for device in devices],
                port=links(port.link),
                forwarded=switch.forwarded_requests,
                buffer=(switch.buffer.hits, switch.buffer.misses, sorted(switch.buffer._entries)),
                core=(switch.process_core._earliest_free_ns, switch._next_sumtag),
            )

        scalar = machine()
        batched = machine()
        switch, port, devices, dram = scalar
        dram_kernel = batched[3].batch_kernel(row_bytes)
        device_kernels = [device.batch_kernel(row_bytes) for device in batched[2]]
        switch_kernel = batched[0].batch_kernel(row_bytes)
        port_kernel = switch_kernel.port_kernel(batched[1])
        kernel = device_kernels[0]
        access, access_host, access_switch = (
            dram_kernel.access, kernel.access_host, kernel.access_switch
        )
        bag = dram_kernel.mlp_bag(host.LOCAL_MLP, overhead, host.HOST_ACCUMULATE_NS_PER_ROW)
        host_read, transfer, stream = (
            port_kernel.host_read, port_kernel.transfer, port_kernel.transfer_stream
        )
        link_transfer, link_seq = kernel.link_transfer, kernel.link_transfer_seq
        switch_access = [k.access_switch for k in device_kernels]

        rng = np.random.default_rng(11)
        for base in (0.0, 20000.0):
            # Even lines only: the odd channels stay untouched.
            addresses = (rng.integers(0, 1 << 10, size=24) * row_bytes).tolist()
            times = (base + np.sort(rng.uniform(0.0, 400.0, size=24))).tolist()
            lch, lfb, lrow = (
                c.tolist() for c in dram_kernel.mapping.decode_flat_batch(np.array(addresses))
            )
            cch, cfb, crow = (
                c.tolist() for c in kernel.mapping.decode_flat_batch(np.array(addresses))
            )
            expected, got = [], []
            for i in range(8):
                expected.append(dram.access(addresses[i], times[i], bytes_requested=row_bytes))
                got.append(access(lch[i], lfb[i], lrow[i], times[i]))
            local = addresses[8:20]
            expected.append(host.accumulate_local(
                local, times[8],
                lambda a, t: dram.access(a, t, bytes_requested=row_bytes) + overhead,
            ))
            got.append(bag(list(range(8, 20)), lch, lfb, lrow, times[8]))
            for i in range(8):
                expected.append(devices[0].access(
                    addresses[i], times[i], bytes_requested=row_bytes, from_switch=i % 2 == 1
                ))
                got.append(
                    access_host(cch[i], cfb[i], crow[i], times[i]) if i % 2 == 0
                    else access_switch(cch[i], cfb[i], crow[i], addresses[i], times[i])
                )
            expected += [devices[0].link.transfer(64, t) for t in times[:3]]
            got += [link_transfer(64, t) for t in times[:3]]
            expected += [devices[0].link.transfer(16, t + 0.5) for t in times[3:6]]
            got += link_seq(16, times[3:6], 0.5)
            for i in range(8, 14):
                expected.append(switch.host_read(
                    port, 0, addresses[i], times[i], bytes_requested=row_bytes
                ))
                got.append(host_read(access_host, cch[i], cfb[i], crow[i], times[i]))
            expected += [port.link.transfer(64, times[14])]
            expected += [port.link.transfer(16, times[15]) for _ in range(3)]
            got += [transfer(64, times[14])] + stream(16, times[15], 3)
            # Repeated rows, so buffers hit; the last accumulation hits on
            # every row under a buffer, so its result is the last hit's.
            for rows in ([16, 17, 16, 18, 17, 16], [19, 16, 20, 19, 21, 22, 16], [16] * 3):
                outcome = switch.accumulate(
                    [RowFetch(address=addresses[k], device_id=0) for k in rows],
                    host_port=port, issue_ns=times[rows[0]],
                    per_row_overhead_ns=translation,
                )
                expected += [outcome.result_ready_ns, outcome.host_notified_ns]
                got += list(switch_kernel.accumulate(
                    port_kernel, rows, [0] * len(rows), addresses, cch, cfb, crow,
                    switch_access, times[rows[0]], per_row_overhead_ns=translation,
                ))
            assert got == expected
            dram_kernel.sync()
            for k in device_kernels:
                k.sync()
            switch_kernel.sync()
            assert fingerprint(*batched) == fingerprint(*scalar)
        assert devices[1].dram.controller.last_finish_ns == 0.0
        assert switch.buffer.hits > 0 or policy == "none"

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
