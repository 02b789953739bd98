"""The ``repro.net`` packet tier: event core, port queues, fault composition.

Three layers of guarantees:

* the :class:`~repro.net.core.EventCore` orders simultaneous events by a
  seeded deterministic rank — the same seed replays the same global order
  regardless of insertion order (a hypothesis property, not one example);
* a :class:`~repro.net.port.PortQueue` with unbounded capacity is an
  observer (admission is the identity), finite credits produce exact
  backpressure times, the priority policy reserves credits for
  CONTROL/INSTRUCTION flits, and drop mode counts retries;
* fault mutators (link/hop degradation) compose with packet fidelity:
  a degraded link changes the service rate *and* what the queues observe.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.registry import create_system
from repro.cxl.link import CXLLink
from repro.cxl.protocol import MemOpcode
from repro.net import (
    Event,
    EventCore,
    PacketConfig,
    PortQueue,
    Priority,
    priority_of_opcode,
    seeded_rank,
)
from repro.scenarios.faults import HopDegradation, LinkDegradation


# ---------------------------------------------------------------------------
# Seeded rank + event core
# ---------------------------------------------------------------------------
class TestSeededRank:
    def test_deterministic(self):
        assert seeded_rank(0, 42) == seeded_rank(0, 42)
        assert seeded_rank(7, 42) == seeded_rank(7, 42)

    def test_seed_changes_rank(self):
        ranks = {seeded_rank(seed, 42) for seed in range(16)}
        assert len(ranks) == 16

    def test_key_changes_rank(self):
        ranks = {seeded_rank(3, key) for key in range(64)}
        assert len(ranks) == 64

    def test_range(self):
        for seed in (0, 1, 2**31):
            for key in (0, 1, 2**63):
                assert 0 <= seeded_rank(seed, key) < 2**64


class TestEventCore:
    def test_time_order(self):
        core = EventCore()
        core.schedule(3.0, key=1)
        core.schedule(1.0, key=2)
        core.schedule(2.0, key=3)
        assert [event.time_ns for event in core.drain()] == [1.0, 2.0, 3.0]

    def test_priority_breaks_time_ties(self):
        core = EventCore()
        core.schedule(1.0, priority=1, key=1)
        core.schedule(1.0, priority=0, key=2)
        assert [event.key for event in core.drain()] == [2, 1]

    def test_cannot_schedule_in_the_past(self):
        core = EventCore()
        core.schedule(5.0)
        core.pop()
        with pytest.raises(ValueError, match="cannot schedule"):
            core.schedule(4.0)

    def test_pop_advances_now(self):
        core = EventCore()
        core.schedule(2.5, payload="x")
        event = core.pop()
        assert isinstance(event, Event)
        assert core.now == 2.5
        assert event.payload == "x"
        assert core.pending == 0

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        order=st.permutations(list(range(12))),
    )
    @settings(max_examples=40, deadline=None)
    def test_tie_order_is_seeded_not_insertion_order(self, seed, order):
        """Same seed → same global order for simultaneous events, however
        they were inserted; the rank (not arrival) breaks the tie."""
        events = [(float(i % 3), i % 2, i) for i in range(12)]  # (time, prio, key)

        def drain_order(insertion):
            core = EventCore(seed=seed)
            for index in insertion:
                time_ns, priority, key = events[index]
                core.schedule(time_ns, priority=priority, key=key)
            return [event.key for event in core.drain()]

        reference = drain_order(list(range(12)))
        assert drain_order(list(order)) == reference

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        n=st.integers(min_value=0, max_value=64),
    )
    @settings(max_examples=25, deadline=None)
    def test_ordered_matches_drain(self, seed, n):
        """The bulk lexsort path is exactly the heap order, event for event."""
        times = [float((i * 7) % 5) for i in range(n)]
        prios = [i % 2 for i in range(n)]
        keys = list(range(n))
        core = EventCore(seed=seed)
        for time_ns, priority, key in zip(times, prios, keys):
            core.schedule(time_ns, priority=priority, key=key)
        heap_order = [event.key for event in core.drain()]
        bulk_order = [keys[i] for i in EventCore(seed=seed).ordered(times, prios, keys)]
        assert bulk_order == heap_order

    def test_different_seeds_reorder_ties(self):
        def keys(seed):
            core = EventCore(seed=seed)
            for key in range(32):
                core.schedule(0.0, key=key)
            return [event.key for event in core.drain()]

        assert any(keys(seed) != keys(0) for seed in range(1, 8))


# ---------------------------------------------------------------------------
# Port queues
# ---------------------------------------------------------------------------
class TestPortQueue:
    def test_unbounded_admission_is_identity(self):
        queue = PortQueue("p", capacity=0)
        for start in (0.0, 5.0, 5.0, 2.0):
            assert queue.admit(start) == start
        assert queue.backpressure_ns == 0.0

    def test_backpressure_waits_for_a_credit(self):
        queue = PortQueue("p", capacity=1)
        assert queue.admit(0.0) == 0.0
        queue.depart(0.0, 0.0, 10.0, 64)
        # Second packet issued at t=2 while the first is in flight until
        # t=10: with a single credit it is admitted exactly at delivery.
        assert queue.admit(2.0) == 10.0
        queue.depart(2.0, 10.0, 20.0, 64)
        assert queue.backpressure_ns == 8.0
        assert queue.packets == 2

    def test_priority_policy_reserves_credits(self):
        queue = PortQueue("p", capacity=1, policy="priority")
        queue.admit(0.0, MemOpcode.MEM_RD_DATA)
        queue.depart(0.0, 0.0, 100.0, 64, MemOpcode.MEM_RD_DATA)
        # DATA waits for the credit; CONTROL and INSTRUCTION bypass.
        assert queue.admit(1.0, MemOpcode.MEM_RD_DATA) == 100.0
        assert queue.admit(1.0, MemOpcode.MEM_RD) == 1.0
        assert queue.admit(1.0, MemOpcode.PIFS_CONFIG) == 1.0
        assert queue.admit(1.0, priority=Priority.INSTRUCTION) == 1.0

    def test_drop_mode_counts_retries(self):
        queue = PortQueue("p", capacity=1, drop=True, retry_ns=50.0)
        queue.admit(0.0)
        queue.depart(0.0, 0.0, 120.0, 64)
        # Full buffer: the packet is dropped and retried every 50 ns until
        # a credit frees at t=120 → retries at 50 and 100, admitted at 150.
        assert queue.admit(0.0) == 150.0
        assert queue.drops == 3
        assert queue.retries == 3

    def test_flows_accumulate_per_class(self):
        queue = PortQueue("p", capacity=0)
        queue.depart(0.0, 0.0, 10.0, 64, MemOpcode.MEM_RD)
        queue.depart(0.0, 0.0, 12.0, 256, MemOpcode.MEM_RD_DATA)
        queue.depart(1.0, 1.0, 13.0, 256, MemOpcode.MEM_RD_DATA)
        flows = queue.flows
        assert flows[Priority.CONTROL].packets == 1
        assert flows[Priority.DATA].packets == 2
        assert flows[Priority.DATA].bytes == 512

    def test_priority_of_opcode(self):
        assert priority_of_opcode(None) is Priority.DATA
        assert priority_of_opcode(Priority.BULK) is Priority.BULK
        assert priority_of_opcode(MemOpcode.MEM_RD) is Priority.CONTROL
        assert priority_of_opcode(MemOpcode.PIFS_DATA_FETCH) is Priority.INSTRUCTION
        assert priority_of_opcode(MemOpcode.MEM_RD_DATA) is Priority.DATA

    def test_rejects_bad_policy(self):
        with pytest.raises(ValueError, match="policy"):
            PortQueue("p", policy="lifo")


class TestLinkWithPort:
    def test_unbounded_port_is_pure_observer(self):
        bare = CXLLink(4.0, name="bare")
        observed = CXLLink(4.0, name="observed")
        observed.attach_port(PortQueue("observed", capacity=0))
        starts = [0.0, 1.0, 1.0, 30.0, 2.0]
        assert [observed.transfer(256, s) for s in starts] == [
            bare.transfer(256, s) for s in starts
        ]
        assert observed.port.packets == len(starts)

    def test_single_credit_delays_completion(self):
        bare = CXLLink(4.0, propagation_ns=100.0, name="bare")
        tight = CXLLink(4.0, propagation_ns=100.0, name="tight")
        tight.attach_port(PortQueue("tight", capacity=1))
        bare_finish = [bare.transfer(256, 0.0) for _ in range(4)]
        tight_finish = [tight.transfer(256, 0.0) for _ in range(4)]
        assert tight_finish[0] == bare_finish[0]
        assert all(t > b for t, b in zip(tight_finish[1:], bare_finish[1:]))
        assert tight.port.backpressure_ns > 0.0


class TestPacketConfig:
    def test_round_trip(self):
        config = PacketConfig(capacity=3, policy="priority", drop=True, retry_ns=25.0)
        assert PacketConfig.from_dict(config.to_dict()) == config

    def test_validation(self):
        with pytest.raises(ValueError):
            PacketConfig(capacity=-1)
        with pytest.raises(ValueError):
            PacketConfig(policy="lifo")
        with pytest.raises(ValueError):
            PacketConfig(retry_ns=-5.0)

    @pytest.mark.parametrize("retry_ns", [math.nan, math.inf, -math.inf, 0.0])
    def test_retry_ns_must_be_finite_and_positive(self, retry_ns):
        with pytest.raises(ValueError, match="retry_ns"):
            PacketConfig(retry_ns=retry_ns)


# ---------------------------------------------------------------------------
# Fabric attachment + stats
# ---------------------------------------------------------------------------
class TestPacketFabric:
    def test_finalize_reports_every_port(self, tiny_workload, tiny_system):
        system = create_system("pifs-rec", tiny_system).set_engine("packet")
        result = system.run(tiny_workload)
        net = result.net
        assert net is not None
        assert net.packets == sum(port.packets for port in net.ports.values())
        # Every attached port reports, and port names match the fabric's.
        assert set(net.ports) == {name for name in net.ports}
        assert any(port.packets > 0 for port in net.ports.values())

    def test_stats_round_trip(self, tiny_workload, tiny_system):
        system = create_system("recnmp", tiny_system).set_engine("packet")
        system.set_packet_config(PacketConfig(capacity=2, timeline_points=32))
        net = system.run(tiny_workload).net
        rebuilt = type(net).from_dict(net.to_dict())
        assert rebuilt.to_dict() == net.to_dict()
        assert all(len(port.timeline) <= 32 for port in net.ports.values())

    def test_finalize_is_deterministic(self, tiny_workload, tiny_system):
        def run_once():
            system = create_system("pifs-rec", tiny_system).set_engine("packet")
            system.set_packet_config(PacketConfig(capacity=2, seed=9))
            return system.run(tiny_workload).net.to_dict()

        assert run_once() == run_once()


# ---------------------------------------------------------------------------
# Satellite: fault mutators compose with the packet tier
# ---------------------------------------------------------------------------
class TestFaultComposition:
    def _run(self, name, config, workload, *, faults=(), packet=None):
        system = create_system(name, config).set_engine("packet")
        system.set_packet_config(packet or PacketConfig())
        if faults:
            system.set_session_mutators(tuple(fault.apply for fault in faults))
        return system.run(workload)

    def test_link_degradation_changes_queue_occupancy(self, tiny_workload, tiny_system):
        """A degraded link is slower *and* its port queue fills deeper: the
        mutator runs before the fabric attaches, so credits are held for
        the degraded (longer) flight time, raising backpressure."""
        packet = PacketConfig(capacity=2)
        healthy = self._run("recnmp", tiny_system, tiny_workload, packet=packet)
        fault = LinkDegradation(bandwidth_scale=0.25, extra_latency_ns=200.0)
        degraded = self._run(
            "recnmp", tiny_system, tiny_workload, faults=(fault,), packet=packet
        )
        assert degraded.total_ns > healthy.total_ns
        assert degraded.net.backpressure_ns > healthy.net.backpressure_ns

    def test_hop_degradation_rides_the_hop_channel(self, tiny_model, tiny_system):
        """degrade_hops + packet tier: the inter-switch hop channel queue
        observes the degraded hop latency."""
        from repro.config import WorkloadConfig
        from repro.traces.workload import build_workload

        config = replace(tiny_system, num_hosts=2, num_fabric_switches=2)
        workload = build_workload(
            WorkloadConfig(
                model=tiny_model, batch_size=4, num_batches=2, pooling_factor=8, seed=13
            ),
            num_hosts=2,
        )
        packet = PacketConfig(capacity=1)
        healthy = self._run("pifs-rec", config, workload, packet=packet)
        fault = HopDegradation(extra_hop_ns=500.0)
        degraded = self._run("pifs-rec", config, workload, faults=(fault,), packet=packet)
        assert "fabric.hop" in healthy.net.ports
        assert degraded.total_ns > healthy.total_ns
        hop_healthy = healthy.net.ports["fabric.hop"]
        hop_degraded = degraded.net.ports["fabric.hop"]
        # Longer hop flight times hold the single credit longer.
        assert hop_degraded.backpressure_ns >= hop_healthy.backpressure_ns

    def test_uncongested_fault_run_matches_scalar(self, tiny_workload, tiny_system):
        """Faults + unbounded packet tier still equals faults + scalar."""
        fault = LinkDegradation(bandwidth_scale=0.5, extra_latency_ns=100.0)
        scalar_system = create_system("pifs-rec", tiny_system)
        scalar_system.set_session_mutators((fault.apply,))
        scalar = scalar_system.run(tiny_workload)
        packet = self._run("pifs-rec", tiny_system, tiny_workload, faults=(fault,))
        scalar_dict = scalar.to_dict()
        packet_dict = packet.to_dict()
        scalar_dict.pop("net", None)
        packet_dict.pop("net", None)
        assert scalar_dict == packet_dict
