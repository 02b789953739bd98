"""Integration tests: every SLS system runs a workload and the paper's
qualitative ordering holds."""

import numpy as np
import pytest

from repro.baselines import SYSTEM_FACTORIES, create_system
from repro.baselines.beacon import BeaconSystem
from repro.baselines.pond import PondSystem
from repro.baselines.recnmp import RecNMPSystem
from repro.cxl.bias_table import BiasTable
from repro.pifs.system import PIFSRecNoPM, PIFSRecSystem
from repro.sls.result import SimResult


@pytest.fixture(scope="module")
def results(tiny_workload, tiny_system):
    out = {}
    for name in ("pond", "pond+pm", "beacon", "recnmp", "tpp", "pifs-rec", "pifs-rec-nopm"):
        out[name] = create_system(name, tiny_system).run(tiny_workload)
    return out


class TestRegistry:
    def test_all_factories_constructible(self, tiny_system):
        for name in SYSTEM_FACTORIES:
            system = create_system(name, tiny_system)
            assert hasattr(system, "run")

    def test_unknown_name(self, tiny_system):
        with pytest.raises(KeyError):
            create_system("magic", tiny_system)


class TestEverySystemRuns:
    @pytest.mark.parametrize(
        "name", ["pond", "pond+pm", "beacon", "recnmp", "tpp", "pifs-rec", "pifs-rec-nopm"]
    )
    def test_produces_valid_result(self, results, tiny_workload, name):
        result = results[name]
        assert isinstance(result, SimResult)
        assert result.total_ns > 0
        assert result.requests == len(tiny_workload.requests)
        assert result.lookups == tiny_workload.total_lookups
        assert result.local_rows + result.cxl_rows + result.remote_socket_rows == result.lookups

    def test_latency_per_lookup_positive(self, results):
        for result in results.values():
            assert result.latency_per_lookup_ns > 0
            assert result.throughput_lookups_per_us > 0


class TestAccounting:
    @pytest.mark.parametrize("engine", ["scalar", "vector"])
    @pytest.mark.parametrize("name", sorted(SYSTEM_FACTORIES))
    def test_every_lookup_is_served_by_one_tier(self, tiny_workload, tiny_system, name, engine):
        result = create_system(name, tiny_system).set_engine(engine).run(tiny_workload)
        assert result.local_rows + result.cxl_rows + result.remote_socket_rows == result.lookups

    @pytest.mark.parametrize("name, mode", [("pond+pm", "page_block"), ("pifs-rec", "cacheline_block")])
    def test_migration_cost_is_the_price_of_each_migration(self, tiny_workload, tiny_system, name, mode):
        system = create_system(name, tiny_system)
        result = system.run(tiny_workload)
        assert result.migrations > 0
        assert result.migration_cost_ns == result.migrations * system.tiered.migration_cost_ns(mode)

    def test_pifs_rec_tables_are_device_biased_by_default(self, tiny_workload, tiny_system):
        """No bias-region entry: every fetch takes the kernel's uniform branch."""
        addresses = np.unique(np.concatenate([r.addresses for r in tiny_workload.requests])).tolist()
        pifs = PIFSRecSystem(tiny_system)
        pifs.begin_session(tiny_workload)
        beacon = BeaconSystem(tiny_system)
        beacon.begin_session(tiny_workload)
        for device in pifs.backends.devices:
            assert device.bias_table._entries == {}
            assert {device.bias_table.device_access_penalty_ns(a) for a in addresses} == {0.0}
        for device in beacon.backends.devices:
            assert {device.bias_table.device_access_penalty_ns(a) for a in addresses} == {
                BiasTable.HOST_BIAS_PENALTY_NS
            }


class TestPaperOrdering:
    def test_pifs_beats_pond(self, results):
        assert results["pifs-rec"].total_ns < results["pond"].total_ns

    def test_pifs_beats_pond_pm(self, results):
        assert results["pifs-rec"].total_ns < results["pond+pm"].total_ns

    def test_pifs_beats_beacon(self, results):
        assert results["pifs-rec"].total_ns < results["beacon"].total_ns

    def test_pifs_speedup_over_pond_substantial(self, results):
        # The paper reports 3.8-3.9x; the scaled-down run must preserve a
        # clearly-better-than-2x advantage.
        assert results["pifs-rec"].speedup_over(results["pond"]) > 2.0

    def test_recnmp_is_the_closest_baseline(self, results):
        others = {k: v.total_ns for k, v in results.items() if k in ("pond", "pond+pm", "beacon", "recnmp")}
        assert min(others, key=others.get) == "recnmp"

    def test_recnmp_within_band_of_pifs(self, results):
        ratio = results["recnmp"].total_ns / results["pifs-rec"].total_ns
        assert 0.6 < ratio < 2.5

    def test_page_management_helps_pifs(self, results):
        assert results["pifs-rec"].total_ns <= results["pifs-rec-nopm"].total_ns * 1.05


class TestSystemBehaviours:
    def test_pond_has_no_in_switch_activity(self, results):
        assert results["pond"].buffer_hits == 0
        assert results["pond"].migrations == 0

    def test_pond_pm_migrates(self, results):
        assert results["pond+pm"].migrations > 0
        assert results["pond+pm"].migration_cost_ns > 0

    def test_beacon_places_everything_on_cxl(self, results):
        assert results["beacon"].local_rows == 0
        assert results["beacon"].cxl_rows == results["beacon"].lookups

    def test_beacon_moves_no_row_data_to_host(self, results):
        assert results["beacon"].bytes_to_host == 0

    def test_pond_moves_cxl_rows_to_host(self, results, tiny_workload):
        pond = results["pond"]
        assert pond.bytes_to_host == pond.cxl_rows * tiny_workload.model.embedding_row_bytes

    def test_pifs_uses_on_switch_buffer(self, results):
        pifs = results["pifs-rec-nopm"]
        assert pifs.buffer_hits + pifs.buffer_misses == pifs.cxl_rows

    def test_recnmp_uses_rank_cache(self, results):
        recnmp = results["recnmp"]
        assert recnmp.buffer_hits + recnmp.buffer_misses > 0

    def test_device_access_counts_cover_cxl_rows(self, results):
        pifs = results["pifs-rec"]
        assert sum(pifs.device_access_counts.values()) >= pifs.buffer_misses


class TestMultiConfiguration:
    def test_more_devices_do_not_hurt_pifs(self, tiny_workload, tiny_system):
        from dataclasses import replace

        few = PIFSRecSystem(replace(tiny_system, num_cxl_devices=1)).run(tiny_workload)
        many = PIFSRecSystem(replace(tiny_system, num_cxl_devices=8)).run(tiny_workload)
        assert many.total_ns <= few.total_ns * 1.05

    def test_larger_local_dram_helps_pond(self, tiny_workload, tiny_system):
        from dataclasses import replace

        small = PondSystem(tiny_system).run(tiny_workload)
        large = PondSystem(
            replace(tiny_system, local_dram_capacity_bytes=tiny_workload.address_space.total_bytes * 2)
        ).run(tiny_workload)
        assert large.total_ns < small.total_ns

    def test_multi_switch_pifs_runs(self, tiny_workload, tiny_system):
        from dataclasses import replace

        cfg = replace(tiny_system, num_fabric_switches=2, num_cxl_devices=4, num_hosts=2)
        result = PIFSRecSystem(cfg).run(tiny_workload)
        assert result.total_ns > 0

    def test_results_are_deterministic(self, tiny_workload, tiny_system):
        a = PIFSRecSystem(tiny_system).run(tiny_workload)
        b = PIFSRecSystem(tiny_system).run(tiny_workload)
        assert a.total_ns == pytest.approx(b.total_ns)

    def test_sim_result_validation(self):
        with pytest.raises(ValueError):
            SimResult(system="x", total_ns=-1.0, requests=0, lookups=0)

    def test_speedup_over(self, results):
        assert results["pifs-rec"].speedup_over(results["pond"]) == pytest.approx(
            results["pond"].total_ns / results["pifs-rec"].total_ns
        )
