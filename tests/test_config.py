"""Tests for repro.config."""

import ast
import dataclasses
import inspect
import pathlib

import numpy as np
import pytest

import repro.config
from repro.config import (
    DDR4_TIMINGS,
    DDR5_TIMINGS,
    MODEL_CONFIGS,
    RMC1,
    RMC2,
    RMC3,
    RMC4,
    BufferConfig,
    DRAMConfig,
    CXLConfig,
    PageManagementConfig,
    PIFSConfig,
    SystemConfig,
    WorkloadConfig,
    scaled_model,
)
from repro.pifs.onswitch_buffer import OnSwitchBuffer
from repro.traces.meta import TraceBatch
from repro.traces.workload import StreamingWorkload, workload_from_batches


class TestDRAMTimings:
    def test_table2_ddr5_values(self):
        t = DDR5_TIMINGS
        assert (t.cl, t.trcd, t.trp, t.tras) == (28, 28, 28, 52)
        assert (t.trc, t.twr, t.trtp) == (79, 48, 12)
        assert (t.tcwl, t.nrfc1, t.tck_ps) == (22, 30, 625)

    def test_tck_ns(self):
        assert DDR5_TIMINGS.tck_ns == pytest.approx(0.625)

    def test_cycles_to_ns(self):
        assert DDR5_TIMINGS.cycles_to_ns(2) == pytest.approx(1.25)

    def test_row_hit_faster_than_conflict(self):
        assert DDR5_TIMINGS.row_hit_cycles < DDR5_TIMINGS.row_closed_cycles
        assert DDR5_TIMINGS.row_closed_cycles < DDR5_TIMINGS.row_conflict_cycles

    def test_ddr4_slower_clock(self):
        assert DDR4_TIMINGS.tck_ps > DDR5_TIMINGS.tck_ps


class TestDRAMConfig:
    def test_capacity(self):
        cfg = DRAMConfig(channels=4, dimm_capacity_bytes=64 * 1024 ** 3)
        assert cfg.capacity_bytes == 4 * 64 * 1024 ** 3

    def test_total_banks(self):
        cfg = DRAMConfig(channels=2, ranks_per_channel=2, banks_per_rank=16)
        assert cfg.total_banks == 64

    def test_peak_bandwidth(self):
        cfg = DRAMConfig(channels=4, channel_bandwidth_gbps=38.4)
        assert cfg.peak_bandwidth_gbps == pytest.approx(153.6)


class TestModelConfigs:
    @pytest.mark.parametrize("name", ["RMC1", "RMC2", "RMC3", "RMC4"])
    def test_registry(self, name):
        assert MODEL_CONFIGS[name].name == name

    def test_table1_embedding_counts(self):
        assert RMC1.num_embeddings == 16384
        assert RMC2.num_embeddings == 131072
        assert RMC3.num_embeddings == 1048576
        assert RMC4.num_embeddings == 1048576

    def test_table1_dimensions(self):
        assert RMC1.embedding_dim == RMC2.embedding_dim == RMC3.embedding_dim == 64
        assert RMC4.embedding_dim == 128

    def test_table1_mlps(self):
        assert RMC1.bottom_mlp == (256, 128, 128)
        assert RMC4.top_mlp == (768, 384, 1)

    def test_row_bytes(self):
        assert RMC1.embedding_row_bytes == 256
        assert RMC4.embedding_row_bytes == 512

    def test_footprint_ordering(self):
        assert RMC1.total_embedding_bytes < RMC2.total_embedding_bytes
        assert RMC2.total_embedding_bytes < RMC3.total_embedding_bytes
        assert RMC3.total_embedding_bytes < RMC4.total_embedding_bytes

    def test_scaled_model(self):
        scaled = scaled_model(RMC3, 0.01)
        assert scaled.num_embeddings == int(RMC3.num_embeddings * 0.01)
        assert scaled.embedding_dim == RMC3.embedding_dim

    def test_scaled_model_never_empty(self):
        assert scaled_model(RMC1, 1e-9).num_embeddings == 1


class TestSystemConfig:
    def test_defaults_match_table2(self):
        cfg = SystemConfig()
        assert cfg.cxl.access_penalty_ns == pytest.approx(100.0)
        assert cfg.cxl.downstream_port_bandwidth_gbps == pytest.approx(64.0)
        assert cfg.local_dram_capacity_bytes == 128 * 1024 ** 3

    def test_pifs_defaults(self):
        pifs = PIFSConfig()
        assert pifs.process_core is True
        assert pifs.out_of_order is True
        assert pifs.on_switch_buffer.capacity_bytes == 512 * 1024
        assert pifs.on_switch_buffer.policy == "htr"

    def test_page_mgmt_defaults(self):
        cfg = SystemConfig().page_mgmt
        assert cfg.migrate_threshold == pytest.approx(0.35)
        assert cfg.cold_age_threshold == pytest.approx(0.16)
        assert cfg.migration_mode == "cacheline_block"

    def test_workload_defaults(self):
        wl = WorkloadConfig()
        assert wl.batch_size == 8
        assert wl.distribution == "meta"

    def test_cxl_config_slots(self):
        cxl = CXLConfig()
        assert cxl.slot_bytes == 16
        assert cxl.flit_bytes == 64


class TestValidation:
    """Configs and workloads reject bad values where they are built."""

    @pytest.mark.parametrize(
        "field", ["num_hosts", "num_cxl_devices", "num_fabric_switches", "host_threads"]
    )
    @pytest.mark.parametrize("value", [0, -1])
    def test_system_config_rejects_a_count_below_one(self, field, value):
        with pytest.raises(ValueError, match=field):
            SystemConfig(**{field: value})

    def test_system_config_rejects_a_negative_capacity(self):
        with pytest.raises(ValueError, match="local_dram_capacity_bytes"):
            SystemConfig(local_dram_capacity_bytes=-1)
        assert SystemConfig(local_dram_capacity_bytes=0).local_dram_capacity_bytes == 0

    def test_workloads_reject_zero_hosts(self):
        batches = [TraceBatch([np.arange(4)], [np.array([0, 2])])]
        with pytest.raises(ValueError, match="num_hosts"):
            workload_from_batches(batches, RMC1, num_hosts=0)
        with pytest.raises(ValueError, match="num_hosts"):
            StreamingWorkload(batches, RMC1, num_hosts=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("capacity_bytes", -1),
            ("policy", "mru"),
            ("hit_latency_ns", -0.5),
            ("hit_latency_ns", float("nan")),
            ("hit_latency_ns", float("inf")),
            ("htr_interval", 0),
        ],
    )
    def test_buffer_config_rejects(self, field, value):
        with pytest.raises(ValueError, match=field):
            BufferConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("migration_epoch_accesses", 0),
            ("migration_epoch_accesses", -4),
            ("migration_mode", "os"),
        ],
    )
    def test_page_management_config_rejects(self, field, value):
        with pytest.raises(ValueError, match=field):
            PageManagementConfig(**{field: value})

    @pytest.mark.parametrize("policy", ["htr", "lru", "fifo", "none"])
    def test_zero_capacity_is_valid_for_every_policy(self, policy):
        assert OnSwitchBuffer(BufferConfig(policy=policy, capacity_bytes=0), 64).capacity_rows == 0

    def test_a_negative_resize_names_the_field(self):
        buffer = OnSwitchBuffer(BufferConfig(), 64)
        with pytest.raises(ValueError, match="capacity_bytes"):
            buffer.resize(-64)


def _attribute_reads():
    """Names read as ``.name`` anywhere in ``src/repro``.

    The validators in ``repro/config.py`` (``__post_init__``) belong to the
    declarations and do not count as reads.
    """
    package = pathlib.Path(repro.config.__file__).parent
    reads = set()
    for path in package.rglob("*.py"):
        tree = ast.parse(path.read_text())
        validators = set()
        if path == pathlib.Path(repro.config.__file__):
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
                    validators.update(id(inner) for inner in ast.walk(node))
        reads.update(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and id(node) not in validators
        )
    return reads


def test_every_config_field_is_read():
    """A knob nothing reads changes nothing when set: keep none."""
    reads = _attribute_reads()
    unread = [
        f"{cls.__name__}.{field.name}"
        for cls in vars(repro.config).values()
        if inspect.isclass(cls) and dataclasses.is_dataclass(cls)
        and cls.__module__ == repro.config.__name__
        for field in dataclasses.fields(cls)
        if field.name not in reads
    ]
    assert unread == []


#: Attributes ``src/repro`` stores and never reads that stay, with why.
WRITE_ONLY_KEPT = {
    "table_id": "EmbeddingTable is exported from repro; callers name their tables by it",
}


def _targets(target):
    """The leaves of an assignment target, tuple and starred targets unpacked."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _targets(element)
    elif isinstance(target, ast.Starred):
        yield from _targets(target.value)
    else:
        yield target


def _declared_and_stored():
    """Attribute names ``src/repro`` both declares and stores.

    Declared: a class-body annotation or ``self.name = ...``.  Stored:
    ``x.name = ...`` or ``x.name += ...``.
    """
    package = pathlib.Path(repro.config.__file__).parent
    declared, stored = set(), set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                declared.update(
                    stmt.target.id for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                )
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for leaf in _targets(target):
                    if not isinstance(leaf, ast.Attribute):
                        continue
                    stored.add(leaf.attr)
                    if (isinstance(leaf.value, ast.Name) and leaf.value.id == "self"
                            and not isinstance(node, ast.AugAssign)):
                        declared.add(leaf.attr)
    return declared & stored


def _string_constants():
    """Every string constant in ``src/repro`` and ``perfbench``.

    A name that appears as a string may be read through ``getattr``, as
    perfbench reads ``_vector_fallback_reason``.
    """
    package = pathlib.Path(repro.config.__file__).parent
    perfbench = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
    return {
        node.value
        for root in (package, perfbench)
        for path in root.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def test_no_attribute_is_only_written():
    """State nothing reads changes no result: keep none."""
    unread = _declared_and_stored() - _attribute_reads() - _string_constants()
    assert sorted(unread - set(WRITE_ONLY_KEPT)) == []
    assert set(WRITE_ONLY_KEPT) <= unread, "a kept name is read now: drop it from the list"
