"""Central configuration objects for the PIFS-Rec reproduction.

Every simulator component receives its parameters through the dataclasses
defined here.  Default values follow Tables I and II of the paper:

* :class:`DRAMTimings` / :class:`DRAMConfig` mirror the "DRAM Configuration"
  block of Table II (DDR5-4800, 64 GB DIMMs, 4 channels, 2 ranks).
* :class:`CXLConfig` mirrors the "CXL Configuration" block (64 GB/s x16
  downstream ports, 0.91-4.19 ns switch buffer access, 100 ns CXL access
  penalty over DRAM).
* :class:`ModelConfig` and the ``RMC1``-``RMC4`` presets mirror Table I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

# ---------------------------------------------------------------------------
# Units.  The global simulation clock is expressed in nanoseconds, matching
# the paper's "top-module clock tick period of one ns/clk".
# ---------------------------------------------------------------------------

CACHE_LINE_BYTES = 64
PAGE_SIZE_BYTES = 4096
GIB = 1024 ** 3
MIB = 1024 ** 2
KIB = 1024


@dataclass(frozen=True)
class DRAMTimings:
    """DDR timing parameters in device clock cycles (Table II).

    ``tck_ps`` is the clock period in picoseconds; DDR5-4800 has a 2400 MHz
    I/O clock, i.e. 625 ps per cycle / 0.625 ns.
    """

    cl: int = 28
    trcd: int = 28
    trp: int = 28
    tras: int = 52
    trc: int = 79
    twr: int = 48
    trtp: int = 12
    tcwl: int = 22
    nrfc1: int = 30
    tck_ps: int = 625

    @property
    def tck_ns(self) -> float:
        """Clock period in nanoseconds."""
        return self.tck_ps / 1000.0

    def cycles_to_ns(self, cycles: float) -> float:
        """Convert a number of device cycles to nanoseconds."""
        return cycles * self.tck_ns

    @property
    def row_hit_cycles(self) -> int:
        """Cycles for a read that hits an open row (CAS latency)."""
        return self.cl

    @property
    def row_closed_cycles(self) -> int:
        """Cycles for a read to a precharged (closed) bank: ACT + CAS."""
        return self.trcd + self.cl

    @property
    def row_conflict_cycles(self) -> int:
        """Cycles for a read that conflicts with an open row: PRE + ACT + CAS."""
        return self.trp + self.trcd + self.cl


# DDR4 used on the CXL expander side (Table II footnote / §III: CXL memory is
# built from DDR4-3200 DIMMs with a lower refresh rate than DDR5).
DDR4_TIMINGS = DRAMTimings(
    cl=22,
    trcd=22,
    trp=22,
    tras=52,
    trc=74,
    twr=24,
    trtp=12,
    tcwl=16,
    nrfc1=40,
    tck_ps=1250,
)

DDR5_TIMINGS = DRAMTimings()


@dataclass(frozen=True)
class DRAMConfig:
    """Organization of a DRAM device (one memory node)."""

    timings: DRAMTimings = field(default_factory=lambda: DDR5_TIMINGS)
    channels: int = 4
    ranks_per_channel: int = 2
    banks_per_rank: int = 16
    row_size_bytes: int = 8192
    dimm_capacity_bytes: int = 64 * GIB
    dimms_per_channel: int = 1
    # Peak per-channel bandwidth in bytes/ns (GB/s).  DDR5-4800 x64: 38.4 GB/s,
    # DDR4-3200 x64: 25.6 GB/s.
    channel_bandwidth_gbps: float = 38.4

    @property
    def capacity_bytes(self) -> int:
        """Total capacity of the device in bytes."""
        return self.dimm_capacity_bytes * self.dimms_per_channel * self.channels

    @property
    def total_banks(self) -> int:
        """Total number of banks across all channels and ranks."""
        return self.channels * self.ranks_per_channel * self.banks_per_rank

    @property
    def peak_bandwidth_gbps(self) -> float:
        """Aggregate peak bandwidth of the device in GB/s."""
        return self.channel_bandwidth_gbps * self.channels


DDR5_LOCAL_CONFIG = DRAMConfig(
    timings=DDR5_TIMINGS,
    channels=12,
    dimm_capacity_bytes=64 * GIB,
    channel_bandwidth_gbps=38.4,
)

DDR4_CXL_CONFIG = DRAMConfig(
    timings=DDR4_TIMINGS,
    channels=4,
    dimm_capacity_bytes=64 * GIB,
    channel_bandwidth_gbps=25.6,
)


@dataclass(frozen=True)
class CXLConfig:
    """CXL fabric parameters (Table II, "CXL Configuration")."""

    # Downstream port: PCIe 5.0 x16 -> ~64 GB/s.
    downstream_port_bandwidth_gbps: float = 64.0
    downstream_ports: int = 16
    upstream_port_bandwidth_gbps: float = 64.0
    # Extra access latency of CXL memory over local DRAM (TPP / Pond report
    # ~100 ns; §VI-A uses 100 ns).
    access_penalty_ns: float = 100.0
    # Fabric-switch SRAM buffer read/write latency range in ns (Table II).
    buffer_read_ns: Tuple[float, float] = (0.91, 4.19)
    buffer_write_ns: Tuple[float, float] = (0.91, 4.17)
    retimer_ns: float = 15.0
    # Latency added per inter-switch hop in a scaled-out fabric (§VI-C4).
    inter_switch_hop_ns: float = 100.0
    # Flit/slot size of the CXL protocol (16 byte slots, 64 byte flits).
    slot_bytes: int = 16
    flit_bytes: int = 64


@dataclass(frozen=True)
class ModelConfig:
    """A DLRM model configuration (Table I)."""

    name: str
    num_embeddings: int
    embedding_dim: int
    bottom_mlp: Tuple[int, ...]
    top_mlp: Tuple[int, ...]
    num_tables: int = 8
    dense_features: int = 13

    @property
    def embedding_row_bytes(self) -> int:
        """Size of one embedding row in bytes (FP32 elements)."""
        return self.embedding_dim * 4

    @property
    def table_bytes(self) -> int:
        """Size of one embedding table in bytes."""
        return self.num_embeddings * self.embedding_row_bytes

    @property
    def total_embedding_bytes(self) -> int:
        """Size of all embedding tables in bytes."""
        return self.table_bytes * self.num_tables


RMC1 = ModelConfig(
    name="RMC1",
    num_embeddings=16384,
    embedding_dim=64,
    bottom_mlp=(256, 128, 128),
    top_mlp=(128, 64, 1),
)

RMC2 = ModelConfig(
    name="RMC2",
    num_embeddings=131072,
    embedding_dim=64,
    bottom_mlp=(1024, 512, 128),
    top_mlp=(384, 192, 1),
)

RMC3 = ModelConfig(
    name="RMC3",
    num_embeddings=1048576,
    embedding_dim=64,
    bottom_mlp=(2048, 1024, 256),
    top_mlp=(512, 256, 1),
)

RMC4 = ModelConfig(
    name="RMC4",
    num_embeddings=1048576,
    embedding_dim=128,
    bottom_mlp=(2048, 2048, 256),
    top_mlp=(768, 384, 1),
)

MODEL_CONFIGS: Dict[str, ModelConfig] = {
    "RMC1": RMC1,
    "RMC2": RMC2,
    "RMC3": RMC3,
    "RMC4": RMC4,
}


def scaled_model(base: ModelConfig, scale: float) -> ModelConfig:
    """Return a copy of ``base`` whose embedding count is scaled by ``scale``.

    Used by tests and examples to run the RMC shapes at laptop scale while
    keeping the relative footprint between models.
    """
    return replace(base, num_embeddings=max(1, int(base.num_embeddings * scale)))


BUFFER_POLICIES = ("htr", "lru", "fifo", "none")
MIGRATION_MODES = ("page_block", "cacheline_block")
#: Replay fidelities (``SLSSystem.set_engine``): ``"packet"`` is the scalar
#: request flow with ``repro.net`` port queues on every fabric link.
ENGINES = ("scalar", "vector", "packet")
#: Fleet request-routing policies (``repro.fleet.router.make_router``).
ROUTER_POLICIES = ("hash", "power-of-two-choices", "table-affinity")


@dataclass(frozen=True)
class BufferConfig:
    """On-switch buffer configuration (§IV-A4, Fig 15)."""

    capacity_bytes: int = 512 * KIB
    policy: str = "htr"  # one of BUFFER_POLICIES
    hit_latency_ns: float = 2.0
    # HTR re-ranking interval, expressed in number of accesses.
    htr_interval: int = 2048

    def __post_init__(self) -> None:
        if self.capacity_bytes < 0:
            raise ValueError(f"capacity_bytes must be >= 0, got {self.capacity_bytes!r}")
        if self.policy not in BUFFER_POLICIES:
            raise ValueError(f"policy must be one of {BUFFER_POLICIES}, got {self.policy!r}")
        if not (math.isfinite(self.hit_latency_ns) and self.hit_latency_ns >= 0):
            raise ValueError(f"hit_latency_ns must be finite and >= 0, got {self.hit_latency_ns!r}")
        if self.htr_interval < 1:
            raise ValueError(f"htr_interval must be >= 1, got {self.htr_interval!r}")


@dataclass(frozen=True)
class PageManagementConfig:
    """Software page-management parameters (§IV-B)."""

    # "migrate threshold": a CXL node is considered warm when its access
    # count exceeds the average of the other nodes by (1 - threshold).
    migrate_threshold: float = 0.35
    # "cold age threshold": a private hot page is reclassified as public cold
    # when its access frequency falls behind by more than this fraction.
    cold_age_threshold: float = 0.16
    # Migration mechanism: "page_block" (OS page granular, blocks the whole
    # page) or "cacheline_block" (PIFS migration controller, §IV-B4).
    migration_mode: str = "cacheline_block"
    migration_epoch_accesses: int = 4096

    def __post_init__(self) -> None:
        if self.migration_epoch_accesses < 1:
            raise ValueError(
                f"migration_epoch_accesses must be >= 1, got {self.migration_epoch_accesses!r}"
            )
        if self.migration_mode not in MIGRATION_MODES:
            raise ValueError(
                f"migration_mode must be one of {MIGRATION_MODES}, got {self.migration_mode!r}"
            )


@dataclass(frozen=True)
class PIFSConfig:
    """Hardware feature flags and parameters of the PIFS switch (§IV-A)."""

    process_core: bool = True
    out_of_order: bool = True
    on_switch_buffer: BufferConfig = field(default_factory=BufferConfig)
    # Accumulate Configuration Register capacity (concurrent sumtags).
    acr_capacity: int = 64
    # Number of swap registers shared by the accumulate logic (§IV-A5).
    swap_registers: int = 8
    # Process-core clock in GHz (1 GHz synthesis clock, §VI-D).
    core_clock_ghz: float = 1.0
    # Cycles per decoded instruction / per accumulated element.
    decode_cycles: int = 2
    repack_cycles: int = 1
    accumulate_cycles_per_element: int = 1
    swap_cycles: int = 1
    sram_spill_cycles: int = 2
    # Pipeline-drain penalty an in-order accumulate engine pays when the next
    # arriving row belongs to a different accumulation (sumtag).
    inorder_stall_cycles: int = 8


@dataclass(frozen=True)
class SystemConfig:
    """Top-level description of the simulated machine."""

    local_dram: DRAMConfig = field(default_factory=lambda: DDR5_LOCAL_CONFIG)
    cxl_dram: DRAMConfig = field(default_factory=lambda: DDR4_CXL_CONFIG)
    cxl: CXLConfig = field(default_factory=CXLConfig)
    pifs: PIFSConfig = field(default_factory=PIFSConfig)
    page_mgmt: PageManagementConfig = field(default_factory=PageManagementConfig)
    # Local DRAM capacity dedicated to embeddings (baselines use 128 GB).
    local_dram_capacity_bytes: int = 128 * GIB
    num_cxl_devices: int = 4
    num_fabric_switches: int = 1
    num_hosts: int = 1
    host_threads: int = 16
    # Latency of a local DRAM load observed by the host (ns), before bank
    # timing adjustments.
    local_dram_base_latency_ns: float = 90.0

    def __post_init__(self) -> None:
        for name in ("num_hosts", "num_cxl_devices", "num_fabric_switches", "host_threads"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value!r}")
        if self.local_dram_capacity_bytes < 0:
            raise ValueError(
                f"local_dram_capacity_bytes must be >= 0, got {self.local_dram_capacity_bytes!r}"
            )


@dataclass(frozen=True)
class WorkloadConfig:
    """Parameters of an SLS workload run."""

    model: ModelConfig = field(default_factory=lambda: RMC1)
    batch_size: int = 8
    pooling_factor: int = 8  # average bag size (lookups per sample per table)
    num_batches: int = 4
    distribution: str = "meta"  # meta | zipfian | normal | uniform | random
    zipf_alpha: float = 1.05
    seed: int = 2024


def replace_page_mgmt(config: SystemConfig, **fields) -> SystemConfig:
    """Copy ``config`` with fields of its page-management block replaced.

    Usable with :func:`functools.partial` as a picklable config transform
    for parameter sweeps: ``partial(replace_page_mgmt, migrate_threshold=0.2)``.
    """
    return replace(config, page_mgmt=replace(config.page_mgmt, **fields))


def replace_buffer(config: SystemConfig, **fields) -> SystemConfig:
    """Copy ``config`` with fields of the on-switch buffer replaced."""
    buffer_cfg = replace(config.pifs.on_switch_buffer, **fields)
    return replace(config, pifs=replace(config.pifs, on_switch_buffer=buffer_cfg))


DEFAULT_SYSTEM = SystemConfig()
DEFAULT_WORKLOAD = WorkloadConfig()

__all__ = [
    "CACHE_LINE_BYTES",
    "PAGE_SIZE_BYTES",
    "GIB",
    "MIB",
    "KIB",
    "DRAMTimings",
    "DDR4_TIMINGS",
    "DDR5_TIMINGS",
    "DRAMConfig",
    "DDR5_LOCAL_CONFIG",
    "DDR4_CXL_CONFIG",
    "CXLConfig",
    "ModelConfig",
    "RMC1",
    "RMC2",
    "RMC3",
    "RMC4",
    "MODEL_CONFIGS",
    "scaled_model",
    "BUFFER_POLICIES",
    "MIGRATION_MODES",
    "ENGINES",
    "ROUTER_POLICIES",
    "BufferConfig",
    "PageManagementConfig",
    "PIFSConfig",
    "SystemConfig",
    "WorkloadConfig",
    "replace_page_mgmt",
    "replace_buffer",
    "DEFAULT_SYSTEM",
    "DEFAULT_WORKLOAD",
]
