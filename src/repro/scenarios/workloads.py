"""Workload providers: scenario-shaped workloads behind one spec hook.

A provider is a small frozen dataclass with a ``build(spec)`` method
returning the session's :class:`~repro.traces.workload.SLSWorkload`.  It
rides on :class:`~repro.api.session.RunSpec.workload_provider`: when set,
the façade's workload builder delegates to it (instead of the stationary
synthetic generators) while keeping everything else — caching by workload
key, sweep chunking, serve, both engines — unchanged.

Three providers ship:

* :class:`TraceFileWorkload` — replay a real trace file (Meta
  ``dlrm_datasets``-style ``.npz`` or Criteo-style TSV) through
  :mod:`repro.traces.files`;
* :class:`DriftWorkload` — popularity drift via hot-set rotation
  (:mod:`repro.traces.drift`);
* :class:`MultiTenantWorkload` — co-locate heterogeneous tenants (their
  own models, traces and hosts) on one shared fabric, each tenant's
  tables mapped into a disjoint region of a combined address space.

All providers are deterministic functions of ``(provider fields, spec)``,
picklable (they ship to sweep workers) and JSON round-trippable.
"""

from __future__ import annotations

import pathlib
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple, Type

import numpy as np

from repro.config import MODEL_CONFIGS, ModelConfig, WorkloadConfig
from repro.traces.drift import build_drifting_workload
from repro.traces.files import workload_from_trace
from repro.traces.meta import TraceBatch, generate_meta_like_trace
from repro.traces.synthetic import TraceDistribution
from repro.traces.workload import SLSWorkload, workload_from_batches


def resolve_model(spec) -> ModelConfig:
    """The spec's model as a scaled :class:`ModelConfig` (names go through the scale)."""
    if isinstance(spec.model, ModelConfig):
        return spec.model
    return spec.scale.model(str(spec.model).upper())


def _resolved(spec) -> Tuple[int, int, int]:
    """(batch_size, num_batches, pooling_factor) with scale defaults applied."""
    scale = spec.scale
    return (
        scale.batch_size if spec.batch_size is None else spec.batch_size,
        scale.num_batches if spec.num_batches is None else spec.num_batches,
        scale.pooling_factor if spec.pooling_factor is None else spec.pooling_factor,
    )


@dataclass(frozen=True)
class TraceFileWorkload:
    """Serve the session from a trace file instead of a generator.

    ``hex_indices`` applies to Criteo-style TSVs whose hashed categorical
    ids are hexadecimal.  A session built with ``Simulation.stream()``
    replays the file out-of-core: only the active window of requests is
    resident at a time, and the replayed schedule is bit-identical to the
    eager load.
    """

    path: str
    format: Optional[str] = None
    hex_indices: bool = False

    kind = "trace-file"

    @property
    def label(self) -> str:
        return f"trace:{self.path}"

    def cache_token(self) -> tuple:
        """Cache identity: the fields plus the file's (mtime, size).

        The workload/result caches key specs by value; for a file-backed
        provider the value includes state the fields cannot see — a trace
        file overwritten on disk must invalidate, not serve stale.
        """
        try:
            stat = pathlib.Path(self.path).stat()
            fingerprint: tuple = (stat.st_mtime_ns, stat.st_size)
        except OSError:
            fingerprint = ("missing",)
        return ("trace-file", self.path, self.format, self.hex_indices) + fingerprint

    def build(self, spec) -> SLSWorkload:
        batch_size, _, _ = _resolved(spec)
        return workload_from_trace(
            self.path,
            resolve_model(spec),
            format=self.format,
            batch_size=batch_size,
            hex_indices=self.hex_indices,
            num_hosts=spec.num_hosts,
            streaming=bool(getattr(spec, "stream", False)),
        )

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"kind": self.kind}
        payload.update(asdict(self))
        return payload


@dataclass(frozen=True)
class DriftWorkload:
    """Popularity drift: the hot set rotates every ``period_batches``."""

    period_batches: int = 2
    hot_fraction: float = 0.05
    hot_probability: float = 0.8

    kind = "drift"

    @property
    def label(self) -> str:
        return f"drift:{self.period_batches}"

    def build(self, spec) -> SLSWorkload:
        batch_size, num_batches, pooling = _resolved(spec)
        config = WorkloadConfig(
            model=resolve_model(spec),
            batch_size=batch_size,
            pooling_factor=pooling,
            num_batches=num_batches,
            seed=spec.scale.seed,
        )
        return build_drifting_workload(
            config,
            period_batches=self.period_batches,
            hot_fraction=self.hot_fraction,
            hot_probability=self.hot_probability,
            num_hosts=spec.num_hosts,
        )

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"kind": self.kind}
        payload.update(asdict(self))
        return payload


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of a multi-tenant co-location scenario.

    ``model`` is a Table I name (scaled by the session's evaluation
    scale); ``hosts`` is how many dedicated hosts the tenant owns on the
    shared fabric.  ``batch_size``/``num_batches``/``pooling_factor``
    default to the session's values when ``None``.
    """

    name: str
    model: str = "RMC1"
    distribution: str = "meta"
    hosts: int = 1
    batch_size: Optional[int] = None
    num_batches: Optional[int] = None
    pooling_factor: Optional[int] = None

    def __post_init__(self) -> None:
        if self.hosts <= 0:
            raise ValueError("a tenant needs at least one host")
        if str(self.model).upper() not in MODEL_CONFIGS:
            known = ", ".join(sorted(MODEL_CONFIGS))
            raise ValueError(f"unknown tenant model {self.model!r}; expected one of: {known}")
        TraceDistribution.from_name(self.distribution)  # validate eagerly

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TenantSpec":
        return cls(**dict(data))


@dataclass(frozen=True)
class MultiTenantWorkload:
    """Co-locate heterogeneous tenants on one shared CXL fabric.

    Every tenant brings its own (scaled) model, trace distribution and
    host count; tenant ``i``'s tables occupy a disjoint table range of a
    combined address space sized for the largest tenant, and its requests
    are issued from its own host range.  Batches are interleaved
    round-robin across tenants (batch 0 of every tenant, then batch 1,
    ...) so the shared devices see genuinely mixed traffic.

    Tenants must share an embedding dimension — the fabric kernels carry
    one row size per session; heterogeneous *capacity* (rows, tables) is
    the supported axis, matching multi-model co-location on real pools.
    """

    tenants: Tuple[TenantSpec, ...]

    kind = "multi-tenant"

    def __post_init__(self) -> None:
        if len(self.tenants) < 2:
            raise ValueError("a multi-tenant workload needs at least two tenants")
        object.__setattr__(self, "tenants", tuple(self.tenants))

    @property
    def label(self) -> str:
        return "tenants:" + "+".join(t.name for t in self.tenants)

    @property
    def total_hosts(self) -> int:
        return sum(t.hosts for t in self.tenants)

    def combined_model(self, spec) -> ModelConfig:
        """The synthetic model spanning every tenant's tables."""
        scale = spec.scale
        models = [scale.model(t.model.upper()) for t in self.tenants]
        dims = {m.embedding_dim for m in models}
        if len(dims) > 1:
            raise ValueError(
                "tenants must share an embedding dimension (one row size per "
                f"fabric session); got {sorted(dims)}"
            )
        return ModelConfig(
            name="+".join(t.name for t in self.tenants),
            num_embeddings=max(m.num_embeddings for m in models),
            embedding_dim=models[0].embedding_dim,
            bottom_mlp=models[0].bottom_mlp,
            top_mlp=models[0].top_mlp,
            num_tables=sum(m.num_tables for m in models),
        )

    def build(self, spec) -> SLSWorkload:
        num_hosts = spec.num_hosts
        if num_hosts != self.total_hosts:
            raise ValueError(
                f"multi-tenant workload owns {self.total_hosts} host(s) "
                f"({' + '.join(f'{t.name}:{t.hosts}' for t in self.tenants)}) but the "
                f"session is configured for {num_hosts}; set .hosts({self.total_hosts})"
            )
        batch_size, num_batches, _ = _resolved(spec)
        return workload_from_batches(
            self.batches(spec),
            self.combined_model(spec),
            distribution="multi-tenant",
            batch_size=max(t.batch_size or batch_size for t in self.tenants),
            num_batches=max(t.num_batches or num_batches for t in self.tenants),
            num_hosts=num_hosts,
        )

    def batches(self, spec) -> List[TraceBatch]:
        """Every tenant's batches in the combined table space, interleaved.

        Tenant ``i``'s batches come from its own deterministic seed stream;
        its tables move to its range of the combined tables (the other
        tenants' tables stay empty in its batches) and each batch carries
        the tenant's host range.  Batches interleave by batch index (batch
        0 of every tenant, then batch 1, ...) so tenants contend from the
        first tick.
        """
        scale = spec.scale
        batch_size, num_batches, pooling = _resolved(spec)
        num_tables = self.combined_model(spec).num_tables
        empty = np.zeros(0, dtype=np.int64)
        per_tenant: List[List[TraceBatch]] = []
        first_table = first_host = 0
        for index, tenant in enumerate(self.tenants):
            model = scale.model(tenant.model.upper())
            config = WorkloadConfig(
                model=model,
                batch_size=tenant.batch_size or batch_size,
                pooling_factor=tenant.pooling_factor or pooling,
                num_batches=tenant.num_batches or num_batches,
                distribution=tenant.distribution,
                seed=scale.seed + 1_000_003 * (index + 1),
            )
            tables = slice(first_table, first_table + model.num_tables)
            widened = []
            for batch in generate_meta_like_trace(
                config, distribution=TraceDistribution.from_name(tenant.distribution)
            ):
                indices, offsets = [empty] * num_tables, [empty] * num_tables
                indices[tables], offsets[tables] = batch.indices_per_table, batch.offsets_per_table
                widened.append(TraceBatch(indices, offsets, hosts=(first_host, tenant.hosts)))
            per_tenant.append(widened)
            first_table += model.num_tables
            first_host += tenant.hosts
        rounds = max(len(batches) for batches in per_tenant)
        return [
            batches[round_index]
            for round_index in range(rounds)
            for batches in per_tenant
            if round_index < len(batches)
        ]

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "tenants": [t.to_dict() for t in self.tenants]}


#: kind → class, the JSON round-trip dispatch table.
PROVIDER_KINDS: Dict[str, Type] = {
    cls.kind: cls for cls in (TraceFileWorkload, DriftWorkload, MultiTenantWorkload)
}


def provider_from_dict(data: Mapping[str, Any]):
    """Rebuild a workload provider from its ``to_dict`` payload."""
    payload = dict(data)
    kind = payload.pop("kind", None)
    cls = PROVIDER_KINDS.get(kind)
    if cls is None:
        known = ", ".join(sorted(PROVIDER_KINDS))
        raise ValueError(f"unknown workload provider kind {kind!r}; expected one of: {known}")
    if cls is MultiTenantWorkload:
        return cls(tenants=tuple(TenantSpec.from_dict(t) for t in payload["tenants"]))
    return cls(**payload)


__all__ = [
    "PROVIDER_KINDS",
    "DriftWorkload",
    "MultiTenantWorkload",
    "TenantSpec",
    "TraceFileWorkload",
    "provider_from_dict",
    "resolve_model",
]
