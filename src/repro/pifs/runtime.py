"""User-space programming interface of PIFS-Rec (§IV-D).

The runtime mirrors the OpenCL-like model the paper describes: the user
registers embedding tables (supplying the table data, the number of
embeddings and the vector size), then calls the SLS API with batch indices
and offsets.  Each call returns both the numerically correct pooled vectors
(computed functionally) and the simulated timing of executing the call on
the PIFS-Rec fabric, so applications can be validated for correctness and
performance from the same entry point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from repro.config import ModelConfig, SystemConfig, WorkloadConfig, DEFAULT_SYSTEM
from repro.dlrm.embedding import EmbeddingTable
from repro.pifs.system import PIFSRecSystem
from repro.sls.result import SimResult
from repro.traces.meta import TraceBatch
from repro.traces.workload import SLSWorkload, workload_from_batches


@dataclass
class SLSCallResult:
    """Result of one runtime SLS call."""

    values: np.ndarray
    sim: SimResult

    @property
    def latency_ns(self) -> float:
        return self.sim.total_ns


@dataclass
class _TableHandle:
    table_id: int
    table: EmbeddingTable


class PIFSRuntime:
    """The public, user-facing SLS API."""

    def __init__(
        self,
        system: Optional[SystemConfig] = None,
        seed: int = 0,
        local_capacity_fraction: Optional[float] = 0.25,
    ) -> None:
        """Create a runtime.

        ``local_capacity_fraction`` sizes the simulated local-DRAM tier as a
        fraction of the registered tables' footprint (mirroring the paper's
        regime where embedding tables exceed local DRAM and spill to the CXL
        pool).  Pass ``None`` to keep the capacity of ``system`` untouched.
        """
        self.system = system or DEFAULT_SYSTEM
        self.local_capacity_fraction = local_capacity_fraction
        self._seed = seed
        self._tables: List[_TableHandle] = []

    # ------------------------------------------------------------------
    # Memory allocation API
    # ------------------------------------------------------------------
    def allocate_embedding_table(
        self,
        weights: Optional[np.ndarray] = None,
        num_embeddings: Optional[int] = None,
        embedding_dim: Optional[int] = None,
    ) -> int:
        """Register an embedding table; returns its handle (table id).

        Either supply the table data directly via ``weights`` or give the
        (``num_embeddings``, ``embedding_dim``) shape to have the runtime
        initialize it, mirroring the paper's API where the user supplies the
        embedding table file, the number of embeddings and the vector size.
        """
        table_id = len(self._tables)
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float32)
            if weights.ndim != 2:
                raise ValueError("weights must be a 2-D (num_embeddings, dim) array")
            table = EmbeddingTable(weights.shape[0], weights.shape[1], table_id=table_id)
            table.weights = weights.copy()
        else:
            if num_embeddings is None or embedding_dim is None:
                raise ValueError("provide either weights or (num_embeddings, embedding_dim)")
            table = EmbeddingTable(num_embeddings, embedding_dim, table_id=table_id)
        if self._tables and table.dim != self._tables[0].table.dim:
            raise ValueError("all tables registered with one runtime must share the same dim")
        self._tables.append(_TableHandle(table_id=table_id, table=table))
        return table_id

    @property
    def num_tables(self) -> int:
        return len(self._tables)

    def table(self, handle: int) -> EmbeddingTable:
        return self._tables[handle].table

    # ------------------------------------------------------------------
    # SLS API
    # ------------------------------------------------------------------
    def sls(
        self,
        table_handle: int,
        indices: Sequence[int],
        offsets: Sequence[int],
        weights: Optional[Sequence[float]] = None,
    ) -> SLSCallResult:
        """Pooled embedding lookup on one table (one bag per offset)."""
        return self.sls_multi([table_handle], [indices], [offsets], [weights])

    def sls_multi(
        self,
        table_handles: Sequence[int],
        indices_per_table: Sequence[Sequence[int]],
        offsets_per_table: Sequence[Sequence[int]],
        weights_per_table: Optional[Sequence[Optional[Sequence[float]]]] = None,
    ) -> SLSCallResult:
        """Pooled lookup across several tables; values stack per table."""
        if not table_handles:
            raise ValueError("at least one table handle is required")
        if not (len(table_handles) == len(indices_per_table) == len(offsets_per_table)):
            raise ValueError("handles, indices and offsets must align")
        if weights_per_table is None:
            weights_per_table = [None] * len(table_handles)

        values = []
        for handle, indices, offsets, weights in zip(
            table_handles, indices_per_table, offsets_per_table, weights_per_table
        ):
            values.append(self.table(handle).sls(indices, offsets, weights))
        stacked = np.stack(values, axis=1)  # (batch, tables, dim)

        sim = self._simulate(table_handles, indices_per_table, offsets_per_table)
        return SLSCallResult(values=stacked, sim=sim)

    # ------------------------------------------------------------------
    def _model_config(self) -> ModelConfig:
        dims = self._tables[0].table.dim
        max_rows = max(handle.table.num_embeddings for handle in self._tables)
        return ModelConfig(
            name="runtime",
            num_embeddings=max_rows,
            embedding_dim=dims,
            bottom_mlp=(dims,),
            top_mlp=(1,),
            num_tables=len(self._tables),
        )

    def _simulate(
        self,
        table_handles: Sequence[int],
        indices_per_table: Sequence[Sequence[int]],
        offsets_per_table: Sequence[Sequence[int]],
    ) -> SimResult:
        workload = self._workload(table_handles, indices_per_table, offsets_per_table)
        system_config = self.system
        fraction = self.local_capacity_fraction
        if fraction is not None:
            capacity = max(2 * 4096, int(workload.working_set_bytes * fraction))
            system_config = replace(system_config, local_dram_capacity_bytes=capacity)
        return PIFSRecSystem(system_config).run(workload)

    def _workload(
        self,
        table_handles: Sequence[int],
        indices_per_table: Sequence[Sequence[int]],
        offsets_per_table: Sequence[Sequence[int]],
    ) -> SLSWorkload:
        """The call's bags as a workload over every registered table."""
        model = self._model_config()
        # One batch per (handle, indices, offsets) triple, in call order, with
        # the handle's table filled and every other table empty: handles may
        # come in any order and repeat.
        empty = np.zeros(0, dtype=np.int64)
        batches = []
        for handle, indices, offsets in zip(table_handles, indices_per_table, offsets_per_table):
            if not 0 <= handle < model.num_tables:
                raise ValueError(f"table {handle} out of range [0, {model.num_tables})")
            batch = TraceBatch([empty] * model.num_tables, [empty] * model.num_tables)
            batch.indices_per_table[handle] = np.asarray(indices, dtype=np.int64)
            batch.offsets_per_table[handle] = np.asarray(offsets, dtype=np.int64)
            batches.append(batch)
        return workload_from_batches(
            batches,
            model,
            distribution="user",
            batch_size=max(batch.batch_size for batch in batches),
            num_batches=1,
        )


__all__ = ["PIFSRuntime", "SLSCallResult"]
