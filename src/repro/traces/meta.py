"""Meta-like DLRM embedding trace generation.

The paper uses the open-source Meta ``dlrm_datasets`` traces.  Those traces
are per-table streams of (indices, offsets) pairs with a highly skewed,
hot-set-dominated reuse pattern and per-table pooling factors.  This module
generates traces with the same structure so the rest of the system consumes
exactly the same shape of data.  Each trace is a list of batches; each batch
holds per-table index arrays and bag offsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.config import WorkloadConfig
from repro.traces.synthetic import TraceDistribution, generate_indices


@dataclass
class TraceBatch:
    """One batch of a trace: per-table indices and offsets.

    ``hosts`` is the batch's host range ``(first_host, host_count)``: bag
    ``s`` of every table is issued by host ``first_host + s % host_count``.
    ``None`` spreads the bags over all of the workload's hosts.  A
    multi-tenant trace gives each tenant's batches that tenant's hosts.
    """

    indices_per_table: List[np.ndarray]
    offsets_per_table: List[np.ndarray]
    hosts: Optional[Tuple[int, int]] = None

    @property
    def num_tables(self) -> int:
        return len(self.indices_per_table)

    @property
    def batch_size(self) -> int:
        # The longest table: a batch widened to a larger table space
        # leaves the tables it does not use empty.
        return max((len(offsets) for offsets in self.offsets_per_table), default=0)

    @property
    def total_lookups(self) -> int:
        return int(sum(len(idx) for idx in self.indices_per_table))


def iter_meta_like_trace(
    config: WorkloadConfig,
    distribution: Optional[TraceDistribution] = None,
) -> Iterator[TraceBatch]:
    """Lazily generate ``config.num_batches`` batches of Meta-like lookups.

    One seeded RNG drives the whole trace sequentially, so consuming this
    generator batch by batch produces exactly the list
    :func:`generate_meta_like_trace` would build — only one batch is ever
    resident, which is what lets the streaming workload path replay
    arbitrarily long synthetic traces in O(window) memory.

    Pooling factors vary per table (drawn once per table around the
    configured mean, as in the Meta traces where some features have much
    longer multi-hot lists than others).
    """
    model = config.model
    distribution = distribution or TraceDistribution.from_name(config.distribution)
    rng = np.random.default_rng(config.seed)
    table_pooling = rng.poisson(config.pooling_factor, size=model.num_tables).clip(1, None)

    for _ in range(config.num_batches):
        indices_per_table: List[np.ndarray] = []
        offsets_per_table: List[np.ndarray] = []
        for table in range(model.num_tables):
            lengths = rng.poisson(table_pooling[table], size=config.batch_size).clip(1, None)
            offsets = np.concatenate([[0], np.cumsum(lengths)[:-1]]).astype(np.int64)
            indices = generate_indices(
                distribution,
                count=int(lengths.sum()),
                num_embeddings=model.num_embeddings,
                rng=rng,
                zipf_alpha=config.zipf_alpha,
            )
            indices_per_table.append(indices)
            offsets_per_table.append(offsets)
        yield TraceBatch(indices_per_table=indices_per_table, offsets_per_table=offsets_per_table)


def generate_meta_like_trace(
    config: WorkloadConfig,
    distribution: Optional[TraceDistribution] = None,
) -> List[TraceBatch]:
    """Generate ``config.num_batches`` batches of Meta-like lookups.

    Materialized form of :func:`iter_meta_like_trace` (same seeded RNG
    sequence, whole trace resident).
    """
    return list(iter_meta_like_trace(config, distribution))


__all__ = ["TraceBatch", "generate_meta_like_trace", "iter_meta_like_trace"]
