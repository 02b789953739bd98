"""Popularity drift: hot-set rotation over the lifetime of a trace.

Production embedding traffic is not stationary — the set of hot rows
rotates as content trends come and go, which is exactly the regime that
stresses online page management (a placement tuned for yesterday's hot set
keeps paying CXL latency for today's).  The generator here produces
Meta-shaped batches whose hot set is re-drawn every ``period_batches``
batches from a phase-seeded RNG, while bag sizes and the cold tail follow
the same per-table Poisson / Zipf structure as
:func:`~repro.traces.meta.generate_meta_like_trace`.

Everything is a pure function of ``(config.seed, drift knobs)``, so drift
workloads are as deterministic — and as exportable via
:mod:`repro.traces.files` — as the stationary ones.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.config import WorkloadConfig
from repro.traces.meta import TraceBatch
from repro.traces.synthetic import _hot_or_tail_rows
from repro.traces.workload import SLSWorkload, workload_from_batches


def generate_drifting_trace(
    config: WorkloadConfig,
    period_batches: int = 2,
    hot_fraction: float = 0.05,
    hot_probability: float = 0.8,
) -> List[TraceBatch]:
    """Generate batches whose hot set rotates every ``period_batches``.

    Batch ``b`` belongs to phase ``b // period_batches``; each phase draws
    its own hot set (``hot_fraction`` of the rows, capturing
    ``hot_probability`` of the accesses) from an RNG seeded by
    ``(config.seed, phase)``, so consecutive phases overlap only by
    chance.  The cold tail is the same alpha-0.8 Zipfian as the META
    distribution.
    """
    if period_batches <= 0:
        raise ValueError("period_batches must be positive")
    if not 0.0 < hot_fraction <= 1.0:
        raise ValueError("hot_fraction must be in (0, 1]")
    if not 0.0 <= hot_probability <= 1.0:
        raise ValueError("hot_probability must be in [0, 1]")
    model = config.model
    rng = np.random.default_rng(config.seed)
    table_pooling = rng.poisson(config.pooling_factor, size=model.num_tables).clip(1, None)
    hot_rows = max(1, int(model.num_embeddings * hot_fraction))

    batches: List[TraceBatch] = []
    phase = -1
    hot_set = np.empty(0, dtype=np.int64)
    for batch_index in range(config.num_batches):
        batch_phase = batch_index // period_batches
        if batch_phase != phase:
            phase = batch_phase
            hot_set = np.random.default_rng([config.seed, phase]).choice(
                model.num_embeddings, size=hot_rows, replace=False
            )
        indices_per_table: List[np.ndarray] = []
        offsets_per_table: List[np.ndarray] = []
        for table in range(model.num_tables):
            lengths = rng.poisson(table_pooling[table], size=config.batch_size).clip(1, None)
            offsets = np.concatenate([[0], np.cumsum(lengths)[:-1]]).astype(np.int64)
            count = int(lengths.sum())
            indices_per_table.append(_hot_or_tail_rows(
                rng, count, hot_set, hot_probability, model.num_embeddings
            ))
            offsets_per_table.append(offsets)
        batches.append(
            TraceBatch(indices_per_table=indices_per_table, offsets_per_table=offsets_per_table)
        )
    return batches


def build_drifting_workload(
    config: WorkloadConfig,
    period_batches: int = 2,
    hot_fraction: float = 0.05,
    hot_probability: float = 0.8,
    host_id: int = 0,
    num_hosts: int = 1,
) -> SLSWorkload:
    """Drifting-popularity counterpart of :func:`~repro.traces.workload.build_workload`."""
    batches = generate_drifting_trace(
        config,
        period_batches=period_batches,
        hot_fraction=hot_fraction,
        hot_probability=hot_probability,
    )
    return workload_from_batches(
        batches,
        config.model,
        distribution=f"drift/{period_batches}",
        batch_size=config.batch_size,
        num_batches=config.num_batches,
        host_id=host_id,
        num_hosts=num_hosts,
    )


__all__ = ["generate_drifting_trace", "build_drifting_workload"]
