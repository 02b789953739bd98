"""Trace-file ingestion and export.

The paper evaluates on the open-source Meta ``dlrm_datasets`` traces —
per-table streams of (indices, offsets) pairs.  This module moves real
trace files through the same :class:`~repro.traces.meta.TraceBatch`
interface the synthetic generators produce, in two on-disk formats:

* **npz** (Meta ``dlrm_datasets`` style) — one compressed numpy archive
  holding every batch's per-table ``indices``/``offsets`` arrays.  This is
  the lossless format: :func:`save_trace` → :func:`load_trace` round-trips
  bit-identically, so any synthetic workload can be exported once and
  replayed forever (:func:`save_workload_trace` /
  :func:`workload_from_trace`).
* **tsv** (Criteo style) — one sample per line, one tab-separated
  categorical index per table (decimal or Criteo's hashed hex).  Pooling
  factor is 1 by construction; loading groups lines into batches.

Both loaders validate shapes eagerly (monotone offsets, index bounds when a
model is given) so a malformed file fails at ingestion with a pointed error
rather than deep inside the simulator.
"""

from __future__ import annotations

import pathlib
from typing import Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.config import ModelConfig
from repro.traces.meta import TraceBatch
from repro.traces.stream import (
    DEFAULT_WINDOW_BATCHES,
    NpzBatchStream,
    _parse_index,
    _validate_bags,
    iter_criteo_tsv,
    open_batch_stream,
)
from repro.traces.workload import (
    SLSWorkload,
    StreamingWorkload,
    Workload,
    workload_from_batches,
)

PathLike = Union[str, pathlib.Path]

#: Recognised trace-file formats.
TRACE_FORMATS = ("npz", "tsv")


def trace_format(path: PathLike, format: Optional[str] = None) -> str:
    """Resolve the trace format for ``path`` (explicit arg wins over suffix)."""
    if format is not None:
        if format not in TRACE_FORMATS:
            raise ValueError(
                f"unknown trace format {format!r}; expected one of: {', '.join(TRACE_FORMATS)}"
            )
        return format
    suffix = pathlib.Path(path).suffix.lower().lstrip(".")
    if suffix in TRACE_FORMATS:
        return suffix
    raise ValueError(
        f"cannot infer trace format from {str(path)!r}; use a .npz or .tsv "
        "suffix or pass format= explicitly"
    )


# ---------------------------------------------------------------------------
# npz (Meta dlrm_datasets style)
# ---------------------------------------------------------------------------
def save_trace(batches: Iterable[TraceBatch], path: PathLike) -> pathlib.Path:
    """Write ``batches`` to ``path`` as a compressed ``.npz`` archive.

    Layout: scalar ``num_batches``/``num_tables`` plus one
    ``batch{i}_table{t}_indices`` / ``..._offsets`` int64 array pair per
    (batch, table), and a ``batch{i}_hosts`` pair ``(first_host,
    host_count)`` for a batch that carries a host range.
    :func:`load_trace` restores the exact arrays.
    """
    payload = {}
    num_tables = num_batches = 0
    for i, batch in enumerate(batches):
        if i == 0:
            num_tables = batch.num_tables
        elif batch.num_tables != num_tables:
            raise ValueError(
                f"batch {i} has {batch.num_tables} tables, expected {num_tables}"
            )
        for t in range(num_tables):
            payload[f"batch{i}_table{t}_indices"] = np.asarray(
                batch.indices_per_table[t], dtype=np.int64
            )
            payload[f"batch{i}_table{t}_offsets"] = np.asarray(
                batch.offsets_per_table[t], dtype=np.int64
            )
        if batch.hosts is not None:
            payload[f"batch{i}_hosts"] = np.asarray(batch.hosts, dtype=np.int64)
        num_batches = i + 1
    if not num_batches:
        raise ValueError("cannot save an empty trace")
    payload["num_batches"] = np.asarray(num_batches, dtype=np.int64)
    payload["num_tables"] = np.asarray(num_tables, dtype=np.int64)
    path = pathlib.Path(path)
    with open(path, "wb") as handle:
        np.savez_compressed(handle, **payload)
    return path


def load_trace(path: PathLike) -> List[TraceBatch]:
    """Load a ``.npz`` trace written by :func:`save_trace`.

    Materialized form of :class:`~repro.traces.stream.NpzBatchStream`;
    both read the archive through the same member-by-member path, so
    validation and error reporting cannot drift between eager and
    streaming ingestion.
    """
    return list(NpzBatchStream(path))


# ---------------------------------------------------------------------------
# tsv (Criteo style)
# ---------------------------------------------------------------------------
def load_criteo_tsv(
    path: PathLike,
    batch_size: int = 8,
    num_tables: Optional[int] = None,
    hex_indices: bool = False,
) -> List[TraceBatch]:
    """Load a Criteo-style TSV: one sample per line, one index per table.

    Every line holds ``num_tables`` tab-separated categorical indices
    (pooling factor 1, as in the Criteo click logs where each sample
    contributes exactly one id per categorical feature).  Lines are grouped
    into batches of ``batch_size`` (the final partial batch is kept).
    ``hex_indices=True`` reads the whole file as Criteo's hashed hex ids;
    the default is decimal (what :func:`save_criteo_tsv` writes).

    Built on the incremental parser
    (:func:`~repro.traces.stream.iter_criteo_tsv`): lines are decoded and
    batched as they are read — never the whole file at once — and decode
    errors carry the offending ``path:line`` location.
    """
    return list(
        iter_criteo_tsv(
            path, batch_size=batch_size, num_tables=num_tables, hex_indices=hex_indices
        )
    )


def save_criteo_tsv(batches: Sequence[TraceBatch], path: PathLike) -> pathlib.Path:
    """Write single-lookup-per-bag batches as a Criteo-style TSV.

    Only traces whose every bag holds exactly one index are expressible in
    this format (that is what a Criteo-style log is); anything else raises
    — use the lossless :func:`save_trace` npz format instead.
    """
    if not batches:
        raise ValueError("cannot save an empty trace")
    path = pathlib.Path(path)
    with open(path, "w", encoding="utf-8") as handle:
        for i, batch in enumerate(batches):
            size = batch.batch_size
            for t in range(batch.num_tables):
                indices = batch.indices_per_table[t]
                offsets = batch.offsets_per_table[t]
                if len(indices) != size or not np.array_equal(
                    np.asarray(offsets), np.arange(size, dtype=np.int64)
                ):
                    raise ValueError(
                        f"batch {i} table {t} has multi-lookup bags; the "
                        "Criteo TSV format holds exactly one index per bag "
                        "(export as npz via save_trace instead)"
                    )
            for sample in range(size):
                row = "\t".join(
                    str(int(batch.indices_per_table[t][sample]))
                    for t in range(batch.num_tables)
                )
                handle.write(row + "\n")
    return path


# ---------------------------------------------------------------------------
# Workload-level convenience
# ---------------------------------------------------------------------------
def load_trace_file(
    path: PathLike,
    format: Optional[str] = None,
    batch_size: int = 8,
    hex_indices: bool = False,
) -> List[TraceBatch]:
    """Load a trace file of either format (tsv honors ``batch_size``/``hex_indices``)."""
    resolved = trace_format(path, format)
    if resolved == "npz":
        return load_trace(path)
    return load_criteo_tsv(path, batch_size=batch_size, hex_indices=hex_indices)


def save_workload_trace(workload: Workload, path: PathLike) -> pathlib.Path:
    """Export the trace behind ``workload`` as a lossless ``.npz`` archive.

    Requires the workload to hold its source batches: every workload built
    through :func:`~repro.traces.workload.workload_from_batches` does, and
    a streamed workload reads them from its stream.  Re-loading with
    :func:`workload_from_trace` under the same model and host count
    rebuilds a bit-identical request stream.
    """
    if workload.trace is None:
        raise ValueError(
            "workload carries no trace batches to export (a shard view, or "
            "an eager workload that crossed a pickle boundary)"
        )
    return save_trace(workload.trace, path)


def workload_from_trace(
    path: PathLike,
    model: ModelConfig,
    *,
    format: Optional[str] = None,
    batch_size: int = 8,
    hex_indices: bool = False,
    num_hosts: int = 1,
    distribution: Optional[str] = None,
    streaming: bool = False,
    window_batches: int = DEFAULT_WINDOW_BATCHES,
) -> Union[SLSWorkload, StreamingWorkload]:
    """Build an :class:`SLSWorkload` from a trace file.

    Indices are bounds-checked against ``model.num_embeddings`` by the
    address computation, so a trace recorded for a bigger table fails with
    a pointed error instead of aliasing rows.

    With ``streaming=True`` the file is *not* loaded: the returned
    :class:`~repro.traces.workload.StreamingWorkload` keeps a re-iterable
    stream handle and flattens ``window_batches`` trace batches of
    requests at a time, reconstructing the identical request stream the
    eager path builds (same ids, hosts and addresses).
    """
    label = distribution or f"file:{pathlib.Path(path).name}"
    if streaming:
        stream = open_batch_stream(
            path, format=format, batch_size=batch_size, hex_indices=hex_indices
        )
        return StreamingWorkload(
            stream,
            model,
            distribution=label,
            num_hosts=num_hosts,
            window_batches=window_batches,
        )
    batches = load_trace_file(
        path, format=format, batch_size=batch_size, hex_indices=hex_indices
    )
    return workload_from_batches(
        batches,
        model,
        distribution=label,
        num_hosts=num_hosts,
    )


__all__ = [
    "TRACE_FORMATS",
    "trace_format",
    "save_trace",
    "load_trace",
    "load_criteo_tsv",
    "save_criteo_tsv",
    "load_trace_file",
    "save_workload_trace",
    "workload_from_trace",
]
