"""Out-of-core trace ingestion: re-iterable batch streams.

A :class:`BatchStream` is the lazy counterpart of the ``List[TraceBatch]``
every eager loader returns: a **re-iterable** source of
:class:`~repro.traces.meta.TraceBatch` objects that keeps only the batch
(or batch window) being consumed resident.  The streaming workload path
(:class:`~repro.traces.workload.StreamingWorkload`) flattens these windows
through the exact eager request-construction code, so a trace replayed
out-of-core is bit-identical to the same trace loaded whole.

Three sources cover the repo's trace universe:

* :class:`NpzBatchStream` — a :func:`~repro.traces.files.save_trace`
  archive.  ``np.load`` on an ``.npz`` keeps the zip directory open and
  decompresses each member array on first access, so iterating batch by
  batch reads O(batch) bytes at a time instead of inflating the archive
  up front.
* :class:`TsvBatchStream` — a Criteo-style TSV, decoded **incrementally**
  line by line (the eager loader is built on the same parser, so the two
  cannot drift).  Decode errors always carry ``path:line`` locations.
* :class:`SyntheticBatchStream` — the seeded Meta-like generator driven
  lazily (:func:`~repro.traces.meta.iter_meta_like_trace`), for
  arbitrarily long synthetic traces without a file.

Streams hold no open file handles between iterations — they are cheap,
picklable *handles* (path + decode parameters), which is what the sweep
worker pool ships to chunks instead of materialized workloads.
"""

from __future__ import annotations

import pathlib
from typing import Iterable, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.config import WorkloadConfig
from repro.traces.meta import TraceBatch, iter_meta_like_trace
from repro.traces.synthetic import TraceDistribution

PathLike = Union[str, pathlib.Path]

#: Default number of trace batches flattened per streaming window.  Large
#: enough to amortize the per-window numpy address resolution, small enough
#: that a window of typical batches stays a few MB resident.
DEFAULT_WINDOW_BATCHES = 64


def _validate_bags(indices: np.ndarray, offsets: np.ndarray, where: str) -> None:
    if offsets.size and int(offsets[0]) != 0:
        raise ValueError(f"{where}: offsets must start at 0")
    if offsets.size > 1 and np.any(np.diff(offsets) < 0):
        raise ValueError(f"{where}: offsets must be non-decreasing")
    if offsets.size and int(offsets[-1]) > indices.size:
        raise ValueError(f"{where}: last offset exceeds the index count")
    if indices.size and int(indices.min()) < 0:
        raise ValueError(f"{where}: negative embedding index")


def _parse_index(token: str, path: PathLike, line_no: int, base: int) -> int:
    """Parse one categorical index in the file's declared base.

    The base is a per-file property, never guessed per token: real Criteo
    hashed features include all-digit tokens (``"10131014"``) that would
    silently alias under mixed-base parsing.
    """
    try:
        value = int(token, base)
    except ValueError:
        kind = "hexadecimal" if base == 16 else "decimal"
        hint = "" if base == 16 else " (pass hex_indices=True for Criteo hashed logs)"
        raise ValueError(
            f"{path}:{line_no}: {token!r} is not a {kind} index{hint}"
        ) from None
    if value < 0:
        raise ValueError(f"{path}:{line_no}: negative embedding index {token!r}")
    return value


def iter_criteo_tsv(
    path: PathLike,
    batch_size: int = 8,
    num_tables: Optional[int] = None,
    hex_indices: bool = False,
) -> Iterator[TraceBatch]:
    """Incrementally decode a Criteo-style TSV into batches.

    The buffered-reader core behind both :class:`TsvBatchStream` and the
    eager :func:`~repro.traces.files.load_criteo_tsv`: lines are parsed as
    they are read and grouped into batches of ``batch_size`` samples (the
    final partial batch is kept), so at no point is the whole file — or
    its decoded sample list — resident.  Malformed rows (short row, extra
    column, non-numeric id, wrong base) fail with the offending
    ``path:line`` location.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    base = 16 if hex_indices else 10
    path = pathlib.Path(path)
    chunk: List[List[int]] = []
    saw_samples = False
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            tokens = line.split("\t")
            if num_tables is None:
                num_tables = len(tokens)
            elif len(tokens) != num_tables:
                raise ValueError(
                    f"{path}:{line_no}: expected {num_tables} columns, found {len(tokens)}"
                )
            chunk.append([_parse_index(token, path, line_no, base) for token in tokens])
            saw_samples = True
            if len(chunk) == batch_size:
                yield _tsv_chunk_batch(chunk, num_tables)
                chunk = []
    if chunk:
        assert num_tables is not None
        yield _tsv_chunk_batch(chunk, num_tables)
    if not saw_samples:
        raise ValueError(f"{path}: no samples found")


def _tsv_chunk_batch(chunk: List[List[int]], num_tables: int) -> TraceBatch:
    indices_per_table = [
        np.asarray([sample[t] for sample in chunk], dtype=np.int64)
        for t in range(num_tables)
    ]
    offsets = np.arange(len(chunk), dtype=np.int64)
    return TraceBatch(
        indices_per_table=indices_per_table,
        offsets_per_table=[offsets.copy() for _ in range(num_tables)],
    )


class BatchStream:
    """A re-iterable, O(window)-resident source of :class:`TraceBatch`.

    Subclasses implement :meth:`__iter__`; every call starts a fresh pass
    over the source, so a stream can feed a profiling pass, the replay
    itself and a verification pass without rewinding state.  Streams carry
    no open handles between iterations and pickle as small handles.
    """

    def __iter__(self) -> Iterator[TraceBatch]:
        raise NotImplementedError

    def windows(self, window_batches: int = DEFAULT_WINDOW_BATCHES) -> Iterator[List[TraceBatch]]:
        """Group the stream into lists of at most ``window_batches`` batches."""
        if window_batches <= 0:
            raise ValueError("window_batches must be positive")
        window: List[TraceBatch] = []
        for batch in self:
            window.append(batch)
            if len(window) == window_batches:
                yield window
                window = []
        if window:
            yield window

    def materialize(self) -> List[TraceBatch]:
        """Read the whole stream into a list (the eager representation)."""
        return list(self)


class MemoryBatchStream(BatchStream):
    """An in-memory batch list behind the stream interface.

    The degenerate stream used by tests and by synthetic workloads that
    are already materialized — iteration order and contents are exactly
    the wrapped list's.
    """

    def __init__(self, batches: Sequence[TraceBatch]) -> None:
        self.batches = list(batches)

    def __iter__(self) -> Iterator[TraceBatch]:
        return iter(self.batches)


class NpzBatchStream(BatchStream):
    """Stream a :func:`~repro.traces.files.save_trace` ``.npz`` archive.

    Each iteration opens the archive once and pulls the per-(batch, table)
    member arrays on demand — ``np.load`` decompresses zip members lazily,
    so only the batches of the active window are ever inflated.  The
    object itself holds just the path (picklable sweep handle).
    """

    def __init__(self, path: PathLike) -> None:
        self.path = pathlib.Path(path)
        self._shape: Optional[tuple] = None

    def _header(self, archive) -> tuple:
        try:
            num_batches = int(archive["num_batches"])
            num_tables = int(archive["num_tables"])
        except KeyError as error:
            raise ValueError(
                f"{self.path}: not a trace archive (missing {error.args[0]!r})"
            ) from None
        self._shape = (num_batches, num_tables)
        return self._shape

    @property
    def shape(self) -> tuple:
        """``(num_batches, num_tables)`` from the archive header."""
        if self._shape is None:
            with np.load(self.path) as archive:
                self._header(archive)
        return self._shape

    def __iter__(self) -> Iterator[TraceBatch]:
        with np.load(self.path) as archive:
            num_batches, num_tables = self._header(archive)
            for i in range(num_batches):
                indices_per_table: List[np.ndarray] = []
                offsets_per_table: List[np.ndarray] = []
                for t in range(num_tables):
                    try:
                        indices = archive[f"batch{i}_table{t}_indices"].astype(np.int64)
                        offsets = archive[f"batch{i}_table{t}_offsets"].astype(np.int64)
                    except KeyError as error:
                        raise ValueError(
                            f"{self.path}: truncated trace archive "
                            f"(missing {error.args[0]!r})"
                        ) from None
                    _validate_bags(indices, offsets, f"{self.path} batch {i} table {t}")
                    indices_per_table.append(indices)
                    offsets_per_table.append(offsets)
                hosts = f"batch{i}_hosts"  # (first_host, host_count), when saved
                hosts = tuple(archive[hosts].tolist()) if hosts in archive.files else None
                yield TraceBatch(
                    indices_per_table=indices_per_table,
                    offsets_per_table=offsets_per_table,
                    hosts=hosts,
                )

    def __getstate__(self):
        # Ship only the handle; the header cache re-reads on the far side.
        return {"path": self.path, "_shape": None}


class TsvBatchStream(BatchStream):
    """Stream a Criteo-style TSV through :func:`iter_criteo_tsv`."""

    def __init__(
        self,
        path: PathLike,
        batch_size: int = 8,
        num_tables: Optional[int] = None,
        hex_indices: bool = False,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.path = pathlib.Path(path)
        self.batch_size = batch_size
        self.num_tables = num_tables
        self.hex_indices = hex_indices

    def __iter__(self) -> Iterator[TraceBatch]:
        return iter_criteo_tsv(
            self.path,
            batch_size=self.batch_size,
            num_tables=self.num_tables,
            hex_indices=self.hex_indices,
        )


class SyntheticBatchStream(BatchStream):
    """Stream the seeded Meta-like generator without materializing it.

    Every iteration replays :func:`~repro.traces.meta.iter_meta_like_trace`
    from the configured seed, so repeated passes (profiling, replay,
    verification) observe the identical batch sequence that
    :func:`~repro.traces.meta.generate_meta_like_trace` would return as a
    list.
    """

    def __init__(
        self, config: WorkloadConfig, distribution: Optional[str] = None
    ) -> None:
        self.config = config
        self.distribution = distribution or config.distribution

    def __iter__(self) -> Iterator[TraceBatch]:
        return iter_meta_like_trace(
            self.config, TraceDistribution.from_name(self.distribution)
        )


def open_batch_stream(
    path: PathLike,
    format: Optional[str] = None,
    batch_size: int = 8,
    hex_indices: bool = False,
) -> BatchStream:
    """Open a trace file of either format as a :class:`BatchStream`."""
    from repro.traces.files import trace_format

    resolved = trace_format(path, format)
    if resolved == "npz":
        return NpzBatchStream(path)
    return TsvBatchStream(path, batch_size=batch_size, hex_indices=hex_indices)


def as_batch_stream(source: Union[BatchStream, Iterable[TraceBatch]]) -> BatchStream:
    """Coerce a batch list (or any finite iterable) to a stream."""
    if isinstance(source, BatchStream):
        return source
    return MemoryBatchStream(list(source))


__all__ = [
    "DEFAULT_WINDOW_BATCHES",
    "BatchStream",
    "MemoryBatchStream",
    "NpzBatchStream",
    "SyntheticBatchStream",
    "TsvBatchStream",
    "as_batch_stream",
    "iter_criteo_tsv",
    "open_batch_stream",
]
