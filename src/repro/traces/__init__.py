"""Embedding-lookup trace generation, ingestion and workload containers.

The paper evaluates with the open-source Meta DLRM traces plus synthetic
Zipfian / Normal / Uniform / Random traces (Fig 12 b).  This package
provides deterministic generators for all five distributions, a
drifting-popularity generator (hot-set rotation over time), trace-file
ingestion/export (Meta ``dlrm_datasets``-style ``.npz`` archives and
Criteo-style TSV), and the :class:`~repro.traces.workload.SLSWorkload`
container consumed by every SLS system implementation.
"""

from repro.traces.drift import build_drifting_workload, generate_drifting_trace
from repro.traces.files import (
    load_criteo_tsv,
    load_trace,
    load_trace_file,
    save_criteo_tsv,
    save_trace,
    save_workload_trace,
    workload_from_trace,
)
from repro.traces.meta import TraceBatch, generate_meta_like_trace, iter_meta_like_trace
from repro.traces.stream import (
    BatchStream,
    MemoryBatchStream,
    NpzBatchStream,
    SyntheticBatchStream,
    TsvBatchStream,
    iter_criteo_tsv,
    open_batch_stream,
)
from repro.traces.synthetic import TraceDistribution, generate_indices
from repro.traces.workload import (
    SLSRequest,
    SLSWorkload,
    StreamingWorkload,
    Workload,
    build_workload,
    workload_from_batches,
)

__all__ = [
    "TraceBatch",
    "generate_meta_like_trace",
    "iter_meta_like_trace",
    "BatchStream",
    "MemoryBatchStream",
    "NpzBatchStream",
    "SyntheticBatchStream",
    "TsvBatchStream",
    "iter_criteo_tsv",
    "open_batch_stream",
    "StreamingWorkload",
    "generate_drifting_trace",
    "build_drifting_workload",
    "TraceDistribution",
    "generate_indices",
    "SLSRequest",
    "SLSWorkload",
    "Workload",
    "build_workload",
    "workload_from_batches",
    "load_trace",
    "load_trace_file",
    "load_criteo_tsv",
    "save_trace",
    "save_criteo_tsv",
    "save_workload_trace",
    "workload_from_trace",
]
