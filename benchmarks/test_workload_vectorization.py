"""Micro-benchmark: vectorized workload construction vs. the scalar loops.

``build_workload`` used to compute every row address with a per-row Python
call to ``space.row_address`` and ``unique_pages`` built a Python set one
request at a time.  Both are now single ``np.ndarray`` operations; this
benchmark pins the equivalence and the speedup.  The scalar and vectorized
constructions run back to back in each repeat
(:func:`conftest.paired_seconds`), so a slow spell of the host lands on
both sides of a pair.
"""

import time

import numpy as np
from conftest import best_of_ratio, paired_ratio, paired_seconds, run_once

from repro.analysis.report import format_table
from repro.config import WorkloadConfig
from repro.traces.meta import generate_meta_like_trace
from repro.traces.synthetic import TraceDistribution
from repro.traces.workload import build_workload

#: Paired repeats of the scalar and vectorized constructions.
REPEATS = 3


def _bench_config(scale):
    return WorkloadConfig(
        model=scale.model("RMC2"),
        batch_size=64,
        pooling_factor=32,
        num_batches=2,
        distribution="meta",
        seed=scale.seed,
    )


def _scalar_addresses(config):
    """The pre-vectorization reference: one ``row_address`` call per row."""
    from repro.memsys.address_space import AddressSpace

    space = AddressSpace.for_model(config.model)
    dist = TraceDistribution.from_name(config.distribution)
    per_bag = []
    for batch in generate_meta_like_trace(config, distribution=dist):
        for table in range(batch.num_tables):
            indices = batch.indices_per_table[table]
            offsets = batch.offsets_per_table[table]
            bounds = np.concatenate([offsets, [len(indices)]])
            for sample in range(batch.batch_size):
                start, end = int(bounds[sample]), int(bounds[sample + 1])
                rows = indices[start:end]
                if len(rows) == 0:
                    continue
                per_bag.append(
                    np.array([space.row_address(table, int(r)) for r in rows], dtype=np.int64)
                )
    return per_bag


def test_workload_build_vectorization(benchmark, scale):
    config = _bench_config(scale)
    workload = run_once(benchmark, build_workload, config)
    seconds, results = paired_seconds(
        {"scalar": lambda: _scalar_addresses(config), "vector": lambda: build_workload(config)},
        REPEATS,
    )
    reference = results["scalar"]

    # Bit-identical addresses, bag by bag.
    assert len(reference) == len(workload.requests)
    for request, expected in zip(workload.requests, reference):
        assert np.array_equal(request.addresses, expected)

    # unique_pages: vectorized count equals the old set-building loop.
    pages = set()
    page_size = workload.address_space.page_size
    for request in workload.requests:
        pages.update((request.addresses // page_size).tolist())
    started = time.perf_counter()
    unique = workload.unique_pages()
    unique_s = time.perf_counter() - started
    assert unique == len(pages)

    scalar_s, vector_s = [seconds["scalar"]], [seconds["vector"]]
    speedup = paired_ratio(scalar_s, vector_s)
    print()
    print(format_table(
        ["path", "scalar_ms", "vectorized_ms", "speedup", "best_of_speedup"],
        [["build_workload", min(scalar_s[0]) * 1e3, min(vector_s[0]) * 1e3, speedup,
          best_of_ratio(scalar_s, vector_s)]],
        float_format="{:,.2f}",
    ))
    print(f"unique_pages: {unique} pages in {unique_s * 1e3:.2f} ms")

    # The vectorized builder does strictly more work than the scalar
    # reference (it also assembles the request objects), yet must still win
    # clearly; 2x is a conservative floor for the observed ~5-10x.  The
    # floor holds the median paired ratio.
    assert speedup > 2.0
