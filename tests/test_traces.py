"""Tests for trace generation and the workload container (repro.traces)."""

import numpy as np
import pytest

from repro.config import RMC1, WorkloadConfig, scaled_model
from repro.traces.meta import generate_meta_like_trace
from repro.traces.synthetic import TraceDistribution, generate_indices
from repro.traces.workload import build_workload


class TestDistributions:
    @pytest.mark.parametrize("name", ["meta", "zipfian", "normal", "uniform", "random"])
    def test_from_name(self, name):
        assert TraceDistribution.from_name(name).value == name

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            TraceDistribution.from_name("gaussian-ish")

    @pytest.mark.parametrize("dist", list(TraceDistribution))
    def test_indices_in_range(self, dist):
        rng = np.random.default_rng(0)
        indices = generate_indices(dist, 500, 1000, rng=rng)
        assert indices.dtype == np.int64
        assert len(indices) == 500
        assert indices.min() >= 0
        assert indices.max() < 1000

    def test_zero_count(self):
        assert len(generate_indices(TraceDistribution.UNIFORM, 0, 10)) == 0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            generate_indices(TraceDistribution.UNIFORM, -1, 10)
        with pytest.raises(ValueError):
            generate_indices(TraceDistribution.UNIFORM, 10, 0)

    def test_zipfian_more_skewed_than_uniform(self):
        rng = np.random.default_rng(1)
        zipf = generate_indices(TraceDistribution.ZIPFIAN, 5000, 1000, rng=rng)
        uniform = generate_indices(TraceDistribution.UNIFORM, 5000, 1000, rng=rng)
        top_zipf = np.bincount(zipf, minlength=1000).max()
        top_uniform = np.bincount(uniform, minlength=1000).max()
        assert top_zipf > 3 * top_uniform

    def test_meta_trace_has_hot_set(self):
        rng = np.random.default_rng(2)
        indices = generate_indices(TraceDistribution.META, 10000, 10000, rng=rng)
        counts = np.bincount(indices, minlength=10000)
        hot_rows = int(10000 * 0.05)
        hot_share = np.sort(counts)[::-1][:hot_rows].sum() / counts.sum()
        assert hot_share > 0.5  # the hot set captures most accesses

    def test_uniform_is_balanced(self):
        indices = generate_indices(TraceDistribution.UNIFORM, 1000, 100)
        counts = np.bincount(indices, minlength=100)
        assert counts.max() - counts.min() <= 1


def _zipf_reference(rng, count, num_embeddings, alpha):
    """The bounded-Zipf draw with its tables rebuilt on every call."""
    ranks = np.arange(1, num_embeddings + 1, dtype=np.float64)
    cdf = np.cumsum(ranks ** (-alpha))
    cdf /= cdf[-1]
    rank_indices = np.searchsorted(cdf, rng.random(count), side="left")
    permutation = np.random.default_rng(num_embeddings).permutation(num_embeddings)
    return permutation[rank_indices].astype(np.int64)


def _meta_reference(rng, count, num_embeddings):
    hot_rows = max(1, int(num_embeddings * 0.05))
    hot_set = np.random.default_rng(num_embeddings + 1).choice(
        num_embeddings, size=hot_rows, replace=False
    )
    is_hot = rng.random(count) < 0.7
    hot_choice = hot_set[rng.integers(0, hot_rows, size=count)]
    cold_choice = _zipf_reference(rng, count, num_embeddings, 0.8)
    return np.where(is_hot, hot_choice, cold_choice).astype(np.int64)


class TestMemoizedGenerator:
    """The hot set and the Zipf tables are cached; the draws must not change."""

    CASES = [(1, 1.05), (2, 0.8), (163, 1.05), (1310, 1.3), (5000, 0.8)]

    @pytest.mark.parametrize("num_embeddings, alpha", CASES)
    def test_equals_the_uncached_formula(self, num_embeddings, alpha):
        for count in (1, 7, 900):
            for _ in range(2):  # the second round is served from the cache
                cached_rng, reference_rng = np.random.default_rng(count), np.random.default_rng(count)
                zipf = generate_indices(
                    TraceDistribution.ZIPFIAN, count, num_embeddings,
                    rng=cached_rng, zipf_alpha=alpha,
                )
                np.testing.assert_array_equal(
                    zipf, _zipf_reference(reference_rng, count, num_embeddings, alpha)
                )
                meta = generate_indices(TraceDistribution.META, count, num_embeddings, rng=cached_rng)
                np.testing.assert_array_equal(
                    meta, _meta_reference(reference_rng, count, num_embeddings)
                )
                assert zipf.dtype == meta.dtype == np.int64
                # Both generators are left at the same point of their stream.
                assert cached_rng.random() == reference_rng.random()

    def test_memoized_arrays_are_read_only(self):
        from repro.traces.synthetic import _meta_hot_set, _zipf_table

        generate_indices(TraceDistribution.META, 10, 163, rng=np.random.default_rng(0))
        cdf, permutation = _zipf_table(163, 0.8)
        for array in (cdf, permutation, _meta_hot_set(163, 8)):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0
        indices = generate_indices(TraceDistribution.META, 10, 163, rng=np.random.default_rng(0))
        indices[0] = 1  # results are fresh arrays, not views of the cache


class TestMetaTrace:
    def test_batch_structure(self):
        config = WorkloadConfig(model=scaled_model(RMC1, 0.05), batch_size=4, num_batches=3)
        batches = generate_meta_like_trace(config)
        assert len(batches) == 3
        for batch in batches:
            assert batch.num_tables == config.model.num_tables
            assert batch.batch_size == 4
            assert batch.total_lookups > 0

    def test_deterministic_for_seed(self):
        config = WorkloadConfig(model=scaled_model(RMC1, 0.05), batch_size=4, seed=9)
        a = generate_meta_like_trace(config)
        b = generate_meta_like_trace(config)
        np.testing.assert_array_equal(a[0].indices_per_table[0], b[0].indices_per_table[0])


class TestWorkload:
    @pytest.fixture(scope="class")
    def workload(self):
        config = WorkloadConfig(
            model=scaled_model(RMC1, 0.05), batch_size=4, num_batches=2, pooling_factor=6
        )
        return build_workload(config)

    def test_request_count(self, workload):
        assert 0 < len(workload) <= 2 * 4 * workload.model.num_tables
        assert workload.total_lookups == sum(r.num_candidates for r in workload)

    def test_addresses_match_rows(self, workload):
        request = workload.requests[0]
        for row, address in zip(request.rows, request.addresses):
            assert workload.address_space.locate(int(address)) == (request.table, int(row))

    def test_bytes_accessed(self, workload):
        request = workload.requests[0]
        assert request.bytes_accessed == request.num_candidates * workload.model.embedding_row_bytes

    def test_unique_pages_positive(self, workload):
        assert 0 < workload.unique_pages() <= workload.address_space.total_pages

    def test_multi_host_assignment(self):
        config = WorkloadConfig(model=scaled_model(RMC1, 0.05), batch_size=8, num_batches=1)
        workload = build_workload(config, num_hosts=4)
        hosts = {r.host_id for r in workload.requests}
        assert hosts == {0, 1, 2, 3}

    def test_distribution_override(self):
        config = WorkloadConfig(model=scaled_model(RMC1, 0.05), batch_size=2, num_batches=1)
        workload = build_workload(config, distribution="uniform")
        assert workload.distribution == "uniform"
