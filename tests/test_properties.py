"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import min_max_normalize, standard_deviation
from repro.config import BufferConfig, PIFSConfig
from repro.cxl.link import CXLLink
from repro.dlrm.embedding import EmbeddingTable
from repro.memsys.address_space import AddressSpace
from repro.pifs.instructions import VECTOR_SIZE_BYTES, decode_vector_size, encode_vector_size
from repro.pifs.onswitch_buffer import OnSwitchBuffer
from repro.pifs.ooo import OutOfOrderAccumulator


# ----------------------------------------------------------------------
# SLS correctness against a straightforward numpy reference
# ----------------------------------------------------------------------
@st.composite
def sls_inputs(draw):
    num_embeddings = draw(st.integers(min_value=4, max_value=64))
    dim = draw(st.sampled_from([4, 8, 16]))
    bags = draw(st.integers(min_value=1, max_value=5))
    lengths = draw(st.lists(st.integers(min_value=0, max_value=6), min_size=bags, max_size=bags))
    total = sum(lengths)
    indices = draw(
        st.lists(st.integers(min_value=0, max_value=num_embeddings - 1), min_size=total, max_size=total)
    )
    return num_embeddings, dim, lengths, indices


@given(sls_inputs())
@settings(max_examples=60, deadline=None)
def test_sls_matches_reference(data):
    num_embeddings, dim, lengths, indices = data
    table = EmbeddingTable(num_embeddings, dim, table_id=1)
    offsets = np.concatenate([[0], np.cumsum(lengths)[:-1]]).astype(np.int64)
    pooled = table.sls(indices, offsets)
    cursor = 0
    for bag, length in enumerate(lengths):
        expected = np.zeros(dim, dtype=np.float64)
        for idx in indices[cursor : cursor + length]:
            expected += table.weights[idx]
        cursor += length
        np.testing.assert_allclose(pooled[bag], expected, rtol=1e-4, atol=1e-5)


# ----------------------------------------------------------------------
# Address-space round trip
# ----------------------------------------------------------------------
@given(
    num_tables=st.integers(min_value=1, max_value=8),
    num_embeddings=st.integers(min_value=1, max_value=5000),
    row_bytes=st.sampled_from([16, 32, 64, 128, 256, 512]),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_address_space_roundtrip(num_tables, num_embeddings, row_bytes, data):
    space = AddressSpace(num_tables=num_tables, num_embeddings=num_embeddings, row_bytes=row_bytes)
    table = data.draw(st.integers(min_value=0, max_value=num_tables - 1))
    row = data.draw(st.integers(min_value=0, max_value=num_embeddings - 1))
    address = space.row_address(table, row)
    assert 0 <= address < space.total_bytes
    assert space.locate(address) == (table, row)


@given(
    num_tables=st.integers(min_value=1, max_value=4),
    num_embeddings=st.integers(min_value=1, max_value=1000),
    row_bytes=st.sampled_from([16, 64, 256]),
)
@settings(max_examples=40, deadline=None)
def test_address_space_tables_never_overlap(num_tables, num_embeddings, row_bytes):
    space = AddressSpace(num_tables=num_tables, num_embeddings=num_embeddings, row_bytes=row_bytes)
    last_of_table = space.row_address(0, num_embeddings - 1) + row_bytes - 1
    if num_tables > 1:
        first_of_next = space.row_address(1, 0)
        assert first_of_next > last_of_table


# ----------------------------------------------------------------------
# On-switch buffer invariants
# ----------------------------------------------------------------------
@given(
    policy=st.sampled_from(["htr", "lru", "fifo"]),
    capacity_rows=st.integers(min_value=1, max_value=16),
    accesses=st.lists(st.integers(min_value=0, max_value=31), min_size=1, max_size=200),
)
@settings(max_examples=60, deadline=None)
def test_buffer_occupancy_and_counters(policy, capacity_rows, accesses):
    row_bytes = 64
    buf = OnSwitchBuffer(
        BufferConfig(policy=policy, capacity_bytes=capacity_rows * row_bytes, htr_interval=32),
        row_bytes,
    )
    for row in accesses:
        hit = buf.lookup(row * row_bytes)
        if not hit:
            buf.insert(row * row_bytes)
    assert buf.occupancy <= capacity_rows
    assert buf.hits + buf.misses == len(accesses)
    assert 0.0 <= buf.hit_ratio() <= 1.0


# ----------------------------------------------------------------------
# Link and accumulator monotonicity
# ----------------------------------------------------------------------
@given(
    transfers=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4096),
            st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        ),
        min_size=1,
        max_size=50,
    )
)
@settings(max_examples=50, deadline=None)
def test_link_time_is_monotonic_and_conserves_bytes(transfers):
    link = CXLLink(bandwidth_gbps=32.0, propagation_ns=5.0)
    last_busy = 0.0
    total_bytes = 0
    for size, start in transfers:
        finish = link.transfer(size, start)
        assert finish >= start + 5.0
        assert link.busy_until_ns >= last_busy
        last_busy = link.busy_until_ns
        total_bytes += size
    assert link.bytes_transferred == total_bytes


@given(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=200))
@settings(max_examples=50, deadline=None)
def test_accumulator_counts_every_element(sumtags):
    config = PIFSConfig()
    acc = OutOfOrderAccumulator(config)
    total_ns = 0.0
    for sumtag in sumtags:
        busy = acc.accumulate_element(sumtag)
        assert busy > 0
        total_ns += busy
    # Every element costs the base cycles; each context switch adds a
    # half-cycle swap while registers last (none is freed here), then a spill.
    switches = sum(a != b for a, b in zip(sumtags, sumtags[1:]))
    swaps = min(switches, config.swap_registers)
    cycles = (
        len(sumtags) * config.accumulate_cycles_per_element
        + swaps * config.swap_cycles * 0.5
        + (switches - swaps) * config.sram_spill_cycles
    )
    assert total_ns == pytest.approx(cycles * acc.cycle_ns)
    assert acc.stats.stall_cycles == 0


# ----------------------------------------------------------------------
# Instruction encoding and stats helpers
# ----------------------------------------------------------------------
@given(st.sampled_from(sorted(VECTOR_SIZE_BYTES.values())))
def test_vector_size_encoding_roundtrip(row_bytes):
    assert decode_vector_size(encode_vector_size(row_bytes)) == row_bytes


@given(
    st.dictionaries(
        st.text(min_size=1, max_size=5),
        st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
        min_size=1,
        max_size=10,
    )
)
@settings(max_examples=60, deadline=None)
def test_min_max_normalize_properties(values):
    normalized = min_max_normalize(values)
    assert set(normalized) == set(values)
    assert all(0.0 <= v <= 1.0 + 1e-9 for v in normalized.values())
    if max(values.values()) > 0:
        assert max(normalized.values()) == pytest.approx(1.0)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_standard_deviation_non_negative(values):
    assert standard_deviation(values) >= 0.0
