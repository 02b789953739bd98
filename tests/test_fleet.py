"""Fleet layer: router properties, exact shard partitions, fleet oracles.

Three layers of guarantees, strongest first:

* **Router properties** (Hypothesis): hash routing is a pure function of
  request content (stable under reordering), power-of-two-choices ties
  break from the seed — never from shard index or enumeration order —
  and table-affinity never routes a request off its shard's table range.
* **Partition exactness** (Hypothesis): for every policy, the union of
  all shard views equals the eager workload — same requests, same global
  ids, no dupes, no gaps — including fleets with more shards than tables
  (empty shards) and streaming bases of any window size.
* **Fleet oracles** (differential harness): a 1-shard fleet is
  bit-identical to the plain single-system run across the full
  ``(engine, streaming, observe)`` grid, and N-shard results are
  independent of the worker pool size.
"""

import pickle
from itertools import chain
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harness import assert_fleet_identical
from repro.api.session import Simulation, spec_key
from repro.api.sweep import Sweep
from repro.fleet import (
    Fleet,
    FleetResult,
    FleetServeResult,
    HashRouter,
    PowerOfTwoRouter,
    ROUTER_POLICIES,
    TableAffinityRouter,
    TablePartition,
    make_router,
    run_fleet,
    shard_views,
)
from repro.fleet.router import _mix64, _request_key, request_keys
from repro.fleet.shard import ShardWorkload
from repro.serve.server import ServeConfig
from repro.traces.files import save_trace, workload_from_trace
from repro.traces.stream import MemoryBatchStream
from repro.traces.workload import SLSRequest, StreamingWorkload, workload_from_batches
from test_stream import MODEL, assert_requests_equal, random_batches

ROUTERS = [HashRouter(seed=11), PowerOfTwoRouter(seed=11), TableAffinityRouter()]


def _quick():
    return Simulation().quick().num_batches(2)


def _route(bound, requests):
    """Route ``requests`` as one window; one shard per request."""
    return bound.route(*request_keys(requests)).tolist()


# ---------------------------------------------------------------------------
# TablePartition
# ---------------------------------------------------------------------------
@given(
    num_tables=st.integers(min_value=0, max_value=64),
    num_shards=st.integers(min_value=1, max_value=24),
)
@settings(max_examples=80, deadline=None)
def test_table_partition_is_exact_and_balanced(num_tables, num_shards):
    partition = TablePartition(num_tables, num_shards)
    ranges = list(partition.ranges())
    # Contiguous cover of [0, num_tables) in shard order.
    cursor = 0
    for lo, hi in ranges:
        assert lo == cursor and hi >= lo
        cursor = hi
    assert cursor == num_tables
    # Balanced within one table, and shard_of_table inverts range_of.
    sizes = [hi - lo for lo, hi in ranges]
    assert max(sizes) - min(sizes) <= 1
    for table in range(num_tables):
        shard = partition.shard_of_table(table)
        lo, hi = ranges[shard]
        assert lo <= table < hi


# ---------------------------------------------------------------------------
# Router properties
# ---------------------------------------------------------------------------
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    router_seed=st.integers(min_value=0, max_value=2**16),
    shuffle_seed=st.integers(min_value=0, max_value=2**16),
    num_shards=st.integers(min_value=1, max_value=9),
)
@settings(max_examples=40, deadline=None)
def test_hash_routing_is_stable_under_reordering(
    seed, router_seed, shuffle_seed, num_shards
):
    """Hash routes are a pure function of request content: any frontend
    replica, any arrival order, same shard."""
    batches = random_batches(seed, 3, 2, 4, 3)
    workload = workload_from_batches(batches, MODEL)
    router = HashRouter(seed=router_seed)
    bound = router.bind(num_shards, MODEL.num_tables)
    assignment = {
        id(request): shard
        for request, shard in zip(workload.requests, _route(bound, workload.requests))
    }
    shuffled = list(workload.requests)
    Random(shuffle_seed).shuffle(shuffled)
    rebound = router.bind(num_shards, MODEL.num_tables)
    for request, shard in zip(shuffled, _route(rebound, shuffled)):
        assert shard == assignment[id(request)]


def test_power_of_two_tie_breaks_come_from_the_seed():
    """Ties (equal shard loads) resolve by a seeded coin, never by shard
    index or dict/enumeration order — and identically on replay."""
    workload = _quick().build_workload()
    requests = list(workload.requests)
    num_shards = 4

    def assignments(seed):
        bound = PowerOfTwoRouter(seed=seed).bind(num_shards, MODEL.num_tables)
        return _route(bound, requests)

    # Deterministic replay under one seed.
    assert assignments(7) == assignments(7)
    # The seed matters: some seed pair must assign differently.
    distinct = {tuple(assignments(seed)) for seed in range(6)}
    assert len(distinct) > 1, "router ignored its seed"
    # The very first request always ties (all loads zero): across seeds the
    # coin must pick *both* candidates sometimes — picking min(first, second)
    # or always-first would be index/enumeration order, not the seed.
    first_request = requests[0]
    key = _request_key(first_request)
    picked_first, picked_second = False, False
    for seed in range(32):
        first = _mix64(seed, 1, *key) % num_shards
        second = _mix64(seed, 2, *key) % num_shards
        if first == second:
            continue
        bound = PowerOfTwoRouter(seed=seed).bind(num_shards, MODEL.num_tables)
        [choice] = _route(bound, [first_request])
        assert choice in (first, second)
        picked_first = picked_first or choice == first
        picked_second = picked_second or choice == second
    assert picked_first and picked_second, "tie-break never consulted the coin"


def test_power_of_two_prefers_the_lighter_shard():
    workload = _quick().build_workload()
    bound = PowerOfTwoRouter(seed=3).bind(4, MODEL.num_tables)
    for request in workload.requests:
        key = _request_key(request)
        first = _mix64(3, 1, *key) % 4
        second = _mix64(3, 2, *key) % 4
        lighter = None
        if bound.loads[first] != bound.loads[second]:
            lighter = first if bound.loads[first] < bound.loads[second] else second
        [choice] = _route(bound, [request])
        if lighter is not None:
            assert choice == lighter


# Random bags: any table, any sample, rows anywhere in int64's range.
BAGS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=MODEL.num_tables - 1),
        st.integers(min_value=0, max_value=2**16),
        st.lists(st.integers(min_value=0, max_value=2**63 - 1), min_size=1, max_size=5),
    ),
    max_size=40,
)
#: Router seeds: negative, and past the signed 64-bit range.
SEEDS = st.integers(min_value=-(2**64), max_value=2**65)


def _bag_requests(bags):
    return [
        SLSRequest(
            request_id=index, host_id=0, table=table, sample=sample,
            rows=np.array(rows, dtype=np.int64), addresses=np.zeros(len(rows), dtype=np.int64),
            row_bytes=MODEL.embedding_row_bytes,
        )
        for index, (table, sample, rows) in enumerate(bags)
    ]


def _route_in_windows(bound, requests, cuts):
    """Route ``requests`` as consecutive windows split at ``cuts``."""
    bounds = [0] + sorted(cut % (len(requests) + 1) for cut in cuts) + [len(requests)]
    return [
        shard
        for begin, end in zip(bounds, bounds[1:])
        for shard in _route(bound, requests[begin:end])
    ]


def _power_of_two_reference(seed, num_shards, requests):
    """The policy one request at a time, on the scalar ``_mix64``."""
    loads = [0] * num_shards
    choices = []
    for request in requests:
        key = _request_key(request)
        first = _mix64(seed, 1, *key) % num_shards
        second = _mix64(seed, 2, *key) % num_shards
        if loads[first] < loads[second]:
            choice = first
        elif loads[second] < loads[first]:
            choice = second
        else:
            choice = first if _mix64(seed, 3, *key) & 1 else second
        loads[choice] += request.num_candidates
        choices.append(choice)
    return choices, loads


@given(
    bags=BAGS,
    seed=SEEDS,
    num_shards=st.integers(min_value=1, max_value=9),
    cuts=st.lists(st.integers(min_value=0, max_value=40), max_size=3),
)
@settings(max_examples=80, deadline=None)
def test_window_routing_equals_the_scalar_policies(bags, seed, num_shards, cuts):
    """Routing whole windows in numpy assigns every bag as the per-request
    scalar policies do, however the stream is cut into windows (every
    example starts on a power-of-two tie: all loads are zero)."""
    requests = _bag_requests(bags)
    hashed = HashRouter(seed=seed).bind(num_shards, MODEL.num_tables)
    assert _route_in_windows(hashed, requests, cuts) == [
        _mix64(seed, *_request_key(request)) % num_shards for request in requests
    ]
    balanced = PowerOfTwoRouter(seed=seed).bind(num_shards, MODEL.num_tables)
    choices, loads = _power_of_two_reference(seed, num_shards, requests)
    assert _route_in_windows(balanced, requests, cuts) == choices
    assert balanced.loads == loads
    affine = TableAffinityRouter(seed=seed).bind(num_shards, MODEL.num_tables)
    partition = TablePartition(MODEL.num_tables, num_shards)
    assert _route_in_windows(affine, requests, cuts) == [
        partition.shard_of_table(request.table) for request in requests
    ]


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    num_shards=st.integers(min_value=1, max_value=9),
)
@settings(max_examples=30, deadline=None)
def test_table_affinity_never_leaves_the_shard_range(seed, num_shards):
    batches = random_batches(seed, 3, 3, 4, 3)
    workload = workload_from_batches(batches, MODEL)
    streaming = StreamingWorkload(MemoryBatchStream(batches), MODEL)
    partition = TablePartition(MODEL.num_tables, num_shards)
    for view in shard_views(streaming, TableAffinityRouter(), num_shards):
        lo, hi = partition.range_of(view.shard)
        for request in view:
            assert lo <= request.table < hi


# ---------------------------------------------------------------------------
# Partition exactness: union of shards == eager workload
# ---------------------------------------------------------------------------
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    num_batches=st.integers(min_value=1, max_value=5),
    num_tables=st.integers(min_value=1, max_value=3),
    batch_size=st.integers(min_value=1, max_value=4),
    max_pool=st.integers(min_value=0, max_value=3),
    num_shards=st.integers(min_value=1, max_value=6),
    window_batches=st.integers(min_value=1, max_value=7),
    router_index=st.integers(min_value=0, max_value=len(ROUTERS) - 1),
)
@settings(max_examples=60, deadline=None)
def test_shard_views_partition_the_trace_exactly(
    seed, num_batches, num_tables, batch_size, max_pool,
    num_shards, window_batches, router_index,
):
    """No dupes, no gaps: every policy, empty bags and empty shards
    included, streaming and eager bases alike."""
    router = ROUTERS[router_index]
    batches = random_batches(seed, num_batches, num_tables, batch_size, max_pool)
    eager = workload_from_batches(batches, MODEL)
    streaming = StreamingWorkload(
        MemoryBatchStream(batches), MODEL, window_batches=window_batches
    )
    for base in (eager, streaming):
        views = shard_views(base, router, num_shards)
        union = list(chain.from_iterable(views))
        ids = [request.request_id for request in union]
        assert len(ids) == len(set(ids)), "a request landed on two shards"
        union.sort(key=lambda request: request.request_id)
        assert_requests_equal(eager.requests, union)
        # Aggregates partition too.
        assert sum(len(view) for view in views) == len(eager.requests)
        assert sum(view.total_lookups for view in views) == eager.total_lookups


def test_streamed_shard_passes_build_only_their_own_requests(monkeypatch):
    """Counting and hotness passes build no request; the replay pass builds
    exactly the shard's own requests, never the other shards'."""
    batches = random_batches(4, 6, 3, 5, 3)
    built = []
    build = SLSRequest.__init__

    def counting_build(self, *args, **kwargs):
        build(self, *args, **kwargs)
        built.append(self.request_id)

    monkeypatch.setattr(SLSRequest, "__init__", counting_build)
    for router in ROUTERS:
        streaming = StreamingWorkload(MemoryBatchStream(batches), MODEL, window_batches=2)
        for view in shard_views(streaming, router, 3):
            built.clear()
            assert len(view) == view.num_requests
            assert sum(len(addresses) for addresses in view.iter_address_arrays()) == (
                view.total_lookups
            )
            assert built == [], f"{router.policy}: a counting pass built requests"
            own = [request.request_id for window in view.iter_windows() for request in window]
            assert len(own) == len(view)
            assert built == own, f"{router.policy}: the replay pass built foreign requests"


def test_one_shard_view_is_the_whole_workload():
    batches = random_batches(9, 3, 2, 4, 3)
    eager = workload_from_batches(batches, MODEL)
    streaming = StreamingWorkload(MemoryBatchStream(batches), MODEL, window_batches=2)
    for router in ROUTERS:
        view = streaming.shard_view(router, 0, 1)
        assert_requests_equal(eager.requests, iter(view))
        assert len(view) == len(eager.requests)


def test_shard_view_validation():
    streaming = StreamingWorkload(MemoryBatchStream(random_batches(1, 2, 2, 3, 2)), MODEL)
    with pytest.raises(ValueError):
        ShardWorkload(streaming, HashRouter(), shard=2, num_shards=2)
    with pytest.raises(ValueError):
        ShardWorkload(streaming, HashRouter(), shard=0, num_shards=0)
    with pytest.raises(TypeError):
        ShardWorkload(streaming, "hash", shard=0, num_shards=2)
    view = ShardWorkload(streaming, HashRouter(), shard=0, num_shards=2)
    with pytest.raises(AttributeError):
        view.requests  # streaming views hold no materialized list


# ---------------------------------------------------------------------------
# Shard views ship as small handles (the PR 8 leftover)
# ---------------------------------------------------------------------------
def test_streaming_shard_view_pickles_as_a_handle(tmp_path):
    """Fleet workers receive path + range + router, never trace bytes."""
    batches = random_batches(5, 6, 3, 4, 3)
    path = save_trace(batches, tmp_path / "trace.npz")
    streaming = workload_from_trace(path, MODEL, streaming=True)
    for router in ROUTERS:
        for shard in range(3):
            view = streaming.shard_view(router, shard, 3)
            list(view)  # populate the scan caches, which must NOT ride along
            view._scanned()
            payload = pickle.dumps(view)
            assert len(payload) < 4096, (
                f"{router.policy} shard view pickled to {len(payload)} bytes"
            )
            clone = pickle.loads(payload)
            assert clone.base.stream.path == streaming.stream.path
            assert_requests_equal(iter(view), iter(clone))


def test_eager_shard_view_pickle_drops_the_filtered_list():
    eager = workload_from_batches(random_batches(2, 3, 2, 4, 3), MODEL)
    view = ShardWorkload(eager, HashRouter(seed=1), 0, 2)
    kept = list(view.requests)
    clone = pickle.loads(pickle.dumps(view))
    assert clone._requests is None and clone._scan is None
    assert_requests_equal(kept, clone.requests)


# ---------------------------------------------------------------------------
# The fleet oracles (differential harness)
# ---------------------------------------------------------------------------
def test_fleet_identical_across_the_grid():
    """1-shard fleet ≡ single system over (engine, streaming, observe);
    N-shard results independent of worker count; serve included."""
    spec = _quick().fleet(3, router="hash", seed=5).spec()
    assert_fleet_identical(
        spec,
        shard_counts=(1, 3),
        observe=(False, True),
        serve_config=ServeConfig(qps=2e5, sla_ns=5_000_000.0),
    )


def test_fleet_identical_power_of_two_streaming():
    spec = _quick().stream().fleet(4, router="power-of-two-choices", seed=2).spec()
    assert_fleet_identical(
        spec, shard_counts=(4,), engines=("vector",), streaming=(True,)
    )


def test_multi_shard_vector_serve_matches_scalar():
    """Shard batches have id gaps; vector dispatch must still time every request."""
    spec = Simulation().quick().num_batches(4).fleet(3, router="hash").spec()
    assert_fleet_identical(
        spec,
        shard_counts=(3,),
        engines=("scalar", "vector"),
        streaming=(False,),
        serve_config=ServeConfig(qps=2e5, seed=3),
    )


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_fleet_serve_offers_one_global_arrival_schedule(shards):
    """Request i arrives at stamp i whatever its shard: together the shards
    are offered exactly the unsharded arrivals, i.e. the configured QPS."""
    config = ServeConfig(qps=2e5, seed=3)
    single = _quick().serve(config.qps, seed=config.seed)
    fleet = Fleet(_quick().fleet(shards, router="hash", seed=1).spec()).serve(config)
    pairs = sorted(
        (record.request_id, record.arrival_ns)
        for shard in fleet.per_shard
        for record in shard.records
    )
    assert pairs == [(record.request_id, record.arrival_ns) for record in single.records]


# ---------------------------------------------------------------------------
# Facade integration: Simulation / Sweep / scenario / JSON
# ---------------------------------------------------------------------------
def test_simulation_fleet_combines_counters():
    single = _quick().run(cache=False)
    result = _quick().fleet(4, router="table-affinity").run(cache=False)
    assert result.params["shards"] == 4
    assert result.params["router"] == "table-affinity"
    # Partitioned replay conserves work: same requests and lookups, and
    # the fleet completion time (slowest shard) can only improve.
    assert result.sim.requests == single.sim.requests
    assert result.sim.lookups == single.sim.lookups
    assert result.sim.total_ns <= single.sim.total_ns


def test_fleet_spec_key_tracks_fleet_fields():
    base = _quick()
    keys = {
        spec_key(base.clone().spec()),
        spec_key(base.clone().fleet(2).spec()),
        spec_key(base.clone().fleet(2, router="hash").spec()),
        spec_key(base.clone().fleet(2, router="hash", seed=9).spec()),
    }
    assert len(keys) == 4


def test_fleet_setter_validation():
    with pytest.raises(ValueError):
        Simulation().fleet(-1)
    with pytest.raises(ValueError):
        Simulation().fleet(2, router="round-robin")
    with pytest.raises(ValueError):
        Simulation().router("nope")
    with pytest.raises(ValueError):
        make_router("nope")
    assert Simulation(shards=2, router="hash").spec().fleet_router == "hash"


def test_sweep_over_shards_and_router():
    grid = Sweep(
        {"shards": [1, 2], "router": list(ROUTER_POLICIES)}, base=_quick()
    ).run(cache=False)
    assert len(grid) == 2 * len(ROUTER_POLICIES)
    lookups = {result.sim.lookups for result in grid}
    assert len(lookups) == 1, "routing policies must conserve total work"
    coords = {(r.params["shards"], r.params["router"]) for r in grid}
    assert coords == {(s, p) for s in (1, 2) for p in ROUTER_POLICIES}


def test_fleet_baseline_scenario():
    from repro.scenarios.registry import scenario

    entry = scenario("fleet-baseline")
    assert entry.shards == 4 and entry.router == "table-affinity"
    assert "4shards/table-affinity" in entry.dimensions()
    assert "fleet 4 shards" in entry.parameters()
    clone = type(entry).from_dict(entry.to_dict())
    assert clone == entry
    result = entry.run(quick=True, cache=False)
    assert result.params["shards"] == 4
    # Scenario application resets fleet fields from a previous scenario.
    sim = _quick().fleet(8, router="hash").scenario("paper-baseline")
    assert sim.spec().fleet_shards == 0


def test_fleet_result_json_round_trip():
    fleet = run_fleet(_quick().fleet(2, router="hash").spec())
    clone = FleetResult.from_json(fleet.to_json())
    assert clone.to_dict() == fleet.to_dict()
    assert clone.goodput_lookups_per_us == fleet.goodput_lookups_per_us
    assert len(fleet.shard_breakdown()) == 2


def test_fleet_serve_round_trip_and_goodput():
    config = ServeConfig(qps=2e5, sla_ns=5_000_000.0)
    fleet = Fleet(_quick().fleet(2).spec())
    result = fleet.serve(config)
    assert result.requests == result.latency.count
    assert result.sla_attainment == pytest.approx(1.0)
    assert result.goodput_qps == pytest.approx(result.achieved_qps)
    assert result.sim is not None and result.sim.latency == result.latency
    clone = FleetServeResult.from_json(result.to_json())
    assert clone.to_dict() == result.to_dict()


def test_fleet_observe_merges_per_shard_spans():
    from repro.obs.recorder import TraceRecorder

    recorder = TraceRecorder()
    result = _quick().fleet(2).observe(recorder).run()
    assert result.obs is not None
    trace = recorder.to_chrome_trace()
    processes = {
        event["args"]["name"]
        for event in trace["traceEvents"]
        if event.get("name") == "process_name"
    }
    assert {"shard-0", "shard-1"} <= processes
