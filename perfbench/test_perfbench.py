"""The benchmark's own tests: tiny runs of every workload, and its checks.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import copy
import json
import pathlib
from dataclasses import replace

import pytest

from perfbench import bench, checks, workloads

BENCHMARK = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)
#: Requests of a tiny session: every bag of the Meta-like trace is non-empty.
TINY_REQUESTS = workloads.TINY.batches * workloads.TINY.batch_size * 8


def run_tiny(capsys, workload, trace, seed=1):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    assert bench.main(argv, size=workloads.TINY) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    digest = next(line.split()[-1] for line in lines if line.startswith(f"sim_digest {workload} "))
    return json.loads(lines[-1]), digest


def test_declared_metrics_and_workloads_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(bench.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert BENCHMARK["run_seconds"] == 20


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric(capsys, monkeypatch, tmp_path, workload, trace):
    monkeypatch.chdir(tmp_path)
    result, _ = run_tiny(capsys, workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in declared]
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] >= 0
        if not trace:
            assert reported["value"] > 0, metric["name"]
    if trace:
        values = {name: metric["value"] for name, metric in result["metrics"].items()}
        assert values["trace.coverage"] > 0 and values["trace.overhead"] > 0
        if workload == "fleet":
            # 8 shards x (request count, hotness profile, replay).
            assert values["traces.passes"] == 24
        if workload == "serve-stream":
            assert values["sls.scalar_requests"] == TINY_REQUESTS
        if workload == "serve":
            assert values["sls.vector_requests"] == TINY_REQUESTS
        assert list(tmp_path.joinpath(bench.SPANS_DIR).glob(f"{workload}-seed1-spans.npz"))


def test_a_second_seed_changes_the_digest_and_keeps_every_metric(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    first, first_digest = run_tiny(capsys, "replay", 0, seed=1)
    second, second_digest = run_tiny(capsys, "replay", 0, seed=2)
    assert first_digest != second_digest
    assert second["correct"] and list(second["metrics"]) == list(first["metrics"])


@pytest.fixture(scope="module")
def tiny_rounds():
    rounds = {}
    for name in ("serve", "fleet", "replay"):
        workload = workloads.WORKLOADS[name]
        inputs = workloads.build_inputs(workload, 1, workloads.TINY)
        totals = checks.trace_totals(inputs.trace)
        rounds[name] = (workload, totals, workloads.run_round(inputs))
    return rounds


def problems_of(tiny_rounds, name, corrupt):
    workload, totals, sessions = tiny_rounds[name]
    result = copy.deepcopy(sessions[-1].result)
    corrupt(result)
    return checks.check_session(workload, result, totals)


def test_clean_sessions_pass_every_check(tiny_rounds):
    for workload, totals, sessions in tiny_rounds.values():
        for session in sessions:
            assert checks.check_session(workload, session.result, totals) == []


def test_a_lost_lookup_trips_the_count_check(tiny_rounds):
    def corrupt(result):
        result.lookups -= 1

    assert problems_of(tiny_rounds, "replay", corrupt)


def test_shards_that_do_not_sum_to_the_trace_trip_the_check(tiny_rounds):
    def corrupt(result):
        result.per_shard[0].requests += 1

    assert problems_of(tiny_rounds, "fleet", corrupt)


def test_a_request_started_before_dispatch_trips_the_order_check(tiny_rounds):
    def corrupt(result):
        record = result.records[0]
        result.records[0] = replace(record, start_ns=record.dispatch_ns - 1)

    assert problems_of(tiny_rounds, "serve", corrupt)


def test_non_monotone_percentiles_trip_the_check(tiny_rounds):
    def corrupt(result):
        result.latency = replace(result.latency, p99_ns=result.latency.p999_ns + 1)

    assert problems_of(tiny_rounds, "serve", corrupt)


def test_a_wrong_offered_load_trips_the_check(tiny_rounds):
    _, _, sessions = tiny_rounds["serve"]
    records = sessions[0].result.records
    assert checks.check_offered_load(records, 1e6) == []
    assert checks.check_offered_load(records, 3e6)


def test_a_changed_result_counts_as_a_failed_session(tiny_rounds):
    workload, totals, sessions = tiny_rounds["replay"]
    ledger = bench.Ledger(workload, totals)
    ledger.run(lambda: sessions)
    changed = copy.deepcopy(sessions)
    changed[0].result.total_ns += 1.0
    ledger.run(lambda: changed)
    assert (ledger.attempted, ledger.failed) == (6, 1)
