"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q clibench
"""

from __future__ import annotations

import json
import os

import pytest

import run
from check import check_result, matches
from exact import g_combination
from record import reference_path
from workloads import FIXED, GOLDEN_QUERY, PASS_SLOTS, WORKLOADS, Query, pass_queries, query_pool

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("n, expected_rank, percentile", [
    (5, 5, 100.0),      # no percentile has ten samples beyond it: the largest
    (10, 10, 100.0),
    (20, 10, 50.0),     # rank 10 leaves exactly ten beyond
    (40, 30, 75.0),     # the guaranteed query-mix count
    (100, 90, 90.0),
    (168, 152, 90.0),   # p95 would leave only eight beyond
    (1000, 990, 99.0),
])
def test_tail_percentile_leaves_ten_samples_beyond(n, expected_rank, percentile):
    samples = [float(i) for i in range(n, 0, -1)]
    q = run.tail_percentile(n)
    value = run.nearest_rank(samples, q)
    assert (value, q) == (float(expected_rank), percentile)
    assert q == 100.0 or sum(s > value for s in samples) >= 10


def test_tail_percentile_is_fixed_by_the_guaranteed_passes():
    # However many passes fit, query-mix reports the percentile its minimum allows.
    guaranteed = run.MIN_PASSES["query-mix"] * len(PASS_SLOTS)
    assert run.tail_percentile(guaranteed) == 75.0
    for workload in WORKLOADS:
        if workload not in run.MIN_PASSES:
            assert run.tail_percentile(len(FIXED[workload])) == 100.0


def test_query_mix_has_one_slot_per_query_kind():
    pool = query_pool()
    assert len(PASS_SLOTS) == len(set(PASS_SLOTS)) == len(pool)
    precisions = {int(q.args[4]) for q in pool["expand-phi"]}
    assert precisions == set(range(8, 25))
    primes = [q.args[2] for q in pool["check-integrality"]]
    assert primes.count("2") == primes.count("3") == primes.count("5")


def test_matches_ignores_added_named_keys():
    reference = {"pass": True, "checks": [{"name": "margolis", "pass": True}]}
    output = {"pass": True, "checks": [{"name": "margolis", "pass": True, "timings": 1.5}],
              "skipped": []}
    assert matches(reference, output)


@pytest.mark.parametrize("output", [
    {"pass": False, "checks": [{"name": "margolis", "pass": True}]},
    {"pass": True, "checks": [{"name": "margolis", "pass": 1}]},
    {"pass": True, "checks": []},
    {"checks": [{"name": "margolis", "pass": True}]},
])
def test_matches_rejects_changed_or_missing_values(output):
    reference = {"pass": True, "checks": [{"name": "margolis", "pass": True}]}
    assert not matches(reference, output)


def test_matches_rejects_an_added_coordinate():
    assert not matches({"0": "1", "2": "8"}, {"0": "1", "2": "8", "5": "1"})


def _g_query():
    return Query(("expand", "--basis", "g", "w"), g_combination({0: 1, 1: 2}))


def test_check_result_accepts_the_reference():
    payload = {"0": "1", "1": "2"}
    reference = {"exit": 0, "payload": payload}
    assert check_result(_g_query(), 0, json.dumps(payload).encode(), reference, None) is None


def test_nonzero_exit_is_a_failure():
    payload = {"0": "1", "1": "2"}
    reference = {"exit": 0, "payload": payload}
    reason = check_result(_g_query(), 1, json.dumps(payload).encode(), reference, None)
    assert reason and "exit code" in reason


def test_changed_payload_value_is_a_failure():
    reference = {"exit": 0, "payload": {"0": "1", "1": "2"}}
    output = json.dumps({"0": "1", "1": "3"}).encode()
    assert check_result(_g_query(), 0, output, reference, None) == \
        "payload differs from the reference"


def test_identity_catches_a_payload_the_reference_would_miss():
    # A reference recorded from a wrong program would match; the recombination does not.
    wrong = {"0": "1", "1": "3"}
    reference = {"exit": 0, "payload": wrong}
    assert check_result(_g_query(), 0, json.dumps(wrong).encode(), reference, None) == \
        "exact identity fails"


def test_query_mix_is_seeded():
    pool = query_pool()
    assert pass_queries("query-mix", 7, 3, pool) == pass_queries("query-mix", 7, 3, pool)
    assert pass_queries("query-mix", 7, 3, pool) != pass_queries("query-mix", 8, 3, pool)
    assert len(pass_queries("query-mix", 7, 3, pool)) == len(PASS_SLOTS)


def test_every_pool_query_has_a_reference():
    with open(reference_path("query-mix"), encoding="utf-8") as handle:
        references = json.load(handle)
    assert {q.key for variants in query_pool().values() for q in variants} == set(references)
    assert GOLDEN_QUERY.key in references


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_client_counts_a_changed_payload(monkeypatch):
    monkeypatch.chdir(ROOT)
    client = run.Client("query-mix", seed=1)
    client.references[GOLDEN_QUERY.key]["payload"]["M"] = 11
    golden_runs = sum(q == GOLDEN_QUERY for q in pass_queries("query-mix", 1, 0, client.pool))
    client.run_pass(0)
    assert client.attempted == len(PASS_SLOTS)
    assert len(client.failures) == golden_runs == 1
    assert "reference" in client.failures[0]
