"""Inputs are a pure function of the seed; the metric lists match
BENCHMARK.json."""

import json
import os

import pytest

import run
from workloads import PLANS, REGIONS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


@pytest.mark.parametrize("workload", sorted(PLANS))
def test_same_seed_gives_identical_inputs(workload):
    plan = PLANS[workload]
    assert plan(7) == plan(7)
    assert plan(7) != plan(8)


def test_movr_inputs_follow_the_stated_mix_and_locality():
    from repro.workloads.movr import CITY_REGIONS
    from workloads import MOVR_REMOTE_SHARE

    clients = PLANS["movr"](3)
    assert len(clients) == 2 * len(REGIONS)
    inserts = remote = 0
    names = {}
    for client in clients:
        for name, sql, _expected in client["ops"]:
            names[name] = names.get(name, 0) + 1
            if name == "user_insert":
                inserts += 1
                city = sql.split("'")[1]
                remote += CITY_REGIONS[city] != client["region"]
    total = sum(names.values())
    assert 0.40 < names["promo_read"] / total < 0.50
    assert 0.03 < names["promo_write"] / total < 0.07
    assert abs(remote / inserts - MOVR_REMOTE_SHARE) < 0.05
    statements = {sql for c in clients for _n, sql, _e in c["ops"]}
    assert len(statements) > 4096 // 10


def test_kv_arrivals_are_poisson_at_the_stated_rate():
    from workloads import KV_RATE_PER_REGION, KV_WINDOW_MS

    plan = PLANS["kv-failover"](5)
    assert 0.4 * KV_WINDOW_MS <= plan["crash_ms"] <= 0.6 * KV_WINDOW_MS
    for region in REGIONS:
        n = len(plan["arrivals"][region])
        expected = KV_RATE_PER_REGION * KV_WINDOW_MS / 1000.0
        assert abs(n - expected) < 4 * expected ** 0.5


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == run.PER_LAYER
