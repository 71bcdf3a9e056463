"""Metric definitions, the percentile rule, and BENCHMARK.json's schema."""

import json
import re
from pathlib import Path

import pytest

from benchmarks.e2e import metrics, workloads
from benchmarks.e2e.loadgen import Record, Run
from benchmarks.e2e.workloads import WorkItem

ROOT = Path(__file__).resolve().parents[3]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_percentile_interpolates():
    assert metrics.percentile([], 50) == 0.0
    assert metrics.percentile([7.0], 99) == 7.0
    assert metrics.percentile([1, 2, 3, 4], 50) == 2.5
    assert metrics.percentile(list(range(101)), 90) == 90


@pytest.mark.parametrize("count,expected", [
    (5, 50), (39, 50), (40, 75), (99, 75), (100, 90), (199, 90),
    (200, 95), (999, 95), (1000, 99),
])
def test_highest_percentile_keeps_ten_samples_beyond_it(count, expected):
    assert metrics.supported_percentile(count) == expected


def _record(due, burst_times, per_burst=2):
    record = Record(item=WorkItem(0, [1], per_burst * len(burst_times)),
                    due=due, sent=due)
    for t in burst_times:
        record.add_tokens(t, [3] * per_burst)
    record.done = burst_times[-1]
    record.outcome = "completed"
    return record


def test_latency_definitions():
    record = _record(1.0, [1.5, 1.6, 1.8])
    assert metrics.ttft_ms(record) == pytest.approx(500.0)
    # 6 tokens: (1.8 - 1.5) / 5 per token.
    assert metrics.tpot_ms(record) == pytest.approx(60.0)
    assert metrics.gaps_ms(record) == pytest.approx([100.0, 200.0])
    run = Run([record], wall_s=2.0, window_tokens=6)
    values = metrics.end_to_end(run, [record], setup_s=0.25,
                                setup_factor=1.25)
    assert set(values) == set(metrics.END_TO_END)
    assert values["tok_per_s"] == pytest.approx(3.0)
    assert values["setup_s"] == pytest.approx(0.2)


def test_tokens_read_together_are_one_burst():
    record = Record(item=WorkItem(0, [1], 3), due=0.0)
    record.add_tokens(1.0, [4])
    record.add_tokens(1.0002, [5])
    record.add_tokens(1.1, [6])
    assert record.bursts == [(1.0, 2), (1.1, 1)]
    assert record.indices == [0, 1, 2]


def test_idle_time_is_the_window_nobody_waited_in():
    a = _record(1.0, [2.0])
    b = _record(1.5, [3.0])
    c = _record(5.0, [6.0])
    run = Run([a, b, c], wall_s=8.0, window_tokens=6)
    assert metrics.idle_seconds(run) == pytest.approx(1.0 + 2.0 + 2.0)


def test_benchmark_json_matches_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in SPEC["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in SPEC["per_layer"]} == metrics.PER_LAYER


def test_names_units_and_bounds_are_inside_the_contract():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.match(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT_RE.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert sum(b == bounds["setup_s"] for b in bounds.values()) == 1
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
    for word in SPEC["command"]:
        assert not word.startswith("/") and ".." not in word
