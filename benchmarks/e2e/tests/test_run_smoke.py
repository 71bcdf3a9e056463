"""The run command end to end, at a smoke size of one second per pass."""

import json
import subprocess
from pathlib import Path

import numpy as np
import pytest

from benchmarks.e2e import metrics, run, stack, workloads

ROOT = Path(__file__).resolve().parents[3]
SMOKE_SECONDS = 1.0


@pytest.fixture(scope="module", autouse=True)
def _models():
    stack.ensure_models()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_pass_reports_every_end_to_end_metric(name):
    record = run.run_workload(name, seed=3, seconds=SMOKE_SECONDS,
                              trace=False)
    assert record["correct"] and record["failed"] == 0
    assert record["attempted"] >= 1
    assert set(record["metrics"]) == set(metrics.END_TO_END)
    for metric, entry in record["metrics"].items():
        assert entry["value"] > 0, metric
        assert entry["unit"] == metrics.END_TO_END[metric][0]


@pytest.mark.parametrize("name", ["offline_greedy", "online_mix"])
def test_traced_pass_reports_every_layer_and_explains_the_wall(name, tmp_path):
    spans = tmp_path / "spans.json"
    record = run.run_workload(name, seed=3, seconds=SMOKE_SECONDS,
                              trace=True, trace_out=str(spans))
    assert record["correct"]
    assert set(record["metrics"]) == set(metrics.PER_LAYER)
    values = {k: v["value"] for k, v in record["metrics"].items()}
    # Layer self times cover the time somebody was waiting, within 5%.
    assert values["host.trace_coverage"] > 0.95
    assert values["verify.busy_s"] > 0 and values["model.llm.forward_calls"] > 0
    assert values["speculate.nodes_per_tree"] == 21
    if name == "online_mix":
        assert values["serving.gateway.ticks"] > 0
        assert values["loadgen.refused"] == 0
    dumped = json.loads(spans.read_text())
    assert dumped["spans"][0][0] == "run"


def test_same_seed_same_digest():
    a = run.run_workload("offline_stoch", 5, SMOKE_SECONDS, trace=False)
    b = run.run_workload("offline_stoch", 5, SMOKE_SECONDS, trace=False)
    c = run.run_workload("offline_stoch", 6, SMOKE_SECONDS, trace=False)
    assert a["digest"] == b["digest"] != c["digest"]


def test_a_wrong_token_is_caught_and_named():
    built = stack.Stack("incr")
    prompt = stack.prompt_sampler()(16, np.random.default_rng(1))
    built.manager.submit(prompt, stack.generation_config(12, False, 0))
    tokens = built.manager.run_until_complete()[0].tokens
    assert stack.greedy_mismatch(built.llm, prompt, tokens) is None
    tokens[5] = (tokens[5] + 1) % stack.VOCAB
    assert stack.greedy_mismatch(built.llm, prompt, tokens) == 5


def test_command_line_prints_one_json_object_last():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        spec["command"] + ["--workload", "offline_incr", "--seed", "2",
                           "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == set(metrics.END_TO_END)


def test_command_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, exit non-zero, print no
    result."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".cache", "__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        spec["command"] + ["--workload", "offline_incr", "--seed", "2",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
