"""Tests for the command-line interface."""

import json
from types import SimpleNamespace

import pytest

from repro.cli import _print_serve_report, build_parser, main
from repro.serving.request import RequestOutput


def exit_code(argv):
    """``main(argv)``'s exit code, whether returned or raised by argparse."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize("argv", [
        ["sweep", "--model", "nope"],
        ["sweep", "--ssm", "nope"],
        ["metrics", "--requests", "0"],
        ["serve", "--requests", "0"],
        ["serve", "--dataset", "nope"],
        ["loadgen", "--dataset", "nope"],
        ["chaos", "Alpaca", "--fault-rate", "1.5"],
        ["loadgen", "--fault-rate", "2"],
        ["tree", "--widths", "0"],
        ["demo", "--tokens", "0"],
        ["latency", "--tp", "0"],
        ["sweep", "--alpha", "1.5"],
        *([verb, "--seed", "-1"] for verb in (
            "demo", "tree", "serve", "metrics", "loadgen")),
        ["trace", "Alpaca", "--seed", "-1"],
        ["chaos", "Alpaca", "--seed", "-1"],
        ["chat", "--local", "--seed", "-1"],
        ["loadgen", "--rate-limit", "0"],
        ["loadgen", "--queue-depth", "0"],
        ["sweep", "--max-depth", "0"],
        ["latency", "--batch", "0"],
        ["latency", "--tree-tokens", "0"],
        ["serve", "--listen", "nonsense"],
        ["chat", "--connect", "nonsense"],
        ["serve", "--alignment", "1.5"],
        ["serve", "--alignment", "-1"],
        ["demo", "--alignment", "1.5"],
        ["latency", "--model", "nope"],
        ["latency", "--context", "-5"],
        ["latency", "--tokens-per-step", "-1"],
        ["latency", "--tp", "3"],
        ["chat", "--local", "--prompt", "abc"],
        ["loadgen", "--tenants", "a", "a", "--clients", "4"],
    ])
    def test_bad_workload_is_a_usage_error(self, argv, capsys):
        """An invalid workload or verb argument exits 2 with a message, not
        a traceback."""
        assert exit_code(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines()[-1].startswith(
            f"repro {argv[0]}")

    @pytest.mark.parametrize("argv", [
        ["serve", "--pool", "3"],
        ["trace", "Alpaca", "--router", "ucb"],
    ])
    def test_pool_and_router_flags_are_unknown(self, argv, capsys):
        """Several SSMs are served only as one merge-based speculator;
        there is no per-request routing to configure."""
        assert exit_code(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestDemo:
    def test_runs_and_is_lossless(self, capsys):
        code = main(["demo", "--tokens", "12", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "outputs identical: True" in out
        assert "tree-based SpecInfer" in out


class TestTree:
    def test_renders_tree(self, capsys):
        code = main(["tree", "--widths", "2", "2", "--seed", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "tree:" in out
        assert "accepted" in out
        assert "`--" in out


class TestServe:
    def test_serving_report(self, capsys):
        code = main([
            "serve", "--requests", "4", "--tokens", "6", "--batch", "2",
            "--rate", "1.0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines() == [
            "requests           : 4",
            "iterations         : 7",
            "tokens generated   : 24",
            "tokens/iteration   : 3.43",
            "mean TTFT (iters)  : 1.25",
            "p95 completion     : 3.70",
            "batch occupancy    : 1.43 / 2",
        ]

    def test_planner(self, capsys):
        code = main(["serve", "--planner", "--requests", "2",
                     "--tokens", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "tokens generated   : 8" in out

    @pytest.mark.gateway
    def test_listen_serves_through_the_gateway(self, capsys):
        code = main(["serve", "--listen", "127.0.0.1:0", "--requests", "2",
                     "--tokens", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "gateway listening on 127.0.0.1:" in out
        assert "tokens streamed    : 4" in out


def _report(capsys, outputs, batch_sizes, batch=2):
    """``serve``'s report over hand-built outputs and an iteration log of
    ``batch_sizes``, as ``{label: value}``."""
    manager = SimpleNamespace(
        finished_outputs=lambda: outputs,
        iteration_stats=[SimpleNamespace(batch_size=b) for b in batch_sizes])
    _print_serve_report(manager, batch)
    lines = capsys.readouterr().out.splitlines()
    return {label.strip(): value
            for label, value in (line.split(" : ") for line in lines)}


def _output(rid, arrival, first, finish, tokens):
    return RequestOutput(request_id=rid, arrival_iteration=arrival,
                         tokens=list(range(tokens)),
                         first_token_iteration=first,
                         finish_iteration=finish)


class TestServeReport:
    """The report's arithmetic, read off the outputs and the log alone."""

    def test_report_reads_latency_off_the_outputs(self, capsys):
        # Arrived at 1, first token at 2 (TTFT counts that iteration),
        # finished at 6.
        report = _report(capsys, [_output(0, 1, 2, 6, 4)], [1] * 7)
        assert report["mean TTFT (iters)"] == "2.00"
        assert report["p95 completion"] == "5.00"

    def test_report_aggregates_the_iteration_log(self, capsys):
        outputs = [_output(0, 0, 0, 4, 4), _output(1, 0, 1, 9, 8)]
        report = _report(capsys, outputs, [2] * 9 + [0])
        assert report["requests"] == "2"
        assert report["iterations"] == "10"
        assert report["tokens generated"] == "12"
        assert report["tokens/iteration"] == "1.20"
        # Idle iterations count toward the clock, not the occupancy.
        assert report["batch occupancy"] == "2.00 / 2"

    def test_report_of_no_finished_request_prints_nan(self, capsys):
        report = _report(capsys, [], [1, 1])
        assert report["requests"] == "0"
        assert report["mean TTFT (iters)"] == "nan"
        assert report["p95 completion"] == "nan"


@pytest.mark.gateway
class TestChat:
    def test_local_chat_streams_every_token(self, capsys):
        code = main(["chat", "--local", "--prompt", "5 17 33",
                     "--tokens", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "prompt : 5 17 33" in out
        assert "done   : 4 tokens" in out

    def test_needs_an_endpoint(self, capsys):
        assert main(["chat"]) == 2
        assert "need --connect" in capsys.readouterr().err


@pytest.mark.gateway
class TestLoadgen:
    def test_small_run_completes(self, capsys):
        code = main(["loadgen", "--clients", "4", "--requests-per-client",
                     "1", "--tokens", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "completed          : 4" in out
        assert "tokens streamed    : 8" in out


class TestModels:
    def test_lists_all_paper_models(self, capsys):
        code = main(["models"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("llama-7b", "opt-30b", "llama-65b", "llama-68m"):
            assert name in out
        assert "tp=4 pp=2" in out  # llama-65b placement


class TestSweep:
    def test_depth_sweep_output(self, capsys):
        code = main(["sweep", "--alpha", "0.7", "--max-depth", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "depth  1:" in out
        assert "<- best" in out

    def test_sweep_multi_node_model(self, capsys):
        code = main(["sweep", "--model", "llama-65b", "--max-depth", "4"])
        assert code == 0


class TestLatency:
    def test_latency_query(self, capsys):
        code = main([
            "latency", "--model", "llama-7b", "--tree-tokens", "10",
            "--tokens-per-step", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "step latency" in out
        assert "ms" in out

    def test_multi_node_query(self, capsys):
        code = main(["latency", "--model", "llama-65b", "--tp", "4",
                     "--pp", "2"])
        assert code == 0


class TestTrace:
    def test_trace_to_file_is_deterministic(self, capsys, tmp_path):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        argv = ["trace", "Alpaca", "--requests", "2", "--tokens", "4",
                "--seed", "3"]
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        out = capsys.readouterr().out
        assert "trace records" in out
        assert first.read_bytes() == second.read_bytes()
        lines = first.read_text().splitlines()
        names = {json.loads(line)["name"] for line in lines}
        for phase in ("speculate", "fit", "verify", "commit"):
            assert f"repro.engine.{phase}" in names

    def test_trace_to_stdout(self, capsys):
        code = main(["trace", "Alpaca", "--requests", "1", "--tokens", "2"])
        out = capsys.readouterr().out
        assert code == 0
        line = out.splitlines()[0]
        record = json.loads(line)
        assert record["kind"] in ("span", "event")


class TestMetrics:
    def test_text_table(self, capsys):
        code = main(["metrics", "--requests", "2", "--tokens", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "repro.engine.ticks" in out
        assert "repro.serving.retired" in out
        assert "histogram" in out

    def test_json_snapshot(self, capsys):
        code = main(["metrics", "--requests", "2", "--tokens", "4",
                     "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        snapshot = json.loads(out)
        assert snapshot["repro.serving.retired"]["value"] == 2
        assert snapshot["repro.engine.tick.host_seconds"]["count"] > 0


@pytest.mark.chaos
class TestChaos:
    def test_survives_and_exits_zero(self, capsys):
        code = main(["chaos", "Alpaca", "--requests", "4", "--tokens", "8",
                     "--seed", "11", "--fault-rate", "0.3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "token parity        : True" in out
        assert "survived            : True" in out
        assert "faults injected" in out
        assert "preemptions" in out

    def test_zero_rate_reports_no_faults(self, capsys):
        code = main(["chaos", "Alpaca", "--requests", "2", "--tokens", "4",
                     "--fault-rate", "0.0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "faults injected     : 0" in out
