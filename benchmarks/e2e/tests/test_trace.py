"""The span recorder: self-time arithmetic, and wrappers that come off."""

import time

import pytest

from benchmarks.e2e.trace import Profile, TracePoint, Tracer


class _Layers:
    """Three nested 'layers' that only burn time."""

    def outer(self):
        time.sleep(0.004)
        for _ in range(3):
            self.middle()

    def middle(self):
        time.sleep(0.002)
        self.inner()
        self.inner()

    def inner(self):
        time.sleep(0.001)


def _points():
    return [TracePoint(_Layers, name, f"layer.{name}")
            for name in ("outer", "middle", "inner")]


def test_self_times_sum_to_the_root_within_one_percent():
    tracer = Tracer()
    with tracer.installed(_points()):
        with tracer.span("run"):
            layers = _Layers()
            layers.outer()
            layers.outer()
    profile = Profile(tracer.spans)
    root = tracer.spans[0]
    wall = root[2] - root[1]
    assert profile.total_self() == pytest.approx(wall, rel=0.01)
    # Each layer's self time is its sleep, not its children's.
    assert profile.self_s["layer.inner"] >= 12 * 0.001
    assert profile.self_s["layer.middle"] >= 6 * 0.002
    assert profile.self_s["layer.middle"] < profile.busy(["layer.middle"])
    assert profile.calls == {"run": 1, "layer.outer": 2, "layer.middle": 6,
                             "layer.inner": 12}


def test_busy_counts_outermost_spans_once():
    spans = [
        ["run", 0.0, 10.0, -1],
        ["a", 1.0, 5.0, 0],
        ["a", 2.0, 3.0, 1],      # nested in another "a": not counted twice
        ["b", 3.0, 4.0, 1],
        ["b", 6.0, 8.0, 0],
    ]
    profile = Profile(spans)
    assert profile.busy(["a"]) == 4.0
    assert profile.busy(["b"]) == 3.0
    assert profile.busy(["b"], not_under=["a"]) == 2.0
    assert profile.busy(["b"], under=["a"]) == 1.0
    assert profile.busy(["b"], under=["missing"]) == 0.0
    assert profile.busy(["a", "b"]) == 6.0
    assert profile.self_s["a"] == pytest.approx(3.0)   # (4-1-1) + 1
    assert profile.self_s["run"] == pytest.approx(4.0)
    assert profile.total_self() == pytest.approx(10.0)


def test_counters_are_fed_where_the_work_happens():
    tracer = Tracer()

    def count(counts, name, args, kwargs, result):
        counts[name + ".calls"] += 1

    with tracer.installed([TracePoint(_Layers, "inner", "layer.inner",
                                      count)]):
        _Layers().middle()
    assert tracer.counts["layer.inner.calls"] == 2


def test_wrappers_are_removed_even_when_the_pass_raises():
    originals = {name: vars(_Layers)[name]
                 for name in ("outer", "middle", "inner")}
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(_points()):
            assert vars(_Layers)["inner"] is not originals["inner"]
            raise RuntimeError("boom")
    for name, original in originals.items():
        assert vars(_Layers)[name] is original


def test_program_wrappers_are_fully_restored_after_a_traced_pass():
    from benchmarks.e2e import stack

    stack.ensure_models()
    built = stack.Stack("spec")
    points = stack.trace_points(built)
    before = [vars(p.owner)[p.attr] for p in points]
    tracer = Tracer()
    with tracer.installed(points):
        assert all(vars(p.owner)[p.attr] is not b
                   for p, b in zip(points, before))
        built.manager.submit([5, 6, 7, 8], stack.generation_config(4, False, 0))
        built.manager.run_until_complete()
    assert [vars(p.owner)[p.attr] for p in points] == before
    names = {span[0] for span in tracer.spans}
    assert {"manager.session", "pipeline.tick", "verify.fused",
            "model.llm.forward", "model.ssm.forward", "op.linear"} <= names
