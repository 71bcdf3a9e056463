"""Tests for the seeded fault injector."""

import zlib
from itertools import repeat

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultKind
from repro.obs import REGISTRY
from tests.conftest import ScriptedInjector


class TestFaultPlan:
    """When faults fire: one rate in ``[0, 1]`` for every kind, and one
    seeded stream per kind, both held by the injector."""

    def test_rate_for_uses_base_rate(self):
        """Every kind fires at the one rate, and the ``n``-th check of a
        kind sees the ``n``-th draw of ``default_rng([seed, crc32(kind)])``
        (the derivation seeded chaos runs replay)."""
        injector = FaultInjector(rate=0.25, seed=17)
        for kind in FaultKind:
            draws = np.random.default_rng(
                [17, zlib.crc32(kind.value.encode("ascii"))]).random(32)
            assert [injector.should_fire(kind) for _ in range(32)] == [
                bool(d < 0.25) for d in draws]

    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_invalid_rates_rejected(self, bad):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            FaultInjector(rate=bad)

    def test_streams_are_deterministic(self):
        a = FaultInjector(rate=0.5, seed=17)._streams[FaultKind.SESSION]
        b = FaultInjector(rate=0.5, seed=17)._streams[FaultKind.SESSION]
        assert list(a.random(8)) == list(b.random(8))

    def test_streams_are_independent_across_kinds(self):
        streams = FaultInjector(rate=0.5, seed=17)._streams
        assert list(streams[FaultKind.SESSION].random(8)) != list(
            streams[FaultKind.VERIFICATION].random(8))


class TestFaultInjector:
    def test_zero_rate_never_fires_and_draws_nothing(self):
        injector = FaultInjector(rate=0.0, seed=1)
        for _ in range(50):
            assert not injector.should_fire(FaultKind.SESSION)
        # rate 0 short-circuits before touching the stream, so attaching a
        # default injector perturbs no RNG state anywhere.
        fresh = FaultInjector(rate=0.0, seed=1)
        assert list(injector._streams[FaultKind.SESSION].random(4)) == list(
            fresh._streams[FaultKind.SESSION].random(4))
        assert injector.total_injected == 0
        assert injector.checks[FaultKind.SESSION] == 50

    def test_rate_one_always_fires(self):
        injector = FaultInjector(rate=1.0, seed=1)
        assert all(injector.should_fire(FaultKind.KV_PRESSURE)
                   for _ in range(10))
        assert injector.injected[FaultKind.KV_PRESSURE] == 10

    def test_same_seed_same_decisions(self):
        a = FaultInjector(rate=0.3, seed=5)
        b = FaultInjector(rate=0.3, seed=5)
        seq_a = [a.should_fire(FaultKind.SESSION) for _ in range(64)]
        seq_b = [b.should_fire(FaultKind.SESSION) for _ in range(64)]
        assert seq_a == seq_b
        assert any(seq_a) and not all(seq_a)

    def test_decisions_independent_across_kinds(self):
        """Draining one kind's stream never shifts another's decisions."""
        a = FaultInjector(rate=0.3, seed=5)
        for _ in range(100):
            a.should_fire(FaultKind.SPECULATION)
        after_drain = [a.should_fire(FaultKind.SESSION) for _ in range(32)]
        b = FaultInjector(rate=0.3, seed=5)
        fresh = [b.should_fire(FaultKind.SESSION) for _ in range(32)]
        assert after_drain == fresh

    def test_metrics_count_checks_and_injections(self):
        REGISTRY.reset()
        injector = ScriptedInjector({FaultKind.SESSION: repeat(1)})
        injector.should_fire(FaultKind.SESSION)
        injector.should_fire(FaultKind.SPECULATION)
        assert REGISTRY.get("repro.faults.checks").value == 2
        assert REGISTRY.get("repro.faults.injected").value == 1
        assert REGISTRY.get("repro.faults.session").value == 1
        assert REGISTRY.get("repro.faults.speculation").value == 0
