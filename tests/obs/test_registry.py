"""Unit suite for the metrics registry (counters, gauges, histograms)."""

import pytest

from repro.obs.registry import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestNaming:
    def test_layered_names_accepted(self, registry):
        registry.counter("repro.engine.ticks")
        registry.gauge("repro.serving.running")
        registry.histogram("repro.engine.tick.host_seconds")
        assert len(registry) == 3

    @pytest.mark.parametrize("bad", [
        "ticks",                # no layer
        "repro.Engine.ticks",   # uppercase
        "repro..ticks",         # empty segment
        "1repro.engine.ticks",  # leading digit
        "repro.engine.ticks.",  # trailing dot
    ])
    def test_malformed_names_rejected(self, registry, bad):
        with pytest.raises(ValueError, match="convention"):
            registry.counter(bad)


class TestCounter:
    def test_accumulates(self, registry):
        c = registry.counter("repro.t.hits")
        c.inc()
        c.inc(41)
        assert c.value == 42

    def test_rejects_negative(self, registry):
        c = registry.counter("repro.t.hits")
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1)

    def test_interned(self, registry):
        assert registry.counter("repro.t.hits") is \
            registry.counter("repro.t.hits")

    def test_kind_mismatch_fails_loudly(self, registry):
        registry.counter("repro.t.hits")
        with pytest.raises(TypeError, match="is a counter"):
            registry.gauge("repro.t.hits")


class TestGauge:
    def test_set_add(self, registry):
        g = registry.gauge("repro.t.depth")
        g.set(10)
        g.add(-3)
        assert g.value == 7

    def test_set_max_is_high_water(self, registry):
        g = registry.gauge("repro.t.high_water")
        for v in (5, 12, 3, 12, 9):
            g.set_max(v)
        assert g.value == 12


class TestHistogramBucketEdges:
    """le-semantics: an observation lands in the first bucket with
    ``value <= bound``; above the last bound is the overflow slot."""

    def test_exact_bound_lands_in_that_bucket(self, registry):
        h = registry.histogram("repro.t.sizes", buckets=(1, 2, 4))
        h.observe(2)
        assert h.counts == [0, 1, 0, 0]

    def test_between_bounds_rounds_up(self, registry):
        h = registry.histogram("repro.t.sizes", buckets=(1, 2, 4))
        h.observe(3)
        assert h.counts == [0, 0, 1, 0]

    def test_above_last_bound_overflows(self, registry):
        h = registry.histogram("repro.t.sizes", buckets=(1, 2, 4))
        h.observe(4.0001)
        h.observe(1e9)
        assert h.counts == [0, 0, 0, 2]

    def test_sum_count_mean(self, registry):
        h = registry.histogram("repro.t.sizes", buckets=(1, 2, 4))
        for v in (1, 2, 3):
            h.observe(v)
        assert h.count == 3
        assert h.total == 6.0
        assert h.mean == 2.0

    def test_empty_mean_is_zero(self, registry):
        assert registry.histogram("repro.t.sizes", buckets=(1,)).mean == 0.0

    def test_buckets_fixed_at_registration(self, registry):
        registry.histogram("repro.t.sizes", buckets=(1, 2, 4))
        with pytest.raises(ValueError, match="already registered"):
            registry.histogram("repro.t.sizes", buckets=(1, 2, 8))
        # Same bounds (or omitting them) returns the interned object.
        h = registry.histogram("repro.t.sizes", buckets=(1, 2, 4))
        assert h.bounds == (1.0, 2.0, 4.0)

    def test_unsorted_bounds_rejected(self, registry):
        with pytest.raises(ValueError, match="strictly increasing"):
            registry.histogram("repro.t.sizes", buckets=(4, 2, 1))
        with pytest.raises(ValueError, match="strictly increasing"):
            registry.histogram("repro.t.dups", buckets=(1, 1, 2))

    def test_default_bucket_families(self, registry):
        time_h = registry.histogram("repro.t.host_seconds")
        count_h = registry.histogram("repro.t.tokens",
                                     buckets=DEFAULT_COUNT_BUCKETS)
        assert time_h.bounds == DEFAULT_TIME_BUCKETS
        assert count_h.bounds == tuple(float(b)
                                       for b in DEFAULT_COUNT_BUCKETS)


class TestSnapshotDeltaReset:
    def _populate(self, registry):
        registry.counter("repro.t.hits").inc(10)
        registry.gauge("repro.t.depth").set(4)
        h = registry.histogram("repro.t.sizes", buckets=(1, 2))
        h.observe(1)
        h.observe(2)

    def test_snapshot_is_a_copy(self, registry):
        self._populate(registry)
        snap = registry.snapshot()
        registry.counter("repro.t.hits").inc(5)
        assert snap["repro.t.hits"]["value"] == 10

    def test_delta_subtracts_counters_and_histograms(self, registry):
        self._populate(registry)
        snap = registry.snapshot()
        registry.counter("repro.t.hits").inc(7)
        registry.gauge("repro.t.depth").set(99)
        registry.histogram("repro.t.sizes").observe(2)
        delta = registry.delta(snap)
        assert delta["repro.t.hits"]["value"] == 7
        # Gauges are point-in-time: delta carries the current value.
        assert delta["repro.t.depth"]["value"] == 99
        assert delta["repro.t.sizes"]["count"] == 1
        assert delta["repro.t.sizes"]["counts"] == [0, 1, 0]
        assert delta["repro.t.sizes"]["sum"] == 2.0

    def test_delta_treats_new_metrics_as_from_zero(self, registry):
        snap = registry.snapshot()
        registry.counter("repro.t.hits").inc(3)
        assert registry.delta(snap)["repro.t.hits"]["value"] == 3

    def test_reset_zeroes_in_place(self, registry):
        self._populate(registry)
        c = registry.counter("repro.t.hits")
        h = registry.histogram("repro.t.sizes")
        registry.reset()
        # The interned references survive reset and keep accumulating.
        assert c.value == 0
        assert h.count == 0 and h.counts == [0, 0, 0]
        c.inc()
        assert registry.counter("repro.t.hits").value == 1

    def test_to_json_is_deterministic(self, registry):
        self._populate(registry)
        assert registry.to_json() == registry.to_json()


class TestThreadSafetyContract:
    """The registry is deliberately not thread-safe; the contract is the
    docstring (single-threaded decode loop, no locks on the hot path).
    Keep the warning where the next reader will see it."""

    def test_unsafety_is_documented(self):
        import repro.obs.registry as module

        assert "not thread-safe" in module.__doc__
        assert "not thread-safe" in MetricsRegistry.__doc__.lower()

    def test_no_locks_in_metric_classes(self):
        # A lock acquire per counter-inc would dwarf the accounting itself;
        # the classes stay plain-attribute on purpose.
        import inspect

        for cls in (Counter, Gauge, Histogram):
            assert "Lock" not in inspect.getsource(cls)
