"""Tests for the KV cache: a row range of a ``BatchArena`` (slab allocation,
zero-copy layer views, append/truncate/compaction, request lifecycle).

Both layouts are covered: a private range (``TransformerLM.new_cache``, the
whole of its own arena) and a slot of an arena a batch shares."""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.generation import GenerationConfig
from repro.model import attention
from repro.model.coupled import CoupledSSM
from repro.model.kv_cache import BatchArena, LayerKV
from repro.obs import REGISTRY, reset_observability
from repro.serving.manager import RequestManager
from repro.serving.session import IncrementalSession, SpeculativeSession
from repro.speculate.expansion import ExpansionConfig
from repro.speculate.speculator import Speculator
from tests.conftest import SMALL_CONFIG, make_prompt


def make_arena(capacity=0, max_requests=4):
    return BatchArena(SMALL_CONFIG, capacity=capacity,
                      max_requests=max_requests)


def private_cache(capacity):
    """A cache that is the whole of its own arena."""
    return make_arena(capacity=capacity).new_sequence(capacity)


class TestAllocation:
    def test_new_sequence_carves_disjoint_ranges(self):
        arena = make_arena(capacity=64)
        a = arena.new_sequence(16)
        b = arena.new_sequence(16)
        assert a.row_range == (0, 16)
        assert b.row_range == (16, 32)
        assert arena.used_rows == 32
        assert arena.free_rows == 32

    def test_default_capacity_is_max_seq_len(self):
        arena = make_arena(max_requests=2)
        cache = arena.new_sequence()
        assert cache.capacity == SMALL_CONFIG.max_seq_len

    def test_exhaustion_raises(self):
        arena = make_arena(capacity=16)
        held = arena.new_sequence(16)
        with pytest.raises(MemoryError, match="exhausted"):
            arena.new_sequence(1)

    def test_over_max_seq_len_raises(self):
        arena = make_arena(capacity=512)
        with pytest.raises(ValueError, match="max_seq_len"):
            arena.new_sequence(SMALL_CONFIG.max_seq_len + 1)

    def test_negative_capacity_raises_and_leaves_the_arena_whole(self, llm):
        arena = make_arena(max_requests=2)
        with pytest.raises(ValueError, match="negative"):
            arena.new_sequence(-3)
        assert arena.free_rows == arena.capacity
        assert arena.used_rows == 0
        with pytest.raises(ValueError, match="negative"):
            llm.new_cache(-3)

    def test_free_returns_and_coalesces(self):
        arena = make_arena(capacity=48)
        a = arena.new_sequence(16)
        b = arena.new_sequence(16)
        c = arena.new_sequence(16)
        assert arena.free_rows == 0
        a.free()
        c.free()
        b.free()
        # All three ranges coalesce back to one full-capacity range, so a
        # full-size request fits again.
        assert arena.free_rows == 48
        assert arena.new_sequence(48).row_range == (0, 48)

    def test_free_is_idempotent(self):
        arena = make_arena(capacity=32)
        cache = arena.new_sequence(16)
        cache.free()
        cache.free()
        assert arena.free_rows == 32

    def test_double_release_raises(self):
        arena = make_arena(capacity=32)
        cache = arena.new_sequence(16)
        cache.free()
        with pytest.raises(ValueError, match="double free"):
            arena.release(0, 16)

    def test_reuse_after_free(self):
        arena = make_arena(capacity=32)
        a = arena.new_sequence(16)
        b = arena.new_sequence(16)
        a.free()
        again = arena.new_sequence(16)
        assert again.row_range == (0, 16)

    def test_registry_reset_keeps_the_level_gauges(self):
        """A reset zeroes rates, not levels: the rows a live arena holds
        stay counted, so giving them back after the reset brings the
        gauges back to where they were, not below zero."""
        rows, resident, high_water = (REGISTRY.gauge(
            f"repro.model.arena.{name}")
            for name in ("rows_used", "bytes_resident", "bytes_high_water"))
        gc.collect()
        rows_before, bytes_before = rows.value, resident.value
        arena = make_arena(max_requests=1)
        cache = arena.new_sequence()
        reset_observability()
        held = cache.capacity  # 96 rows
        assert rows.value == rows_before + held
        assert resident.value == bytes_before + held * arena.row_bytes
        assert high_water.value == resident.value
        cache.free()
        assert (rows.value, resident.value) == (rows_before, bytes_before)

    def test_utilization(self):
        arena = make_arena(capacity=32)
        assert arena.utilization() == 0.0
        cache = arena.new_sequence(16)
        assert arena.utilization() == pytest.approx(0.5)


class TestFreedCacheIsDetached:
    """A freed cache's rows go back to the arena, which hands them to the
    next request; the stale handle must not be able to write into them."""

    def _rows(self, value):
        shape = (1, SMALL_CONFIG.n_heads, SMALL_CONFIG.d_head)
        return np.full(shape, value), np.full(shape, value)

    def test_stale_append_cannot_reach_the_new_owner(self):
        arena = make_arena(capacity=32)
        stale = arena.new_sequence(16)
        stale.free()
        owner = arena.new_sequence(16)
        assert owner.row_range == stale.row_range
        owner.layers[0].append(*self._rows(1.0))
        with pytest.raises(ValueError, match="overflow"):
            stale.layers[0].append(*self._rows(7.0))
        np.testing.assert_array_equal(owner.layers[0].view()[0], 1.0)

    def test_stale_keep_rows_raises(self):
        arena = make_arena(capacity=32)
        stale = arena.new_sequence(16)
        stale.layers[0].append(*self._rows(2.0))
        stale.free()
        owner = arena.new_sequence(16)
        with pytest.raises(ValueError, match="freed"):
            stale.keep_rows(0, [0])
        assert stale.length == 0


class TestSlotChurn:
    """The slot-major forward addresses a batch by slot: a default-size
    cache must always sit exactly on one."""

    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 7)),
                    min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_default_size_caches_stay_on_slot_boundaries(self, steps):
        arena = make_arena(max_requests=4)
        live = []
        for allocate, pick in steps:
            if allocate and len(live) < 4:
                live.append(arena.new_sequence())
            elif live:
                live.pop(pick % len(live)).free()
            slots = [cache.slot for cache in live]
            assert None not in slots
            assert len(set(slots)) == len(slots)
            for cache, slot in zip(live, slots):
                assert cache.row_range[0] == slot * SMALL_CONFIG.max_seq_len
        assert arena.used_rows == len(live) * SMALL_CONFIG.max_seq_len

    def test_smaller_caches_are_not_slots_and_decode_the_same(
            self, llm, monkeypatch):
        """``new_sequence(16)`` ranges are not slots: a batch of them takes
        the per-request loop, and greedy decoding emits what a batch of
        default-size slots (the slot-major order) emits."""
        slot_major = []
        original = attention._slot_major_attention

        def counted(*args, **kwargs):
            slot_major.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(attention, "_slot_major_attention", counted)

        def greedy_tokens(rows):
            arena = make_arena(max_requests=4)
            caches = [arena.new_sequence(rows) for _ in range(4)]
            assert (caches[0].slot is None) == (rows == 16)
            pending = []
            for r, cache in enumerate(caches):
                prompt = make_prompt(np.random.default_rng(r), length=3 + r)
                pending.append(int(np.argmax(llm.prefill(prompt, cache)[-1])))
            emitted = [pending]
            for _ in range(8):
                logits = llm.decode_batch(np.array(pending), caches)
                pending = [int(t) for t in np.argmax(logits, axis=1)]
                emitted.append(pending)
            return emitted

        small = greedy_tokens(16)
        assert not slot_major
        assert greedy_tokens(0) == small
        assert len(slot_major) == 8 * SMALL_CONFIG.n_layers


def fill(layer, n, rng):
    keys = rng.normal(size=(n, 2, 4))
    layer.append(keys, keys * 2)
    return keys


def layer_kv(capacity):
    return LayerKV(np.zeros((capacity, 2, 4)), np.zeros((capacity, 2, 4)))


class TestLayerKV:
    def test_append_and_view(self, rng):
        layer = layer_kv(8)
        keys = fill(layer, 3, rng)
        k, v = layer.view()
        assert k.shape == (3, 2, 4)
        np.testing.assert_array_equal(k, keys)
        np.testing.assert_array_equal(v, keys * 2)

    def test_overflow_raises(self, rng):
        layer = layer_kv(4)
        fill(layer, 3, rng)
        with pytest.raises(ValueError, match="overflow"):
            fill(layer, 2, rng)

    def test_truncate(self, rng):
        layer = layer_kv(8)
        keys = fill(layer, 5, rng)
        layer.truncate(2)
        k, _ = layer.view()
        np.testing.assert_array_equal(k, keys[:2])

    def test_truncate_bounds(self, rng):
        layer = layer_kv(8)
        fill(layer, 3, rng)
        with pytest.raises(ValueError):
            layer.truncate(4)
        with pytest.raises(ValueError):
            layer.truncate(-1)

    # Compaction moves every layer of a cache at once (one gather and one
    # scatter per slab); these look at layer 0 of a one-request arena.

    def test_keep_rows_compacts(self, rng):
        cache = private_cache(10)
        keys = fill_layers(cache, 6, rng)
        # Keep prefix of 2, then rows 1 and 3 of the region past it.
        cache.keep_rows(2, [1, 3])
        layer = cache.layers[0]
        k, v = layer.view()
        assert layer.length == 4
        np.testing.assert_array_equal(k[:2], keys[:2])
        np.testing.assert_array_equal(k[2], keys[3])
        np.testing.assert_array_equal(k[3], keys[5])
        np.testing.assert_array_equal(v[3], keys[5] * 2)

    def test_keep_rows_out_of_range(self, rng):
        cache = private_cache(10)
        fill_layers(cache, 4, rng)
        with pytest.raises(ValueError, match="out of range"):
            cache.keep_rows(2, [5])

    def test_keep_rows_preserves_order_given(self, rng):
        cache = private_cache(10)
        keys = fill_layers(cache, 5, rng)
        cache.keep_rows(0, [2, 0, 4])
        k, _ = cache.layers[0].view()
        np.testing.assert_array_equal(k[0], keys[2])
        np.testing.assert_array_equal(k[1], keys[0])
        np.testing.assert_array_equal(k[2], keys[4])


def fill_layers(cache, n, rng):
    """Append the same ``n`` random keys (values: twice them) to every
    layer; returns the keys."""
    keys = rng.normal(size=(n, SMALL_CONFIG.n_heads, SMALL_CONFIG.d_head))
    for layer in cache.layers:
        layer.append(keys, keys * 2)
    return keys


def fill_cache(cache, n, rng):
    """Append ``n`` random positions to every layer of ``cache``."""
    shape = (n, SMALL_CONFIG.n_heads, SMALL_CONFIG.d_head)
    for layer in cache.layers:
        layer.append(rng.normal(size=shape), rng.normal(size=shape))


class TestKVCache:
    """The private layout: ``TransformerLM.new_cache`` is the whole of its
    own arena."""

    def test_capacity_defaults_to_max_seq_len(self, llm):
        assert llm.new_cache().capacity == SMALL_CONFIG.max_seq_len

    def test_capacity_cannot_exceed_max_seq_len(self, llm):
        with pytest.raises(ValueError, match="exceeds max_seq_len"):
            llm.new_cache(SMALL_CONFIG.max_seq_len + 1)

    def test_length_tracks_all_layers(self, llm, rng):
        cache = llm.new_cache(16)
        fill_cache(cache, 3, rng)
        assert cache.length == 3
        assert all(layer.length == 3 for layer in cache.layers)

    def test_snapshot_restore(self, llm, rng):
        cache = llm.new_cache(16)
        fill_cache(cache, 3, rng)
        snap = cache.snapshot()
        fill_cache(cache, 4, rng)
        assert cache.length == 7
        cache.restore(snap)
        assert cache.length == 3

    def test_truncate_applies_to_all_layers(self, llm, rng):
        cache = llm.new_cache(16)
        fill_cache(cache, 5, rng)
        cache.truncate(2)
        assert all(layer.length == 2 for layer in cache.layers)

    def test_keep_rows_applies_to_all_layers(self, llm, rng):
        cache = llm.new_cache(16)
        fill_cache(cache, 5, rng)
        cache.keep_rows(1, [0, 2])
        assert cache.length == 3
        assert all(layer.length == 3 for layer in cache.layers)


class TestCacheSemantics:
    """A range of a shared arena is indistinguishable from a private
    one."""

    def _fill(self, cache, rng):
        fill_cache(cache, 5, rng)

    def test_append_view_roundtrip_matches_kv_cache(self):
        arena = make_arena(capacity=64)
        arena_cache = arena.new_sequence(16)
        plain = private_cache(16)
        self._fill(arena_cache, np.random.default_rng(0))
        self._fill(plain, np.random.default_rng(0))
        assert arena_cache.length == plain.length == 5
        for la, lp in zip(arena_cache.layers, plain.layers):
            np.testing.assert_array_equal(la.view()[0], lp.view()[0])
            np.testing.assert_array_equal(la.view()[1], lp.view()[1])

    def test_views_are_zero_copy_slab_slices(self):
        arena = make_arena(capacity=64)
        cache = arena.new_sequence(16)
        self._fill(cache, np.random.default_rng(1))
        keys, _ = cache.layers[0].view()
        assert keys.base is arena._keys[0]
        np.testing.assert_array_equal(keys, arena._keys[0][:5])

    def test_truncate_and_keep_rows(self):
        arena = make_arena(capacity=64)
        cache = arena.new_sequence(16)
        plain = private_cache(16)
        self._fill(cache, np.random.default_rng(2))
        self._fill(plain, np.random.default_rng(2))
        cache.keep_rows(2, [2, 0])
        plain.keep_rows(2, [2, 0])
        assert cache.length == plain.length == 4
        for la, lp in zip(cache.layers, plain.layers):
            np.testing.assert_array_equal(la.view()[0], lp.view()[0])
        cache.truncate(1)
        assert cache.length == 1

    def test_every_layer_moves_together(self):
        """The shared layout; ``TestKVCache`` covers the private one."""
        arena = make_arena(capacity=64)
        cache = arena.new_sequence(16)
        self._fill(cache, np.random.default_rng(7))
        assert [layer.length for layer in cache.layers] == [5, 5]
        cache.keep_rows(1, [0, 2])
        assert [layer.length for layer in cache.layers] == [3, 3]
        cache.truncate(2)
        assert [layer.length for layer in cache.layers] == [2, 2]

    def test_snapshot_restore(self):
        arena = make_arena(capacity=64)
        cache = arena.new_sequence(16)
        self._fill(cache, np.random.default_rng(3))
        snap = cache.snapshot()
        for layer in cache.layers:
            layer.append(np.zeros((1, SMALL_CONFIG.n_heads,
                                   SMALL_CONFIG.d_head)),
                         np.zeros((1, SMALL_CONFIG.n_heads,
                                   SMALL_CONFIG.d_head)))
        cache.restore(snap)
        assert cache.length == snap

    def test_overflow_raises(self):
        arena = make_arena(capacity=8)
        cache = arena.new_sequence(8)
        big = np.zeros((9, SMALL_CONFIG.n_heads, SMALL_CONFIG.d_head))
        with pytest.raises(ValueError, match="overflow"):
            cache.layers[0].append(big, big)

    def test_neighbours_do_not_interfere(self):
        """Appends to one request never touch a neighbour's rows."""
        arena = make_arena(capacity=32)
        a = arena.new_sequence(16)
        b = arena.new_sequence(16)
        self._fill(a, np.random.default_rng(4))
        before_b = arena._keys[0][16:32].copy()
        self._fill(a, np.random.default_rng(5))
        np.testing.assert_array_equal(arena._keys[0][16:32], before_b)
        self._fill(b, np.random.default_rng(6))
        keys_a, _ = a.layers[0].view()
        assert keys_a.shape[0] == 10


class TestModelIntegration:
    def test_prefill_and_decode_match_private_cache(self, llm, rng):
        prompt = make_prompt(rng, length=8)
        arena = BatchArena(SMALL_CONFIG, max_requests=2)
        arena_cache = arena.new_sequence()
        plain_cache = llm.new_cache()
        logits_arena = llm.prefill(prompt, arena_cache)
        logits_plain = llm.prefill(prompt, plain_cache)
        np.testing.assert_allclose(logits_arena, logits_plain, atol=1e-12)
        np.testing.assert_allclose(
            llm.decode(3, arena_cache), llm.decode(3, plain_cache),
            atol=1e-12,
        )

    def test_every_cache_is_one_class(self, llm, ssm):
        """A private cache, a range of a shared arena and a speculator's
        mirror cache are all the one ``KVCache``."""
        kind = type(BatchArena(SMALL_CONFIG).new_sequence())
        assert type(llm.new_cache()) is kind
        assert type(Speculator([llm]).packed_expansion_states()[0][1]) is kind
        coupled = Speculator([ssm]).packed_expansion_states()[0][1]
        assert type(coupled.base_cache) is kind

    def test_a_collected_cache_gives_its_rows_back(self):
        arena = make_arena(max_requests=2)
        arena.new_sequence()  # dropped at once
        assert arena.used_rows == 0


def incremental_manager(llm, arena):
    return RequestManager(
        lambda req: IncrementalSession(
            req, llm, cache_factory=arena.new_sequence),
        max_batch_size=2,
    )


class TestServingLifecycle:
    """A manager over a shared arena gives every row back, so the arena
    holds the concurrent batch, never the whole queue."""

    def test_rows_recycled_across_requests(self, llm, rng):
        """Finished requests hand their rows back while the queue drains:
        a four-slot arena never holds more than the two-request batch."""
        arena = make_arena(max_requests=4)
        mgr = incremental_manager(llm, arena)
        for _ in range(6):
            mgr.submit(make_prompt(rng, length=8),
                       GenerationConfig(max_new_tokens=6, stop_on_eos=False))
        finished = []
        while mgr.has_work:
            finished += mgr.run_iteration().finished_ids
            assert arena.used_rows <= 2 * SMALL_CONFIG.max_seq_len
        assert len(finished) == 6
        assert arena.used_rows == 0

    def test_arena_smaller_than_total_demand_serves_a_long_queue(
            self, llm, rng):
        arena = make_arena(max_requests=2)
        mgr = incremental_manager(llm, arena)
        for _ in range(10):
            mgr.submit(make_prompt(rng, length=8),
                       GenerationConfig(max_new_tokens=6, stop_on_eos=False))
        outputs = mgr.run_until_complete()
        assert len(outputs) == 10
        assert arena.used_rows == 0

    def test_speculative_sessions_on_a_shared_arena(self, llm, rng):
        """Tree verification (append + compaction) under serving on a shared
        arena emits what a manager over private caches emits, and gives
        every row back."""

        def factory(cache_factory):
            return lambda req: SpeculativeSession(
                req, llm,
                lambda: Speculator(
                    [CoupledSSM(llm, alignment=0.9, seed=7, noise_scale=2.0)],
                    ExpansionConfig((1, 2, 1)),
                ),
                cache_factory=cache_factory,
            )

        arena = make_arena(max_requests=2)
        prompt = make_prompt(rng, length=6)
        config = GenerationConfig(max_new_tokens=10)
        tokens = []
        for cache_factory in (arena.new_sequence, None):
            mgr = RequestManager(factory(cache_factory))
            rid = mgr.submit(prompt, config)
            mgr.run_until_complete()
            tokens.append(mgr.output_for(rid).tokens)
        assert tokens[0] == tokens[1]
        assert arena.used_rows == 0
