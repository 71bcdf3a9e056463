"""Unit tests for the grow-only scratch arena behind the zero-alloc hot path."""

import numpy as np
import pytest

from repro.model import perf
from repro.model.scratch import ScratchArena, _round_up_pow2
from repro.obs import reset_observability


class TestRoundUpPow2:
    def test_small_values(self):
        assert _round_up_pow2(0) == 1
        assert _round_up_pow2(1) == 1
        assert _round_up_pow2(2) == 2
        assert _round_up_pow2(3) == 4
        assert _round_up_pow2(17) == 32

    def test_exact_powers_unchanged(self):
        for k in range(11):
            assert _round_up_pow2(1 << k) == max(1, 1 << k)


class TestTake:
    def test_reuse_without_growth(self):
        arena = ScratchArena()
        a = arena.take("x", (4, 8), np.float64)
        b = arena.take("x", (4, 8), np.float64)
        assert a.base is b.base or a is b
        assert arena.alloc_events == 1

    def test_shrinking_view_reuses_buffer(self):
        arena = ScratchArena()
        arena.take("x", (8, 8), np.float64)
        view = arena.take("x", (3, 5), np.float64)
        assert view.shape == (3, 5)
        assert arena.alloc_events == 1

    def test_unbounded_growth_is_pow2(self):
        arena = ScratchArena()
        arena.take("x", (3,), np.float64)
        assert arena.buffer_shape("x", np.float64) == (4,)
        arena.take("x", (5,), np.float64)
        assert arena.buffer_shape("x", np.float64) == (8,)
        assert arena.alloc_events == 2
        # Anything <= 8 now reuses.
        arena.take("x", (8,), np.float64)
        assert arena.alloc_events == 2

    def test_bound_allocates_worst_case_once(self):
        arena = ScratchArena()
        arena.take("m", (2, 10), np.float64, bound=(0, 64))
        assert arena.buffer_shape("m", np.float64) == (2, 64)
        arena.take("m", (2, 64), np.float64, bound=(0, 64))
        assert arena.alloc_events == 1

    def test_exact_trailing_bound_keeps_views_contiguous(self):
        """The reshape-as-view contract: exact trailing dims => C order."""
        arena = ScratchArena()
        v = arena.take("qkv", (3, 16), np.float64, bound=(0, 16))
        assert v.flags["C_CONTIGUOUS"]
        v2 = arena.take("qkv", (7, 16), np.float64, bound=(0, 16))
        assert v2.flags["C_CONTIGUOUS"]

    def test_tags_and_dtypes_are_distinct_keys(self):
        arena = ScratchArena()
        a = arena.take("x", (4,), np.float64)
        b = arena.take("y", (4,), np.float64)
        c = arena.take("x", (4,), np.intp)
        assert arena.alloc_events == 3
        a[:] = 1.0
        b[:] = 2.0
        c[:] = 3
        assert a[0] == 1.0 and b[0] == 2.0 and c[0] == 3

    def test_ndim_mismatch_rejected(self):
        arena = ScratchArena()
        arena.take("x", (4, 4), np.float64)
        with pytest.raises(ValueError, match="2-d buffer"):
            arena.take("x", (4,), np.float64)

    def test_negative_shape_rejected(self):
        arena = ScratchArena()
        with pytest.raises(ValueError, match="negative"):
            arena.take("x", (-1,), np.float64)

    def test_reserved_bytes_tracks_buffers(self):
        arena = ScratchArena()
        arena.take("x", (4,), np.float64)
        arena.take("y", (2, 8), np.float32)
        assert arena.reserved_bytes() == 4 * 8 + 2 * 8 * 4


class TestPerfCharging:
    def setup_method(self):
        reset_observability()

    def test_growth_charges_hot_alloc(self):
        arena = ScratchArena()
        with perf.track() as c:
            arena.take("x", (4, 4), np.float64)
        assert c.hot_alloc_events == 1
        assert c.hot_alloc_bytes >= 4 * 4 * 8

    def test_reuse_charges_nothing(self):
        arena = ScratchArena()
        arena.take("x", (4, 4), np.float64)
        with perf.track() as c:
            for _ in range(10):
                arena.take("x", (4, 4), np.float64)
        assert c.hot_alloc_events == 0
