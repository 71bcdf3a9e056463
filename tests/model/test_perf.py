"""Tests for the hot-path op counters."""

import numpy as np

from repro.model import perf
from repro.model.attention import scaled_dot_attention
from repro.model.layers import linear_forward
from repro.obs import REGISTRY, reset_observability


class TestTrack:
    def test_track_measures_delta_only(self):
        perf.add_gemm(1, 1, 1)  # unrelated background accumulation
        with perf.track() as c:
            perf.add_gemm(2, 3, 4)
        assert c.gemm_flops == 2 * 2 * 3 * 4
        with perf.track() as c2:
            pass
        assert c2.gemm_flops == 0

    def test_nested_tracking(self):
        with perf.track() as outer:
            perf.add_mask_cells(10)
            with perf.track() as inner:
                perf.add_mask_cells(5)
        assert inner.mask_cells_allocated == 5
        assert outer.mask_cells_allocated == 15

    def test_reset_zeroes_globals(self):
        """The counts live only in the registry, so its reset zeroes them."""
        perf.add_mask_alloc(7)
        reset_observability()
        cells = REGISTRY.counter("repro.model.mask_cells_allocated")
        assert cells.value == 0
        with perf.track() as c:
            perf.add_mask_alloc(3)
        assert c.mask_cells_allocated == cells.value == 3


class TestPrimitiveCounting:
    def test_linear_forward_counts_gemm_flops(self):
        x = np.zeros((5, 8))
        w = np.zeros((8, 3))
        b = np.zeros(3)
        with perf.track() as c:
            linear_forward(x, w, b)
        assert c.gemm_flops == 2 * 5 * 8 * 3

    def test_attention_counts_score_flops(self):
        q = np.zeros((2, 4, 8))
        k = np.zeros((6, 4, 8))
        v = np.zeros((6, 4, 8))
        mask = np.zeros((2, 6))
        with perf.track() as c:
            scaled_dot_attention(q, k, v, mask)
        assert c.attn_score_flops == 2 * 2 * 4 * 2 * 6 * 8

    def test_fresh_mask_allocation_is_counted(self):
        from repro.model.attention import causal_mask

        with perf.track() as c:
            causal_mask(5)
        assert c.mask_cells_allocated == 25
        buf = np.empty((5, 5))
        with perf.track() as c2:
            causal_mask(5, out=buf)
        assert c2.mask_cells_allocated == 0
