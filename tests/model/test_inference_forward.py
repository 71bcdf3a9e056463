"""The inference forward holds what it needs and nothing for a backward.

``repro.engine.tick.allocs`` only sees arena growth; the temporaries NumPy
expressions make are invisible to it.  This
pins them from the outside, under ``tracemalloc``: one steady-state
verification-sized forward may hold at most three ``(rows, d_ff)`` arrays
worth of new memory at its peak (the ``up`` projection, GELU's one
temporary, and everything ``d_model``-wide together).  The GELU that
computed ``x**3`` out of place and returned its backward cache held about
six on its own.
"""

import tracemalloc

import numpy as np
import pytest

from repro.model.kv_cache import BatchArena
from repro.model.config import ModelConfig
from repro.model.layers import gelu_forward, layernorm_forward
from repro.model.scratch import ScratchArena
from repro.model.transformer import TransformerLM

CONFIG = ModelConfig(vocab_size=256, d_model=128, n_layers=2, n_heads=4,
                     max_seq_len=160, name="alloc-lm")
REQUESTS, TREE_ROWS, PRIOR = 8, 21, 40


@pytest.mark.perf_smoke
class TestInferenceForwardMemory:
    def test_peak_new_bytes_of_a_168_row_forward(self):
        rng = np.random.default_rng(0)
        model = TransformerLM(CONFIG, seed=1)
        arena = BatchArena(CONFIG, max_requests=REQUESTS)
        scratch = ScratchArena()
        caches = [arena.new_sequence() for _ in range(REQUESTS)]
        for cache in caches:
            model.prefill(rng.integers(1, 256, size=PRIOR), cache)
        rows = REQUESTS * TREE_ROWS
        tokens = rng.integers(1, 256, size=rows)
        positions = np.tile(PRIOR + np.arange(TREE_ROWS), REQUESTS)
        masks = [np.zeros((TREE_ROWS, PRIOR + TREE_ROWS))
                 for _ in range(REQUESTS)]

        def forward():
            logits = model.forward_masked_blocks(tokens, positions, masks,
                                                 caches, scratch=scratch)
            for cache in caches:
                cache.truncate(PRIOR)
            return logits

        expected = forward().copy()  # warm-up: scratch buffers reach size
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            logits = forward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(logits, expected)
        itemsize = np.dtype(CONFIG.dtype).itemsize
        assert peak - before <= 3 * rows * CONFIG.d_ff * itemsize

    def test_inference_ops_return_no_backward_cache(self):
        x = np.random.default_rng(0).normal(size=(4, CONFIG.d_model))
        _, cache = gelu_forward(x.copy(), out=np.empty_like(x))
        assert cache is None
        _, cache = layernorm_forward(x, np.ones(CONFIG.d_model),
                                     np.zeros(CONFIG.d_model),
                                     out=np.empty_like(x))
        assert cache is None
