"""Tests for attention masks and multi-head attention."""

import numpy as np
import pytest

from repro.model.arena import BatchArena
from repro.model.attention import (
    block_diagonal_attention,
    causal_mask,
    cross_mask,
    mha_backward,
    mha_forward,
    merge_heads,
    scaled_dot_attention,
    split_heads,
)
from repro.model.config import ModelConfig
from repro.model.layers import stable_softmax
from repro.model.paged_cache import PagedKVPool
from repro.model.parameters import ParameterStore


class TestMasks:
    def test_causal_mask_structure(self):
        mask = causal_mask(4)
        for j in range(4):
            for k in range(4):
                if j >= k:
                    assert mask[j, k] == 0.0
                else:
                    assert mask[j, k] == float("-inf")

    def test_cross_mask_reduces_to_causal_without_offset(self):
        np.testing.assert_array_equal(cross_mask(5, 5, 0), causal_mask(5))

    def test_cross_mask_with_cached_prefix(self):
        mask = cross_mask(2, 5, 3)
        # Query 0 (absolute position 3) sees keys 0..3.
        assert (mask[0, :4] == 0.0).all()
        assert mask[0, 4] == float("-inf")
        # Query 1 (absolute position 4) sees everything.
        assert (mask[1] == 0.0).all()


class TestHeadReshape:
    def test_split_merge_roundtrip(self, rng):
        x = rng.normal(size=(5, 12))
        np.testing.assert_array_equal(merge_heads(split_heads(x, 3)), x)

    def test_split_shape(self, rng):
        x = rng.normal(size=(5, 12))
        assert split_heads(x, 4).shape == (5, 4, 3)


class TestScaledDotAttention:
    def test_fully_masked_rows_average_uniformly(self, rng):
        # A row with a single visible key copies that key's value.
        q = rng.normal(size=(1, 2, 4))
        k = rng.normal(size=(3, 2, 4))
        v = rng.normal(size=(3, 2, 4))
        mask = np.array([[0.0, float("-inf"), float("-inf")]])
        out = scaled_dot_attention(q, k, v, mask)
        np.testing.assert_allclose(out[0], v[0], atol=1e-12)

    def test_attention_is_convex_combination(self, rng):
        q = rng.normal(size=(2, 1, 4))
        k = rng.normal(size=(5, 1, 4))
        v = rng.normal(size=(5, 1, 4))
        mask = np.zeros((2, 5))
        out = scaled_dot_attention(q, k, v, mask)
        lo = v.min(axis=0, keepdims=True)
        hi = v.max(axis=0, keepdims=True)
        assert (out >= lo - 1e-9).all() and (out <= hi + 1e-9).all()


def einsum_attention(q, k, v, mask):
    """The expression ``scaled_dot_attention`` used before it moved to
    ``np.matmul`` over heads, kept here as the numerical reference."""
    scores = np.einsum("qhd,khd->hqk", q, k) / np.sqrt(q.shape[-1])
    weights = stable_softmax(scores + mask[None, :, :], axis=-1)
    return np.einsum("hqk,khd->qhd", weights, v)


KV_CONFIG = ModelConfig(vocab_size=16, d_model=128, n_layers=1, n_heads=4,
                        max_seq_len=96, name="attn-kv")


def tree_like_mask(rng, n_q, n_k):
    """Zeros and ``-inf`` with every row keeping at least one key."""
    mask = np.where(rng.random((n_q, n_k)) < 0.4, float("-inf"), 0.0)
    mask[:, 0] = 0.0
    return mask


class TestMatmulAttentionMatchesEinsum:
    N_K = 80

    def contiguous_kv(self, rng):
        shape = (self.N_K, KV_CONFIG.n_heads, KV_CONFIG.d_head)
        return rng.normal(size=shape), rng.normal(size=shape)

    def arena_kv(self, rng):
        # A request's rows in the middle of the shared slab: a strided,
        # zero-copy view, which is what block-sparse verification reads.
        arena = BatchArena(KV_CONFIG, max_requests=3)
        arena.new_sequence()
        cache = arena.new_sequence()
        keys, values = self.contiguous_kv(rng)
        cache.layers[0].append(keys, values)
        return cache.layers[0].view()

    def paged_kv(self, rng):
        pool = PagedKVPool(KV_CONFIG, num_blocks=12, block_size=16)
        pool.allocate_block()  # so the sequence does not start at block 0
        cache = pool.new_sequence()
        keys, values = self.contiguous_kv(rng)
        cache.layers[0].append(keys, values)
        return cache.layers[0].view()

    @pytest.mark.parametrize("n_q", [1, 3, 21])
    @pytest.mark.parametrize("source", ["contiguous_kv", "arena_kv",
                                        "paged_kv"])
    def test_within_1e_12_of_einsum(self, rng, source, n_q):
        k, v = getattr(self, source)(rng)
        assert k.shape == (self.N_K, 4, 32)
        # Queries as the forward passes them: a column block of the packed
        # QKV projection, split into heads (strided, not contiguous).
        qkv = rng.normal(size=(n_q, 3 * KV_CONFIG.d_model))
        q = split_heads(qkv[:, : KV_CONFIG.d_model], KV_CONFIG.n_heads)
        mask = tree_like_mask(rng, n_q, self.N_K)
        out = scaled_dot_attention(q, k, v, mask)
        assert out.shape == q.shape
        np.testing.assert_allclose(out, einsum_attention(q, k, v, mask),
                                   rtol=0, atol=1e-12)

    def test_writes_into_a_row_block_of_out(self, rng):
        k, v = self.contiguous_kv(rng)
        q = rng.normal(size=(5, 4, 32))
        mask = tree_like_mask(rng, 5, self.N_K)
        buffer = np.full((9, 4, 32), np.nan)
        result = scaled_dot_attention(q, k, v, mask, out=buffer[2:7])
        assert np.shares_memory(result, buffer)
        np.testing.assert_array_equal(buffer[2:7],
                                      scaled_dot_attention(q, k, v, mask))
        assert np.isnan(buffer[:2]).all() and np.isnan(buffer[7:]).all()

    def test_float32_stays_float32(self, rng):
        k, v = (a.astype(np.float32) for a in self.contiguous_kv(rng))
        q = rng.normal(size=(3, 4, 32)).astype(np.float32)
        mask = tree_like_mask(rng, 3, self.N_K).astype(np.float32)
        out = scaled_dot_attention(q, k, v, mask)
        assert out.dtype == np.float32
        np.testing.assert_allclose(
            out, einsum_attention(*(a.astype(np.float64)
                                    for a in (q, k, v, mask))),
            rtol=0, atol=1e-5)

    def test_block_diagonal_matches_per_block_einsum(self, rng):
        counts, key_counts = [21, 1, 3], [80, 33, 50]
        offsets = np.concatenate([[0], np.cumsum(counts)]).tolist()
        q = rng.normal(size=(offsets[-1], 4, 32))
        kvs = [(rng.normal(size=(n, 4, 32)), rng.normal(size=(n, 4, 32)))
               for n in key_counts]
        masks = [tree_like_mask(rng, c, n)
                 for c, n in zip(counts, key_counts)]
        out = block_diagonal_attention(q, kvs, masks, offsets)
        for b, ((k, v), mask) in enumerate(zip(kvs, masks)):
            lo, hi = offsets[b], offsets[b + 1]
            np.testing.assert_allclose(
                out[lo:hi], einsum_attention(q[lo:hi], k, v, mask),
                rtol=0, atol=1e-12)


class TestMhaTrainingPath:
    @pytest.fixture()
    def setup(self):
        config = ModelConfig(vocab_size=16, d_model=8, n_layers=1, n_heads=2,
                             max_seq_len=16)
        params = ParameterStore.initialize(config, seed=0)
        return config, params

    def test_forward_matches_manual(self, setup, rng):
        config, params = setup
        x = rng.normal(size=(4, 8))
        mask = causal_mask(4)
        out, _ = mha_forward(x, params, "layer0.attn", config.n_heads, mask)
        assert out.shape == (4, 8)
        # Position 0 attends only to itself; its output must not depend on
        # later positions.
        x2 = x.copy()
        x2[2:] += 10.0
        out2, _ = mha_forward(x2, params, "layer0.attn", config.n_heads, mask)
        np.testing.assert_allclose(out[0], out2[0], atol=1e-10)

    def test_backward_matches_numerical(self, setup, rng):
        config, params = setup
        x = rng.normal(size=(3, 8))
        mask = causal_mask(3)
        upstream = rng.normal(size=(3, 8))

        def loss():
            out, _ = mha_forward(x, params, "layer0.attn", config.n_heads, mask)
            return float((out * upstream).sum())

        _, cache = mha_forward(x, params, "layer0.attn", config.n_heads, mask)
        grads = {}
        dx = mha_backward(upstream, cache, "layer0.attn", grads)

        eps = 1e-6
        num_dx = np.zeros_like(x)
        flat = x.reshape(-1)
        nflat = num_dx.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = loss()
            flat[i] = orig - eps
            fm = loss()
            flat[i] = orig
            nflat[i] = (fp - fm) / (2 * eps)
        np.testing.assert_allclose(dx, num_dx, atol=1e-6)

        # Spot-check one weight gradient numerically.
        w = params["layer0.attn.wq"]
        orig = w[0, 0]
        w[0, 0] = orig + eps
        fp = loss()
        w[0, 0] = orig - eps
        fm = loss()
        w[0, 0] = orig
        assert grads["layer0.attn.wq"][0, 0] == pytest.approx(
            (fp - fm) / (2 * eps), abs=1e-6
        )
