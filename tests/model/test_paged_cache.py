"""Tests for the paged KV-cache pool.

The headline property: every engine in the repository produces *identical*
outputs on paged storage as on contiguous storage, even with fragmented
block tables — the paged pool is a drop-in cache implementation.
"""

import numpy as np
import pytest

from repro.engine.batched import BatchedTreeVerifier
from repro.model.paged_cache import PagedKVPool, PagedSequenceCache
from repro.model.sampling import SamplingConfig
from repro.tree.token_tree import TokenTree
from tests.conftest import SMALL_CONFIG, make_prompt


@pytest.fixture()
def pool(llm):
    return PagedKVPool(SMALL_CONFIG, num_blocks=64, block_size=8)


class TestPoolAllocation:
    def test_allocate_and_release(self, pool):
        block = pool.allocate_block()
        assert pool.used_blocks == 1
        pool.release_blocks([block])
        assert pool.used_blocks == 0

    def test_exhaustion_raises(self):
        tiny = PagedKVPool(SMALL_CONFIG, num_blocks=2, block_size=8)
        tiny.allocate_block()
        tiny.allocate_block()
        with pytest.raises(MemoryError, match="exhausted"):
            tiny.allocate_block()

    def test_double_free_rejected(self, pool):
        block = pool.allocate_block()
        pool.release_blocks([block])
        with pytest.raises(ValueError, match="double free"):
            pool.release_blocks([block])

    def test_invalid_block_rejected(self, pool):
        with pytest.raises(ValueError, match="invalid block"):
            pool.release_blocks([999])

    def test_utilization(self, pool):
        assert pool.utilization() == 0.0
        pool.allocate_block()
        assert pool.utilization() == pytest.approx(1 / 64)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PagedKVPool(SMALL_CONFIG, num_blocks=0)
        with pytest.raises(ValueError):
            PagedKVPool(SMALL_CONFIG, num_blocks=4, block_size=0)


class TestSequenceBlockManagement:
    def test_blocks_grow_with_length(self, llm, pool, rng):
        cache = pool.new_sequence()
        llm.prefill(make_prompt(rng, length=20), cache)
        # 20 tokens at block size 8 -> 3 blocks.
        assert len(cache.block_table) == 3
        assert pool.used_blocks == 3

    def test_truncate_releases_blocks(self, llm, pool, rng):
        cache = pool.new_sequence()
        llm.prefill(make_prompt(rng, length=20), cache)
        cache.truncate(5)
        assert len(cache.block_table) == 1
        assert pool.used_blocks == 1

    def test_free_returns_everything(self, llm, pool, rng):
        cache = pool.new_sequence()
        llm.prefill(make_prompt(rng, length=20), cache)
        cache.free()
        assert pool.used_blocks == 0
        assert cache.length == 0

    def test_capacity_enforced(self, llm, pool):
        cache = PagedSequenceCache(pool, capacity=4)
        with pytest.raises(ValueError, match="overflow"):
            llm.prefill(np.arange(1, 7), cache)

    def test_capacity_cannot_exceed_max_seq_len(self, pool):
        with pytest.raises(ValueError, match="max_seq_len"):
            PagedSequenceCache(pool, capacity=SMALL_CONFIG.max_seq_len + 1)


class TestOutputEquivalence:
    def test_prefill_decode_matches_contiguous(self, llm, pool, rng):
        tokens = make_prompt(rng, length=12)
        contiguous = llm.new_cache()
        paged = pool.new_sequence()
        ref = llm.prefill(tokens[:6], contiguous)
        out = llm.prefill(tokens[:6], paged)
        np.testing.assert_allclose(out, ref, atol=1e-12)
        for t in tokens[6:]:
            np.testing.assert_allclose(
                llm.decode(int(t), paged),
                llm.decode(int(t), contiguous),
                atol=1e-12,
            )

    def test_equivalence_with_fragmented_blocks(self, llm, pool, rng):
        """Two sequences interleave allocations, so block tables are
        non-contiguous — outputs must still match exactly."""
        t1 = make_prompt(rng, length=18)
        t2 = make_prompt(rng, length=18)
        c1 = pool.new_sequence()
        c2 = pool.new_sequence()
        # Interleave prefills in chunks to interleave block allocation.
        for i in range(0, 18, 6):
            llm.prefill(t1[i : i + 6], c1)
            llm.prefill(t2[i : i + 6], c2)
        # The two block tables interleave: neither owns a contiguous run.
        assert max(c1.block_table) > min(c2.block_table)
        np.testing.assert_allclose(llm.decode(3, c1),
                                   llm.decode(3, llm_cache_for(llm, t1)),
                                   atol=1e-12)
        np.testing.assert_allclose(llm.decode(3, c2),
                                   llm.decode(3, llm_cache_for(llm, t2)),
                                   atol=1e-12)

    def test_tree_verification_on_paged_cache(self, llm, pool, rng):
        """Tree-parallel decode + greedy verification + path compaction all
        run unmodified on paged storage."""
        prompt = make_prompt(rng, length=6)
        paged = pool.new_sequence()
        contiguous = llm.new_cache()
        llm.prefill(prompt[:-1], paged)
        llm.prefill(prompt[:-1], contiguous)
        tree = TokenTree(int(prompt[-1]))
        a = tree.add_child(0, 5)
        tree.add_child(0, 9)
        tree.add_child(a, 11)
        greedy = [SamplingConfig(greedy=True)]
        verifier = BatchedTreeVerifier(llm)
        result_paged = verifier.verify_batch([tree], [paged], greedy,
                                             [rng])[0]
        result_contig = verifier.verify_batch([tree], [contiguous], greedy,
                                              [rng])[0]
        assert result_paged.accepted_tokens == result_contig.accepted_tokens
        # Continue decoding after compaction: still identical.
        np.testing.assert_allclose(
            llm.decode(result_paged.bonus_token, paged),
            llm.decode(result_contig.bonus_token, contiguous),
            atol=1e-12,
        )

    def test_full_engine_on_paged_pool(self, llm, pool, rng):
        """The SpecInfer engine is cache-implementation agnostic."""
        from repro.engine.generation import GenerationConfig
        from repro.engine.incremental import IncrementalEngine

        prompt = make_prompt(rng, length=5)
        config = GenerationConfig(max_new_tokens=10, stop_on_eos=False)
        reference = IncrementalEngine(llm).generate(prompt, config).tokens
        # Drive decoding manually on a paged sequence.
        cache = pool.new_sequence()
        llm.prefill(prompt[:-1], cache)
        pending = int(prompt[-1])
        produced = []
        for _ in range(10):
            logits = llm.decode(pending, cache)
            pending = int(np.argmax(logits))
            produced.append(pending)
        assert produced == reference


def llm_cache_for(llm, tokens):
    """Helper: contiguous cache pre-filled with ``tokens``."""
    cache = llm.new_cache()
    llm.prefill(tokens, cache)
    return cache
