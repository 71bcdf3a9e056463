"""Tests for batched cross-request tree verification.

Headline property: one fused pass over the whole batch produces exactly the
same per-request verification results (and cache states) as verifying each
request separately (the same verifier, a batch of one).
"""

import numpy as np
import pytest

from repro.engine.batched import BatchedTreeVerifier
from repro.model.sampling import SamplingConfig
from repro.speculate.expansion import ExpansionConfig, expand_token_tree
from repro.tree.masks import linearize
from repro.verify.decode import TreeDecodeOutput, tree_parallel_decode
from repro.verify.stochastic import verify_stochastic
from tests.conftest import make_prompt

GREEDY = SamplingConfig(greedy=True)


def build_batch(llm, ssm, rng, n_requests=3, cache_factory=None,
                stochastic=False):
    """Per-request (tree, cache) pairs with distinct prefix lengths;
    ``stochastic`` samples the trees (recording their proposals) instead of
    taking top-k."""
    factory = cache_factory or llm.new_cache
    trees, caches = [], []
    for i in range(n_requests):
        prompt = make_prompt(rng, length=4 + 2 * i)
        cache = factory()
        llm.prefill(prompt[:-1], cache)
        ssm_cache = ssm.new_cache()
        ssm.prefill(prompt[:-1], ssm_cache)
        tree = expand_token_tree(
            ssm, int(prompt[-1]), ssm_cache, ExpansionConfig((2, 2, 1)),
            stochastic=stochastic, rng=rng,
        )
        trees.append(tree)
        caches.append(cache)
    return trees, caches


def verify_all(verifier, trees, caches, sampling=GREEDY, rng=None):
    """One ``verify_batch`` over the whole batch, every request under
    ``sampling`` and drawing from the one ``rng``."""
    n = len(trees)
    return verifier.verify_batch(trees, caches, [sampling] * n, [rng] * n)


def verify_each(verifier, trees, caches, sampling=GREEDY, rng=None):
    """The same requests verified one at a time (batches of one)."""
    return [verify_all(verifier, [tree], [cache], sampling, rng)[0]
            for tree, cache in zip(trees, caches)]


class TestBatchedEqualsSequential:
    def test_greedy_results_identical(self, llm, ssm, rng):
        trees_a, caches_a = build_batch(llm, ssm, np.random.default_rng(1))
        trees_b, caches_b = build_batch(llm, ssm, np.random.default_rng(1))
        batch_results = verify_all(BatchedTreeVerifier(llm), trees_a,
                                   caches_a)
        for result, batch_result in zip(
                verify_each(BatchedTreeVerifier(llm), trees_b, caches_b),
                batch_results):
            assert result.accepted_tokens == batch_result.accepted_tokens
            assert result.accepted_nodes == batch_result.accepted_nodes

    def test_cache_states_identical_after_compaction(self, llm, ssm, rng):
        trees_a, caches_a = build_batch(llm, ssm, np.random.default_rng(2))
        trees_b, caches_b = build_batch(llm, ssm, np.random.default_rng(2))
        verify_all(BatchedTreeVerifier(llm), trees_a, caches_a)
        verify_each(BatchedTreeVerifier(llm), trees_b, caches_b)
        for batch_cache, seq_cache in zip(caches_a, caches_b):
            assert batch_cache.length == seq_cache.length
            for lb, ls in zip(batch_cache.layers, seq_cache.layers):
                kb, vb = lb.view()
                ks, vs = ls.view()
                np.testing.assert_allclose(kb, ks, atol=1e-12)
                np.testing.assert_allclose(vb, vs, atol=1e-12)

    def test_stochastic_results_identical_with_request_rngs(self, llm, ssm):
        """With one generator per request, batched and sequential
        stochastic verification make identical decisions."""
        trees_a, caches_a = build_batch(llm, ssm, np.random.default_rng(3))
        trees_b, caches_b = build_batch(llm, ssm, np.random.default_rng(3))
        sampling = SamplingConfig(temperature=1.0)
        n = len(trees_a)
        batch_results = BatchedTreeVerifier(llm).verify_batch(
            trees_a, caches_a, [sampling] * n,
            [np.random.default_rng(42 + i) for i in range(n)])
        verifier = BatchedTreeVerifier(llm)
        for i, batch_result in enumerate(batch_results):
            result = verifier.verify_batch(
                [trees_b[i]], [caches_b[i]], [sampling],
                [np.random.default_rng(42 + i)])[0]
            assert result.accepted_tokens == batch_result.accepted_tokens
            assert result.accepted_nodes == batch_result.accepted_nodes

    def test_shared_rng_is_consumed_pass_major(self, llm, ssm):
        """One generator serving the whole batch is drawn by every walk
        over the trunks in batch order, then by the resumed walks below
        the fan-outs in batch order — and so replays from its seed."""
        sampling = SamplingConfig(temperature=1.0)

        def batched(seed):
            trees, caches = build_batch(llm, ssm, np.random.default_rng(6),
                                        n_requests=6, stochastic=True)
            return verify_all(BatchedTreeVerifier(llm), trees, caches,
                              sampling, np.random.default_rng(seed))

        trees, caches = build_batch(llm, ssm, np.random.default_rng(6),
                                    n_requests=6, stochastic=True)
        outputs = [tree_parallel_decode(llm, cache, tree)
                   for tree, cache in zip(trees, caches)]
        rng = np.random.default_rng(42)
        expected = []
        for tree, output in zip(trees, outputs):
            trunk = tree.trunk()
            rows = [output.lin.slot_of[node] for node in trunk]
            trunk_only = TreeDecodeOutput(
                lin=linearize(tree, trunk), logits=output.logits[rows],
                prefix_len=output.prefix_len)
            expected.append(
                verify_stochastic(trunk_only, tree, sampling, rng))
        assert any(result.paused for result in expected)
        for tree, output, result in zip(trees, outputs, expected):
            if result.paused:
                verify_stochastic(output, tree, sampling, rng, result)

        results = batched(42)
        assert [r.accepted_tokens for r in results] == \
            [r.accepted_tokens for r in expected]
        assert [r.accepted_nodes for r in results] == \
            [r.accepted_nodes for r in expected]
        assert [r.accepted_tokens for r in batched(42)] == \
            [r.accepted_tokens for r in results]

    def test_continued_decoding_matches(self, llm, ssm):
        """After batched verification, each request decodes identically to
        a request verified alone."""
        trees_a, caches_a = build_batch(llm, ssm, np.random.default_rng(4))
        trees_b, caches_b = build_batch(llm, ssm, np.random.default_rng(4))
        batch_results = verify_all(BatchedTreeVerifier(llm), trees_a,
                                   caches_a)
        seq_results = verify_each(BatchedTreeVerifier(llm), trees_b,
                                  caches_b)
        for cache_a, cache_b, batch_result, seq_result in zip(
            caches_a, caches_b, batch_results, seq_results
        ):
            np.testing.assert_allclose(
                llm.decode(batch_result.bonus_token, cache_a),
                llm.decode(seq_result.bonus_token, cache_b),
                atol=1e-12,
            )


class TestBatchedMechanics:
    def test_empty_batch(self, llm):
        assert verify_all(BatchedTreeVerifier(llm), [], []) == []

    def test_mismatched_lengths_raise(self, llm, ssm, rng):
        trees, caches = build_batch(llm, ssm, rng, n_requests=2)
        with pytest.raises(ValueError, match="caches"):
            BatchedTreeVerifier(llm).verify_batch(
                trees, caches[:1], [GREEDY] * 2, [rng] * 2)

    def test_single_request_batch_equals_plain_verifier(self, llm, ssm):
        """A batch of one is the plain tree verifier: the greedy rule over
        ``tree_parallel_decode``'s logits."""
        from repro.verify.greedy import verify_greedy

        trees_a, caches_a = build_batch(llm, ssm, np.random.default_rng(5),
                                        n_requests=1)
        trees_b, caches_b = build_batch(llm, ssm, np.random.default_rng(5),
                                        n_requests=1)
        batch_result = verify_all(BatchedTreeVerifier(llm), trees_a,
                                  caches_a)[0]
        plain = verify_greedy(
            tree_parallel_decode(llm, caches_b[0], trees_b[0]), trees_b[0])
        assert batch_result.accepted_tokens == plain.accepted_tokens
