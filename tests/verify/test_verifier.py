"""Tests for one tree's verification step, especially cache compaction.

The tree verifier is :class:`~repro.engine.batched.BatchedTreeVerifier`;
these tests drive it with a batch of one.
"""

import numpy as np

from repro.engine.batched import BatchedTreeVerifier
from repro.model.sampling import SamplingConfig
from repro.tree.token_tree import TokenTree
from repro.verify.decode import tree_parallel_decode
from tests.conftest import make_prompt

GREEDY = SamplingConfig(greedy=True)


def verify_step(llm, tree, cache, sampling=GREEDY, rng=None,
                use_naive_sampling=False):
    """Verify one tree against ``cache`` (compacting it) and return the
    result."""
    verifier = BatchedTreeVerifier(llm,
                                   use_naive_sampling=use_naive_sampling)
    return verifier.verify_batch([tree], [cache], [sampling], [rng])[0]


def oracle_tree(llm, prompt, depth=3, width=2):
    """A tree whose first branch is the LLM's own greedy continuation."""
    cache = llm.new_cache()
    llm.prefill(prompt[:-1], cache)
    pending = int(prompt[-1])
    tree = TokenTree(pending)
    node = 0
    t = pending
    for d in range(depth):
        t = int(np.argmax(llm.decode(t, cache)))
        node = tree.add_child(node, t)
        # Add a decoy sibling that will not match.
        decoy = (t + 1) % llm.config.vocab_size or 1
        tree.add_child(tree.nodes[node].parent, decoy)
    return tree


class TestVerifyStep:
    def test_cache_grows_by_accepted_path(self, llm, rng):
        prompt = make_prompt(rng, length=5)
        cache = llm.new_cache()
        llm.prefill(prompt[:-1], cache)
        before = cache.length
        tree = oracle_tree(llm, prompt, depth=3)
        result = verify_step(llm, tree, cache)
        assert cache.length == before + len(result.accepted_nodes)
        # Oracle speculation: all 3 speculated tokens accepted.
        assert result.num_accepted_speculated == 3

    def test_compacted_cache_continues_correctly(self, llm, rng):
        """After verification+compaction, further decoding matches a fresh
        cache built from the accepted sequence — the KV rows kept for the
        accepted path must be *exactly* the right ones."""
        prompt = make_prompt(rng, length=5)
        cache = llm.new_cache()
        llm.prefill(prompt[:-1], cache)
        tree = oracle_tree(llm, prompt, depth=2)
        result = verify_step(llm, tree, cache)
        # The verified sequence so far:
        accepted_path_tokens = [int(prompt[-1])] + result.accepted_tokens[:-1]
        full_sequence = list(prompt[:-1]) + accepted_path_tokens
        # Continue decoding from the compacted cache...
        next_logits = llm.decode(result.bonus_token, cache)
        # ...and from a scratch cache over the same sequence.
        ref_cache = llm.new_cache()
        llm.prefill(np.array(full_sequence), ref_cache)
        ref_logits = llm.decode(result.bonus_token, ref_cache)
        np.testing.assert_allclose(next_logits, ref_logits, atol=1e-10)

    def test_root_only_tree_is_incremental_decoding(self, llm, rng):
        prompt = make_prompt(rng, length=4)
        cache = llm.new_cache()
        llm.prefill(prompt[:-1], cache)
        ref_cache = llm.new_cache()
        llm.prefill(prompt[:-1], ref_cache)
        expected = int(np.argmax(llm.decode(int(prompt[-1]), ref_cache)))
        result = verify_step(llm, TokenTree(int(prompt[-1])), cache)
        assert result.accepted_tokens == [expected]
        assert cache.length == len(prompt)

    def test_stochastic_mode_runs(self, llm, rng):
        prompt = make_prompt(rng, length=4)
        cache = llm.new_cache()
        llm.prefill(prompt[:-1], cache)
        tree = TokenTree(int(prompt[-1]))
        tree.add_child(0, 5)
        tree.set_proposal(0, 0, np.full(llm.config.vocab_size,
                                        1 / llm.config.vocab_size))
        result = verify_step(llm, tree, cache, SamplingConfig(temperature=1.0),
                             np.random.default_rng(0))
        result.validate()
        assert len(result.accepted_tokens) >= 1

    def test_naive_sampling_mode_runs(self, llm, rng):
        prompt = make_prompt(rng, length=4)
        cache = llm.new_cache()
        llm.prefill(prompt[:-1], cache)
        tree = TokenTree(int(prompt[-1]))
        tree.add_child(0, 5)
        result = verify_step(llm, tree, cache, SamplingConfig(),
                             np.random.default_rng(0),
                             use_naive_sampling=True)
        result.validate()

    def test_decode_and_verify_returns_output(self, llm, rng):
        """The step decides on exactly the logits ``tree_parallel_decode``
        produces for the same tree and prefix."""
        prompt = make_prompt(rng, length=4)
        cache = llm.new_cache()
        llm.prefill(prompt[:-1], cache)
        ref_cache = llm.new_cache()
        llm.prefill(prompt[:-1], ref_cache)
        tree = TokenTree(int(prompt[-1]))
        result = verify_step(llm, tree, cache)
        output = tree_parallel_decode(llm, ref_cache, tree)
        assert output.logits.shape[0] == 1
        assert result.accepted_tokens[0] == output.greedy_token_for_node(0)
