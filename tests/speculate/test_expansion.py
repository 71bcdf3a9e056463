"""Tests for expansion configurations and expansion-based tree construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.sampling import inverse_cdf_tokens
from repro.speculate.expansion import ExpansionConfig, expand_token_tree
from tests.conftest import make_prompt


class TestExpansionConfig:
    def test_paper_default(self):
        config = ExpansionConfig.paper_default()
        assert config.widths == (1, 1, 3, 1, 1, 1, 1, 1)
        assert config.depth == 8
        assert config.num_sequences == 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ExpansionConfig(())

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            ExpansionConfig((1, 0, 1))

    def test_width_sweep(self):
        config = ExpansionConfig.width_sweep(4, depth=8, expand_step=2)
        assert config.widths == (1, 1, 4, 1, 1, 1, 1, 1)
        assert config.num_sequences == 4

    def test_width_sweep_bad_step(self):
        with pytest.raises(ValueError):
            ExpansionConfig.width_sweep(2, depth=4, expand_step=4)

    def test_sequence_config(self):
        config = ExpansionConfig.sequence(5)
        assert config.widths == (1,) * 5
        assert config.num_sequences == 1

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_max_tree_tokens_formula(self, widths):
        config = ExpansionConfig(tuple(widths))
        total = 0
        frontier = 1
        for k in widths:
            frontier *= k
            total += frontier
        assert config.max_tree_tokens() == total


    @given(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_level_offsets_tile_the_uniform_block(self, widths):
        """Level ``d`` owns one uniform per candidate the full tree could
        hold there, and the levels partition ``max_tree_tokens()``."""
        config = ExpansionConfig(tuple(widths))
        offsets = config.level_offsets()
        assert offsets[0] == 0
        frontier = 1
        for level, k in enumerate(widths):
            frontier *= k
            end = (offsets[level + 1] if level + 1 < len(widths)
                   else config.max_tree_tokens())
            assert end - offsets[level] == frontier


class TestExpandTokenTree:
    def test_shape_follows_config(self, llm, ssm, rng):
        prompt = make_prompt(rng, length=5)
        cache = ssm.new_cache()
        ssm.prefill(prompt[:-1], cache)
        config = ExpansionConfig((2, 1))
        tree = expand_token_tree(ssm, int(prompt[-1]), cache, config)
        tree.validate()
        assert tree.max_depth() <= 2
        assert len(tree.nodes[0].children) == 2
        for child in tree.nodes[0].children:
            assert len(tree.nodes[child].children) == 1

    def test_children_are_ssm_top_k(self, llm, ssm, rng):
        prompt = make_prompt(rng, length=5)
        cache = ssm.new_cache()
        ssm.prefill(prompt[:-1], cache)
        probe_cache = ssm.new_cache()
        ssm.prefill(prompt[:-1], probe_cache)
        logits = ssm.decode(int(prompt[-1]), probe_cache)
        top3 = set(np.argsort(logits)[::-1][:3].tolist())
        tree = expand_token_tree(
            ssm, int(prompt[-1]), cache, ExpansionConfig((3,))
        )
        child_tokens = {tree.nodes[c].token for c in tree.nodes[0].children}
        assert child_tokens == top3

    def test_cache_restored_on_return(self, ssm, rng):
        prompt = make_prompt(rng, length=5)
        cache = ssm.new_cache()
        ssm.prefill(prompt[:-1], cache)
        before = cache.snapshot()
        expand_token_tree(ssm, int(prompt[-1]), cache,
                          ExpansionConfig((2, 2, 1)))
        assert cache.snapshot() == before

    def test_proposals_recorded_at_internal_nodes(self, ssm, rng):
        prompt = make_prompt(rng, length=4)
        cache = ssm.new_cache()
        ssm.prefill(prompt[:-1], cache)
        tree = expand_token_tree(ssm, int(prompt[-1]), cache,
                                 ExpansionConfig((2, 1)))
        for idx, node in enumerate(tree.nodes):
            if node.children:
                assert 0 in node.proposals, f"node {idx} missing proposal"
                probs = node.proposals[0]
                assert probs.sum() == pytest.approx(1.0)

    def test_deterministic(self, ssm, rng):
        prompt = make_prompt(rng, length=4)
        trees = []
        for _ in range(2):
            cache = ssm.new_cache()
            ssm.prefill(prompt[:-1], cache)
            trees.append(
                expand_token_tree(ssm, int(prompt[-1]), cache,
                                  ExpansionConfig((2, 2)))
            )
        assert trees[0].sequences() == trees[1].sequences()

    def test_works_with_plain_transformer_as_ssm(self, llm, rng):
        """A TransformerLM itself satisfies the SSM protocol."""
        prompt = make_prompt(rng, length=4)
        cache = llm.new_cache()
        llm.prefill(prompt[:-1], cache)
        tree = expand_token_tree(llm, int(prompt[-1]), cache,
                                 ExpansionConfig((2, 1)))
        tree.validate()
        assert len(tree) == 5  # root + 2 + 2


class TestStochasticDraws:
    """A sampled tree is a function of (stream, config), not of visiting
    order (the packed level-by-level builder is checked against this loop
    in ``tests/engine/test_zero_alloc.py``)."""

    CONFIG = ExpansionConfig((2, 2, 2))

    def _tree(self, ssm, prompt, rng, **kwargs):
        cache = ssm.new_cache()
        ssm.prefill(prompt[:-1], cache)
        return expand_token_tree(ssm, int(prompt[-1]), cache, self.CONFIG,
                                 stochastic=True, rng=rng, **kwargs)

    @pytest.mark.parametrize("max_tokens", [None, 0, 3])
    def test_a_call_takes_one_block_sized_by_the_config(self, ssm, rng,
                                                        max_tokens):
        """Merged duplicates, budgets and capacity stops shrink the tree,
        never the draw: the stream ends where the next call expects it."""
        prompt = make_prompt(rng, length=5)
        used, fresh = (np.random.default_rng(4) for _ in range(2))
        self._tree(ssm, prompt, used, max_tokens=max_tokens)
        fresh.random(self.CONFIG.max_tree_tokens())
        assert used.random() == fresh.random()

    def test_children_are_inverse_cdf_draws_of_the_recorded_proposal(
            self, ssm, rng):
        prompt = make_prompt(rng, length=5)
        tree = self._tree(ssm, prompt, np.random.default_rng(8))
        uniforms = np.random.default_rng(8).random(
            self.CONFIG.max_tree_tokens())
        offsets = self.CONFIG.level_offsets()

        def check(node, level, path):
            if not tree.nodes[node].children:
                return
            width = self.CONFIG.widths[level]
            lo = offsets[level] + path * width
            drawn = inverse_cdf_tokens(tree.nodes[node].proposals[0],
                                       uniforms[lo : lo + width]).tolist()
            children = tree.nodes[node].children
            # Children in first-draw order; a repeat merges into the first.
            assert ([tree.nodes[c].token for c in children]
                    == list(dict.fromkeys(drawn)))
            for child in children:
                rank = drawn.index(tree.nodes[child].token)
                check(child, level + 1, path * width + rank)

        check(0, 0, 0)
