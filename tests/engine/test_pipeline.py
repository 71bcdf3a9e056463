"""Tests for the unified decode pipeline core.

The architecture invariants the refactor promises: one tree-fit/prune home
(:class:`TreeFitter`), one :class:`StepTrace` construction site
(:class:`TraceRecorder`), and incremental decoding as the pipeline's
degenerate one-node-tree case.
"""

import pathlib

import numpy as np

from repro.engine.generation import GenerationConfig
from repro.engine.pipeline import (
    DecodePipeline,
    DecodeState,
    FusedBackend,
    IncrementalBackend,
    TreeFitter,
    prune_to_size,
)
from repro.model.coupled import CoupledSSM
from repro.speculate.expansion import ExpansionConfig
from repro.speculate.speculator import Speculator
from repro.tree.token_tree import TokenTree
from tests.conftest import make_prompt

SRC_ROOT = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def make_speculator(llm):
    return Speculator(
        [CoupledSSM(llm, alignment=0.9, seed=7, noise_scale=2.0)],
        ExpansionConfig((1, 2, 1)),
    )


class TestPruneToSize:
    def test_prune_keeps_root_and_limit(self):
        tree = TokenTree(1)
        a = tree.add_child(0, 2)
        tree.add_child(0, 3)
        tree.add_child(a, 4)
        tree.add_child(a, 5)
        pruned = prune_to_size(tree, 3)
        pruned.validate()
        assert len(pruned) == 3
        assert pruned.root.token == 1

    def test_wide_tree_pruned_in_bfs_order(self):
        """Regression for the deque rewrite: a wide tree must keep exactly
        the first ``limit`` nodes in breadth-first order — all of one level
        (in child order) before any of the next."""
        tree = TokenTree(0)
        level_one = [tree.add_child(0, 10 + i) for i in range(6)]
        for j, parent in enumerate(level_one):
            tree.add_child(parent, 100 + j)
        # Root + the first 4 level-one children, no level-two nodes.
        pruned = prune_to_size(tree, 5)
        pruned.validate()
        tokens = sorted(node.token for node in pruned.nodes)
        assert tokens == [0, 10, 11, 12, 13]
        # One more slot admits the next sibling, still not a grandchild.
        pruned = prune_to_size(tree, 7)
        tokens = sorted(node.token for node in pruned.nodes)
        assert tokens == [0, 10, 11, 12, 13, 14, 15]
        # Past the full level, BFS descends to the children's children.
        pruned = prune_to_size(tree, 8)
        assert 100 in [node.token for node in pruned.nodes]

    def test_depth_bound_drops_deep_nodes(self):
        tree = TokenTree(0)
        a = tree.add_child(0, 1)
        b = tree.add_child(a, 2)
        tree.add_child(b, 3)
        pruned = prune_to_size(tree, 10, max_depth=1)
        assert len(pruned) == 2
        assert pruned.max_depth() == 1


class TestTreeFitter:
    def test_passthrough_when_tree_fits(self, llm):
        fitter = TreeFitter(llm.config.max_seq_len)
        cache = llm.new_cache()
        tree = TokenTree(1)
        tree.add_child(0, 2)
        assert fitter.fit(tree, cache) is tree

    def test_prunes_to_available_rows(self, llm, rng):
        fitter = TreeFitter(llm.config.max_seq_len)
        cache = llm.new_cache()
        llm.prefill(make_prompt(rng, length=llm.config.max_seq_len - 2), cache)
        tree = TokenTree(1)
        a = tree.add_child(0, 2)
        tree.add_child(a, 3)
        fitted = fitter.fit(tree, cache)
        assert fitted is not None
        assert len(fitted) <= cache.capacity - cache.length
        assert fitted.max_depth() <= llm.config.max_seq_len - 1 - cache.length

    def test_returns_none_when_cache_full(self, llm, rng):
        fitter = TreeFitter(llm.config.max_seq_len)
        cache = llm.new_cache()
        llm.prefill(make_prompt(rng, length=llm.config.max_seq_len), cache)
        assert fitter.fit(TokenTree(1), cache) is None


class TestSingleTraceSite:
    def test_step_trace_constructed_only_in_recorder(self):
        """The acceptance invariant behind the TraceRecorder: exactly one
        ``StepTrace(`` construction site in the whole source tree."""
        sites = []
        for path in sorted(SRC_ROOT.rglob("*.py")):
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                if "StepTrace(" in line:
                    sites.append(f"{path.relative_to(SRC_ROOT)}:{lineno}")
        assert len(sites) == 1, sites
        assert sites[0].startswith("engine/pipeline.py"), sites

    def test_serving_constructs_one_pipeline(self):
        """One manager, one pipeline: a single ``DecodePipeline(`` site in
        the serving package (the manager's), none in the sessions."""
        sites = [
            path.name
            for path in sorted((SRC_ROOT / "serving").glob("*.py"))
            for line in path.read_text().splitlines()
            if "DecodePipeline(" in line
        ]
        assert sites == ["manager.py"]


class TestIncrementalBackend:
    def test_matches_manual_decode(self, llm, rng):
        prompt = make_prompt(rng, length=5)
        state = DecodeState(llm, prompt, GenerationConfig(max_new_tokens=6,
                                                          stop_on_eos=False))
        pipeline = DecodePipeline(llm, IncrementalBackend(llm))
        pipeline.run_to_completion(state)

        cache = llm.new_cache()
        llm.prefill(prompt[:-1], cache)
        token = int(prompt[-1])
        expected = []
        for _ in range(6):
            token = int(np.argmax(llm.decode(token, cache)))
            expected.append(token)
        assert state.tokens == expected

    def test_records_incremental_trace_shape(self, llm, rng):
        state = DecodeState(llm, make_prompt(rng, length=4),
                            GenerationConfig(max_new_tokens=3,
                                             stop_on_eos=False))
        DecodePipeline(llm, IncrementalBackend(llm)).run_to_completion(state)
        # Three tokens: one from the prompt pass (no trace), two decode steps.
        assert len(state.tokens) == 3 and len(state.steps) == 2
        for step in state.steps:
            assert step.llm_tokens_scored == 1
            assert step.tokens_emitted == 1
            assert step.ssm_steps == 0
            assert step.tree_size == 0

    def test_equals_one_node_tree_through_tree_verifier(self, llm, rng):
        """Algorithm 1 really is the degenerate tree: a speculator-free
        state through IncrementalBackend matches a width-0 'tree' pass
        through the tree verifier, token for token."""
        prompt = make_prompt(rng, length=5)
        config = GenerationConfig(max_new_tokens=8, stop_on_eos=False)
        inc_state = DecodeState(llm, prompt, config)
        DecodePipeline(llm, IncrementalBackend(llm)).run_to_completion(inc_state)

        from repro.engine.batched import BatchedTreeVerifier

        cache = llm.new_cache()
        llm.prefill(prompt[:-1], cache)
        verifier = BatchedTreeVerifier(llm)
        pending = int(prompt[-1])
        tokens = []
        while len(tokens) < 8:
            result = verifier.verify_batch([TokenTree(pending)], [cache],
                                           [config.sampling], [None])[0]
            tokens.extend(int(t) for t in result.accepted_tokens)
            pending = result.bonus_token
        assert inc_state.tokens == tokens[:8]


class TestPipelineTick:
    def test_finished_state_is_skipped(self, llm, rng):
        state = DecodeState(llm, make_prompt(rng),
                            GenerationConfig(max_new_tokens=2,
                                             stop_on_eos=False))
        pipeline = DecodePipeline(llm, IncrementalBackend(llm))
        pipeline.prefill([state])
        first = pipeline.tick([state])[0]
        assert first.advanced and len(first.emitted) == 1
        second = pipeline.tick([state])[0]
        assert not second.advanced and second.emitted == []
        assert len(state.steps) == 1

    def test_cold_state_takes_the_prompt_pass_inside_its_first_tick(
            self, llm, rng):
        """Nobody prefilled the state: the tick does, and the prompt pass's
        token leads the tick's delta.  A one-token budget ends there."""
        config = GenerationConfig(max_new_tokens=1, stop_on_eos=False)
        prompt = make_prompt(rng)
        state = DecodeState(llm, prompt, config)
        assert state.pending is None and state.cache.length == 0
        outcome = DecodePipeline(llm, IncrementalBackend(llm)).tick([state])[0]
        assert not outcome.advanced and outcome.finished
        assert outcome.emitted == state.tokens and len(state.tokens) == 1
        assert state.steps == [] and state.cache.length == len(prompt)

        longer = DecodeState(llm, prompt, GenerationConfig(
            max_new_tokens=4, stop_on_eos=False))
        outcome = DecodePipeline(llm, IncrementalBackend(llm)).tick([longer])[0]
        assert outcome.advanced and outcome.emitted == longer.tokens
        assert longer.tokens[0] == state.tokens[0] and len(longer.tokens) == 2

    def test_context_exhaustion_marks_retired(self, llm, rng):
        """When not even a one-node tree fits, the tick retires the state
        instead of looping forever."""
        prompt = make_prompt(rng, length=llm.config.max_seq_len - 1)
        state = DecodeState(
            llm, prompt,
            GenerationConfig(max_new_tokens=500, stop_on_eos=False),
            speculator=make_speculator(llm),
        )
        pipeline = DecodePipeline(llm, FusedBackend(llm))
        pipeline.run_to_completion(state)
        assert state.retired
        assert state.finished
        # The cache filled to the model's context limit, no further.
        assert state.cache.length == llm.config.max_seq_len
        assert len(state.tokens) < 500

    def test_speculative_tick_can_emit_multiple_tokens(self, llm, rng):
        state = DecodeState(llm, make_prompt(rng, length=5),
                            GenerationConfig(max_new_tokens=12,
                                             stop_on_eos=False),
                            speculator=make_speculator(llm))
        pipeline = DecodePipeline(llm)
        # Cold: prompt pass + depth-3 tree + bonus; then tree + bonus.
        assert 2 <= len(pipeline.tick([state])[0].emitted) <= 5
        assert 1 <= len(pipeline.tick([state])[0].emitted) <= 4

    def test_speculative_state_respects_budget_exactly(self, llm, rng):
        state = DecodeState(llm, make_prompt(rng),
                            GenerationConfig(max_new_tokens=5,
                                             stop_on_eos=False),
                            speculator=make_speculator(llm))
        DecodePipeline(llm).run_to_completion(state)
        assert len(state.tokens) == 5

    def test_mixed_batch_advances_independent_states(self, llm, rng):
        states = [
            DecodeState(llm, make_prompt(rng, length=4 + i),
                        GenerationConfig(max_new_tokens=4, stop_on_eos=False),
                        speculator=make_speculator(llm))
            for i in range(3)
        ]
        pipeline = DecodePipeline(llm, FusedBackend(llm))
        outcomes = pipeline.tick(states)
        assert all(o.advanced for o in outcomes)
        assert all(len(s.steps) == 1 for s in states)
