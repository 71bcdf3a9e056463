"""Lazy tree verification: each trunk in pass 1, then only the subtree
below each accepted fan-out child in pass 2.

Headline property: ``verify_batch`` gives every request the accepted path,
bonus token and cache rows that one pass over its whole tree gives
(Definition 4.1's ``tree_parallel_decode`` plus the request's rule and
compaction), runs a single LLM forward when no walk passes a fan-out, and
a second one exactly as large as the subtrees it still has to score.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.engine.batched import BatchedTreeVerifier
from repro.engine.generation import GenerationConfig
from repro.engine.incremental import IncrementalEngine
from repro.engine.pipeline import (
    DecodePipeline,
    DecodeState,
    FusedBackend,
    TreeFitter,
)
from repro.engine.tree_spec import SpecInferEngine
from repro.model.config import ModelConfig
from repro.model.coupled import CoupledSSM
from repro.model.kv_cache import BatchArena
from repro.model.layers import stable_softmax
from repro.model.sampling import SamplingConfig
from repro.model.transformer import TransformerLM
from repro.obs import REGISTRY
from repro.speculate.expansion import ExpansionConfig, expand_token_tree
from repro.speculate.speculator import Speculator
from repro.tree.token_tree import TokenTree
from repro.verify.decode import tree_parallel_decode
from repro.verify.naive import verify_naive_sampling
from tests.conftest import SMALL_CONFIG, make_prompt, total_variation_distance
from tests.engine.test_block_sparse import (
    assert_caches_equal,
    assert_results_equal,
    reference_verify,
)
from tests.engine.test_pipeline_planner import StubPlanner
from tests.integration.test_packed_sampling_law import tv_bound

GREEDY = SamplingConfig(greedy=True)
STOCHASTIC = SamplingConfig(temperature=1.0)
PAPER = ExpansionConfig.paper_default().widths


@pytest.fixture(scope="module")
def oracle(llm):
    """An SSM that is the LLM: greedy walks accept every top-1 child, so
    they always pass the fan-out."""
    return CoupledSSM(llm, alignment=1.0, seed=3)


def greedy_continuation(llm, prompt, n):
    """The LLM's next ``n`` greedy tokens after ``prompt``."""
    sequence = list(prompt)
    for _ in range(n):
        sequence.append(int(np.argmax(
            llm.logits_for_sequence(np.asarray(sequence))[-1])))
    return sequence[len(prompt):]


class Request:
    """One request's prompt, prefilled into a cache, and its tree."""

    def __init__(self, llm, ssm, seed, widths, prompt_len=6,
                 cache_factory=None, stochastic=False):
        self.prompt = make_prompt(np.random.default_rng(seed),
                                  length=prompt_len)
        self.cache = (cache_factory or llm.new_cache)()
        llm.prefill(self.prompt[:-1], self.cache)
        if widths is None:
            return
        ssm_cache = ssm.new_cache()
        ssm.prefill(self.prompt[:-1], ssm_cache)
        self.tree = expand_token_tree(
            ssm, int(self.prompt[-1]), ssm_cache, ExpansionConfig(widths),
            stochastic=stochastic, rng=np.random.default_rng(seed))


def build(llm, requests, cache_factory=None):
    """Two identical copies of a batch: ``requests`` is
    ``[(ssm, seed, widths, prompt_len), ...]``."""
    return [
        [Request(llm, ssm, seed, widths, length, cache_factory)
         for ssm, seed, widths, length in requests]
        for _ in range(2)
    ]


def rngs(n):
    return [np.random.default_rng(100 + i) for i in range(n)]


def count_forwards(monkeypatch, llm):
    """Rows of each ``forward_masked_blocks`` call on ``llm``."""
    rows = []
    forward = llm.forward_masked_blocks

    def counted(tokens, *args, **kwargs):
        rows.append(len(tokens))
        return forward(tokens, *args, **kwargs)

    monkeypatch.setattr(llm, "forward_masked_blocks", counted)
    return rows


def assert_lazy_equals_single_pass(llm, lazy, single, samplings):
    """Verify ``lazy`` in one batch and ``single`` one request at a time
    over its whole tree; returns the lazy results."""
    n = len(lazy)
    results = BatchedTreeVerifier(llm).verify_batch(
        [r.tree for r in lazy], [r.cache for r in lazy], samplings, rngs(n))
    for request, sampling, rng, result in zip(single, samplings, rngs(n),
                                              results):
        expected = reference_verify(llm, request.tree, request.cache,
                                    sampling, rng)
        assert_results_equal(result, expected)
        assert not result.paused
        result.validate()
    for a, b in zip(lazy, single):
        assert_caches_equal(a.cache, b.cache)
    return results


def passed_fanout(request, result):
    return len(result.accepted_nodes) > len(request.tree.trunk())


class TestLazyEqualsSinglePass:
    """Lazy ≡ one pass over the whole tree, per request."""

    def test_chain_runs_one_forward(self, llm, oracle, ssm, monkeypatch):
        lazy, single = build(llm, [(oracle, 1, (1, 1, 1), 5),
                                   (ssm, 2, (1, 1, 1), 8)])
        rows = count_forwards(monkeypatch, llm)
        assert_lazy_equals_single_pass(llm, lazy, single, [GREEDY] * 2)
        assert rows[:1] == [8]  # both whole chains, one forward
        assert len(rows) == 1 + 2  # the single-pass reference: two more

    @pytest.mark.parametrize("widths", [(2, 2, 1), PAPER],
                             ids=["root_fanout", "paper_default"])
    def test_fanout_trees(self, llm, oracle, ssm, weak_ssm, widths):
        lazy, single = build(llm, [
            (oracle, 3, widths, 4), (ssm, 4, widths, 7),
            (weak_ssm, 5, widths, 9), (oracle, 6, widths, 12)])
        results = assert_lazy_equals_single_pass(llm, lazy, single,
                                                 [GREEDY] * 4)
        assert passed_fanout(lazy[0], results[0])
        assert passed_fanout(lazy[3], results[3])

    def test_fanout_child_that_is_a_leaf(self, llm):
        """The walk passes the fan-out into a leaf: pass 2 scores that one
        row, and the bonus comes from it."""
        copies = []
        for _ in range(2):
            request = Request(llm, None, 7, None)
            g1, g2, _ = greedy_continuation(llm, request.prompt, 3)
            tree = TokenTree(int(request.prompt[-1]))
            a = tree.add_child(0, g1)
            tree.add_child(a, (g2 + 1) % SMALL_CONFIG.vocab_size)
            leaf = tree.add_child(a, g2)
            tree.add_child(int(tree.children(a)[0]), 5)
            assert tree.is_leaf(leaf) and tree.trunk().tolist() == [0, a]
            request.tree = tree
            copies.append([request])
        results = assert_lazy_equals_single_pass(llm, *copies, [GREEDY])
        assert results[0].accepted_nodes == [0, a, leaf]

    def test_tree_pruned_near_max_seq_len(self, llm, oracle):
        """A tree the fitter cut in depth and size at the end of context."""
        length = SMALL_CONFIG.max_seq_len - 7
        lazy, single = build(llm, [(oracle, 8, PAPER, length)])
        fitter = TreeFitter(SMALL_CONFIG.max_seq_len)
        for request in (lazy[0], single[0]):
            request.tree = fitter.fit(request.tree, request.cache)
        tree = lazy[0].tree
        assert len(tree) == 8 and len(tree.trunk()) == 3
        results = assert_lazy_equals_single_pass(llm, lazy, single, [GREEDY])
        assert passed_fanout(lazy[0], results[0])

    def test_mixed_batch_on_one_arena(self, llm, oracle, ssm):
        copies = []
        for _ in range(2):
            arena = BatchArena(SMALL_CONFIG, max_requests=6)
            copies.append([
                Request(llm, model, seed, widths, length,
                        arena.new_sequence, stochastic=stochastic)
                for model, seed, widths, length, stochastic in (
                    (oracle, 9, PAPER, 4, False),
                    (ssm, 10, PAPER, 6, True),
                    (oracle, 11, (2, 2, 1), 5, True),
                    (ssm, 12, (1, 3, 1), 10, False),
                    (oracle, 13, (1, 1), 3, False),
                    (oracle, 14, (1, 2, 1), 8, True),
                )
            ])
        samplings = [GREEDY, STOCHASTIC, STOCHASTIC, GREEDY, GREEDY,
                     STOCHASTIC]
        results = assert_lazy_equals_single_pass(llm, *copies, samplings)
        assert any(passed_fanout(r, res)
                   for r, res in zip(copies[0], results))

    def test_greedy_tokens_over_many_ticks_equal_incremental(self, llm,
                                                             oracle, ssm):
        config = GenerationConfig(max_new_tokens=40, stop_on_eos=False)
        before = REGISTRY.counter("repro.verify.fused.second_passes").value
        for seed, model in ((20, oracle), (21, ssm), (22, ssm)):
            prompt = make_prompt(np.random.default_rng(seed), length=5)
            spec = SpecInferEngine(
                llm, Speculator([model], ExpansionConfig.paper_default()))
            assert (spec.generate(prompt, config).tokens
                    == IncrementalEngine(llm).generate(prompt, config).tokens)
        assert REGISTRY.counter(
            "repro.verify.fused.second_passes").value > before


class TestForwardCount:
    def _mistrunk_tree(self, llm, request, stop_at_fanout):
        """A ⟨1,3,1⟩ tree whose walk ends above the fan-out: at the root
        (wrong trunk child) or at the fan-out node (every child wrong)."""
        g1, g2 = greedy_continuation(llm, request.prompt, 2)
        vocab = SMALL_CONFIG.vocab_size
        tree = TokenTree(int(request.prompt[-1]))
        a = tree.add_child(0, g1 if stop_at_fanout else (g1 + 1) % vocab)
        for k in range(1, 4):
            tree.add_child(tree.add_child(a, (g2 + k) % vocab), 7)
        return tree

    def test_one_forward_when_every_walk_ends_above_the_fanout(
            self, llm, monkeypatch):
        lazy, single = [], []
        for copy in (lazy, single):
            for i in range(4):
                request = Request(llm, None, 30 + i, None, prompt_len=4 + i)
                request.tree = self._mistrunk_tree(llm, request, i % 2 == 1)
                copy.append(request)
        rows = count_forwards(monkeypatch, llm)
        results = assert_lazy_equals_single_pass(llm, lazy, single,
                                                 [GREEDY] * 4)
        assert rows[0] == 4 * 2  # four two-node trunks, and nothing else
        assert len(rows) == 1 + 4
        assert [len(r.accepted_nodes) for r in results] == [1, 2, 1, 2]

    def test_second_forward_scores_only_the_waiting_subtrees(
            self, llm, oracle, weak_ssm, monkeypatch):
        lazy, single = build(llm, [
            (oracle, 40, PAPER, 4), (weak_ssm, 41, PAPER, 6),
            (oracle, 42, (2, 2, 1), 8), (weak_ssm, 43, (2, 2, 1), 5)])
        rows_scored = REGISTRY.counter("repro.verify.fused.tokens_scored")
        second = REGISTRY.counter("repro.verify.fused.second_passes")
        before = (rows_scored.value, second.value)
        rows = count_forwards(monkeypatch, llm)
        results = BatchedTreeVerifier(llm).verify_batch(
            [r.tree for r in lazy], [r.cache for r in lazy], [GREEDY] * 4,
            rngs(4))
        trunks = [r.tree.trunk() for r in lazy]
        waiting = [
            r.tree.dfs_order(res.accepted_nodes[len(trunk)])
            for r, res, trunk in zip(lazy, results, trunks)
            if len(res.accepted_nodes) > len(trunk)
        ]
        assert waiting
        assert rows == [sum(map(len, trunks)), sum(map(len, waiting))]
        assert (rows_scored.value, second.value) == (
            before[0] + sum(rows), before[1] + 1)
        assert sum(rows) < sum(len(r.tree) for r in lazy)


class TestStochastic:
    def test_batch_equals_each_request_alone(self, llm, oracle, ssm):
        def stochastic_batch():
            return [
                Request(llm, model, seed, widths, length, stochastic=True)
                for model, seed, widths, length in (
                    (oracle, 50, PAPER, 4), (ssm, 51, PAPER, 7),
                    (oracle, 52, (2, 2, 1), 5), (ssm, 53, (3, 1), 9))
            ]

        batch, alone = stochastic_batch(), stochastic_batch()
        results = BatchedTreeVerifier(llm).verify_batch(
            [r.tree for r in batch], [r.cache for r in batch],
            [STOCHASTIC] * 4, rngs(4))
        verifier = BatchedTreeVerifier(llm)
        for request, rng, result in zip(alone, rngs(4), results):
            solo = verifier.verify_batch([request.tree], [request.cache],
                                         [STOCHASTIC], [rng])[0]
            assert_results_equal(result, solo)
        for a, b in zip(batch, alone):
            assert_caches_equal(a.cache, b.cache)
        assert any(passed_fanout(r, res) for r, res in zip(batch, results))


    def test_naive_sampling_resumes_like_one_pass(self, llm, oracle):
        """Table 3's baseline walks the same two passes (sampled at top-1,
        so the oracle's children are drawn and walks pass fan-outs)."""
        top1 = SamplingConfig(top_k=1)
        lazy, single = build(llm, [(oracle, 60 + i, PAPER, 4 + i)
                                   for i in range(4)])
        verifier = BatchedTreeVerifier(llm, use_naive_sampling=True)
        results = verifier.verify_batch(
            [r.tree for r in lazy], [r.cache for r in lazy], [top1] * 4,
            rngs(4))
        for request, rng, result in zip(single, rngs(4), results):
            output = tree_parallel_decode(llm, request.cache, request.tree)
            assert_results_equal(result, verify_naive_sampling(
                output, request.tree, top1, rng))
        assert any(passed_fanout(r, res) for r, res in zip(lazy, results))


def third_token_law(llm, prompt):
    """``sum_{t1,t2} p(t1) p(t2 | t1) p(t3 | prompt, t1, t2)``."""
    def next_law(sequence):
        logits = llm.logits_for_sequence(np.asarray(sequence))[-1]
        return stable_softmax(np.asarray(logits, dtype=np.float64))

    law = 0.0
    first = next_law(prompt)
    for t1 in range(first.shape[0]):
        second = next_law(list(prompt) + [t1])
        for t2 in range(second.shape[0]):
            law = law + first[t1] * second[t2] * next_law(
                list(prompt) + [t1, t2])
    return law


def test_third_token_law_through_the_deferred_path(llm):
    """Theorem 4.2 when the walk resumes in pass 2.

    After the prompt pass emits ``t1``, the first tick drafts a ⟨2,2⟩ tree
    from ``t1``: a fan-out at the root, so pass 1 scores only ``t1`` and
    decides ``t2``, and ``t3`` comes from the resumed walk over the
    accepted child's subtree whenever a child was accepted (from the next
    tick otherwise).  Its law must be the LLM's exactly.
    """
    n_requests, batch = 4096, 64
    prompt = make_prompt(np.random.default_rng(5), length=3)
    ssm = CoupledSSM(llm, alignment=0.5, seed=11, noise_scale=2.0)
    pipeline = DecodePipeline(llm, backend=FusedBackend(
        llm, sampling=STOCHASTIC, rng=np.random.default_rng(17)))
    counts = np.zeros(llm.config.vocab_size)
    deferred = 0
    for first_seed in range(0, n_requests, batch):
        states = [
            DecodeState(
                llm, prompt,
                GenerationConfig(max_new_tokens=3, sampling=STOCHASTIC,
                                 stop_on_eos=False, seed=seed),
                speculator=Speculator([ssm], ExpansionConfig((2, 2))),
            )
            for seed in range(first_seed, first_seed + batch)
        ]
        pipeline.prefill(states)
        pipeline.tick(states)
        # Finished already: a root child was accepted and the tick's second
        # token came from pass 2.
        deferred += sum(state.finished for state in states)
        while not all(state.finished for state in states):
            pipeline.tick([s for s in states if not s.finished])
        for state in states:
            counts[state.tokens[2]] += 1
    assert deferred > n_requests // 4
    assert total_variation_distance(
        third_token_law(llm, prompt), counts / n_requests) < tv_bound(
            llm.config.vocab_size, n_requests)


class TestOneCompactionPerPass:
    """``verify_batch`` compacts every cache of a pass in one call; the rows
    it leaves are the rows per-request ``keep_rows`` leaves."""

    def test_equals_per_request_keep_rows_on_a_mixed_batch(
            self, llm, oracle, ssm, monkeypatch):
        import repro.engine.batched as batched

        def per_request(caches, bases, rows):
            for cache, base, keep in zip(caches, bases, rows):
                cache.keep_rows(base, keep)

        copies, results = [], []
        for compaction in (batched.compact, per_request):
            monkeypatch.setattr(batched, "compact", compaction)
            arena = BatchArena(SMALL_CONFIG, max_requests=6)
            batch = [
                Request(llm, model, seed, widths, length, arena.new_sequence,
                        stochastic=stochastic)
                for model, seed, widths, length, stochastic in (
                    (oracle, 70, PAPER, 4, False),
                    (ssm, 71, PAPER, 6, True),
                    (oracle, 72, (2, 2, 1), 5, True),
                    (oracle, 73, (1, 3, 2), 7, False),
                    (ssm, 74, (2, 1), 9, True),
                )
            ]
            results.append(BatchedTreeVerifier(llm).verify_batch(
                [r.tree for r in batch], [r.cache for r in batch],
                [GREEDY, STOCHASTIC, STOCHASTIC, GREEDY, STOCHASTIC],
                rngs(5)))
            copies.append((arena, batch))
        (arena, batch), (per_arena, per_batch) = copies
        for a, b in zip(*results):
            assert_results_equal(a, b)
        for a, b in zip(batch, per_batch):
            assert_caches_equal(a.cache, b.cache)
        for layer in range(SMALL_CONFIG.n_layers):
            for mine, theirs in zip(arena.slabs(layer),
                                    per_arena.slabs(layer)):
                np.testing.assert_array_equal(mine, theirs)
        # Both passes ran: some walk was resumed below a fan-out.
        assert any(passed_fanout(r, res)
                   for r, res in zip(batch, results[0]))


class TestRowsCompacted:
    """``repro.model.arena.rows_compacted`` counts rows that moved."""

    @staticmethod
    def _compacted(llm, tree, request):
        counter = REGISTRY.counter("repro.model.arena.rows_compacted")
        before = counter.value
        result = BatchedTreeVerifier(llm).verify_batch(
            [tree], [request.cache], [GREEDY], rngs(1))[0]
        return counter.value - before, result

    def test_a_chain_accepted_whole_moves_nothing(self, llm):
        request = Request(llm, None, 80, None, prompt_len=5)
        tree = TokenTree(int(request.prompt[-1]))
        tree.add_path(greedy_continuation(llm, request.prompt, 3))
        moved, result = self._compacted(llm, tree, request)
        assert len(result.accepted_nodes) == 4
        assert moved == 0

    def test_an_accepted_fanout_child_moves_its_rows(self, llm):
        request = Request(llm, None, 81, None, prompt_len=5)
        g1, g2, g3 = greedy_continuation(llm, request.prompt, 3)
        vocab = SMALL_CONFIG.vocab_size
        tree = TokenTree(int(request.prompt[-1]))
        tree.add_child(0, (g1 + 1) % vocab)
        a = tree.add_child(0, g1)
        tree.add_child(tree.add_child(a, (g2 + 1) % vocab), 7)
        tree.add_child(tree.add_child(a, g2), g3)
        moved, result = self._compacted(llm, tree, request)
        # Pass 2 lays out a's subtree as [a, decoy, 7, g2, g3]; the path
        # keeps slots [0, 3, 4], so two rows move, in every layer.
        assert result.accepted_tokens[:3] == [g1, g2, g3]
        assert moved == 2 * SMALL_CONFIG.n_layers


def test_third_token_law_through_a_merged_resumed_subtree(llm):
    """Theorem 4.2 when the drafter resumes below the paused walk.

    As above, but the tree merges two SSMs' ⟨2,2⟩ trees: the draft pauses
    at the root's children, and the subtree below the accepted child is
    drafted only then, for each SSM whose tree holds that child, and
    merged in.  ``t3`` comes from that subtree whenever a child was
    accepted; its law must be the LLM's exactly.
    """
    n_requests, batch = 4096, 64
    prompt = make_prompt(np.random.default_rng(6), length=3)
    ssms = [CoupledSSM(llm, alignment=0.5, seed=seed, noise_scale=2.0)
            for seed in (11, 12)]
    pipeline = DecodePipeline(llm, backend=FusedBackend(
        llm, sampling=STOCHASTIC, rng=np.random.default_rng(18)))
    first, grown = {}, []
    speculate_batch = pipeline.packed.speculate_batch

    def spy(states, plan=None, below=None):
        trees = speculate_batch(states, plan, below)
        for state, tree, nodes in zip(states, trees, below):
            if nodes:
                grown.append(len(tree) - first[id(state)])
            else:
                first[id(state)] = len(tree)
        return trees

    pipeline.packed.speculate_batch = spy
    counts = np.zeros(llm.config.vocab_size)
    deferred = 0
    for first_seed in range(0, n_requests, batch):
        states = [
            DecodeState(
                llm, prompt,
                GenerationConfig(max_new_tokens=3, sampling=STOCHASTIC,
                                 stop_on_eos=False, seed=seed),
                speculator=Speculator(ssms, ExpansionConfig((2, 2))),
            )
            for seed in range(first_seed, first_seed + batch)
        ]
        pipeline.prefill(states)
        pipeline.tick(states)
        deferred += sum(state.finished for state in states)
        while not all(state.finished for state in states):
            pipeline.tick([s for s in states if not s.finished])
        for state in states:
            counts[state.tokens[2]] += 1
    assert deferred > n_requests // 4
    # Below some paused child, both SSMs' children were drafted and merged.
    assert max(grown) > 2
    assert total_variation_distance(
        third_token_law(llm, prompt), counts / n_requests) < tv_bound(
            llm.config.vocab_size, n_requests)


# -- lazy drafting ---------------------------------------------------------------

#: Shapes whose first fan-out is at level 0, 1 or 2, and a chain.
DRAFT_SHAPES = [(2, 1, 1), (3, 2), (1, 2, 1, 1), (1, 2, 2), PAPER,
                (1, 1, 2, 2), (1, 1, 1)]


@pytest.fixture(scope="module")
def small_ssm():
    return TransformerLM(
        ModelConfig(vocab_size=64, d_model=16, n_layers=1, n_heads=2,
                    max_seq_len=96), seed=9)


def _speculator(kind, llm, small, alignment, widths):
    def coupled(seed):
        return CoupledSSM(llm, alignment=alignment, seed=seed,
                          noise_scale=2.0)

    ssms = {"transformer": lambda: [small],
            "coupled": lambda: [coupled(7)],
            "merged": lambda: [small, coupled(8)],
            "merged_one_base": lambda: [coupled(7), coupled(8)]}[kind]()
    return Speculator(ssms, ExpansionConfig(widths))


class _Recorder(FusedBackend):
    """Each request's own sampling and stream; keeps every tick's results
    and the trees as verified, resumed subtrees in."""

    def __init__(self, model):
        super().__init__(model)
        self.ticks = []

    def verify(self, states, trees, resume=None):
        final = list(trees)

        def grown(indices, nodes):
            trees = resume(indices, nodes)
            for i, tree in zip(indices, trees):
                final[i] = tree
            return trees

        results = super().verify(states, trees,
                                 resume=None if resume is None else grown)
        self.ticks.append(list(zip(final, results)))
        return results


def resume_every_frontier_node(pipeline):
    """The eager reference: when the verifier asks for the subtree below
    a paused walk's node, the drafter first completes the subtree below
    every child of the state's first fan-out (so below every frontier
    node), one node per call, and the verifier gets the first stage with
    the paused node's subtree from that.  A graft renumbers the nodes
    after the grafted subtree, so each node is found by its token path in
    the tree the drafter last returned."""
    speculate_batch = pipeline.packed.speculate_batch
    first = {}

    def every(states, plan=None, below=None):
        if below is None or not any(below):
            trees = speculate_batch(states, plan, below)
            if below is not None:
                first.update((id(state), tree)
                             for state, tree in zip(states, trees))
            return trees
        grown = []
        for state, nodes in zip(states, below):
            tree = latest = first[id(state)]
            depth = len(tree.trunk())
            for node in np.flatnonzero(tree.depths == depth).tolist():
                latest, = speculate_batch([state], below=[(
                    latest.find(tree.sequence_of(node)),)])
            for node in nodes:
                tree = tree.graft(node, latest.subtree(
                    latest.find(tree.sequence_of(node))))
            grown.append(tree)
        return grown

    pipeline.packed.speculate_batch = every
    return pipeline


REQUEST = st.tuples(
    st.sampled_from(["transformer", "coupled", "merged",
                     "merged_one_base"]),
    st.booleans(),                      # greedy
    st.integers(min_value=3, max_value=12),  # prompt length
    st.sampled_from(DRAFT_SHAPES),
)


class TestLazyDraftingEqualsEager:
    """Drafting below a fan-out only for the walks that enter it gives each
    request what drafting below every frontier node gives."""

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(requests=st.lists(REQUEST, min_size=1, max_size=7),
           near_end=st.integers(min_value=2, max_value=26),
           alignment=st.sampled_from([0.6, 1.0]),
           plan=st.sampled_from([None] + DRAFT_SHAPES),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_every_walk_sees_what_eager_drafting_gives(
            self, llm, small_ssm, requests, near_end, alignment, plan,
            seed):
        # One more request, near the end of the LLM's context.
        requests = requests + [("coupled", seed % 2 == 0,
                                SMALL_CONFIG.max_seq_len - near_end,
                                PAPER)]

        def states():
            made = []
            for r, (kind, greedy, length, widths) in enumerate(requests):
                sampling = GREEDY if greedy else STOCHASTIC
                made.append(DecodeState(
                    llm, make_prompt(np.random.default_rng(seed + r),
                                     length=length),
                    GenerationConfig(max_new_tokens=40, sampling=sampling,
                                     stop_on_eos=False, seed=seed + r),
                    speculator=_speculator(kind, llm, small_ssm, alignment,
                                           widths)))
            return made

        runs = []
        for reference in (False, True):
            backend = _Recorder(llm)
            pipeline = DecodePipeline(
                llm, backend=backend,
                planner=None if plan is None else StubPlanner(plan))
            if reference:
                resume_every_frontier_node(pipeline)
            drafted = states()
            for _ in range(2):
                pipeline.tick([s for s in drafted if not s.finished])
            runs.append((drafted, backend.ticks))
        (lazy, lazy_ticks), (eager, eager_ticks) = runs
        event("some walk passed a fan-out" if any(
            result.num_accepted_speculated >= len(tree.trunk())
            for tick in lazy_ticks for tree, result in tick)
            else "no walk passed a fan-out")

        assert len(lazy_ticks) == len(eager_ticks)
        for tick, ref_tick in zip(lazy_ticks, eager_ticks):
            assert len(tick) == len(ref_tick)
            for (tree, result), (ref_tree, ref) in zip(tick, ref_tick):
                assert result.accepted_tokens == ref.accepted_tokens
                assert result.bonus_token == ref.bonus_token
                assert (result.num_candidates_considered
                        == ref.num_candidates_considered)
                assert result.num_rejections == ref.num_rejections
                # Nodes below a fan-out are numbered as they were drafted;
                # the walks are the same token paths, drawn from the same
                # SSM distributions (to BLAS's last ulps, which differ
                # between one-row and many-row levels).
                path = tree.tokens[result.accepted_nodes].tolist()
                assert path == ref_tree.tokens[ref.accepted_nodes].tolist()
                for node, ref_node in zip(result.accepted_nodes[1:],
                                          ref.accepted_nodes[1:]):
                    mine = tree.proposal_for(node)
                    theirs = ref_tree.proposal_for(ref_node)
                    assert (mine is None) == (theirs is None)
                    if mine is not None:
                        np.testing.assert_allclose(mine, theirs, rtol=0,
                                                   atol=1e-12)
        for state, ref in zip(lazy, eager):
            assert state.tokens == ref.tokens
            assert state.cache.length == ref.cache.length
            for layer, ref_layer in zip(state.cache.layers,
                                        ref.cache.layers):
                for mine, theirs in zip(layer.view(), ref_layer.view()):
                    np.testing.assert_array_equal(mine, theirs)
            assert (state.rng.bit_generator.state
                    == ref.rng.bit_generator.state)
