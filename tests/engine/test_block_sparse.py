"""Equivalence and perf-regression suite for the one tree verifier.

Headline property: the three execution paths —

1. batch (``BatchedTreeVerifier.verify_batch`` over every request at once),
2. solo (the same verifier run on each request alone, a batch of one),
3. reference (``tree_parallel_decode`` — Definition 4.1 — plus the
   request's verification rule and cache compaction, on a contiguous cache)

— give each request the same :class:`VerificationResult` and cache rows,
for greedy, stochastic and mixed batches (every request verified under its
own sampling config and RNG), over contiguous, paged and arena caches,
including ragged batches.  The ``perf_smoke`` tests additionally pin the
fused pass's cost shape (score FLOPs only inside each request's own block,
no KV staging copies on an arena, allocation-free steady-state masks) so
future changes cannot silently reintroduce a quadratic path.
"""

import numpy as np
import pytest

from repro.engine.batched import BatchedTreeVerifier, _BatchLayout
from repro.engine.pipeline import FusedBackend
from repro.model import perf
from repro.model.arena import BatchArena
from repro.model.paged_cache import PagedKVPool
from repro.model.sampling import SamplingConfig
from repro.speculate.expansion import ExpansionConfig, expand_token_tree
from repro.tree.token_tree import TokenTree
from repro.verify.decode import tree_parallel_decode
from repro.verify.greedy import verify_greedy
from repro.verify.stochastic import verify_stochastic
from tests.conftest import SMALL_CONFIG, make_prompt

GREEDY = SamplingConfig(greedy=True)
STOCHASTIC = SamplingConfig(temperature=1.0)

#: ``(prompt length, expansion widths)`` per request; ``()`` is a root-only
#: tree.
DEFAULT_SHAPES = ((4, (2, 2, 1)), (6, (2, 2, 1)), (8, (2, 2, 1)))


def build_batch(llm, ssm, rng, cache_factory=None, shapes=DEFAULT_SHAPES):
    """Per-request (tree, cache) pairs with distinct prefix lengths."""
    factory = cache_factory or llm.new_cache
    trees, caches = [], []
    for length, widths in shapes:
        prompt = make_prompt(rng, length=length)
        cache = factory()
        llm.prefill(prompt[:-1], cache)
        if widths:
            ssm_cache = ssm.new_cache()
            ssm.prefill(prompt[:-1], ssm_cache)
            tree = expand_token_tree(
                ssm, int(prompt[-1]), ssm_cache, ExpansionConfig(widths),
            )
        else:
            tree = TokenTree(int(prompt[-1]))
        trees.append(tree)
        caches.append(cache)
    return trees, caches


def samplings_for(kind, n):
    """``greedy`` / ``stochastic`` for every request, or alternating."""
    if kind == "mixed":
        return [(GREEDY, STOCHASTIC)[i % 2] for i in range(n)]
    return [GREEDY if kind == "greedy" else STOCHASTIC] * n


def reference_verify(llm, tree, cache, sampling, rng):
    """Definition 4.1's tree decode, the verification rule, compaction."""
    output = tree_parallel_decode(llm, cache, tree)
    if sampling.greedy:
        result = verify_greedy(output, tree)
    else:
        result = verify_stochastic(output, tree, sampling, rng)
    cache.keep_rows(output.prefix_len,
                    [output.lin.slot_of[n] for n in result.accepted_nodes])
    return result


def run_path(path, llm, trees, caches, samplings):
    """Verify along ``path``; request ``i`` draws from ``default_rng(42+i)``."""
    rngs = [np.random.default_rng(42 + i) for i in range(len(trees))]
    batch = list(zip(trees, caches, samplings, rngs))
    if path == "batch":
        return BatchedTreeVerifier(llm).verify_batch(trees, caches,
                                                     samplings, rngs)
    if path == "solo":
        verifier = BatchedTreeVerifier(llm)
        return [verifier.verify_batch([t], [c], [s], [r])[0]
                for t, c, s, r in batch]
    return [reference_verify(llm, *request) for request in batch]


def assert_results_equal(a, b):
    assert a.accepted_tokens == b.accepted_tokens
    assert a.accepted_nodes == b.accepted_nodes
    assert a.bonus_token == b.bonus_token


def assert_caches_equal(cache_a, cache_b):
    assert cache_a.length == cache_b.length
    for la, lb in zip(cache_a.layers, cache_b.layers):
        ka, va = la.view()
        kb, vb = lb.view()
        np.testing.assert_allclose(ka, kb, atol=1e-12)
        np.testing.assert_allclose(va, vb, atol=1e-12)


def assert_three_paths_agree(llm, ssm, seed, kind="greedy",
                             cache_factory=None, shapes=DEFAULT_SHAPES):
    """Run every path on its own copy of one batch (the reference on
    contiguous caches, the others on ``cache_factory``'s); returns each
    path's ``(results, caches)``."""
    runs = {}
    for path in ("reference", "solo", "batch"):
        trees, caches = build_batch(
            llm, ssm, np.random.default_rng(seed),
            cache_factory=None if path == "reference" else cache_factory,
            shapes=shapes)
        runs[path] = (run_path(path, llm, trees, caches,
                               samplings_for(kind, len(trees))), caches)
    ref_results, ref_caches = runs["reference"]
    for path in ("solo", "batch"):
        results, caches = runs[path]
        for res, ref in zip(results, ref_results):
            assert_results_equal(res, ref)
        for cache, ref_cache in zip(caches, ref_caches):
            assert_caches_equal(cache, ref_cache)
    return runs


class TestThreePathEquivalence:
    """batch == solo == reference, bit for bit, per request."""

    @pytest.mark.parametrize("kind", ["greedy", "stochastic", "mixed"])
    def test_results_identical_across_paths(self, llm, ssm, kind):
        assert_three_paths_agree(llm, ssm, 11, kind)

    @pytest.mark.parametrize("kind", ["greedy", "stochastic"])
    def test_paged_caches(self, llm, ssm, kind):
        pool = PagedKVPool(SMALL_CONFIG, num_blocks=64, block_size=8)
        assert_three_paths_agree(llm, ssm, 12, kind,
                                 cache_factory=pool.new_sequence)

    def test_arena_caches(self, llm, ssm):
        arena = BatchArena(SMALL_CONFIG, max_requests=6)
        assert_three_paths_agree(llm, ssm, 13,
                                 cache_factory=arena.new_sequence)

    def test_ragged_batch_mixed_prefixes_and_tree_sizes(self, llm, ssm):
        """Strongly ragged batch: prefix lengths 2..14, tree widths vary."""
        assert_three_paths_agree(
            llm, ssm, 14, "mixed",
            shapes=((2, (1,)), (9, (3, 2, 1)), (14, (2,)), (5, (2, 2, 2))))

    def test_single_request_batch(self, llm, ssm):
        assert_three_paths_agree(llm, ssm, 15, "stochastic",
                                 shapes=DEFAULT_SHAPES[:1])

    def test_root_only_tree_edge_case(self, llm, ssm):
        """A degenerate single-node tree (no speculation) in the batch."""
        runs = assert_three_paths_agree(
            llm, ssm, 16, shapes=DEFAULT_SHAPES[:2] + ((5, ()),))
        # The root-only request always accepts exactly the root.
        assert len(runs["batch"][0][-1].accepted_nodes) == 1

    def test_empty_batch(self, llm):
        assert BatchedTreeVerifier(llm).verify_batch([], [], [], []) == []

    def test_unknown_mode_raises(self, llm):
        with pytest.raises(ValueError, match="mode"):
            FusedBackend(llm, mode="sparse-ish")

    def test_continued_decoding_matches(self, llm, ssm):
        """After batched verification, requests decode identically."""
        runs = assert_three_paths_agree(llm, ssm, 17)
        (results, caches), (_, ref_caches) = runs["batch"], runs["reference"]
        for res, cache, ref_cache in zip(results, caches, ref_caches):
            np.testing.assert_allclose(
                llm.decode(res.bonus_token, cache),
                llm.decode(res.bonus_token, ref_cache),
                atol=1e-12,
            )


class TestBatchLayout:
    def test_layout_geometry(self, llm, ssm):
        trees, caches = build_batch(llm, ssm, np.random.default_rng(18))
        from repro.engine.batched import _BatchItem
        from repro.tree.masks import linearize

        items = [
            _BatchItem(tree=t, cache=c, lin=linearize(t),
                       prefix_len=c.length)
            for t, c in zip(trees, caches)
        ]
        layout = _BatchLayout.from_items(items)
        assert layout.new_counts == tuple(len(t) for t in trees)
        assert layout.priors == tuple(c.length for c in caches)
        assert layout.n_total == sum(layout.new_counts)
        assert layout.row_offsets[-1] == layout.n_total


def score_flops(cells):
    """Attention FLOPs (scores + weighted sum) for ``cells`` query/key
    pairs in every layer of the test LLM."""
    cfg = SMALL_CONFIG
    return 2 * 2 * cfg.n_heads * cfg.d_head * cfg.n_layers * cells


@pytest.mark.perf_smoke
class TestPerfSmoke:
    """Counter-based regression guards for the block-sparse cost shape."""

    def _tracked_batch(self, llm, ssm, cache_factory=None):
        """One greedy batch step's counters, and each request's
        ``(tree tokens, prefix rows)``."""
        trees, caches = build_batch(llm, ssm, np.random.default_rng(20),
                                    cache_factory=cache_factory)
        shape = [(len(t), c.length) for t, c in zip(trees, caches)]
        with perf.track() as counters:
            run_path("batch", llm, trees, caches, samplings_for("greedy", 3))
        return counters, shape

    def test_block_path_no_cross_request_flops_and_no_kv_copies(
        self, llm, ssm
    ):
        """Scores exactly the per-request diagonal blocks, copies no K/V."""
        arena = BatchArena(SMALL_CONFIG, max_requests=3)
        counters, shape = self._tracked_batch(llm, ssm, arena.new_sequence)
        assert counters.attn_score_flops == score_flops(
            sum(n * (p + n) for n, p in shape))
        assert counters.kv_bytes_copied == 0

    def test_paged_path_pays_kv_copies(self, llm, ssm):
        """Sanity check that the counter detects a copying path: the same
        batch on a paged pool gathers every layer's rows once."""
        pool = PagedKVPool(SMALL_CONFIG, num_blocks=64, block_size=8)
        counters, shape = self._tracked_batch(llm, ssm, pool.new_sequence)
        row_bytes = 2 * SMALL_CONFIG.d_model * np.dtype(
            SMALL_CONFIG.dtype).itemsize
        assert counters.kv_bytes_copied == SMALL_CONFIG.n_layers * sum(
            p + n for n, p in shape) * row_bytes > 0

    def test_block_path_scores_fewer_flops_than_dense(self, llm, ssm):
        """Fewer score FLOPs than one dense ``(Σnᵢ)·(Σkᵢ)`` matrix over the
        same batch, which would also score every cross-request pair."""
        counters, shape = self._tracked_batch(llm, ssm)
        n_total = sum(n for n, _ in shape)
        k_total = sum(p + n for n, p in shape)
        assert counters.attn_score_flops < score_flops(n_total * k_total)

    def test_steady_state_masks_are_allocation_free(self, llm, ssm):
        """After warm-up, repeated batched steps allocate no mask cells."""
        arena = BatchArena(SMALL_CONFIG, max_requests=3)
        trees, caches = build_batch(
            llm, ssm, np.random.default_rng(23),
            cache_factory=arena.new_sequence,
        )
        snapshots = [c.snapshot() for c in caches]
        verifier = BatchedTreeVerifier(llm)
        step = lambda: verifier.verify_batch(
            trees, caches, samplings_for("greedy", 3), [None] * 3)
        step()  # warm-up allocates scratch
        for cache, snap in zip(caches, snapshots):
            cache.restore(snap)
        with perf.track() as c:
            step()
        assert c.mask_cells_allocated == 0

    def test_incremental_decode_masks_are_allocation_free(self, llm, rng):
        prompt = make_prompt(rng, length=6)
        cache = llm.new_cache()
        llm.prefill(prompt, cache)
        llm.decode(3, cache)  # warm-up
        with perf.track() as c:
            for token in (4, 5, 6):
                llm.decode(token, cache)
        assert c.mask_cells_allocated == 0
