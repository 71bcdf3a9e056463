"""Slot-major attention is an evaluation order, not a second model.

When at least ``SLOT_MIN_BLOCKS`` blocks of a ``forward_masked_blocks``
call each have at most ``slot_block_rows(config)`` rows and their own
default-size slot of one ``BatchArena``, the forward stores each layer's K/V with one indexed store
and scores all blocks with one batched attention over the slab.  The
per-block loop is the reference: logits to 1e-12 with the same argmax, and
the same cache contents and lengths, for every block size up to the
crossover, ragged prefixes, idle slots inside the span and blocks in any
slot order.  Shapes outside the rule take the loop.

Either order can stop at the last layer's K/V store for the rows a caller
does not read (``read=``): the read rows' logits match the whole forward's
to 1e-12 with the same argmax, and every row's K/V is bit for bit the
whole forward's.
"""

import numpy as np
import pytest

from repro.model import attention
from repro.model.kv_cache import BatchArena
from repro.model.transformer import SLOT_MIN_BLOCKS, slot_block_rows
from tests.conftest import SMALL_CONFIG

LOGIT_TOLERANCE = 1e-12
#: The crossover at the suite's model width.
ROWS = slot_block_rows(SMALL_CONFIG)


@pytest.fixture()
def attention_calls(monkeypatch):
    """Counts of the two evaluation orders' inner calls."""
    calls = {"per_block": 0, "slot_major": 0}
    for name, key in (("scaled_dot_attention", "per_block"),
                      ("_slot_major_attention", "slot_major")):
        original = getattr(attention, name)

        def counted(*args, _original=original, _key=key, **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(attention, name, counted)
    return calls


def _random_mask(rng, rows, prior):
    """A tree-style mask: the prefix, a random subset of the block's
    earlier rows, and the row itself."""
    mask = np.zeros((rows, prior + rows))
    block = mask[:, prior:]
    block[rng.random((rows, rows)) < 0.5] = -np.inf
    block[np.triu_indices(rows, k=1)] = -np.inf
    block[np.arange(rows), np.arange(rows)] = 0.0
    return mask


def _batch(llm, rng, slots_used, counts, slots_total=8, arena_rows=None):
    """Arena caches in ``slots_used`` and private copies of them, filled
    with ragged prompts, plus one block of inputs per cache."""
    arena = BatchArena(SMALL_CONFIG, max_requests=slots_total)
    if arena_rows is None:
        by_slot = [arena.new_sequence() for _ in range(slots_total)]
    else:
        by_slot = [arena.new_sequence(arena_rows)
                   for _ in range(slots_total)]
    caches = [by_slot[s] for s in slots_used]
    copies = [llm.new_cache(c.capacity) for c in caches]
    for cache, copy in zip(caches, copies):
        prompt = rng.integers(1, SMALL_CONFIG.vocab_size,
                              int(rng.integers(1, 12)))
        llm.prefill(prompt, cache)
        llm.prefill(prompt, copy)
    tokens = rng.integers(1, SMALL_CONFIG.vocab_size, sum(counts))
    masks, positions = [], []
    for cache, rows in zip(caches, counts):
        masks.append(_random_mask(rng, rows, cache.length))
        positions.extend(cache.length + rng.integers(0, 3, rows))
    return caches, copies, tokens, np.array(positions), masks


def _assert_same_as_loop(llm, caches, copies, tokens, positions, masks):
    slot = llm.forward_masked_blocks(tokens, positions, masks, caches)
    loop = llm.forward_masked_blocks(tokens, positions, masks, copies)
    assert np.max(np.abs(slot - loop)) <= LOGIT_TOLERANCE
    np.testing.assert_array_equal(slot.argmax(axis=1), loop.argmax(axis=1))
    for cache, copy in zip(caches, copies):
        assert cache.length == copy.length
        for got, want in zip(cache.layers, copy.layers):
            for a, b in zip(got.view(), want.view()):
                assert np.max(np.abs(a - b)) <= LOGIT_TOLERANCE


class TestSlotMajorEqualsLoop:
    @pytest.mark.parametrize("rows", range(1, ROWS + 1))
    def test_every_block_size_up_to_the_crossover(self, llm, rows,
                                                  attention_calls):
        rng = np.random.default_rng(rows)
        batch = _batch(llm, rng, [0, 1, 2, 3], [rows] * 4)
        _assert_same_as_loop(llm, *batch)
        assert attention_calls["slot_major"] == SMALL_CONFIG.n_layers

    @pytest.mark.parametrize("seed", range(4))
    def test_ragged_blocks_idle_slots_and_any_slot_order(
            self, llm, seed, attention_calls):
        rng = np.random.default_rng(100 + seed)
        used = [int(s) for s in
                rng.permutation(8)[:int(rng.integers(SLOT_MIN_BLOCKS, 8))]]
        counts = [int(rng.integers(1, ROWS + 1)) for _ in used]
        batch = _batch(llm, rng, used, counts)
        _assert_same_as_loop(llm, *batch)
        assert attention_calls["slot_major"] == SMALL_CONFIG.n_layers

    def test_decode_batch_rows(self, llm, attention_calls):
        rng = np.random.default_rng(7)
        caches, copies, *_ = _batch(llm, rng, [5, 1, 3, 6], [1, 1, 1, 1])
        tokens = np.array([3, 4, 5, 6])
        slot = np.array(llm.decode_batch(tokens, caches))
        loop = np.stack([llm.decode(int(t), copy)
                         for t, copy in zip(tokens, copies)])
        assert np.max(np.abs(slot - loop)) <= LOGIT_TOLERANCE
        np.testing.assert_array_equal(slot.argmax(axis=1),
                                      loop.argmax(axis=1))
        assert attention_calls["slot_major"] == SMALL_CONFIG.n_layers


class TestShapesOutsideTheRuleTakeTheLoop:
    def _per_block_only(self, llm, batch, attention_calls):
        _assert_same_as_loop(llm, *batch)
        assert attention_calls["slot_major"] == 0
        assert attention_calls["per_block"] > 0

    def test_a_block_past_the_crossover(self, llm, attention_calls):
        rng = np.random.default_rng(1)
        batch = _batch(llm, rng, [0, 1, 2, 3], [1, ROWS + 1, 2, 1])
        self._per_block_only(llm, batch, attention_calls)

    def test_too_few_blocks(self, llm, attention_calls):
        rng = np.random.default_rng(2)
        used = list(range(SLOT_MIN_BLOCKS - 1))
        batch = _batch(llm, rng, used, [1] * len(used))
        self._per_block_only(llm, batch, attention_calls)

    def test_caches_smaller_than_a_slot(self, llm, attention_calls):
        rng = np.random.default_rng(3)
        batch = _batch(llm, rng, [0, 1, 2, 3], [1, 2, 1, 1],
                       arena_rows=16)
        self._per_block_only(llm, batch, attention_calls)

    def test_one_cache_backing_two_blocks(self, llm, attention_calls):
        rng = np.random.default_rng(4)
        caches, copies, tokens, _, _ = _batch(llm, rng, [0, 1, 2, 3],
                                              [1, 1, 1, 1])
        # The last block appends after the first one's row, in the same
        # cache.
        priors = [caches[0].length, caches[1].length, caches[2].length,
                  caches[0].length + 1]
        masks = [np.zeros((1, prior + 1)) for prior in priors]
        positions = priors
        blocks = [caches[0], caches[1], caches[2], caches[0]]
        block_copies = [copies[0], copies[1], copies[2], copies[0]]
        slot = llm.forward_masked_blocks(tokens, np.array(positions), masks,
                                         blocks, priors=priors)
        loop = llm.forward_masked_blocks(tokens, np.array(positions), masks,
                                         block_copies, priors=priors)
        assert np.max(np.abs(slot - loop)) <= LOGIT_TOLERANCE
        assert attention_calls["slot_major"] == 0


class TestReadRows:
    @pytest.mark.parametrize("seed", range(4))
    def test_read_rows_match_the_whole_forward_in_either_order(
            self, llm, seed, attention_calls):
        def batch():
            rng = np.random.default_rng(200 + seed)
            used = [int(s) for s in rng.permutation(8)[:6]]
            counts = [int(rng.integers(1, ROWS + 1)) for _ in used]
            return _batch(llm, rng, used, counts)

        whole, trimmed = batch(), batch()
        tokens, positions, masks = whole[2:]
        rng = np.random.default_rng(seed)
        # Some blocks hold no read row: they still store their K/V.
        read = np.flatnonzero(rng.random(len(tokens)) < 0.3)
        read = read if read.size else np.array([len(tokens) - 1])
        for side in (0, 1):  # arena slots (slot-major), private copies
            want = llm.forward_masked_blocks(tokens, positions, masks,
                                             whole[side])[read]
            got = llm.forward_masked_blocks(tokens, positions, masks,
                                            trimmed[side], read=read)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= LOGIT_TOLERANCE
            np.testing.assert_array_equal(got.argmax(axis=1),
                                          want.argmax(axis=1))
            for cache, copy in zip(trimmed[side], whole[side]):
                assert cache.length == copy.length
                for got_kv, want_kv in zip(cache.layers, copy.layers):
                    for a, b in zip(got_kv.view(), want_kv.view()):
                        np.testing.assert_array_equal(a, b)
        assert attention_calls["slot_major"] == 2 * SMALL_CONFIG.n_layers
