"""Tests for the Speculator façade (single- and multi-SSM)."""

import gc

import numpy as np
import pytest

from repro.model.config import ModelConfig
from repro.model.coupled import CoupledSSM
from repro.model.transformer import TransformerLM
from repro.speculate.expansion import ExpansionConfig
from repro.speculate.speculator import Speculator
from tests.conftest import make_prompt


class _CountingSSM(CoupledSSM):
    """Records the length of every prefill it is asked for."""

    def __init__(self, base):
        super().__init__(base, alignment=0.9, seed=7, noise_scale=2.0)
        self.prefills = []

    def prefill(self, tokens, cache, scratch=None):
        self.prefills.append(len(tokens))
        return super().prefill(tokens, cache, scratch=scratch)


class TestConstruction:
    def test_needs_at_least_one_ssm(self):
        with pytest.raises(ValueError):
            Speculator([])


class TestSingleSsm:
    def test_speculate_leaves_caches_untouched(self, ssm, rng):
        spec = Speculator([ssm], ExpansionConfig((2, 2)))
        prompt = make_prompt(rng, length=5)
        spec.prefill(prompt[:-1])
        before = spec.prefix_len
        tree = spec.speculate(int(prompt[-1]))
        assert spec.prefix_len == before
        tree.validate()

    def test_advance_extends_prefix(self, ssm, rng):
        spec = Speculator([ssm], ExpansionConfig((2,)))
        prompt = make_prompt(rng, length=5)
        spec.prefill(prompt[:-1])
        spec.advance([int(prompt[-1]), 3])
        assert spec.prefix_len == len(prompt) + 1

    def test_reset_clears_state(self, ssm, rng):
        spec = Speculator([ssm], ExpansionConfig((2,)))
        spec.prefill(make_prompt(rng, length=5))
        spec.advance([3, 4])
        spec.reset()
        assert spec.prefix_len == 0
        assert spec.take_queued() == []

    def test_advance_queues_and_runs_no_ssm(self, llm, rng):
        """The mirror prefill happens in the next forward that needs the
        cache anyway, never in ``advance`` itself."""
        ssm = _CountingSSM(llm)
        spec = Speculator([ssm], ExpansionConfig((2, 1)))
        prompt = make_prompt(rng, length=5)
        spec.prefill(prompt[:-1])
        assert ssm.prefills == [4]
        spec.advance([int(prompt[-1]), 3])
        spec.advance([9])
        assert ssm.prefills == [4]
        assert spec.prefix_len == len(prompt) + 2
        # speculate() flushes everything queued in one prefill ...
        tree = spec.speculate(7)
        assert ssm.prefills == [4, 3]
        # ... and the tree is the one an eager mirror would have produced.
        eager = Speculator([_CountingSSM(llm)], ExpansionConfig((2, 1)))
        eager.prefill(list(prompt) + [3, 9])
        assert tree.sequences() == eager.speculate(7).sequences()
        spec.speculate(7)
        assert ssm.prefills == [4, 3]

    def test_prefill_mirrors_queued_tokens_first(self, llm, rng):
        ssm = _CountingSSM(llm)
        spec = Speculator([ssm], ExpansionConfig((2,)))
        spec.advance([5, 6])
        spec.prefill([7])
        assert ssm.prefills == [3]
        assert spec.prefix_len == 3
        eager = Speculator([_CountingSSM(llm)], ExpansionConfig((2,)))
        eager.prefill([5, 6, 7])
        assert (spec.speculate(8).sequences()
                == eager.speculate(8).sequences())

    def test_take_queued_hands_the_tokens_over_once(self, ssm):
        spec = Speculator([ssm], ExpansionConfig((2,)))
        spec.advance([5, 6])
        assert spec.take_queued() == [5, 6]
        assert spec.take_queued() == []
        assert spec.prefix_len == 2

    def test_speculation_depends_on_context(self, ssm, rng):
        """Different mirrored prefixes produce different trees."""
        spec = Speculator([ssm], ExpansionConfig((3, 1, 1)))
        p1 = make_prompt(rng, length=6)
        spec.prefill(p1[:-1])
        t1 = spec.speculate(int(p1[-1]))
        spec.reset()
        p2 = make_prompt(rng, length=6)
        spec.prefill(p2[:-1])
        t2 = spec.speculate(int(p1[-1]))
        # Same pending token, different context: trees should differ
        # (statistically certain for a context-keyed model).
        assert t1.sequences() != t2.sequences()

    def test_latency_steps_is_config_depth(self, ssm):
        spec = Speculator([ssm], ExpansionConfig((1, 2, 1, 1)))
        assert spec.speculation_latency_steps() == 4


class TestMultiSsm:
    def test_merged_tree_covers_each_ssm(self, llm, rng):
        ssms = [CoupledSSM(llm, alignment=0.7, seed=s, noise_scale=2.0)
                for s in (1, 2, 3)]
        spec = Speculator(ssms, ExpansionConfig.sequence(3))
        prompt = make_prompt(rng, length=5)
        spec.prefill(prompt[:-1])
        merged = spec.speculate(int(prompt[-1]))
        merged.validate()
        # Each SSM's own sequence must appear in the merged tree.
        for ssm_id, ssm in enumerate(ssms):
            solo = Speculator([ssm], ExpansionConfig.sequence(3))
            solo.prefill(prompt[:-1])
            tree = solo.speculate(int(prompt[-1]))
            assert tree.sequences() <= merged.sequences()

    def test_merged_tree_attributes_ssms(self, llm, rng):
        ssms = [CoupledSSM(llm, alignment=0.5, seed=s, noise_scale=2.0)
                for s in (4, 5)]
        spec = Speculator(ssms, ExpansionConfig.sequence(2))
        prompt = make_prompt(rng, length=4)
        spec.prefill(prompt[:-1])
        tree = spec.speculate(int(prompt[-1]), stochastic=True,
                              rng=np.random.default_rng(0))
        tree.validate()
        # Both SSMs' proposal blocks (two expanded nodes each) are kept, and
        # every speculated node points at the distribution it was drawn
        # from; the first SSM's nodes keep the first SSM's rows.
        assert len(tree.proposals) == 4
        assert (tree.rows[1:] >= 0).all()
        assert tree.rows[1] < 2


class TestMirrorSlots:
    """Every speculator of one transformer mirrors into a default-size slot
    of one shared arena (the packed drafter scores them slot-major), and a
    finished request's slot goes back."""

    @pytest.fixture()
    def base(self):
        return TransformerLM(ModelConfig(vocab_size=32, d_model=16,
                                         n_layers=1, n_heads=2,
                                         max_seq_len=24), seed=3)

    @staticmethod
    def _slot_cache(spec):
        cache = spec.packed_expansion_states()[0][1]
        return getattr(cache, "base_cache", cache)

    def test_speculators_of_one_base_share_an_arena(self, base):
        specs = [Speculator([CoupledSSM(base, seed=s)]) for s in range(3)]
        specs.append(Speculator([base]))
        caches = [self._slot_cache(spec) for spec in specs]
        assert len({id(cache.arena) for cache in caches}) == 1
        assert sorted(cache.slot for cache in caches) == [0, 1, 2, 3]

    def test_release_reset_and_collection_give_slots_back(self, base):
        first, second = Speculator([base]), Speculator([base])
        arena = self._slot_cache(first).arena
        assert arena.used_rows == 2 * base.config.max_seq_len
        first.release()
        assert arena.used_rows == base.config.max_seq_len
        first.reset()
        assert self._slot_cache(first).slot == 0
        del second
        gc.collect()
        assert arena.used_rows == base.config.max_seq_len

    def test_a_full_arena_is_replaced_by_a_larger_one(self, base):
        specs = [Speculator([base]) for _ in range(9)]
        arenas = [self._slot_cache(spec).arena for spec in specs]
        assert arenas[7] is arenas[0] and arenas[8] is not arenas[0]
        assert arenas[8].capacity == 2 * arenas[0].capacity
