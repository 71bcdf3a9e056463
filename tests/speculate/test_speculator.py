"""Tests for the Speculator façade (single- and multi-SSM)."""

import numpy as np
import pytest

from repro.model.coupled import CoupledSSM
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

    def test_per_ssm_config_count_checked(self, ssm):
        with pytest.raises(ValueError):
            Speculator([ssm], per_ssm_configs=[ExpansionConfig.sequence(2)] * 2)


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
            # Re-attribute: solo trees use ssm_id 0.
            assert tree.sequences() <= merged.sequences()

    def test_merged_tree_attributes_ssms(self, llm, rng):
        ssms = [CoupledSSM(llm, alignment=0.5, seed=s, noise_scale=2.0)
                for s in (4, 5)]
        spec = Speculator(ssms, ExpansionConfig.sequence(2))
        prompt = make_prompt(rng, length=4)
        spec.prefill(prompt[:-1])
        tree = spec.speculate(int(prompt[-1]))
        seen_ids = set()
        for node in tree.nodes[1:]:
            seen_ids |= node.ssm_ids
        assert seen_ids <= {0, 1}
        assert len(seen_ids) >= 1

    def test_per_ssm_configs(self, llm, rng):
        ssms = [CoupledSSM(llm, alignment=0.7, seed=s) for s in (6, 7)]
        spec = Speculator(
            ssms,
            per_ssm_configs=[ExpansionConfig((2,)), ExpansionConfig.sequence(4)],
        )
        assert spec.speculation_latency_steps() == 4
        prompt = make_prompt(rng, length=4)
        spec.prefill(prompt[:-1])
        tree = spec.speculate(int(prompt[-1]))
        assert tree.max_depth() <= 4
