"""Tests for the synthetic training corpus."""

import numpy as np
import pytest

from repro.workloads.corpus import MarkovCorpus


class TestMarkovCorpus:
    def test_transitions_follow_chain(self):
        corpus = MarkovCorpus(vocab_size=32, branching=3, seed=0)
        seq = corpus.sample(200)
        for prev, cur in zip(seq[:-1], seq[1:]):
            successors = corpus.successors[prev - corpus.reserved_low]
            assert cur in successors

    def test_conditional_entropy_below_log_branching(self):
        corpus = MarkovCorpus(vocab_size=32, branching=4, exponent=1.0,
                              seed=0)
        assert corpus.conditional_entropy() <= np.log(4) + 1e-9
        assert corpus.conditional_entropy() > 0

    def test_uniform_exponent_zero(self):
        corpus = MarkovCorpus(vocab_size=32, branching=4, exponent=0.0,
                              seed=0)
        assert corpus.conditional_entropy() == pytest.approx(np.log(4))

    def test_rejects_excess_branching(self):
        with pytest.raises(ValueError):
            MarkovCorpus(vocab_size=4, branching=4)

    def test_rejects_zero_branching(self):
        with pytest.raises(ValueError):
            MarkovCorpus(vocab_size=32, branching=0)

    def test_reproducible(self):
        a = MarkovCorpus(vocab_size=32, branching=3, seed=5).sample(20)
        b = MarkovCorpus(vocab_size=32, branching=3, seed=5).sample(20)
        np.testing.assert_array_equal(a, b)

    def test_predictable_by_trained_model(self):
        """The whole point of the Markov corpus: a small transformer can
        learn it well enough to make speculation informative."""
        from repro.model.config import ModelConfig
        from repro.model.trainer import Trainer, TrainingConfig
        from repro.model.transformer import TransformerLM

        corpus = MarkovCorpus(vocab_size=24, branching=2, seed=3)
        model = TransformerLM(
            ModelConfig(vocab_size=24, d_model=16, n_layers=2, n_heads=2,
                        max_seq_len=32),
            seed=0,
        )
        trainer = Trainer(model, TrainingConfig(max_steps=80,
                                                learning_rate=3e-3))
        trainer.train_lm(corpus.sample_many(16, 20))
        # Model should usually rank a true chain successor at top-1.
        hits = total = 0
        for seq in corpus.sample_many(5, 15):
            logits = model.logits_for_sequence(seq)
            for i in range(5, len(seq) - 1):
                pred = int(np.argmax(logits[i]))
                hits += pred in corpus.successors[seq[i] - 1]
                total += 1
        assert hits / total > 0.6
