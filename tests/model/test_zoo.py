"""Tests for the model zoo (trained pairs + caching)."""

import os

import numpy as np
import pytest

from repro.model.config import ModelConfig
from repro.model.zoo import ModelZoo, ZooSpec

FAST_SPEC = ZooSpec(llm_steps=40, distill_steps=40)


class TestZooSpec:
    def test_vocab_mismatch_rejected(self):
        with pytest.raises(ValueError, match="vocab"):
            ZooSpec(
                vocab_size=32,
                llm_config=ModelConfig(vocab_size=64, d_model=16, n_heads=2),
            )

    def test_cache_key_deterministic_and_distinct(self):
        a = ZooSpec(llm_steps=10)
        b = ZooSpec(llm_steps=10)
        c = ZooSpec(llm_steps=20)
        assert a.cache_key() == b.cache_key()
        assert a.cache_key() != c.cache_key()

    def test_llm_role_key_ignores_student_fields(self):
        """Specs differing only in SSM fields share a teacher key (the
        pool trains its LLM once) while their pair/ssm keys diverge."""
        a = ZooSpec(distill_steps=10)
        b = ZooSpec(
            distill_steps=99,
            ssm_config=ModelConfig(vocab_size=64, d_model=8, n_layers=1,
                                   n_heads=2, max_seq_len=128),
        )
        assert a.cache_key("llm") == b.cache_key("llm")
        assert a.cache_key() != b.cache_key()
        assert a.cache_key("ssm") != b.cache_key("ssm")

    def test_llm_role_key_tracks_teacher_fields(self):
        a = ZooSpec(llm_steps=10)
        b = ZooSpec(llm_steps=20)
        assert a.cache_key("llm") != b.cache_key("llm")

    def test_roles_never_alias(self):
        spec = ZooSpec()
        assert len({spec.cache_key(), spec.cache_key("llm"),
                    spec.cache_key("ssm")}) == 3


class TestModelZoo:
    @pytest.fixture(scope="class")
    def pair(self, tmp_path_factory):
        cache_dir = str(tmp_path_factory.mktemp("zoo"))
        zoo = ModelZoo(cache_dir=cache_dir)
        llm, ssm = zoo.trained_pair(FAST_SPEC)
        return zoo, cache_dir, llm, ssm

    def test_pair_shapes(self, pair):
        _, _, llm, ssm = pair
        assert llm.config.vocab_size == ssm.config.vocab_size
        assert ssm.num_parameters() < llm.num_parameters()

    def test_checkpoints_written(self, pair):
        _, cache_dir, _, _ = pair
        files = os.listdir(cache_dir)
        assert any("llm" in f for f in files)
        assert any("ssm" in f for f in files)

    def test_reload_identical(self, pair):
        zoo, _, llm, _ = pair
        llm2, _ = zoo.trained_pair(FAST_SPEC)
        np.testing.assert_array_equal(llm.params["lm_head"],
                                      llm2.params["lm_head"])

    def test_distilled_ssm_agrees_with_llm(self, pair):
        """The zoo pair has genuine (trained-in) alignment: SSM top-1
        matches LLM top-1 well above chance on corpus text."""
        zoo, _, llm, ssm = pair
        corpus = zoo.corpus(FAST_SPEC)
        hits = total = 0
        for seq in corpus.sample_many(5, 16):
            llm_logits = llm.logits_for_sequence(seq)
            ssm_logits = ssm.logits_for_sequence(seq)
            hits += int(
                (llm_logits.argmax(-1) == ssm_logits.argmax(-1))[4:].sum()
            )
            total += len(seq) - 4
        chance = 1 / llm.config.vocab_size
        assert hits / total > 10 * chance

    def test_speculation_with_zoo_pair(self, pair):
        """End-to-end: a genuinely trained+distilled pair speeds up the
        engine while staying lossless."""
        from repro.engine.generation import GenerationConfig
        from repro.engine.incremental import IncrementalEngine
        from repro.engine.tree_spec import SpecInferEngine
        from repro.speculate.expansion import ExpansionConfig
        from repro.speculate.speculator import Speculator

        zoo, _, llm, ssm = pair
        prompt = list(zoo.corpus(FAST_SPEC).sample(8))
        config = GenerationConfig(max_new_tokens=20, stop_on_eos=False)
        incremental = IncrementalEngine(llm).generate(prompt, config)
        spec = SpecInferEngine(
            llm, Speculator([ssm], ExpansionConfig.width_sweep(3, depth=6,
                                                               expand_step=0))
        ).generate(prompt, config)
        assert spec.tokens == incremental.tokens
        assert spec.num_llm_steps <= incremental.num_llm_steps

    def test_no_cache_dir_still_works(self):
        zoo = ModelZoo(cache_dir=None)
        tiny = ZooSpec(llm_steps=3, distill_steps=3)
        llm, ssm = zoo.trained_pair(tiny)
        assert llm.num_parameters() > 0

    def test_checkpoint_names_carry_schema_version(self, pair):
        from repro.model.zoo import ZOO_SCHEMA_VERSION

        _, cache_dir, _, _ = pair
        for name in os.listdir(cache_dir):
            assert name.startswith(f"zoo-v{ZOO_SCHEMA_VERSION}-")

    def test_stale_schema_checkpoints_are_ignored(self, tmp_path):
        """A checkpoint written under an older key scheme (pre-versioned
        filename, repr-based digest) must never satisfy a lookup: the zoo
        retrains and writes a fresh versioned file, leaving the stale one
        untouched rather than deserializing it into the new recipe."""
        cache_dir = str(tmp_path)
        tiny = ZooSpec(llm_steps=3, distill_steps=3)
        stale_names = [
            f"zoo-{tiny.cache_key('llm')}-llm.npz",  # unversioned prefix
            "zoo-v1-0011223344556677-llm.npz",       # old schema version
        ]
        for name in stale_names:
            with open(os.path.join(cache_dir, name), "wb") as fh:
                fh.write(b"not a checkpoint")
        zoo = ModelZoo(cache_dir=cache_dir)
        llm, _ = zoo.trained_pair(tiny)  # would crash if it loaded garbage
        assert llm.num_parameters() > 0
        files = set(os.listdir(cache_dir))
        assert set(stale_names) <= files  # left on disk, never matched
        from repro.model.zoo import ZOO_SCHEMA_VERSION

        fresh = [f for f in files - set(stale_names)
                 if f.endswith("-llm.npz")]
        assert fresh == [
            f"zoo-v{ZOO_SCHEMA_VERSION}-{tiny.cache_key('llm')}-llm.npz"
        ]

    def test_truncated_checkpoint_is_retrained(self, tmp_path):
        """A checkpoint cut short (a run killed while writing it) is
        retrained over, to what a cold train gives, and replaced whole."""
        tiny = ZooSpec(llm_steps=2, distill_steps=2)
        zoo = ModelZoo(cache_dir=str(tmp_path))
        zoo.trained_pair(tiny)
        for role in ("llm", "ssm"):
            path = zoo._checkpoint_path(tiny, role)
            whole = open(path, "rb").read()
            with open(path, "wb") as fh:
                fh.write(whole[:len(whole) // 2])
        llm, ssm = zoo.trained_pair(tiny)
        cold_llm, cold_ssm = ModelZoo(cache_dir=None).trained_pair(tiny)
        for model, cold in ((llm, cold_llm), (ssm, cold_ssm)):
            for name, array in cold.params.items():
                np.testing.assert_array_equal(model.params[name], array)
        reloaded, _ = zoo.trained_pair(tiny)  # the rewrite loads cleanly
        np.testing.assert_array_equal(reloaded.params["lm_head"],
                                      cold_llm.params["lm_head"])
        assert not [f for f in os.listdir(tmp_path) if ".tmp." in f]
