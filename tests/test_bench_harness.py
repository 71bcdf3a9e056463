"""``benchmarks.harness.bench_llm`` trains the same weights whatever ran
before it, survives a damaged weight cache and retrains over a checkpoint
from another recipe."""

import numpy as np
import pytest

from benchmarks import harness
from repro.model.parameters import ParameterStore
from repro.model.transformer import TransformerLM


@pytest.fixture()
def fast_training(monkeypatch, tmp_path):
    """Point the harness at a scratch cache file and a two-step budget."""
    cache = tmp_path / "results" / "bench_llm_weights.npz"
    monkeypatch.setattr(harness, "_WEIGHTS_CACHE", str(cache))
    monkeypatch.setattr(harness, "BENCH_TRAIN_STEPS", 2)
    return cache


# ``__wrapped__`` steps around the lru_cache, which would otherwise hand
# these tests (and poison for later ones) a model from another cache file.
build = harness.bench_llm.__wrapped__


def test_truncated_cache_is_retrained_and_replaced(fast_training):
    cache = fast_training
    build()
    whole = cache.read_bytes()
    cache.write_bytes(whole[: len(whole) // 2])  # a killed run's leftovers
    with pytest.raises(Exception):
        ParameterStore.load(str(cache))

    model = build()

    reloaded = ParameterStore.load(str(cache))
    for name in ("tok_embed", "lm_head"):
        np.testing.assert_array_equal(reloaded[name], model.params[name])
    assert [p.name for p in cache.parent.iterdir()] == [cache.name]


def test_cache_that_is_not_a_checkpoint_is_retrained(fast_training):
    cache = fast_training
    cache.parent.mkdir(parents=True)
    cache.write_bytes(b"not a zip at all")
    build()
    assert "lm_head" in ParameterStore.load(str(cache))


def _weights(model):
    return {name: model.params[name] for name in ("tok_embed", "lm_head")}


def _assert_same_weights(a, b):
    for name in a:
        np.testing.assert_array_equal(a[name], b[name])


def test_draws_from_the_shared_corpus_do_not_move_the_training_set(
        fast_training):
    cache = fast_training
    cold = _weights(build())
    cache.unlink()
    harness.bench_corpus().sample_many(64, 48)  # an earlier caller's draws
    _assert_same_weights(_weights(build()), cold)


def test_checkpoint_without_the_recipe_digest_is_retrained(fast_training):
    cache = fast_training
    cold = _weights(build())
    stranger = TransformerLM(harness.BENCH_MODEL_CONFIG, seed=0)
    stranger.params.save(str(cache))  # loads, but names no recipe
    assert "lm_head" in ParameterStore.load(str(cache))

    _assert_same_weights(_weights(build()), cold)
    with np.load(str(cache)) as data:
        assert harness._RECIPE_KEY in data.files


def test_checkpoint_from_other_training_steps_is_retrained(
        fast_training, monkeypatch):
    cache = fast_training
    two_steps = _weights(build())
    monkeypatch.setattr(harness, "BENCH_TRAIN_STEPS", 3)
    three_steps = _weights(build())
    assert not np.array_equal(three_steps["lm_head"], two_steps["lm_head"])

    cache.unlink()
    _assert_same_weights(_weights(build()), three_steps)  # a cold 3-step run
