"""``benchmarks.harness.bench_llm`` survives a damaged weight cache."""

import numpy as np
import pytest

from benchmarks import harness
from repro.model.parameters import ParameterStore


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
