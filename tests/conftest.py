"""Shared fixtures: small, fast model instances reused across the suite."""

import gc

import numpy as np
import pytest

from repro.faults import FaultInjector
from repro.model.config import ModelConfig
from repro.model.coupled import CoupledSSM
from repro.model.transformer import TransformerLM
from repro.obs import REGISTRY
from repro.speculate.expansion import expand_token_tree
from repro.tree.token_tree import merge_trees


SMALL_CONFIG = ModelConfig(
    vocab_size=64,
    d_model=32,
    n_layers=2,
    n_heads=4,
    max_seq_len=96,
    name="test-llm",
)


@pytest.fixture(scope="session")
def llm() -> TransformerLM:
    """A small random-init LLM shared (read-only) across tests."""
    return TransformerLM(SMALL_CONFIG, seed=42)


@pytest.fixture(scope="session")
def ssm(llm) -> CoupledSSM:
    """A well-aligned coupled SSM over the shared LLM."""
    return CoupledSSM(llm, alignment=0.9, seed=7, noise_scale=2.0)


@pytest.fixture(scope="session")
def weak_ssm(llm) -> CoupledSSM:
    """A poorly-aligned SSM (low acceptance regime)."""
    return CoupledSSM(llm, alignment=0.3, seed=8, noise_scale=2.0)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


class ScriptedInjector(FaultInjector):
    """Deterministic fault double: each kind fires by its script, one flag
    per check (``itertools.repeat(1)`` fires at every check), and a kind
    without a script, or past its script's end, never fires."""

    def __init__(self, script):
        super().__init__()
        self._script = {kind: iter(flags) for kind, flags in script.items()}

    def _decide(self, kind):
        return bool(next(self._script.get(kind, iter(())), 0))


def make_prompt(rng: np.random.Generator, length: int = 6,
                vocab: int = 64) -> np.ndarray:
    """Random prompt avoiding the EOS id (0)."""
    return rng.integers(1, vocab, size=length).astype(np.intp)


def total_variation_distance(p: np.ndarray, q: np.ndarray) -> float:
    """TV distance between two distributions (distribution-equality tests)."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    return float(0.5 * np.abs(p - q).sum())


def arena_rows_used() -> int:
    """Rows carved out of every ``BatchArena`` in the process — the
    ``repro.model.arena.rows_used`` gauge, which also counts the SSM mirror
    slots.  Garbage is collected first, so handles that earlier tests
    dropped have given their rows back; a lifecycle test reads it before a
    run and asserts the run brings it back to that value."""
    gc.collect()
    return REGISTRY.gauge("repro.model.arena.rows_used").value


def llm_rows_forwarded() -> int:
    """Rows the LLM has forwarded in this process, as the layers count
    them: prompt passes (``repro.engine.prefill_rows``) plus the rows each
    verifier scored (``repro.verify.{fused,incremental}.tokens_scored``).
    A test reads it before and after the work it charges."""
    return sum(REGISTRY.counter(name).value for name in (
        "repro.engine.prefill_rows",
        "repro.verify.fused.tokens_scored",
        "repro.verify.incremental.tokens_scored",
    ))


def draft_depth_first(pipeline):
    """Make ``pipeline`` draft through the depth-first reference
    (``expand_token_tree`` per SSM, then ``merge_trees``, as
    ``Speculator.speculate`` does) instead of its packed level loop, paused
    and resumed the way the packed drafter is: the tree a call first hands
    out keeps each SSM's tree down to the children of its first fan-out,
    and a later call with ``below`` grafts in the whole subtrees below the
    nodes it names.  The equivalence tests compare the two."""
    drafts = {}

    def first_stage(tree):
        return tree.select(tree.depths <= len(tree.trunk()))

    def speculate_batch(states, plan=None, below=None):
        trees = []
        for i, state in enumerate(states):
            if id(state) not in drafts:
                spec = state.speculator
                spec.prefill(())
                each = [expand_token_tree(
                    ssm, state.pending, cache, config,
                    stochastic=not state.sampling.greedy, rng=state.rng)
                    for ssm, cache, config
                    in spec.packed_expansion_states(plan)]
                drafts[id(state)] = [merge_trees(each),
                                     merge_trees(map(first_stage, each))]
            whole, tree = drafts[id(state)]
            for node in () if below is None else below[i]:
                tree = tree.graft(node, whole.subtree(
                    whole.find(tree.sequence_of(node))))
            drafts[id(state)][1] = tree
            trees.append(whole if below is None else tree)
        if below is None:
            for state in states:
                del drafts[id(state)]
        return trees

    pipeline.packed.speculate_batch = speculate_batch
    pipeline.packed.close = drafts.clear
    return pipeline
