"""Router determinism suite: seeded routing is replayable and lossless.

The tentpole's serving contract: for the same seed and workload the router
produces a byte-identical assignment sequence, the greedy tokens match an
equivalent fixed-assignment run exactly, and none of it depends on which
verification backend executes the batch.

Run standalone with ``pytest -m serving``.
"""

import numpy as np
import pytest

from repro.engine.generation import GenerationConfig
from repro.engine.pipeline import FusedBackend
from repro.obs import reset_observability
from repro.serving.manager import RequestManager
from repro.serving.session import make_routed_factory
from repro.speculate.pool import SpeculatorPool
from repro.speculate.router import RouterConfig, SpeculatorRouter
from tests.conftest import make_prompt

pytestmark = pytest.mark.serving

#: Mixed short/long prompt lengths so routing exercises several buckets.
PROMPT_LENS = (4, 30, 18, 6, 26, 12)


def make_prompts(seed=0):
    rng = np.random.default_rng(seed)
    return [make_prompt(rng, length=n) for n in PROMPT_LENS]


def build_pool(llm):
    return SpeculatorPool.from_coupled(
        llm, (0.9, 0.7, 0.5), names=("strong", "medium", "weak")
    )


def make_backend(kind, llm):
    """``"sessions"``: the default backend (each request's own stream);
    ``"block"``: one shared, seeded verification stream."""
    if kind == "sessions":
        return None
    return FusedBackend(llm, rng=np.random.default_rng(11))


def run_routed(llm, backend_kind="block", policy="ucb", batch=3,
               tokens=8):
    """One routed serving run; returns (assignment history, token lists)."""
    reset_observability()
    pool = build_pool(llm)
    router = SpeculatorRouter(pool, RouterConfig(policy=policy, seed=5))
    manager = RequestManager(
        make_routed_factory(llm, pool, router),
        max_batch_size=batch,
        backend=make_backend(backend_kind, llm),
        router=router,
    )
    config = GenerationConfig(max_new_tokens=tokens, stop_on_eos=False)
    ids = [manager.submit(p, config) for p in make_prompts()]
    manager.run_until_complete()
    tokens_out = [manager.output_for(rid).tokens for rid in ids]
    return router.assignment_history, tokens_out, router


class TestRoutingDeterminism:
    @pytest.mark.parametrize("policy", ["ucb", "thompson"])
    def test_same_seed_same_assignments_and_tokens(self, llm, policy):
        first_history, first_tokens, _ = run_routed(llm, policy=policy)
        again_history, again_tokens, _ = run_routed(llm, policy=policy)
        assert first_history == again_history
        assert first_tokens == again_tokens

    def test_assignments_and_tokens_agree_across_backends(self, llm):
        """Greedy verification from each request's own stream or from one
        shared stream is bit-equivalent, so the acceptance evidence — and
        therefore every later routing decision — replays identically."""
        results = {
            kind: run_routed(llm, backend_kind=kind)[:2]
            for kind in ("sessions", "block")
        }
        baseline_history, baseline_tokens = results["block"]
        for kind, (history, tokens) in results.items():
            assert history == baseline_history, kind
            assert tokens == baseline_tokens, kind

    def test_learning_actually_happened(self, llm):
        history, _, router = run_routed(llm)
        assert len(history) == len(PROMPT_LENS)
        assert router.observations > 0


class TestRoutedParity:
    def test_routed_matches_every_fixed_assignment_run(self, llm):
        """Greedy token parity with each fixed-member run: routing decides
        who drafts, the verifier decides what is emitted."""
        _, routed_tokens, router = run_routed(llm, policy="ucb")
        for member in router.pool.names:
            _, fixed_tokens, _ = run_routed(llm, policy=f"fixed:{member}")
            assert fixed_tokens == routed_tokens, member

    def test_round_robin_matches_routed_tokens(self, llm):
        _, routed_tokens, _ = run_routed(llm)
        _, rr_tokens, _ = run_routed(llm, policy="round_robin")
        assert rr_tokens == routed_tokens
