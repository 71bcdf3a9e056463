"""Backend parity suite: every serving surface emits the same tokens.

One tree verifier, one promise: batching is an execution strategy, not
semantics.  Each request of a batched manager — ``backend=None`` or an
explicit ``FusedBackend(llm)`` — emits exactly what ``SpecInferEngine``
emits for it alone, greedy, stochastic or in a mixed batch, because every
tree is verified under its own request's sampling config and seeded RNG —
including when a request exhausts its context mid-batch and is retired by
the tree fitter.  And every manager shape is one pipeline: a batch mixing
speculative and incremental sessions is one tick (one ``decode_batch`` for
the bare roots, one backend ``verify`` for the drafted trees), and the
planner, the router and the fault injector work without a ``backend``.

Run standalone with ``pytest -m serving``.
"""

import os
from dataclasses import replace

import numpy as np
import pytest

from repro.engine.generation import GenerationConfig
from repro.engine.incremental import IncrementalEngine
from repro.engine.pipeline import FusedBackend
from repro.engine.tree_spec import SpecInferEngine
from repro.faults import FaultInjector, FaultKind
from repro.model import perf
from repro.model.arena import BatchArena
from repro.model.coupled import CoupledSSM
from repro.model.paged_cache import PagedKVPool
from repro.model.sampling import SamplingConfig
from repro.serving.manager import RequestManager
from repro.serving.session import (
    IncrementalSession,
    SpeculativeSession,
    make_routed_factory,
)
from repro.speculate.expansion import ExpansionConfig
from repro.speculate.planner import TreePlanner
from repro.speculate.pool import SpeculatorPool
from repro.speculate.router import RouterConfig, SpeculatorRouter
from repro.speculate.speculator import Speculator
from tests.conftest import SMALL_CONFIG, make_prompt
from tests.engine.test_zero_alloc import _count_calls

pytestmark = pytest.mark.serving

# The seed of the shared verification stream (``"block"``) and the base of
# the per-request seeds.  The nightly workflow sweeps this via
# REPRO_PARITY_SEED to exercise stochastic parity on fresh draw sequences.
SEED = int(os.environ.get("REPRO_PARITY_SEED", "11"))

GREEDY = SamplingConfig(greedy=True)
STOCHASTIC = SamplingConfig(temperature=1.0)
SAMPLINGS = {"greedy": (GREEDY,), "stochastic": (STOCHASTIC,),
             "mixed": (GREEDY, STOCHASTIC)}


def make_speculator(llm):
    return Speculator(
        [CoupledSSM(llm, alignment=0.9, seed=7, noise_scale=2.0)],
        ExpansionConfig((1, 2, 1)),
    )


def spec_factory(llm, cache_factory=None, incremental_ids=()):
    """Speculative sessions, except Algorithm 1 ones for the request ids in
    ``incremental_ids`` (a mixed batch)."""

    def factory(request):
        if request.request_id in incremental_ids:
            return IncrementalSession(request, llm,
                                      cache_factory=cache_factory)
        return SpeculativeSession(request, llm,
                                  lambda: make_speculator(llm),
                                  cache_factory=cache_factory)

    return factory


def make_backend(kind, llm):
    """``"default"`` is the manager's ``backend=None``; ``"per-request"``
    builds the same ``FusedBackend(llm)`` explicitly (each request's own
    sampling and stream); ``"block"`` is the fused pass with one shared,
    seeded greedy verification stream."""
    if kind == "default":
        return None
    if kind == "per-request":
        return FusedBackend(llm)
    return FusedBackend(llm, sampling=GREEDY,
                        rng=np.random.default_rng(SEED))


MANAGER_SHAPES = ["default", "per-request", "block"]


def run_manager(llm, backend, prompts, configs):
    """Token lists and LLM step counts of one batched manager run."""
    manager = RequestManager(spec_factory(llm), max_batch_size=len(prompts),
                             backend=backend)
    ids = [manager.submit(p, c) for p, c in zip(prompts, configs)]
    manager.run_until_complete()
    return [(manager.output_for(rid).tokens,
             manager.output_for(rid).num_llm_steps) for rid in ids]


def run_alone(llm, prompts, configs):
    """The same requests, each through ``SpecInferEngine`` on its own."""
    results = [SpecInferEngine(llm, make_speculator(llm)).generate(p, c)
               for p, c in zip(prompts, configs)]
    return [(r.tokens, len(r.steps)) for r in results]


def seeded_configs(kind, budgets):
    """Per-request seeds; ``mixed`` alternates greedy and stochastic."""
    samplings = SAMPLINGS[kind]
    return [GenerationConfig(max_new_tokens=budget,
                             sampling=samplings[i % len(samplings)],
                             stop_on_eos=False, seed=SEED + 100 + i)
            for i, budget in enumerate(budgets)]


class TestBackendParity:
    @pytest.mark.parametrize("kind", ["greedy", "stochastic", "mixed"])
    def test_all_backends_emit_identical_tokens(self, llm, rng, kind):
        """``FusedBackend(llm)`` verifies each tree under its own request's
        sampling config and RNG: every request of the batch, stochastic
        ones included, emits what ``SpecInferEngine`` emits for it alone.
        After its first token a greedy request follows Algorithm 1's
        continuation and a stochastic one does not."""
        prompts = [make_prompt(rng, length=4 + i) for i in range(4)]
        configs = seeded_configs(kind, [8] * 4)
        batched = run_manager(llm, FusedBackend(llm), prompts, configs)
        assert batched == run_alone(llm, prompts, configs)
        for (tokens, _), prompt, config in zip(batched, prompts, configs):
            greedy_tail = IncrementalEngine(llm).generate(
                list(prompt) + tokens[:1],
                replace(config, sampling=GREEDY,
                        max_new_tokens=len(tokens) - 1)).tokens
            assert (tokens[1:] == greedy_tail) == config.sampling.greedy

    @pytest.mark.parametrize("kind", ["greedy", "stochastic"])
    def test_context_exhaustion_mid_batch(self, llm, rng, kind):
        """One request runs out of context while its batchmates keep going:
        the fitter returns ``None``, the state is retired, and batch and
        solo runs agree on what was emitted before retirement."""
        long_prompt = make_prompt(rng, length=llm.config.max_seq_len - 12)
        short_prompt = make_prompt(rng, length=5)
        prompts = [long_prompt, short_prompt]
        configs = seeded_configs(kind, [500, 20])
        batched = run_manager(llm, None, prompts, configs)
        # The long request was cut off by context, not by its budget.
        assert 0 < len(batched[0][0]) < 500
        assert len(batched[1][0]) == 20
        assert batched == run_alone(llm, prompts, configs)

    @pytest.mark.parametrize("kind", ["greedy", "stochastic"])
    def test_default_backend_is_fused_backend(self, llm, rng, kind):
        """``backend=None`` is ``FusedBackend(llm)`` token for token and
        step for step: each request speculates and verifies from its own
        seeded RNG."""
        prompts = [make_prompt(rng, length=4 + i) for i in range(4)]
        configs = seeded_configs(kind, [10] * 4)
        assert run_manager(llm, None, prompts, configs) == \
            run_manager(llm, FusedBackend(llm), prompts, configs)


class TestOnePipelineEveryShape:
    """Every manager shape is one pipeline and one tick per iteration."""

    @pytest.mark.parametrize("kind", MANAGER_SHAPES)
    def test_mixed_batch_is_one_tick(self, llm, kind, monkeypatch):
        """Two speculative and two Algorithm-1 sessions in one batch (what
        a fused manager used to reject with a ``TypeError``), prompt
        lengths across the 32-row prompt-block edge: greedy tokens are
        ``IncrementalEngine``'s, and a decode iteration is exactly one
        ``decode_batch`` for the bare roots plus one ``verify`` of the
        configured backend.  The shared-stream shape runs over a shared
        arena: no KV copies, rows all returned."""
        arena = BatchArena(SMALL_CONFIG, max_requests=4)
        prompts = [make_prompt(np.random.default_rng(n), length=n)
                   for n in (31, 32, 33, 5)]
        config = GenerationConfig(max_new_tokens=12, stop_on_eos=False)
        manager = RequestManager(
            spec_factory(llm, incremental_ids=(1, 3),
                         cache_factory=(arena.new_sequence
                                        if kind == "block" else None)),
            max_batch_size=4, backend=make_backend(kind, llm))
        ids = [manager.submit(p, config) for p in prompts]
        with perf.track() as counters:
            assert manager.run_iteration().admitted == 4
            roots = _count_calls(monkeypatch, llm, ["decode_batch"])
            trees = _count_calls(monkeypatch, manager._pipeline.backend,
                                 ["verify"])
            live = {rid: rid in (1, 3) for rid in ids}  # id -> is bare
            while manager.has_work:
                before = roots["decode_batch"], trees["verify"]
                stats = manager.run_iteration()
                assert roots["decode_batch"] - before[0] == \
                    any(live.values())
                assert trees["verify"] - before[1] == \
                    (not all(live.values()))
                for rid in stats.finished_ids:
                    del live[rid]
        for rid, prompt in zip(ids, prompts):
            assert manager.output_for(rid).tokens == \
                IncrementalEngine(llm).generate(prompt, config).tokens
        if kind == "block":
            assert counters.kv_bytes_copied == 0
            assert arena.used_rows == 0

    def test_fused_on_shared_paged_pool(self, llm, rng):
        """Fused batch verification + paged pool + continuous batching."""
        pool = PagedKVPool(SMALL_CONFIG, num_blocks=96, block_size=8)
        manager = RequestManager(
            spec_factory(llm, cache_factory=pool.new_sequence),
            max_batch_size=2, backend=make_backend("block", llm))
        for _ in range(4):
            manager.submit(make_prompt(rng, length=5),
                           GenerationConfig(max_new_tokens=8,
                                            stop_on_eos=False))
        assert len(manager.run_until_complete()) == 4
        assert pool.used_blocks == 0

    def test_planner_and_router_need_no_backend(self, llm, rng):
        """Armed on a ``backend=None`` manager, both get their evidence."""
        config = GenerationConfig(max_new_tokens=8, stop_on_eos=False)
        planner = TreePlanner.default()
        planned = RequestManager(spec_factory(llm), max_batch_size=3,
                                 planner=planner)
        pool = SpeculatorPool.from_coupled(llm, (0.9, 0.6))
        router = SpeculatorRouter(pool, RouterConfig(seed=5))
        routed = RequestManager(make_routed_factory(llm, pool, router),
                                max_batch_size=3, router=router)
        for manager in (planned, routed):
            prompts = [make_prompt(rng, length=5) for _ in range(3)]
            ids = [manager.submit(p, config) for p in prompts]
            manager.run_until_complete()
            for rid, prompt in zip(ids, prompts):
                assert manager.output_for(rid).tokens == \
                    IncrementalEngine(llm).generate(prompt, config).tokens
        assert planner.estimator.observations > 0
        assert router.observations > 0

    @pytest.mark.parametrize("kind", MANAGER_SHAPES)
    def test_one_fault_draw_of_each_kind_per_decode_iteration(self, llm,
                                                              rng, kind):
        injector = FaultInjector(rate=0.0)
        manager = RequestManager(spec_factory(llm), max_batch_size=3,
                                 backend=make_backend(kind, llm),
                                 injector=injector)
        for _ in range(3):
            manager.submit(make_prompt(rng, length=5),
                           GenerationConfig(max_new_tokens=9,
                                            stop_on_eos=False))
        manager.run_until_complete()
        decode_iterations = sum(
            1 for stats in manager.iteration_stats if not stats.admitted)
        assert decode_iterations > 1
        assert injector.checks[FaultKind.SPECULATION] == decode_iterations
        assert injector.checks[FaultKind.VERIFICATION] == decode_iterations


class TestIterationAccounting:
    def test_batch_size_counts_sessions_advanced(self, llm, rng):
        """Satellite: ``batch_size`` means "sessions advanced this
        iteration" in *both* managers — including the iteration in which a
        session finishes or is retired."""
        prompts = [make_prompt(rng, length=llm.config.max_seq_len - 10),
                   make_prompt(rng, length=5)]
        configs = [
            GenerationConfig(max_new_tokens=500, stop_on_eos=False),
            GenerationConfig(max_new_tokens=12, stop_on_eos=False),
        ]

        plain = RequestManager(spec_factory(llm), max_batch_size=2)
        fused = RequestManager(spec_factory(llm), max_batch_size=2,
                               backend=make_backend("block", llm))
        for manager in (plain, fused):
            for p, c in zip(prompts, configs):
                manager.submit(p, c)
            manager.run_until_complete()

        plain_sizes = [s.batch_size for s in plain.iteration_stats]
        fused_sizes = [s.batch_size for s in fused.iteration_stats]
        assert plain_sizes == fused_sizes
        # Fused batching changes kernel granularity, not scheduling: a
        # request takes the same number of LLM steps either way.
        for rid in (0, 1):
            assert plain.output_for(rid).num_llm_steps == \
                fused.output_for(rid).num_llm_steps
        # The retiring iterations still count their sessions: every
        # iteration that finished requests processed at least that many.
        for stats in plain.iteration_stats + fused.iteration_stats:
            assert stats.batch_size >= stats.finished
            if stats.finished:
                assert stats.batch_size > 0

    def test_llm_tokens_scored_not_double_counted(self, llm, rng):
        """Satellite: per-session serving accumulates ``llm_tokens_scored``
        only when the session actually recorded a new trace.  A session
        retired by context exhaustion runs extra no-op iterations; those
        must not re-add its last trace."""
        prompt = make_prompt(rng, length=llm.config.max_seq_len - 8)
        config = GenerationConfig(max_new_tokens=500, stop_on_eos=False)
        manager = RequestManager(spec_factory(llm), max_batch_size=1)
        rid = manager.submit(prompt, config)
        manager.run_until_complete()
        output = manager.output_for(rid)

        result = SpecInferEngine(llm, make_speculator(llm)).generate(
            prompt, config)
        assert output.tokens == result.tokens
        assert output.num_llm_steps == len(result.steps)
        prefill, *decode = manager.iteration_stats
        assert prefill.llm_tokens_scored == len(prompt)  # the prompt pass
        assert sum(s.llm_tokens_scored for s in decode) == \
            sum(s.llm_tokens_scored for s in result.steps)
