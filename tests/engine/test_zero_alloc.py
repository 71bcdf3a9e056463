"""The zero-allocation decode hot path is an *optimization*, not a fork.

Four families of guarantees:

* scratch on/off bit-equivalence — committed tokens are identical with
  scratch-arena buffer reuse enabled and disabled, with per-request and
  shared verification streams, greedy and stochastic, multiple seeds (the
  ``out=`` rewrites of the forward pass provably compute the same bits);
* packed speculation equivalence — scoring every request's draft tree
  through one batched GEMM per level produces, tick for tick, the same
  trees, the same recorded proposal distributions and the same committed
  tokens as the per-session SSM loop, greedy and sampling, with automatic
  fallback (counted, and explained in a trace event) for configurations
  the packer does not cover;
* steady-state allocation freedom (``perf_smoke``) — after warm-up ticks,
  ``DecodePipeline.tick`` performs zero tracked hot-path allocations, the
  property ``benchmarks/ci_gate.py`` gates in CI;
* call counts (``perf_smoke``) — a tick drafts the batch in ``depth`` SSM
  forwards, and an incremental tick (served as such, fault-degraded, or
  planned with budget 0) is one LLM forward for the whole batch.
"""

import numpy as np
import pytest

from repro.engine.generation import GenerationConfig
from repro.engine.pipeline import (
    DecodePipeline,
    DecodeState,
    FusedBackend,
)
from repro.faults import FaultKind
from repro.model import perf
from repro.model.arena import BatchArena
from repro.model.config import ModelConfig
from repro.model.coupled import CoupledSSM
from repro.model.sampling import SamplingConfig
from repro.model.transformer import TransformerLM
from repro.obs import REGISTRY, reset_observability
from repro.obs import tracing
from repro.serving.manager import RequestManager
from repro.speculate.adaptive import AdaptiveConfig
from repro.speculate.expansion import ExpansionConfig
from repro.speculate.packed import scored_node_bound
from repro.speculate.speculator import Speculator
from tests.conftest import make_prompt
from tests.engine.test_pipeline_planner import StubPlanner
from tests.serving.test_fault_tolerance import ScriptedInjector
from tests.serving.test_manager import incremental_factory


def _make_states(llm, ssm_factory, greedy, seed, n_requests=3,
                 max_new_tokens=14, prompt_len=4, widths=(1, 2, 1)):
    rng = np.random.default_rng(seed)
    sampling = (SamplingConfig(greedy=True) if greedy
                else SamplingConfig(temperature=1.0))
    states = []
    for r in range(n_requests):
        config = GenerationConfig(
            max_new_tokens=max_new_tokens, sampling=sampling, seed=seed + r,
            stop_on_eos=False,
        )
        spec = Speculator([ssm_factory()], ExpansionConfig(widths))
        states.append(DecodeState(
            llm, make_prompt(rng, length=prompt_len + r), config,
            speculator=spec,
        ))
    return states


def _run(llm, ssm_factory, backend_factory, greedy, seed, **pipeline_kwargs):
    """Token lists after driving a batch of requests to completion."""
    states = _make_states(llm, ssm_factory, greedy, seed)
    pipeline = DecodePipeline(llm, backend=backend_factory(llm),
                              **pipeline_kwargs)
    while any(not s.finished for s in states):
        pipeline.tick([s for s in states if not s.finished])
    return [s.tokens for s in states]


#: Each request's own sampling config and RNG, or one shared stream.
BACKENDS = [
    ("per_request", lambda llm, **kw: FusedBackend(llm, **kw)),
    ("fused_shared_rng", lambda llm, **kw: FusedBackend(
        llm, rng=np.random.default_rng(0), **kw)),
]


class TestScratchOnOffEquivalence:
    """Buffer reuse changes allocation counts, never committed tokens."""

    @pytest.mark.parametrize("name,backend", BACKENDS,
                             ids=[n for n, _ in BACKENDS])
    @pytest.mark.parametrize("greedy", [True, False],
                             ids=["greedy", "stochastic"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_committed_tokens_identical(self, llm, name, backend, greedy,
                                        seed):
        ssm_factory = lambda: CoupledSSM(llm, alignment=0.9, seed=7,
                                         noise_scale=2.0)
        with_scratch = _run(
            llm, ssm_factory,
            lambda m: backend(m, reuse_scratch=True), greedy, seed,
        )
        without_scratch = _run(
            llm, ssm_factory,
            lambda m: backend(m, reuse_scratch=False), greedy, seed,
        )
        assert with_scratch == without_scratch
        assert any(tokens for tokens in with_scratch)


def _ssm_factory(llm, ssm_kind):
    if ssm_kind == "transformer":
        small = TransformerLM(
            ModelConfig(vocab_size=64, d_model=16, n_layers=1,
                        n_heads=2, max_seq_len=96), seed=9,
        )
        return lambda: small
    return lambda: CoupledSSM(llm, alignment=0.9, seed=7, noise_scale=2.0)


def _shape_and_proposals(tree):
    """A tree as the verifier sees it: ``(parent slot, token)`` per node in
    DFS order over the children lists (node numbering itself differs between
    the BFS and DFS builders), and each node's recorded SSM distribution."""
    shape, proposals = [], []

    def walk(idx, parent_slot):
        node = tree.nodes[idx]
        slot = len(shape)
        shape.append((parent_slot, node.token))
        proposals.append(node.proposals.get(0))
        for child in node.children:
            walk(child, slot)

    walk(0, -1)
    return shape, proposals


class _TreeLog(FusedBackend):
    """A fused backend that keeps every tick's fitted trees."""

    def __init__(self, model):
        super().__init__(model, rng=np.random.default_rng(0))
        self.ticks = []

    def verify(self, states, trees):
        self.ticks.append([_shape_and_proposals(tree) for tree in trees])
        return super().verify(states, trees)


def _drive(llm, states, packed):
    backend = _TreeLog(llm)
    pipeline = DecodePipeline(llm, backend=backend, packed_speculation=packed)
    while any(not s.finished for s in states):
        pipeline.tick([s for s in states if not s.finished])
    return [s.tokens for s in states], backend.ticks


def _assert_same_ticks(packed_ticks, sequential_ticks):
    """Tick for tick and request for request: the same tree, token for token
    and edge for edge, and the same recorded distributions.

    The distributions are compared to 1e-12, not bit for bit: the
    per-session loop scores one row at a time, which BLAS runs through GEMV,
    and the packed path scores many, which it runs through GEMM — the two
    kernels round differently in the last few ulps (about 5e-15 on these
    logits).  Everything downstream of the distributions is compared
    exactly.
    """
    assert len(packed_ticks) == len(sequential_ticks)
    for packed_tick, sequential_tick in zip(packed_ticks, sequential_ticks):
        assert len(packed_tick) == len(sequential_tick)
        for (shape_a, props_a), (shape_b, props_b) in zip(packed_tick,
                                                         sequential_tick):
            assert shape_a == shape_b
            for a, b in zip(props_a, props_b):
                assert (a is None) == (b is None)
                if a is not None:
                    np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def _fallback_causes(llm, speculator_factory, prompt_len=5,
                     max_new_tokens=6):
    """Drive two greedy requests to completion; the set of causes their
    ``repro.speculate.packed.fallback`` events carry (every fallback is
    counted *and* says why), and how many requests were packed."""
    reset_observability()
    states = [
        DecodeState(
            llm, make_prompt(np.random.default_rng(r), length=prompt_len),
            GenerationConfig(max_new_tokens=max_new_tokens,
                             sampling=SamplingConfig(greedy=True)),
            speculator=speculator_factory(),
        )
        for r in range(2)
    ]
    pipeline = DecodePipeline(llm, backend=FusedBackend(llm))
    with tracing() as tracer:
        while any(not s.finished for s in states):
            pipeline.tick([s for s in states if not s.finished])
        causes = [record["attrs"]["cause"]
                  for record in tracer.records()
                  if record["name"] == "repro.speculate.packed.fallback"]
    snap = REGISTRY.snapshot()
    assert (snap["repro.speculate.packed.fallbacks"]["value"]
            == len(causes) > 0)
    return set(causes), snap["repro.speculate.packed.requests"]["value"]


#: The suite's long-standing shape, and one that branches at every level so
#: sampled siblings collide (merged duplicates) and path indices matter.
EQUIVALENCE_WIDTHS = [(1, 2, 1), (2, 2, 2)]


class TestPackedSpeculationEquivalence:
    """One batched GEMM per tree level == the per-session SSM loop."""

    def _check(self, llm, ssm_kind, greedy, seed):
        for widths in EQUIVALENCE_WIDTHS:
            runs = [
                _drive(llm, _make_states(llm, _ssm_factory(llm, ssm_kind),
                                         greedy, seed, widths=widths),
                       packed)
                for packed in (True, False)
            ]
            (packed_tokens, packed_ticks), (tokens, ticks) = runs
            assert packed_tokens == tokens
            assert any(tokens)
            _assert_same_ticks(packed_ticks, ticks)

    @pytest.mark.parametrize("ssm_kind", ["transformer", "coupled"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_greedy_tokens_identical(self, llm, ssm_kind, seed):
        self._check(llm, ssm_kind, True, seed)

    @pytest.mark.parametrize("ssm_kind", ["transformer", "coupled"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stochastic_trees_and_tokens_identical(self, llm, ssm_kind,
                                                   seed):
        self._check(llm, ssm_kind, False, seed)

    def test_sampled_siblings_do_merge(self, llm):
        """The (2, 2, 2) runs above exercise duplicate draws, not just
        branching: some sampled tree is smaller than the full shape."""
        states = _make_states(llm, _ssm_factory(llm, "coupled"), False, 0,
                              widths=(2, 2, 2))
        _, ticks = _drive(llm, states, packed=True)
        sizes = {len(shape) for tick in ticks for shape, _ in tick}
        assert min(sizes) < 1 + 2 + 4 + 8

    def _assert_packed_only(self, llm, greedy):
        reset_observability()
        _run(llm, _ssm_factory(llm, "coupled"), FusedBackend, greedy, 0,
             packed_speculation=True)
        snap = REGISTRY.snapshot()
        assert snap["repro.speculate.packed.requests"]["value"] > 0
        assert snap["repro.speculate.packed.levels"]["value"] > 0
        assert snap["repro.speculate.packed.fallbacks"]["value"] == 0

    def test_packed_path_actually_runs_greedy(self, llm):
        self._assert_packed_only(llm, greedy=True)

    def test_packed_path_actually_runs_stochastic(self, llm):
        self._assert_packed_only(llm, greedy=False)

    def test_merge_based_speculator_falls_back(self, llm):
        """Multi-SSM (merge-based) speculators keep the per-session loop."""
        causes, packed = _fallback_causes(llm, lambda: Speculator(
            [CoupledSSM(llm, alignment=0.9, seed=s, noise_scale=2.0)
             for s in (7, 8)],
            ExpansionConfig((1, 2)),
        ))
        assert causes == {"multi_ssm"} and packed == 0

    @pytest.mark.parametrize("greedy", [True, False],
                             ids=["greedy", "stochastic"])
    def test_tokens_do_not_depend_on_neighbours(self, llm, greedy):
        """A request's tree is a function of its own stream: the same
        request alone, and in a batch whose other members join late and
        leave early, commits the same tokens.  (The default backend
        verifies each request from its own stream too.)"""
        def request(seed, prompt_len, max_new_tokens):
            sampling = (SamplingConfig(greedy=True) if greedy
                        else SamplingConfig(temperature=1.0))
            return DecodeState(
                llm, make_prompt(np.random.default_rng(seed),
                                 length=prompt_len),
                GenerationConfig(max_new_tokens=max_new_tokens,
                                 sampling=sampling, seed=seed),
                speculator=Speculator(
                    [CoupledSSM(llm, alignment=0.9, seed=7,
                                noise_scale=2.0)],
                    ExpansionConfig((2, 2, 2))),
            )

        alone = request(11, 5, 24)
        DecodePipeline(llm).run_to_completion(alone)

        subject = request(11, 5, 24)
        early, late = request(12, 7, 6), request(13, 4, 30)
        pipeline = DecodePipeline(llm)
        tick = 0
        while not subject.finished:
            batch = [early, subject] if tick < 2 else [late, early, subject]
            pipeline.tick([s for s in batch if not s.finished])
            tick += 1
        assert early.finished and tick > 4
        assert subject.tokens == alone.tokens

    @pytest.mark.parametrize("greedy", [True, False],
                             ids=["greedy", "stochastic"])
    def test_request_crossing_the_capacity_fallback(self, llm, greedy):
        """Near end-of-context a request leaves the packed path for the
        per-session loop mid-generation; its trees and tokens are the ones
        the per-session loop alone would have produced, because both read
        the same uniform block the same way."""
        def states():
            return _make_states(llm, _ssm_factory(llm, "coupled"), greedy, 3,
                                n_requests=2, max_new_tokens=60,
                                prompt_len=50, widths=(2, 2, 2))

        reset_observability()
        packed_tokens, packed_ticks = _drive(llm, states(), packed=True)
        snap = REGISTRY.snapshot()
        assert snap["repro.speculate.packed.requests"]["value"] > 0
        assert snap["repro.speculate.packed.fallbacks"]["value"] > 0
        tokens, ticks = _drive(llm, states(), packed=False)
        assert packed_tokens == tokens
        _assert_same_ticks(packed_ticks, ticks)


class _DuckSSM:
    """The SSM protocol over a transformer, without being one."""

    def __init__(self, model):
        self._model = model
        self.config = model.config
        self.new_cache = model.new_cache
        self.prefill = model.prefill
        self.decode = model.decode


class TestPackedFallbackCauses:
    """The other causes (``multi_ssm`` is
    ``test_merge_based_speculator_falls_back`` above)."""

    def test_adaptive_speculator(self, llm):
        causes, packed = _fallback_causes(llm, lambda: Speculator(
            [CoupledSSM(llm, alignment=0.9, seed=7, noise_scale=2.0)],
            adaptive=AdaptiveConfig(max_tokens=4, max_depth=3),
        ))
        assert causes == {"adaptive"} and packed == 0

    def test_unknown_model_type(self, llm):
        causes, packed = _fallback_causes(llm, lambda: Speculator(
            [_DuckSSM(llm)], ExpansionConfig((1, 2))))
        assert causes == {"model_type"} and packed == 0

    def test_near_capacity(self, llm):
        # 90 of 96 positions are prompt: the (1, 2) tree's three scored
        # rows fit for a tick or two, then only the per-branch check does.
        causes, packed = _fallback_causes(
            llm, lambda: Speculator(
                [CoupledSSM(llm, alignment=0.9, seed=7, noise_scale=2.0)],
                ExpansionConfig((1, 2))),
            prompt_len=90, max_new_tokens=12)
        assert causes == {"capacity"} and packed > 0


def _count_calls(monkeypatch, model, names):
    """Count calls of ``names`` on this model *instance* (restored by
    ``monkeypatch``: the fixture models are shared)."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _method=getattr(model, name),
                    **kwargs):
            calls[_name] += 1
            return _method(*args, **kwargs)
        monkeypatch.setattr(model, name, counted)
    return calls


@pytest.mark.perf_smoke
class TestOneDraftForwardPerLevel:
    """A tick drafts the whole batch in ``depth`` SSM forwards, greedy or
    sampling, and runs the SSM nowhere else — so a regression to
    per-request drafting, or to a mirror prefill of its own, fails tier-1
    and not only the benchmark."""

    BATCH = 8
    TICKS = 6

    @pytest.mark.parametrize("greedy", [True, False],
                             ids=["greedy", "stochastic"])
    def test_ssm_forwards_per_tick_equal_tree_depth(self, llm, greedy,
                                                    monkeypatch):
        config = ExpansionConfig.paper_default()
        ssm = TransformerLM(
            ModelConfig(vocab_size=64, d_model=16, n_layers=1, n_heads=2,
                        max_seq_len=96), seed=9)
        states = _make_states(llm, lambda: ssm, greedy, 0,
                              n_requests=self.BATCH, max_new_tokens=90,
                              widths=config.widths)
        calls = _count_calls(monkeypatch, ssm,
                             ["forward_masked_blocks", "decode", "prefill"])

        pipeline = DecodePipeline(llm, backend=FusedBackend(llm))
        for _ in range(self.TICKS):
            # Steady state: nobody finishing, nobody near end-of-context.
            assert all(
                not s.finished
                and s.speculator.prefix_len + scored_node_bound(config)
                <= ssm.config.max_seq_len
                for s in states
            )
            before = dict(calls)
            pipeline.tick(states)
            assert (calls["forward_masked_blocks"]
                    - before["forward_masked_blocks"]) == config.depth
            assert calls["decode"] == calls["prefill"] == 0


def _tick_allocs():
    return REGISTRY.snapshot()["repro.engine.tick.allocs"]["value"]


@pytest.mark.perf_smoke
class TestOneLLMForwardPerIncrementalTick:
    """Algorithm 1 is batched at iteration level: a steady-state tick of B
    incremental requests — served as such, or degraded to it by a fault or
    a budget-0 plan — is one LLM forward that allocates nothing.  A
    regression to one forward per request fails tier-1, not only the
    benchmark."""

    BATCH = 8
    WARMUP = 3
    STEADY = 6

    def _assert_one_forward_per_tick(self, calls, tick):
        for _ in range(self.WARMUP):
            tick()
        allocs = _tick_allocs()
        for _ in range(self.STEADY):
            before = dict(calls)
            tick()
            assert (calls["forward_masked_blocks"]
                    - before["forward_masked_blocks"]) == 1
            assert calls["decode"] == before["decode"]
        assert _tick_allocs() == allocs

    def test_incremental_manager(self, llm, rng, monkeypatch):
        reset_observability()
        arena = BatchArena(llm.config, max_requests=self.BATCH)
        mgr = RequestManager(incremental_factory(llm, arena.new_sequence),
                             max_batch_size=self.BATCH)
        for r in range(self.BATCH):
            mgr.submit(make_prompt(rng, length=3 + r),
                       GenerationConfig(max_new_tokens=40,
                                        stop_on_eos=False))
        calls = _count_calls(monkeypatch, llm,
                             ["forward_masked_blocks", "decode"])

        def iteration():
            stats = mgr.run_iteration()
            assert stats.batch_size == self.BATCH == stats.tokens_emitted

        self._assert_one_forward_per_tick(calls, iteration)

    def _speculative_states(self, llm):
        ssm = TransformerLM(
            ModelConfig(vocab_size=64, d_model=16, n_layers=1, n_heads=2,
                        max_seq_len=96), seed=9)
        return _make_states(llm, lambda: ssm, True, 0,
                            n_requests=self.BATCH, max_new_tokens=40)

    def test_fault_degraded_fused_tick(self, llm, monkeypatch):
        reset_observability()
        states = self._speculative_states(llm)
        pipeline = DecodePipeline(
            llm, FusedBackend(llm),
            injector=ScriptedInjector({FaultKind.SPECULATION: [1]}),
            fallback_cooldown=self.WARMUP + self.STEADY,
        )
        calls = _count_calls(monkeypatch, llm,
                             ["forward_masked_blocks", "decode"])

        def tick():
            pipeline.tick(states)
            assert pipeline.speculation_suppressed

        self._assert_one_forward_per_tick(calls, tick)

    def test_planner_budget_zero_fused_tick(self, llm, monkeypatch):
        reset_observability()
        states = self._speculative_states(llm)
        pipeline = DecodePipeline(llm, FusedBackend(llm),
                                  planner=StubPlanner(()))
        calls = _count_calls(monkeypatch, llm,
                             ["forward_masked_blocks", "decode"])
        self._assert_one_forward_per_tick(
            calls, lambda: pipeline.tick(states))
        assert all(step.tree_size == 0
                   for state in states for step in state.steps)


@pytest.mark.perf_smoke
class TestSteadyStateAllocationFree:
    """After warm-up, pipeline ticks perform zero tracked allocations."""

    WARMUP_TICKS = 5

    def _drive(self, llm, packed):
        reset_observability()
        states = _make_states(
            llm, lambda: CoupledSSM(llm, alignment=0.9, seed=7,
                                    noise_scale=2.0),
            greedy=True, seed=0, max_new_tokens=40,
        )
        pipeline = DecodePipeline(llm, backend=FusedBackend(llm),
                                  packed_speculation=packed)
        live = lambda: [s for s in states if not s.finished]
        for _ in range(self.WARMUP_TICKS):
            if live():
                pipeline.tick(live())
        steady_ticks = 0
        with perf.track() as counters:
            while live():
                pipeline.tick(live())
                steady_ticks += 1
        assert steady_ticks >= 3, "batch finished before steady state"
        return counters

    @pytest.mark.parametrize("packed", [True, False],
                             ids=["packed", "per_session"])
    def test_fused_steady_state_has_zero_tracked_allocs(self, llm, packed):
        counters = self._drive(llm, packed)
        assert counters.hot_alloc_events == 0
        assert counters.hot_alloc_bytes == 0
        assert counters.mask_cells_allocated == 0

    def test_tick_allocs_counter_matches_perf_delta(self, llm):
        reset_observability()
        states = _make_states(
            llm, lambda: CoupledSSM(llm, alignment=0.9, seed=7,
                                    noise_scale=2.0),
            greedy=True, seed=1, max_new_tokens=30,
        )
        pipeline = DecodePipeline(llm, backend=FusedBackend(llm))
        # The prompt pass allocates outside any tick; only in-tick
        # allocations must land in the tick.allocs counter.
        pipeline.prefill(states)
        before = perf.COUNTERS.hot_alloc_events
        while any(not s.finished for s in states):
            pipeline.tick([s for s in states if not s.finished])
        snap = REGISTRY.snapshot()
        assert (snap["repro.engine.tick.allocs"]["value"]
                == perf.COUNTERS.hot_alloc_events - before)
