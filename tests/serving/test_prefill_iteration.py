"""Prefill is an iteration: one batched prompt pass per admission round,
which emits every admitted request's first token.

Pinned here: greedy streams equal Algorithm 1 written out by hand (and
``IncrementalEngine``) for every manager shape, prompt length, budget and
admission count; a one-token request lives and dies inside the prefill
iteration and gives everything back; k admissions cost exactly one LLM
forward of Σ prompt rows and no SSM forward, and the first tick's level-0
draft call carries the queued prompts; a prompt scored in a batch gets the
logits it gets alone; preempt → resume re-enters through the same path and
the client-visible stream does not change.
"""

import numpy as np
import pytest

from repro.engine.generation import GenerationConfig
from repro.engine.incremental import IncrementalEngine
from repro.engine.pipeline import FusedBackend
from repro.model import perf
from repro.model.arena import BatchArena
from repro.model.config import ModelConfig
from repro.model.coupled import CoupledSSM
from repro.model.transformer import TransformerLM
from repro.obs import REGISTRY
from repro.serving.manager import RequestManager
from repro.serving.memory import KvMemoryPool
from repro.serving.session import IncrementalSession, SpeculativeSession
from repro.speculate.expansion import ExpansionConfig
from repro.speculate.speculator import Speculator
from tests.conftest import SMALL_CONFIG, make_prompt

LENGTHS = (1, 2, 32, SMALL_CONFIG.max_seq_len - 1)
BUDGETS = (1, 2, 64)
ADMISSIONS = (1, 3, 8)
WIDTHS = (1, 2, 1)

pytestmark = pytest.mark.serving


def algorithm_one(llm, prompt, budget):
    """Algorithm 1 with nothing around it — the oracle: prefill all but the
    last prompt token, then one ``decode`` per token until the budget or
    the context runs out."""
    cache = llm.new_cache()
    if len(prompt) > 1:
        llm.prefill(np.asarray(prompt[:-1]), cache)
    pending = int(prompt[-1])
    tokens = []
    while len(tokens) < budget and cache.length < llm.config.max_seq_len:
        pending = int(np.argmax(llm.decode(pending, cache)))
        tokens.append(pending)
    return tokens


def _coupled(llm):
    return CoupledSSM(llm, alignment=0.9, seed=7, noise_scale=2.0)


def build_manager(llm, kind, slots, ssm_factory=None, **kwargs):
    """``fused`` (an explicit ``FusedBackend``), ``per_request``
    (speculative sessions under the default backend) or ``incremental``
    (Algorithm 1 sessions), all over a shared arena."""
    arena = BatchArena(llm.config, max_requests=slots)
    ssm_factory = ssm_factory or (lambda: _coupled(llm))
    if kind == "incremental":
        factory = lambda req: IncrementalSession(
            req, llm, cache_factory=arena.new_sequence)
    else:
        factory = lambda req: SpeculativeSession(
            req, llm,
            lambda: Speculator([ssm_factory()], ExpansionConfig(WIDTHS)),
            cache_factory=arena.new_sequence)
    backend = FusedBackend(llm) if kind == "fused" else None
    manager = RequestManager(factory, max_batch_size=slots, backend=backend,
                             **kwargs)
    manager.arena = arena
    return manager


def _prompts(lengths):
    return [make_prompt(np.random.default_rng(1000 * length + i),
                        length=length)
            for i, length in enumerate(lengths)]


def _config(budget):
    return GenerationConfig(max_new_tokens=budget, stop_on_eos=False)


KINDS = ("fused", "per_request", "incremental")


class TestGreedyStreamsEqualAlgorithmOne:
    @pytest.mark.parametrize("admissions", ADMISSIONS)
    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_every_length_budget_and_admission_count(self, llm, kind,
                                                     budget, admissions):
        """``admissions`` requests enter in one round; rotating the length
        tuple puts every prompt length in every slot position."""
        rotations = range(len(LENGTHS)) if admissions < len(LENGTHS) else [0]
        for shift in rotations:
            lengths = [LENGTHS[(i + shift) % len(LENGTHS)]
                       for i in range(admissions)]
            prompts = _prompts(lengths)
            manager = build_manager(llm, kind, admissions)
            ids = [manager.submit(p, _config(budget)) for p in prompts]
            first = manager.run_iteration()
            # One round admitted them all, and its first tokens are back
            # before any tick has run.
            assert first.admitted == first.batch_size == admissions
            assert first.llm_tokens_scored == sum(lengths)
            assert sorted(first.emissions) == ids
            manager.run_until_complete()
            for rid, prompt in zip(ids, prompts):
                output = manager.output_for(rid)
                want = algorithm_one(llm, prompt, budget)
                assert output.tokens == want, (kind, len(prompt), budget)
                assert output.tokens == IncrementalEngine(llm).generate(
                    prompt, _config(budget)).tokens
                assert first.emissions[rid] == want[:1]
                assert output.first_token_iteration == first.iteration
            assert manager.arena.used_rows == 0


class TestOneTokenRequestsNeverTick:
    @pytest.mark.parametrize("kind", KINDS)
    def test_finishes_inside_the_prefill_iteration(self, llm, kind):
        pool = KvMemoryPool(budget_bytes=10**9, model=SMALL_CONFIG)
        manager = build_manager(llm, kind, 3, memory_pool=pool)
        prompts = _prompts([2, 32, 7])
        ids = [manager.submit(p, _config(1)) for p in prompts]
        ticks = REGISTRY.counter("repro.engine.ticks")
        before = ticks.value
        stats = manager.run_iteration()
        assert stats.finished_ids == ids and stats.finished == 3
        assert {rid: len(t) for rid, t in stats.emissions.items()} == \
            dict.fromkeys(ids, 1)
        # Slot, KV reservation and arena rows are all back; no tick ran.
        assert not manager.has_work and manager.free_slots == 3
        assert pool.reserved_bytes == 0 and pool.num_reservations == 0
        assert manager.arena.used_rows == 0
        assert ticks.value == before
        assert len(manager.iteration_stats) == 1
        for rid, prompt in zip(ids, prompts):
            output = manager.output_for(rid)
            assert output.tokens == algorithm_one(llm, prompt, 1)
            assert output.num_llm_steps == 0
            assert output.first_token_iteration == output.finish_iteration == 0

    def test_mixed_round_retires_only_the_one_token_request(self, llm):
        manager = build_manager(llm, "fused", 2)
        short = manager.submit(_prompts([5])[0], _config(1))
        long = manager.submit(_prompts([6])[0], _config(4))
        stats = manager.run_iteration()
        assert stats.finished_ids == [short]
        assert manager.num_running == 1
        manager.run_until_complete()
        assert len(manager.output_for(long).tokens) == 4


class _Tap:
    """Counts calls on one model *instance* and records how many rows each
    ``forward_masked_blocks`` scored (restored by ``monkeypatch``)."""

    NAMES = ("forward_masked_blocks", "prefill", "decode")

    def __init__(self, monkeypatch, model):
        self.calls = dict.fromkeys(self.NAMES, 0)
        self.rows = []
        for name in self.NAMES:
            def counted(*args, _name=name, _method=getattr(model, name),
                        **kwargs):
                self.calls[_name] += 1
                if _name == "forward_masked_blocks":
                    self.rows.append(len(args[0]))
                return _method(*args, **kwargs)
            monkeypatch.setattr(model, name, counted)


@pytest.mark.perf_smoke
class TestOneForwardPerAdmissionRound:
    @pytest.mark.parametrize("admissions", ADMISSIONS)
    def test_k_admissions_are_one_llm_forward_and_no_ssm_forward(
            self, llm, admissions, monkeypatch):
        ssm = TransformerLM(
            ModelConfig(vocab_size=64, d_model=16, n_layers=1, n_heads=2,
                        max_seq_len=96), seed=9)
        prompts = _prompts([3 + 4 * i for i in range(admissions)])
        rows = sum(len(p) for p in prompts)

        # What the same prompts cost one at a time, as computed operations.
        with perf.track() as solo:
            for prompt in prompts:
                llm.prefill(prompt, llm.new_cache())

        manager = build_manager(llm, "fused", admissions,
                                ssm_factory=lambda: ssm)
        for prompt in prompts:
            manager.submit(prompt, _config(16))
        llm_tap = _Tap(monkeypatch, llm)
        ssm_tap = _Tap(monkeypatch, ssm)
        fallbacks = REGISTRY.counter("repro.speculate.packed.fallbacks")
        before = fallbacks.value

        with perf.track() as batched:
            stats = manager.run_iteration()
        assert stats.admitted == admissions
        assert stats.llm_tokens_scored == rows
        assert llm_tap.calls == {"forward_masked_blocks": 1, "prefill": 0,
                                 "decode": 0}
        assert llm_tap.rows == [rows]
        assert ssm_tap.calls == dict.fromkeys(_Tap.NAMES, 0)
        # The same arithmetic as k solo prefills, in one call: nothing is
        # scored across requests and no K/V is copied to stage it.
        assert batched.gemm_flops == solo.gemm_flops
        assert batched.attn_score_flops == solo.attn_score_flops
        assert batched.kv_bytes_copied == 0

        # The first tick: ``depth`` packed SSM forwards, the first of which
        # mirrors every queued prompt under its request's root.
        manager.run_iteration()
        assert ssm_tap.calls == {"forward_masked_blocks": len(WIDTHS),
                                 "prefill": 0, "decode": 0}
        assert ssm_tap.rows[0] == rows + admissions
        assert fallbacks.value == before
        assert llm_tap.calls["forward_masked_blocks"] == 2


class TestBatchedPrefillEqualsSolo:
    @pytest.mark.parametrize("admissions", ADMISSIONS)
    def test_logits_to_1e12_and_argmax_exact(self, llm, admissions):
        prompts = _prompts([LENGTHS[i % len(LENGTHS)]
                            for i in range(admissions)])
        arena = BatchArena(llm.config, max_requests=admissions)
        caches = [arena.new_sequence() for _ in prompts]
        batched = llm.prefill_batch(prompts, caches)
        assert [c.length for c in caches] == [len(p) for p in prompts]
        for prompt, got in zip(prompts, batched):
            want = llm.prefill(prompt, llm.new_cache())
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12
            assert np.array_equal(np.argmax(got, axis=-1),
                                  np.argmax(want, axis=-1))

    def test_each_prompt_lands_after_what_its_cache_holds(self, llm):
        """A non-empty cache (a resumed prefix) is extended, not restarted."""
        prompts = _prompts([9, 20, 5])
        split = [4, 0, 2]
        caches = [llm.new_cache() for _ in prompts]
        for prompt, cache, k in zip(prompts, caches, split):
            if k:
                llm.prefill(prompt[:k], cache)
        batched = llm.prefill_batch(
            [p[k:] for p, k in zip(prompts, split)], caches)
        for prompt, k, got in zip(prompts, split, batched):
            want = llm.prefill(prompt, llm.new_cache())[k:]
            assert np.max(np.abs(got - want)) <= 1e-12


    @pytest.mark.parametrize("paged", [False, True])
    def test_long_prompt_is_causal_blocks_of_one_cache(self, llm, paged):
        """A prompt past ``PROMPT_BLOCK_ROWS`` is scored as blocks of its own
        cache: same logits, one forward of the same rows, and the masked
        upper triangle of its score matrix is not paid for."""
        from repro.model.paged_cache import PagedKVPool, PagedSequenceCache
        from repro.model.transformer import PROMPT_BLOCK_ROWS as rows

        lengths = [rows - 1, rows, rows + 1, 2 * rows, 3 * rows - 1]
        prompts = _prompts(lengths)
        pool = PagedKVPool(llm.config, num_blocks=64, block_size=8)
        caches = [PagedSequenceCache(pool) if paged else llm.new_cache()
                  for _ in prompts]
        with perf.track() as counted:
            batched = llm.prefill_batch(prompts, caches)
        assert [c.length for c in caches] == lengths
        heads, d_head = llm.config.n_heads, llm.config.d_head
        square = sum(2 * 2 * heads * n * n * d_head for n in lengths)
        assert counted.attn_score_flops < 0.8 * square * llm.config.n_layers
        for prompt, got in zip(prompts, batched):
            want = llm.prefill(prompt, llm.new_cache())
            assert np.max(np.abs(got - want)) <= 1e-12
            assert np.array_equal(np.argmax(got, axis=-1),
                                  np.argmax(want, axis=-1))


class TestPreemptResume:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("after", [1, 3])
    def test_stream_is_identical_across_preemption(self, llm, kind, after):
        """``after=1`` preempts right behind the prefill iteration (one
        committed token, no tick yet); ``after=3`` mid-decode."""
        prompts = _prompts([6, 11, 4])

        def stream(preempt):
            manager = build_manager(llm, kind, 3)
            ids = [manager.submit(p, _config(12)) for p in prompts]
            seen = {rid: [] for rid in ids}
            while manager.has_work:
                if preempt and manager.iteration == after:
                    manager.preempt(ids[1])
                    preempt = False
                stats = manager.run_iteration()
                for rid, tokens in stats.emissions.items():
                    seen[rid].extend(tokens)
            assert manager.arena.used_rows == 0
            return manager, ids, seen

        _, _, plain = stream(preempt=False)
        manager, ids, resumed = stream(preempt=True)
        assert resumed == plain
        assert manager.output_for(ids[1]).preemptions == 1
        for rid, prompt in zip(ids, prompts):
            assert resumed[rid] == manager.output_for(rid).tokens \
                == algorithm_one(llm, prompt, 12)
        # The resumed request re-entered through a prefill iteration of its
        # own, which scored prompt + committed tokens and emitted the next.
        resume = manager.iteration_stats[after]
        assert resume.admitted == 1 and list(resume.emissions) == [ids[1]]
        assert resume.preempted_ids == [ids[1]]
        if kind == "incremental":  # one token per iteration so far
            assert resume.llm_tokens_scored == len(prompts[1]) + after


class TestIterationAccounting:
    def test_steps_count_decode_iterations_only(self, llm):
        manager = build_manager(llm, "incremental", 2)
        ids = [manager.submit(p, _config(5)) for p in _prompts([4, 9])]
        manager.run_until_complete()
        log = manager.iteration_stats
        # One prefill iteration, then four one-token decode iterations.
        assert [s.admitted for s in log] == [2, 0, 0, 0, 0]
        assert [s.batch_size for s in log] == [2] * 5
        assert [s.llm_tokens_scored for s in log] == [13, 2, 2, 2, 2]
        assert [s.tokens_emitted for s in log] == [2] * 5
        for rid in ids:
            output = manager.output_for(rid)
            assert output.num_llm_steps == 4 and len(output.tokens) == 5
            assert output.first_token_iteration == 0

    def test_admit_then_step_is_run_iteration(self, llm):
        """The gateway's driver (``admit`` or else ``step``) and the replay
        driver (``run_iteration``) walk the same iteration log."""
        def drive(split):
            manager = build_manager(llm, "fused", 2)
            for prompt in _prompts([5, 8, 3]):  # one more than the slots
                manager.submit(prompt, _config(6))
            while manager.has_work:
                if split:
                    assert manager.admit() or manager.step()
                else:
                    manager.run_iteration()
            return [(s.iteration, s.admitted, s.batch_size,
                     s.llm_tokens_scored, s.emissions, s.finished_ids)
                    for s in manager.iteration_stats]

        assert drive(split=True) == drive(split=False)

    def test_admit_with_nothing_to_admit_is_not_an_iteration(self, llm):
        manager = build_manager(llm, "incremental", 1)
        assert manager.admit() is None and manager.iteration == 0
        manager.submit(_prompts([4])[0], _config(3))
        assert manager.admit().admitted == 1 and manager.iteration == 1
        assert manager.admit() is None and manager.iteration == 1
