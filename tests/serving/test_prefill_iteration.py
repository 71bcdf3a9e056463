"""Prefill is an iteration: one batched prompt pass per admission round,
which emits every admitted request's first token.

Pinned here: greedy streams equal Algorithm 1 written out by hand (and
``IncrementalEngine``) for every manager shape, prompt length, budget and
admission count; a one-token request lives and dies inside the prefill
iteration and gives everything back; k admissions cost exactly one LLM
forward of Σ prompt rows and no SSM forward, and the first tick's level-0
draft call carries the queued prompts; a prompt scored in a batch gets the
last-row logits it gets alone, and stores the K/V the whole forward stores,
though only its last row goes through the last layer past its K/V and the
LM head; preempt → resume re-enters through the same path and the
client-visible stream does not change.
"""

import numpy as np
import pytest

from repro.engine.generation import GenerationConfig
from repro.engine.incremental import IncrementalEngine
from repro.engine.pipeline import FusedBackend
from repro.model import attention, perf
from repro.model.kv_cache import BatchArena
from repro.model.config import ModelConfig
from repro.model.coupled import CoupledSSM
from repro.model.transformer import (
    PROMPT_BLOCK_ROWS,
    SLOT_MIN_BLOCKS,
    TransformerLM,
    slot_block_rows,
)
from repro.obs import REGISTRY
from repro.serving.manager import RequestManager
from repro.serving.session import IncrementalSession, SpeculativeSession
from repro.speculate.expansion import ExpansionConfig
from repro.speculate.speculator import Speculator
from tests.conftest import (
    SMALL_CONFIG,
    arena_rows_used,
    llm_rows_forwarded,
    make_prompt,
)

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
            start = llm_rows_forwarded()
            first = manager.run_iteration()
            # One round admitted them all, and its first tokens are back
            # before any tick has run.
            assert first.admitted == first.batch_size == admissions
            assert llm_rows_forwarded() - start == sum(lengths)
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
        rows_before = arena_rows_used()
        manager = build_manager(llm, kind, 3)
        prompts = _prompts([2, 32, 7])
        ids = [manager.submit(p, _config(1)) for p in prompts]
        ticks = REGISTRY.counter("repro.engine.ticks")
        before = ticks.value
        stats = manager.run_iteration()
        assert stats.finished_ids == ids and stats.finished == 3
        assert {rid: len(t) for rid, t in stats.emissions.items()} == \
            dict.fromkeys(ids, 1)
        # Slots and arena rows are all back; no tick ran.
        assert not manager.has_work and manager.free_slots == 3
        assert manager.arena.used_rows == 0
        assert arena_rows_used() == rows_before
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
        packed = REGISTRY.counter("repro.speculate.packed.requests")
        before = packed.value
        rows_before = llm_rows_forwarded()

        with perf.track() as batched:
            stats = manager.run_iteration()
        assert stats.admitted == admissions
        assert llm_rows_forwarded() - rows_before == rows
        assert llm_tap.calls == {"forward_masked_blocks": 1, "prefill": 0,
                                 "decode": 0}
        assert llm_tap.rows == [rows]
        assert ssm_tap.calls == dict.fromkeys(_Tap.NAMES, 0)
        # The arithmetic of k solo prefills, in one call, less what no
        # read row needs: each prompt row but the last stops at the last
        # layer's K/V store, so it skips that layer's output projection,
        # MLP and attention.  Nothing is scored across requests and no K/V
        # is copied to stage it.
        cfg = llm.config
        unread = rows - admissions
        assert batched.gemm_flops == solo.gemm_flops - unread * 2 * (
            cfg.d_model ** 2 + 2 * cfg.d_model * cfg.d_ff)
        assert batched.attn_score_flops == solo.attn_score_flops - sum(
            2 * 2 * cfg.n_heads * (len(p) - 1) * len(p) * cfg.d_head
            for p in prompts)
        assert batched.kv_bytes_copied == 0

        # The first tick: a packed SSM forward per level down to the
        # fan-out, the first of which mirrors every queued prompt under its
        # request's root.  No walk passes the fan-out (one LLM forward
        # verifies), so nothing is drafted below it.
        manager.run_iteration()
        assert ssm_tap.calls == {"forward_masked_blocks": WIDTHS.index(2) + 1,
                                 "prefill": 0, "decode": 0}
        assert ssm_tap.rows[0] == rows + admissions
        assert packed.value == before + admissions
        assert llm_tap.calls["forward_masked_blocks"] == 2


def _assert_last_rows(llm, sequences, got):
    """``got`` holds one row per sequence: its last row of a solo
    ``prefill``, to 1e-12 with the same argmax."""
    assert got.shape == (len(sequences), llm.config.vocab_size)
    for sequence, row in zip(sequences, got):
        want = llm.prefill(sequence, llm.new_cache())[-1]
        assert np.max(np.abs(row - want)) <= 1e-12
        assert np.argmax(row) == np.argmax(want)


class TestBatchedPrefillEqualsSolo:
    @pytest.mark.parametrize("admissions", ADMISSIONS)
    def test_logits_to_1e12_and_argmax_exact(self, llm, admissions):
        prompts = _prompts([LENGTHS[i % len(LENGTHS)]
                            for i in range(admissions)])
        arena = BatchArena(llm.config, max_requests=admissions)
        caches = [arena.new_sequence() for _ in prompts]
        batched = llm.prefill_batch(prompts, caches)
        assert [c.length for c in caches] == [len(p) for p in prompts]
        _assert_last_rows(llm, prompts, batched)

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
        assert [c.length for c in caches] == [len(p) for p in prompts]
        _assert_last_rows(llm, prompts, batched)

    def test_long_prompt_is_causal_blocks_of_one_cache(self, llm):
        """A prompt past ``PROMPT_BLOCK_ROWS`` is scored as blocks of its own
        cache: same logits, one forward of the same rows, and the masked
        upper triangle of its score matrix is not paid for."""
        rows = PROMPT_BLOCK_ROWS
        lengths = [rows - 1, rows, rows + 1, 2 * rows, 3 * rows - 1]
        prompts = _prompts(lengths)
        caches = [llm.new_cache() for _ in prompts]
        with perf.track() as counted:
            batched = llm.prefill_batch(prompts, caches)
        assert [c.length for c in caches] == lengths
        heads, d_head = llm.config.n_heads, llm.config.d_head
        square = sum(2 * 2 * heads * n * n * d_head for n in lengths)
        assert counted.attn_score_flops < 0.8 * square * llm.config.n_layers
        _assert_last_rows(llm, prompts, batched)


#: (prompt lengths, rows each cache holds before the pass).  The last two
#: are four or more prompts of one or two rows in arena slots, which the
#: forward scores slot-major.
PASSES = [
    ((1,), (0,)),
    ((95,), (0,)),
    ((31, 32, 33), (0, 0, 0)),
    ((1, 2, 31, 32, 33, 64, 95), (0,) * 7),
    ((64, 33, 2, 1, 32, 31, 95, 1), (0, 5, 9, 0, 40, 3, 1, 60)),
    ((33, 64), (31, 1)),
    ((1, 2, 1, 2), (0,) * 4),
    ((2, 1, 2, 1, 2, 1, 2, 1), (3, 0, 7, 12, 0, 1, 30, 2)),
]


class TestPromptPassReadsLastRows:
    """Only each prompt's last row goes past the last layer's K/V store:
    the row returned matches a whole ``prefill``'s last row, and every
    layer's K/V is the untrimmed pass's, bit for bit."""

    @staticmethod
    def _pass(llm, lengths, held):
        """One ``prefill_batch`` over arena slots whose caches hold
        ``held`` rows of each sequence before the pass."""
        rng = np.random.default_rng(sum(lengths) + len(lengths))
        arena = BatchArena(llm.config, max_requests=len(lengths))
        caches = [arena.new_sequence() for _ in lengths]
        sequences, prompts = [], []
        for cache, length, rows in zip(caches, lengths, held):
            sequence = make_prompt(rng, length=rows + length)
            if rows:
                llm.prefill(sequence[:rows], cache)
            sequences.append(sequence)
            prompts.append(sequence[rows:])
        return sequences, llm.prefill_batch(prompts, caches), caches

    @pytest.mark.parametrize("lengths, held", PASSES)
    def test_last_rows_and_bitwise_kv(self, llm, lengths, held, monkeypatch):
        calls = []
        slot_major = attention._slot_major_attention
        forward = llm.forward_masked_blocks

        def counted(*args, **kwargs):
            calls.append(1)
            return slot_major(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(attention, "_slot_major_attention", counted)
            sequences, got, caches = self._pass(llm, lengths, held)
        with monkeypatch.context() as patch:
            # The untrimmed pass: every row to the LM head.
            patch.setattr(llm, "forward_masked_blocks",
                          lambda *a, read=None, **k: forward(*a, **k)[read])
            _, _, reference = self._pass(llm, lengths, held)
        _assert_last_rows(llm, sequences, got)
        for cache, copy, sequence in zip(caches, reference, sequences):
            assert cache.length == copy.length == len(sequence)
            for layer, layer_copy in zip(cache.layers, copy.layers):
                for a, b in zip(layer.view(), layer_copy.view()):
                    np.testing.assert_array_equal(a, b)
        slot_shaped = (len(lengths) >= SLOT_MIN_BLOCKS
                       and max(lengths) <= slot_block_rows(llm.config))
        assert len(calls) == (llm.config.n_layers if slot_shaped else 0)


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
            rows = []
            while manager.has_work:
                if preempt and manager.iteration == after:
                    manager.preempt(ids[1])
                    preempt = False
                start = llm_rows_forwarded()
                stats = manager.run_iteration()
                rows.append(llm_rows_forwarded() - start)
                for rid, tokens in stats.emissions.items():
                    seen[rid].extend(tokens)
            assert manager.arena.used_rows == 0
            return manager, ids, seen, rows

        _, _, plain, _ = stream(preempt=False)
        manager, ids, resumed, rows = stream(preempt=True)
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
            assert rows[after] == len(prompts[1]) + after


class TestIterationAccounting:
    def test_steps_count_decode_iterations_only(self, llm):
        manager = build_manager(llm, "incremental", 2)
        ids = [manager.submit(p, _config(5)) for p in _prompts([4, 9])]
        rows = []
        while manager.has_work:
            start = llm_rows_forwarded()
            manager.run_iteration()
            rows.append(llm_rows_forwarded() - start)
        log = manager.iteration_stats
        # One prefill iteration, then four one-token decode iterations.
        assert [s.admitted for s in log] == [2, 0, 0, 0, 0]
        assert [s.batch_size for s in log] == [2] * 5
        assert rows == [13, 2, 2, 2, 2]
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
                     s.emissions, s.finished_ids)
                    for s in manager.iteration_stats]

        assert drive(split=True) == drive(split=False)

    def test_admit_with_nothing_to_admit_is_not_an_iteration(self, llm):
        manager = build_manager(llm, "incremental", 1)
        assert manager.admit() is None and manager.iteration == 0
        manager.submit(_prompts([4])[0], _config(3))
        assert manager.admit().admitted == 1 and manager.iteration == 1
        assert manager.admit() is None and manager.iteration == 1
