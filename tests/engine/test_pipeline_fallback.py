"""Pipeline fault fallback: degraded ticks decode incrementally, losslessly.

A speculation or verification fault must not crash a tick — the pipeline
degrades to Algorithm 1 (one-node tree through the incremental backend) and
re-enables speculation after ``fallback_cooldown`` clean ticks.  Under
greedy verification the degraded ticks emit exactly the tokens the
speculative path would have, so a faulted run's output is bit-identical to
a fault-free run.
"""

import pytest

from repro.engine.generation import GenerationConfig
from repro.engine.incremental import IncrementalEngine
from repro.engine.pipeline import DecodePipeline, DecodeState
from repro.faults import FaultInjector, FaultKind
from repro.speculate.expansion import ExpansionConfig
from repro.speculate.speculator import Speculator
from tests.conftest import make_prompt


class ScriptedInjector(FaultInjector):
    """Deterministic test double: fires per-kind scripted decisions."""

    def __init__(self, script):
        super().__init__(rate=0.0)
        self._script = {kind: list(flags) for kind, flags in script.items()}

    def _decide(self, kind):
        flags = self._script.get(kind)
        return bool(flags.pop(0)) if flags else False


def make_state(llm, ssm, prompt, max_new_tokens=12):
    """A prefilled state, so each tick below is a decode tick only."""
    state = DecodeState(
        llm, prompt,
        GenerationConfig(max_new_tokens=max_new_tokens, stop_on_eos=False),
        speculator=Speculator([ssm], ExpansionConfig((1, 2, 1))),
    )
    DecodePipeline(llm).prefill([state])
    return state


class TestFallbackEntry:
    def test_speculation_fault_degrades_tick(self, llm, ssm, rng):
        state = make_state(llm, ssm, make_prompt(rng))
        pipeline = DecodePipeline(
            llm,
            injector=ScriptedInjector({FaultKind.SPECULATION: [1]}),
            fallback_cooldown=2,
        )
        outcome = pipeline.tick([state])[0]
        assert pipeline.speculation_suppressed
        assert outcome.advanced
        assert len(outcome.emitted) == 1
        # Degraded steps record the Algorithm-1 trace shape: no tree, no
        # SSM time, one token scored.
        trace = state.steps[-1]
        assert trace.tree_size == 0
        assert trace.ssm_steps == 0
        assert trace.llm_tokens_scored == 1

    def test_verification_fault_degrades_tick(self, llm, ssm, rng):
        state = make_state(llm, ssm, make_prompt(rng))
        pipeline = DecodePipeline(
            llm,
            injector=ScriptedInjector({FaultKind.VERIFICATION: [1]}),
            fallback_cooldown=1,
        )
        outcome = pipeline.tick([state])[0]
        assert pipeline.speculation_suppressed
        assert len(outcome.emitted) == 1
        assert state.steps[-1].tree_size == 0

    def test_no_injector_never_degrades(self, llm, ssm, rng):
        state = make_state(llm, ssm, make_prompt(rng))
        pipeline = DecodePipeline(llm)
        pipeline.tick([state])
        assert not pipeline.speculation_suppressed
        assert state.steps[-1].tree_size > 0


class TestCooldown:
    def test_speculation_resumes_after_cooldown(self, llm, ssm, rng):
        """Entry tick + N cooldown ticks degrade; then speculation resumes."""
        state = make_state(llm, ssm, make_prompt(rng), max_new_tokens=20)
        pipeline = DecodePipeline(
            llm,
            injector=ScriptedInjector({FaultKind.SPECULATION: [1]}),
            fallback_cooldown=2,
        )
        for i in range(3):  # entry + 2 cooldown ticks
            pipeline.tick([state])
            assert state.steps[-1].tree_size == 0
            if i < 2:  # suppression drains exactly at the last cooldown tick
                assert pipeline.speculation_suppressed
        pipeline.tick([state])  # cooldown drained: speculation resumes
        assert not pipeline.speculation_suppressed
        assert state.steps[-1].tree_size > 0

    def test_zero_cooldown_degrades_single_tick(self, llm, ssm, rng):
        state = make_state(llm, ssm, make_prompt(rng))
        pipeline = DecodePipeline(
            llm,
            injector=ScriptedInjector({FaultKind.SPECULATION: [1]}),
            fallback_cooldown=0,
        )
        pipeline.tick([state])
        assert state.steps[-1].tree_size == 0
        assert not pipeline.speculation_suppressed
        pipeline.tick([state])
        assert state.steps[-1].tree_size > 0

    def test_negative_cooldown_rejected(self, llm):
        with pytest.raises(ValueError):
            DecodePipeline(llm, fallback_cooldown=-1)


class TestLosslessness:
    def test_faulted_run_is_bit_identical_under_greedy(self, llm, ssm, rng):
        """Faults change the path, never the tokens (greedy verification)."""
        prompt = make_prompt(rng)
        config = GenerationConfig(max_new_tokens=14, stop_on_eos=False)
        reference = IncrementalEngine(llm).generate(prompt, config).tokens

        state = make_state(llm, ssm, prompt, max_new_tokens=14)
        pipeline = DecodePipeline(
            llm,
            injector=ScriptedInjector({
                FaultKind.SPECULATION: [0, 1, 0, 0, 0, 1],
                FaultKind.VERIFICATION: [1],
            }),
            fallback_cooldown=2,
        )
        pipeline.run_to_completion(state)
        assert state.tokens == reference

    def test_incremental_states_unaffected_by_speculation_faults(
            self, llm, rng):
        """A batch with no speculators draws no speculation decisions."""
        prompt = make_prompt(rng)
        config = GenerationConfig(max_new_tokens=6, stop_on_eos=False)
        injector = ScriptedInjector({})
        state = DecodeState(llm, prompt, config)
        pipeline = DecodePipeline(llm, injector=injector)
        pipeline.run_to_completion(state)
        assert injector.checks[FaultKind.SPECULATION] == 0
        reference = IncrementalEngine(llm).generate(prompt, config).tokens
        assert state.tokens == reference
