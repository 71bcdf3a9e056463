"""Planner-driven pipeline: parity, per-tick re-budgeting, degradation."""

import numpy as np
import pytest

from repro.engine.generation import GenerationConfig
from repro.engine.pipeline import (
    DecodePipeline,
    DecodeState,
    FusedBackend,
    IncrementalBackend,
)
from repro.model.coupled import CoupledSSM
from repro.speculate.expansion import ExpansionConfig
from repro.speculate.planner import TreePlan, TreePlanner, tree_tokens
from repro.speculate.speculator import Speculator
from tests.conftest import draft_depth_first, make_prompt


def make_states(llm, n=3, max_new_tokens=12, alignment=0.9):
    states = []
    for i in range(n):
        rng = np.random.default_rng(100 + i)
        speculator = Speculator(
            [CoupledSSM(llm, alignment=alignment, seed=7, noise_scale=2.0)],
            ExpansionConfig.paper_default(),
        )
        states.append(DecodeState(
            llm, make_prompt(rng, length=5),
            GenerationConfig(max_new_tokens=max_new_tokens, seed=i),
            speculator=speculator,
        ))
    return states


def drain(pipeline, states):
    while not all(s.finished for s in states):
        pipeline.tick([s for s in states])
    return [list(s.tokens) for s in states]


class StubPlanner:
    """A planner double whose budget the test can change between ticks."""

    def __init__(self, widths):
        self.widths = tuple(widths)
        self.observed = []

    def plan(self, batch_size, context_len):
        budget = tree_tokens(self.widths)
        return TreePlan(
            budget=budget, widths=self.widths, alpha=0.5,
            expected_tokens=1.0 + 0.5 * budget,
            tick_seconds=1.0, baseline_seconds=1.0,
        )

    def observe(self, accepted, stops):
        self.observed.append((accepted, stops))


class TestPlannerParity:
    """The planner only moves tokens-per-step, never the greedy tokens."""

    @pytest.mark.parametrize("backend_factory", [
        lambda llm: FusedBackend(llm),
        lambda llm: FusedBackend(llm, rng=np.random.default_rng(0)),
        lambda llm: IncrementalBackend(llm),
    ], ids=["per_request", "fused_block", "incremental"])
    def test_matches_static_run(self, llm, backend_factory):
        static = drain(
            DecodePipeline(llm, backend_factory(llm)), make_states(llm)
        )
        planned = drain(
            DecodePipeline(llm, backend_factory(llm),
                           planner=TreePlanner()),
            make_states(llm),
        )
        assert planned == static

    def test_packed_and_per_session_build_identical_planned_trees(self, llm):
        packed_states = make_states(llm)
        packed = DecodePipeline(llm, FusedBackend(llm),
                                planner=TreePlanner())
        drain(packed, packed_states)

        loop_states = make_states(llm)
        loop = draft_depth_first(DecodePipeline(
            llm, FusedBackend(llm), planner=TreePlanner()))
        drain(loop, loop_states)

        for a, b in zip(packed_states, loop_states):
            assert a.tokens == b.tokens
            assert ([s.tree_size for s in a.steps]
                    == [s.tree_size for s in b.steps])


class TestPerTickBudget:
    def test_budget_change_takes_effect_next_tick(self, llm):
        """Regression: the budget is a per-call parameter, not baked into
        the speculator at construction time — changing it between ticks
        must change the next tick's tree without a speculator rebuild."""
        stub = StubPlanner((1, 1, 1, 1))
        states = make_states(llm, n=2, max_new_tokens=30)
        speculators = [s.speculator for s in states]
        pipeline = DecodePipeline(llm, FusedBackend(llm), planner=stub)

        pipeline.tick(states)
        assert all(s.steps[-1].tree_size == 5 for s in states)

        stub.widths = (2,)
        pipeline.tick(states)
        assert all(s.steps[-1].tree_size == 3 for s in states)
        # Same speculator objects throughout — no rebuild, caches intact.
        assert [s.speculator for s in states] == speculators

    def test_plan_overrides_static_config_depth_accounting(self, llm):
        stub = StubPlanner((1, 1))
        states = make_states(llm, n=1, max_new_tokens=30)
        pipeline = DecodePipeline(llm, FusedBackend(llm), planner=stub)
        pipeline.tick(states)
        # ssm_steps reflects the plan's 2-level tree, not the static
        # config's depth-8 default.
        assert states[0].steps[-1].ssm_steps == 2

    def test_budget_zero_runs_algorithm_one(self, llm):
        stub = StubPlanner(())
        states = make_states(llm, n=2, max_new_tokens=6)
        pipeline = DecodePipeline(llm, FusedBackend(llm), planner=stub)
        tokens = drain(pipeline, states)
        # Every step has the incremental (Algorithm 1) trace shape: one
        # token scored, one emitted, no tree or SSM-step cost fields.
        for state in states:
            for step in state.steps:
                assert step.llm_tokens_scored == 1
                assert step.tokens_emitted == 1
                assert step.tree_size == 0
                assert step.ssm_steps == 0
        # And the emitted tokens match the speculative run bit-for-bit.
        static = drain(DecodePipeline(llm, FusedBackend(llm)),
                       make_states(llm, n=2, max_new_tokens=6))
        assert tokens == static

    def test_fault_degraded_ticks_skip_planning(self, llm):
        from repro.faults import FaultInjector

        stub = StubPlanner((1, 1, 1))
        states = make_states(llm, n=2, max_new_tokens=10)
        pipeline = DecodePipeline(
            llm, FusedBackend(llm), planner=stub,
            injector=FaultInjector(rate=1.0, seed=3),
        )
        pipeline.tick(states)
        # The speculation fault fired, so the tick ran incrementally and
        # contributed no acceptance evidence to the planner.
        assert pipeline.speculation_suppressed
        assert stub.observed == []


class TestPlannerFeedback:
    def test_observations_flow_back_to_the_estimator(self, llm):
        planner = TreePlanner()
        pipeline = DecodePipeline(llm, FusedBackend(llm), planner=planner)
        drain(pipeline, make_states(llm))
        assert planner.observations > 0

    def test_stub_receives_accepted_and_stop_counts(self, llm):
        stub = StubPlanner((1, 1, 1, 1))
        pipeline = DecodePipeline(llm, FusedBackend(llm), planner=stub)
        drain(pipeline, make_states(llm, n=2))
        assert stub.observed
        for accepted, stops in stub.observed:
            assert accepted >= 0
            assert 0 <= stops <= 2
