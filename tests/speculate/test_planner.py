"""Tests for the hardware-aware dynamic tree planner."""

import itertools

import pytest

from repro.speculate.planner import (
    ALPHA_CEILING,
    ALPHA_FLOOR,
    EWMA,
    PRIOR_ALPHA,
    PROBE_BUDGET,
    PROBE_COOLDOWN,
    TreePlanner,
    optimal_widths,
    tree_tokens,
)


def brute_force_widths(alpha, budget, max_depth, max_width):
    """Exhaustive best expected accepted tokens over all width vectors."""
    best_value, best_widths = 0.0, ()
    for depth in range(1, max_depth + 1):
        for widths in itertools.product(range(1, max_width + 1),
                                        repeat=depth):
            if tree_tokens(widths) > budget:
                continue
            survive, expected = 1.0, 0.0
            for width in widths:
                survive *= 1.0 - (1.0 - alpha) ** width
                expected += survive
            if expected > best_value:
                best_value, best_widths = expected, widths
    return best_widths, best_value


class TestOptimalWidths:
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.55, 0.8, 0.95])
    @pytest.mark.parametrize("budget", [1, 2, 4, 7, 9])
    def test_matches_brute_force(self, alpha, budget):
        widths, expected = optimal_widths(alpha, budget, max_depth=4,
                                          max_width=3)
        _, best = brute_force_widths(alpha, budget, 4, 3)
        assert expected == pytest.approx(best, abs=1e-9)
        assert tree_tokens(widths) <= budget
        # The returned profile realizes the claimed value.
        survive, realized = 1.0, 0.0
        for width in widths:
            survive *= 1.0 - (1.0 - alpha) ** width
            realized += survive
        assert realized == pytest.approx(expected, abs=1e-12)

    def test_zero_budget_and_zero_alpha(self):
        assert optimal_widths(0.5, 0) == ((), 0.0)
        assert optimal_widths(0.0, 8) == ((), 0.0)

    def test_respects_depth_and_width_caps(self):
        widths, _ = optimal_widths(0.9, 100, max_depth=3, max_width=2)
        assert len(widths) <= 3
        assert all(w <= 2 for w in widths)

    def test_high_alpha_goes_deep_low_alpha_goes_wide(self):
        deep, _ = optimal_widths(0.95, 8, max_depth=8, max_width=4)
        wide, _ = optimal_widths(0.1, 8, max_depth=8, max_width=4)
        assert len(deep) > len(wide)
        assert max(wide) > max(deep)

    def test_deterministic(self):
        runs = {optimal_widths(0.6180339, 17) for _ in range(3)}
        assert len(runs) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            optimal_widths(1.5, 4)
        with pytest.raises(ValueError):
            optimal_widths(0.5, 4, max_depth=0)


class TestAcceptanceEstimator:
    """The planner's EWMA over per-tick acceptance evidence."""

    def test_cold_start_is_prior(self):
        assert TreePlanner().alpha == PRIOR_ALPHA == 0.7

    def test_moves_toward_tick_estimate(self):
        planner = TreePlanner()
        planner.observe(accepted=0, stops=4)
        assert planner.alpha == pytest.approx(0.7 * (1 - EWMA))
        planner.observe(accepted=8, stops=0)
        assert planner.alpha > 0.5

    def test_converges_under_drift(self):
        planner = TreePlanner()
        for _ in range(30):
            planner.observe(accepted=1, stops=4)  # tick alpha 0.2
        assert planner.alpha == pytest.approx(0.2, abs=0.01)

    def test_zero_trial_ticks_ignored(self):
        planner = TreePlanner()
        planner.observe(accepted=0, stops=0)
        assert planner.alpha == 0.7
        assert planner.observations == 0

    def test_clamped_to_floor_and_ceiling(self):
        planner = TreePlanner()
        for _ in range(40):
            planner.observe(accepted=0, stops=10)
        assert planner.alpha == ALPHA_FLOOR
        for _ in range(40):
            planner.observe(accepted=10, stops=0)
        assert planner.alpha == ALPHA_CEILING

    def test_validation(self):
        with pytest.raises(ValueError):
            TreePlanner().observe(accepted=-1, stops=0)


class TestTreePlanner:
    def test_default_planner_speculates_at_cold_start(self):
        plan = TreePlanner().plan(batch_size=4, context_len=128)
        assert plan.speculative
        assert plan.budget == tree_tokens(plan.widths)
        assert plan.expected_tokens > 1.0
        assert plan.goodput > plan.baseline_goodput

    def test_budget_shrinks_with_batch_size(self):
        planner = TreePlanner()
        small_batch = planner.plan(batch_size=1, context_len=128)
        large_batch = planner.plan(batch_size=16, context_len=128)
        assert large_batch.budget < small_batch.budget

    def test_budget_shrinks_as_acceptance_drops(self):
        planner = TreePlanner()
        optimistic = planner.plan(batch_size=8, context_len=128)
        for _ in range(20):
            planner.observe(accepted=0, stops=8)
        pessimistic = planner.plan(batch_size=8, context_len=128)
        assert pessimistic.budget < optimistic.budget

    def test_degrades_below_margin_and_probes_on_cooldown(self):
        """At floor acceptance, a 256-request batch over short contexts is
        cheaper to decode incrementally; every PROBE_COOLDOWN-th degraded
        tick re-probes speculation with a minimal tree so an acceptance
        recovery is noticed."""
        planner = TreePlanner()
        for _ in range(20):
            planner.observe(accepted=0, stops=8)
        assert planner.alpha == ALPHA_FLOOR
        plans = [planner.plan(batch_size=256, context_len=16)
                 for _ in range(2 * PROBE_COOLDOWN)]
        probes = [i for i, plan in enumerate(plans) if plan.probe]
        assert probes == [PROBE_COOLDOWN - 1, 2 * PROBE_COOLDOWN - 1]
        for i, plan in enumerate(plans):
            if i in probes:
                assert plan.speculative
                assert plan.budget <= PROBE_BUDGET
            else:
                assert not plan.speculative

    def test_deterministic_given_identical_observations(self):
        def run():
            planner = TreePlanner()
            plans = []
            for tick in range(10):
                plans.append(planner.plan(batch_size=4, context_len=200))
                planner.observe(accepted=tick % 3, stops=2)
            return [(p.budget, p.widths, p.alpha) for p in plans]

        assert run() == run()

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            TreePlanner().plan(batch_size=0, context_len=128)
