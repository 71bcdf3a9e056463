"""Hardware-aware dynamic tree planning (Sequoia-style, per tick).

The static expansion configuration ⟨k1…km⟩ shapes a tree *within* a fixed
speculation budget; nothing in it chooses the budget itself.  Sequoia (PAPERS.md) shows that the
optimal tree size and depth depend on three things that change at run time:

* the **batch size** — verification amortizes weight traffic across the
  batch, so the verify-side marginal cost of a tree token shrinks as the
  batch grows until compute takes over (the roofline knee);
* the **hardware** — where that knee sits is a property of the machine,
  which the :class:`~repro.cluster.cost_model.LatencyModel` roofline
  already knows;
* the **measured acceptance rate** — speculated tokens only pay for their
  verify cost in proportion to how often they are accepted, and acceptance
  drifts across a session as the workload moves on and off the SSM's
  competence.

This module closes the loop.  A :class:`TreePlanner` consulted once per
pipeline tick:

1. estimates the per-token acceptance rate ``alpha`` from an EWMA over
   recent ticks (censored-geometric per-tick estimates, seeded with a
   cold-start prior),
2. solves for the expansion profile ⟨k1…kd⟩ maximizing expected accepted
   tokens per tree under every candidate token budget, by dynamic
   programming (:func:`optimal_widths`),
3. prices each candidate plan with the hardware cost model
   (:meth:`~repro.cluster.cost_model.LatencyModel.verify_seconds` plus a
   draft-model term per speculation level) and picks the budget with the
   best expected committed tokens per second,
4. **degrades to incremental decoding** (budget 0) when no speculative
   plan beats the Algorithm-1 baseline, re-probing speculation with a
   minimal tree every ``probe_cooldown`` ticks so a recovery in acceptance
   is noticed.

Everything is deterministic: the estimate is a pure function of the
observation history, and the DP breaks ties lexicographically (smallest
width first), so a seeded run re-plans identically every time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.obs import REGISTRY

_PLANS = REGISTRY.counter(
    "repro.planner.plans", help="per-tick tree plans produced")
_REPLANS = REGISTRY.counter(
    "repro.planner.replans",
    help="plans whose expansion profile changed from the previous tick")
_DEGRADED = REGISTRY.counter(
    "repro.planner.degraded_ticks",
    help="budget-0 plans (tick served by Algorithm-1 incremental decoding)")
_PROBES = REGISTRY.counter(
    "repro.planner.probes",
    help="minimal speculative plans issued on cooldown while degraded")
_BUDGET = REGISTRY.gauge(
    "repro.planner.budget",
    help="speculated-token budget of the most recent plan")
_ALPHA = REGISTRY.gauge(
    "repro.planner.alpha",
    help="EWMA per-token acceptance estimate behind the most recent plan")
_EXPECTED = REGISTRY.gauge(
    "repro.planner.expected_tokens_per_step",
    help="committed tokens per request per tick the most recent plan expects")


def tree_tokens(widths: Tuple[int, ...]) -> int:
    """Speculated tokens of the ⟨k1…kd⟩ profile (root excluded)."""
    total = 0
    frontier = 1
    for width in widths:
        frontier *= width
        total += frontier
    return total


def _accept_any(alpha: float, width: int) -> float:
    """P(some one of ``width`` distinct candidates is accepted).

    Independence approximation over candidates (the same first-order tree
    extension :func:`repro.metrics.acceptance.effective_tree_alpha` uses).
    """
    return 1.0 - (1.0 - alpha) ** width


def optimal_widths(
    alpha: float,
    budget: int,
    max_depth: int = 8,
    max_width: int = 4,
) -> Tuple[Tuple[int, ...], float]:
    """Expansion profile maximizing expected accepted tokens under a budget.

    Over profiles ⟨k1…kd⟩ with ``d <= max_depth``, each ``k_i <=
    max_width``, and :func:`tree_tokens` ``<= budget``, maximizes the
    expected number of accepted speculated tokens::

        E(k1…kd) = sum_i  prod_{j<=i} (1 - (1 - alpha)^{k_j})

    — the verifier walks one root-to-leaf path, surviving level ``i`` when
    any of that level's ``k_i`` candidates matches.  Exact dynamic program
    over (depth, remaining budget, frontier size); ties break toward the
    narrowest width, so the result is deterministic and minimal.

    Returns:
        ``(widths, expected_accepted)``; ``((), 0.0)`` when ``budget < 1``.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if max_depth < 1 or max_width < 1:
        raise ValueError("max_depth and max_width must be >= 1")
    if budget < 1 or alpha == 0.0:
        return (), 0.0

    # value[(level, remaining, frontier)] = (best expected accepted tokens
    # from this level on, best width here or 0 to stop).  The survival
    # probability accumulated above this level multiplies every downstream
    # term equally, so it never needs to be part of the state.
    memo: Dict[Tuple[int, int, int], Tuple[float, int]] = {}

    def solve(level: int, remaining: int, frontier: int) -> Tuple[float, int]:
        if level >= max_depth or remaining < frontier:
            return 0.0, 0
        key = (level, remaining, frontier)
        cached = memo.get(key)
        if cached is not None:
            return cached
        best_value, best_width = 0.0, 0
        for width in range(1, max_width + 1):
            cost = frontier * width
            if cost > remaining:
                break
            below, _ = solve(level + 1, remaining - cost, frontier * width)
            value = _accept_any(alpha, width) * (1.0 + below)
            if value > best_value + 1e-12:
                best_value, best_width = value, width
        memo[key] = (best_value, best_width)
        return best_value, best_width

    expected, _ = solve(0, budget, 1)
    widths = []
    level, remaining, frontier = 0, budget, 1
    while True:
        _, width = solve(level, remaining, frontier)
        if width == 0:
            break
        widths.append(width)
        remaining -= frontier * width
        frontier *= width
        level += 1
    return tuple(widths), expected


class AcceptanceEstimator:
    """EWMA over per-tick censored-geometric acceptance estimates.

    Each speculative tick contributes the maximum-likelihood estimate for a
    geometric acceptance process censored at tree depth: ``accepted /
    (accepted + stops)``, where ``accepted`` counts accepted speculated
    tokens and ``stops`` counts requests whose accepted path ended by
    *rejection* (not by running out of tree).  Before the first
    observation, the estimate is the cold-start ``prior``.

    Args:
        prior: Cold-start acceptance estimate.
        ewma: Weight of the newest tick (0 < ewma <= 1).
        floor: Lower clamp on the estimate (keeps the DP away from the
            degenerate all-reject corner on one unlucky tick).
        ceiling: Upper clamp (speculation never looks infinitely good).
    """

    def __init__(self, prior: float = 0.7, ewma: float = 0.25,
                 floor: float = 0.02, ceiling: float = 0.98):
        if not 0.0 <= prior <= 1.0:
            raise ValueError("prior must be in [0, 1]")
        if not 0.0 < ewma <= 1.0:
            raise ValueError("ewma must be in (0, 1]")
        if not 0.0 <= floor < ceiling <= 1.0:
            raise ValueError("need 0 <= floor < ceiling <= 1")
        self.prior = prior
        self.ewma = ewma
        self.floor = floor
        self.ceiling = ceiling
        self._estimate = prior
        self._observations = 0

    @property
    def alpha(self) -> float:
        """The clamped current acceptance estimate."""
        return min(self.ceiling, max(self.floor, self._estimate))

    @property
    def observations(self) -> int:
        """Speculative ticks folded into the estimate so far."""
        return self._observations

    def observe(self, accepted: int, stops: int) -> None:
        """Fold one speculative tick's outcome into the estimate.

        Args:
            accepted: Accepted speculated tokens, summed over the batch.
            stops: Requests whose accepted path ended in a rejection (a
                request that consumed its whole tree is censored, not a
                stop).  Ticks with no evidence either way are ignored.
        """
        if accepted < 0 or stops < 0:
            raise ValueError("accepted and stops must be >= 0")
        trials = accepted + stops
        if trials == 0:
            return
        tick_alpha = accepted / trials
        self._estimate += self.ewma * (tick_alpha - self._estimate)
        self._observations += 1

    def reset(self) -> None:
        """Return to the cold-start prior (new workload)."""
        self._estimate = self.prior
        self._observations = 0


@dataclass(frozen=True)
class TreePlan:
    """One tick's speculation decision.

    Attributes:
        budget: Speculated-token budget (0 = run the tick incrementally).
        widths: The expansion profile ⟨k1…kd⟩ realizing the budget (empty
            when ``budget`` is 0).
        alpha: Acceptance estimate the plan was solved against.
        expected_tokens: Committed tokens per request per tick the plan
            expects (accepted speculated + the bonus token).
        tick_seconds: Modeled duration of a tick under this plan.
        baseline_seconds: Modeled duration of an incremental tick at the
            same batch size (the degradation comparator).
        probe: True when this is a cooldown re-probe issued while the
            planner is otherwise degraded.
    """

    budget: int
    widths: Tuple[int, ...]
    alpha: float
    expected_tokens: float
    tick_seconds: float
    baseline_seconds: float
    probe: bool = False

    @property
    def speculative(self) -> bool:
        return self.budget > 0

    @property
    def depth(self) -> int:
        return len(self.widths)

    @property
    def goodput(self) -> float:
        """Expected committed tokens per modeled second per request."""
        return self.expected_tokens / self.tick_seconds

    @property
    def baseline_goodput(self) -> float:
        """Incremental decoding's tokens per modeled second per request."""
        return 1.0 / self.baseline_seconds


@dataclass(frozen=True)
class PlannerConfig:
    """Tuning knobs of the per-tick tree planner.

    Attributes:
        max_budget: Largest speculated-token budget the DP may spend.
        max_depth: Deepest expansion profile considered.
        max_width: Widest per-level branching considered.
        prior_alpha: Cold-start acceptance estimate.
        ewma: EWMA weight of the newest tick's acceptance evidence.
        speculation_margin: A speculative plan must beat the incremental
            baseline's goodput by this factor to be issued (> 1 demands
            real headroom; 1.0 takes any modeled win).
        probe_cooldown: Incremental ticks served between speculative
            re-probes while degraded.
        probe_budget: Token budget of a re-probe tree (kept small: the
            probe exists to refresh the acceptance estimate cheaply).
        context_len: Verified-prefix length assumed when the caller does
            not supply one.
    """

    max_budget: int = 24
    max_depth: int = 8
    max_width: int = 4
    prior_alpha: float = 0.7
    ewma: float = 0.25
    speculation_margin: float = 1.0
    probe_cooldown: int = 4
    probe_budget: int = 2
    context_len: int = 128

    def __post_init__(self) -> None:
        if self.max_budget < 1:
            raise ValueError("max_budget must be >= 1")
        if self.probe_cooldown < 1:
            raise ValueError("probe_cooldown must be >= 1")
        if not 1 <= self.probe_budget <= self.max_budget:
            raise ValueError("probe_budget must be in [1, max_budget]")
        if self.speculation_margin <= 0:
            raise ValueError("speculation_margin must be > 0")


class TreePlanner:
    """Per-tick speculation-budget planner over a hardware cost model.

    Args:
        verify_cost: :class:`~repro.cluster.cost_model.LatencyModel` pricing
            the LLM verification pass.
        draft_cost: Optional :class:`LatencyModel` pricing one SSM decode
            level (the draft tree is built level-synchronously, so its
            latency term is ``depth`` draft steps).  ``None`` prices
            drafting as free — budget choices then lean slightly deeper.
        config: Planner tuning knobs.

    Use :meth:`default` for the paper testbed pairing (LLaMA-7B verify,
    LLaMA-68M draft, one g5.12xlarge node).
    """

    def __init__(
        self,
        verify_cost,
        draft_cost=None,
        config: Optional[PlannerConfig] = None,
    ):
        self.config = config or PlannerConfig()
        self.verify_cost = verify_cost
        self.draft_cost = draft_cost
        self.estimator = AcceptanceEstimator(
            prior=self.config.prior_alpha, ewma=self.config.ewma
        )
        self._last_widths: Optional[Tuple[int, ...]] = None
        self._ticks_since_probe = 0

    @classmethod
    def default(cls, config: Optional[PlannerConfig] = None,
                model: str = "llama-7b", ssm: str = "llama-68m",
                ) -> "TreePlanner":
        """Planner priced for the paper's single-node testbed."""
        from repro.cluster.cost_model import LatencyModel
        from repro.cluster.hardware import single_node_cluster
        from repro.cluster.models import paper_model
        from repro.cluster.parallel import ParallelPlan

        cluster = single_node_cluster()
        plan = ParallelPlan(tensor_parallel=1, pipeline_stages=1)
        return cls(
            verify_cost=LatencyModel(paper_model(model), plan, cluster),
            draft_cost=LatencyModel(paper_model(ssm), plan, cluster),
            config=config,
        )

    # -- observation -----------------------------------------------------------------

    def observe(self, accepted: int, stops: int) -> None:
        """Feed one speculative tick's acceptance outcome to the EWMA."""
        self.estimator.observe(accepted, stops)

    # -- pricing ---------------------------------------------------------------------

    def _tick_seconds(self, batch_size: int, budget: int, depth: int,
                      context_len: int) -> float:
        """Modeled duration of one tick: draft levels + fused verify."""
        verify = self.verify_cost.verify_seconds(
            batch_size, 1 + budget, context_len
        )
        if depth == 0 or self.draft_cost is None:
            return verify
        draft_level = self.draft_cost.verify_seconds(
            batch_size, 1, context_len
        )
        return verify + depth * draft_level

    # -- planning --------------------------------------------------------------------

    def _solve(self, batch_size: int, context_len: int,
               alpha: float) -> TreePlan:
        """Best plan over all candidate budgets at the current estimate."""
        baseline = self._tick_seconds(batch_size, 0, 0, context_len)
        best: Optional[TreePlan] = None
        cfg = self.config
        for budget in range(1, cfg.max_budget + 1):
            widths, expected_accepted = optimal_widths(
                alpha, budget, cfg.max_depth, cfg.max_width
            )
            if not widths:
                continue
            tokens = tree_tokens(widths)
            if best is not None and tokens == best.budget:
                continue  # larger cap, same realized tree
            seconds = self._tick_seconds(
                batch_size, tokens, len(widths), context_len
            )
            candidate = TreePlan(
                budget=tokens,
                widths=widths,
                alpha=alpha,
                expected_tokens=1.0 + expected_accepted,
                tick_seconds=seconds,
                baseline_seconds=baseline,
            )
            if best is None or candidate.goodput > best.goodput + 1e-12:
                best = candidate
        if (best is None
                or best.goodput < best.baseline_goodput
                * cfg.speculation_margin):
            return TreePlan(
                budget=0, widths=(), alpha=alpha, expected_tokens=1.0,
                tick_seconds=baseline, baseline_seconds=baseline,
            )
        return best

    def _probe_plan(self, batch_size: int, context_len: int,
                    alpha: float) -> TreePlan:
        """The minimal speculative tree used to refresh the estimate."""
        cfg = self.config
        widths, expected_accepted = optimal_widths(
            alpha, cfg.probe_budget, cfg.max_depth, cfg.max_width
        )
        if not widths:
            widths, expected_accepted = (1,), alpha
        tokens = tree_tokens(widths)
        return TreePlan(
            budget=tokens,
            widths=widths,
            alpha=alpha,
            expected_tokens=1.0 + expected_accepted,
            tick_seconds=self._tick_seconds(
                batch_size, tokens, len(widths), context_len
            ),
            baseline_seconds=self._tick_seconds(
                batch_size, 0, 0, context_len
            ),
            probe=True,
        )

    def plan(self, batch_size: int,
             context_len: Optional[int] = None) -> TreePlan:
        """The speculation decision for the coming tick.

        Args:
            batch_size: Live (unfinished, speculative) requests this tick.
            context_len: Representative verified-prefix length; defaults to
                ``config.context_len``.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        context = (context_len if context_len is not None
                   else self.config.context_len)
        alpha = self.estimator.alpha
        plan = self._solve(batch_size, context, alpha)
        if not plan.speculative:
            self._ticks_since_probe += 1
            if self._ticks_since_probe >= self.config.probe_cooldown:
                self._ticks_since_probe = 0
                plan = self._probe_plan(batch_size, context, alpha)
                _PROBES.inc()
        else:
            self._ticks_since_probe = 0
        _PLANS.inc()
        if plan.widths != self._last_widths and self._last_widths is not None:
            _REPLANS.inc()
        self._last_widths = plan.widths
        if not plan.speculative:
            _DEGRADED.inc()
        _BUDGET.set(plan.budget)
        _ALPHA.set(round(alpha, 6))
        _EXPECTED.set(round(plan.expected_tokens, 6))
        return plan
