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
   minimal tree every :data:`PROBE_COOLDOWN` ticks so a recovery in
   acceptance is noticed.

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

#: Largest speculated-token budget the DP may spend.
MAX_BUDGET = 24
#: Deepest expansion profile and widest per-level branching considered.
MAX_DEPTH = 8
MAX_WIDTH = 4
#: Cold-start acceptance estimate, and the EWMA weight of the newest tick.
PRIOR_ALPHA = 0.7
EWMA = 0.25
#: Clamps on the acceptance estimate: the floor keeps the DP away from the
#: all-reject corner after one unlucky tick, the ceiling keeps speculation
#: from ever looking free.
ALPHA_FLOOR = 0.02
ALPHA_CEILING = 0.98
#: Budget-0 (incremental) ticks served between speculative re-probes, and
#: the token budget of a re-probe tree (small: it only refreshes the
#: acceptance estimate).
PROBE_COOLDOWN = 4
PROBE_BUDGET = 2


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

    Independence approximation over candidates: each succeeds with
    marginal probability ``alpha``, so the set fails only if all do.  Real
    candidates are the SSM's top-``width``, so this slightly overestimates.
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


class TreePlanner:
    """Per-tick speculation-budget planner priced for the paper's testbed.

    Verification is priced as LLaMA-7B and each draft level as LLaMA-68M,
    both on one GPU of one g5.12xlarge node
    (:class:`~repro.cluster.cost_model.LatencyModel`; the draft tree is
    built level-synchronously, so a plan of depth ``d`` pays ``d`` draft
    steps).  The acceptance estimate is an EWMA over per-tick
    censored-geometric estimates: a speculative tick contributes the
    maximum-likelihood estimate ``accepted / (accepted + stops)``, where
    ``accepted`` counts accepted speculated tokens and ``stops`` counts
    requests whose accepted path ended by *rejection* (not by running out
    of tree).  Before the first observation the estimate is
    :data:`PRIOR_ALPHA`.
    """

    def __init__(self):
        from repro.cluster.cost_model import LatencyModel
        from repro.cluster.hardware import single_node_cluster
        from repro.cluster.models import paper_model
        from repro.cluster.parallel import ParallelPlan

        cluster = single_node_cluster()
        plan = ParallelPlan(tensor_parallel=1, pipeline_stages=1)
        self._verify = LatencyModel(paper_model("llama-7b"), plan, cluster)
        self._draft = LatencyModel(paper_model("llama-68m"), plan, cluster)
        self._estimate = PRIOR_ALPHA
        self._observations = 0
        self._last_widths: Optional[Tuple[int, ...]] = None
        self._ticks_since_probe = 0

    # -- observation -----------------------------------------------------------------

    @property
    def alpha(self) -> float:
        """The clamped current acceptance estimate."""
        return min(ALPHA_CEILING, max(ALPHA_FLOOR, self._estimate))

    @property
    def observations(self) -> int:
        """Speculative ticks folded into the estimate so far."""
        return self._observations

    def observe(self, accepted: int, stops: int) -> None:
        """Fold one speculative tick's acceptance outcome into the EWMA.

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
        self._estimate += EWMA * (accepted / trials - self._estimate)
        self._observations += 1

    # -- pricing ---------------------------------------------------------------------

    def _candidate(self, batch_size: int, context_len: int, alpha: float,
                   widths: Tuple[int, ...], expected_accepted: float,
                   probe: bool = False) -> TreePlan:
        """The plan drafting ``widths``, priced as draft levels + one fused
        verify against an incremental tick at the same batch size."""
        tokens = tree_tokens(widths)
        draft_level = self._draft.verify_seconds(batch_size, 1, context_len)
        return TreePlan(
            budget=tokens,
            widths=widths,
            alpha=alpha,
            expected_tokens=1.0 + expected_accepted,
            tick_seconds=self._verify.verify_seconds(
                batch_size, 1 + tokens, context_len)
            + len(widths) * draft_level,
            baseline_seconds=self._verify.verify_seconds(
                batch_size, 1, context_len),
            probe=probe,
        )

    # -- planning --------------------------------------------------------------------

    def _solve(self, batch_size: int, context_len: int,
               alpha: float) -> TreePlan:
        """Best plan over all candidate budgets at the current estimate, or
        budget 0 when none beats incremental decoding."""
        best: Optional[TreePlan] = None
        for budget in range(1, MAX_BUDGET + 1):
            widths, expected_accepted = optimal_widths(
                alpha, budget, MAX_DEPTH, MAX_WIDTH
            )
            if best is not None and tree_tokens(widths) == best.budget:
                continue  # larger cap, same realized tree
            candidate = self._candidate(batch_size, context_len, alpha,
                                        widths, expected_accepted)
            if best is None or candidate.goodput > best.goodput + 1e-12:
                best = candidate
        if best.goodput < best.baseline_goodput:
            return TreePlan(
                budget=0, widths=(), alpha=alpha, expected_tokens=1.0,
                tick_seconds=best.baseline_seconds,
                baseline_seconds=best.baseline_seconds,
            )
        return best

    def plan(self, batch_size: int, context_len: int) -> TreePlan:
        """The speculation decision for the coming tick.

        Args:
            batch_size: Live (unfinished, speculative) requests this tick.
            context_len: Representative verified-prefix length.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        alpha = self.alpha
        plan = self._solve(batch_size, context_len, alpha)
        if not plan.speculative:
            self._ticks_since_probe += 1
            if self._ticks_since_probe >= PROBE_COOLDOWN:
                # The minimal speculative tree, to refresh the estimate.
                self._ticks_since_probe = 0
                plan = self._candidate(
                    batch_size, context_len, alpha,
                    *optimal_widths(alpha, PROBE_BUDGET, MAX_DEPTH,
                                    MAX_WIDTH),
                    probe=True)
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
