"""Figure 9 — CDF of average verified tokens per step vs tree width.

Paper: for Alpaca prompts and expansion ⟨1,1,k,1,1,1,1,1⟩, wider trees
stochastically dominate narrower ones: the per-request average number of
verified tokens per decoding step shifts right as width grows (1.2-1.5x
fewer steps for greedy, 1.3-1.4x for stochastic, width 5 vs 1).
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pytest

from benchmarks.harness import (
    dataset_prompts,
    run_traces,
    save_report,
    spec_engine,
)
from repro.reporting.tables import render_series
from repro.speculate.expansion import ExpansionConfig

WIDTHS = (1, 2, 3, 4, 5)
DATASET = "Alpaca"
QUANTILES = (0.25, 0.5, 0.75)
N_PROMPTS = 8


@dataclass(frozen=True)
class Cdf:
    """An empirical CDF: ``P(X <= xs[i]) = ps[i]`` (Figure 9's plot data)."""

    xs: np.ndarray
    ps: np.ndarray

    def quantile(self, p: float) -> float:
        """Smallest x with CDF(x) >= p."""
        if not 0 <= p <= 1:
            raise ValueError(f"p must be in [0, 1], got {p}")
        idx = int(np.searchsorted(self.ps, p))
        idx = min(idx, len(self.xs) - 1)
        return float(self.xs[idx])

    def at(self, x: float) -> float:
        """CDF evaluated at ``x``."""
        idx = int(np.searchsorted(self.xs, x, side="right"))
        if idx == 0:
            return 0.0
        return float(self.ps[idx - 1])


def empirical_cdf(values: Sequence[float]) -> Cdf:
    """Empirical CDF of ``values``."""
    arr = np.sort(np.asarray(list(values), dtype=np.float64))
    if arr.size == 0:
        raise ValueError("cannot build a CDF from an empty sample")
    ps = np.arange(1, arr.size + 1, dtype=np.float64) / arr.size
    return Cdf(xs=arr, ps=ps)


def _per_request_means(width: int, greedy: bool) -> list:
    engine = spec_engine(DATASET, ExpansionConfig.width_sweep(width, depth=8,
                                                              expand_step=2))
    traces = run_traces(engine, dataset_prompts(DATASET, n=N_PROMPTS),
                        greedy=greedy)
    return [t.mean_tokens_per_step for t in traces]


def _build_report(greedy: bool):
    mode = "greedy" if greedy else "stochastic"
    lines = [
        f"Figure 9 ({mode} decoding): quantiles of per-request average "
        f"verified tokens per step"
    ]
    medians = {}
    for width in WIDTHS:
        means = _per_request_means(width, greedy)
        cdf = empirical_cdf(means)
        lines.append(
            render_series(
                f"width={width}",
                [f"p{int(q * 100)}" for q in QUANTILES],
                [cdf.quantile(q) for q in QUANTILES],
            )
        )
        medians[width] = cdf.quantile(0.5)
    return "\n".join(lines), medians


@pytest.mark.benchmark(group="fig9")
def test_fig9_greedy_cdf(benchmark):
    report, medians = benchmark.pedantic(_build_report, args=(True,),
                                         rounds=1, iterations=1)
    save_report("fig9_greedy_cdf", report)
    # Paper shape: width 5 dominates width 1 (tree reduces decoding steps).
    assert medians[5] > medians[1]
    assert medians[5] / medians[1] > 1.05


@pytest.mark.benchmark(group="fig9")
def test_fig9_stochastic_cdf(benchmark):
    report, medians = benchmark.pedantic(_build_report, args=(False,),
                                         rounds=1, iterations=1)
    save_report("fig9_stochastic_cdf", report)
    assert medians[5] > medians[1] * 0.95
