"""The committed paper-figure reports are what their benchmarks render.

``benchmarks/results/fig7_*.txt`` and ``fig8_offloading.txt`` are quoted by
EXPERIMENTS.md; a change that moves the traces or the cost model must
regenerate them (``PYTHONPATH=src:. python -m pytest
benchmarks/bench_fig7_distributed.py benchmarks/bench_fig8_offloading.py``)
or this fails.  The builders are called directly, so no pytest-benchmark is
needed.  The reports render from the bench LLM's cold-train weights whatever
order the suite runs in: ``benchmarks.harness.bench_llm`` trains on a corpus
of its own and retrains over a cached checkpoint from another recipe.
"""

import os

import pytest

from benchmarks import bench_fig7_distributed, bench_fig8_offloading
from benchmarks.harness import RESULTS_DIR


BUILDERS = {
    "fig7_distributed": bench_fig7_distributed._build_report,
    "fig7_sequence_vs_tree":
        bench_fig7_distributed._build_sequence_vs_tree_report,
    "fig8_offloading": bench_fig8_offloading._build_report,
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_committed_report_is_current(name):
    report, _ = BUILDERS[name]()
    with open(os.path.join(RESULTS_DIR, f"{name}.txt")) as fh:
        assert fh.read() == report + "\n"
