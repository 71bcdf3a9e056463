"""Learning-based speculator (paper section 3).

* :mod:`repro.speculate.expansion` -- expansion configurations ⟨k1…km⟩ and
  expansion-based token tree construction from a single SSM.
* :mod:`repro.speculate.speculator` -- the :class:`Speculator` façade: owns
  one or more SSMs (several: merge-based construction) and keeps their KV
  caches synchronized with the verified sequence.
* :mod:`repro.speculate.packed` -- the drafter: every request's tree, level
  by level, in one SSM forward per level for the whole batch.
* :mod:`repro.speculate.boost` -- adaptive boost-tuning of an SSM pool
  against the LLM on an unlabeled corpus.
* :mod:`repro.speculate.planner` -- hardware-aware per-tick tree planning:
  budget/shape solved against the cost model and measured acceptance.
"""

from repro.speculate.expansion import ExpansionConfig, expand_token_tree
from repro.speculate.planner import TreePlan, TreePlanner, optimal_widths
from repro.speculate.speculator import Speculator
from repro.speculate.boost import BoostTuner, BoostTuningReport

__all__ = [
    "ExpansionConfig",
    "expand_token_tree",
    "Speculator",
    "BoostTuner",
    "BoostTuningReport",
    "TreePlan",
    "TreePlanner",
    "optimal_widths",
]
