"""``hot-path-alloc``: the steady-state decode loop must not allocate.

The block-sparse fused decode work removed per-step KV concatenation and
mask allocation (see ``repro.model.perf`` and ``MaskScratch``); this check
keeps them out.  Calls that materialize new arrays from existing ones are
flagged:

* ``np.concatenate`` / ``np.vstack`` / ``np.hstack`` / ``np.stack`` /
  ``np.append`` / ``np.tile`` — staging copies; prefer preallocated slabs,
  zero-copy views, or ``out=`` buffers;
* ``.copy()`` / ``np.copy`` — defensive copies; prefer in-place edits of a
  reused scratch.

The check is **interprocedural**: hotness taints every function statically
reachable from a hot root (``@hot_path`` functions and hot-path files; see
:mod:`repro.analysis.checks.hotness`), so an allocation two call levels
below ``DecodePipeline.tick`` fires even though its own file is cold.
Transitive findings carry the call chain (``tick → _fit_tree``) as
evidence.

Two refinements keep the check aligned with the scratch-arena pattern
(:class:`repro.model.scratch.ScratchArena`):

* a call that writes into an explicit ``out=`` destination (typically an
  arena ``.take(...)`` view) materializes nothing new and is **clean** —
  ``np.concatenate(parts, out=arena.take(...))`` is the sanctioned way to
  stage data on the hot path;
* an allocating call **inside a comprehension** is flagged with a sharper
  message: the comprehension multiplies the allocation by its iteration
  count, which is how per-batch-slot costs sneak back in.

Reference paths and genuinely cold fallbacks stay — annotated with
``# lint: allow-alloc <reason>`` so every remaining copy is a recorded
decision, mirroring how ``perf.add_kv_copy`` charges the paged cache's
block gathers at run time.
"""

from __future__ import annotations

import ast
from typing import List, Set

from repro.analysis.callgraph import Project
from repro.analysis.core import (
    Finding,
    ProjectCheck,
    SourceFile,
    call_keywords,
    dotted_name,
    numpy_aliases,
)
from repro.analysis.checks.hotness import HotRegions, hot_function_chains

ALLOC_FUNCTIONS = ("concatenate", "vstack", "hstack", "stack", "append",
                   "tile", "copy")

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


class HotPathAllocCheck(ProjectCheck):
    name = "hot-path-alloc"
    tag = "alloc"
    description = (
        "no array-materializing calls (concatenate/stack/copy) anywhere "
        "statically reachable from the decode hot path"
    )
    required_scope = None  # hotness is computed from the call graph

    def run_project(self, project: Project) -> List[Finding]:
        chains = hot_function_chains(project)
        findings: List[Finding] = []
        for src in project.sources:
            findings.extend(self._run_file(project, src, chains))
        return findings

    def _run_file(self, project: Project, src: SourceFile,
                  chains) -> List[Finding]:
        regions = HotRegions(project, src, chains)
        if not regions.file_is_hot and not regions.spans:
            return []
        comp_calls = self._comprehension_calls(src)
        aliases = numpy_aliases(src.tree)
        findings: List[Finding] = []
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = regions.chain_at(node.lineno)
            if chain is None:
                continue
            label = self._alloc_label(node, aliases)
            if label is None:
                continue
            if id(node) in comp_calls:
                message = (
                    f"{label} inside a comprehension allocates once per "
                    f"item on the decode hot path; hoist a preallocated "
                    f"(scratch-arena) buffer out of the loop and fill "
                    f"slices, or annotate with '# lint: allow-alloc "
                    f"<reason>'"
                )
            else:
                message = (
                    f"{label} allocates on the decode hot path; "
                    f"preallocate, use a zero-copy view / out= buffer, or "
                    f"annotate with '# lint: allow-alloc <reason>'"
                )
            findings.append(src.make_finding(self, node, message,
                                             evidence=chain))
        return findings

    def _comprehension_calls(self, src: SourceFile) -> Set[int]:
        """ids of Call nodes that sit inside a comprehension body."""
        inside: Set[int] = set()
        for comp in ast.walk(src.tree):
            if not isinstance(comp, _COMPREHENSIONS):
                continue
            for node in ast.walk(comp):
                if isinstance(node, ast.Call):
                    inside.add(id(node))
        return inside

    def _alloc_label(self, node: ast.Call, aliases) -> "str | None":
        # A call writing into an explicit out= destination (typically a
        # scratch-arena ``.take(...)`` view) materializes no new array.
        if "out" in call_keywords(node):
            return None
        name = dotted_name(node.func)
        head, _, func = name.rpartition(".")
        if head in aliases and func in ALLOC_FUNCTIONS:
            return f"{name}()"
        # Method-style .copy() on any receiver (arrays are the common case).
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr == "copy" and not node.args):
            return ".copy()"
        return None
