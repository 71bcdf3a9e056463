"""Module boundaries, checked by parsing the source.

Measured and modeled stay apart: ``repro.cluster`` is the paper-scale
roofline model the figure benchmarks replay traces through.  The serving,
engine and observability paths report what this host measured or counted,
so they import nothing from it.  Every module under ``src/repro`` is
parsed, and imports at any scope count.

One home per serving fact: per-request latency is read off
``RequestOutput`` and the manager's iteration log, so no program file
(``src/``, ``benchmarks/``, ``examples/``) imports a separate report
module or reaches into the manager's private request table.

Deleted layers stay deleted: no program file imports their modules or
names their classes, methods or attributes.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Modules outside ``repro.cluster`` allowed to import it.  ``repro.cli``
#: holds the ``models``, ``latency`` and ``sweep`` verbs, which query the
#: cost model itself.  ``repro.speculate.planner`` prices its plans with
#: an A10 ``LatencyModel`` until the planner moves to a host-measured cost
#: surface (ROADMAP item 13(a)).
CLUSTER_IMPORTERS = {"repro.cli", "repro.speculate.planner"}


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def imported_modules(path: Path):
    """Every module ``path`` imports, with ``from repro import x`` read as
    ``repro.x``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            for alias in node.names:
                yield f"{node.module}.{alias.name}"


def importers_of(package: str):
    """Modules outside ``package`` that import it."""
    found = set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        name = module_name(path)
        if name == package or name.startswith(package + "."):
            continue
        if any(m == package or m.startswith(package + ".")
               for m in imported_modules(path)):
            found.add(name)
    return found


def test_only_named_modules_import_the_cost_model():
    # Equality, not a subset: a walk that found nothing would pass a subset
    # check, and an exception that is no longer needed should go.
    assert importers_of("repro.cluster") == CLUSTER_IMPORTERS


def test_nothing_imports_the_deleted_metrics_package():
    assert importers_of("repro.metrics") == set()


def program_files():
    """Every Python file of the library, the benchmarks and the examples."""
    for top in ("src", "benchmarks", "examples"):
        yield from sorted((ROOT / top).rglob("*.py"))


def test_nothing_imports_the_deleted_serving_report():
    found = {
        str(path.relative_to(ROOT)) for path in program_files()
        if any(m == "repro.serving.metrics"
               or m.startswith("repro.serving.metrics.")
               for m in imported_modules(path))
    }
    assert found == set()


def test_only_the_manager_reads_its_request_table():
    readers = {
        str(path.relative_to(ROOT)) for path in program_files()
        if any(isinstance(node, ast.Attribute) and node.attr == "_tracked"
               for node in ast.walk(ast.parse(
                   path.read_text(encoding="utf-8"))))
    }
    assert readers == {"src/repro/serving/manager.py"}


#: Layers deleted because their callers already held everything they held:
#: the gateway's loop driver (the gateway runs its own loop), the fault
#: plan and its per-kind exceptions (the injector keeps the rate and the
#: streams, and its callers ask ``should_fire``), and the verify-seam ABC
#: (the pipeline takes a ``FusedBackend`` or an ``IncrementalBackend``).
DELETED_MODULES = ("repro.serving.loop", "repro.faults.plan",
                   "repro.faults.injector")
DELETED_NAMES = ("GatewayLoop", "FaultPlan", "VerificationBackend",
                 "maybe_fail", "_loop_driver")


def names_used(path: Path):
    """Every identifier ``path`` binds, reads, imports or defines."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
            yield node.asname
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            yield node.name


@pytest.mark.parametrize("module", DELETED_MODULES)
def test_nothing_imports_a_deleted_layer(module):
    found = {
        str(path.relative_to(ROOT)) for path in program_files()
        if any(m == module or m.startswith(module + ".")
               for m in imported_modules(path))
    }
    assert found == set()


@pytest.mark.parametrize("name", DELETED_NAMES)
def test_no_program_file_names_a_deleted_layer(name):
    found = {
        str(path.relative_to(ROOT)) for path in program_files()
        if name in set(names_used(path))
    }
    assert found == set()
