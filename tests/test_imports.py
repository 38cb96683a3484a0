"""Import-isolation tests: every subpackage imports cleanly on its own.

Circular imports can hide behind favourable import orders in a shared test
process; these tests import each public module in a *fresh* interpreter so
any cycle fails loudly regardless of ordering.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

MODULES = [
    "repro",
    "repro.core",
    "repro.core.plan",
    "repro.core.refine",
    "repro.topology",
    "repro.cluster",
    "repro.simulation",
    "repro.validation",
    "repro.validation.report",
    "repro.workloads",
    "repro.analysis",
    "repro.scenarios",
    "repro.experiments",
    "repro.io",
    "repro.io.reporting",
    "repro.cli",
]


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_in_isolation(module):
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, f"importing {module} failed:\n{proc.stderr}"


CORE = Path(__file__).resolve().parent.parent / "src" / "repro" / "core"


def imported(path: Path) -> set[str]:
    """Every module an import in *path*, a module of ``repro.core``, names.

    ``from m import n`` names ``m`` and ``m.n``, and a relative import is
    resolved against ``repro.core``.
    """
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            package = ".".join(["repro", "core"][: 3 - node.level]) if node.level else ""
            module = ".".join(part for part in (package, node.module) if part)
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_engine_layers_import_downward_only():
    # The refinement kernel takes a verdict callback and needs nothing of
    # the model; the plan packs parameters and needs neither the kernel
    # nor the closed forms that read it.
    refine = imported(CORE / "refine.py")
    assert refine and {name.split(".")[0] for name in refine} <= set(sys.stdlib_module_names) | {"numpy"}
    plan = imported(CORE / "plan.py")
    assert "repro.core.model" in plan
    for layer in ("repro.core.refine", "repro.core.stacked"):
        assert not any(name == layer or name.startswith(layer + ".") for name in plan), layer


def test_cli_entrypoint_runs_in_isolation():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "describe", "--system", "544"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "N=544" in proc.stdout


#: The product paths a fresh interpreter runs before asserting that
#: ``numpy.ma`` stayed unimported: ``np.unique`` without indices and
#: ``np.percentile`` import it (about 1 MB of resident memory) on first use.
PRODUCT_PATHS = """
import contextlib, io, sys
from repro.cli import main

commands = [
    ["validate", "--system", "544", "--messages", "300"],
    ["saturation", "--system", "544"],
    ["capacity", "--system", "544", "--budget", "150"],
    ["whatif", "--system", "544"],
    ["explore", "--scenario", "544", "--axis", "system.clusters.0.tree_depth=3,4",
     "--axis", "system.icn2.bandwidth=500,600"],
]
for command in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(command) == 0, command
    assert "numpy.ma" not in sys.modules, command
"""


def test_product_paths_leave_numpy_ma_unimported():
    proc = subprocess.run(
        [sys.executable, "-c", PRODUCT_PATHS],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
