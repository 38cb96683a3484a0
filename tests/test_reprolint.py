"""Tests for the ``tools.reprolint`` invariant linter.

Covers every rule code with good/bad fixture snippets, the
fingerprint-changed-without-bump path (the acceptance scenario: mutate a
closed-form expression in ``core/stacked.py``, no ``ENGINE_VERSION`` bump,
gate goes red), baseline suppression, and the CLI's exit-code
conventions.  A final check locks the shipped tree itself at zero
diagnostics — the state CI enforces on every PR.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))  # `tools` is importable from the repo root only

from tools.reprolint import RULES, Diagnostic  # noqa: E402
from tools.reprolint.__main__ import lint_paths, main  # noqa: E402
from tools.reprolint.baseline import (  # noqa: E402
    filter_baseline,
    load_baseline,
    write_baseline,
)
from tools.reprolint.fingerprint import (  # noqa: E402
    SURFACES,
    check_fingerprints,
    fingerprint_source,
    write_manifest,
)
from tools.reprolint.rules import lint_source  # noqa: E402


def codes(source: str, rel: str) -> list[str]:
    return [d.code for d in lint_source(source, rel)]


# ---------------------------------------------------------------------------
# RD — determinism rules
# ---------------------------------------------------------------------------


class TestDeterminismRules:
    def test_rd101_unseeded_default_rng(self):
        bad = "import numpy as np\nrng = np.random.default_rng()\n"
        assert "RD101" in codes(bad, "src/repro/analysis/foo.py")

    def test_rd101_applies_even_inside_rng_module(self):
        bad = "import numpy as np\nrng = np.random.default_rng()\n"
        assert "RD101" in codes(bad, "src/repro/simulation/rng.py")

    def test_rd101_seeded_is_clean(self):
        good = "import numpy as np\nrng = np.random.default_rng(1234)\n"
        assert "RD101" not in codes(good, "src/repro/simulation/rng.py")

    def test_rd101_sees_through_aliases(self):
        bad = "from numpy.random import default_rng\nrng = default_rng()\n"
        assert "RD101" in codes(bad, "src/repro/analysis/foo.py")

    def test_rd102_stdlib_random_import(self):
        assert "RD102" in codes("import random\n", "src/repro/analysis/foo.py")
        assert "RD102" in codes(
            "from random import shuffle\n", "src/repro/analysis/foo.py"
        )

    def test_rd102_legacy_numpy_global_state(self):
        bad = "import numpy as np\nnp.random.seed(0)\nx = np.random.random(3)\n"
        found = codes(bad, "src/repro/workloads/foo.py")
        assert found.count("RD102") == 2

    def test_rd102_generator_methods_are_clean(self):
        # rng.random() on a Generator instance is the blessed pattern.
        good = "def draw(rng):\n    return rng.random(3)\n"
        assert codes(good, "src/repro/workloads/foo.py") == []

    def test_rd103_wall_clock_in_hot_path(self):
        bad = "import time\nstamp = time.time()\n"
        assert "RD103" in codes(bad, "src/repro/core/foo.py")
        assert "RD103" in codes(bad, "src/repro/simulation/foo.py")

    def test_rd103_perf_counter_is_instrumentation_not_clock(self):
        good = "import time\nt0 = time.perf_counter()\n"
        assert codes(good, "src/repro/simulation/foo.py") == []

    def test_rd103_aliased_import_still_caught(self):
        bad = "import time as _time\nstamp = _time.time()\n"
        assert "RD103" in codes(bad, "src/repro/simulation/foo.py")

    def test_rd103_outside_hot_path_is_out_of_scope(self):
        ok = "import time\nstamp = time.time()\n"
        assert codes(ok, "src/repro/io/foo.py") == []

    def test_rd103_datetime_now(self):
        bad = "import datetime\nstamp = datetime.datetime.now()\n"
        assert "RD103" in codes(bad, "src/repro/core/foo.py")

    def test_rd104_rng_construction_outside_rng_module(self):
        bad = "import numpy as np\nrng = np.random.default_rng(7)\n"
        assert "RD104" in codes(bad, "src/repro/core/foo.py")
        bad_seq = "import numpy as np\nss = np.random.SeedSequence(7)\n"
        assert "RD104" in codes(bad_seq, "src/repro/simulation/foo.py")

    def test_rd104_rng_module_is_exempt(self):
        good = "import numpy as np\nrng = np.random.default_rng(7)\n"
        assert codes(good, "src/repro/simulation/rng.py") == []


# ---------------------------------------------------------------------------
# RS — serialization rules
# ---------------------------------------------------------------------------


class TestSerializationRules:
    def test_rs201_to_dict_without_from_dict(self):
        bad = (
            "class Spec:\n"
            "    def to_dict(self):\n"
            "        return {}\n"
        )
        diags = lint_source(bad, "src/repro/scenarios/foo.py")
        assert [d.code for d in diags] == ["RS201"]
        assert diags[0].symbol == "Spec"

    def test_rs201_round_trippable_class_is_clean(self):
        good = (
            "from repro._util import reject_unknown_keys\n"
            "class Spec:\n"
            "    def to_dict(self):\n"
            "        return {}\n"
            "    @classmethod\n"
            "    def from_dict(cls, data):\n"
            "        reject_unknown_keys(data, (), 'spec')\n"
            "        return cls()\n"
        )
        assert codes(good, "src/repro/scenarios/foo.py") == []

    def test_rs202_from_dict_without_reject_unknown_keys(self):
        bad = (
            "class Spec:\n"
            "    def to_dict(self):\n"
            "        return {}\n"
            "    @classmethod\n"
            "    def from_dict(cls, data):\n"
            "        return cls(**data)\n"
        )
        assert "RS202" in codes(bad, "src/repro/scenarios/foo.py")

    def test_rs202_accepts_the_underscore_alias(self):
        # core/parameters.py imports it as _reject_unknown_keys.
        good = (
            "from repro._util import reject_unknown_keys as _reject_unknown_keys\n"
            "class Spec:\n"
            "    def to_dict(self):\n"
            "        return {}\n"
            "    @classmethod\n"
            "    def from_dict(cls, data):\n"
            "        _reject_unknown_keys(data, (), 'spec')\n"
            "        return cls()\n"
        )
        assert codes(good, "src/repro/core/foo.py") == []

    def test_rs203_schema_literal_outside_registry(self):
        bad = 'MY_SCHEMA = "repro.widget/1"\n'
        assert "RS203" in codes(bad, "src/repro/experiments/foo.py")

    def test_rs203_registry_module_may_declare(self):
        good = 'MY_SCHEMA = "repro.widget/1"\n'
        assert codes(good, "src/repro/io/schemas.py") == []

    def test_rs203_docstrings_do_not_count(self):
        good = '"""Results use the ``repro.widget/1`` schema."""\n\n' \
               'def f():\n    "reads repro.widget/1 documents"\n    return 1\n'
        assert codes(good, "src/repro/experiments/foo.py") == []


# ---------------------------------------------------------------------------
# RP — parallel-safety rules
# ---------------------------------------------------------------------------


class TestParallelSafetyRules:
    def test_rp301_lambda_into_run_supervised(self):
        bad = (
            "from repro.exec import run_supervised\n"
            "rows = run_supervised(lambda p: p, [1, 2], jobs=2)\n"
        )
        assert "RP301" in codes(bad, "src/repro/experiments/foo.py")

    def test_rp301_nested_function_into_run_supervised(self):
        bad = (
            "from repro.exec import run_supervised\n"
            "def run(payloads):\n"
            "    def worker(p):\n"
            "        return p\n"
            "    return run_supervised(worker, payloads)\n"
        )
        assert "RP301" in codes(bad, "src/repro/experiments/foo.py")

    def test_rp301_module_level_function_is_clean(self):
        good = (
            "from repro.exec import run_supervised\n"
            "def worker(p):\n"
            "    return p\n"
            "def run(payloads):\n"
            "    return run_supervised(worker, payloads)\n"
        )
        assert codes(good, "src/repro/experiments/foo.py") == []

    def test_rp302_callable_field_on_work_item(self):
        bad = (
            "from dataclasses import dataclass\n"
            "from typing import Callable\n"
            "@dataclass(frozen=True)\n"
            "class SimWorkItem:\n"
            "    fn: Callable\n"
        )
        assert "RP302" in codes(bad, "src/repro/simulation/foo.py")

    def test_rp302_generator_field_on_work_item(self):
        bad = (
            "import numpy as np\n"
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class SimWorkItem:\n"
            "    rng: np.random.Generator\n"
        )
        assert "RP302" in codes(bad, "src/repro/simulation/foo.py")

    def test_rp302_spec_level_fields_are_clean(self):
        good = (
            "from dataclasses import dataclass\n"
            "from repro.core.parameters import MessageSpec, SystemConfig\n"
            "@dataclass(frozen=True)\n"
            "class SimWorkItem:\n"
            "    system: SystemConfig\n"
            "    message: MessageSpec\n"
            "    seed: int\n"
            "    rate: float\n"
            "    grid: 'tuple[float, ...]'\n"
            "    note: 'str | None' = None\n"
        )
        assert codes(good, "src/repro/simulation/foo.py") == []

    def test_rp302_callable_field_on_simulation_config(self):
        bad = (
            "from dataclasses import dataclass\n"
            "from typing import Callable\n"
            "@dataclass(frozen=True)\n"
            "class SimulationConfig:\n"
            "    fn: Callable\n"
        )
        assert "RP302" in codes(bad, "src/repro/simulation/foo.py")

    def test_rp302_reaches_the_shipped_simulation_config(self):
        rel = "src/repro/simulation/runner.py"
        source = (ROOT / rel).read_text()
        assert "RP302" not in codes(source, rel)
        anchor = "    engine: str | None = None\n"
        assert source.count(anchor) == 1
        hooked = source.replace(anchor, anchor + "    hook: Callable = print\n")
        assert "RP302" in codes(hooked, rel)

    def test_rp302_only_applies_to_work_item_dataclasses(self):
        ok = (
            "from dataclasses import dataclass\n"
            "from typing import Callable\n"
            "@dataclass\n"
            "class Plan:\n"
            "    fn: Callable\n"
        )
        assert codes(ok, "src/repro/simulation/foo.py") == []

    def test_rp303_pool_import_outside_exec(self):
        bad = "from concurrent.futures import ProcessPoolExecutor\n"
        assert "RP303" in codes(bad, "src/repro/simulation/parallel.py")

    def test_rp303_pool_import_alias_outside_exec(self):
        bad = "from concurrent.futures import ProcessPoolExecutor as PPE\n"
        assert "RP303" in codes(bad, "src/repro/experiments/foo.py")

    def test_rp303_module_attribute_call_outside_exec(self):
        bad = (
            "import concurrent.futures\n"
            "pool = concurrent.futures.ProcessPoolExecutor(max_workers=2)\n"
        )
        assert "RP303" in codes(bad, "src/repro/experiments/foo.py")

    def test_rp303_exec_runtime_is_exempt(self):
        ok = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "pool = ProcessPoolExecutor(max_workers=2)\n"
        )
        assert codes(ok, "src/repro/exec/supervisor.py") == []

    def test_rp303_other_futures_imports_are_clean(self):
        ok = "from concurrent.futures import FIRST_COMPLETED, wait\n"
        assert codes(ok, "src/repro/experiments/foo.py") == []


# ---------------------------------------------------------------------------
# RF — fingerprints
# ---------------------------------------------------------------------------


def copy_surface_tree(tmp_path: Path) -> Path:
    """A scratch repo root carrying exactly the fingerprinted files."""
    root = tmp_path / "repo"
    for surface in SURFACES.values():
        for rel in surface.files:
            dst = root / rel
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(ROOT / rel, dst)
    return root


def bump_engine_version(text: str) -> str:
    """*text* of ``core/batch.py`` with ``ENGINE_VERSION`` set to a new tag."""
    bumped, count = re.subn(
        r'ENGINE_VERSION = "[^"]+"', 'ENGINE_VERSION = "batch/next"', text
    )
    assert count == 1
    return bumped


class TestFingerprints:
    def test_normalization_ignores_docstrings_and_comments(self):
        a = 'def f(x):\n    """Docs."""\n    return x + 1  # comment\n'
        b = "def f(x):\n    return x + 1\n"
        assert fingerprint_source(a) == fingerprint_source(b)

    def test_normalization_sees_numeric_changes(self):
        a = "def f(x):\n    return 0.5 * x\n"
        b = "def f(x):\n    return 0.6 * x\n"
        assert fingerprint_source(a) != fingerprint_source(b)

    def test_clean_tree_matches_manifest(self, tmp_path):
        root = copy_surface_tree(tmp_path)
        manifest = tmp_path / "fingerprints.json"
        write_manifest(root, manifest)
        assert check_fingerprints(root, manifest) == []

    def test_docstring_edit_does_not_trip(self, tmp_path):
        root = copy_surface_tree(tmp_path)
        manifest = tmp_path / "fingerprints.json"
        write_manifest(root, manifest)
        batch = root / "src/repro/core/batch.py"
        text = batch.read_text()
        assert "One-cell view of the stacked closed-form engine" in text
        batch.write_text(
            text.replace(
                "One-cell view of the stacked closed-form engine",
                "One-cell view of the stacked closed-form engine (edited docs)",
            )
        )
        assert check_fingerprints(root, manifest) == []

    @pytest.mark.parametrize(
        "rel, before, after",
        [
            ("src/repro/core/stacked.py", "lambda_i2 = 0.5 * lambda_e1", "lambda_i2 = 0.51 * lambda_e1"),
            ("src/repro/core/refine.py", "_WINDOW_MIN_ROWS = 16", "_WINDOW_MIN_ROWS = 17"),
        ],
        ids=["closed-form", "refinement-kernel"],
    )
    def test_mutated_engine_without_bump_is_rf001(self, tmp_path, rel, before, after):
        root = copy_surface_tree(tmp_path)
        manifest = tmp_path / "fingerprints.json"
        write_manifest(root, manifest)
        path = root / rel
        text = path.read_text()
        assert before in text
        path.write_text(text.replace(before, after))
        diags = check_fingerprints(root, manifest)
        assert [d.code for d in diags] == ["RF001"]
        assert diags[0].path == rel
        assert "ENGINE_VERSION" in diags[0].message

    def test_mutated_simulator_without_bump_is_rf002(self, tmp_path):
        root = copy_surface_tree(tmp_path)
        manifest = tmp_path / "fingerprints.json"
        write_manifest(root, manifest)
        wormhole = root / "src/repro/simulation/wormhole.py"
        wormhole.write_text(wormhole.read_text() + "\n_EXTRA_STATE = 1\n")
        diags = check_fingerprints(root, manifest)
        assert [d.code for d in diags] == ["RF002"]
        assert "TRAJECTORY_VERSION" in diags[0].message

    def test_reordered_links_without_bump_is_rf002(self, tmp_path):
        # links() order fixes every simulator channel id, so the topology
        # module is on the trajectory surface.
        root = copy_surface_tree(tmp_path)
        manifest = tmp_path / "fingerprints.json"
        write_manifest(root, manifest)
        tree = root / "src/repro/topology/mport_ntree.py"
        text = tree.read_text()
        up_first = (
            "yield Link(node, leaf, ChannelKind.NODE_TO_SWITCH)\n"
            "            yield Link(leaf, node, ChannelKind.SWITCH_TO_NODE)"
        )
        assert up_first in text
        down_first = (
            "yield Link(leaf, node, ChannelKind.SWITCH_TO_NODE)\n"
            "            yield Link(node, leaf, ChannelKind.NODE_TO_SWITCH)"
        )
        tree.write_text(text.replace(up_first, down_first))
        diags = check_fingerprints(root, manifest)
        assert [d.code for d in diags] == ["RF002"]
        assert diags[0].path == "src/repro/topology/mport_ntree.py"
        assert "TRAJECTORY_VERSION" in diags[0].message

    def test_bump_without_regen_is_rf003(self, tmp_path):
        root = copy_surface_tree(tmp_path)
        manifest = tmp_path / "fingerprints.json"
        write_manifest(root, manifest)
        batch = root / "src/repro/core/batch.py"
        batch.write_text(bump_engine_version(batch.read_text()))
        diags = check_fingerprints(root, manifest)
        assert [d.code for d in diags] == ["RF003"]
        assert "batch/next" in diags[0].message

    def test_bump_plus_regen_is_clean(self, tmp_path):
        root = copy_surface_tree(tmp_path)
        manifest = tmp_path / "fingerprints.json"
        stacked = root / "src/repro/core/stacked.py"
        stacked.write_text(
            stacked.read_text().replace("lambda_i2 = 0.5 * lambda_e1", "lambda_i2 = 0.51 * lambda_e1")
        )
        batch = root / "src/repro/core/batch.py"
        batch.write_text(bump_engine_version(batch.read_text()))
        write_manifest(root, manifest)
        assert check_fingerprints(root, manifest) == []

    def test_missing_manifest_is_rf003(self, tmp_path):
        root = copy_surface_tree(tmp_path)
        diags = check_fingerprints(root, tmp_path / "nope.json")
        assert [d.code for d in diags] == ["RF003"]


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------


class TestBaseline:
    def test_baseline_suppresses_by_code_path_symbol(self, tmp_path):
        bad = "import random\n"
        diags = lint_source(bad, "src/repro/analysis/foo.py")
        assert [d.code for d in diags] == ["RD102"]
        path = write_baseline(diags, tmp_path / "baseline.json")
        kept, suppressed = filter_baseline(diags, load_baseline(path))
        assert kept == [] and suppressed == 1

    def test_baseline_keys_are_line_independent(self, tmp_path):
        diags = lint_source("import random\n", "src/repro/analysis/foo.py")
        path = write_baseline(diags, tmp_path / "baseline.json")
        moved = lint_source("x = 1\n\nimport random\n", "src/repro/analysis/foo.py")
        kept, suppressed = filter_baseline(moved, load_baseline(path))
        assert kept == [] and suppressed == 1

    def test_baseline_does_not_hide_new_findings(self, tmp_path):
        path = write_baseline(
            lint_source("import random\n", "src/repro/analysis/foo.py"),
            tmp_path / "baseline.json",
        )
        new = lint_source(
            "import random\nimport numpy as np\nr = np.random.default_rng()\n",
            "src/repro/analysis/foo.py",
        )
        kept, suppressed = filter_baseline(new, load_baseline(path))
        assert [d.code for d in kept] == ["RD101"] and suppressed == 1

    def test_missing_baseline_file_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == set()

    def test_foreign_json_is_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"schema": "other/1"}))
        with pytest.raises(ValueError, match="not a reprolint baseline"):
            load_baseline(path)

    def test_main_exits_zero_with_full_baseline(self, tmp_path, capsys):
        src = tmp_path / "src" / "repro" / "analysis"
        src.mkdir(parents=True)
        (src / "foo.py").write_text("import random\n")
        baseline = tmp_path / "baseline.json"
        args = [
            "src/repro", "--root", str(tmp_path),
            "--baseline", str(baseline), "--no-fingerprints",
        ]
        assert main(args) == 1  # red without the baseline...
        assert main([*args, "--update-baseline"]) == 0
        assert main(args) == 0  # ...green once recorded
        assert "suppressed by baseline" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI conventions + the shipped tree
# ---------------------------------------------------------------------------


def run_cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "tools.reprolint", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


class TestCLI:
    def test_shipped_tree_is_clean(self):
        proc = run_cli("src/repro")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "reprolint OK" in proc.stderr

    def test_list_rules_covers_every_code(self):
        proc = run_cli("--list-rules")
        assert proc.returncode == 0
        for code in RULES:
            assert code in proc.stdout

    def test_unknown_path_is_usage_error(self):
        assert run_cli("src/definitely_not_a_package").returncode == 2

    def test_unknown_selector_is_usage_error(self):
        assert run_cli("src/repro", "--select", "XX999").returncode == 2

    def test_diagnostic_format_and_exit_one(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "foo.py").write_text("import time\nstamp = time.time()\n")
        proc = run_cli("src/repro", "--root", str(tmp_path), "--no-fingerprints")
        assert proc.returncode == 1
        assert "src/repro/core/foo.py:2:8: RD103" in proc.stdout
        assert "problem(s)" in proc.stderr

    def test_select_filters_to_one_family(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "foo.py").write_text(
            "import time\nstamp = time.time()\n"
            "class Spec:\n    def to_dict(self):\n        return {}\n"
        )
        proc = run_cli(
            "src/repro", "--root", str(tmp_path), "--no-fingerprints",
            "--select", "RS",
        )
        assert proc.returncode == 1
        assert "RS201" in proc.stdout and "RD103" not in proc.stdout

    def test_acceptance_mutating_batch_without_bump_fails_gate(self, tmp_path):
        """Mutating the vectorised engine's closed forms (which the batched
        view runs) without a bump fails the gate, end to end through the CLI."""
        scratch = tmp_path / "repo"
        shutil.copytree(ROOT / "src", scratch / "src")
        shutil.copytree(ROOT / "tools", scratch / "tools")
        stacked = scratch / "src/repro/core/stacked.py"
        text = stacked.read_text()
        assert "lambda_i2 = 0.5 * lambda_e1" in text
        stacked.write_text(
            text.replace("lambda_i2 = 0.5 * lambda_e1", "lambda_i2 = 0.5000001 * lambda_e1")
        )
        proc = run_cli("src/repro", cwd=scratch)
        assert proc.returncode == 1
        assert "RF001" in proc.stdout
        assert "src/repro/core/stacked.py" in proc.stdout


class TestShippedTree:
    def test_lint_paths_reports_nothing(self):
        assert lint_paths([ROOT / "src" / "repro"], ROOT) == []

    def test_rule_catalogue_is_documented(self):
        doc = (ROOT / "docs" / "static_analysis.md").read_text()
        for code, _description in RULES.items():
            assert code in doc, f"rule {code} missing from docs/static_analysis.md"

    def test_schema_registry_is_single_source(self):
        """Every schema constant the packages export comes from the registry."""
        from repro.io.schemas import declared_schemas

        declared = declared_schemas()
        assert declared == {
            "SCENARIO_SCHEMA": "repro.scenario/1",
            "GRID_SCHEMA": "repro.grid/1",
            "EXPERIMENT_SCHEMA": "repro.experiment/1",
            "EXPLORE_CELL_SCHEMA": "repro.explore-cell/1",
            "CALIBRATION_SCHEMA": "repro.calibration/1",
            "SIM_CURVE_SCHEMA": "repro.sim-curve/1",
            "PERFORMABILITY_SCHEMA": "repro.performability/1",
            "PERFORMABILITY_STATE_SCHEMA": "repro.performability-state/1",
            "ITEM_OUTCOME_SCHEMA": "repro.item-outcome/1",
            "RUN_JOURNAL_SCHEMA": "repro.run-journal/1",
            "FAULTS_SCHEMA": "repro.faults/1",
        }
        import repro.experiments as experiments
        import repro.performability as performability
        import repro.scenarios as scenarios

        assert scenarios.SCENARIO_SCHEMA is declared["SCENARIO_SCHEMA"]
        assert scenarios.GRID_SCHEMA is declared["GRID_SCHEMA"]
        assert experiments.EXPERIMENT_SCHEMA is declared["EXPERIMENT_SCHEMA"]
        assert experiments.CALIBRATION_SCHEMA is declared["CALIBRATION_SCHEMA"]
        assert performability.PERFORMABILITY_SCHEMA is declared["PERFORMABILITY_SCHEMA"]
        assert (
            performability.PERFORMABILITY_STATE_SCHEMA
            is declared["PERFORMABILITY_STATE_SCHEMA"]
        )
        import repro.exec as exec_runtime

        assert exec_runtime.ITEM_OUTCOME_SCHEMA is declared["ITEM_OUTCOME_SCHEMA"]
        assert exec_runtime.RUN_JOURNAL_SCHEMA is declared["RUN_JOURNAL_SCHEMA"]
        assert exec_runtime.FAULTS_SCHEMA is declared["FAULTS_SCHEMA"]

    def test_no_test_or_bench_module_defines_a_name_twice(self):
        """A second module-level ``class TestX`` or ``def test_x`` rebinds
        the name, so pytest never collects the first definition's tests."""
        import ast

        repeats = []
        for path in sorted([*ROOT.glob("tests/*.py"), *ROOT.glob("benchmarks/*.py")]):
            seen: set[str] = set()
            for node in ast.parse(path.read_text()).body:
                if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                    if node.name in seen:
                        repeats.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
                    seen.add(node.name)
        assert repeats == []

    def test_diagnostic_render_format(self):
        diag = Diagnostic("RD101", "src/x.py", 3, 4, "message", "f")
        assert diag.render() == "src/x.py:3:4: RD101 message"
        assert diag.baseline_key() == "RD101 src/x.py f"
