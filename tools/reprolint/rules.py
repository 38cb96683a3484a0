"""AST rule implementations for the RD/RS/RP families.

Every rule works on a *normalized* tree — docstrings are stripped before
any rule runs (comments never reach the AST), so documentation edits can
never trip the linter.  Rules resolve imported names through a per-module
alias table (``import numpy as np`` makes ``np.random.default_rng``
resolve to ``numpy.random.default_rng``), so aliasing cannot hide a
violation.

The entry point is :func:`lint_source`; path-scoping (which rules apply
where) lives in the small predicate helpers so the fixture tests can
exercise it with temporary trees.
"""

from __future__ import annotations

import ast
import re
from pathlib import PurePosixPath

from tools.reprolint import Diagnostic

__all__ = ["lint_source", "strip_docstrings"]

# ---------------------------------------------------------------------------
# normalization and shared helpers
# ---------------------------------------------------------------------------


def strip_docstrings(tree: ast.AST) -> ast.AST:
    """Drop every docstring statement in place (module/class/function).

    Shared with the fingerprint hasher: both the rules and the
    cache-surface hashes must be blind to documentation-only edits.
    """
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            body.pop(0)
            if not body:
                body.append(ast.Pass())
    return tree


def _alias_table(tree: ast.Module) -> dict[str, str]:
    """Local name -> dotted origin for every import in the module."""
    table: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                table[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                table[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return table


def _resolve(node: ast.expr, aliases: dict[str, str]) -> str | None:
    """Dotted path of an attribute/name chain with import aliases applied."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(aliases.get(node.id, node.id))
    return ".".join(reversed(parts))


class _Scopes:
    """Maps every node to its innermost enclosing def/class name."""

    def __init__(self, tree: ast.Module) -> None:
        self._symbol: dict[ast.AST, str] = {}
        self.nested_functions: set[str] = set()
        self._walk(tree, "<module>", 0)

    def _walk(self, node: ast.AST, symbol: str, func_depth: int) -> None:
        for child in ast.iter_child_nodes(node):
            child_symbol = symbol
            child_depth = func_depth
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                child_symbol = child.name
                child_depth = func_depth + 1
                if func_depth > 0:
                    self.nested_functions.add(child.name)
            elif isinstance(child, ast.ClassDef):
                child_symbol = child.name
            self._symbol[child] = child_symbol
            self._walk(child, child_symbol, child_depth)

    def symbol(self, node: ast.AST) -> str:
        return self._symbol.get(node, "<module>")


def _parts(rel_path: str) -> tuple[str, ...]:
    return PurePosixPath(rel_path.replace("\\", "/")).parts


def _in_hot_path(rel_path: str) -> bool:
    """RD103/RD104 scope: the ``core``/``simulation`` packages."""
    return bool({"core", "simulation"} & set(_parts(rel_path)[:-1]))


def _is_rng_module(rel_path: str) -> bool:
    """The one module allowed to construct RNGs."""
    parts = _parts(rel_path)
    return parts[-1] == "rng.py" and "simulation" in parts[:-1]


#: The single module allowed to *declare* ``repro.*/N`` schema tags.
SCHEMA_REGISTRY_PATH = "src/repro/io/schemas.py"


def _is_schema_registry(rel_path: str) -> bool:
    parts = _parts(rel_path)
    return parts[-2:] == ("io", "schemas.py")


def _is_exec_runtime(rel_path: str) -> bool:
    """RP303 exemption: the supervised execution runtime package."""
    return "exec" in _parts(rel_path)[:-1]


# ---------------------------------------------------------------------------
# RD — determinism
# ---------------------------------------------------------------------------

#: Legacy global-state functions of ``numpy.random`` (RD102).  Calling any
#: of these consumes or mutates the hidden module-level generator, which
#: breaks replayability across import orders and worker processes.
_NP_RANDOM_GLOBAL = {
    "seed", "random", "rand", "randn", "randint", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "uniform", "normal",
    "exponential", "poisson", "standard_normal", "standard_exponential",
    "get_state", "set_state", "bytes", "binomial", "gamma", "beta",
}

#: RNG constructors that must live in ``simulation/rng.py`` (RD104).
_RNG_CONSTRUCTORS = {
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
    "numpy.random.RandomState",
    "numpy.random.PCG64",
    "numpy.random.Philox",
    "numpy.random.MT19937",
    "numpy.random.SFC64",
}

#: Wall-clock reads forbidden in the hot paths (RD103).  Duration probes
#: (``time.perf_counter``, ``time.monotonic``) are fine: they never leak
#: into results, only into ``wall_seconds`` instrumentation.
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


def _check_determinism(
    tree: ast.Module, rel_path: str, aliases: dict[str, str], scopes: _Scopes
) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    hot = _in_hot_path(rel_path)
    rng_module = _is_rng_module(rel_path)

    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module = node.names[0].name if isinstance(node, ast.Import) else (node.module or "")
            root = module.split(".")[0]
            if root == "random":
                diags.append(
                    Diagnostic(
                        "RD102", rel_path, node.lineno, node.col_offset,
                        "the stdlib 'random' module is global-state RNG; "
                        "derive streams from repro.simulation.rng instead",
                        scopes.symbol(node),
                    )
                )
            continue
        if not isinstance(node, ast.Call):
            continue
        resolved = _resolve(node.func, aliases)
        if resolved is None:
            continue
        if resolved == "numpy.random.default_rng" and not node.args and not node.keywords:
            diags.append(
                Diagnostic(
                    "RD101", rel_path, node.lineno, node.col_offset,
                    "unseeded default_rng() is irreproducible; pass a seed or "
                    "SeedSequence derived via repro.simulation.rng",
                    scopes.symbol(node),
                )
            )
        if (
            resolved.startswith("numpy.random.")
            and resolved.split(".")[-1] in _NP_RANDOM_GLOBAL
            and len(resolved.split(".")) == 3
        ):
            diags.append(
                Diagnostic(
                    "RD102", rel_path, node.lineno, node.col_offset,
                    f"legacy global-state call {resolved}(); use a Generator "
                    "from repro.simulation.rng",
                    scopes.symbol(node),
                )
            )
        if hot and resolved in _WALL_CLOCK:
            diags.append(
                Diagnostic(
                    "RD103", rel_path, node.lineno, node.col_offset,
                    f"wall-clock read {resolved}() in a hot path; results must "
                    "be functions of (spec, seed) only — use time.perf_counter "
                    "for duration instrumentation",
                    scopes.symbol(node),
                )
            )
        if hot and not rng_module and resolved in _RNG_CONSTRUCTORS:
            diags.append(
                Diagnostic(
                    "RD104", rel_path, node.lineno, node.col_offset,
                    f"{resolved} constructed outside simulation/rng.py; all "
                    "seed derivation flows through the rng module",
                    scopes.symbol(node),
                )
            )
    return diags


# ---------------------------------------------------------------------------
# RS — serialization
# ---------------------------------------------------------------------------

_SCHEMA_TAG = re.compile(r"^repro\.[a-z0-9_-]+/\d+$")


def _check_serialization(
    tree: ast.Module, rel_path: str, aliases: dict[str, str], scopes: _Scopes
) -> list[Diagnostic]:
    diags: list[Diagnostic] = []

    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            methods = {
                stmt.name
                for stmt in node.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            if "to_dict" in methods and "from_dict" not in methods:
                diags.append(
                    Diagnostic(
                        "RS201", rel_path, node.lineno, node.col_offset,
                        f"class {node.name} defines to_dict but no from_dict; "
                        "serialised results must round-trip",
                        node.name,
                    )
                )
            for stmt in node.body:
                if (
                    isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and stmt.name == "from_dict"
                ):
                    calls_reject = any(
                        isinstance(inner, ast.Call)
                        and (
                            (_resolve(inner.func, aliases) or "").split(".")[-1].lstrip("_")
                            == "reject_unknown_keys"
                        )
                        for inner in ast.walk(stmt)
                    )
                    if not calls_reject:
                        diags.append(
                            Diagnostic(
                                "RS202", rel_path, stmt.lineno, stmt.col_offset,
                                f"{node.name}.from_dict does not call "
                                "reject_unknown_keys; typo'd config keys would "
                                "be silently dropped",
                                node.name,
                            )
                        )

    if not _is_schema_registry(rel_path):
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and _SCHEMA_TAG.match(node.value)
            ):
                diags.append(
                    Diagnostic(
                        "RS203", rel_path, node.lineno, node.col_offset,
                        f"schema tag {node.value!r} declared outside the "
                        f"registry ({SCHEMA_REGISTRY_PATH}); import the named "
                        "constant instead",
                        scopes.symbol(node),
                    )
                )
    return diags


# ---------------------------------------------------------------------------
# RP — parallel safety
# ---------------------------------------------------------------------------

#: Field types a work-item dataclass may carry: spec-level value objects
#: and immutable builtins, all picklable by construction.  Extend this
#: list (or the baseline) deliberately when a new spec type appears.
_PICKLABLE_TYPES = {
    "int", "float", "str", "bool", "bytes", "None", "NoneType",
    "tuple", "frozenset", "list", "dict", "set", "Tuple", "Optional",
    "Union", "Sequence", "Mapping", "Path",
    "SystemConfig", "MessageSpec", "ModelOptions", "MeasurementWindow",
    "SimTrafficPattern", "ScenarioSpec", "LoadGridPolicy", "AxisSpec",
    "DesignGrid",
}


def _annotation_ok(node: ast.expr) -> tuple[bool, str]:
    """Whether an annotation names only picklable types; returns offender."""
    if isinstance(node, ast.Constant):
        if node.value is None:
            return True, ""
        if isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return False, node.value
            return _annotation_ok(parsed)
        return False, repr(node.value)
    if isinstance(node, ast.Name):
        return (node.id in _PICKLABLE_TYPES), node.id
    if isinstance(node, ast.Attribute):
        return (node.attr in _PICKLABLE_TYPES), node.attr
    if isinstance(node, ast.Subscript):
        ok, offender = _annotation_ok(node.value)
        if not ok:
            return False, offender
        inner = node.slice
        elements = inner.elts if isinstance(inner, ast.Tuple) else [inner]
        for element in elements:
            if isinstance(element, ast.Constant) and element.value is Ellipsis:
                continue
            ok, offender = _annotation_ok(element)
            if not ok:
                return False, offender
        return True, ""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        ok, offender = _annotation_ok(node.left)
        if not ok:
            return False, offender
        return _annotation_ok(node.right)
    return False, ast.dump(node)


def _is_work_item(node: ast.ClassDef) -> bool:
    """Whether *node* names a type that crosses process boundaries: a
    ``*WorkItem`` or ``SimulationConfig``, the simulator's work item."""
    return node.name.endswith("WorkItem") or node.name == "SimulationConfig"


def _is_dataclass(node: ast.ClassDef, aliases: dict[str, str]) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        resolved = _resolve(target, aliases) or ""
        if resolved.split(".")[-1] == "dataclass":
            return True
    return False


def _check_parallel_safety(
    tree: ast.Module, rel_path: str, aliases: dict[str, str], scopes: _Scopes
) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    exec_runtime = _is_exec_runtime(rel_path)

    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (
                not exec_runtime
                and node.module == "concurrent.futures"
                and node.level == 0
                and any(alias.name == "ProcessPoolExecutor" for alias in node.names)
            ):
                diags.append(
                    Diagnostic(
                        "RP303", rel_path, node.lineno, node.col_offset,
                        "ProcessPoolExecutor imported outside repro/exec/; bare "
                        "pools have no retry/timeout/respawn supervision — use "
                        "repro.exec.run_supervised",
                        scopes.symbol(node),
                    )
                )
        elif isinstance(node, ast.Call):
            resolved = _resolve(node.func, aliases) or ""
            if (
                not exec_runtime
                and isinstance(node.func, ast.Attribute)
                and resolved == "concurrent.futures.ProcessPoolExecutor"
            ):
                diags.append(
                    Diagnostic(
                        "RP303", rel_path, node.lineno, node.col_offset,
                        "ProcessPoolExecutor constructed outside repro/exec/; "
                        "bare pools have no retry/timeout/respawn supervision — "
                        "use repro.exec.run_supervised",
                        scopes.symbol(node),
                    )
                )
            if resolved.split(".")[-1] == "run_supervised" and node.args:
                fn = node.args[0]
                if isinstance(fn, ast.Lambda):
                    diags.append(
                        Diagnostic(
                            "RP301", rel_path, fn.lineno, fn.col_offset,
                            "lambda handed to run_supervised cannot be pickled into "
                            "worker processes; use a module-level function",
                            scopes.symbol(node),
                        )
                    )
                elif isinstance(fn, ast.Name) and fn.id in scopes.nested_functions:
                    diags.append(
                        Diagnostic(
                            "RP301", rel_path, fn.lineno, fn.col_offset,
                            f"nested function {fn.id!r} handed to run_supervised "
                            "cannot be pickled; hoist it to module level",
                            scopes.symbol(node),
                        )
                    )
        elif isinstance(node, ast.ClassDef):
            if not _is_work_item(node) or not _is_dataclass(node, aliases):
                continue
            for stmt in node.body:
                if not isinstance(stmt, ast.AnnAssign) or not isinstance(
                    stmt.target, ast.Name
                ):
                    continue
                ok, offender = _annotation_ok(stmt.annotation)
                if not ok:
                    diags.append(
                        Diagnostic(
                            "RP302", rel_path, stmt.lineno, stmt.col_offset,
                            f"work-item field {stmt.target.id!r} has "
                            f"non-picklable (or unrecognised) type "
                            f"{offender!r}; work items must cross process "
                            "boundaries",
                            node.name,
                        )
                    )
    return diags


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def lint_source(source: str, rel_path: str) -> list[Diagnostic]:
    """All RD/RS/RP diagnostics for one module's source text.

    *rel_path* is the repository-relative POSIX path — rule scoping
    (hot-path restriction, the rng.py and schema-registry exemptions)
    keys off it.  Raises ``SyntaxError`` for unparsable input; the CLI
    maps that to a usage-style failure rather than swallowing it.
    """
    tree = ast.parse(source)
    strip_docstrings(tree)
    aliases = _alias_table(tree)
    scopes = _Scopes(tree)
    diags: list[Diagnostic] = []
    diags += _check_determinism(tree, rel_path, aliases, scopes)
    diags += _check_serialization(tree, rel_path, aliases, scopes)
    diags += _check_parallel_safety(tree, rel_path, aliases, scopes)
    return sorted(diags, key=lambda d: (d.path, d.line, d.col, d.code))
