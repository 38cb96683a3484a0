"""Cache-version fingerprints: normalized-AST hashes pinned per version tag.

The on-disk caches (:mod:`repro.io.cache`) key results by
``repro.core.batch.ENGINE_VERSION`` (closed-form evaluation) and
``repro.simulation.runner.TRAJECTORY_VERSION`` (simulator trajectories).
Those keys are only sound if the tags are bumped whenever the numeric
semantics behind them change — a purely human discipline until now.

This module makes the discipline checkable: each *surface* (the set of
modules whose code determines the cached numbers) is hashed as a
normalized AST — parsed, docstrings stripped, then ``ast.dump`` — so
comments and documentation never matter, and the per-file hashes are
pinned in a committed manifest (``tools/reprolint/fingerprints.json``)
keyed by the version tag current at commit time.  The check then has
three outcomes:

* hashes and version both match the manifest — clean;
* a surface file's hash changed while the version tag did not —
  **RF001/RF002**, the stale-cache bug this gate exists to catch;
* the version tag changed (or the manifest is missing/var-mismatched) —
  **RF003**: bump and regenerate together, in the same commit, via
  ``python -m tools.reprolint --write-fingerprints``.

Hashes are computed from the AST of the checked-out source with the
running interpreter; ``ast.dump`` output is stable within a minor Python
version (CI and the committed manifest both use 3.11).
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from tools.reprolint import Diagnostic
from tools.reprolint.rules import strip_docstrings

__all__ = [
    "MANIFEST_SCHEMA",
    "SURFACES",
    "Surface",
    "build_manifest",
    "check_fingerprints",
    "fingerprint_path",
    "fingerprint_source",
    "write_manifest",
]

MANIFEST_SCHEMA = "reprolint.fingerprints/1"

#: Default manifest location, next to this module and committed with it.
DEFAULT_MANIFEST = Path(__file__).resolve().parent / "fingerprints.json"


@dataclass(frozen=True)
class Surface:
    """One versioned cache-semantics surface."""

    code: str  # diagnostic code on an unbumped change
    version_name: str  # e.g. "ENGINE_VERSION"
    version_module: str  # repo-relative module declaring the tag
    files: tuple[str, ...]  # repo-relative modules the tag covers


#: The two surfaces the repository's caches depend on.  ``engine`` is the
#: closed-form evaluation path (everything a cached explore/calibrate
#: model number flows through); ``trajectory`` is everything that shapes
#: a simulator run's numbers for a fixed (spec, seed, window,
#: granularity), including the two modules whose channel order fixes
#: every simulator channel id (``MPortNTree.links()`` with its closed
#: form, and ``HeterogeneousSystem.channels()``).  Spec-level inputs
#: (``core/parameters.py`` defaults, scenario definitions) are
#: deliberately excluded: they are serialised *into* every cache key, so
#: changing them changes the key itself.
SURFACES: dict[str, Surface] = {
    "engine": Surface(
        code="RF001",
        version_name="ENGINE_VERSION",
        version_module="src/repro/core/batch.py",
        files=(
            "src/repro/core/batch.py",
            "src/repro/core/concentrator.py",
            "src/repro/core/inter.py",
            "src/repro/core/intra.py",
            "src/repro/core/model.py",
            "src/repro/core/plan.py",
            "src/repro/core/queueing.py",
            "src/repro/core/refine.py",
            "src/repro/core/service_times.py",
            "src/repro/core/stacked.py",
            "src/repro/core/stages.py",
            "src/repro/core/topology_math.py",
        ),
    ),
    "trajectory": Surface(
        code="RF002",
        version_name="TRAJECTORY_VERSION",
        version_module="src/repro/simulation/runner.py",
        files=(
            "src/repro/cluster/system.py",
            "src/repro/simulation/_eventcore.c",
            "src/repro/simulation/eventcore.py",
            "src/repro/simulation/fabric.py",
            "src/repro/simulation/flitsim.py",
            "src/repro/simulation/metrics.py",
            "src/repro/simulation/rng.py",
            "src/repro/simulation/runner.py",
            "src/repro/simulation/traffic.py",
            "src/repro/simulation/wormhole.py",
            "src/repro/topology/mport_ntree.py",
        ),
    ),
}


def fingerprint_source(source: str) -> str:
    """SHA-256 of the normalized AST (docstrings/comments stripped)."""
    tree = strip_docstrings(ast.parse(source))
    dump = ast.dump(tree, annotate_fields=True, include_attributes=False)
    return hashlib.sha256(dump.encode("utf-8")).hexdigest()


def fingerprint_path(path: Path) -> str:
    """Fingerprint one surface file by kind.

    ``.py`` files hash their normalized AST (comment/docstring changes
    never matter); anything else — the simulator's C kernel — hashes raw
    bytes, since there is no Python AST to normalize and any source change
    there can change compiled-run numbers.
    """
    if path.suffix == ".py":
        return fingerprint_source(path.read_text(encoding="utf-8"))
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _declared_version(root: Path, surface: Surface) -> str | None:
    """The version tag currently assigned in the surface's module, if any."""
    path = root / surface.version_module
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"))
    except (OSError, SyntaxError):
        return None
    for node in tree.body:
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and target.id == surface.version_name
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
            ):
                return node.value.value
    return None


def build_manifest(root: Path) -> dict:
    """Fingerprint every surface of the tree at *root* (the repo root)."""
    surfaces: dict[str, dict] = {}
    for name, surface in SURFACES.items():
        version = _declared_version(root, surface)
        if version is None:
            raise ValueError(
                f"{surface.version_module} does not declare "
                f"{surface.version_name} as a string constant"
            )
        files = {rel: fingerprint_path(root / rel) for rel in surface.files}
        surfaces[name] = {
            "version_name": surface.version_name,
            "version_module": surface.version_module,
            "version": version,
            "files": files,
        }
    return {"schema": MANIFEST_SCHEMA, "surfaces": surfaces}


def write_manifest(root: Path, manifest_path: Path | None = None) -> Path:
    """Regenerate the committed manifest from the current tree."""
    manifest_path = manifest_path or DEFAULT_MANIFEST
    manifest_path.write_text(
        json.dumps(build_manifest(root), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return manifest_path


def _surface_diags(
    name: str, surface: Surface, pinned: dict, root: Path
) -> list[Diagnostic]:
    bump_hint = (
        f"bump {surface.version_name} in {surface.version_module} and run "
        "'python -m tools.reprolint --write-fingerprints'"
    )
    version = _declared_version(root, surface)
    if version is None:
        return [
            Diagnostic(
                "RF003", surface.version_module, 1, 0,
                f"{surface.version_name} not found as a string constant",
                surface.version_name,
            )
        ]
    if pinned.get("version") != version:
        return [
            Diagnostic(
                "RF003", surface.version_module, 1, 0,
                f"manifest pins {surface.version_name}="
                f"{pinned.get('version')!r} but the code declares "
                f"{version!r}; regenerate the manifest with "
                "'python -m tools.reprolint --write-fingerprints'",
                surface.version_name,
            )
        ]
    pinned_files = pinned.get("files", {})
    if set(pinned_files) != set(surface.files):
        return [
            Diagnostic(
                "RF003", surface.version_module, 1, 0,
                f"manifest file set for surface {name!r} does not match the "
                f"declared surface; {bump_hint}",
                surface.version_name,
            )
        ]
    diags: list[Diagnostic] = []
    for rel in surface.files:
        path = root / rel
        try:
            current = fingerprint_path(path)
        except (OSError, SyntaxError) as exc:
            diags.append(
                Diagnostic(
                    "RF003", rel, 1, 0,
                    f"surface file unreadable/unparsable: {exc}",
                    surface.version_name,
                )
            )
            continue
        if current != pinned_files[rel]:
            diags.append(
                Diagnostic(
                    surface.code, rel, 1, 0,
                    f"{surface.version_name} surface changed without a "
                    f"version bump (still {version!r}): cached results keyed "
                    f"by it would go stale — {bump_hint}",
                    surface.version_name,
                )
            )
    return diags


def check_fingerprints(root: Path, manifest_path: Path | None = None) -> list[Diagnostic]:
    """RF diagnostics for the tree at *root* against the pinned manifest."""
    manifest_path = manifest_path or DEFAULT_MANIFEST
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return [
            Diagnostic(
                "RF003", str(manifest_path), 1, 0,
                "fingerprint manifest missing or unreadable; run "
                "'python -m tools.reprolint --write-fingerprints'",
            )
        ]
    if manifest.get("schema") != MANIFEST_SCHEMA:
        return [
            Diagnostic(
                "RF003", str(manifest_path), 1, 0,
                f"unsupported manifest schema {manifest.get('schema')!r} "
                f"(this build reads {MANIFEST_SCHEMA!r})",
            )
        ]
    diags: list[Diagnostic] = []
    pinned_surfaces = manifest.get("surfaces", {})
    for name, surface in SURFACES.items():
        pinned = pinned_surfaces.get(name)
        if not isinstance(pinned, dict):
            diags.append(
                Diagnostic(
                    "RF003", str(manifest_path), 1, 0,
                    f"manifest has no entry for surface {name!r}; run "
                    "'python -m tools.reprolint --write-fingerprints'",
                )
            )
            continue
        diags.extend(_surface_diags(name, surface, pinned, root))
    return diags
