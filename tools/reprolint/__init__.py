"""``reprolint`` — AST-based invariant linter for the ``repro`` package.

The repository's correctness rests on invariants no unit test can fully
see: on-disk cache keys are only sound if the engine/trajectory version
tags are bumped whenever the numerics behind them change, replication is
only bit-identical because every RNG flows through
:mod:`repro.simulation.rng`, result schemas only round-trip because every
``from_dict`` rejects unknown keys, and the process-pool fan-out only
works because the callables and work items it ships are picklable.

``reprolint`` enforces those invariants mechanically, as four rule
families over normalized ASTs (docstrings and comments never count):

* **RF — cache-version fingerprints** (:mod:`tools.reprolint.fingerprint`):
  a committed manifest pins a normalized-AST hash of the cache-semantics
  surface per ``ENGINE_VERSION``/``TRAJECTORY_VERSION``; changing the
  surface without bumping the version fails the gate.
* **RD — determinism** (:mod:`tools.reprolint.rules`): no unseeded
  ``default_rng()``, no legacy ``np.random``/``random`` global state, no
  wall-clock reads in the hot paths, RNG construction only in ``rng.py``.
* **RS — serialization**: ``to_dict`` implies ``from_dict``, every
  ``from_dict`` routes through ``reject_unknown_keys``, and every
  ``repro.*/N`` schema tag is declared in the single registry module.
* **RP — parallel safety**: only module-level callables into
  ``run_supervised``, only picklable field types on work-item dataclasses,
  and no direct ``ProcessPoolExecutor`` use outside the supervised
  execution runtime (``repro/exec/``).

Run ``python -m tools.reprolint src/repro`` from the repository root;
see ``docs/static_analysis.md`` for the full catalogue and the
version-bump protocol.  Exit codes follow the repo's tooling convention:
0 clean, 1 diagnostics, 2 usage error.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Diagnostic", "RULES"]


@dataclass(frozen=True)
class Diagnostic:
    """One finding: stable code, location, message, baseline key.

    ``symbol`` is the innermost enclosing function/class name (or
    ``"<module>"``) — baseline entries are keyed on ``(code, path,
    symbol)`` rather than line numbers so they survive unrelated edits.
    """

    code: str
    path: str
    line: int
    col: int
    message: str
    symbol: str = "<module>"

    def render(self) -> str:
        """``path:line:col: CODE message`` (the CI-facing format)."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def baseline_key(self) -> str:
        """Line-independent identity used by the committed baseline."""
        return f"{self.code} {self.path} {self.symbol}"


#: The rule catalogue: code -> one-line description.  ``--list-rules``
#: prints it and ``docs/static_analysis.md`` must document every entry
#: (locked by ``tests/test_reprolint.py``).
RULES: dict[str, str] = {
    "RF001": "cache-semantics surface (closed forms) changed without an ENGINE_VERSION bump",
    "RF002": "trajectory surface (simulators) changed without a TRAJECTORY_VERSION bump",
    "RF003": "fingerprint manifest missing, stale, or inconsistent with the declared surfaces",
    "RD101": "np.random.default_rng() called without a seed or SeedSequence",
    "RD102": "module-level RNG state: 'random' module or legacy np.random.* global functions",
    "RD103": "wall-clock read (time.time, datetime.now, ...) inside core/ or simulation/",
    "RD104": "RNG construction outside simulation/rng.py (seeds must flow through rng.py)",
    "RS201": "class defines to_dict but no from_dict (schema cannot round-trip)",
    "RS202": "from_dict does not route through reject_unknown_keys",
    "RS203": "'repro.*/N' schema tag declared outside the schema registry module",
    "RP301": "lambda or nested function handed to exec.run_supervised (not picklable)",
    "RP302": "work-item dataclass field with a non-picklable (or unknown) type",
    "RP303": "direct ProcessPoolExecutor use outside the supervised runtime (repro/exec/)",
}
