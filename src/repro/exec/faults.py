"""Deterministic, spec-driven fault injection for the supervised runtime.

Every resilience path — retry, pool respawn, timeout, degrade-to-serial,
journal resume — needs to be exercised *reproducibly*: in tests, in CI,
and on demand from the command line.  This module arms a declarative
:class:`FaultPlan` through one environment variable
(:data:`FAULTS_ENV` = ``REPRO_FAULTS``, a JSON file path or inline JSON),
and the supervisor's worker entry point consults it on every execution:

* ``raise`` — the item raises :class:`FaultInjected`;
* ``crash`` — the worker process dies with ``os._exit`` (a hard kill the
  pool sees as ``BrokenProcessPool``); in serial execution, where exiting
  would kill the caller, it raises :class:`FaultInjected` instead;
* ``hang`` — the item sleeps for ``seconds`` before continuing (pair
  with a :class:`~repro.exec.RunPolicy` timeout to exercise the
  hung-item path);
* ``corrupt-cache`` — consumers with a :class:`~repro.io.cache.ResultCache`
  overwrite the item's just-written entry with garbage (via
  :func:`maybe_corrupt_cache`), exercising the corrupt-entry-is-a-miss
  recovery path.

Faults match on exact ``(index, attempt)`` pairs, so a plan is a pure
function of the run's structure.  With nothing armed, :func:`fire` is a
constant-time no-op and the runtime is provably bit-identical to
fault-free execution (locked by tests).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro._util import is_real, reject_unknown_keys, require, require_int
from repro.io.schemas import FAULTS_SCHEMA

__all__ = [
    "FAULTS_ENV",
    "FAULTS_SCHEMA",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "armed_plan",
    "corrupt_cache_entry",
    "fire",
    "mark_worker_process",
    "maybe_corrupt_cache",
]

#: Environment variable carrying the armed plan (file path or inline JSON).
FAULTS_ENV = "REPRO_FAULTS"

_FAULT_OPS = ("raise", "crash", "hang", "corrupt-cache")

#: ``True`` in pool worker processes (set by the pool initializer), so a
#: ``crash`` fault knows whether ``os._exit`` would kill a worker (the
#: intent) or the caller's own process (never acceptable).
_IN_WORKER = False


class FaultInjected(RuntimeError):
    """The error raised by ``raise`` faults (and serial ``crash`` faults)."""


def mark_worker_process() -> None:
    """Pool initializer: flags this process as a sacrificial worker."""
    global _IN_WORKER
    _IN_WORKER = True


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: *op* on item *index* at execution *attempt*.

    ``attempt`` counts executions of that item from 0; ``seconds`` is the
    ``hang`` duration; ``message`` the ``raise`` text.  ``corrupt-cache``
    ignores ``attempt`` — it corrupts the entry after it is stored.
    """

    op: str
    index: int
    attempt: int = 0
    seconds: float = 0.0
    message: str = "injected fault"

    def __post_init__(self) -> None:
        require(self.op in _FAULT_OPS, f"fault op must be one of {_FAULT_OPS}, got {self.op!r}")
        require_int(self.index, "fault index", minimum=0)
        require_int(self.attempt, "fault attempt", minimum=0)
        require(
            is_real(self.seconds) and self.seconds >= 0,
            f"fault seconds must be >= 0, got {self.seconds!r}",
        )
        require(isinstance(self.message, str), "fault message must be a string")

    def to_dict(self) -> "dict[str, Any]":
        return {
            "op": self.op,
            "index": self.index,
            "attempt": self.attempt,
            "seconds": self.seconds,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, data: "dict[str, Any]") -> "FaultSpec":
        reject_unknown_keys(
            data,
            ("op", "index", "attempt", "seconds", "message"),
            "fault spec",
            required=("op", "index"),
        )
        return cls(**data)


@dataclass(frozen=True)
class FaultPlan:
    """A full injection plan: an ordered tuple of :class:`FaultSpec`."""

    faults: "tuple[FaultSpec, ...]" = ()

    def match(self, index: int, attempt: int) -> "FaultSpec | None":
        """The first in-worker fault armed for ``(index, attempt)``."""
        for spec in self.faults:
            if spec.op == "corrupt-cache":
                continue
            if spec.index == index and spec.attempt == attempt:
                return spec
        return None

    def corrupts_cache(self, index: int) -> bool:
        """Whether a ``corrupt-cache`` fault targets item *index*."""
        return any(spec.op == "corrupt-cache" and spec.index == index for spec in self.faults)

    def to_dict(self) -> "dict[str, Any]":
        return {"schema": FAULTS_SCHEMA, "faults": [spec.to_dict() for spec in self.faults]}

    @classmethod
    def from_dict(cls, data: "dict[str, Any]") -> "FaultPlan":
        reject_unknown_keys(
            data, ("schema", "faults"), "fault plan", required=("schema", "faults")
        )
        require(
            data["schema"] == FAULTS_SCHEMA,
            f"unsupported fault-plan schema {data['schema']!r} "
            f"(this build reads {FAULTS_SCHEMA!r})",
        )
        require(isinstance(data["faults"], list), "fault plan 'faults' must be a list")
        return cls(faults=tuple(FaultSpec.from_dict(entry) for entry in data["faults"]))

    @classmethod
    def load(cls, source: str) -> "FaultPlan":
        """Parse a plan from inline JSON (leading ``{``) or a file path."""
        text = source if source.lstrip().startswith("{") else Path(source).read_text()
        return cls.from_dict(json.loads(text))


# The armed plan is re-parsed only when the env value changes; pool
# workers inherit the parent's environment (and this cache) at fork.
_CACHED: "tuple[str, FaultPlan] | None" = None


def armed_plan() -> "FaultPlan | None":
    """The plan armed through :data:`FAULTS_ENV`, or ``None``."""
    global _CACHED
    source = os.environ.get(FAULTS_ENV)
    if not source:
        return None
    if _CACHED is None or _CACHED[0] != source:
        _CACHED = (source, FaultPlan.load(source))
    return _CACHED[1]


def fire(index: int, attempt: int) -> None:
    """Inject the fault armed for ``(index, attempt)``, if any.

    Called by the supervisor's worker entry point immediately before the
    real work function.  A constant-time no-op when nothing is armed —
    the bit-identical guarantee of the fault-free path rests on that.
    """
    plan = armed_plan()
    if plan is None:
        return
    spec = plan.match(index, attempt)
    if spec is None:
        return
    if spec.op == "raise":
        raise FaultInjected(f"{spec.message} (item {index}, attempt {attempt})")
    if spec.op == "crash":
        if _IN_WORKER:
            os._exit(13)
        raise FaultInjected(
            f"crash fault on item {index}, attempt {attempt} (serial execution)"
        )
    if spec.op == "hang":
        time.sleep(spec.seconds)


def corrupt_cache_entry(store: Any, key: str) -> None:
    """Overwrite *key*'s on-disk entry with unparsable bytes.

    The cache treats corrupt entries as misses, so the next run
    re-evaluates and heals the entry; tests use this directly.
    """
    path = store._path(key)
    if path.exists():
        path.write_text('{"corrupt', encoding="utf-8")


def maybe_corrupt_cache(store: Any, key: str, index: int) -> None:
    """Apply an armed ``corrupt-cache`` fault for item *index* (if any)."""
    if store is None:
        return
    plan = armed_plan()
    if plan is not None and plan.corrupts_cache(index):
        corrupt_cache_entry(store, key)
