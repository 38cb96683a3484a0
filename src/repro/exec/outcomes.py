"""Typed per-item results of a supervised run.

The supervisor never lets one bad item abort a fan-out: every payload
resolves to exactly one :class:`ItemOutcome` — ``ok`` with the worker's
return value, ``failed`` with the last error, or ``timeout`` when the
per-item budget expired — plus the number of executions it consumed.
Consumers that want the historical throw-on-first-error semantics
(:func:`repro.simulation.parallel.run_work_items`) call
:func:`raise_on_failure`; consumers that want partial tables
(``explore``/``calibrate``/``performability``) keep the failed outcomes
and surface them as an ``errors`` section instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.io.schemas import ITEM_OUTCOME_SCHEMA

__all__ = [
    "ITEM_OUTCOME_SCHEMA",
    "OUTCOME_FAILED",
    "OUTCOME_OK",
    "OUTCOME_TIMEOUT",
    "ExecutionFailed",
    "ItemOutcome",
    "raise_on_failure",
]

OUTCOME_OK = "ok"
OUTCOME_FAILED = "failed"
OUTCOME_TIMEOUT = "timeout"


class ExecutionFailed(RuntimeError):
    """An item exhausted its retries and no original exception survived.

    Raised by :func:`raise_on_failure` for timeout/interruption outcomes,
    where there is no worker exception object to re-raise.
    """


@dataclass(frozen=True)
class ItemOutcome:
    """One payload's final fate under the supervised runtime.

    index:
        position of the payload in the submitted list (results are
        returned in submission order regardless of completion order).
    status:
        ``"ok"`` / ``"failed"`` / ``"timeout"``.
    attempts:
        executions consumed, including interrupted ones (``>= 1``).
    value:
        the worker's return value; only meaningful when ``status == "ok"``.
    error:
        one-line description of the last failure (empty for ``ok``).
    exception:
        the last exception object raised by the worker, kept so strict
        callers can re-raise the original type; never serialised and
        excluded from equality.
    """

    index: int
    status: str
    attempts: int
    value: Any = None
    error: str = ""
    exception: "BaseException | None" = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return self.status == OUTCOME_OK

    def error_record(self) -> "dict[str, Any]":
        """JSON-safe record for a result's ``errors`` section."""
        return {
            "schema": ITEM_OUTCOME_SCHEMA,
            "index": self.index,
            "status": self.status,
            "attempts": self.attempts,
            "error": self.error,
        }


def raise_on_failure(outcomes: "list[ItemOutcome]") -> "list[ItemOutcome]":
    """Return *outcomes* unchanged, or raise on the first non-``ok`` one.

    Re-raises the worker's original exception when one survived (so
    ``run_work_items`` keeps its historical contract — a ``ValueError`` in
    a worker surfaces as that ``ValueError``); timeouts and pool-level
    interruptions raise :class:`ExecutionFailed`.
    """
    for outcome in outcomes:
        if outcome.ok:
            continue
        if outcome.exception is not None:
            raise outcome.exception
        raise ExecutionFailed(
            f"item {outcome.index} {outcome.status} after "
            f"{outcome.attempts} attempt(s): {outcome.error}"
        )
    return outcomes
