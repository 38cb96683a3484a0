"""Retry and timeout policy for supervised fan-out.

One frozen :class:`RunPolicy` value holds the two knobs the supervisor
(:mod:`repro.exec.supervisor`) takes from its caller: how many times a
failed item is retried and how long a pooled item may run before it is
declared hung.  Everything else is fixed by the supervisor: a retry
runs at once, a broken process pool is rebuilt at most twice, and the
items left after that finish serially in-process.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util import is_real, require

__all__ = ["RunPolicy"]


@dataclass(frozen=True)
class RunPolicy:
    """How the supervised runtime treats failures.

    max_retries:
        extra executions granted to a failed/interrupted item — every
        item runs at most ``max_retries + 1`` times.
    timeout:
        per-item wall-clock budget in seconds for *pooled* execution
        (measured from the moment the supervisor observes the item
        running).  ``None`` disables the check.  Serial execution cannot
        preempt a running call, so timeouts are not enforced there.
    """

    max_retries: int = 2
    timeout: "float | None" = None

    def __post_init__(self) -> None:
        require(
            isinstance(self.max_retries, int) and not isinstance(self.max_retries, bool)
            and self.max_retries >= 0,
            f"max_retries must be a non-negative int, got {self.max_retries!r}",
        )
        require(
            self.timeout is None or (is_real(self.timeout) and self.timeout > 0),
            f"timeout must be None or a positive number of seconds, got {self.timeout!r}",
        )
