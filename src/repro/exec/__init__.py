"""Resilient execution runtime: supervised fan-out for long runs.

This package is the only place in the repository that talks to
``concurrent.futures.ProcessPoolExecutor`` (reprolint rule RP303
enforces it).  It wraps raw pool fan-out with the robustness a
multi-hour study needs:

* :func:`run_supervised` — retries, per-item timeouts, bounded pool
  respawn after worker crashes, graceful degradation to serial
  execution, typed :class:`ItemOutcome` records instead of
  batch-aborting exceptions, workers pinned in turn to the CPUs of the
  caller's affinity mask (:mod:`repro.exec.supervisor`);
* :class:`RunPolicy` — the retry count and the per-item timeout
  (:mod:`repro.exec.policy`); a broken pool is rebuilt at most twice,
  then the run finishes serially;
* :class:`RunJournal` — an append-only, fsynced record of completed item
  keys enabling crash/``--resume`` semantics (:mod:`repro.exec.journal`);
* :class:`FaultPlan` — deterministic, spec-driven fault injection for
  exercising every path above in tests and CI
  (:mod:`repro.exec.faults`);
* :class:`repro.exec.study.Study` — the one study executor behind
  explore, performability and calibrate: cache replay, run journal,
  ``resume`` checks and stacked-or-supervised evaluation (imported from
  its module, :mod:`repro.exec.study`).

See ``docs/resilience.md`` for the operator-facing guide.
"""

from repro.exec.faults import (
    FAULTS_ENV,
    FAULTS_SCHEMA,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    armed_plan,
    corrupt_cache_entry,
    fire,
    mark_worker_process,
    maybe_corrupt_cache,
)
from repro.exec.journal import RUN_JOURNAL_SCHEMA, RunJournal
from repro.exec.outcomes import (
    ITEM_OUTCOME_SCHEMA,
    OUTCOME_FAILED,
    OUTCOME_OK,
    OUTCOME_TIMEOUT,
    ExecutionFailed,
    ItemOutcome,
    raise_on_failure,
)
from repro.exec.policy import RunPolicy
from repro.exec.supervisor import resolve_jobs, run_supervised

__all__ = [
    "FAULTS_ENV",
    "FAULTS_SCHEMA",
    "ITEM_OUTCOME_SCHEMA",
    "OUTCOME_FAILED",
    "OUTCOME_OK",
    "OUTCOME_TIMEOUT",
    "RUN_JOURNAL_SCHEMA",
    "ExecutionFailed",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "ItemOutcome",
    "RunJournal",
    "RunPolicy",
    "armed_plan",
    "corrupt_cache_entry",
    "fire",
    "mark_worker_process",
    "maybe_corrupt_cache",
    "raise_on_failure",
    "resolve_jobs",
    "run_supervised",
]
