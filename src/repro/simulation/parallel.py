"""Process-pool fan-out for simulation work.

The analytical model is effectively free (the batched engine), so every
paper-style validation run is bounded by discrete-event simulation time.
This module makes that layer scale with the hardware: any batch of
independent simulator runs — replicas of one operating point, the load
points of a validation grid — is described as a list of
:class:`~repro.simulation.runner.SimulationConfig` and executed by
:func:`run_work_items` either in-process or across a process pool
supervised by the resilient runtime (:mod:`repro.exec`).  A config
validates its inputs when it is built, so a config error raises in the
caller before any pool starts.

Determinism: a config is a pure function of spec-level inputs
(system/message/options are frozen dataclasses, patterns are registered
classes — all picklable) plus one integer seed, so results are
bit-identical for any worker count, including the serial path.  Order is
preserved: result ``i`` always belongs to config ``i``.

Failure semantics: the supervisor transparently retries failed or
interrupted items (worker crashes respawn the pool) under the run's
:class:`~repro.exec.RunPolicy`; an item that still fails after its
retries propagates its original exception to the caller — never a
partial result list.  Callers that want partial results instead use
:func:`repro.exec.run_supervised` directly.

Workers keep a small per-process LRU session cache keyed by the whole
design, ``(system, message, options, pattern)``, so fanning one
scenario's load points across ``k`` workers builds at most ``k`` fabrics
rather than one per point, and a run never borrows a session of another
traffic pattern.
"""

from __future__ import annotations

from repro._util import require
from repro.exec import RunPolicy, raise_on_failure, resolve_jobs, run_supervised
from repro.simulation.runner import (
    SimulationConfig,
    SimulationResult,
    SimulationSession,
    _run_config,
    _session,
)

__all__ = ["resolve_jobs", "run_work_item", "run_work_items"]


# Per-process LRU session cache (bounded: the worker processes of one pool
# see a handful of configurations, but a long-lived parent process may run
# many different scenarios through the serial path).  Insertion order is
# recency order: hits re-insert at the end, eviction pops the front.
_SESSION_CACHE: dict = {}
_SESSION_CACHE_MAX = 8


def _session_for(config: SimulationConfig) -> SimulationSession:
    session = _SESSION_CACHE.pop(config.design, None)
    if session is None:
        if len(_SESSION_CACHE) >= _SESSION_CACHE_MAX:
            _SESSION_CACHE.pop(next(iter(_SESSION_CACHE)))
        session = _session(config)
    _SESSION_CACHE[config.design] = session
    return session


def run_work_item(config: SimulationConfig) -> SimulationResult:
    """Run one config on the per-process session cache (the function a
    pool worker runs)."""
    return _run_config(_session_for(config), config)


def run_work_items(
    items,
    *,
    jobs: "int | str | None" = None,
    session: SimulationSession | None = None,
    policy: "RunPolicy | None" = None,
) -> list[SimulationResult]:
    """Run the :class:`SimulationConfig` *items* serially or across a
    process pool; results in item order.

    ``jobs`` follows :func:`repro.exec.resolve_jobs`.  The pool never
    exceeds the item count.  With ``jobs <= 1`` every item runs in this
    process, preferring *session* (the caller's cached fabric) for items
    of its design (system, message, options and pattern).  Pooled
    execution is supervised by
    :func:`repro.exec.run_supervised`: worker crashes/failures are retried
    under *policy* (default :class:`~repro.exec.RunPolicy`), and an item
    that still fails after its retries re-raises its original exception
    (never a partial list).
    """
    items = list(items)
    for item in items:
        require(isinstance(item, SimulationConfig), "items must be SimulationConfig instances")
    n_jobs = min(resolve_jobs(jobs), len(items))
    if n_jobs <= 1 and session is not None:
        return [
            _run_config(session, item) if item.design == session.design else run_work_item(item)
            for item in items
        ]
    outcomes = raise_on_failure(
        run_supervised(run_work_item, items, jobs=n_jobs, policy=policy)
    )
    return [outcome.value for outcome in outcomes]
