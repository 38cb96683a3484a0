"""Process-pool fan-out for simulation work.

The analytical model is effectively free (the batched engine), so every
paper-style validation run is bounded by discrete-event simulation time.
This module makes that layer scale with the hardware: any batch of
independent simulator runs — replicas of one operating point, the load
points of a validation grid — is described as a list of
:class:`SimWorkItem` and executed by :func:`run_work_items` either
in-process or across a process pool supervised by the resilient runtime
(:mod:`repro.exec`).

Determinism: a work item is a pure function of spec-level inputs
(system/message/options are frozen dataclasses, patterns are registered
classes — all picklable) plus one integer seed, so results are
bit-identical for any worker count, including the serial path.  Order is
preserved: result ``i`` always belongs to item ``i``.

Failure semantics: the supervisor transparently retries failed or
interrupted items (worker crashes respawn the pool) under the run's
:class:`~repro.exec.RunPolicy`; an item that still fails after its
retries propagates its original exception to the caller — never a
partial result list.  Callers that want partial results instead use
:func:`repro.exec.run_supervised` directly.

Workers keep a small per-process LRU session cache keyed by
``(system, message, options)``, so fanning one scenario's load points
across ``k`` workers builds at most ``k`` fabrics rather than one per
point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util import require
from repro.core.parameters import MessageSpec, ModelOptions, SystemConfig
from repro.exec import RunPolicy, raise_on_failure, resolve_jobs, run_supervised
from repro.simulation.metrics import MeasurementWindow
from repro.simulation.runner import SimulationResult, SimulationSession
from repro.simulation.traffic import SimTrafficPattern

__all__ = ["SimWorkItem", "resolve_jobs", "run_work_item", "run_work_items"]


@dataclass(frozen=True)
class SimWorkItem:
    """One simulator run, described by picklable spec-level inputs."""

    system: SystemConfig
    message: MessageSpec
    generation_rate: float
    seed: int
    window: MeasurementWindow
    options: ModelOptions = field(default_factory=ModelOptions)
    granularity: str = "message"
    ideal_sinks: bool = False
    cd_mode: str = "paper"
    pattern: SimTrafficPattern | None = None
    max_events: int = 500_000_000
    engine: str = "reference"


# Per-process LRU session cache (bounded: the worker processes of one pool
# see a handful of configurations, but a long-lived parent process may run
# many different scenarios through the serial path).  Insertion order is
# recency order: hits re-insert at the end, eviction pops the front.
_SESSION_CACHE: dict = {}
_SESSION_CACHE_MAX = 8


def _session_for(item: SimWorkItem) -> SimulationSession:
    key = (item.system, item.message, item.options)
    session = _SESSION_CACHE.pop(key, None)
    if session is None:
        if len(_SESSION_CACHE) >= _SESSION_CACHE_MAX:
            _SESSION_CACHE.pop(next(iter(_SESSION_CACHE)))
        session = SimulationSession(item.system, item.message, options=item.options)
    _SESSION_CACHE[key] = session
    return session


def _run_on(session: SimulationSession, item: SimWorkItem) -> SimulationResult:
    """Run *item* on *session* — the single place item fields map to run kwargs."""
    return session.run(
        item.generation_rate,
        seed=item.seed,
        window=item.window,
        granularity=item.granularity,
        ideal_sinks=item.ideal_sinks,
        cd_mode=item.cd_mode,
        pattern=item.pattern,
        max_events=item.max_events,
        engine=item.engine,
    )


def run_work_item(item: SimWorkItem) -> SimulationResult:
    """Execute one work item (the function a pool worker runs)."""
    return _run_on(_session_for(item), item)


def run_work_items(
    items,
    *,
    jobs: "int | str | None" = None,
    session: SimulationSession | None = None,
    policy: "RunPolicy | None" = None,
) -> list[SimulationResult]:
    """Run *items* serially or across a process pool; results in item order.

    ``jobs`` follows :func:`repro.exec.resolve_jobs`.  The pool never
    exceeds the item count.  With ``jobs <= 1`` every item runs in this
    process, preferring *session* (the caller's cached fabric) for items
    that match its configuration.  Pooled execution is supervised by
    :func:`repro.exec.run_supervised`: worker crashes/failures are retried
    under *policy* (default :class:`~repro.exec.RunPolicy`), and an item
    that still fails after its retries re-raises its original exception
    (never a partial list).
    """
    items = list(items)
    for item in items:
        require(isinstance(item, SimWorkItem), "items must be SimWorkItem instances")
    n_jobs = min(resolve_jobs(jobs), len(items))
    if n_jobs <= 1 and session is not None:
        key = (session.system_config, session.message, session.options)
        return [
            _run_on(session, item)
            if (item.system, item.message, item.options) == key
            else run_work_item(item)
            for item in items
        ]
    outcomes = raise_on_failure(
        run_supervised(run_work_item, items, jobs=n_jobs, policy=policy)
    )
    return [outcome.value for outcome in outcomes]
