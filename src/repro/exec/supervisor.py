"""Supervised fan-out: retries, per-item timeouts, pool respawn, degrade.

:func:`run_supervised` is the generic execution primitive behind
:func:`repro.simulation.parallel.run_work_items` and every study fan-out.  It
maps a module-level function over a payload list — serially or across a
``ProcessPoolExecutor`` — under a :class:`~repro.exec.RunPolicy`, and
returns one :class:`~repro.exec.ItemOutcome` per payload instead of
letting a single bad item abort the batch.

The pooled scheduler runs in *waves*.  Each wave submits every
unresolved item, then polls with a short ``concurrent.futures.wait``
tick, gathering results as they land.  Three kinds of trouble disrupt a
wave:

* a worker **exception** — the item is charged an attempt and either
  retried next wave or finalised ``failed``;
* a **pool break** (a worker died — segfault, ``os._exit``, OOM kill) —
  ``ProcessPoolExecutor`` cannot say which item was responsible, so the
  supervisor charges one attempt to *every* submitted-but-unresolved
  item, tears the pool down, and respawns it.  The guilty item's attempt
  counter is therefore guaranteed to advance (its retry re-executes under
  a new attempt number), while innocent items merely recompute — their
  results are bit-identical by the determinism contract;
* a **hung item** — with ``policy.timeout`` set, an item observed running
  longer than the budget disrupts the wave the same way (a running future
  cannot be cancelled, so the pool is torn down around it); the item is
  charged a ``timeout`` attempt and retried like any other failure.

A broken pool is rebuilt at most twice (:data:`_POOL_RESTARTS`); after
that the run degrades to serial in-process execution of the remaining
items.  Serial execution cannot preempt a running call, so per-item
timeouts are not enforced there.

Once a wave has submitted its items, worker ``k`` of the pool is pinned
to the ``k``-th CPU of the caller's affinity mask (wrapping round), so a
cpuset without load balancing still gives each worker a core of its own.

``KeyboardInterrupt`` is never absorbed into an outcome: the pool is
shut down with ``cancel_futures=True`` and its workers killed (no
orphaned children), then the interrupt propagates to the caller.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    wait,
)
from typing import Any, Callable

from repro._util import require, require_int
from repro.exec.faults import fire, mark_worker_process
from repro.exec.outcomes import (
    OUTCOME_FAILED,
    OUTCOME_OK,
    OUTCOME_TIMEOUT,
    ItemOutcome,
)
from repro.exec.policy import RunPolicy

__all__ = ["resolve_jobs", "run_supervised"]

# Poll interval of the wave loop: long enough to keep the supervising
# process idle, short enough that timeout enforcement is responsive.
_TICK = 0.05

# Pool rebuilds before the remaining items run serially in-process.
_POOL_RESTARTS = 2


def _allowed_cpus() -> "list[int]":
    """The CPUs this process may run on, sorted; empty where the platform
    has no affinity mask."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:
        return []


def resolve_jobs(jobs: "int | str | None") -> int:
    """Normalise a ``--jobs`` value to a worker count.

    ``None``/``1`` mean serial in-process execution; ``0`` or ``"auto"``
    mean one worker per CPU this process may run on (its affinity mask,
    or ``os.cpu_count()`` where the platform has none); any other
    positive int is taken as-is.
    """
    if jobs is None:
        return 1
    require(not isinstance(jobs, bool), "jobs must be an int or 'auto', not a bool")
    if jobs == "auto" or jobs == 0:
        return max(1, len(_allowed_cpus()) or os.cpu_count() or 1)
    require_int(jobs, "jobs", minimum=1)
    return int(jobs)


def _invoke(task: "tuple[Callable[[Any], Any], Any, int, int]") -> Any:
    """Worker entry point: fault-injection hook, then the real function.

    ``task`` is ``(fn, payload, index, attempt)`` so the hook can match
    armed faults deterministically; with nothing armed it is a no-op.
    """
    fn, payload, index, attempt = task
    fire(index, attempt)
    return fn(payload)


class _RunState:
    """Mutable bookkeeping shared by the pooled and serial schedulers."""

    def __init__(self, count: int) -> None:
        self.todo: "set[int]" = set(range(count))
        self.attempts: "list[int]" = [0] * count
        self.errors: "list[str]" = [""] * count
        self.excs: "list[BaseException | None]" = [None] * count
        # Status the item would be finalised with if no further execution
        # happens (last failure kind: failed vs timeout).
        self.statuses: "list[str]" = [OUTCOME_FAILED] * count
        self.outcomes: "dict[int, ItemOutcome]" = {}


def _finish(
    state: _RunState,
    index: int,
    outcome: ItemOutcome,
    on_result: "Callable[[int, ItemOutcome], None] | None",
) -> None:
    state.outcomes[index] = outcome
    state.todo.discard(index)
    if on_result is not None:
        on_result(index, outcome)


def _finish_unresolved(
    state: _RunState,
    index: int,
    on_result: "Callable[[int, ItemOutcome], None] | None",
) -> None:
    """Finalise an item from its recorded (non-``ok``) bookkeeping."""
    _finish(
        state,
        index,
        ItemOutcome(
            index=index,
            status=state.statuses[index],
            attempts=state.attempts[index],
            error=state.errors[index],
            exception=state.excs[index],
        ),
        on_result,
    )


def _run_serial(
    fn: "Callable[[Any], Any]",
    items: "list[Any]",
    pol: RunPolicy,
    state: _RunState,
    on_result: "Callable[[int, ItemOutcome], None] | None",
) -> None:
    """Run every unresolved item in this process, honouring prior attempts.

    Used both for ``jobs <= 1`` runs and as the degraded path once pool
    restarts are exhausted.  Only ``Exception`` is absorbed into an
    outcome — ``KeyboardInterrupt``/``SystemExit`` propagate.
    """
    for index in sorted(state.todo):
        while index in state.todo:
            if state.attempts[index] > pol.max_retries:
                _finish_unresolved(state, index, on_result)
                break
            try:
                value = _invoke((fn, items[index], index, state.attempts[index]))
            except Exception as exc:
                state.attempts[index] += 1
                state.errors[index] = f"{type(exc).__name__}: {exc}"
                state.excs[index] = exc
                state.statuses[index] = OUTCOME_FAILED
                continue
            state.attempts[index] += 1
            _finish(
                state,
                index,
                ItemOutcome(
                    index=index,
                    status=OUTCOME_OK,
                    attempts=state.attempts[index],
                    value=value,
                ),
                on_result,
            )


def _workers(pool: ProcessPoolExecutor) -> list:
    """The pool's worker processes, in launch order."""
    return list((getattr(pool, "_processes", None) or {}).values())


def _place_workers(pool: ProcessPoolExecutor) -> None:
    """Pin worker ``k`` of *pool* to the ``k``-th CPU of this process's mask.

    Where the cpuset does not balance load, a forked worker stays on its
    parent's CPU, and two workers then share one core while another idles.
    Workers are taken in launch order and wrap round when they outnumber
    the CPUs; a one-CPU mask places nothing.  A worker that refuses the
    move (already dead, or on a platform that refuses it) stays where the
    kernel put it: a dead pool is the wave's to notice.
    """
    cpus = _allowed_cpus()
    if len(cpus) < 2:
        return
    for k, proc in enumerate(_workers(pool)):
        try:
            os.sched_setaffinity(proc.pid, {cpus[k % len(cpus)]})
        except OSError:
            pass


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a (possibly broken or hung) pool down without orphaning workers."""
    procs = _workers(pool)
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        if proc.is_alive():
            proc.kill()
    for proc in procs:
        proc.join(timeout=1.0)


def _run_wave(
    fn: "Callable[[Any], Any]",
    items: "list[Any]",
    pool: ProcessPoolExecutor,
    pol: RunPolicy,
    state: _RunState,
    on_result: "Callable[[int, ItemOutcome], None] | None",
) -> bool:
    """Submit all unresolved items and gather until done or disrupted.

    Returns ``True`` when the wave was disrupted (pool break or hung
    item) and the pool must be torn down; every submitted-but-unresolved
    item has then been charged one interrupted attempt, so a crashing
    item cannot replay the same attempt number forever.
    """
    futs: "dict[Future[Any], int]" = {}
    disrupted = False
    try:
        for index in sorted(state.todo):
            task = (fn, items[index], index, state.attempts[index])
            futs[pool.submit(_invoke, task)] = index
    except BrokenExecutor:
        disrupted = True
    # Every worker exists once the wave's items are in: fork launches them
    # all at the first submit, spawn one per item up to max_workers.
    _place_workers(pool)
    charged: "set[int]" = set()
    timed_out: "set[int]" = set()
    started: "dict[Future[Any], float]" = {}
    pending = set(futs)
    while pending and not disrupted:
        done, _ = wait(pending, timeout=_TICK, return_when=FIRST_COMPLETED)
        now = time.perf_counter()
        for fut in done:
            pending.discard(fut)
            index = futs[fut]
            try:
                value = fut.result()
            except (BrokenExecutor, CancelledError):
                disrupted = True
                continue
            except Exception as exc:
                state.attempts[index] += 1
                charged.add(index)
                state.errors[index] = f"{type(exc).__name__}: {exc}"
                state.excs[index] = exc
                state.statuses[index] = OUTCOME_FAILED
                if state.attempts[index] > pol.max_retries:
                    _finish_unresolved(state, index, on_result)
                continue
            state.attempts[index] += 1
            charged.add(index)
            _finish(
                state,
                index,
                ItemOutcome(
                    index=index,
                    status=OUTCOME_OK,
                    attempts=state.attempts[index],
                    value=value,
                ),
                on_result,
            )
        if disrupted or pol.timeout is None:
            continue
        for fut in pending:
            if fut not in started:
                if fut.running():
                    started[fut] = now
            elif now - started[fut] > pol.timeout:
                timed_out.add(futs[fut])
                disrupted = True
    if not disrupted:
        return False
    for fut, index in futs.items():
        if index not in state.todo or index in charged:
            continue
        state.attempts[index] += 1
        state.excs[index] = None
        if index in timed_out:
            state.errors[index] = f"timed out after {pol.timeout}s"
            state.statuses[index] = OUTCOME_TIMEOUT
        else:
            state.errors[index] = "interrupted by process-pool failure"
            state.statuses[index] = OUTCOME_FAILED
    return True


def _run_pooled(
    fn: "Callable[[Any], Any]",
    items: "list[Any]",
    n_jobs: int,
    pol: RunPolicy,
    state: _RunState,
    on_result: "Callable[[int, ItemOutcome], None] | None",
) -> None:
    restarts = 0
    pool: "ProcessPoolExecutor | None" = None
    try:
        while state.todo:
            for index in sorted(state.todo):
                if state.attempts[index] > pol.max_retries:
                    _finish_unresolved(state, index, on_result)
            if not state.todo:
                break
            if pool is None:
                pool = ProcessPoolExecutor(
                    max_workers=min(n_jobs, len(state.todo)),
                    initializer=mark_worker_process,
                )
            if not _run_wave(fn, items, pool, pol, state, on_result):
                continue
            _terminate_pool(pool)
            pool = None
            if not state.todo:
                continue
            restarts += 1
            if restarts <= _POOL_RESTARTS:
                continue
            _run_serial(fn, items, pol, state, on_result)
            return
    except BaseException:
        # KeyboardInterrupt and friends: never leave worker processes
        # behind — kill them and let the interrupt propagate.
        if pool is not None:
            _terminate_pool(pool)
            pool = None
        raise
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


def run_supervised(
    fn: "Callable[[Any], Any]",
    payloads: Any,
    *,
    jobs: "int | str | None" = None,
    policy: "RunPolicy | None" = None,
    on_result: "Callable[[int, ItemOutcome], None] | None" = None,
) -> "list[ItemOutcome]":
    """Map *fn* over *payloads* under supervision; one outcome per payload.

    ``jobs`` follows :func:`resolve_jobs` and the pool never exceeds the
    payload count.  Results are returned in payload order regardless of
    completion order; *on_result* (if given) is called as each item
    *finalises* — in completion order — so callers can persist results
    and journal progress crash-safely while the run is still going.
    *fn* must be a module-level callable and payloads picklable when
    ``jobs > 1``.  No exception from a worker escapes this function:
    every payload resolves to an :class:`~repro.exec.ItemOutcome` (use
    :func:`~repro.exec.raise_on_failure` for throwing semantics).
    """
    items = list(payloads)
    pol = policy if policy is not None else RunPolicy()
    n_jobs = min(resolve_jobs(jobs), len(items))
    state = _RunState(len(items))
    if n_jobs <= 1:
        _run_serial(fn, items, pol, state, on_result)
    else:
        _run_pooled(fn, items, n_jobs, pol, state, on_result)
    return [state.outcomes[i] for i in range(len(items))]
