"""Design-space exploration: evaluate every cell of a :class:`DesignGrid`.

This is the scaffolding the paper's §4 promise ("help system designers
explore the design space") runs on: a grid of derived scenario variants is
evaluated **entirely through the batched closed forms** — per cell one
load-independent decomposition, the exact per-resource saturation
inversion, a vectorised knee search and (when the spec carries a finite
``latency_budget``) the capacity planner — so thousands of design points
cost milliseconds each, no simulation.

Per-cell metrics (the ``metrics`` mapping of each cell record and the
columns of the long-format table):

``saturation_load``
    λ* — smallest load at which any modelled queue reaches ρ = 1.
``binding_resource`` / ``binding_kind``
    the resource attaining that minimum (``source-queue``/``concentrator``).
``zero_load_latency``
    the no-contention mean latency floor.
``knee_load``
    the load at which mean latency reaches ``knee_threshold_factor`` ×
    the zero-load latency (the curve's practical knee; default 4×).
``lambda_at_budget``
    largest load meeting the spec's ``latency_budget`` (NaN when the spec
    carries no budget).
``total_nodes`` / ``cost_proxy``
    system size and the provisioning cost proxy
    (:func:`repro.analysis.frontier.bandwidth_cost_proxy`).

Cells are pure functions of their spec, so :func:`explore_grid` prices
them either through one cross-cell stacked evaluation
(:class:`repro.core.stacked.StackedModel`; the serial fast path) or by
fanning them across the supervised process pool
(:func:`repro.exec.run_supervised`)
with results bit-identical for any worker count, and memoises them in a
content-addressed on-disk cache (:mod:`repro.io.cache`) keyed by the
cell's numeric spec content, the metric parameters and
:data:`repro.core.batch.ENGINE_VERSION` — re-running an enlarged grid only
evaluates the new cells.

Resilience: worker crashes and failures are retried under a
:class:`~repro.exec.RunPolicy`; cells that still fail produce NaN metric
rows plus an ``errors`` section in the result (a *partial* table) rather
than aborting the run.  With a cache, every completed cell is journaled
as it lands (:class:`~repro.exec.RunJournal`), so a killed run resumed
with ``resume=True`` replays the completed cells and evaluates only the
remainder — byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import math

import numpy as np

from repro._util import require
from repro.analysis.capacity import max_load_for_latency
from repro.analysis.frontier import axis_sensitivity, bandwidth_cost_proxy, pareto_frontier_cells
from repro.analysis.tables import render_table
from repro.core.batch import ENGINE_VERSION, BatchedModel, refine_monotone_crossing
from repro.core.stacked import StackedModel
from repro.exec import (
    RunJournal,
    RunPolicy,
    maybe_corrupt_cache,
    resolve_jobs,
    run_supervised,
)
from repro.experiments.experiment import ExperimentResult
from repro.io.cache import ResultCache, canonical_numbers, content_key
from repro.io.schemas import EXPLORE_CELL_SCHEMA, RUN_JOURNAL_SCHEMA
from repro.scenarios.grid import DesignGrid, format_axis_value
from repro.scenarios.spec import ScenarioSpec

__all__ = ["EXPLORE_CELL_SCHEMA", "cell_cache_key", "explore_grid"]

#: Column order of the long-format table (after the cell name and axes).
_METRIC_COLUMNS = (
    "total_nodes",
    "cost_proxy",
    "saturation_load",
    "knee_load",
    "zero_load_latency",
    "lambda_at_budget",
    "binding_resource",
    "binding_kind",
)


def cell_cache_key(spec: ScenarioSpec, knee_threshold_factor: float) -> str:
    """Content key of one cell's metrics in the on-disk cache.

    Hashes everything the metrics depend on — and nothing they don't: the
    serialised spec minus its derived ``name``/``description`` and minus
    the ``load_grid`` policy (which only shapes sweep grids, never these
    metrics), plus the knee threshold and the engine version.  Numeric
    leaves are canonicalised (int → float) first.  The same design
    reached through different grids, grid policies or value spellings
    therefore shares one entry.
    """
    payload = spec.to_dict()
    payload.pop("name", None)
    payload.pop("description", None)
    payload.pop("load_grid", None)
    payload = canonical_numbers(payload)
    return content_key(
        {
            "schema": EXPLORE_CELL_SCHEMA,
            "engine_version": ENGINE_VERSION,
            "knee_threshold_factor": float(knee_threshold_factor),
            "spec": payload,
        }
    )


def _model_knee(engine: BatchedModel, lam_star: float, zero: float, factor: float) -> float:
    """Load where the model's latency first reaches ``factor ×`` its floor."""
    threshold = factor * zero

    def beyond(grid: np.ndarray) -> np.ndarray:
        latencies = engine.evaluate_many(grid, with_results=False).latencies
        return ~(np.isfinite(latencies) & (latencies < threshold))

    lo, _ = refine_monotone_crossing(0.0, lam_star * (1.0 - 1e-9), beyond, rel_tol=1e-6)
    return lo


def _cell_metrics(spec: ScenarioSpec, knee_threshold_factor: float) -> dict:
    """Evaluate one cell through the batched closed forms (pure function)."""
    engine = BatchedModel(spec.system, spec.message, spec.options, spec.pattern)
    lam_star = engine.saturation_load()
    binding = engine.binding_resource()
    zero = engine.zero_load_latency()
    knee = _model_knee(engine, lam_star, zero, knee_threshold_factor)
    if math.isfinite(spec.latency_budget):
        plan = max_load_for_latency(spec.system, spec.message, spec.latency_budget, engine=engine)
        lambda_at_budget = plan.achieved
    else:
        lambda_at_budget = float("nan")
    return {
        "saturation_load": lam_star,
        "binding_resource": binding,
        "binding_kind": "concentrator" if binding.endswith(":concentrator") else "source-queue",
        "zero_load_latency": zero,
        "knee_load": knee,
        "lambda_at_budget": lambda_at_budget,
        "total_nodes": spec.system.total_nodes,
        "cost_proxy": bandwidth_cost_proxy(spec.system),
    }


def _evaluate_cell(payload: tuple) -> dict:
    """Worker for :func:`explore_grid` (module-level: picklable)."""
    spec_dict, knee_threshold_factor = payload
    return _cell_metrics(ScenarioSpec.from_dict(spec_dict), knee_threshold_factor)


def _stacked_metrics(specs: "list[ScenarioSpec]", knee_threshold_factor: float) -> "list[dict] | None":
    """All pending cells priced in one :class:`StackedModel` evaluation.

    Returns per-cell metric mappings bit-identical to
    :func:`_cell_metrics` (the stacked engine's lane-independence
    contract, locked by ``tests/test_stacked.py``), or ``None`` if the
    model rejects a cell of this set (the ``ValueError`` its input checks
    raise) — the caller then falls back to the supervised per-cell path,
    which confines the failure to its cell as a NaN row.  Any other
    exception is an engine bug and propagates.
    """
    try:
        stack = StackedModel.from_specs(specs)
        lam_star = stack.saturation_load()
        binding = stack.binding_resources()
        zero = stack.zero_load_latencies()
        knee = stack.knee_loads(knee_threshold_factor)
        budgets = np.array(
            [
                spec.latency_budget if math.isfinite(spec.latency_budget) else float("nan")
                for spec in specs
            ],
            dtype=np.float64,
        )
        at_budget = stack.loads_at_budget(budgets)
    except ValueError:
        return None
    return [
        {
            "saturation_load": float(lam_star[k]),
            "binding_resource": binding[k],
            "binding_kind": (
                "concentrator" if binding[k].endswith(":concentrator") else "source-queue"
            ),
            "zero_load_latency": float(zero[k]),
            "knee_load": float(knee[k]),
            "lambda_at_budget": float(at_budget[k]),
            "total_nodes": spec.system.total_nodes,
            "cost_proxy": bandwidth_cost_proxy(spec.system),
        }
        for k, spec in enumerate(specs)
    ]


def _error_metrics(spec: ScenarioSpec) -> dict:
    """Placeholder metric row for a cell that failed after all retries."""
    nan = float("nan")
    return {
        "saturation_load": nan,
        "binding_resource": "",
        "binding_kind": "error",
        "zero_load_latency": nan,
        "knee_load": nan,
        "lambda_at_budget": nan,
        "total_nodes": spec.system.total_nodes,
        "cost_proxy": nan,
    }


def explore_grid(
    grid: DesignGrid,
    *,
    jobs: "int | str | None" = None,
    cache: "ResultCache | str | None" = None,
    frontier: bool = False,
    knee_threshold_factor: float = 4.0,
    policy: "RunPolicy | None" = None,
    resume: bool = False,
) -> ExperimentResult:
    """Evaluate every cell of *grid*; returns a uniform ``explore`` result.

    ``jobs`` fans the uncached cells across a supervised process pool
    (``0``/"auto" = one worker per CPU); the table is bit-identical for
    any worker count.  ``cache`` (a directory path or
    :class:`ResultCache`) memoises per-cell metrics on disk — a repeated
    run re-evaluates nothing and an enlarged grid only evaluates its new
    cells.  With ``frontier=True`` the result additionally carries the
    Pareto frontier (min ``cost_proxy``, max ``saturation_load``) and the
    per-axis sensitivity ranking of λ*.

    ``policy`` tunes retries/timeouts/pool respawn
    (:class:`~repro.exec.RunPolicy`; default policy retries twice).
    Cells still failing after retries yield NaN metric rows and an
    ``errors`` section (``data["partial"]`` is then true; frontier views
    are skipped).  With a cache, completed cells are journaled as they
    land; ``resume=True`` requires that journal and replays its cells
    from the cache, evaluating only the remainder.

    Serial runs (``jobs`` absent or 1) with no explicit ``policy`` and no
    ``resume`` price all uncached cells through one
    :class:`~repro.core.stacked.StackedModel` evaluation — bit-identical
    to the per-cell path by the stacked engine's contract, roughly 50×
    faster on large grids (``data["stacked"]`` reports which path ran).

    The result's ``data`` holds the long-format ``columns`` (one row per
    cell: name, one column per axis, then the metric columns), the full
    ``cells`` records, and ``evaluated``/``cached``/``cache_hits``/
    ``stacked``/``resumed``/``jobs`` counters plus ``errors``/``partial``.
    """
    require(isinstance(grid, DesignGrid), "grid must be a DesignGrid")
    require(
        isinstance(knee_threshold_factor, (int, float)) and knee_threshold_factor > 1.0,
        f"knee_threshold_factor must exceed 1, got {knee_threshold_factor!r}",
    )
    knee_threshold_factor = float(knee_threshold_factor)
    cells = grid.cells()
    store = None
    if cache is not None:
        store = cache if isinstance(cache, ResultCache) else ResultCache(cache)

    # Cache keys only exist to address the store and the journal; with no
    # cache configured, hashing 500 specs is pure overhead on the hot
    # stacked path, so the whole identity block is store-gated.
    keys: "list[str]" = []
    journal = None
    if store is not None:
        keys = [cell_cache_key(cell.spec, knee_threshold_factor) for cell in cells]
        # The run's identity is its full work list: the same grid resumes
        # itself, any change to the cell set starts a fresh journal.
        run_key = content_key(
            {"schema": RUN_JOURNAL_SCHEMA, "kind": "explore", "keys": keys}
        )
        journal = RunJournal.for_cache(store, run_key)
    if resume:
        require(store is not None, "resume requires a result cache (--cache)")
        assert journal is not None
        require(
            journal.exists(),
            f"resume requested but no run journal exists at {journal.path}",
        )
    journaled = journal.completed_keys() if journal is not None else set()

    # Cache lookups resolve *before* any model construction: pure cache
    # hits never build an engine, and the one-pass ``get_many`` replaces
    # N per-key stats with one directory listing per fan-out prefix.
    metrics: list = [None] * len(cells)
    n_cached = 0
    n_resumed = 0
    if store is not None:
        for idx, (key, entry) in enumerate(zip(keys, store.get_many(keys))):
            # A hit must carry the full metric set: an incomplete mapping
            # (hand-edited, or written by a build whose metric set changed
            # without a schema bump) is a miss to recompute, not a crash.
            if (
                isinstance(entry, dict)
                and entry.get("schema") == EXPLORE_CELL_SCHEMA
                and isinstance(entry.get("metrics"), dict)
                and all(name in entry["metrics"] for name in _METRIC_COLUMNS)
            ):
                metrics[idx] = entry["metrics"]
                n_cached += 1
                if key in journaled:
                    n_resumed += 1
    pending = [idx for idx, m in enumerate(metrics) if m is None]
    n_jobs = min(resolve_jobs(jobs), len(pending))

    def _persist_cell(slot, value):
        # Runs in the supervising process as each cell finalises, so a
        # kill at any instant leaves cache+journal describing exactly the
        # completed cells (crash-safe resume).
        if store is None:
            return
        idx = pending[slot]
        store.put(
            keys[idx],
            {
                "schema": EXPLORE_CELL_SCHEMA,
                "engine_version": ENGINE_VERSION,
                "cell": cells[idx].name,
                "metrics": value,
            },
        )
        maybe_corrupt_cache(store, keys[idx], slot)
        journal.record(keys[idx], cell=cells[idx].name)

    # Serial runs without fault-injection/resume machinery price every
    # pending cell in ONE stacked evaluation (bit-identical, ~50x).  The
    # supervised per-cell pool keeps ownership of ``--jobs`` fan-out and
    # retry/NaN-row/resume semantics — nothing there changes shape.
    errors = []
    stacked = False
    stacked_values = None
    if pending and jobs in (None, 1) and policy is None and not resume:
        stacked_values = _stacked_metrics(
            [cells[idx].spec for idx in pending], knee_threshold_factor
        )
    if stacked_values is not None:
        stacked = True
        for slot, idx in enumerate(pending):
            metrics[idx] = stacked_values[slot]
            _persist_cell(slot, stacked_values[slot])
    else:
        outcomes = run_supervised(
            _evaluate_cell,
            [(cells[idx].spec.to_dict(), knee_threshold_factor) for idx in pending],
            jobs=n_jobs,
            policy=policy,
            on_result=lambda slot, outcome: (
                _persist_cell(slot, outcome.value) if outcome.ok else None
            ),
        )
        for slot, outcome in enumerate(outcomes):
            idx = pending[slot]
            if outcome.ok:
                metrics[idx] = outcome.value
            else:
                metrics[idx] = _error_metrics(cells[idx].spec)
                errors.append({"cell": cells[idx].name, **outcome.error_record()})

    columns: dict[str, list] = {"cell": [cell.name for cell in cells]}
    for axis in grid.axes:
        columns[axis.path] = [cell.coords[axis.path] for cell in cells]
    for name in _METRIC_COLUMNS:
        columns[name] = [m[name] for m in metrics]
    records = [
        {"index": cell.index, "name": cell.name, "coords": cell.coords, "metrics": m}
        for cell, m in zip(cells, metrics)
    ]
    data = {
        "columns": columns,
        "cells": records,
        "axes": [axis.to_dict() for axis in grid.axes],
        "knee_threshold_factor": knee_threshold_factor,
        "evaluated": len(pending),
        "cached": n_cached,
        "cache_hits": n_cached,
        "stacked": stacked,
        "resumed": n_resumed,
        "jobs": n_jobs,
        "cache_root": str(store.root) if store is not None else None,
        "errors": errors,
        "partial": bool(errors),
    }

    rows = [
        [cell.name]
        + [format_axis_value(cell.coords[axis.path]) for axis in grid.axes]
        + [f"{m['saturation_load']:.4e}", f"{m['knee_load']:.4e}", m["binding_resource"]]
        for cell, m in zip(cells, metrics)
    ]
    text = render_table(
        ["cell"] + [axis.path for axis in grid.axes] + ["λ*", "knee", "binding"],
        rows,
        title=(
            f"design grid over {grid.base.name!r}: "
            f"{len(grid.axes)} axes, {len(cells)} cells"
        ),
    )
    if frontier and not errors:
        frontier_text, frontier_data = _frontier_views(records)
        data.update(frontier_data)
        text += "\n\n" + frontier_text
    elif frontier:
        text += "\n\nfrontier views skipped: the table is partial"
    text += (
        f"\nevaluated {len(pending)} of {len(cells)} cells "
        f"({n_cached} from cache, jobs={n_jobs})"
    )
    if resume:
        text += f"\nresumed {n_resumed} cell(s) from the run journal"
    if errors:
        text += (
            f"\nPARTIAL: {len(errors)} of {len(cells)} cell(s) failed after retries"
        )
    return ExperimentResult(
        kind="explore",
        scenario=grid.base.name,
        spec=grid.to_dict(),
        data=data,
        text=text,
    )


def _frontier_views(records: list) -> tuple[str, dict]:
    """Pareto frontier + sensitivity tables over the evaluated cells."""
    indices = pareto_frontier_cells(records)
    frontier_rows = [
        [
            records[i]["name"],
            f"{records[i]['metrics']['cost_proxy']:.4e}",
            f"{records[i]['metrics']['saturation_load']:.4e}",
        ]
        for i in indices
    ]
    sensitivity = axis_sensitivity(records)
    sensitivity_rows = [[s.path, f"{s.spread:.4f}", s.groups] for s in sensitivity]
    text = (
        render_table(
            ["cell", "cost_proxy", "λ*"],
            frontier_rows,
            title=f"Pareto frontier (min cost_proxy, max λ*): {len(indices)} of {len(records)} cells",
        )
        + "\n\n"
        + render_table(
            ["axis", "relative spread of λ*", "groups"],
            sensitivity_rows,
            title="axis sensitivity (most influential first)",
        )
    )
    data = {
        "frontier": {
            "x": "cost_proxy",
            "y": "saturation_load",
            "indices": [int(i) for i in indices],
            "cells": [records[i]["name"] for i in indices],
        },
        "sensitivity": [
            {"path": s.path, "spread": s.spread, "groups": s.groups} for s in sensitivity
        ],
    }
    return text, data
