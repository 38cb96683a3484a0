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

Cells are pure functions of their spec.  :func:`explore_grid` hands them
to the study executor (:class:`repro.exec.study.Study`), which prices
them with :func:`_price_cells` — every pending cell in one cross-cell
:class:`repro.core.stacked.StackedModel` pass on serial runs, or one
supervised one-cell stack per cell under ``jobs``, an explicit policy,
``resume`` or an armed fault plan — with results bit-identical either
way and for any worker count.  Cells are memoised in a
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
from functools import partial
from typing import Sequence

import numpy as np

from repro._util import require
from repro.analysis.capacity import max_load_for_latency  # patched by perfbench/tracer.py
from repro.analysis.frontier import axis_sensitivity, bandwidth_cost_proxy, pareto_frontier_cells
from repro.analysis.tables import render_table
from repro.core.batch import ENGINE_VERSION
from repro.core.stacked import StackedModel
from repro.exec import RunPolicy, run_supervised  # run_supervised: patched by perfbench/tracer.py
from repro.exec.study import Study
from repro.experiments.experiment import ExperimentResult
from repro.io.cache import ResultCache, canonical_numbers, content_key
from repro.io.schemas import EXPLORE_CELL_SCHEMA
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


def _price_cells(specs: "Sequence[ScenarioSpec]", knee_threshold_factor: float) -> "list[dict]":
    """Metrics of every cell in *specs*, priced in one :class:`StackedModel` pass.

    The study executor's pricer: a cell priced alone (one-cell stack) is
    bit-identical to the same cell inside any stack (the stacked engine's
    lane-independence contract, locked by ``tests/test_stacked.py``).  A
    ``ValueError`` is the model rejecting a cell of this set.
    """
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

    Serial runs (``jobs`` absent or 1) with no explicit ``policy``, no
    ``resume`` and no armed fault plan price all uncached cells in one
    :class:`~repro.core.stacked.StackedModel` pass; otherwise each cell
    runs as its own supervised item (``data["stacked"]`` reports which
    mode ran).  Both give bit-identical tables; see
    :mod:`repro.exec.study` for the dispatch rule.

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
    # Cache keys only address the store and the journal; with no cache
    # configured, hashing 500 specs is pure overhead on the hot stacked
    # path, so keys exist only for cached runs.
    keys = None
    if cache is not None:
        keys = [cell_cache_key(cell.spec, knee_threshold_factor) for cell in cells]
    study = Study(
        "explore", keys, cache=cache, resume=resume,
        label="cell", labels=[cell.name for cell in cells],
    )
    metrics = study.evaluate(
        [cell.spec for cell in cells],
        partial(_price_cells, knee_threshold_factor=knee_threshold_factor),
        envelope={"schema": EXPLORE_CELL_SCHEMA, "engine_version": ENGINE_VERSION},
        # A hit must carry the full metric set: an incomplete mapping is a
        # miss to recompute, not a crash.
        valid=lambda m: all(name in m for name in _METRIC_COLUMNS),
        error_row=lambda idx: _error_metrics(cells[idx].spec),
        jobs=jobs,
        policy=policy,
    )
    errors = study.errors

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
        **study.summary(),
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
        f"\nevaluated {study.evaluated} of {len(cells)} cells "
        f"({study.cached} from cache, jobs={study.jobs})"
    )
    if resume:
        text += f"\nresumed {study.resumed} cell(s) from the run journal"
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
