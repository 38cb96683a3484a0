"""Availability-weighted performance: the performability answer surface.

The top of the hierarchical decomposition (Thomasian's framing): the CTMC
of :mod:`repro.performability.states` says how much steady-state time the
system spends in each degraded configuration, the stacked closed forms of
:class:`~repro.core.stacked.StackedModel` price each configuration, and
this module combines the two into the quantities a capacity planner
actually asks for:

``availability``
    steady-state probability of the pristine (no-failure) state.
``saturation_load_weighted`` (λ*_A)
    availability-adjusted per-node saturation load
    ``Σ_s π_s · λ*_s · (nodes_s / N)`` — the long-run per-node capacity a
    planner can bank on, strictly below the pristine λ* whenever failures
    have non-zero rates and exactly equal to it when all rates are zero.
``expected_capacity``
    expected whole-system message throughput capacity under churn,
    ``Σ_s π_s · nodes_s · λ*_s`` (messages per time-unit).
``curve``
    the availability-weighted latency curve over the scenario's load
    grid: at each load, the π-weighted mean latency over the states that
    can still serve it, plus the ``served_probability`` column (the π
    mass of those states) — the two together describe graceful
    degradation, a conditional mean avoids infecting low-load points
    with the saturation of deep-failure states.
``ranking``
    "which failure hurts most": every single-failure state scored by its
    capacity impact ``1 − (nodes_s · λ*_s) / (N · λ*_pristine)`` — the
    one-factor attribution style of ``analysis/frontier.axis_sensitivity``,
    independent of how likely the failure is, so zero-rate what-if modes
    rank too.

Per-state evaluations are pure functions of the degraded spec.  The study
executor (:class:`repro.exec.study.Study`) prices them with
:func:`_price_states` — every distinct degraded system in one cross-cell
:class:`repro.core.stacked.StackedModel` pass on serial runs, one
contiguous stacked shard per pool worker under ``jobs``, one supervised
one-cell stack per state under an explicit policy, ``resume`` or an
armed fault plan; bit-identical tables in every mode and for any worker
count — and memoises them in a content-addressed
:class:`~repro.io.cache.ResultCache` keyed by the degraded spec, the load
grid and the engine version.  States that degrade to the *same* system
(e.g. node-loss states, which only change capacity weighting) share one
cache key and are evaluated once.
"""

from __future__ import annotations

import dataclasses
import math
from functools import partial
from typing import Sequence

import numpy as np

from repro._util import require
from repro.analysis.tables import render_table
from repro.core.batch import ENGINE_VERSION
from repro.core.stacked import StackedModel
from repro.exec import RunPolicy
from repro.exec.study import Study
from repro.experiments.experiment import ExperimentResult
from repro.io.cache import ResultCache, spec_key
from repro.io.schemas import PERFORMABILITY_STATE_SCHEMA
from repro.performability.degrade import DegradedState, expand_states, resolve_populations
from repro.performability.spec import FailureScenario
from repro.performability.states import steady_state
from repro.scenarios.spec import ScenarioSpec

__all__ = ["PERFORMABILITY_STATE_SCHEMA", "performability_analysis", "state_cache_key"]

#: Metrics every cached per-state entry must carry to count as a hit.
_STATE_METRICS = ("saturation_load", "binding_resource", "zero_load_latency", "latencies")


def state_cache_key(degraded_spec: ScenarioSpec, loads: "tuple[float, ...]") -> str:
    """Content key of one degraded state's metrics in the on-disk cache.

    One :func:`~repro.io.cache.spec_key` call, as for
    :func:`repro.experiments.explore.cell_cache_key`: the serialised
    degraded spec minus its derived ``name``/``description`` and its
    ``load_grid`` policy (the *materialised* loads are hashed instead,
    since the latency curve depends on them), plus the engine version.
    Integers in the spec (Python or numpy) fold to floats, so states
    reached through differently-spelled specs share an entry, as do
    distinct availability states that degrade to the same system.
    """
    return spec_key(
        degraded_spec,
        drop=("load_grid",),
        schema=PERFORMABILITY_STATE_SCHEMA,
        engine_version=ENGINE_VERSION,
        loads=[float(v) for v in loads],
    )


def _error_state_metrics(n_loads: int) -> dict:
    """Placeholder metrics for a state that failed after all retries."""
    nan = float("nan")
    return {
        "saturation_load": nan,
        "binding_resource": "",
        "zero_load_latency": nan,
        "latencies": [nan] * n_loads,
    }


def _price_states(specs: "Sequence[ScenarioSpec]", loads: "Sequence[float]") -> "list[dict]":
    """Metrics of every degraded state in *specs*, in one stacked pass.

    The study executor's pricer: a state priced alone (one-cell stack) is
    bit-identical to the same state inside any stack (the stacked engine's
    lane-independence contract, locked by ``tests/test_stacked.py``).  A
    ``ValueError`` is the model rejecting a state of this set.
    """
    stack = StackedModel.from_specs(specs)
    latencies = stack.evaluate_latencies(np.asarray(loads, dtype=np.float64))
    lam_star = stack.saturation_load()
    binding = stack.binding_resources()
    zero = stack.zero_load_latencies()
    return [
        {
            "saturation_load": float(lam_star[k]),
            "binding_resource": binding[k],
            "zero_load_latency": float(zero[k]),
            "latencies": [float(v) for v in latencies[k]],
        }
        for k in range(len(specs))
    ]


def _weighted_curve(
    loads: "list[float]", probs: "list[float]", metrics: "list[dict]"
) -> dict:
    """Conditional availability-weighted latency curve (see module doc)."""
    latency: list[float] = []
    served: list[float] = []
    for j in range(len(loads)):
        num = 0.0
        den = 0.0
        for p, m in zip(probs, metrics):
            if p <= 0.0:
                continue
            value = m["latencies"][j]
            if math.isfinite(value):
                num += p * value
                den += p
        served.append(den)
        latency.append(num / den if den > 0.0 else float("inf"))
    return {"load": loads, "latency": latency, "served_probability": served}


def _ranking(
    scenario: FailureScenario,
    states: "list[DegradedState]",
    probs: "list[float]",
    metrics: "list[dict]",
    n_total: int,
    lam_pristine: float,
) -> list[dict]:
    """Single-failure states scored by capacity impact, worst first."""
    rows = []
    for st, p, m in zip(states, probs, metrics):
        if sum(st.state) != 1:
            continue
        mode = scenario.modes[st.state.index(1)]
        capacity = st.active_nodes * m["saturation_load"]
        impact = 1.0 - capacity / (n_total * lam_pristine)
        # A state whose evaluation failed (NaN metrics in a partial
        # result) cannot be ranked; keep the table well-ordered.
        if not math.isfinite(impact):
            continue
        rows.append(
            {
                "mode": mode.label,
                "state": st.label,
                "impact": impact,
                "saturation_load": m["saturation_load"],
                "active_nodes": st.active_nodes,
                "probability": p,
            }
        )
    rows.sort(key=lambda r: (-r["impact"], r["state"]))
    return rows


def performability_analysis(
    spec: ScenarioSpec,
    failures: FailureScenario,
    *,
    jobs: "int | str | None" = None,
    cache: "ResultCache | str | None" = None,
    policy: "RunPolicy | None" = None,
    resume: bool = False,
) -> ExperimentResult:
    """Availability-weighted performance of *spec* under *failures*.

    Expands the failure scenario's availability states against the spec's
    system (hard-validated — see
    :func:`~repro.performability.degrade.expand_states`), solves the CTMC
    for steady-state probabilities, prices every distinct degraded
    system through the stacked closed forms, and aggregates the
    availability-weighted metrics described in the module docstring.

    ``jobs`` prices the uncached states as one stacked shard per worker
    of a process pool (``0``/"auto" = one worker per CPU this process may
    run on); tables are bit-identical for any worker count.  ``cache`` (a
    directory path or :class:`~repro.io.cache.ResultCache`) memoises
    per-state metrics on disk, so a repeated run evaluates nothing.

    ``policy`` tunes retries/timeouts/pool respawn
    (:class:`~repro.exec.RunPolicy`).  States still failing after
    retries yield NaN metric rows and an ``errors`` section (the result
    is then *partial*: NaN propagates into the weighted aggregates, and
    unrankable states drop out of the failure ranking).  With a cache,
    completed states are journaled as they land; ``resume=True``
    requires that journal and replays its states from the cache,
    evaluating only the remainder.

    The result's ``data`` holds the per-state ``columns`` table (what CSV
    export writes), the weighted ``curve``, the failure ``ranking``, the
    summary scalars and ``evaluated``/``cached``/``resumed``/``jobs``
    counters plus ``errors``/``partial``; its ``spec`` is composite —
    ``{"scenario": ..., "failures": ...}`` — so a saved result reproduces
    the whole study.
    """
    require(isinstance(spec, ScenarioSpec), "spec must be a ScenarioSpec")
    require(isinstance(failures, FailureScenario), "failures must be a FailureScenario")

    states = expand_states(spec.system, failures)
    populations = resolve_populations(spec.system, failures)
    probs = steady_state(failures, populations)

    pristine = StackedModel([(spec.system, spec.message, spec.options, spec.pattern)])
    loads = [float(v) for v in spec.load_grid.grid(pristine)[0]]

    degraded = [dataclasses.replace(spec, system=st.system) for st in states]
    keys = [state_cache_key(d, tuple(loads)) for d in degraded]
    study = Study(
        "performability", keys, cache=cache, resume=resume,
        label="state", labels=[st.label for st in states],
    )
    metrics = study.evaluate(
        degraded,
        partial(_price_states, loads=loads),
        envelope={"schema": PERFORMABILITY_STATE_SCHEMA, "engine_version": ENGINE_VERSION},
        # A hit must carry the full metric set with a curve matching the
        # load grid; anything less is a miss to recompute.
        valid=lambda m: (
            all(name in m for name in _STATE_METRICS)
            and isinstance(m["latencies"], list)
            and len(m["latencies"]) == len(loads)
        ),
        error_row=lambda idx: _error_state_metrics(len(loads)),
        jobs=jobs,
        policy=policy,
    )
    errors = study.errors

    n_total = spec.system.total_nodes
    lam_pristine = metrics[0]["saturation_load"]
    availability = probs[0]
    lam_weighted = 0.0
    expected_capacity = 0.0
    for st, p, m in zip(states, probs, metrics):
        if p <= 0.0:
            continue
        lam_weighted += p * m["saturation_load"] * (st.active_nodes / n_total)
        expected_capacity += p * st.active_nodes * m["saturation_load"]

    curve = _weighted_curve(loads, probs, metrics)
    ranking = _ranking(failures, states, probs, metrics, n_total, lam_pristine)

    columns: dict[str, list] = {
        "state": [st.label for st in states],
        "probability": list(probs),
        "active_nodes": [st.active_nodes for st in states],
        "saturation_load": [m["saturation_load"] for m in metrics],
        "zero_load_latency": [m["zero_load_latency"] for m in metrics],
        "binding_resource": [m["binding_resource"] for m in metrics],
    }
    records = [
        {
            "state": list(st.state),
            "label": st.label,
            "probability": p,
            "active_nodes": st.active_nodes,
            "metrics": m,
        }
        for st, p, m in zip(states, probs, metrics)
    ]
    data = {
        "columns": columns,
        "states": records,
        "populations": list(populations),
        "availability": availability,
        "saturation_load_pristine": lam_pristine,
        "saturation_load_weighted": lam_weighted,
        "expected_capacity": expected_capacity,
        "curve": curve,
        "ranking": ranking,
        **study.summary(),
    }

    state_rows = [
        [st.label, f"{p:.6f}", st.active_nodes, f"{m['saturation_load']:.4e}", m["binding_resource"]]
        for st, p, m in zip(states, probs, metrics)
    ]
    text = render_table(
        ["state", "π", "nodes", "λ*_s", "binding"],
        state_rows,
        title=(
            f"performability of {spec.name!r}: {len(states)} availability "
            f"state(s), {len(failures.modes)} failure mode(s)"
        ),
    )
    if ranking:
        ranking_rows = [
            [r["mode"], r["state"], f"{r['impact']:.6f}", f"{r['saturation_load']:.4e}"]
            for r in ranking
        ]
        text += "\n\n" + render_table(
            ["failure", "state", "capacity impact", "λ*_s"],
            ranking_rows,
            title="which failure hurts most (single-failure states, worst first)",
        )
    text += (
        f"\n\navailability (pristine state) = {availability:.6f}\n"
        f"λ* pristine                    = {lam_pristine:.4e}\n"
        f"λ*_A availability-weighted     = {lam_weighted:.4e}\n"
        f"expected capacity under churn  = {expected_capacity:.4e} messages/time-unit"
    )
    text += (
        f"\nevaluated {study.evaluated} of {len(states)} states "
        f"({study.cached} from cache, jobs={study.jobs})"
    )
    if resume:
        text += f"\nresumed {study.resumed} state(s) from the run journal"
    if errors:
        text += (
            f"\nPARTIAL: {len(errors)} distinct state(s) failed after retries"
        )
    return ExperimentResult(
        kind="performability",
        scenario=spec.name,
        spec={"scenario": spec.to_dict(), "failures": failures.to_dict()},
        data=data,
        text=text,
    )
