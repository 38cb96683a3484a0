"""Accuracy calibration: search the ``ModelOptions`` ablation space.

The paper's ambiguous equations admit six switchable readings
(:class:`~repro.core.parameters.ModelOptions`), and the hand-written
ablation benches probe them one knob at a time.  This module asks the full
question: **which combination of readings tracks the simulators best**, per
scenario and globally?

:func:`calibrate_options` enumerates the Cartesian option space (the full
2·3·2·2·2·2 = 96 combinations, or a subset restricted through the same
``(path, values)`` axis syntax as :class:`~repro.scenarios.DesignGrid` plus
pinned knobs), scores every combination against the discrete-event
simulators across one or many registry scenarios, and ranks them with the
shared accuracy metrics (:mod:`repro.analysis.accuracy`).

Methodology — identical to the ablation benches, generalised:

* each scenario's **reference** model (its spec's own options) fixes the
  operating points: ``λ_i = f_i · λ*_ref`` for the configured load
  fractions, so every combination is scored at the *same* loads;
* the **simulator is the ground truth** and runs once per scenario under
  the reference options — it consumes only ``tcn_convention`` of the six
  knobs (via the fabric's channel times), and calibration measures how the
  model readings track a fixed physical system, so candidate combinations
  never re-simulate;
* per-point errors are ``(model − sim) / sim`` exactly as
  :func:`repro.validation.compare.run_validation` computes them, and the
  per-curve scores are :func:`~repro.analysis.accuracy.max_abs_error`,
  :func:`~repro.analysis.accuracy.light_load_error` and the load-weighted
  :func:`~repro.analysis.accuracy.rms_weighted`.

Cost model: the simulator curves dominate, so they are memoised in the
content-addressed on-disk cache (:mod:`repro.io.cache`) keyed by the
scenario's numeric spec content, the (loads, seeds, window, granularity)
protocol and :data:`repro.simulation.runner.TRAJECTORY_VERSION` — a full
96-way calibration costs roughly one validation run, and a repeated run
simulates nothing; the cache, run journal and ``resume`` checks are the
study executor's (:class:`repro.exec.study.Study`).  ``--jobs`` fans out
only the simulation points, through the supervised runtime
(:func:`repro.exec.run_supervised`); the model side — every combination
× scenario curve — is priced in one cross-cell
:class:`repro.core.stacked.StackedModel` evaluation, bit-identical to the
scalar :class:`~repro.core.model.AnalyticalModel`.  The result tables are
bit-identical for any worker count.

Results land in the stable ``repro.calibration/1`` schema: the
per-combination error table, each scenario's winner, the global winner and
a per-knob marginal-impact ranking à la
:func:`repro.analysis.frontier.axis_sensitivity`.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from repro._util import require, require_int
from repro.analysis.accuracy import ACCURACY_METRICS, relative_errors, score_errors
from repro.analysis.frontier import axis_sensitivity
from repro.analysis.tables import render_table
from repro.core.batch import BatchedModel
from repro.core.parameters import ModelOptions
from repro.core.stacked import StackedModel
from repro.exec import RunPolicy, run_supervised
from repro.exec.study import Study
from repro.experiments.experiment import ExperimentResult
from repro.io.cache import ResultCache, canonical_numbers, content_key
from repro.io.schemas import CALIBRATION_SCHEMA, SIM_CURVE_SCHEMA
from repro.scenarios.grid import as_axis, format_axis_value
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "CALIBRATION_SCHEMA",
    "SIM_CURVE_SCHEMA",
    "calibrate_options",
    "option_combinations",
    "sim_curve_key",
]

#: Default load fractions of the reference saturation load — light through
#: heavy, matching the hand-written ablation benches' operating points.
DEFAULT_FRACTIONS = (0.2, 0.4, 0.6, 0.8)


# ---------------------------------------------------------------------------
# option-space enumeration
# ---------------------------------------------------------------------------


def _knob_name(name: str) -> str:
    """Normalise a knob path: ``options.tcn_convention`` → ``tcn_convention``."""
    require(isinstance(name, str) and name != "", "option knob must be a non-empty string")
    if name.startswith("options."):
        name = name[len("options.") :]
    domains = ModelOptions.option_values()
    require(
        name in domains,
        f"unknown model option {name!r}; valid: {', '.join(domains)}",
    )
    return name


def _check_domain(knob: str, values, domains: dict) -> tuple:
    values = tuple(values)
    require(len(values) >= 1, f"option axis {knob!r} needs at least one value")
    for value in values:
        require(
            value in domains[knob],
            f"option {knob!r} cannot take {value!r}; valid: {domains[knob]}",
        )
    require(
        len(set(values)) == len(values),
        f"option axis {knob!r} has duplicate values {list(values)}",
    )
    return values


def option_combinations(*, axes=None, fixed: "dict | None" = None):
    """Enumerate the (restricted) ``ModelOptions`` Cartesian space.

    ``axes``
        optional sequence of :class:`~repro.scenarios.AxisSpec` or
        ``(knob, values)`` pairs (the :class:`~repro.scenarios.DesignGrid`
        axis syntax; a leading ``options.`` on the knob is accepted)
        naming the knobs to vary and their candidate values.  ``None``
        varies every knob not pinned by *fixed* over its full domain.
    ``fixed``
        mapping of knob → single pinned value.  With explicit *axes*, any
        knob mentioned in neither defaults to its
        :class:`~repro.core.parameters.ModelOptions` default.

    Returns ``(varied, combos)``: the varied ``(knob, values)`` pairs in
    enumeration order and the combination list — a row-major Cartesian
    product (the last varied knob changes fastest), each entry a
    ``(name, ModelOptions)`` pair where the name joins the *varied* knob
    assignments ``knob=value`` with ``/``.
    """
    domains = ModelOptions.option_values()
    pinned: dict = {}
    for knob, value in (fixed or {}).items():
        knob = _knob_name(knob)
        require(knob not in pinned, f"option {knob!r} pinned twice")
        pinned[knob] = _check_domain(knob, (value,), domains)[0]
    if axes is None:
        varied = [(knob, domains[knob]) for knob in domains if knob not in pinned]
    else:
        varied = []
        for axis in axes:
            axis = as_axis(axis)
            knob = _knob_name(axis.path)
            require(
                knob not in pinned,
                f"option {knob!r} appears in both axes and fixed",
            )
            require(
                knob not in dict(varied),
                f"duplicate option axis {knob!r}",
            )
            varied.append((knob, _check_domain(knob, axis.values, domains)))
    require(
        len(varied) >= 1,
        "calibration needs at least one varying knob (all six are pinned)",
    )
    base = {name: getattr(ModelOptions(), name) for name in domains}
    base.update(pinned)
    combos = []
    for values in itertools.product(*(vals for _, vals in varied)):
        assignment = dict(base)
        assignment.update({knob: value for (knob, _), value in zip(varied, values)})
        name = "/".join(
            f"{knob}={format_axis_value(value)}" for (knob, _), value in zip(varied, values)
        )
        combos.append((name, ModelOptions(**assignment)))
    return varied, combos


# ---------------------------------------------------------------------------
# simulator ground truth (cached)
# ---------------------------------------------------------------------------


def sim_curve_key(spec: ScenarioSpec, loads, seeds, window, granularity: str) -> str:
    """Content key of one scenario's simulator curve in the on-disk cache.

    Hashes everything the simulated trajectories depend on and nothing
    they don't: the serialised spec minus its derived ``name``/
    ``description`` and minus the model-only ``load_grid``/
    ``latency_budget`` sections, the exact loads and per-point seeds, the
    measurement window, the engine granularity and
    :data:`repro.simulation.runner.TRAJECTORY_VERSION`.  The spec's full
    ``options`` block is included even though only ``tcn_convention``
    reaches the fabric — deliberate over-keying that can only cost extra
    simulations, never return a wrong curve.
    """
    payload = spec.to_dict()
    payload.pop("name", None)
    payload.pop("description", None)
    payload.pop("load_grid", None)
    payload.pop("latency_budget", None)
    from repro.simulation.runner import TRAJECTORY_VERSION

    return content_key(
        {
            "schema": SIM_CURVE_SCHEMA,
            "trajectory_version": TRAJECTORY_VERSION,
            "spec": canonical_numbers(payload),
            "granularity": granularity,
            "window": {
                "warmup": window.warmup,
                "measured": window.measured,
                "drain": window.drain,
            },
            "loads": [float(lam) for lam in loads],
            "seeds": [int(s) for s in seeds],
        }
    )


def _valid_curve_entry(entry, n_points: int) -> bool:
    """A cache hit must carry the full curve; anything else is a miss."""
    return (
        isinstance(entry, dict)
        and entry.get("schema") == SIM_CURVE_SCHEMA
        and all(
            isinstance(entry.get(field), list) and len(entry[field]) == n_points
            for field in ("latencies", "stds", "completed", "events")
        )
    )


# ---------------------------------------------------------------------------
# ranking helpers
# ---------------------------------------------------------------------------


def _rank_key(record: dict):
    """Deterministic ranking: score ascending, NaN last, ties by index."""
    score = record["score"]
    return (score if score == score else float("inf"), record["index"])


def _aggregate(values: list) -> float:
    """Cross-scenario aggregate of one metric: the plain mean (inf sticks)."""
    return float(sum(values) / len(values))


# ---------------------------------------------------------------------------
# the calibration engine
# ---------------------------------------------------------------------------


def calibrate_options(
    scenarios,
    *,
    axes=None,
    fixed: "dict | None" = None,
    fractions=DEFAULT_FRACTIONS,
    metric: str = "rms_weighted",
    messages: int = 10_000,
    seed: int = 0,
    seed_stride: int = 1,
    granularity: str = "message",
    jobs: "int | str | None" = None,
    cache: "ResultCache | str | None" = None,
    policy: "RunPolicy | None" = None,
    resume: bool = False,
) -> ExperimentResult:
    """Score every option combination against the simulators; rank them.

    *scenarios* is an iterable of registered names and/or
    :class:`~repro.scenarios.ScenarioSpec` instances; *axes*/*fixed*
    restrict the combination space (see :func:`option_combinations`).

    Protocol knobs: *fractions* are the scored loads as fractions of each
    scenario's reference λ* (strictly increasing, each in ``(0, 1)``);
    point ``i`` simulates under seed ``seed + seed_stride·i`` —
    ``seed_stride=1`` matches :func:`~repro.validation.compare
    .run_validation`'s per-point seeds, ``seed_stride=0`` the ablation
    benches' single shared seed.  *messages* sets the measured-message
    budget per point (the paper's window protocol, scaled); *granularity*
    picks the message-level or the flit-accurate engine.

    ``jobs`` fans the simulation points across the shared process pool;
    the model curves of every combination are priced in one stacked
    evaluation, and tables are bit-identical for any worker count.
    ``cache`` (a directory path or :class:`~repro.io.cache.ResultCache`)
    memoises simulator curves on disk, so option combinations re-score
    against cached ground truth and a repeated calibration simulates
    nothing.

    Resilience: the simulation fan-out runs under the supervised runtime
    with retries per *policy*.  A scenario whose simulator curve still fails
    is excluded from scoring (the result is then *partial*: its errors
    land in ``data["errors"]``) rather than aborting the calibration.
    With a cache, completed curves are journaled as they land;
    ``resume=True`` requires that journal and replays its curves from the
    cache, simulating only the remainder.
    """
    from repro.simulation.metrics import MeasurementWindow
    from repro.simulation.parallel import SimWorkItem, resolve_jobs, run_work_item

    specs = [get_scenario(s) if isinstance(s, str) else s for s in scenarios]
    require(len(specs) > 0, "calibrate needs at least one scenario")
    for spec in specs:
        require(isinstance(spec, ScenarioSpec), "scenarios must be names or ScenarioSpec")
    names = [spec.name for spec in specs]
    require(len(set(names)) == len(names), f"duplicate scenario names: {names}")
    spec_dicts = [spec.to_dict() for spec in specs]  # fail fast if unserialisable

    fractions = tuple(float(f) for f in fractions)
    require(len(fractions) >= 1, "fractions must not be empty")
    for f in fractions:
        require(0.0 < f < 1.0, f"load fractions must be in (0, 1), got {f!r}")
    require(
        all(a < b for a, b in zip(fractions, fractions[1:])),
        f"load fractions must be strictly increasing, got {list(fractions)}",
    )
    require(metric in ACCURACY_METRICS, f"metric must be one of {ACCURACY_METRICS}, got {metric!r}")
    require_int(messages, "messages", minimum=1)
    require_int(seed, "seed", minimum=0)
    require_int(seed_stride, "seed_stride", minimum=0)
    require(granularity in ("message", "flit"), f"granularity must be 'message' or 'flit', got {granularity!r}")

    varied, combos = option_combinations(axes=axes, fixed=fixed)
    window = MeasurementWindow.scaled_paper(messages)
    seeds = [seed + seed_stride * i for i in range(len(fractions))]

    # -- ground truth: one (cached) simulator curve per scenario ------------
    loads_by_scenario = []
    for spec in specs:
        lam_ref = BatchedModel(spec.system, spec.message, spec.options, spec.pattern).saturation_load()
        require(
            math.isfinite(lam_ref) and lam_ref > 0,
            f"scenario {spec.name!r} has no finite reference saturation load",
        )
        loads_by_scenario.append([f * lam_ref for f in fractions])

    keys = [
        sim_curve_key(spec, loads, seeds, window, granularity)
        for spec, loads in zip(specs, loads_by_scenario)
    ]
    study = Study("calibrate", keys, cache=cache, resume=resume, label="scenario", labels=names)
    curves = study.replay(lambda entry: _valid_curve_entry(entry, len(fractions)))
    from_cache = [curve is not None for curve in curves]
    pending = [idx for idx, c in enumerate(curves) if c is None]
    items = []
    slot_map = []  # fan-out slot -> (scenario index, point index)
    for idx in pending:
        for i, lam in enumerate(loads_by_scenario[idx]):
            items.append(
                SimWorkItem(
                    system=specs[idx].system,
                    message=specs[idx].message,
                    options=specs[idx].options,
                    generation_rate=float(lam),
                    seed=seeds[i],
                    window=window,
                    granularity=granularity,
                    pattern=specs[idx].pattern,
                )
            )
            slot_map.append((idx, i))
    n_jobs = resolve_jobs(jobs)

    point_results: dict = {idx: [None] * len(fractions) for idx in pending}
    remaining = {idx: len(fractions) for idx in pending}
    failed_scenarios: set = set()

    def _persist_curve(slot, outcome):
        # Runs in the supervising process as each point finalises; a
        # scenario's curve is cached+journaled the moment its last point
        # lands, so a killed calibration resumes at curve granularity.
        si, pi = slot_map[slot]
        if not outcome.ok:
            failed_scenarios.add(si)
            return
        point_results[si][pi] = outcome.value
        remaining[si] -= 1
        if remaining[si] or si in failed_scenarios:
            return
        curves[si] = {
            "schema": SIM_CURVE_SCHEMA,
            "scenario": specs[si].name,
            "loads": [float(lam) for lam in loads_by_scenario[si]],
            "seeds": list(seeds),
            "latencies": [float(r.mean_latency) for r in point_results[si]],
            "stds": [float(r.stats.std) for r in point_results[si]],
            "completed": [bool(r.completed) for r in point_results[si]],
            "events": [int(r.events) for r in point_results[si]],
        }
        study.persist(si, slot, curves[si])

    outcomes = run_supervised(
        run_work_item, items, jobs=n_jobs, policy=policy, on_result=_persist_curve
    )
    run_errors = []
    for slot, outcome in enumerate(outcomes):
        if outcome.ok:
            continue
        si, pi = slot_map[slot]
        failed_scenarios.add(si)
        run_errors.append(
            {
                "scenario": specs[si].name,
                "load_index": pi,
                **outcome.error_record(),
            }
        )

    # A scenario without ground truth cannot be scored: drop it from the
    # calibration (partial result) instead of aborting everything.
    ok_idx = [si for si in range(len(specs)) if curves[si] is not None]
    require(
        len(ok_idx) >= 1,
        "calibration failed: no scenario produced a simulator curve",
    )
    failed_names = [specs[si].name for si in range(len(specs)) if si not in ok_idx]
    if failed_names:
        specs = [specs[si] for si in ok_idx]
        spec_dicts = [spec_dicts[si] for si in ok_idx]
        loads_by_scenario = [loads_by_scenario[si] for si in ok_idx]
        curves = [curves[si] for si in ok_idx]
        from_cache = [from_cache[si] for si in ok_idx]
        names = [spec.name for spec in specs]

    # -- score every combination against the cached ground truth ------------
    # The whole model side — every combination × scenario curve,
    # combination-major — is priced in one cross-cell evaluation.
    model_curves = StackedModel(
        [
            (spec.system, spec.message, options, spec.pattern)
            for _, options in combos
            for spec in specs
        ]
    ).evaluate_latencies(
        np.array([loads for _ in combos for loads in loads_by_scenario], dtype=np.float64)
    ).tolist()

    records = []
    for ci, (combo_name, options) in enumerate(combos):
        per_scenario = {}
        metric_values = {m: [] for m in ACCURACY_METRICS}
        for si, spec in enumerate(specs):
            model_lat = model_curves[ci * len(specs) + si]
            loads = np.asarray(loads_by_scenario[si], dtype=np.float64)
            errors = relative_errors(model_lat, curves[si]["latencies"])
            scores = score_errors(loads, errors)
            per_scenario[spec.name] = {
                "model": [float(v) for v in model_lat],
                "errors": [float(e) for e in errors],
                **scores,
            }
            for m in ACCURACY_METRICS:
                metric_values[m].append(scores[m])
        aggregate = {m: _aggregate(metric_values[m]) for m in ACCURACY_METRICS}
        records.append(
            {
                "index": ci,
                "name": combo_name,
                "options": options.to_dict(),
                "per_scenario": per_scenario,
                "aggregate": aggregate,
                "score": aggregate[metric],
            }
        )

    ranking = [r["index"] for r in sorted(records, key=_rank_key)]
    winner = records[ranking[0]]
    per_scenario_winners = {}
    for si, spec in enumerate(specs):
        best = min(
            records,
            key=lambda r: (
                v if (v := r["per_scenario"][spec.name][metric]) == v else float("inf"),
                r["index"],
            ),
        )
        per_scenario_winners[spec.name] = {
            "name": best["name"],
            "index": best["index"],
            metric: best["per_scenario"][spec.name][metric],
        }

    # -- per-knob marginal impact (one-factor-at-a-time, à la explore) ------
    finite_cells = [
        {
            "coords": {knob: r["options"][knob] for knob, _ in varied},
            "metrics": {"score": r["score"]},
        }
        for r in records
        if math.isfinite(r["score"])
    ]
    sensitivity = axis_sensitivity(finite_cells, metric="score") if finite_cells else ()
    n_dropped = len(records) - len(finite_cells)

    # -- assemble the uniform result ----------------------------------------
    columns: dict[str, list] = {"combination": [r["name"] for r in records]}
    for knob, _ in varied:
        columns[knob] = [r["options"][knob] for r in records]
    for spec in specs:
        columns[f"{metric}:{spec.name}"] = [
            r["per_scenario"][spec.name][metric] for r in records
        ]
    columns["score"] = [r["score"] for r in records]

    data = {
        "metric": metric,
        "fractions": list(fractions),
        "messages": messages,
        "granularity": granularity,
        "seed": seed,
        "seed_stride": seed_stride,
        "varied": [{"knob": knob, "values": list(values)} for knob, values in varied],
        "scenarios": [
            {
                "name": spec.name,
                "loads": [float(lam) for lam in loads_by_scenario[si]],
                "seeds": list(seeds),
                "sim_latencies": list(curves[si]["latencies"]),
                "sim_stds": list(curves[si]["stds"]),
                "sim_completed": list(curves[si]["completed"]),
                "from_cache": from_cache[si],
            }
            for si, spec in enumerate(specs)
        ],
        "combinations": records,
        "ranking": ranking,
        "winner": {
            "name": winner["name"],
            "index": winner["index"],
            "options": winner["options"],
            "score": winner["score"],
        },
        "per_scenario_winners": per_scenario_winners,
        "sensitivity": [
            {"knob": s.path, "spread": s.spread, "groups": s.groups} for s in sensitivity
        ],
        "sensitivity_dropped": n_dropped,
        "columns": columns,
        "simulated_points": len(items),
        "cached_curves": sum(from_cache),
        "resumed": study.resumed,
        "jobs": n_jobs,
        "cache_root": study.cache_root,
        "errors": run_errors,
        "partial": bool(run_errors),
    }

    text = _render(specs, varied, records, ranking, per_scenario_winners, sensitivity, data)
    if resume:
        text += f"\nresumed {study.resumed} curve(s) from the run journal"
    if failed_names:
        text += (
            f"\nPARTIAL: {len(failed_names)} scenario(s) failed after retries "
            f"and are excluded from scoring: {', '.join(failed_names)}"
        )
    return ExperimentResult(
        kind="calibrate",
        scenario=",".join(names),
        spec={
            "scenarios": spec_dicts,
            "axes": [{"knob": knob, "values": list(values)} for knob, values in varied],
            "fixed": {k: v for k, v in (fixed or {}).items()},
        },
        data=data,
        text=text,
        schema=CALIBRATION_SCHEMA,
    )


def _fmt_score(value: float) -> str:
    return f"{value:.6f}" if math.isfinite(value) else str(value)


def _render(specs, varied, records, ranking, per_scenario_winners, sensitivity, data) -> str:
    """Human-readable calibration report (the CLI's stdout)."""
    metric = data["metric"]
    top = [records[i] for i in ranking[:10]]
    rows = [
        [rank + 1, r["name"]]
        + [_fmt_score(r["per_scenario"][spec.name][metric]) for spec in specs]
        + [_fmt_score(r["score"])]
        for rank, r in enumerate(top)
    ]
    shown = "" if len(top) == len(records) else f", top {len(top)} shown"
    text = render_table(
        ["rank", "combination"] + [f"{metric}:{spec.name}" for spec in specs] + ["score"],
        rows,
        title=(
            f"calibration of {len(records)} option combinations over "
            f"{len(specs)} scenario(s), metric={metric} "
            f"(loads at {', '.join(f'{f:g}' for f in data['fractions'])} of reference λ*"
            f"{shown})"
        ),
    )
    winner = data["winner"]
    text += f"\n\nglobal winner: {winner['name']} (score {_fmt_score(winner['score'])})"
    default_options = ModelOptions().to_dict()
    if winner["options"] == default_options:
        text += "\n  = the paper-default reading"
    else:
        flips = {
            k: v for k, v in winner["options"].items() if v != default_options[k]
        }
        text += "\n  differs from the paper-default reading on: " + ", ".join(
            f"{k}={format_axis_value(v)}" for k, v in flips.items()
        )
    if len(specs) > 1:
        text += "\nper-scenario winners:"
        for spec in specs:
            w = per_scenario_winners[spec.name]
            text += f"\n  {spec.name}: {w['name']} ({metric} {_fmt_score(w[metric])})"
    if sensitivity:
        sens_rows = [[s.path, f"{s.spread:.4f}", s.groups] for s in sensitivity]
        text += "\n\n" + render_table(
            ["knob", f"relative spread of {metric}", "groups"],
            sens_rows,
            title="per-knob marginal impact (most influential first)",
        )
        if data["sensitivity_dropped"]:
            text += (
                f"\n({data['sensitivity_dropped']} combination(s) saturate inside the "
                "scoring grid and are excluded from the impact ranking)"
            )
    text += (
        f"\nsimulated {data['simulated_points']} point(s) "
        f"({data['cached_curves']} of {len(specs)} curves from cache, jobs={data['jobs']})"
    )
    return text
