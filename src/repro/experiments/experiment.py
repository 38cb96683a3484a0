"""One facade over every workflow: ``Experiment(spec)``.

Each analysis entry point names its design once, by the handle it runs
on: model queries take the one-cell
:class:`~repro.core.stacked.StackedModel` they price
(``max_load_for_latency(stack, budget)``, ``model_bottlenecks(stack,
load)``) and validation takes the session it simulates
(``run_validation(session, grid, ...)``).  :class:`Experiment` consumes
one declarative :class:`~repro.scenarios.ScenarioSpec`, holds those two
handles and exposes each workflow as a method; all methods share one
cached :class:`~repro.core.batch.BatchedModel`, :attr:`Experiment.engine`,
whose ``stack`` is the one-cell stack every query prices (one
load-independent precompute per experiment), and return a uniform
:class:`ExperimentResult` that serialises through
:func:`repro.io.results.to_jsonable` with a stable schema.

The numeric outputs are *identical* to the direct calls — ``.sweep()`` is
``sweep_load`` on the spec's grid, ``.capacity()`` is
``max_load_for_latency``, ``.bottlenecks()`` is ``model_bottlenecks`` —
because each method delegates to those functions with the shared engine
or its stack (locked by ``tests/test_experiment.py``).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, replace

import numpy as np

from repro._util import reject_unknown_keys, require, require_positive
from repro.analysis.bottleneck import model_bottlenecks
from repro.analysis.capacity import max_load_for_latency
from repro.analysis.tables import render_series, render_table
from repro.analysis.whatif import curve_label, scale_network
from repro.core.batch import BatchedModel
from repro.core.stacked import StackedModel
from repro.core.sweep import sweep_load
from repro.io.results import to_jsonable
from repro.io.schemas import EXPERIMENT_SCHEMA
from repro.scenarios.registry import get_scenario, get_scenarios
from repro.scenarios.spec import ScenarioSpec

__all__ = ["Experiment", "ExperimentResult", "EXPERIMENT_SCHEMA"]


@dataclass(frozen=True)
class ExperimentResult:
    """Uniform return value of every :class:`Experiment` workflow.

    kind:
        which workflow produced it (``"sweep"``, ``"saturation"``, …).
    scenario:
        the spec's name.
    spec:
        the serialised input that reproduces the result: for single-
        scenario workflows the full :class:`~repro.scenarios.ScenarioSpec`;
        for the multi-spec kinds it is composite — ``sweep_many`` carries
        ``{"scenarios": [spec, ...]}`` and ``explore`` the serialised
        :class:`~repro.scenarios.DesignGrid` (schema ``repro.grid/1``) —
        so every saved result stays self-describing.
    data:
        workflow-specific payload.  Curve-shaped results put their
        equal-length columns under ``data["columns"]`` (that is what CSV
        export writes); scalar results use plain keys.
    text:
        the human-readable rendering the CLI prints.
    """

    kind: str
    scenario: str
    spec: dict
    data: dict
    text: str
    schema: str = EXPERIMENT_SCHEMA

    def to_dict(self) -> dict:
        """JSON-safe dict with the stable result schema."""
        return to_jsonable(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentResult":
        """Rebuild a saved result from a :meth:`to_dict` mapping.

        Unknown keys and foreign schemas are rejected.  Payload values
        come back JSON-native (``to_dict`` flattens numpy arrays to
        lists), so ``from_dict(r.to_dict()).to_dict() == r.to_dict()``
        holds for every result kind — the on-disk form is the fixed
        point, not the in-memory one.
        """
        reject_unknown_keys(
            data,
            ("kind", "scenario", "spec", "data", "text", "schema"),
            "experiment result",
            required=("kind", "scenario", "spec", "data"),
        )
        schema = data.get("schema", EXPERIMENT_SCHEMA)
        require(
            schema == EXPERIMENT_SCHEMA,
            f"unsupported experiment schema {schema!r} "
            f"(this build reads {EXPERIMENT_SCHEMA!r})",
        )
        return cls(
            kind=data["kind"],
            scenario=data["scenario"],
            spec=data["spec"],
            data=data["data"],
            text=data.get("text", ""),
            schema=schema,
        )

    def columns(self) -> dict:
        """The result's tabular columns (for CSV export).

        Raises ``ValueError`` for result kinds with no tabular view.
        """
        columns = self.data.get("columns")
        require(
            isinstance(columns, dict) and len(columns) > 0,
            f"result kind {self.kind!r} has no tabular columns to export as CSV",
        )
        return columns


class Experiment:
    """All of the library's workflows, driven by one scenario spec.

    Accepts a :class:`~repro.scenarios.ScenarioSpec` or a registered
    scenario name.  The engine, its load grid and the simulation session
    are built lazily and cached, so e.g. ``.sweep()`` followed by
    ``.bottlenecks()`` pays the load-independent precompute once.
    """

    def __init__(self, spec: "ScenarioSpec | str") -> None:
        if isinstance(spec, str):
            spec = get_scenario(spec)
        require(isinstance(spec, ScenarioSpec), "spec must be a ScenarioSpec or a scenario name")
        self.spec = spec
        # Serialise once, up front: every result embeds the spec, so an
        # unserialisable spec (unregistered pattern) must fail here — before
        # any workflow burns compute — not after the first sweep finishes.
        self._spec_dict = spec.to_dict()
        self._engine: BatchedModel | None = None
        self._grid: np.ndarray | None = None
        self._session = None

    # -- shared machinery ------------------------------------------------------

    @property
    def engine(self) -> BatchedModel:
        """The experiment's cached one-cell view (one precompute).

        Its ``stack`` is the one-cell :class:`StackedModel` the model
        queries and the load grid read.
        """
        if self._engine is None:
            s = self.spec
            self._engine = BatchedModel(s.system, s.message, s.options, s.pattern)
        return self._engine

    def load_grid(self) -> np.ndarray:
        """The spec's load grid, materialised once per experiment."""
        if self._grid is None:
            self._grid = self.spec.load_grid.grid(self.engine.stack)[0]
        return self._grid

    def session(self):
        """Cached :class:`~repro.simulation.runner.SimulationSession` of
        the spec's design, traffic pattern included."""
        if self._session is None:
            from repro.simulation.runner import SimulationSession

            s = self.spec
            self._session = SimulationSession(
                s.system, s.message, options=s.options, pattern=s.pattern
            )
        return self._session

    def _result(self, kind: str, data: dict, text: str) -> ExperimentResult:
        return ExperimentResult(
            kind=kind,
            scenario=self.spec.name,
            spec=self._spec_dict,
            data=data,
            text=text,
        )

    # -- workflows -------------------------------------------------------------

    def describe(self) -> ExperimentResult:
        """Structural summary of the scenario (the Table 1 view)."""
        s = self.spec
        system = s.system
        classes = [
            {
                "name": c.name,
                "count": c.count,
                "tree_depth": c.tree_depth,
                "nodes": c.nodes,
                "outgoing_probability": c.u,
            }
            for c in self.engine.cluster_classes
        ]
        rows = [
            [c["name"], c["count"], c["tree_depth"], c["nodes"], f"{c['outgoing_probability']:.4f}"]
            for c in classes
        ]
        head = (
            f"{s.name}: {system.name}, N={system.total_nodes}, C={system.num_clusters}, "
            f"m={system.switch_ports}, n_c={system.icn2_tree_depth}\n"
        )
        if s.pattern is not None:
            head += f"traffic pattern: {s.pattern!r}\n"
        text = head + render_table(["class", "count", "n_i", "N_i", "U_i (Eq.2)"], rows)
        data = {
            "system_name": system.name,
            "total_nodes": system.total_nodes,
            "num_clusters": system.num_clusters,
            "switch_ports": system.switch_ports,
            "icn2_tree_depth": system.icn2_tree_depth,
            "classes": classes,
        }
        return self._result("describe", data, text)

    def evaluate(self, load: float) -> ExperimentResult:
        """Model latency (with per-class breakdown) at one load."""
        result = self.engine.evaluate(load)
        if result.saturated:
            resources = sorted(set(result.saturated_resources))
            text = f"SATURATED at λ_g={load:g}: {', '.join(resources[:4])}"
        else:
            rows = [
                [c.name, c.intra.total, c.inter_network, c.concentrator_wait, c.mean]
                for c in result.clusters
            ]
            table = render_table(["class", "L_in", "L_ex", "W_d", "mean (Eq.1)"], rows)
            text = f"mean message latency (Eq.3): {result.latency:.3f}\n\n{table}"
        data = {
            "load": load,
            "latency": result.latency,
            "saturated": result.saturated,
            "saturated_resources": sorted(set(result.saturated_resources)),
            "clusters": [
                {
                    "name": c.name,
                    "intra": c.intra.total,
                    "inter_network": c.inter_network,
                    "concentrator_wait": c.concentrator_wait,
                    "mean": c.mean,
                }
                for c in result.clusters
            ],
        }
        return self._result("latency", data, text)

    def sweep(self, loads: "np.ndarray | list[float] | None" = None) -> ExperimentResult:
        """Model latency curve over the spec's load grid (or *loads*)."""
        s = self.spec
        grid = self.load_grid() if loads is None else np.asarray(loads, dtype=np.float64)
        result = sweep_load(self.engine, grid, with_results=False)
        loads_list = [float(v) for v in result.loads]
        latency_list = [float(v) for v in result.latencies]
        text = render_series(
            f"model latency, {s.system.name}, M={s.message.length_flits}, "
            f"d_m={s.message.flit_bytes:g}",
            "lambda_g",
            loads_list,
            {"latency": latency_list},
        )
        data = {
            "columns": {"load": loads_list, "latency": latency_list},
            "saturation_load": self.engine.saturation_load(),
        }
        return self._result("sweep", data, text)

    def saturation(self) -> ExperimentResult:
        """Saturation load λ*, binding resource and per-resource rates."""
        engine = self.engine
        # The map first: λ* is then read off it, so this runs one search.
        per_resource = dict(sorted(engine.saturation_loads().items(), key=lambda kv: kv[1]))
        lam_star = engine.saturation_load()
        binding = model_bottlenecks(engine.stack, 0.9 * lam_star).binding
        rows = [[name, f"{lam:.4e}"] for name, lam in list(per_resource.items())[:5]]
        table = render_table(
            ["resource", "λ* (ρ=1)"], rows, title="tightest per-resource saturation rates"
        )
        text = (
            f"saturation load λ* = {lam_star:.4e} messages/node/time-unit\n"
            f"binding resource   = {binding.resource} ({binding.kind}, "
            f"ρ={binding.utilization:.3f} at 0.9 λ*)\n\n{table}"
        )
        data = {
            "saturation_load": lam_star,
            "binding_resource": binding.resource,
            "per_resource": per_resource,
        }
        return self._result("saturation", data, text)

    def capacity(self, budget: float | None = None) -> ExperimentResult:
        """Max sustainable load under a latency *budget*.

        Defaults to the spec's ``latency_budget``; a spec with the ``inf``
        placeholder requires an explicit budget.
        """
        if budget is None:
            budget = self.spec.latency_budget
            require(
                np.isfinite(budget),
                f"scenario {self.spec.name!r} sets no latency_budget; pass one explicitly",
            )
        require_positive(budget, "budget")
        plan = max_load_for_latency(self.engine.stack, budget)
        status = "feasible" if plan.feasible else "INFEASIBLE"
        text = f"{status}: λ_max = {plan.achieved:.4e}\n{plan.detail}"
        data = {
            "target": plan.target,
            "achieved": plan.achieved,
            "feasible": plan.feasible,
            "detail": plan.detail,
            "columns": {
                "target": [plan.target],
                "achieved": [plan.achieved],
                "feasible": [plan.feasible],
            },
        }
        return self._result("capacity", data, text)

    def bottlenecks(self, load: float | None = None) -> ExperimentResult:
        """Ranked resource utilisations at *load* (default: 0.9 λ*)."""
        if load is None:
            load = 0.9 * self.engine.saturation_load()
        report = model_bottlenecks(self.engine.stack, load)
        rows = [[r.resource, r.kind, f"{r.utilization:.4f}"] for r in report.top(8)]
        table = render_table(
            ["resource", "kind", "ρ"], rows, title=f"utilisations at λ_g={load:.4e}"
        )
        text = (
            f"binding resource: {report.binding.resource} ({report.binding.kind}, "
            f"ρ={report.binding.utilization:.3f})\n\n{table}"
        )
        data = {
            "load": report.load,
            "saturation_load": report.saturation_load,
            "binding": {
                "resource": report.binding.resource,
                "kind": report.binding.kind,
                "utilization": report.binding.utilization,
            },
            "resources": [
                {"resource": r.resource, "kind": r.kind, "utilization": r.utilization}
                for r in report.resources
            ],
            "columns": {
                "resource": [r.resource for r in report.resources],
                "kind": [r.kind for r in report.resources],
                "utilization": [r.utilization for r in report.resources],
            },
        }
        return self._result("bottlenecks", data, text)

    def whatif(self, role: str = "icn2", factor: float = 1.2) -> ExperimentResult:
        """Latency curves of the base system vs one network role rescaled.

        Generalises the paper's Fig. 7 (+20 % ICN2) to any role/factor; both
        curves share the spec's load grid so they are directly comparable.
        """
        s = self.spec
        grid = self.load_grid()
        variant = StackedModel(
            [(scale_network(s.system, role, factor), s.message, s.options, s.pattern)]
        )
        curves = []
        series: dict[str, list[float]] = {}
        for label, stack in (
            (curve_label(s.system, "base"), self.engine.stack),
            (curve_label(s.system, f"{role} x{factor:g}"), variant),
        ):
            latencies = [float(v) for v in stack.evaluate_latencies(grid)[0]]
            curves.append(
                {
                    "label": label,
                    "loads": [float(v) for v in grid],
                    "latencies": latencies,
                    "saturation_load": float(stack.saturation_load()[0]),
                }
            )
            series[label] = latencies
        gain = curves[1]["saturation_load"] / curves[0]["saturation_load"]
        text = (
            render_series(
                f"what-if: {role} bandwidth x{factor:g} ({s.system.name})",
                "lambda_g",
                [float(v) for v in grid],
                series,
            )
            + f"\nsaturation gain: x{gain:.4f}"
        )
        data = {
            "role": role,
            "factor": factor,
            "curves": curves,
            "saturation_gain": gain,
            "columns": {
                "load": curves[0]["loads"],
                "base": curves[0]["latencies"],
                "variant": curves[1]["latencies"],
            },
        }
        return self._result("whatif", data, text)

    def knee(
        self,
        *,
        threshold_factor: float = 4.0,
        messages: int = 5_000,
        seed: int = 0,
        iterations: int = 7,
    ) -> ExperimentResult:
        """Empirical simulated knee relative to the model's λ*."""
        from repro.analysis.knee import estimate_sim_knee
        from repro.simulation.metrics import MeasurementWindow

        estimate = estimate_sim_knee(
            self.session(),
            threshold_factor=threshold_factor,
            window=MeasurementWindow.scaled_paper(messages),
            seed=seed,
            iterations=iterations,
        )
        text = (
            f"simulated knee ≈ {estimate.sim_knee:.4e} "
            f"({estimate.knee_fraction:.0%} of the model's λ* = {estimate.model_saturation:.4e}, "
            f"threshold {estimate.threshold_factor:g}x zero-load latency)"
        )
        data = {
            "sim_knee": estimate.sim_knee,
            "model_saturation": estimate.model_saturation,
            "knee_fraction": estimate.knee_fraction,
            "threshold_factor": estimate.threshold_factor,
            "probes": [list(p) for p in estimate.probes],
            "columns": {
                "sim_knee": [estimate.sim_knee],
                "model_saturation": [estimate.model_saturation],
                "knee_fraction": [estimate.knee_fraction],
                "threshold_factor": [estimate.threshold_factor],
            },
        }
        return self._result("knee", data, text)

    def simulate(
        self,
        load: float,
        *,
        messages: int = 10_000,
        seed: int = 0,
        granularity: str = "message",
        replicas: "int | None" = None,
        jobs: "int | str | None" = None,
        engine: str | None = None,
    ) -> ExperimentResult:
        """Discrete-event simulation at *load*.

        With *replicas* (≥ 2) the point is replicated under independent
        spawned seeds and summarised with a confidence interval; ``jobs``
        fans the replicas across a process pool (results are bit-identical
        for any worker count).  Without *replicas*, one run at *seed*.
        *engine* names the message-level event engine (bit-identical
        either way, see :mod:`repro.simulation.eventcore`); ``None`` runs
        the compiled array core.
        """
        from repro.simulation.metrics import MeasurementWindow

        if replicas is not None:
            return self._simulate_replicated(
                load, messages=messages, seed=seed, granularity=granularity,
                replicas=replicas, jobs=jobs, engine=engine,
            )
        result = self.session().run(
            load,
            seed=seed,
            window=MeasurementWindow.scaled_paper(messages),
            granularity=granularity,
            engine=engine,
        )
        util = ", ".join(f"{k}={v:.3f}" for k, v in sorted(result.network_utilization.items()))
        text = (
            f"simulated mean latency: {result.mean_latency:.3f} "
            f"(p95={result.stats.p95:.2f}, n={result.stats.count}, "
            f"intra={result.stats.mean_intra:.2f}, inter={result.stats.mean_inter:.2f})\n"
            f"events={result.events}, wall={result.wall_seconds:.2f}s, "
            f"completed={result.completed}\n"
            f"utilization: {util}"
        )
        data = {
            "load": load,
            "mean_latency": result.mean_latency,
            "p95": result.stats.p95,
            "measured_messages": result.stats.count,
            "events": result.events,
            "completed": result.completed,
            "network_utilization": dict(sorted(result.network_utilization.items())),
        }
        return self._result("simulate", data, text)

    def _simulate_replicated(
        self, load, *, messages, seed, granularity, replicas, jobs, engine
    ) -> ExperimentResult:
        from repro.simulation.metrics import MeasurementWindow
        from repro.simulation.replication import replicate

        rep = replicate(
            self.session(),
            load,
            replicas=replicas,
            base_seed=seed,
            window=MeasurementWindow.scaled_paper(messages),
            jobs=jobs,
            granularity=granularity,
            engine=engine,
        )
        text = (
            f"simulated mean latency: {rep.mean_latency:.3f} "
            f"± {rep.ci_half_width:.3f} ({rep.confidence:.0%} CI, "
            f"{replicas} replicas, base seed {seed})\n"
            f"events={rep.events}, elapsed={rep.elapsed_seconds:.2f}s "
            f"-> {rep.events_per_second:,.0f} events/s (jobs={rep.jobs})"
        )
        data = {
            "load": load,
            "mean_latency": rep.mean_latency,
            "ci_half_width": rep.ci_half_width,
            "confidence": rep.confidence,
            "replicas": replicas,
            "seeds": list(rep.seeds),
            "replica_means": [r.mean_latency for r in rep.replicas],
            "events": rep.events,
            "wall_seconds": rep.wall_seconds,
            "elapsed_seconds": rep.elapsed_seconds,
            "events_per_second": rep.events_per_second,
            "jobs": rep.jobs,
        }
        return self._result("simulate", data, text)

    def validate(
        self,
        *,
        points: int | None = None,
        messages: int = 10_000,
        seed: int = 0,
        granularity: str = "message",
        jobs: "int | str | None" = None,
        engine: str | None = None,
    ) -> ExperimentResult:
        """Model-vs-simulation comparison across the spec's load grid.

        ``jobs`` fans the per-point simulations across a process pool;
        the curve is bit-identical for any worker count — as it is for
        either message-level event *engine* (``"reference"``/``"array"``;
        ``None`` runs the compiled array core).
        """
        from repro.io.reporting import format_validation_curve
        from repro.simulation.metrics import MeasurementWindow
        from repro.simulation.parallel import resolve_jobs
        from repro.validation.compare import run_validation

        s = self.spec
        if points is None:
            grid = self.load_grid()
        else:
            grid = replace(s.load_grid, points=points).grid(self.engine.stack)[0]
        # Cap at the point count so the reported jobs matches the workers
        # that could actually run (run_work_items applies the same cap).
        n_jobs = min(resolve_jobs(jobs), len(grid))
        start = _time.perf_counter()
        curve = run_validation(
            self.session(),
            grid,
            seed=seed,
            window=MeasurementWindow.scaled_paper(messages),
            granularity=granularity,
            jobs=n_jobs,
            engine=engine,
        )
        elapsed = _time.perf_counter() - start
        events_per_second = curve.sim_events / elapsed if elapsed > 0 else float("nan")
        text = format_validation_curve(curve) + (
            f"\nsim events={curve.sim_events}, elapsed={elapsed:.2f}s "
            f"-> {events_per_second:,.0f} events/s (jobs={n_jobs})"
        )
        data = {
            "columns": {
                "load": [p.load for p in curve.points],
                "model": [p.model_latency for p in curve.points],
                "simulation": [p.sim_latency for p in curve.points],
                "rel_error": [p.relative_error for p in curve.points],
            },
            "max_abs_error": curve.max_abs_error(),
            "sim_events": curve.sim_events,
            "sim_wall_seconds": curve.sim_wall_seconds,
            "elapsed_seconds": elapsed,
            "events_per_second": events_per_second,
            "jobs": n_jobs,
        }
        return self._result("validate", data, text)

    def explore(
        self,
        axes,
        *,
        jobs: "int | str | None" = None,
        cache=None,
        frontier: bool = False,
        knee_threshold_factor: float = 4.0,
        policy=None,
        resume: bool = False,
    ) -> ExperimentResult:
        """Design-space exploration around this experiment's spec.

        *axes* is a sequence of :class:`~repro.scenarios.AxisSpec` or
        ``(dotted_path, values)`` pairs; the Cartesian product of derived
        variants is evaluated through the batched closed forms (see
        :func:`repro.experiments.explore_grid`, which this wraps with
        ``self.spec`` as the grid base; ``policy``/``resume`` pass
        through to the supervised runtime).
        """
        from repro.experiments.explore import explore_grid
        from repro.scenarios.grid import DesignGrid, as_axis

        grid = DesignGrid(base=self.spec, axes=tuple(as_axis(a) for a in axes))
        return explore_grid(
            grid,
            jobs=jobs,
            cache=cache,
            frontier=frontier,
            knee_threshold_factor=knee_threshold_factor,
            policy=policy,
            resume=resume,
        )

    def performability(
        self,
        failures,
        *,
        jobs: "int | str | None" = None,
        cache=None,
        policy=None,
        resume: bool = False,
    ) -> ExperimentResult:
        """Availability-weighted performance of this scenario under churn.

        *failures* is a :class:`~repro.performability.FailureScenario` (or
        its serialised dict / a JSON config path).  The failure scenario's
        availability CTMC is solved, every degraded system is priced by
        the batched closed forms, and the result carries λ*_A, expected
        capacity, the weighted latency curve and the failure ranking; see
        :func:`repro.performability.performability_analysis`, which this
        wraps with ``self.spec`` (``jobs``/``cache``/``policy``/``resume``
        pass through).
        """
        from repro.performability import FailureScenario, performability_analysis

        if isinstance(failures, dict):
            failures = FailureScenario.from_dict(failures)
        elif isinstance(failures, str):
            failures = FailureScenario.load(failures)
        return performability_analysis(
            self.spec, failures, jobs=jobs, cache=cache, policy=policy, resume=resume
        )

    def calibrate(
        self,
        *,
        axes=None,
        fixed: "dict | None" = None,
        **kwargs,
    ) -> ExperimentResult:
        """Calibrate the ``ModelOptions`` readings against the simulators.

        Enumerates the (optionally restricted) option space and scores
        every combination against this scenario's simulated ground truth;
        see :func:`repro.experiments.calibrate.calibrate_options`, which
        this wraps with ``[self.spec]`` — all its protocol knobs
        (``fractions``, ``metric``, ``messages``, ``seed``,
        ``seed_stride``, ``granularity``, ``jobs``, ``cache``) pass
        through.
        """
        from repro.experiments.calibrate import calibrate_options

        return calibrate_options([self.spec], axes=axes, fixed=fixed, **kwargs)

    @classmethod
    def sweep_many(cls, scenarios, *, points: int | None = None) -> ExperimentResult:
        """Model sweep across many scenarios, priced as stacked cell sets.

        *scenarios* is an iterable of registered names and/or
        :class:`~repro.scenarios.ScenarioSpec` instances; *points*
        overrides every scenario's grid size.  Scenarios sharing a
        load-grid policy are priced as one
        :class:`~repro.core.stacked.StackedModel` (one stack per distinct
        policy), so each row is bit-identical to ``Experiment(spec).sweep()``
        by the engine's lane independence.  The result is one uniform
        long-format table (``scenario``/``load``/``latency`` columns plus a
        per-scenario summary, in input order) with a stable schema.
        """
        specs = get_scenarios(scenarios, "sweep_many")
        names = [spec.name for spec in specs]
        spec_dicts = [spec.to_dict() for spec in specs]
        policies = [
            spec.load_grid if points is None else replace(spec.load_grid, points=points)
            for spec in specs
        ]
        rows: list[dict] = [{} for _ in specs]
        for policy in dict.fromkeys(policies):
            members = [idx for idx, p in enumerate(policies) if p == policy]
            stack = StackedModel.from_specs([specs[idx] for idx in members])
            grids = policy.grid(stack)
            latencies = stack.evaluate_latencies(grids)
            lam_star = stack.saturation_load()
            for row, idx in enumerate(members):
                rows[idx] = {
                    "scenario": names[idx],
                    "total_nodes": specs[idx].system.total_nodes,
                    "loads": [float(v) for v in grids[row]],
                    "latencies": [float(v) for v in latencies[row]],
                    "saturation_load": float(lam_star[row]),
                }
        scenario_col: list[str] = []
        load_col: list[float] = []
        latency_col: list[float] = []
        for row in rows:
            scenario_col.extend([row["scenario"]] * len(row["loads"]))
            load_col.extend(row["loads"])
            latency_col.extend(row["latencies"])
        table = render_table(
            ["scenario", "N", "points", "λ*", "latency @ grid top"],
            [
                [
                    row["scenario"],
                    row["total_nodes"],
                    len(row["loads"]),
                    f"{row['saturation_load']:.4e}",
                    f"{row['latencies'][-1]:.3f}",
                ]
                for row in rows
            ],
            title=f"model sweep across {len(rows)} scenarios",
        )
        data = {
            "scenarios": rows,
            "columns": {
                "scenario": scenario_col,
                "load": load_col,
                "latency": latency_col,
            },
        }
        return ExperimentResult(
            kind="sweep_many",
            scenario=",".join(names),
            spec={"scenarios": spec_dicts},
            data=data,
            text=table,
        )
