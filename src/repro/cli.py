"""Command-line interface: ``python -m repro <command>``.

Every workflow subcommand is driven by a declarative scenario
(:class:`repro.scenarios.ScenarioSpec`) resolved from, in order of
precedence:

``--config <file.json>``
    a spec file written by ``export-config`` (``-`` reads stdin),
``--scenario <name>``
    a registered scenario (``python -m repro scenarios`` lists them),
``--system <name>``
    kept as an alias of ``--scenario`` (the historical ``1120``/``544``
    flags still work).

On top of the resolved scenario, ``--flits``/``--flit-bytes`` override the
message geometry, ``--option KEY=VALUE`` flips
:class:`~repro.core.parameters.ModelOptions` readings, and
``--pattern NAME[:k=v,...]`` swaps the traffic pattern (``--pattern none``
restores uniform traffic).

Subcommands mirror the :class:`repro.experiments.Experiment` facade:

``describe``      structural summary of the scenario (Table 1 view).
``latency``       evaluate the analytical model at one load (with breakdown).
``saturation``    saturation load λ* and the binding resource.
``sweep``         model latency curve up to the knee (a paper-figure column);
                  ``--scenario A,B,...`` or ``--all`` sweeps many scenarios at
                  once (optionally fanned out with ``--jobs``).
``simulate``      run the discrete-event simulator at one load; ``--replicas``
                  adds a confidence interval over independent spawned seeds.
``validate``      model-vs-simulation comparison across a load grid.
``capacity``      max sustainable load under a latency budget.
``bottlenecks``   ranked per-resource utilisations at one load (default 0.9 λ*).
``knee``          empirical simulated knee relative to the model's λ*.
``whatif``        base-vs-rescaled-network latency curves (Fig. 7 family).
``explore``       design-space exploration: expand N parameter axes over the
                  scenario (``--axis path=v1,v2,...`` or a ``--grid`` JSON
                  file) and evaluate every cell through the closed forms;
                  ``--frontier`` adds Pareto/sensitivity views, ``--cache``
                  memoises cells on disk (see ``docs/design_space.md``).
``calibrate``     search the ModelOptions ablation space against the
                  simulators: rank every combination of equation readings
                  by accuracy (``--fix``/``--vary`` restrict the space,
                  ``--cache`` memoises the simulated ground truth; see
                  ``docs/calibration.md``).
``performability``availability-weighted capacity under a failure/repair
                  scenario (``--failures file.json``): CTMC state
                  probabilities × degraded-system closed forms give λ*_A,
                  expected capacity and a failure ranking (``--cache``
                  memoises per-state evaluations; see
                  ``docs/performability.md``).
``report``        regenerate the paper's full evaluation section.
``scenarios``     list registered scenarios, or show one as JSON.
``export-config`` print/save the resolved scenario as a JSON config file.

Every result-producing subcommand — ``sweep``, ``validate``,
``capacity``, ``bottlenecks``, ``knee``, ``whatif``, ``explore``,
``calibrate`` and ``performability`` — accepts ``--out <path>`` to
persist the result as JSON or CSV (by extension) via
:mod:`repro.io.results`; the extension is validated before any compute
runs.  ``simulate``, ``validate``, ``calibrate`` and ``report`` accept
``--jobs N`` to fan their simulations across a process pool
(``--jobs 0`` = one worker per CPU); ``explore``/``performability``
``--jobs`` runs each model cell/state as its own supervised item instead
of one in-process stacked pass.  Results are bit-identical for any
worker count (see ``docs/parallel_validation.md``).

The three study commands — ``explore``, ``calibrate`` and
``performability`` — run under the supervised execution runtime
(:mod:`repro.exec`) and additionally accept ``--retries``/``--timeout``
(per-item retry and timeout policy), ``--resume`` (replay a killed run
from its cache journal; requires ``--cache``) and ``--faults`` (arm a
deterministic fault-injection plan, for testing the runtime itself; an
armed plan runs every item under supervision).
Exit codes: ``0`` success, ``2`` configuration error, ``3`` partial
results (items failed after retries; the result carries an ``errors``
section), ``130`` interrupted.  See ``docs/resilience.md``.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from repro._util import require
from repro.analysis import render_table
from repro.core import MessageSpec, ModelOptions
from repro.exec import FAULTS_ENV, FaultPlan, RunPolicy
from repro.experiments import Experiment, ExperimentResult
from repro.io.results import save_curve_csv, save_json
from repro.scenarios import (
    LoadGridPolicy,
    ScenarioSpec,
    get_scenario,
    iter_scenarios,
    scenario_names,
)
from repro.workloads import make_pattern

__all__ = ["main", "build_parser", "resolve_spec"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for testing and docs generation)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Analytical network model of heterogeneous cluster-of-clusters "
        "systems (Javadi et al., CLUSTER 2006) — reproduction toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scenario", help="registered scenario name (see `repro scenarios`)")
        p.add_argument("--config", help="ScenarioSpec JSON file ('-' reads stdin)")
        p.add_argument(
            "--system",
            choices=sorted(scenario_names()),
            help="alias of --scenario (historical 1120/544 flags)",
        )
        p.add_argument("--flits", type=int, default=None, help="override message length M in flits")
        p.add_argument("--flit-bytes", type=float, default=None, help="override flit size d_m in bytes")
        p.add_argument(
            "--option",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help=f"override a ModelOptions field ({', '.join(ModelOptions.field_names())})",
        )
        p.add_argument(
            "--pattern",
            default=None,
            metavar="NAME[:k=v,...]",
            help="override the traffic pattern (e.g. 'hotspot:hot_cluster=3,hot_fraction=0.2'; "
            "'none' restores uniform)",
        )

    def out_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default=None, help="persist the result (.json or .csv by extension)")

    def jobs_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--jobs",
            type=int,
            default=None,
            help="process-pool workers for simulation fan-out (0 = one per CPU; "
            "results are identical for any worker count)",
        )

    def resilience_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--retries",
            type=int,
            default=None,
            help="extra executions granted to a failed item before it is "
            "recorded as an error (default 2; see docs/resilience.md)",
        )
        p.add_argument(
            "--timeout",
            type=float,
            default=None,
            help="per-item timeout in seconds under pooled execution "
            "(default: no timeout; not enforceable under serial fallback)",
        )
        p.add_argument(
            "--resume",
            action="store_true",
            help="resume an interrupted run from its cache journal "
            "(requires --cache; only not-yet-journaled items are evaluated)",
        )
        p.add_argument(
            "--faults",
            default=None,
            metavar="PLAN",
            help="arm a deterministic fault-injection plan — a JSON file path "
            "or inline JSON (for testing the runtime; see docs/resilience.md)",
        )

    p = sub.add_parser("describe", help="structural summary of the scenario")
    common(p)

    p = sub.add_parser("latency", help="model latency at one load")
    common(p)
    p.add_argument("--load", type=float, required=True, help="per-node rate λ_g")

    p = sub.add_parser("saturation", help="saturation load and binding resource")
    common(p)

    p = sub.add_parser("sweep", help="model latency curve up to the knee")
    common(p)
    p.add_argument("--points", type=int, default=None, help="override the scenario's grid points")
    p.add_argument(
        "--all",
        action="store_true",
        help="sweep every registered scenario (multi-scenario table; combine with --jobs)",
    )
    jobs_flag(p)
    out_flag(p)

    p = sub.add_parser("simulate", help="discrete-event simulation at one load")
    common(p)
    p.add_argument("--load", type=float, required=True)
    p.add_argument("--messages", type=int, default=10_000, help="measured messages")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--granularity", choices=["message", "flit"], default="message")
    p.add_argument(
        "--engine",
        choices=["reference", "array"],
        default="reference",
        help="message-level event engine (bit-identical trajectories; array is the compiled core)",
    )
    p.add_argument(
        "--replicas",
        type=int,
        default=None,
        help="replicate the point under independent spawned seeds (>= 2) and report a CI",
    )
    jobs_flag(p)

    p = sub.add_parser("validate", help="model vs simulation across a load grid")
    common(p)
    p.add_argument(
        "--points", type=int, default=None, help="override the scenario's grid points"
    )
    p.add_argument("--messages", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--granularity",
        choices=["message", "flit"],
        default="message",
        help="simulator granularity (flit = the slow reference engine)",
    )
    p.add_argument(
        "--engine",
        choices=["reference", "array"],
        default="reference",
        help="message-level event engine (bit-identical trajectories; array is the compiled core)",
    )
    jobs_flag(p)
    out_flag(p)

    p = sub.add_parser("capacity", help="max load within a latency budget")
    common(p)
    p.add_argument(
        "--budget",
        type=float,
        default=None,
        help="mean-latency budget (time units); defaults to the scenario's latency_budget",
    )
    out_flag(p)

    p = sub.add_parser("bottlenecks", help="ranked per-resource utilisations at one load")
    common(p)
    p.add_argument(
        "--load",
        type=float,
        default=None,
        help="per-node rate λ_g to inspect (default: 0.9 of the saturation load)",
    )
    out_flag(p)

    p = sub.add_parser("knee", help="empirical simulated knee relative to the model's λ*")
    common(p)
    p.add_argument(
        "--threshold-factor",
        type=float,
        default=4.0,
        help="knee = load where simulated latency reaches this multiple of the zero-load latency",
    )
    p.add_argument("--messages", type=int, default=5_000, help="measured messages per probe")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iterations", type=int, default=7, help="bisection iterations")
    out_flag(p)

    p = sub.add_parser("whatif", help="base vs rescaled-network latency curves (Fig. 7 family)")
    common(p)
    p.add_argument("--role", choices=["icn1", "ecn1", "icn2"], default="icn2")
    p.add_argument("--factor", type=float, default=1.2, help="bandwidth scaling factor")
    out_flag(p)

    p = sub.add_parser(
        "explore", help="multi-axis design-space exploration through the closed forms"
    )
    common(p)
    p.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="PATH=V1,V2,...",
        help="one parameter axis: a dotted spec path and its values "
        "(e.g. 'system.icn2.bandwidth=250,500,1000'); repeat for more axes",
    )
    p.add_argument(
        "--grid",
        default=None,
        metavar="FILE",
        help="DesignGrid JSON file (base spec + axes); conflicts with --axis "
        "and the scenario selectors",
    )
    p.add_argument(
        "--budget",
        type=float,
        default=None,
        help="latency budget for the λ@budget metric (overrides the scenario's)",
    )
    p.add_argument(
        "--frontier",
        action="store_true",
        help="append the Pareto frontier (cost proxy vs λ*) and axis sensitivity",
    )
    p.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="on-disk result cache directory (repeat runs re-evaluate nothing)",
    )
    jobs_flag(p)
    resilience_flags(p)
    out_flag(p)

    p = sub.add_parser(
        "calibrate",
        help="search the ModelOptions ablation space against the simulators",
    )
    common(p)
    p.add_argument(
        "--all",
        action="store_true",
        help="calibrate across every registered scenario (combine with --jobs)",
    )
    p.add_argument(
        "--fix",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="pin one model option to a single value (repeat to pin more; "
        "the remaining knobs are varied over their full domains)",
    )
    p.add_argument(
        "--vary",
        action="append",
        default=[],
        metavar="KEY=V1,V2,...",
        help="restrict one knob's candidate values (DesignGrid axis syntax; "
        "with --vary, unmentioned un-pinned knobs keep their defaults)",
    )
    p.add_argument(
        "--metric",
        choices=["max_abs_error", "light_load_error", "rms_weighted"],
        default="rms_weighted",
        help="ranking metric (see docs/calibration.md)",
    )
    p.add_argument(
        "--fractions",
        default=None,
        metavar="F1,F2,...",
        help="scored loads as fractions of the reference λ* (default 0.2,0.4,0.6,0.8)",
    )
    p.add_argument("--messages", type=int, default=10_000, help="measured messages per sim point")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--seed-stride",
        type=int,
        default=1,
        help="point i simulates under seed + stride*i (0 = one shared seed, "
        "the ablation benches' protocol)",
    )
    p.add_argument(
        "--granularity",
        choices=["message", "flit"],
        default="message",
        help="simulator granularity (flit = the slow reference engine)",
    )
    p.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="on-disk simulator-curve cache (repeat runs simulate nothing)",
    )
    jobs_flag(p)
    resilience_flags(p)
    out_flag(p)

    p = sub.add_parser(
        "performability",
        help="availability-weighted capacity under a failure/repair scenario",
    )
    common(p)
    p.add_argument(
        "--failures",
        required=True,
        metavar="FILE",
        help="FailureScenario JSON file (failure modes + rates; "
        "see docs/performability.md for the schema)",
    )
    p.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="on-disk per-state result cache directory (repeat runs evaluate nothing)",
    )
    jobs_flag(p)
    resilience_flags(p)
    out_flag(p)

    p = sub.add_parser("report", help="regenerate the paper's full evaluation section")
    p.add_argument("--messages", type=int, default=10_000, help="measured messages per sim point")
    p.add_argument("--points", type=int, default=6, help="loads per curve")
    p.add_argument("--model-only", action="store_true", help="skip simulations (seconds instead of minutes)")
    jobs_flag(p)

    p = sub.add_parser("scenarios", help="list registered scenarios (or show one as JSON)")
    p.add_argument("name", nargs="?", default=None, help="show this scenario's full spec as JSON")

    p = sub.add_parser("export-config", help="print/save the resolved scenario as JSON")
    common(p)
    out_flag(p)
    return parser


# ---------------------------------------------------------------------------
# scenario resolution (selection flags -> ScenarioSpec)
# ---------------------------------------------------------------------------


def _coerce_scalar(text: str):
    """CLI value coercion: int, then float, then verbatim string."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_pattern(text: str):
    """``NAME[:k=v,...]`` -> a registered pattern instance."""
    name, _, params_text = text.partition(":")
    params = {}
    if params_text:
        for item in params_text.split(","):
            require("=" in item, f"--pattern parameters expect k=v, got {item!r}")
            key, _, value = item.partition("=")
            params[key.strip()] = _coerce_scalar(value.strip())
    return make_pattern(name.strip(), **params)


def _coerce_option_value(key: str, text: str):
    """Coerce one ``--option``/``--fix``/``--vary`` knob value.

    ``relaxing_factor`` is the only non-string knob: ``true``/``false``
    become bools; everything else passes through verbatim (domains are
    validated where the value is consumed).
    """
    if key.endswith("relaxing_factor"):
        lowered = text.lower()
        require(lowered in ("true", "false"), f"relaxing_factor must be true/false, got {text!r}")
        return lowered == "true"
    return text


def _parse_options(base: ModelOptions, entries: "list[str]") -> ModelOptions:
    """Apply ``--option KEY=VALUE`` overrides onto *base*."""
    valid = ModelOptions.field_names()
    updates: dict = {}
    for entry in entries:
        require("=" in entry, f"--option expects KEY=VALUE, got {entry!r}")
        key, _, value = entry.partition("=")
        key = key.strip()
        require(key in valid, f"unknown model option {key!r}; valid: {', '.join(valid)}")
        updates[key] = _coerce_option_value(key, value.strip())
    return replace(base, **updates) if updates else base


def _multi_scenario_names(args, verb: str) -> "list[str] | None":
    """Resolve ``--all`` / a comma-separated ``--scenario`` to a name list.

    Returns ``None`` for the single-scenario path (``resolve_spec``).
    Multi-scenario commands bypass ``resolve_spec``, so every
    single-scenario selector and override must be rejected loudly here —
    not silently ignored.
    """
    if args.all:
        require(
            not (args.config or args.scenario or args.system),
            "--all conflicts with --config/--scenario/--system",
        )
        names = list(scenario_names())
    elif args.scenario and "," in args.scenario:
        require(
            not (args.config or args.system),
            "a --scenario list conflicts with --config/--system",
        )
        names = [part.strip() for part in args.scenario.split(",") if part.strip()]
        require(names, "--scenario got an empty scenario list")
    else:
        return None
    require(
        args.flits is None and args.flit_bytes is None and not args.option and args.pattern is None,
        f"multi-scenario {verb} does not support --flits/--flit-bytes/--option/--pattern overrides",
    )
    return names


def resolve_spec(args) -> ScenarioSpec:
    """Resolve the selection/override flags of one subcommand to a spec."""
    selectors = [
        f"--{flag}" for flag in ("config", "scenario", "system") if getattr(args, flag, None)
    ]
    require(
        len(selectors) <= 1,
        f"conflicting scenario selectors {' and '.join(selectors)}: pass at most one of "
        "--config, --scenario, --system",
    )
    if getattr(args, "config", None):
        if args.config == "-":
            spec = ScenarioSpec.from_json(sys.stdin.read())
        else:
            spec = ScenarioSpec.load(args.config)
    elif getattr(args, "scenario", None):
        spec = get_scenario(args.scenario)
    else:
        spec = get_scenario(getattr(args, "system", None) or "1120")

    if args.flits is not None or args.flit_bytes is not None:
        message = MessageSpec(
            args.flits if args.flits is not None else spec.message.length_flits,
            args.flit_bytes if args.flit_bytes is not None else spec.message.flit_bytes,
        )
        spec = spec.with_overrides(message=message)
    if args.option:
        spec = spec.with_overrides(options=_parse_options(spec.options, args.option))
    if args.pattern is not None:
        if args.pattern.strip().lower() == "none":
            spec = spec.with_overrides(clear_pattern=True)
        else:
            spec = spec.with_overrides(pattern=_parse_pattern(args.pattern))
    if getattr(args, "points", None) is not None and args.command in ("sweep", "validate"):
        spec = replace(spec, load_grid=replace(spec.load_grid, points=args.points))
    return spec


def _check_out_extension(out: "str | None", allowed: tuple) -> None:
    """Reject a bad --out extension *before* any expensive work runs."""
    if out:
        require(
            Path(out).suffix.lower() in allowed,
            f"--out requires a {' or '.join(allowed)} extension, got {out!r}",
        )


def _persist(result: ExperimentResult, out: "str | None") -> str:
    """Write *result* to *out* (.json or .csv); returns a trailer line."""
    if not out:
        return ""
    suffix = Path(out).suffix.lower()
    if suffix == ".json":
        save_json(out, result.to_dict())
    else:
        save_curve_csv(out, result.columns())
    return f"\nwrote {out}"


def _run_policy(args) -> "RunPolicy | None":
    """``--retries``/``--timeout`` -> a RunPolicy, or None for defaults."""
    if args.retries is None and args.timeout is None:
        return None
    overrides: dict = {}
    if args.retries is not None:
        overrides["max_retries"] = args.retries
    if args.timeout is not None:
        overrides["timeout"] = args.timeout
    return RunPolicy(**overrides)


def _arm_faults(args) -> None:
    """Validate and arm a ``--faults`` plan before any compute runs.

    The plan is parsed eagerly so a malformed file/JSON fails with exit 2
    up front; arming happens via the environment so pool workers inherit
    the plan at fork.
    """
    if getattr(args, "faults", None):
        FaultPlan.load(args.faults)
        os.environ[FAULTS_ENV] = args.faults


def _study_exit_code(result: ExperimentResult) -> int:
    """3 when the table is partial (items failed after retries), else 0."""
    return 3 if result.data.get("errors") else 0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _experiment(args) -> Experiment:
    return Experiment(resolve_spec(args))


def _cmd_describe(args) -> str:
    return _experiment(args).describe().text


def _cmd_latency(args) -> str:
    return _experiment(args).evaluate(args.load).text


def _cmd_saturation(args) -> str:
    return _experiment(args).saturation().text


def _cmd_sweep(args) -> str:
    # Multi-scenario fan-out: `--all` or a comma-separated `--scenario` list
    # route through Experiment.sweep_many (one uniform long-format table).
    names = _multi_scenario_names(args, "sweep")
    if names is not None:
        result = Experiment.sweep_many(names, jobs=args.jobs, points=args.points)
        return result.text + _persist(result, args.out)
    require(
        args.jobs is None,
        "--jobs only applies to a multi-scenario sweep (--all or --scenario A,B,...)",
    )
    result = _experiment(args).sweep()
    return result.text + _persist(result, args.out)


def _cmd_simulate(args) -> str:
    require(
        args.jobs is None or args.replicas is not None,
        "--jobs on simulate requires --replicas (a single run has nothing to fan out)",
    )
    return (
        _experiment(args)
        .simulate(
            args.load,
            messages=args.messages,
            seed=args.seed,
            granularity=args.granularity,
            replicas=args.replicas,
            jobs=args.jobs,
            engine=args.engine,
        )
        .text
    )


def _cmd_validate(args) -> str:
    # --points is already folded into the spec's grid policy by resolve_spec.
    # Without --points and without a scenario-customised grid, drop to 5
    # points: validate runs one discrete-event simulation per point, and the
    # sweep-oriented 12-point default would silently 2.4x the runtime.
    spec = resolve_spec(args)
    if args.points is None and spec.load_grid == LoadGridPolicy():
        spec = replace(spec, load_grid=replace(spec.load_grid, points=5))
    result = Experiment(spec).validate(
        messages=args.messages,
        seed=args.seed,
        granularity=args.granularity,
        jobs=args.jobs,
        engine=args.engine,
    )
    return result.text + _persist(result, args.out)


def _cmd_capacity(args) -> str:
    result = _experiment(args).capacity(args.budget)
    return result.text + _persist(result, args.out)


def _cmd_bottlenecks(args) -> str:
    result = _experiment(args).bottlenecks(args.load)
    return result.text + _persist(result, args.out)


def _cmd_knee(args) -> str:
    result = _experiment(args).knee(
        threshold_factor=args.threshold_factor,
        messages=args.messages,
        seed=args.seed,
        iterations=args.iterations,
    )
    return result.text + _persist(result, args.out)


def _cmd_whatif(args) -> str:
    result = _experiment(args).whatif(role=args.role, factor=args.factor)
    return result.text + _persist(result, args.out)


def _cmd_performability(args) -> "tuple[str, int]":
    _arm_faults(args)
    result = _experiment(args).performability(
        args.failures,
        jobs=args.jobs,
        cache=args.cache,
        policy=_run_policy(args),
        resume=args.resume,
    )
    return result.text + _persist(result, args.out), _study_exit_code(result)


def _parse_axis(text: str):
    """``PATH=V1,V2,...`` -> an :class:`~repro.scenarios.AxisSpec`."""
    from repro.scenarios import AxisSpec

    require("=" in text, f"--axis expects PATH=V1,V2,..., got {text!r}")
    path, _, values_text = text.partition("=")
    values = tuple(_coerce_scalar(v.strip()) for v in values_text.split(",") if v.strip())
    require(len(values) >= 1, f"--axis {path.strip()!r} got no values")
    return AxisSpec(path=path.strip(), values=values)


def _cmd_explore(args) -> "tuple[str, int]":
    from repro.experiments.explore import explore_grid
    from repro.scenarios import DesignGrid

    if args.grid is not None:
        require(
            not args.axis,
            "--grid carries its own axes and conflicts with --axis",
        )
        require(
            not (args.config or args.scenario or args.system),
            "--grid carries its own base spec and conflicts with --config/--scenario/--system",
        )
        require(
            args.flits is None and args.flit_bytes is None and not args.option and args.pattern is None,
            "--grid does not support --flits/--flit-bytes/--option/--pattern overrides",
        )
        grid = DesignGrid.load(args.grid)
        if args.budget is not None:
            grid = replace(grid, base=replace(grid.base, latency_budget=args.budget))
    else:
        require(len(args.axis) >= 1, "explore needs at least one --axis (or a --grid file)")
        spec = resolve_spec(args)
        if args.budget is not None:
            spec = replace(spec, latency_budget=args.budget)
        grid = DesignGrid(base=spec, axes=tuple(_parse_axis(a) for a in args.axis))
    _arm_faults(args)
    result = explore_grid(
        grid,
        jobs=args.jobs,
        cache=args.cache,
        frontier=args.frontier,
        policy=_run_policy(args),
        resume=args.resume,
    )
    return result.text + _persist(result, args.out), _study_exit_code(result)


def _parse_fix(entries: "list[str]") -> dict:
    """``--fix KEY=VALUE`` entries -> a pinned-knob mapping."""
    fixed: dict = {}
    for entry in entries:
        require("=" in entry, f"--fix expects KEY=VALUE, got {entry!r}")
        key, _, value = entry.partition("=")
        key = key.strip()
        require(key not in fixed, f"--fix names {key!r} twice")
        fixed[key] = _coerce_option_value(key, value.strip())
    return fixed


def _parse_vary(text: str) -> tuple:
    """``--vary KEY=V1,V2,...`` -> an option-axis ``(knob, values)`` pair."""
    require("=" in text, f"--vary expects KEY=V1,V2,..., got {text!r}")
    key, _, values_text = text.partition("=")
    key = key.strip()
    values = tuple(
        _coerce_option_value(key, v.strip()) for v in values_text.split(",") if v.strip()
    )
    require(len(values) >= 1, f"--vary {key!r} got no values")
    return (key, values)


def _cmd_calibrate(args) -> "tuple[str, int]":
    from repro.experiments.calibrate import DEFAULT_FRACTIONS, calibrate_options

    fixed = _parse_fix(args.fix)
    axes = [_parse_vary(v) for v in args.vary] or None
    if args.fractions is None:
        fractions = DEFAULT_FRACTIONS
    else:
        try:
            fractions = tuple(
                float(v.strip()) for v in args.fractions.split(",") if v.strip()
            )
        except ValueError:
            raise ValueError(f"--fractions expects F1,F2,..., got {args.fractions!r}") from None
    names = _multi_scenario_names(args, "calibrate")
    if names is not None:
        scenarios: "list" = names
    else:
        # The common overrides shape the *reference* scenario here — e.g.
        # --option tcn_convention=... moves the simulated ground truth.
        scenarios = [resolve_spec(args)]
    _arm_faults(args)
    result = calibrate_options(
        scenarios,
        axes=axes,
        fixed=fixed,
        fractions=fractions,
        metric=args.metric,
        messages=args.messages,
        seed=args.seed,
        seed_stride=args.seed_stride,
        granularity=args.granularity,
        jobs=args.jobs,
        cache=args.cache,
        policy=_run_policy(args),
        resume=args.resume,
    )
    return result.text + _persist(result, args.out), _study_exit_code(result)


def _cmd_report(args) -> str:
    from repro.validation import reproduction_report

    report = reproduction_report(
        messages_per_point=args.messages,
        points_per_curve=args.points,
        include_simulation=not args.model_only,
        jobs=args.jobs,
    )
    return report.text


def _cmd_scenarios(args) -> str:
    if args.name:
        return get_scenario(args.name).to_json().rstrip("\n")
    rows = []
    for name, spec in iter_scenarios():
        system = spec.system
        pattern = spec.pattern.pattern_name if spec.pattern is not None else "uniform"
        rows.append(
            [
                name,
                system.total_nodes,
                system.num_clusters,
                system.switch_ports,
                f"{spec.message.length_flits}x{spec.message.flit_bytes:g}B",
                pattern,
                spec.description,
            ]
        )
    return render_table(["scenario", "N", "C", "m", "message", "pattern", "description"], rows)


def _cmd_export_config(args) -> str:
    spec = resolve_spec(args)
    if args.out:
        spec.save(args.out)
        return f"wrote {args.out}"
    return spec.to_json().rstrip("\n")


_COMMANDS = {
    "describe": _cmd_describe,
    "latency": _cmd_latency,
    "saturation": _cmd_saturation,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
    "validate": _cmd_validate,
    "capacity": _cmd_capacity,
    "bottlenecks": _cmd_bottlenecks,
    "knee": _cmd_knee,
    "whatif": _cmd_whatif,
    "explore": _cmd_explore,
    "calibrate": _cmd_calibrate,
    "performability": _cmd_performability,
    "report": _cmd_report,
    "scenarios": _cmd_scenarios,
    "export-config": _cmd_export_config,
}


def main(argv: "list[str] | None" = None) -> int:
    """Entry point; returns a process exit code.

    Configuration mistakes — invalid values (``ValueError``), unknown
    scenario/resource names (``KeyError``) and unreadable config files
    (``OSError``) — print one clean ``error:`` line and exit 2 instead of
    escaping as tracebacks.  Study commands whose result is partial
    (items failed after retries) exit 3 with the partial table printed;
    Ctrl-C exits 130 after the supervised runtime has torn its worker
    pool down.
    """
    args = build_parser().parse_args(argv)
    try:
        _check_out_extension(
            getattr(args, "out", None),
            (".json",) if args.command == "export-config" else (".json", ".csv"),
        )
        output = _COMMANDS[args.command](args)
        text, code = output if isinstance(output, tuple) else (output, 0)
        print(text)
    except BrokenPipeError:  # downstream pager/head closed stdout: not an error
        return 0
    except KeyboardInterrupt:  # pool already torn down by the runtime
        print("interrupted", file=sys.stderr)
        return 130
    except (ValueError, KeyError, OSError) as exc:
        detail = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {detail}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
