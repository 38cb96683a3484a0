"""Model-vs-simulation comparison harness (paper §4).

Runs the analytical model and the discrete-event simulator across a load
grid and reports per-point relative errors — the paper's central validation
methodology ("at light traffic the model differs from simulation by about
4 to 8 percent").  The model side of a curve is one row of the stacked
closed-form engine (:class:`~repro.core.stacked.StackedModel`) over the
whole grid, the same numbers ``sweep`` prints; the scalar
:class:`~repro.core.model.AnalyticalModel` is the oracle the tests compare
that row against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import require
from repro.core.stacked import StackedModel
from repro.simulation.metrics import MeasurementWindow
from repro.simulation.parallel import resolve_jobs, run_work_items
from repro.simulation.runner import SimulationConfig, SimulationResult, SimulationSession

__all__ = ["ValidationPoint", "ValidationCurve", "run_validation", "light_load_point"]


@dataclass(frozen=True)
class ValidationPoint:
    """One load point of a validation curve."""

    load: float
    model_latency: float
    sim_latency: float
    sim_std: float
    sim_completed: bool

    @property
    def relative_error(self) -> float:
        """(model − sim) / sim; negative when the model is optimistic."""
        if not np.isfinite(self.model_latency) or self.sim_latency == 0:
            return float("nan")
        return (self.model_latency - self.sim_latency) / self.sim_latency


@dataclass(frozen=True)
class ValidationCurve:
    """Model and simulation latencies across one load grid."""

    label: str
    points: tuple[ValidationPoint, ...]
    sim_results: tuple[SimulationResult, ...]

    def max_abs_error(self, *, load_fraction_below: float = 1.0) -> float:
        """Largest |relative error| over points with load ≤ fraction·max.

        Delegates to :func:`repro.analysis.accuracy.max_abs_error` under
        the ``"skip"`` policy — validation curves intentionally run up to
        the knee, so saturated points are ignored rather than scored.
        """
        from repro.analysis.accuracy import max_abs_error as metric

        max_load = max(p.load for p in self.points)
        errors = [
            p.relative_error for p in self.points if p.load <= load_fraction_below * max_load
        ]
        return metric(errors, nonfinite="skip") if errors else float("nan")

    def as_rows(self) -> list[tuple[float, float, float, float]]:
        """(load, model, sim, rel_error) rows for reporting."""
        return [(p.load, p.model_latency, p.sim_latency, p.relative_error) for p in self.points]

    @property
    def sim_events(self) -> int:
        """Total simulator events across all points of the curve."""
        return sum(r.events for r in self.sim_results)

    @property
    def sim_wall_seconds(self) -> float:
        """Critical-path simulator wall time: the slowest single point.

        Under parallel execution the points overlap, so the sum of
        per-point walls overstates elapsed time; the max is the lower
        bound any worker count must pay.
        """
        return max((r.wall_seconds for r in self.sim_results), default=0.0)


def run_validation(
    session: SimulationSession,
    loads,
    *,
    label: str = "",
    seed: int = 0,
    window: MeasurementWindow | None = None,
    granularity: str = "message",
    jobs: "int | str | None" = None,
    engine: str | None = None,
) -> ValidationCurve:
    """Evaluate model and simulator at every load in *loads*.

    The *session*'s system, message, options and traffic pattern are the
    design compared: the simulator runs on its cached fabric and the model
    prices the same four values, so a non-uniform pattern (see
    :mod:`repro.workloads.patterns`) drives both the model's destination
    weighting and the simulator's destination sampling.

    ``jobs`` fans the per-point simulations across a process pool
    (``0``/``"auto"`` = one worker per CPU this process may run on).
    Point ``i`` keeps its historical seed ``seed + i`` — the points are
    *different operating conditions*, not replicas of one stream — so the
    curve is bit-identical for any worker count.  *engine* names the
    message-level event engine (``"reference"``/``"array"``, see
    :mod:`repro.simulation.eventcore`); left as ``None`` a message-level
    curve runs the compiled array core.  Both produce the identical curve.
    """
    loads = np.asarray(loads, dtype=np.float64)
    require(loads.ndim == 1 and loads.size > 0, "loads must be a non-empty 1-D sequence")
    system, message, options, pattern = session.design
    window = window or MeasurementWindow.scaled_paper(20_000)
    configs = [
        SimulationConfig(
            system=system,
            message=message,
            options=options,
            generation_rate=float(lam),
            seed=seed + idx,
            window=window,
            granularity=granularity,
            pattern=pattern,
            engine=engine,
        )
        for idx, lam in enumerate(loads)
    ]
    model_latencies = StackedModel([session.design]).evaluate_latencies(loads)[0]
    sim_results = run_work_items(configs, jobs=resolve_jobs(jobs), session=session)
    points = [
        ValidationPoint(
            load=float(lam),
            model_latency=float(model_latency),
            sim_latency=sim.mean_latency,
            sim_std=sim.stats.std,
            sim_completed=sim.completed,
        )
        for lam, model_latency, sim in zip(loads, model_latencies, sim_results)
    ]
    return ValidationCurve(label=label or f"{system.name}", points=tuple(points), sim_results=tuple(sim_results))


def light_load_point(
    session: SimulationSession,
    *,
    load_fraction: float = 0.2,
    seed: int = 0,
    window: MeasurementWindow | None = None,
) -> ValidationPoint:
    """Model and simulation at a light load, *load_fraction* of the
    model's saturation load on the *session*'s design (traffic pattern
    included).

    The paper's headline accuracy claim is stated in this regime; the
    point's :attr:`~ValidationPoint.relative_error` is that claim's error.
    """
    require(0.0 < load_fraction < 1.0, "load_fraction must be in (0, 1)")
    lam = load_fraction * float(StackedModel([session.design]).saturation_load()[0])
    curve = run_validation(session, [lam], label="light-load", seed=seed, window=window)
    return curve.points[0]
