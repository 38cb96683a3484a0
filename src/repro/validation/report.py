"""One-call reproduction report.

:func:`reproduction_report` regenerates the paper's entire evaluation —
Tables 1–2, the four latency figures (model + simulation), the Fig. 7
what-if study, the light-load accuracy table and the bottleneck audit —
and returns it as a single text document plus a structured payload.  The
CLI exposes it as ``python -m repro report``; the benchmark harness
produces the same artifacts piecewise (one bench per figure) for timing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import require_int
from repro.analysis import icn2_bandwidth_study, model_bottlenecks, render_table
from repro.cluster import paper_organizations, table1_rows
from repro.core import NET1, NET2, MessageSpec
from repro.core.stacked import StackedModel
from repro.io.reporting import (
    format_table1,
    format_table2,
    format_validation_curve,
    format_whatif_study,
)
from repro.simulation import MeasurementWindow, SimulationSession
from repro.validation.compare import run_validation
from repro.validation.scenarios import all_latency_figures

__all__ = ["ReproductionReport", "reproduction_report"]


@dataclass(frozen=True)
class ReproductionReport:
    """The regenerated evaluation section."""

    text: str
    payload: dict
    light_load_mean_abs_error: float
    light_load_max_abs_error: float

    def within_paper_band(self, band: float = 0.12) -> bool:
        """True if the worst light-load error is inside the accepted band."""
        return self.light_load_max_abs_error < band


def reproduction_report(
    *,
    messages_per_point: int = 10_000,
    points_per_curve: int = 6,
    seed: int = 0,
    include_simulation: bool = True,
    jobs: "int | str | None" = None,
) -> ReproductionReport:
    """Regenerate every table and figure of the paper's §4.

    ``messages_per_point`` scales the simulation protocol (paper: 100 000);
    ``include_simulation=False`` produces a model-only report in seconds;
    ``jobs`` fans each validation curve's simulations across a process pool
    (``0``/``"auto"`` = one worker per CPU this process may run on)
    without changing any number.
    """
    require_int(messages_per_point, "messages_per_point", minimum=100)
    require_int(points_per_curve, "points_per_curve", minimum=2)
    window = MeasurementWindow.scaled_paper(messages_per_point)
    sections: list[str] = []
    payload: dict = {}
    light_errors: list[float] = []

    sections.append(format_table1(table1_rows()))
    sections.append(format_table2([NET1, NET2]))
    payload["table1"] = table1_rows()

    # The eight Figs. 3-6 curves are one stack: one λ* search gives every
    # curve its load grid and, model-only, one pass its latencies.
    figures = all_latency_figures()
    stack = StackedModel(
        [(figure.system, message, None, None) for figure in figures for message in figure.messages]
    )
    grids = stack.auto_load_grids(points=points_per_curve, fraction_of_saturation=0.92)
    latencies = None if include_simulation else stack.evaluate_latencies(grids)
    cell = 0
    for figure in figures:
        blocks = [f"{figure.title} (paper x-axis to {figure.paper_x_max:g})"]
        for message in figure.messages:
            grid = grids[cell]
            label = f"{figure.system.name}, M={message.length_flits}, Lm={message.flit_bytes:g}"
            if include_simulation:
                session = SimulationSession(figure.system, message)
                curve = run_validation(
                    session, grid, label=label, seed=seed, window=window, jobs=jobs
                )
                blocks.append(format_validation_curve(curve, figure=figure.figure))
                light_errors.append(abs(curve.points[0].relative_error))
                payload[f"{figure.figure}:{label}"] = curve.as_rows()
            else:
                rows = list(zip(grid.tolist(), latencies[cell].tolist()))
                blocks.append(
                    render_table(
                        ["lambda_g", "model"],
                        rows,
                        title=f"{figure.figure} {label} (model only)",
                    )
                )
                payload[f"{figure.figure}:{label}"] = rows
            cell += 1
        sections.append("\n\n".join(blocks))

    fig7 = icn2_bandwidth_study(paper_organizations()[::-1], MessageSpec(128, 256.0), points=8)
    sections.append(format_whatif_study(fig7))
    payload["fig7"] = {c.label: list(c.latencies) for c in fig7.curves}

    audit_rows = []
    for system in paper_organizations():
        engine = StackedModel([(system, MessageSpec(32, 256.0), None, None)])
        lam_star = float(engine.saturation_load()[0])
        report = model_bottlenecks(engine, 0.5 * lam_star)
        audit_rows.append([system.name, f"{lam_star:.3e}", report.binding.resource, report.binding.kind])
    sections.append(
        render_table(
            ["system", "λ*", "binding resource", "kind"],
            audit_rows,
            title="Bottleneck audit (paper §4: the ICN2 path binds)",
        )
    )
    payload["bottlenecks"] = audit_rows

    mean_err = float(np.mean(light_errors)) if light_errors else float("nan")
    max_err = float(np.max(light_errors)) if light_errors else float("nan")
    if light_errors:
        sections.append(
            f"Light-load accuracy: mean |error| = {mean_err:.1%}, max = {max_err:.1%} "
            f"(paper claims ~4-8%)"
        )
    text = ("\n\n" + "=" * 72 + "\n\n").join(sections)
    return ReproductionReport(
        text=text,
        payload=payload,
        light_load_mean_abs_error=mean_err,
        light_load_max_abs_error=max_err,
    )
