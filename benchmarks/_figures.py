"""Shared driver for the latency-validation figure benches (Figs. 3-6).

Each figure plots, for two flit sizes, the analytical model curve and the
simulation points over a load grid reaching the saturation knee.  The timed
core is the model sweep (the artifact whose cheapness the paper argues makes
it "a practical evaluation tool"); the simulation points are produced once
per run and reported alongside.
"""

from __future__ import annotations

from repro.core import AnalyticalModel
from repro.core.stacked import StackedModel
from repro.io import format_validation_curve
from repro.validation import FigureScenario, run_validation
from repro.core.sweep import sweep_load

from benchmarks.conftest import SessionCache, bench_points, bench_window, emit


def run_figure(figure: FigureScenario, sessions: SessionCache, out_dir, benchmark) -> None:
    """Regenerate one latency figure: model sweep (timed) + sim points."""
    stack = StackedModel([(figure.system, msg, None, None) for msg in figure.messages])
    rows = stack.auto_load_grids(points=bench_points(), fraction_of_saturation=0.92)
    grids = dict(zip(figure.messages, rows))

    def model_sweeps():
        out = {}
        for msg, grid in grids.items():
            out[msg] = sweep_load(AnalyticalModel(figure.system, msg), grid)
        return out

    sweeps = benchmark(model_sweeps)

    blocks = []
    payload = {}
    window = bench_window()
    for msg, grid in grids.items():
        label = f"{figure.system.name}, M={msg.length_flits}, Lm={msg.flit_bytes:g}"
        curve = run_validation(sessions.get(figure.system, msg), grid, label=label, window=window)
        blocks.append(format_validation_curve(curve, figure=figure.figure))
        payload[label] = {
            "rows": curve.as_rows(),
            "model_sweep": list(sweeps[msg].latencies),
            "paper_x_max": figure.paper_x_max,
        }
        # Reproduction guardrails: model tracks sim at the light-load end
        # and is optimistic (not pessimistic) at the knee end.
        light = curve.points[0]
        assert light.sim_completed
        assert abs(light.relative_error) < 0.25, f"light-load error {light.relative_error:+.1%}"
    text = f"{figure.title}\n(paper x-axis reaches {figure.paper_x_max:g})\n\n" + "\n\n".join(blocks)
    emit(out_dir, figure.figure.replace(".", "").lower(), text, payload=payload)
