"""The paper's validation studies: scenarios and model-vs-sim comparison."""

from repro.validation.report import ReproductionReport, reproduction_report
from repro.validation.compare import (
    ValidationCurve,
    ValidationPoint,
    light_load_point,
    run_validation,
)
from repro.validation.scenarios import (
    FigureScenario,
    all_latency_figures,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7_systems,
)

__all__ = [
    "ReproductionReport",
    "reproduction_report",
    "ValidationCurve",
    "ValidationPoint",
    "run_validation",
    "light_load_point",
    "FigureScenario",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7_systems",
    "all_latency_figures",
]
