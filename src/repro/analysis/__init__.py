"""Analyses on top of the model/simulator: bottlenecks, what-if, tables."""

from repro.analysis.accuracy import (
    ACCURACY_METRICS,
    light_load_error,
    max_abs_error,
    relative_errors,
    rms_weighted,
    score_errors,
)
from repro.analysis.capacity import (
    CapacityPlan,
    max_load_for_latency,
    required_upgrade_factor,
)
from repro.analysis.frontier import (
    AxisSensitivity,
    axis_sensitivity,
    bandwidth_cost_proxy,
    pareto_frontier,
    pareto_frontier_cells,
)
from repro.analysis.knee import KneeEstimate, estimate_sim_knee
from repro.analysis.bottleneck import (
    BottleneckReport,
    ResourceUtilization,
    model_bottlenecks,
    sim_bottlenecks,
)
from repro.analysis.tables import render_series, render_table
from repro.analysis.whatif import (
    WhatIfCurve,
    WhatIfStudy,
    curve_label,
    icn2_bandwidth_study,
    scale_network,
)

__all__ = [
    "ACCURACY_METRICS",
    "relative_errors",
    "max_abs_error",
    "light_load_error",
    "rms_weighted",
    "score_errors",
    "CapacityPlan",
    "max_load_for_latency",
    "required_upgrade_factor",
    "AxisSensitivity",
    "axis_sensitivity",
    "bandwidth_cost_proxy",
    "pareto_frontier",
    "pareto_frontier_cells",
    "KneeEstimate",
    "estimate_sim_knee",
    "BottleneckReport",
    "ResourceUtilization",
    "model_bottlenecks",
    "sim_bottlenecks",
    "WhatIfCurve",
    "WhatIfStudy",
    "curve_label",
    "icn2_bandwidth_study",
    "scale_network",
    "render_table",
    "render_series",
]
