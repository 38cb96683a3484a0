"""Scenario definitions for the paper's validation figures (Figs. 3–7).

Each scenario bundles the system organisation (Table 1), the network
characteristics (Table 2), the message geometries of its curves and the
figure's x-axis bound.  A curve's load grid is its row of
:meth:`~repro.core.stacked.StackedModel.auto_load_grids` on a stack of the
curves' designs.  The benches and EXPERIMENTS.md are generated from these
definitions, so the mapping figure → code lives in exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.parameters import MessageSpec, SystemConfig, paper_system_544, paper_system_1120

__all__ = [
    "FigureScenario",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7_systems",
    "all_latency_figures",
]


@dataclass(frozen=True)
class FigureScenario:
    """One latency-vs-load validation figure."""

    figure: str  # e.g. "Fig.3"
    title: str
    system: SystemConfig
    messages: tuple[MessageSpec, ...]  # one curve pair (model+sim) per spec
    paper_x_max: float  # the figure's x-axis upper bound in the paper


def figure3() -> FigureScenario:
    """Fig. 3: N=1120, m=8, M=32 flits, d_m ∈ {256, 512} bytes."""
    return FigureScenario(
        figure="Fig.3",
        title="Mean message latency, N=1120, M=32",
        system=paper_system_1120(),
        messages=(MessageSpec(32, 256.0), MessageSpec(32, 512.0)),
        paper_x_max=5e-4,
    )


def figure4() -> FigureScenario:
    """Fig. 4: N=1120, m=8, M=64 flits, d_m ∈ {256, 512} bytes."""
    return FigureScenario(
        figure="Fig.4",
        title="Mean message latency, N=1120, M=64",
        system=paper_system_1120(),
        messages=(MessageSpec(64, 256.0), MessageSpec(64, 512.0)),
        paper_x_max=2.5e-4,
    )


def figure5() -> FigureScenario:
    """Fig. 5: N=544, m=4, M=32 flits, d_m ∈ {256, 512} bytes."""
    return FigureScenario(
        figure="Fig.5",
        title="Mean message latency, N=544, M=32",
        system=paper_system_544(),
        messages=(MessageSpec(32, 256.0), MessageSpec(32, 512.0)),
        paper_x_max=1e-3,
    )


def figure6() -> FigureScenario:
    """Fig. 6: N=544, m=4, M=64 flits, d_m ∈ {256, 512} bytes."""
    return FigureScenario(
        figure="Fig.6",
        title="Mean message latency, N=544, M=64",
        system=paper_system_544(),
        messages=(MessageSpec(64, 256.0), MessageSpec(64, 512.0)),
        paper_x_max=5e-4,
    )


def all_latency_figures() -> tuple[FigureScenario, ...]:
    """Figs. 3–6 in paper order."""
    return (figure3(), figure4(), figure5(), figure6())


def figure7_systems() -> tuple[SystemConfig, SystemConfig]:
    """Fig. 7 operates on both Table 1 systems with M=128, d_m=256."""
    return (paper_system_544(), paper_system_1120())
