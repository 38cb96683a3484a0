"""Bottleneck identification (paper §4: "the inter-cluster networks,
especially ICN2, are the bottlenecks of the system").

Two complementary views:

* the **model view** enumerates every M/G/1 queue's utilisation and every
  network's channel rate at a given load, ranks them, and names the
  resource whose utilisation first reaches 1 as λ_g grows;
* the **simulator view** uses measured per-group channel utilisations from
  a run.

The audit bench cross-checks the two.

The model view prices a one-cell :class:`repro.core.stacked.StackedModel`
(:meth:`~repro.core.stacked.StackedModel.resource_utilizations`, read off
the engine's per-term planes), sharing the packed cell with sweeps and
saturation searches instead of re-deriving every pair's rates from
scratch; the attached saturation load is the engine's exact per-resource
minimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import require
from repro.core.stacked import StackedModel
from repro.simulation.runner import SimulationResult

__all__ = ["ResourceUtilization", "BottleneckReport", "model_bottlenecks", "sim_bottlenecks"]


@dataclass(frozen=True)
class ResourceUtilization:
    """Utilisation of one modelled resource at one load."""

    resource: str
    utilization: float
    kind: str  # "source-queue" | "concentrator" | "channel"


@dataclass(frozen=True)
class BottleneckReport:
    """Ranked resource utilisations plus the binding resource.

    *binding* is the resource whose utilisation first reaches 1 as λ_g
    grows (the engine's binding resource), read from the ranking; it need
    not rank first at *load* (on ``544-hotspot`` two concentrators tie).
    """

    load: float
    resources: tuple[ResourceUtilization, ...]
    binding: ResourceUtilization
    saturation_load: float

    def top(self, count: int = 5) -> tuple[ResourceUtilization, ...]:
        return self.resources[:count]


def model_bottlenecks(engine: StackedModel, load: float) -> BottleneckReport:
    """Enumerate and rank every modelled queue/channel utilisation at *load*.

    The one-cell *engine*'s system, message, options and traffic pattern
    are the design ranked (a non-uniform pattern ranks the pattern-aware
    utilisations), and its packed cell and saturation cache are reused.
    """
    require(engine.cells == 1, f"engine must hold one cell, got {engine.cells}")
    entries = engine.resource_utilizations(np.array([load], dtype=np.float64))[0]
    resources = [
        ResourceUtilization(resource, float(utilization[0]), kind)
        for resource, kind, utilization in entries
    ]
    ranked = tuple(sorted(resources, key=lambda r: r.utilization, reverse=True))
    saturation_load = float(engine.saturation_load()[0])
    binding = engine.binding_resources()[0]
    return BottleneckReport(
        load=load,
        resources=ranked,
        binding=next(r for r in ranked if r.resource == binding),
        saturation_load=saturation_load,
    )


def sim_bottlenecks(result: SimulationResult) -> tuple[ResourceUtilization, ...]:
    """Rank the simulator's measured per-group channel utilisations."""
    ranked = sorted(result.network_utilization.items(), key=lambda kv: kv[1], reverse=True)
    return tuple(ResourceUtilization(name, value, "channel") for name, value in ranked)
