"""Capacity planning on top of the analytical model.

Answers the questions a system designer actually asks of the paper's model
(§4's "help system designers explore the design space"):

* :func:`max_load_for_latency` — the largest per-node rate that keeps mean
  latency within a budget;
* :func:`required_upgrade_factor` — how much one network role must be
  scaled for the system to sustain a target load.

Both queries price a one-cell :class:`repro.core.stacked.StackedModel`,
the design's handle: each system variant is packed once as its own
one-cell stack, the latency-budget search is the stack's
:meth:`~repro.core.stacked.StackedModel.loads_at_budget` (the same search
explore runs over whole cell sets), and saturation loads come from the
per-resource closed forms — so a full design-space sweep costs
milliseconds per point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import require, require_positive
from repro.analysis.whatif import scale_network
from repro.core.stacked import StackedModel

__all__ = ["CapacityPlan", "max_load_for_latency", "required_upgrade_factor"]


@dataclass(frozen=True)
class CapacityPlan:
    """Answer to one planning query."""

    target: float
    achieved: float
    feasible: bool
    detail: str


def max_load_for_latency(engine: StackedModel, latency_budget: float) -> CapacityPlan:
    """Largest λ_g with mean latency ≤ *latency_budget* on *engine*'s design.

    The model's latency is strictly increasing in load, so the answer is
    unique; infeasible budgets (below the zero-load latency) are reported
    rather than raised.  The answer is the one-cell *engine*'s
    :meth:`~repro.core.stacked.StackedModel.loads_at_budget`: budgets met
    at ``0.9999 λ*`` achieve that bound, the rest refine a vectorised
    load grid down to the cell containing the budget crossing (1e-4
    relative width).  The engine's cell is the design planned, and its
    saturation cache is reused.
    """
    require(engine.cells == 1, f"engine must hold one cell, got {engine.cells}")
    require_positive(latency_budget, "latency_budget")
    achieved = float(engine.loads_at_budget(np.array([latency_budget]))[0])
    # Only a zero answer can be infeasible, so the floor (one more model
    # evaluation) is priced only then; a budget exactly at the floor stays
    # feasible.  A refined crossing always ends strictly below 0.9999 λ*,
    # so that exact value means the budget was met at the bound.
    if achieved == 0.0:
        zero = float(engine.zero_load_latencies()[0])
        if latency_budget < zero:
            return CapacityPlan(
                target=latency_budget,
                achieved=0.0,
                feasible=False,
                detail=f"budget {latency_budget:g} below zero-load latency {zero:.2f}",
            )
    lam_star = float(engine.saturation_load()[0])
    if achieved == lam_star * 0.9999:
        detail = "budget met arbitrarily close to the saturation load"
    else:
        detail = f"λ_max = {achieved:.4e} ({achieved / lam_star:.0%} of saturation)"
    return CapacityPlan(target=latency_budget, achieved=achieved, feasible=True, detail=detail)


def required_upgrade_factor(
    engine: StackedModel,
    role: str,
    target_load: float,
    *,
    max_factor: float = 16.0,
    rel_tol: float = 1e-3,
) -> CapacityPlan:
    """Smallest bandwidth factor on *role* giving ``λ* >= target_load``.

    The one-cell *engine*'s system, message, options and traffic pattern
    are the design upgraded: factor 1 is the engine itself, every other
    factor is a one-cell stack of its design with *role* scaled.
    Saturation load is monotone non-decreasing in any network's
    bandwidth, so bisection applies; roles that cannot reach the target
    within *max_factor* (they are not the binding resource) are reported
    infeasible.  Every probed factor's saturation load is computed once
    (closed form, via the vectorised engine) and cached — the reported
    ``detail`` strings reuse the cached knees instead of re-running the
    search.
    """
    require(engine.cells == 1, f"engine must hold one cell, got {engine.cells}")
    require_positive(target_load, "target_load")
    require(max_factor > 1.0, "max_factor must exceed 1")
    design = engine.plan.models[0]

    knees: dict[float, float] = {1.0: float(engine.saturation_load()[0])}

    def knee(factor: float) -> float:
        if factor not in knees:
            system = scale_network(design.system, role, factor)
            variant = StackedModel([(system, design.message, design.options, design.pattern)])
            knees[factor] = float(variant.saturation_load()[0])
        return knees[factor]

    base = knee(1.0)
    if base >= target_load:
        return CapacityPlan(target=target_load, achieved=1.0, feasible=True, detail="no upgrade needed")
    ceiling = knee(max_factor)
    if ceiling < target_load:
        return CapacityPlan(
            target=target_load,
            achieved=float("inf"),
            feasible=False,
            detail=f"{role} is not the binding resource: x{max_factor:g} still saturates at "
            f"{ceiling:.3e} < {target_load:.3e}",
        )
    lo, hi = 1.0, max_factor
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if knee(mid) >= target_load:
            hi = mid
        else:
            lo = mid
    return CapacityPlan(
        target=target_load,
        achieved=hi,
        feasible=True,
        detail=f"{role} bandwidth x{hi:.3f} reaches λ* = {knee(hi):.3e}",
    )
