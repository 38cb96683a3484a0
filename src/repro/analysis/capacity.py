"""Capacity planning on top of the analytical model.

Answers the questions a system designer actually asks of the paper's model
(§4's "help system designers explore the design space"):

* :func:`max_load_for_latency` — the largest per-node rate that keeps mean
  latency within a budget;
* :func:`required_upgrade_factor` — how much one network role must be
  scaled for the system to sustain a target load;
* :func:`headroom_report` — utilisation headroom of every modelled
  resource at the operating point.

All answers run on the vectorised engine through its one-cell view
(:class:`repro.core.batch.BatchedModel`): each system variant is packed
once, the latency search refines a vectorised load grid instead of
bisecting with scalar evaluations, and saturation loads come from the
per-resource closed forms — so a full design-space sweep costs
milliseconds per point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import require, require_positive
from repro.analysis.bottleneck import BottleneckReport, model_bottlenecks
from repro.analysis.whatif import scale_network
from repro.core.batch import BatchedModel, refine_monotone_crossing
from repro.core.parameters import MessageSpec, ModelOptions, SystemConfig

__all__ = ["CapacityPlan", "max_load_for_latency", "required_upgrade_factor", "headroom_report"]


@dataclass(frozen=True)
class CapacityPlan:
    """Answer to one planning query."""

    target: float
    achieved: float
    feasible: bool
    detail: str


def max_load_for_latency(
    system: SystemConfig,
    message: MessageSpec,
    latency_budget: float,
    *,
    options: ModelOptions | None = None,
    rel_tol: float = 1e-4,
    engine: BatchedModel | None = None,
) -> CapacityPlan:
    """Largest λ_g with mean latency ≤ *latency_budget* (batched grid refinement).

    The model's latency is strictly increasing in load, so the answer is
    unique; infeasible budgets (below the zero-load latency) are reported
    rather than raised.  Each refinement round evaluates one vectorised
    load grid and narrows the bracket to the cell containing the budget
    crossing.

    Pass an existing *engine* (built for the same system/message) to reuse
    its packed cell and saturation cache instead of rebuilding them — this
    is also the only way to plan capacity under a non-uniform traffic
    pattern, since the pattern lives on the engine.
    """
    require_positive(latency_budget, "latency_budget")
    require_positive(rel_tol, "rel_tol")
    if engine is None:
        engine = BatchedModel(system, message, options)
    else:
        require(
            engine.system == system
            and engine.message == message
            and (options is None or engine.options == options),
            "engine was built for a different system/message/options than the plan requests",
        )
    zero = engine.zero_load_latency()
    if latency_budget < zero:
        return CapacityPlan(
            target=latency_budget,
            achieved=0.0,
            feasible=False,
            detail=f"budget {latency_budget:g} below zero-load latency {zero:.2f}",
        )
    lam_star = engine.saturation_load()
    lo, hi = 0.0, lam_star * 0.9999
    hi_latency = float(engine.evaluate_many(np.array([hi]), with_results=False).latencies[0])
    if np.isfinite(hi_latency) and hi_latency <= latency_budget:
        return CapacityPlan(
            target=latency_budget,
            achieved=hi,
            feasible=True,
            detail="budget met arbitrarily close to the saturation load",
        )
    def beyond_budget(grid: np.ndarray) -> np.ndarray:
        latencies = engine.evaluate_many(grid, with_results=False).latencies
        return ~(np.isfinite(latencies) & (latencies <= latency_budget))

    # Monotone latency ⇒ "beyond budget" flips exactly once in (lo, hi]:
    # lo = 0 is within (budget >= zero-load latency) and hi busts it.
    lo, hi = refine_monotone_crossing(lo, hi, beyond_budget, rel_tol=rel_tol)
    return CapacityPlan(
        target=latency_budget,
        achieved=lo,
        feasible=True,
        detail=f"λ_max = {lo:.4e} ({lo / lam_star:.0%} of saturation)",
    )


def required_upgrade_factor(
    system: SystemConfig,
    message: MessageSpec,
    role: str,
    target_load: float,
    *,
    options: ModelOptions | None = None,
    max_factor: float = 16.0,
    rel_tol: float = 1e-3,
) -> CapacityPlan:
    """Smallest bandwidth factor on *role* giving ``λ* >= target_load``.

    Saturation load is monotone non-decreasing in any network's bandwidth,
    so bisection applies; roles that cannot reach the target within
    *max_factor* (they are not the binding resource) are reported
    infeasible.  Every probed factor's saturation load is computed once
    (closed form, via the vectorised engine) and cached — the reported
    ``detail`` strings reuse the cached knees instead of re-running the
    search.
    """
    require_positive(target_load, "target_load")
    require(max_factor > 1.0, "max_factor must exceed 1")

    knees: dict[float, float] = {}

    def knee(factor: float) -> float:
        if factor not in knees:
            cfg = system if factor == 1.0 else scale_network(system, role, factor)
            knees[factor] = BatchedModel(cfg, message, options).saturation_load()
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


def headroom_report(
    system: SystemConfig,
    message: MessageSpec,
    operating_load: float,
    *,
    options: ModelOptions | None = None,
    pattern=None,
    engine: BatchedModel | None = None,
) -> BottleneckReport:
    """Ranked utilisations at the operating point (thin bottleneck wrapper).

    A non-uniform *pattern* (see :mod:`repro.workloads.patterns`) ranks the
    pattern-aware utilisations — without it a hotspot operating point would
    silently be ranked as uniform traffic.  Pass an existing *engine* to
    reuse its packed cell instead; its pattern must match when both are
    given.
    """
    if engine is None:
        if pattern is not None:
            engine = BatchedModel(system, message, options, pattern)
    else:
        require(
            pattern is None or engine.pattern == pattern,
            "engine was built with a different traffic pattern than the report requests",
        )
    return model_bottlenecks(system, message, operating_load, options=options, engine=engine)
