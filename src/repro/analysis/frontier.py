"""Pareto frontiers and sensitivity ranking over design-grid results.

The paper positions the analytical model as a design-space exploration
tool; once :func:`repro.experiments.explore_grid` has evaluated a grid,
this module answers the two questions a designer asks of the resulting
table:

* **which designs are worth considering?** — :func:`pareto_frontier`
  extracts the cells not (weakly) dominated on a cost/benefit pair,
  by default provisioning cost (:func:`bandwidth_cost_proxy`, minimised)
  against saturation load λ* (maximised);
* **which knob matters most?** — :func:`axis_sensitivity` ranks the grid's
  axes by how strongly a metric responds to each, measured as the mean
  relative spread of the metric across groups of cells that differ *only*
  along that axis (a one-factor-at-a-time ranking the full factorial grid
  supports exactly).

Everything here is plain arithmetic over the exploration table — no model
evaluations — so frontier/sensitivity views are free to recompute under
different cost assumptions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util import is_real, require
from repro.core.parameters import SystemConfig

__all__ = [
    "AxisSensitivity",
    "axis_sensitivity",
    "bandwidth_cost_proxy",
    "pareto_frontier",
    "pareto_frontier_cells",
]


def bandwidth_cost_proxy(system: SystemConfig) -> float:
    """Relative provisioning cost of *system*'s interconnect (bytes/time).

    A deliberately simple, documented proxy — total provisioned link
    bandwidth, weighted by link count:

    * each cluster's ICN1 is an m-port n-tree over ``N_i`` nodes, which
      has ``n_i`` switch levels of ``N_i`` links each → ``N_i · n_i``
      links of ``icn1.bandwidth``;
    * each cluster's ECN1 contributes its ``N_i`` injection links of
      ``ecn1.bandwidth``;
    * the ICN2 is an m-port ``n_c``-tree over the ``C`` concentrators →
      ``C · n_c`` links of ``icn2.bandwidth``.

    Units are bandwidth units (bytes per time-unit); only *ratios* between
    designs are meaningful.  Swap in a real cost model by recomputing the
    frontier from the exploration table with your own ``x`` values.
    """
    cost = 0.0
    for spec, nodes in zip(system.clusters, system.cluster_sizes):
        cost += nodes * spec.tree_depth * spec.icn1.bandwidth
        cost += nodes * spec.ecn1.bandwidth
    cost += system.num_clusters * system.icn2_tree_depth * system.icn2.bandwidth
    return cost


def pareto_frontier(
    xs,
    ys,
    *,
    minimize_x: bool = True,
    maximize_y: bool = True,
) -> tuple[int, ...]:
    """Indices of the Pareto-efficient ``(x, y)`` points.

    A point is on the frontier iff no other point is at least as good on
    both objectives and strictly better on one (weak dominance); exact
    duplicates of a frontier point are kept, so equally-priced
    equally-performing designs all surface.  Indices are returned sorted
    by ``x`` in the preferred direction (ascending when minimising), with
    the original input order breaking ties — deterministic for any input
    permutation of distinct points.
    """
    xs = list(xs)
    ys = list(ys)
    require(len(xs) == len(ys), f"xs and ys must have equal length, got {len(xs)} != {len(ys)}")
    for name, values in (("x", xs), ("y", ys)):
        for v in values:
            require(v == v, f"{name} values must not contain NaN (drop those cells first)")
    sx = [v if minimize_x else -v for v in xs]
    sy = [v if maximize_y else -v for v in ys]
    order = sorted(range(len(sx)), key=lambda i: (sx[i], -sy[i], i))
    frontier: list[int] = []
    best_y = float("-inf")
    best_x = float("nan")
    for i in order:
        if sy[i] > best_y or (sy[i] == best_y and sx[i] == best_x):
            frontier.append(i)
            best_y, best_x = sy[i], sx[i]
    return tuple(frontier)


def pareto_frontier_cells(
    cells,
    *,
    x: str = "cost_proxy",
    y: str = "saturation_load",
    minimize_x: bool = True,
    maximize_y: bool = True,
) -> tuple[int, ...]:
    """:func:`pareto_frontier` over exploration cell records.

    *cells* are the ``data["cells"]`` records of an ``explore`` result
    (each carries a ``metrics`` mapping); *x* and *y* name metrics.
    """
    xs = [_metric(cell, x) for cell in cells]
    ys = [_metric(cell, y) for cell in cells]
    return pareto_frontier(xs, ys, minimize_x=minimize_x, maximize_y=maximize_y)


@dataclass(frozen=True)
class AxisSensitivity:
    """How strongly one grid axis moves a metric.

    spread:
        mean, over all groups of cells identical on every *other* axis, of
        the group's relative metric spread ``(max - min) / mean`` — 0 when
        the axis does not move the metric at all.
    groups:
        number of such groups (the grid size divided by the axis length).
    """

    path: str
    spread: float
    groups: int


def axis_sensitivity(cells, *, metric: str = "saturation_load") -> tuple[AxisSensitivity, ...]:
    """Rank a full-factorial grid's axes by their effect on *metric*.

    For each axis, cells are grouped by their coordinates on the remaining
    axes; within a group only the chosen axis varies, so the group's
    relative spread isolates that axis's effect.  Axes are returned most
    influential first (ties broken by path for determinism).  Cells whose
    *metric* is NaN (e.g. ``lambda_at_budget`` without a budget) are
    excluded from their groups.
    """
    cells = list(cells)
    require(len(cells) > 0, "axis_sensitivity needs at least one cell")
    paths = list(cells[0]["coords"].keys())
    out = []
    for path in paths:
        groups: dict[tuple, list[float]] = {}
        for cell in cells:
            value = _metric(cell, metric)
            if value != value:  # NaN
                continue
            key = tuple(
                (other, _freeze(cell["coords"][other])) for other in paths if other != path
            )
            groups.setdefault(key, []).append(value)
        spreads = []
        for values in groups.values():
            if len(values) < 2:
                continue
            mean = sum(values) / len(values)
            denom = abs(mean)
            spreads.append((max(values) - min(values)) / denom if denom > 0 else 0.0)
        spread = sum(spreads) / len(spreads) if spreads else 0.0
        out.append(AxisSensitivity(path=path, spread=spread, groups=len(groups)))
    return tuple(sorted(out, key=lambda s: (-s.spread, s.path)))


def _metric(cell, name: str) -> float:
    metrics = cell["metrics"]
    require(name in metrics, f"unknown metric {name!r}; available: {sorted(metrics)}")
    value = metrics[name]
    require(is_real(value), f"metric {name!r} is not numeric: {value!r}")
    return float(value)


def _freeze(value):
    """Hashable form of one coordinate value (axis values may be lists)."""
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    return value
