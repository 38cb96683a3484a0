"""Load sweeps and saturation-point search for the analytical model.

The paper's figures plot mean latency against the traffic generation rate
``λ_g`` up to the saturation point.  This module provides:

* :func:`find_saturation_load` — exact per-resource saturation from the
  stacked engine (closed form for constant-service queues),
* :func:`auto_load_grid` — a figure-ready grid covering (0, fraction·λ*],
* :func:`sweep_load` — evaluate the model across a grid.

All three accept either a scalar :class:`~repro.core.model.AnalyticalModel`
or a :class:`~repro.core.batch.BatchedModel`, the one-cell view of the
stacked engine, and read that engine's single cell: a scalar model is
promoted to a fresh view of its current design on every call, so pass
the view itself to pack the cell once for repeated sweeps/searches (see
``docs/batched_engine.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.batch import BatchedModel
from repro.core.model import AnalyticalModel, ModelResult

__all__ = ["LoadSweep", "sweep_load", "find_saturation_load", "auto_load_grid"]


@dataclass(frozen=True)
class LoadSweep:
    """Model latency curve over a load grid.

    ``results`` may be empty when the sweep was produced latency-only
    (``BatchedModel.evaluate_many(..., with_results=False)``).
    """

    loads: np.ndarray
    latencies: np.ndarray
    results: tuple[ModelResult, ...]

    def finite_mask(self) -> np.ndarray:
        """Boolean mask of non-saturated points."""
        return np.isfinite(self.latencies)

    def as_rows(self) -> list[tuple[float, float]]:
        """(λ_g, latency) rows for reporting."""
        return [(float(lo), float(la)) for lo, la in zip(self.loads, self.latencies)]


def _engine(model: "AnalyticalModel | BatchedModel") -> BatchedModel:
    """Promote *model* to a one-cell engine view of its design."""
    if isinstance(model, BatchedModel):
        return model
    return BatchedModel(model.system, model.message, model.options, model.pattern)


def sweep_load(
    model: "AnalyticalModel | BatchedModel",
    loads: "np.ndarray | list[float]",
    *,
    with_results: bool = True,
) -> LoadSweep:
    """Evaluate *model* at every load in *loads* (ascending not required).

    Runs on the vectorised engine: the load-independent structure is packed
    once and the M/G/1 / stage-recursion terms are vectorised across the
    grid, matching the scalar ``model.evaluate`` loop to float64 round-off.
    """
    return _engine(model).evaluate_many(loads, with_results=with_results)


def find_saturation_load(model: "AnalyticalModel | BatchedModel") -> float:
    """Smallest ``λ_g`` at which the model saturates.

    The minimum of the per-resource saturation rates from
    :meth:`BatchedModel.saturation_loads` — closed form for the
    constant-service concentrator queues, a per-resource monotone
    inversion for the source queues (see :mod:`repro.core.stacked`).
    """
    return _engine(model).saturation_load()


def auto_load_grid(
    model: "AnalyticalModel | BatchedModel",
    *,
    points: int = 12,
    fraction_of_saturation: float = 0.95,
    include_zero: bool = False,
) -> np.ndarray:
    """Evenly spaced load grid from light load to near saturation.

    Mirrors the paper's figures, which sample λ_g from ~10 % of saturation
    up to just before the blow-up: *points* evenly spaced loads from
    ``top / points`` (from 0 with *include_zero*) to ``top =
    fraction_of_saturation · λ*``.  This is the engine's one-cell
    :meth:`~repro.core.stacked.StackedModel.auto_load_grids` row.
    """
    return _engine(model).stack.auto_load_grids(
        points=points,
        fraction_of_saturation=fraction_of_saturation,
        include_zero=include_zero,
    )[0]
