"""One-cell view of the stacked closed-form engine.

:class:`BatchedModel` is the single-design API of the model: scalars for
saturation, binding resource and zero-load latency, and
:class:`~repro.core.sweep.LoadSweep` curves with full
:class:`~repro.core.model.ModelResult` breakdowns over a load grid.  All
arithmetic runs in :class:`repro.core.stacked.StackedModel`, which the
view holds as a one-cell stack; this module only reads the stack's row
back out and assembles the scalar result objects.  The scalar
:class:`~repro.core.model.AnalyticalModel` is the oracle
``tests/test_batch.py`` compares the view against at 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro._util import require
from repro.core.inter import InterPairLatency
from repro.core.intra import IntraClusterLatency
from repro.core.model import ClusterBreakdown, ModelResult, TrafficPatternLike
from repro.core.parameters import MessageSpec, ModelOptions, SystemConfig
from repro.core.stacked import StackedModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sweep imports batch)
    from repro.core.sweep import LoadSweep

__all__ = ["BatchedModel", "ENGINE_VERSION", "ResourceRates"]

#: Version tag of the engine's numerics, embedded in on-disk cache keys
#: (:mod:`repro.io.cache`).  Bump whenever a change alters any number the
#: closed forms produce — saturation loads, latencies, resource rates —
#: or the evaluation path that produces them (the stacked engine:
#: :mod:`repro.core.stacked`, :mod:`repro.core.plan` and
#: :mod:`repro.core.refine`), so stale cached results can never be
#: mistaken for fresh ones.  Each tag's change is recorded in CHANGES.md;
#: ``tools/regen_goldens.py --check`` proves which left the numbers alone.
ENGINE_VERSION = "batch/17"


@dataclass(frozen=True)
class ResourceRates:
    """Utilisation of one modelled resource across a load grid."""

    resource: str
    kind: str  # "source-queue" | "concentrator" | "channel"
    utilization: np.ndarray


class BatchedModel:
    """One-cell view of :class:`~repro.core.stacked.StackedModel`.

    Construction packs the design into a one-cell stack, public as
    :attr:`stack` for the queries that have no scalar wrapper here (the
    capacity search reads ``stack.loads_at_budget``, load grids read
    ``stack.auto_load_grids``); every method reads that cell's row back
    as scalars, a :class:`~repro.core.sweep.LoadSweep` or
    :class:`ResourceRates`.  The design attributes (``system``,
    ``message``, ``options``, ``pattern``) and ``cluster_classes`` are read
    back from the stacked cell, so ``options=None`` reads as
    ``ModelOptions()``.

    Parameters match :class:`~repro.core.model.AnalyticalModel`.
    """

    def __init__(
        self,
        system: SystemConfig,
        message: MessageSpec,
        options: ModelOptions | None = None,
        pattern: TrafficPatternLike | None = None,
    ) -> None:
        self.stack = StackedModel([(system, message, options, pattern)])
        cell = self.stack.plan.models[0]
        self.system, self.message, self.options, self.pattern = (
            cell.system, cell.message, cell.options, cell.pattern
        )
        self.cluster_classes = cell.cluster_classes

    # -- load curves ------------------------------------------------------------

    def evaluate_many(
        self, loads: "np.ndarray | list[float]", *, with_results: bool = True
    ) -> "LoadSweep":
        """Evaluate the model at every load in *loads* (Eqs. 1-3, batched).

        Returns the same :class:`~repro.core.sweep.LoadSweep` a scalar
        ``model.evaluate`` loop would produce.  With
        ``with_results=False`` the per-load :class:`ModelResult` breakdowns
        are skipped (``results`` is empty) — use this for latency-only
        sweeps where constructing per-point dataclasses is pure overhead.
        """
        from repro.core.sweep import LoadSweep

        loads_arr = np.asarray(loads, dtype=np.float64)
        require(loads_arr.ndim == 1, "loads must be a 1-D sequence")
        if not with_results:
            latencies = self.stack.evaluate_latencies(loads_arr)[0]
            return LoadSweep(loads=loads_arr, latencies=latencies, results=())
        terms = self.stack.evaluate_terms(loads_arr)[0]
        results = tuple(
            self._build_result(idx, float(load), terms) for idx, load in enumerate(loads_arr)
        )
        return LoadSweep(loads=loads_arr, latencies=terms["latency"], results=results)

    def _build_result(self, idx: int, load: float, terms: dict) -> ModelResult:
        """Materialise grid point *idx* as a scalar-identical :class:`ModelResult`."""
        breakdowns = []
        saturated_resources: list[str] = []
        classes = self.cluster_classes
        for src, entry in zip(classes, terms["classes"]):
            planes = entry["intra"]
            intra = IntraClusterLatency(
                source_wait=float(planes["wait"][idx]),
                network_latency=float(planes["network_latency"][idx]),
                tail_time=float(planes["tail_time"]),
                total=float(planes["total"][idx]),
                aggregate_rate=float(planes["lambda_i1"][idx]),
                channel_rate=float(planes["eta_i1"][idx]),
                source_utilization=float(planes["utilization"][idx]),
                saturated=bool(planes["saturated"][idx]),
            )
            if intra.saturated:
                saturated_resources.append(f"{src.name}:icn1-source-queue")
            inter_pairs = []
            for pair, dst in zip(entry["pairs"], classes):
                inter = InterPairLatency(
                    source_wait=float(pair["wait"][idx]),
                    network_latency=float(pair["network_latency"][idx]),
                    tail_time=float(pair["tail_time"]),
                    total=float(pair["total"][idx]),
                    ecn1_rate=float(pair["lambda_e1"][idx]),
                    icn2_rate=float(pair["lambda_i2"][idx]),
                    ecn1_channel_rate=float(pair["eta_e1"][idx]),
                    icn2_channel_rate=float(pair["eta_i2"][idx]),
                    relaxing_factor=float(pair["relaxing_factor"]),
                    source_utilization=float(pair["utilization"][idx]),
                    saturated=bool(pair["saturated"][idx]),
                )
                inter_pairs.append(inter)
                if pair["weight"] <= 0:
                    continue
                if inter.saturated:
                    saturated_resources.append(f"{src.name}->{dst.name}:ecn1-source-queue")
                if bool(pair["conc_saturated"][idx]):
                    saturated_resources.append(f"{src.name}->{dst.name}:concentrator")
            breakdowns.append(
                ClusterBreakdown(
                    name=src.name,
                    tree_depth=src.tree_depth,
                    nodes=src.nodes,
                    count=src.count,
                    outgoing_probability=src.u,
                    intra=intra,
                    inter_pairs=tuple(inter_pairs),
                    inter_network=float(entry["inter_network"][idx]),
                    concentrator_wait=float(entry["conc_wait"][idx]),
                    outward=float(entry["outward"][idx]),
                    mean=float(entry["mean"][idx]),
                    saturated=bool(entry["saturated"][idx]),
                )
            )
        return ModelResult(
            load=load,
            latency=float(terms["latency"][idx]),
            saturated=any(b.saturated for b in breakdowns),
            clusters=tuple(breakdowns),
            saturated_resources=tuple(saturated_resources),
        )

    def evaluate(self, generation_rate: float) -> ModelResult:
        """Single-point evaluation through the batched path (for spot checks)."""
        return self.evaluate_many(np.array([generation_rate], dtype=np.float64)).results[0]

    def zero_load_latency(self) -> float:
        """Mean latency in the λ_g → 0 limit (pure transmission time)."""
        return float(self.stack.zero_load_latencies()[0])

    # -- per-resource utilisation / saturation ----------------------------------

    def resource_utilizations(self, loads: "np.ndarray | list[float]") -> tuple[ResourceRates, ...]:
        """Utilisation of every modelled queue *and* channel over the grid.

        The enumeration (names, kinds, values) matches
        :func:`repro.analysis.bottleneck.model_bottlenecks`, which is built
        on this method.
        """
        return tuple(
            ResourceRates(name, kind, utilization)
            for name, kind, utilization in self.stack.resource_utilizations(loads)[0]
        )

    def saturation_loads(self) -> dict[str, float]:
        """Per-resource saturation rates ``λ*`` (ρ = 1), keyed like
        ``ModelResult.saturated_resources``.

        Concentrator entries are exact closed forms, source-queue entries
        invert the single-resource monotone utilisation (see
        :mod:`repro.core.stacked`).  Only resources that can saturate the
        model are listed.  This is the full search; ask for it before
        :meth:`saturation_load` to run one search for both.
        """
        return self.stack.saturation_loads()[0]

    def saturation_load(self) -> float:
        """Smallest ``λ_g`` at which any modelled queue reaches ρ = 1.

        Read off :meth:`saturation_loads` when it has run, else found by
        the bounded search (:meth:`StackedModel.saturation_load`).
        """
        return float(self.stack.saturation_load()[0])

    def binding_resource(self) -> str:
        """Name of the resource whose saturation rate is smallest (first in scalar order)."""
        return self.stack.binding_resources()[0]
