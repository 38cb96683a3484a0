"""Top-level analytical model (paper Eqs. 1–3, 35, 38–39).

:class:`AnalyticalModel` composes the intra-cluster model (§3.1), the
inter-cluster model (§3.2) and the concentrator queues into the system-wide
mean message latency:

* Eq. 1 — per-cluster mean ``ℓ_i = (1-U_i) L_in + U_i L_out``,
* Eq. 35 — average of ``L_ex^{(i,j)}`` over destination clusters,
* Eq. 38 — average concentrator wait ``W_d``,
* Eq. 39 — ``L_out = L_ex + W_d``,
* Eq. 3 — node-weighted system mean ``Latency = Σ (N_i/N) ℓ_i``.

The model aggregates exchangeable clusters into *classes* (an exact
algebraic rewrite of the Σ_j averages; see DESIGN.md §3) so that evaluating
a 32-cluster system costs the same as a 3-class system.

Traffic patterns
----------------
By default destinations are uniform over all other nodes (paper
assumption 2, Eq. 2).  A :class:`TrafficPatternLike` object may override
the per-cluster outgoing probability and the destination-cluster weights —
this implements the paper's "non-uniform traffic" future-work item.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro._util import require, require_nonnegative
from repro.core.concentrator import ConcentratorWait, concentrator_pair_wait
from repro.core.inter import InterPairLatency, inter_pair_latency
from repro.core.intra import IntraClusterLatency, intra_cluster_latency
from repro.core.parameters import ClusterClass, MessageSpec, ModelOptions, SystemConfig

__all__ = ["AnalyticalModel", "ModelResult", "ClusterBreakdown", "TrafficPatternLike"]


@runtime_checkable
class TrafficPatternLike(Protocol):
    """Structural interface of traffic patterns accepted by the model.

    Implementations live in :mod:`repro.workloads.patterns`; the model only
    needs two questions answered per source cluster.
    """

    def outgoing_probability(self, system: SystemConfig, cluster_index: int) -> float:
        """P(message leaves its cluster) for nodes of *cluster_index*."""
        ...

    def destination_cluster_weights(self, system: SystemConfig, cluster_index: int) -> list[float]:
        """Unnormalised weights of destination clusters (0 for self allowed)."""
        ...


@dataclass(frozen=True)
class ClusterBreakdown:
    """Latency breakdown of one cluster class (Eqs. 1, 35, 38, 39)."""

    name: str
    tree_depth: int
    nodes: int
    count: int
    outgoing_probability: float  # U_i
    intra: IntraClusterLatency
    inter_pairs: tuple[InterPairLatency, ...]  # one per destination class
    inter_network: float  # L_ex^{(i)}  (Eq. 35)
    concentrator_wait: float  # W_d^{(i)}  (Eq. 38)
    outward: float  # L_out^{(i)}  (Eq. 39)
    mean: float  # ℓ_i  (Eq. 1)
    saturated: bool


@dataclass(frozen=True)
class ModelResult:
    """System-wide evaluation at one generation rate λ_g."""

    load: float
    latency: float  # Eq. 3 (inf when saturated)
    saturated: bool
    clusters: tuple[ClusterBreakdown, ...]
    saturated_resources: tuple[str, ...]

    def breakdown_for(self, name: str) -> ClusterBreakdown:
        """Look up a cluster-class breakdown by its name."""
        for cluster in self.clusters:
            if cluster.name == name:
                return cluster
        raise KeyError(f"no cluster class named {name!r}")


class AnalyticalModel:
    """Mean message latency model of a heterogeneous cluster-of-clusters.

    Parameters
    ----------
    system:
        the :class:`~repro.core.parameters.SystemConfig` under study.
    message:
        fixed message geometry (``M`` flits × ``d_m`` bytes).
    options:
        equation-interpretation switches (defaults follow DESIGN.md §3).
    pattern:
        optional non-uniform traffic pattern.  When given, clusters are no
        longer aggregated by class (a pattern may break exchangeability)
        and destination clusters are weighted by the pattern.
    """

    def __init__(
        self,
        system: SystemConfig,
        message: MessageSpec,
        options: ModelOptions | None = None,
        pattern: TrafficPatternLike | None = None,
    ) -> None:
        require(isinstance(system, SystemConfig), "system must be a SystemConfig")
        require(isinstance(message, MessageSpec), "message must be a MessageSpec")
        if pattern is not None and not isinstance(pattern, TrafficPatternLike):
            raise ValueError("pattern must implement the TrafficPatternLike protocol")
        self.system = system
        self.message = message
        self.options = options or ModelOptions()
        self.pattern = pattern
        self._classes = self._build_classes()

    # -- construction ---------------------------------------------------------

    def _build_classes(self) -> tuple[ClusterClass, ...]:
        """Cluster classes; one singleton class per cluster under a pattern."""
        if self.pattern is None:
            return self.system.cluster_classes()
        m = self.system.switch_ports
        classes = []
        for idx, spec in enumerate(self.system.clusters):
            u = self.pattern.outgoing_probability(self.system, idx)
            require(0.0 <= u <= 1.0, f"pattern returned invalid U={u} for cluster {idx}")
            classes.append(
                ClusterClass(
                    tree_depth=spec.tree_depth,
                    nodes=spec.nodes(m),
                    count=1,
                    u=u,
                    icn1=spec.icn1,
                    ecn1=spec.ecn1,
                    name=spec.name or f"cluster{idx}",
                )
            )
        return tuple(classes)

    @property
    def cluster_classes(self) -> tuple[ClusterClass, ...]:
        """The class decomposition the model evaluates over."""
        return self._classes

    # -- destination weighting (Eq. 35 / Eq. 38 averages) ----------------------

    def _destination_weights(self, src_idx: int) -> list[float]:
        """Weights over destination *classes* for the Σ_{j≠i} averages."""
        classes = self._classes
        if self.pattern is not None:
            # Pattern mode: one singleton class per cluster, in cluster order.
            per_cluster = self.pattern.destination_cluster_weights(self.system, src_idx)
            require(
                len(per_cluster) == self.system.num_clusters,
                "pattern weights must have one entry per cluster",
            )
            return list(per_cluster)
        weights = []
        for j, dst in enumerate(classes):
            other_count = dst.count - (1 if j == src_idx else 0)
            if self.options.inter_average == "paper":
                weights.append(float(other_count))  # Eq. 35: unweighted over clusters
            else:  # traffic_weighted: P(dest cluster) ∝ N_j under uniform traffic
                weights.append(float(other_count) * dst.nodes)
        return weights

    # -- evaluation -------------------------------------------------------------

    def evaluate(self, generation_rate: float) -> ModelResult:
        """Mean latency at per-node Poisson rate ``λ_g`` (Eqs. 1–3)."""
        require_nonnegative(generation_rate, "generation_rate")
        system = self.system
        classes = self._classes
        single_cluster = system.num_clusters == 1

        breakdowns: list[ClusterBreakdown] = []
        saturated_resources: list[str] = []
        for i, src in enumerate(classes):
            intra = intra_cluster_latency(
                src,
                switch_ports=system.switch_ports,
                generation_rate=generation_rate,
                message=self.message,
                options=self.options,
            )
            if intra.saturated:
                saturated_resources.append(f"{src.name}:icn1-source-queue")

            if single_cluster or src.u == 0.0:
                inter_pairs: tuple[InterPairLatency, ...] = ()
                inter_network = 0.0
                conc_wait = 0.0
                pair_saturated = False
            else:
                pairs: list[InterPairLatency] = []
                concs: list[ConcentratorWait] = []
                weights = self._destination_weights(i)
                for j, dst in enumerate(classes):
                    pairs.append(
                        inter_pair_latency(
                            src,
                            dst,
                            switch_ports=system.switch_ports,
                            icn2=system.icn2,
                            icn2_tree_depth=system.icn2_tree_depth,
                            generation_rate=generation_rate,
                            message=self.message,
                            options=self.options,
                        )
                    )
                    concs.append(
                        concentrator_pair_wait(
                            src,
                            dst,
                            icn2=system.icn2,
                            generation_rate=generation_rate,
                            message=self.message,
                            options=self.options,
                        )
                    )
                total_weight = sum(weights)
                require(total_weight > 0, "destination weights must not all be zero")
                inter_network = sum(w * p.total for w, p in zip(weights, pairs) if w > 0) / total_weight
                conc_wait = sum(w * c.pair_wait for w, c in zip(weights, concs) if w > 0) / total_weight
                pair_saturated = any(p.saturated for p, w in zip(pairs, weights) if w > 0) or any(
                    c.saturated for c, w in zip(concs, weights) if w > 0
                )
                for (p, c, w, dst) in zip(pairs, concs, weights, classes):
                    if w <= 0:
                        continue
                    if p.saturated:
                        saturated_resources.append(f"{src.name}->{dst.name}:ecn1-source-queue")
                    if c.saturated:
                        saturated_resources.append(f"{src.name}->{dst.name}:concentrator")
                inter_pairs = tuple(pairs)

            outward = inter_network + conc_wait  # Eq. 39
            mean = (1.0 - src.u) * intra.total + src.u * outward  # Eq. 1
            breakdowns.append(
                ClusterBreakdown(
                    name=src.name,
                    tree_depth=src.tree_depth,
                    nodes=src.nodes,
                    count=src.count,
                    outgoing_probability=src.u,
                    intra=intra,
                    inter_pairs=inter_pairs,
                    inter_network=inter_network,
                    concentrator_wait=conc_wait,
                    outward=outward,
                    mean=mean,
                    saturated=intra.saturated or pair_saturated,
                )
            )

        total_nodes = system.total_nodes
        latency = sum(b.mean * b.nodes * b.count for b in breakdowns) / total_nodes  # Eq. 3
        saturated = any(b.saturated for b in breakdowns)
        return ModelResult(
            load=generation_rate,
            latency=float("inf") if saturated else latency,
            saturated=saturated,
            clusters=tuple(breakdowns),
            saturated_resources=tuple(saturated_resources),
        )

    # -- conveniences -----------------------------------------------------------

    def zero_load_latency(self) -> float:
        """Mean latency in the λ_g → 0 limit (pure transmission time)."""
        return self.evaluate(0.0).latency

    def is_saturated(self, generation_rate: float) -> bool:
        """True if any modelled queue reaches ρ >= 1 at this load."""
        return self.evaluate(generation_rate).saturated
