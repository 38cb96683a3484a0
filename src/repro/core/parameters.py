"""Configuration objects for the analytical model and the simulator.

This module defines the vocabulary of the whole library:

* :class:`NetworkCharacteristics` — bandwidth/latency triple of one network
  (paper Table 2),
* :class:`ClusterSpec` — one cluster: tree depth, its two networks,
* :class:`SystemConfig` — the cluster-of-clusters system (paper Fig. 1),
* :class:`MessageSpec` — fixed message geometry (``M`` flits of ``d_m`` bytes),
* :class:`ModelOptions` — documented resolutions of the paper's ambiguous
  equations (see DESIGN.md §3),
* paper presets: :data:`NET1`, :data:`NET2`, :func:`paper_system_1120`,
  :func:`paper_system_544`.

Units are consistent but anonymous: bandwidth is bytes per time-unit and all
latencies are time-units (the paper never names the unit; with
bandwidth 500 B/µs the time-unit is 1 µs).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import cached_property

from repro._util import (
    integer_log,
    reject_unknown_keys as _reject_unknown_keys,
    require,
    require_int,
    require_nonnegative,
    require_positive,
)

__all__ = [
    "NetworkCharacteristics",
    "ClusterSpec",
    "SystemConfig",
    "MessageSpec",
    "ModelOptions",
    "ClusterClass",
    "NET1",
    "NET2",
    "paper_system_1120",
    "paper_system_544",
    "paper_message",
]


def nodes_in_tree(switch_ports: int, tree_depth: int) -> int:
    """Number of processing nodes of an ``m``-port ``n``-tree: ``2*(m/2)**n``."""
    require_int(switch_ports, "switch_ports", minimum=2)
    require(switch_ports % 2 == 0, f"switch_ports must be even, got {switch_ports}")
    require_int(tree_depth, "tree_depth", minimum=1)
    return 2 * (switch_ports // 2) ** tree_depth


@dataclass(frozen=True)
class NetworkCharacteristics:
    """Physical characteristics of one interconnection network.

    Parameters mirror paper Table 2:

    bandwidth:
        link bandwidth in bytes per time-unit (the inverse of the per-byte
        transmission time ``β_n``).
    network_latency:
        ``α_n`` — propagation/interface latency of a link.
    switch_latency:
        ``α_s`` — latency of a switch traversal.
    name:
        display label (e.g. ``"Net.1"``).
    """

    bandwidth: float
    network_latency: float
    switch_latency: float
    name: str = "net"

    def __post_init__(self) -> None:
        require_positive(self.bandwidth, "bandwidth")
        require_nonnegative(self.network_latency, "network_latency")
        require_nonnegative(self.switch_latency, "switch_latency")

    @property
    def beta(self) -> float:
        """Per-byte transmission time ``β_n = 1 / bandwidth``."""
        return 1.0 / self.bandwidth

    def scaled_bandwidth(self, factor: float, *, name: str | None = None) -> "NetworkCharacteristics":
        """Return a copy with bandwidth multiplied by *factor* (Fig. 7 study)."""
        require_positive(factor, "factor")
        return replace(self, bandwidth=self.bandwidth * factor, name=name or f"{self.name}x{factor:g}")

    def to_dict(self) -> dict:
        """JSON-ready mapping; :meth:`from_dict` inverts it exactly."""
        return {
            "bandwidth": self.bandwidth,
            "network_latency": self.network_latency,
            "switch_latency": self.switch_latency,
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NetworkCharacteristics":
        """Rebuild from a :meth:`to_dict` mapping (unknown keys rejected)."""
        _reject_unknown_keys(
            data,
            ("bandwidth", "network_latency", "switch_latency", "name"),
            "network",
            required=("bandwidth", "network_latency", "switch_latency"),
        )
        return cls(
            bandwidth=data["bandwidth"],
            network_latency=data["network_latency"],
            switch_latency=data["switch_latency"],
            name=data.get("name", "net"),
        )


#: Paper Table 2, "Net.1" (used for all ICN1 networks and for ICN2).
NET1 = NetworkCharacteristics(bandwidth=500.0, network_latency=0.01, switch_latency=0.02, name="Net.1")

#: Paper Table 2, "Net.2" (used for all ECN1 networks).
NET2 = NetworkCharacteristics(bandwidth=250.0, network_latency=0.05, switch_latency=0.01, name="Net.2")


@dataclass(frozen=True)
class ClusterSpec:
    """One cluster of the system.

    tree_depth:
        ``n_i`` of the cluster's m-port n-tree; the cluster then has
        ``N_i = 2*(m/2)**n_i`` nodes (paper assumption 3).
    icn1 / ecn1:
        characteristics of the intra- and inter-communication networks of
        this cluster (paper allows full per-cluster heterogeneity).
    compute_power:
        per-node computational power ``s_i``.  Recorded for completeness
        (paper Fig. 1); it does not enter the latency model (assumption 4 —
        the companion paper [25] covers processor heterogeneity).
    name:
        optional label for reports.
    """

    tree_depth: int
    icn1: NetworkCharacteristics = NET1
    ecn1: NetworkCharacteristics = NET2
    compute_power: float = 1.0
    name: str = ""

    def __post_init__(self) -> None:
        require_int(self.tree_depth, "tree_depth", minimum=1)
        require_positive(self.compute_power, "compute_power")

    def nodes(self, switch_ports: int) -> int:
        """Number of nodes ``N_i`` given the system-wide switch arity."""
        return nodes_in_tree(switch_ports, self.tree_depth)

    def class_key(self) -> tuple:
        """Key identifying the *cluster class* for model aggregation.

        Two clusters of the same class are exchangeable in every model
        equation (same ``n_i`` and the same network characteristics).
        """
        return (self.tree_depth, self.icn1, self.ecn1)

    def to_dict(self) -> dict:
        """JSON-ready mapping; :meth:`from_dict` inverts it exactly."""
        return {
            "tree_depth": self.tree_depth,
            "icn1": self.icn1.to_dict(),
            "ecn1": self.ecn1.to_dict(),
            "compute_power": self.compute_power,
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterSpec":
        """Rebuild from a :meth:`to_dict` mapping (unknown keys rejected)."""
        _reject_unknown_keys(
            data,
            ("tree_depth", "icn1", "ecn1", "compute_power", "name"),
            "cluster",
            required=("tree_depth",),
        )
        return cls(
            tree_depth=data["tree_depth"],
            icn1=NetworkCharacteristics.from_dict(data["icn1"]) if "icn1" in data else NET1,
            ecn1=NetworkCharacteristics.from_dict(data["ecn1"]) if "ecn1" in data else NET2,
            compute_power=data.get("compute_power", 1.0),
            name=data.get("name", ""),
        )


@dataclass(frozen=True)
class MessageSpec:
    """Fixed-length message geometry (paper assumption 7).

    length_flits:
        ``M`` — message length in flits.
    flit_bytes:
        ``d_m`` — flit length in bytes.  DESIGN.md §3 item 10 documents why
        this is the *flit* (not message) size: the saturation points of
        Figs. 3–7 only line up under this reading.
    """

    length_flits: int
    flit_bytes: float

    def __post_init__(self) -> None:
        require_int(self.length_flits, "length_flits", minimum=1)
        require_positive(self.flit_bytes, "flit_bytes")

    @property
    def total_bytes(self) -> float:
        """Message payload in bytes (``M * d_m``)."""
        return self.length_flits * self.flit_bytes

    def to_dict(self) -> dict:
        """JSON-ready mapping; :meth:`from_dict` inverts it exactly."""
        return {"length_flits": self.length_flits, "flit_bytes": self.flit_bytes}

    @classmethod
    def from_dict(cls, data: dict) -> "MessageSpec":
        """Rebuild from a :meth:`to_dict` mapping (unknown keys rejected)."""
        _reject_unknown_keys(
            data, ("length_flits", "flit_bytes"), "message", required=("length_flits", "flit_bytes")
        )
        return cls(length_flits=data["length_flits"], flit_bytes=data["flit_bytes"])


def paper_message(length_flits: int = 32, flit_bytes: float = 256.0) -> MessageSpec:
    """Message spec used in the validation section (M ∈ {32,64,128}, d_m ∈ {256,512})."""
    return MessageSpec(length_flits=length_flits, flit_bytes=flit_bytes)


@dataclass(frozen=True)
class ModelOptions:
    """Switchable resolutions of the paper's OCR-ambiguous equations.

    Defaults are the readings defended in DESIGN.md §3; every alternative is
    kept selectable so the ablation benches can quantify the difference.

    tcn_convention:
        ``"half_network_latency"`` — ``t_cn = 0.5 α_n + β_n d_m`` (default);
        ``"full_network_latency"`` — ``t_cn = α_n + β_n d_m``.
    source_queue_rate:
        arrival-rate convention of the M/G/1 source queues.
        ``"paper"`` — Eq. 18 uses the aggregate ``λ_I1 = N_i λ_g (1-U_i)``
        while Eq. 31 uses the physical per-injection-port rate ``λ_g U_i``
        (the literal pair rate contradicts Figs. 3–6, DESIGN.md §3 item 8);
        ``"per_node"`` — both queues use per-node rates;
        ``"aggregate_pair"`` — Eq. 31 uses the literal ``λ_E1^{(i,j)}``.
    relaxing_factor:
        apply the Eq. 27/28 ICN2 wait correction ``δ_i = β_I2 / β_E1(i)``.
    variance_approximation:
        ``"paper"`` — Eq. 17's ``σ² = (T - M t_cn)²``;
        ``"exponential"`` — ``σ² = T²`` (M/M/1-like alternative).
    inter_average:
        ``"paper"`` — Eq. 35/38 unweighted mean over destination clusters;
        ``"traffic_weighted"`` — weight destination clusters by the actual
        probability a uniform-traffic message targets them (∝ N_j).
    concentrator_rate:
        arrival rate of the Eq. 37 concentrator queues.
        ``"pair_mean"`` — the paper's ``λ_I2^{(i,j)} = λ_g(N_i U_i + N_j U_j)/2``;
        ``"source_outgoing"`` — a beyond-paper correction using the queue's
        physical load ``λ_g N_i U_i`` (cluster i's own outgoing rate), which
        tracks the simulator more closely at mid loads because the paper's
        pair-averaging dilutes the hottest concentrator.
    """

    tcn_convention: str = "half_network_latency"
    source_queue_rate: str = "paper"
    relaxing_factor: bool = True
    variance_approximation: str = "paper"
    inter_average: str = "paper"
    concentrator_rate: str = "pair_mean"

    _TCN = ("half_network_latency", "full_network_latency")
    _SRC = ("paper", "per_node", "aggregate_pair")
    _VAR = ("paper", "exponential")
    _AVG = ("paper", "traffic_weighted")
    _CON = ("pair_mean", "source_outgoing")

    def __post_init__(self) -> None:
        require(self.tcn_convention in self._TCN, f"tcn_convention must be one of {self._TCN}, got {self.tcn_convention!r}")
        require(self.source_queue_rate in self._SRC, f"source_queue_rate must be one of {self._SRC}, got {self.source_queue_rate!r}")
        require(self.variance_approximation in self._VAR, f"variance_approximation must be one of {self._VAR}, got {self.variance_approximation!r}")
        require(self.inter_average in self._AVG, f"inter_average must be one of {self._AVG}, got {self.inter_average!r}")
        require(self.concentrator_rate in self._CON, f"concentrator_rate must be one of {self._CON}, got {self.concentrator_rate!r}")
        require(isinstance(self.relaxing_factor, bool), "relaxing_factor must be a bool")

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        """The option names accepted by :meth:`from_dict` (and the CLI)."""
        return tuple(f.name for f in fields(cls))

    @classmethod
    def option_values(cls) -> dict:
        """Every knob's admissible values, in declaration order.

        This is the single source of truth the calibration engine
        (:mod:`repro.experiments.calibrate`) enumerates — the Cartesian
        product of these domains is the full 2·3·2·2·2·2 = 96-combination
        ablation space.
        """
        return {
            "tcn_convention": cls._TCN,
            "source_queue_rate": cls._SRC,
            "relaxing_factor": (True, False),
            "variance_approximation": cls._VAR,
            "inter_average": cls._AVG,
            "concentrator_rate": cls._CON,
        }

    def to_dict(self) -> dict:
        """JSON-ready mapping; :meth:`from_dict` inverts it exactly."""
        return {name: getattr(self, name) for name in self.field_names()}

    @classmethod
    def from_dict(cls, data: dict) -> "ModelOptions":
        """Rebuild from a :meth:`to_dict` mapping (unknown keys rejected).

        Partial mappings are accepted — absent options keep their defaults —
        so config files only need to name the readings they change.
        """
        _reject_unknown_keys(data, cls.field_names(), "model option")
        return cls(**data)


@dataclass(frozen=True)
class ClusterClass:
    """A group of exchangeable clusters used by the aggregated model.

    Attributes are derived quantities the model equations need:
    ``count`` clusters of depth ``tree_depth`` with ``nodes`` nodes each,
    outgoing-traffic probability ``u`` (Eq. 2) and the two networks.
    """

    tree_depth: int
    nodes: int
    count: int
    u: float
    icn1: NetworkCharacteristics
    ecn1: NetworkCharacteristics
    name: str = ""


@dataclass(frozen=True)
class SystemConfig:
    """The heterogeneous cluster-of-clusters system (paper Fig. 1 / §2).

    switch_ports:
        ``m`` — fixed arity of every switch in the system (paper adopts
        m-port n-trees with a single arity across ICN1/ECN1/ICN2).
    clusters:
        one :class:`ClusterSpec` per cluster, in cluster-index order.
    icn2:
        characteristics of the global inter-cluster network.
    name:
        optional label for reports.

    The number of clusters must be a valid m-port tree population,
    ``C = 2*(m/2)**n_c`` (the concentrators are the ICN2's nodes).
    """

    switch_ports: int
    clusters: tuple[ClusterSpec, ...]
    icn2: NetworkCharacteristics = NET1
    name: str = "system"

    def __post_init__(self) -> None:
        require_int(self.switch_ports, "switch_ports", minimum=4)
        require(self.switch_ports % 2 == 0, f"switch_ports must be even, got {self.switch_ports}")
        require(isinstance(self.clusters, tuple), "clusters must be a tuple of ClusterSpec")
        require(len(self.clusters) >= 1, "at least one cluster is required")
        for c in self.clusters:
            require(isinstance(c, ClusterSpec), f"clusters must contain ClusterSpec, got {type(c).__name__}")
        if len(self.clusters) > 1:
            q = self.switch_ports // 2
            c = len(self.clusters)
            require(
                c % 2 == 0 and _is_tree_population(c, q),
                f"number of clusters C={c} must equal 2*(m/2)**n_c for integer "
                f"n_c>=1 with m={self.switch_ports} (the concentrators form the "
                f"ICN2's node population)",
            )

    # -- structural properties -------------------------------------------------

    @property
    def num_clusters(self) -> int:
        """``C`` — number of clusters."""
        return len(self.clusters)

    # The structure below is derived at most once per instance (grid cells
    # share one system object per distinct system).  ``cached_property``
    # keeps it in the instance ``__dict__``, outside the dataclass fields,
    # so ``==``, ``hash``, ``repr`` and ``to_dict`` never see it and
    # ``replace`` starts a fresh instance.

    @cached_property
    def cluster_sizes(self) -> tuple[int, ...]:
        """``N_i`` for every cluster, in order."""
        m = self.switch_ports
        return tuple(c.nodes(m) for c in self.clusters)

    @cached_property
    def total_nodes(self) -> int:
        """``N = Σ N_i`` — total node count of the system."""
        return sum(self.cluster_sizes)

    @property
    def icn2_tree_depth(self) -> int:
        """``n_c`` with ``C = 2*(m/2)**n_c`` (1 for a single-cluster system)."""
        if self.num_clusters == 1:
            return 1
        return integer_log(self.num_clusters // 2, self.switch_ports // 2)

    def outgoing_probability(self, cluster_index: int) -> float:
        """Eq. 2: ``U_i = 1 - (N_i - 1)/(N - 1)`` (0 for a single-node system)."""
        sizes = self.cluster_sizes
        n_total = self.total_nodes
        if n_total <= 1:
            return 0.0
        return 1.0 - (sizes[cluster_index] - 1) / (n_total - 1)

    def cluster_classes(self) -> tuple[ClusterClass, ...]:
        """Group clusters into exchangeable classes (DESIGN.md §3, aggregation).

        Classes preserve first-appearance order; ``u`` is identical within a
        class because it depends only on ``N_i`` and ``N``.
        """
        return self._cluster_classes

    @cached_property
    def _cluster_classes(self) -> tuple[ClusterClass, ...]:
        order: list[tuple] = []
        counts: dict[tuple, int] = {}
        reps: dict[tuple, ClusterSpec] = {}
        for spec in self.clusters:
            key = spec.class_key()
            if key not in counts:
                order.append(key)
                reps[key] = spec
            counts[key] = counts.get(key, 0) + 1
        n_total = self.total_nodes
        m = self.switch_ports
        classes = []
        for key in order:
            spec = reps[key]
            nodes = spec.nodes(m)
            u = 0.0 if n_total <= 1 else 1.0 - (nodes - 1) / (n_total - 1)
            classes.append(
                ClusterClass(
                    tree_depth=spec.tree_depth,
                    nodes=nodes,
                    count=counts[key],
                    u=u,
                    icn1=spec.icn1,
                    ecn1=spec.ecn1,
                    name=spec.name or f"n={spec.tree_depth}",
                )
            )
        return tuple(classes)

    def with_icn2(self, icn2: NetworkCharacteristics, *, name: str | None = None) -> "SystemConfig":
        """Copy of this system with a different ICN2 (Fig. 7 what-if)."""
        return replace(self, icn2=icn2, name=name or self.name)

    def to_dict(self) -> dict:
        """JSON-ready mapping; :meth:`from_dict` inverts it exactly."""
        return {
            "switch_ports": self.switch_ports,
            "clusters": [c.to_dict() for c in self.clusters],
            "icn2": self.icn2.to_dict(),
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SystemConfig":
        """Rebuild from a :meth:`to_dict` mapping (unknown keys rejected)."""
        _reject_unknown_keys(
            data,
            ("switch_ports", "clusters", "icn2", "name"),
            "system",
            required=("switch_ports", "clusters"),
        )
        clusters = data["clusters"]
        require(isinstance(clusters, (list, tuple)), "system 'clusters' must be a list")
        return cls(
            switch_ports=data["switch_ports"],
            clusters=tuple(ClusterSpec.from_dict(c) for c in clusters),
            icn2=NetworkCharacteristics.from_dict(data["icn2"]) if "icn2" in data else NET1,
            name=data.get("name", "system"),
        )


def _is_tree_population(count: int, q: int) -> bool:
    """True if ``count == 2*q**k`` for some integer ``k >= 1``."""
    if count % 2 != 0:
        return False
    half = count // 2
    if half < q:
        return False
    while half % q == 0:
        half //= q
    return half == 1


def paper_system_1120(
    *,
    icn1: NetworkCharacteristics = NET1,
    ecn1: NetworkCharacteristics = NET2,
    icn2: NetworkCharacteristics = NET1,
) -> SystemConfig:
    """Paper Table 1, row 1: N=1120, C=32, m=8.

    Node organisation: ``n_i = 1`` for clusters 0–11 (8 nodes each),
    ``n_i = 2`` for clusters 12–27 (32 nodes each), ``n_i = 3`` for
    clusters 28–31 (128 nodes each); 12*8 + 16*32 + 4*128 = 1120.
    """
    clusters = tuple(
        ClusterSpec(tree_depth=n, icn1=icn1, ecn1=ecn1, name=f"c{idx}")
        for idx, n in enumerate([1] * 12 + [2] * 16 + [3] * 4)
    )
    return SystemConfig(switch_ports=8, clusters=clusters, icn2=icn2, name="N1120-m8-C32")


def paper_system_544(
    *,
    icn1: NetworkCharacteristics = NET1,
    ecn1: NetworkCharacteristics = NET2,
    icn2: NetworkCharacteristics = NET1,
) -> SystemConfig:
    """Paper Table 1, row 2: N=544, C=16, m=4.

    Node organisation: ``n_i = 3`` for clusters 0–7 (16 nodes each),
    ``n_i = 4`` for clusters 8–10 (32 nodes each), ``n_i = 5`` for
    clusters 11–15 (64 nodes each); 8*16 + 3*32 + 5*64 = 544.
    """
    clusters = tuple(
        ClusterSpec(tree_depth=n, icn1=icn1, ecn1=ecn1, name=f"c{idx}")
        for idx, n in enumerate([3] * 8 + [4] * 3 + [5] * 5)
    )
    return SystemConfig(switch_ports=4, clusters=clusters, icn2=icn2, name="N544-m4-C16")
