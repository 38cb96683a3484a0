"""Assembly of the heterogeneous cluster-of-clusters system (paper Fig. 1–2).

:class:`HeterogeneousSystem` materialises a :class:`~repro.core.parameters.
SystemConfig` into explicit topologies:

* per cluster: an ICN1 tree and an ECN1 tree over the same ``N_i`` nodes
  (nodes inject into either network directly — paper §2),
* one concentrator/dispatcher per cluster, attached to the ECN1's
  designated root switch and occupying node slot ``i`` of the ICN2 tree,
* the global ICN2 tree over the ``C`` concentrators.

It also owns the global node numbering (flat ids ``0..N-1`` in cluster
order) used by the simulator's traffic generators, and the order of
:meth:`HeterogeneousSystem.channels`, whose block bases
:attr:`HeterogeneousSystem.channel_blocks` gives in closed form: per
cluster its ICN1 tree, its ECN1 tree and (when ``C > 1``) its concentrator
attachments, then the ICN2 tree.  Inside a tree block channels follow
:meth:`~repro.topology.mport_ntree.MPortNTree.links`, whose positions
:func:`~repro.topology.mport_ntree.route_link_ids` computes; that pair is
the channel-numbering contract the simulators' leg table relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from repro._util import require, require_int
from repro.cluster.channels import Concentrator, SystemChannel
from repro.core.parameters import ClusterSpec, SystemConfig
from repro.topology.addressing import NodeAddress
from repro.topology.mport_ntree import ChannelKind, Link, MPortNTree

__all__ = ["ChannelBlocks", "ClusterInstance", "GlobalNodeId", "HeterogeneousSystem"]

GlobalNodeId = int


@dataclass(frozen=True)
class ClusterInstance:
    """One materialised cluster: its spec, trees and global id range."""

    index: int
    spec: ClusterSpec
    icn1: MPortNTree
    ecn1: MPortNTree
    first_global_id: int

    @property
    def num_nodes(self) -> int:
        return self.icn1.num_nodes

    def local_to_global(self, local_index: int) -> GlobalNodeId:
        require(0 <= local_index < self.num_nodes, f"local index {local_index} out of range")
        return self.first_global_id + local_index

    def contains_global(self, global_id: GlobalNodeId) -> bool:
        return self.first_global_id <= global_id < self.first_global_id + self.num_nodes


@dataclass(frozen=True)
class ChannelBlocks:
    """First channel id of each block of :meth:`HeterogeneousSystem.channels`.

    Cluster ``k``'s ICN1 tree channels start at ``icn1[k]`` and its ECN1
    tree channels at ``ecn1[k]``, each in
    :meth:`~repro.topology.mport_ntree.MPortNTree.links` order.  Its
    concentrator attachments start at ``attach[k]``: root ``r`` (in
    :attr:`~repro.topology.mport_ntree.MPortNTree.root_switches` order) →
    concentrator is ``attach[k] + 2r`` and the reverse ``attach[k] + 2r +
    1``.  The ICN2 tree channels start at ``icn2``; ``total`` channels in
    all.
    """

    icn1: tuple[int, ...]
    ecn1: tuple[int, ...]
    attach: tuple[int, ...]
    icn2: int
    total: int


class HeterogeneousSystem:
    """Explicit cluster-of-clusters fabric built from a :class:`SystemConfig`."""

    def __init__(self, config: SystemConfig) -> None:
        require(isinstance(config, SystemConfig), "config must be a SystemConfig")
        self.config = config
        m = config.switch_ports
        clusters = []
        offset = 0
        for index, spec in enumerate(config.clusters):
            icn1 = MPortNTree(m, spec.tree_depth)
            ecn1 = MPortNTree(m, spec.tree_depth)
            clusters.append(
                ClusterInstance(index=index, spec=spec, icn1=icn1, ecn1=ecn1, first_global_id=offset)
            )
            offset += icn1.num_nodes
        self.clusters: tuple[ClusterInstance, ...] = tuple(clusters)
        self.total_nodes: int = offset
        # The concentrators are the ICN2's nodes; config validation
        # guarantees C = 2*(m/2)**n_c exactly.
        self.icn2: MPortNTree = MPortNTree(m, config.icn2_tree_depth)
        if config.num_clusters > 1:
            require(
                self.icn2.num_nodes == config.num_clusters,
                f"ICN2 population {self.icn2.num_nodes} != cluster count {config.num_clusters}",
            )

    # -- node numbering ---------------------------------------------------------

    def cluster_of(self, global_id: GlobalNodeId) -> ClusterInstance:
        """The cluster owning a flat node id (binary search over offsets)."""
        require_int(global_id, "global_id", minimum=0)
        require(global_id < self.total_nodes, f"node id {global_id} out of range (N={self.total_nodes})")
        lo, hi = 0, len(self.clusters) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.clusters[mid].first_global_id <= global_id:
                lo = mid
            else:
                hi = mid - 1
        return self.clusters[lo]

    def locate(self, global_id: GlobalNodeId) -> tuple[ClusterInstance, NodeAddress]:
        """(cluster, local node address) of a flat node id."""
        cluster = self.cluster_of(global_id)
        local = global_id - cluster.first_global_id
        return cluster, cluster.icn1.node(local)

    def global_ids(self) -> range:
        """All flat node ids."""
        return range(self.total_nodes)

    # -- concentrators ------------------------------------------------------------

    def concentrator(self, cluster_index: int) -> Concentrator:
        require(0 <= cluster_index < len(self.clusters), "cluster index out of range")
        return Concentrator(cluster_index)

    def icn2_address(self, cluster_index: int) -> NodeAddress:
        """ICN2 node slot occupied by cluster *cluster_index*'s concentrator."""
        return self.icn2.node(cluster_index)

    # -- channel enumeration --------------------------------------------------------

    def channels(self) -> Iterator[SystemChannel]:
        """Every directed channel of the assembled system.

        Comprises all ICN1/ECN1 tree channels, the concentrator attachment
        links (ECN1 root ↔ concentrator, node-typed) and the ICN2 tree
        channels with the concentrators substituted for the ICN2's node
        endpoints.
        """
        for cluster in self.clusters:
            icn1_tag = ("icn1", cluster.index)
            for link in cluster.icn1.links():
                yield SystemChannel.from_link(icn1_tag, link)
            ecn1_tag = ("ecn1", cluster.index)
            for link in cluster.ecn1.links():
                yield SystemChannel.from_link(ecn1_tag, link)
            if len(self.clusters) > 1:
                cd = self.concentrator(cluster.index)
                # The concentrator/dispatcher attaches to *every* root switch
                # of its ECN1 so that concentrate and dispatch traffic spread
                # over the replicated roots; ChannelBlocks.attach numbers
                # these pairs in root order.
                for root in cluster.ecn1.root_switches:
                    yield SystemChannel(ecn1_tag, root, cd, ChannelKind.SWITCH_TO_NODE)
                    yield SystemChannel(ecn1_tag, cd, root, ChannelKind.NODE_TO_SWITCH)
        if len(self.clusters) > 1:
            icn2_tag = ("icn2",)
            for link in self.icn2.links():
                yield SystemChannel.from_link(icn2_tag, self._substitute_concentrators(link))

    def _substitute_concentrators(self, link: Link) -> Link:
        """Replace ICN2 node endpoints with the owning concentrators."""
        source, target = link.source, link.target
        if isinstance(source, NodeAddress):
            source = self.concentrator(self.icn2.node_index(source))
        if isinstance(target, NodeAddress):
            target = self.concentrator(self.icn2.node_index(target))
        return Link(source, target, link.kind)

    @cached_property
    def channel_blocks(self) -> ChannelBlocks:
        """The block bases of :meth:`channels`, in closed form."""
        multi = len(self.clusters) > 1
        q = self.config.switch_ports // 2
        icn1, ecn1, attach = [], [], []
        base = 0
        for cluster in self.clusters:
            tree = 2 * cluster.icn1.num_full_duplex_links()
            icn1.append(base)
            ecn1.append(base + tree)
            attach.append(base + 2 * tree)
            base += 2 * tree + (2 * q ** (cluster.spec.tree_depth - 1) if multi else 0)
        total = base + (2 * self.icn2.num_full_duplex_links() if multi else 0)
        return ChannelBlocks(icn1=tuple(icn1), ecn1=tuple(ecn1), attach=tuple(attach), icn2=base, total=total)

    # -- summaries ----------------------------------------------------------------

    @property
    def num_channels(self) -> int:
        """Total directed channel count of the fabric."""
        return self.channel_blocks.total

    def describe(self) -> dict:
        """Structural summary used by reports and tests."""
        return {
            "name": self.config.name,
            "clusters": len(self.clusters),
            "total_nodes": self.total_nodes,
            "switch_ports": self.config.switch_ports,
            "icn2_depth": self.config.icn2_tree_depth,
            "cluster_sizes": [c.num_nodes for c in self.clusters],
            "channels": self.num_channels,
        }
