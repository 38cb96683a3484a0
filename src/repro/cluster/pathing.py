"""End-to-end path construction across the cluster-of-clusters fabric.

A message's journey is a sequence of **segments**, each traversed with
wormhole flow control; segments are separated by the
concentrator/dispatcher buffers (paper Fig. 2), which the simulators
cross cut-through:

* intra-cluster: one segment through ICN1(i);
* inter-cluster: ECN1(i) ascent to the concentrator, ICN2 crossing between
  concentrators, ECN1(j) descent from the dispatcher to the destination.

Each segment is a list of :class:`~repro.cluster.channels.SystemChannel`
in traversal order.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util import require
from repro.cluster.channels import SystemChannel
from repro.cluster.system import GlobalNodeId, HeterogeneousSystem
from repro.topology.mport_ntree import ChannelKind, Link
from repro.topology.routing import ascend_to_root, descend_from_root, home_root, route

__all__ = ["PathSegment", "SystemPath", "build_path", "ecn1_legs", "icn2_leg", "intra_path", "inter_path"]


@dataclass(frozen=True)
class PathSegment:
    """One wormhole leg of a journey."""

    label: str  # "icn1" | "ecn1-up" | "icn2" | "ecn1-down"
    channels: tuple[SystemChannel, ...]

    @property
    def num_links(self) -> int:
        return len(self.channels)


@dataclass(frozen=True)
class SystemPath:
    """A complete source→destination journey."""

    source: GlobalNodeId
    destination: GlobalNodeId
    segments: tuple[PathSegment, ...]

    @property
    def is_inter_cluster(self) -> bool:
        return len(self.segments) > 1

    @property
    def total_links(self) -> int:
        return sum(s.num_links for s in self.segments)


def _tag(network: tuple, links: tuple[Link, ...]) -> tuple[SystemChannel, ...]:
    return tuple(SystemChannel.from_link(network, link) for link in links)


def intra_path(system: HeterogeneousSystem, source: GlobalNodeId, destination: GlobalNodeId) -> SystemPath:
    """Route a message that stays inside its cluster (through ICN1)."""
    src_cluster, src_addr = system.locate(source)
    dst_cluster, dst_addr = system.locate(destination)
    require(src_cluster.index == dst_cluster.index, "intra_path requires same-cluster endpoints")
    require(source != destination, "source and destination must differ")
    tree_route = route(src_cluster.icn1, src_addr, dst_addr)
    segment = PathSegment("icn1", _tag(("icn1", src_cluster.index), tree_route.links))
    return SystemPath(source, destination, (segment,))


def ecn1_legs(system: HeterogeneousSystem, node: GlobalNodeId) -> tuple[PathSegment, PathSegment]:
    """The ECN1 legs of *node*: its ascent to the concentrator and its
    descent from the dispatcher.

    Both use the deterministic climb to / descent from the node's home root
    switch, the designated root the concentrator attaches to (spreads
    concentrate and dispatch traffic over the roots).
    """
    cluster, addr = system.locate(node)
    network = ("ecn1", cluster.index)
    cd = system.concentrator(cluster.index)
    root = home_root(cluster.ecn1, addr)
    up = _tag(network, ascend_to_root(cluster.ecn1, addr, root).links) + (
        SystemChannel(network, root, cd, ChannelKind.SWITCH_TO_NODE),
    )
    down = (SystemChannel(network, cd, root, ChannelKind.NODE_TO_SWITCH),) + _tag(
        network, descend_from_root(cluster.ecn1, root, addr).links
    )
    return PathSegment("ecn1-up", up), PathSegment("ecn1-down", down)


def icn2_leg(system: HeterogeneousSystem, i: int, j: int) -> PathSegment:
    """Concentrator *i* to concentrator *j* through ICN2: a normal
    Up*/Down* route between the two concentrators' node slots."""
    require(i != j, "icn2_leg requires two different clusters")
    icn2_route = route(system.icn2, system.icn2_address(i), system.icn2_address(j))
    return PathSegment(
        "icn2",
        tuple(
            SystemChannel.from_link(("icn2",), system._substitute_concentrators(link))
            for link in icn2_route.links
        ),
    )


def inter_path(system: HeterogeneousSystem, source: GlobalNodeId, destination: GlobalNodeId) -> SystemPath:
    """Route a message between clusters: ECN1(i) → ICN2 → ECN1(j).

    The journey is the source's ascent, the ICN2 crossing between the two
    clusters' concentrators and the destination's descent
    (:func:`ecn1_legs`, :func:`icn2_leg`).
    """
    i = system.cluster_of(source).index
    j = system.cluster_of(destination).index
    require(i != j, "inter_path requires different clusters")
    up, _ = ecn1_legs(system, source)
    _, down = ecn1_legs(system, destination)
    return SystemPath(source, destination, (up, icn2_leg(system, i, j), down))


def build_path(system: HeterogeneousSystem, source: GlobalNodeId, destination: GlobalNodeId) -> SystemPath:
    """Dispatch to :func:`intra_path` or :func:`inter_path`."""
    src_cluster = system.cluster_of(source)
    if src_cluster.contains_global(destination):
        return intra_path(system, source, destination)
    return inter_path(system, source, destination)
