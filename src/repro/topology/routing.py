"""Deterministic Up*/Down* routing on the m-port n-tree (paper §2).

Every message climbs to a Nearest Common Ancestor (NCA) of source and
destination and then descends — the deterministic variant of Up*/Down*
adopted by the paper (based on [19, 20]).  Determinism comes from the
up-port selection rule: while ascending at level ``j`` the message takes
up-port ``b_j`` (the destination's ``j``-th digit), which spreads distinct
destinations across the replicated ancestor switches (a d-mod-k-style
rule) and makes the ascent meet the unique descending path at the NCA
column ``(b_{h-1}, …, b_1)``.

The module also provides the ascent/descent legs to a *specific* root
switch, used to route traffic to the concentrator/dispatcher that bridges
an ECN1 with the global ICN2.

These object routes are the readable oracle.  The simulators compute the
same routes as channel ids by digit arithmetic
(:func:`~repro.topology.mport_ntree.route_link_ids`), under the numbering
contract of :meth:`~repro.topology.mport_ntree.MPortNTree.links` and
:meth:`~repro.cluster.system.HeterogeneousSystem.channels`; the tests
compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util import require
from repro.topology.addressing import NodeAddress, SwitchAddress
from repro.topology.mport_ntree import ChannelKind, Link, MPortNTree

__all__ = ["Route", "nca_level", "route", "ascend_to_root", "descend_from_root", "home_root"]


def home_root(tree: MPortNTree, node: NodeAddress) -> SwitchAddress:
    """The root switch a node's straight-up deterministic climb reaches.

    Column digits are the node's own lower digits ``(a_{n-1}, …, a_1)``, so
    the ``2q`` nodes sharing each digit pattern map to the same root and the
    node population spreads uniformly over the ``q^{n-1}`` roots.  Used to
    pick the concentrator attachment link of the ECN1 ascent.
    """
    require(node.depth == tree.tree_depth, "address depth must match the tree")
    return SwitchAddress(level=tree.tree_depth, prefix=(), column=node.digits[1:])


@dataclass(frozen=True)
class Route:
    """An ordered list of directed channels from source to destination."""

    links: tuple[Link, ...]

    @property
    def num_links(self) -> int:
        return len(self.links)

    @property
    def switches(self) -> tuple[SwitchAddress, ...]:
        """The switch pipeline (the paper's "stages") along the route."""
        out = []
        for link in self.links:
            if isinstance(link.target, SwitchAddress):
                out.append(link.target)
        return tuple(out)


def nca_level(tree: MPortNTree, source: NodeAddress, destination: NodeAddress) -> int:
    """Level ``h`` of the nearest common ancestor (journey = ``2h`` links).

    ``h = n - L`` where ``L`` is the length of the longest common prefix of
    the two addresses' switch-relevant digits ``(a_n, …, a_2)``.
    """
    require(source != destination, "source and destination must differ")
    require(source.depth == tree.tree_depth == destination.depth, "addresses must match the tree depth")
    src = source.digits[:-1]
    dst = destination.digits[:-1]
    common = 0
    for a, b in zip(src, dst):
        if a != b:
            break
        common += 1
    return tree.tree_depth - common


def route(tree: MPortNTree, source: NodeAddress, destination: NodeAddress) -> Route:
    """Deterministic Up*/Down* route between two nodes of one tree."""
    h = nca_level(tree, source, destination)
    n = tree.tree_depth
    links: list[Link] = []

    # Ascent: level-1 switch up to the NCA, choosing up-port b_j at level j.
    current: SwitchAddress = tree.leaf_switch(source)
    links.append(Link(source, current, ChannelKind.NODE_TO_SWITCH))
    for level in range(1, h):
        up_port = destination.digits[n - level]  # b_level
        upper = tree.up_neighbor(current, up_port)
        links.append(Link(current, upper, ChannelKind.SWITCH_TO_SWITCH))
        current = upper

    # Descent: consume destination prefix digits down to its leaf switch.
    for level in range(h, 1, -1):
        down_port = destination.digits[n - level]  # b_level
        lower = tree.down_neighbor(current, down_port)
        assert isinstance(lower, SwitchAddress)
        links.append(Link(current, lower, ChannelKind.SWITCH_TO_SWITCH))
        current = lower
    links.append(Link(current, destination, ChannelKind.SWITCH_TO_NODE))
    return Route(tuple(links))


def ascend_to_root(tree: MPortNTree, source: NodeAddress, root: SwitchAddress | None = None) -> Route:
    """Route from *source* up to a specific root switch (default column 0…0).

    The up-port at level ``j`` is the root's column digit ``c_j``, making
    the path unique.  Used for the ECN1 leg toward the concentrator.
    """
    root = root or tree.default_root()
    require(root.is_root and root.level == tree.tree_depth, "target must be a root switch of this tree")
    links: list[Link] = []
    current = tree.leaf_switch(source)
    links.append(Link(source, current, ChannelKind.NODE_TO_SWITCH))
    # Root column is (c_{n-1}, …, c_1); ascending at level j prepends c_j.
    for level in range(1, tree.tree_depth):
        up_port = root.column[tree.tree_depth - 1 - level]  # c_level
        upper = tree.up_neighbor(current, up_port)
        links.append(Link(current, upper, ChannelKind.SWITCH_TO_SWITCH))
        current = upper
    require(current == root, "ascent did not reach the requested root")
    return Route(tuple(links))


def descend_from_root(tree: MPortNTree, root: SwitchAddress | None, destination: NodeAddress) -> Route:
    """Route from a root switch down to *destination* (dispatcher leg)."""
    root = root or tree.default_root()
    require(root.is_root and root.level == tree.tree_depth, "source must be a root switch of this tree")
    links: list[Link] = []
    current: SwitchAddress = root
    n = tree.tree_depth
    for level in range(n, 1, -1):
        down_port = destination.digits[n - level]
        lower = tree.down_neighbor(current, down_port)
        assert isinstance(lower, SwitchAddress)
        links.append(Link(current, lower, ChannelKind.SWITCH_TO_SWITCH))
        current = lower
    links.append(Link(current, destination, ChannelKind.SWITCH_TO_NODE))
    return Route(tuple(links))
