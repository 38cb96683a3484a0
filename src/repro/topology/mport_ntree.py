"""Construction and adjacency of the m-port n-tree fat-tree (paper §2).

:class:`MPortNTree` materialises the topology the analytical model reasons
about in closed form: ``N = 2 (m/2)^n`` nodes, ``(2n-1)(m/2)^{n-1}``
switches, node↔switch and switch↔switch full-duplex links.  It exposes
adjacency queries, channel enumeration for the simulators and a
:mod:`networkx` export for structural verification.

Channel numbering contract
--------------------------
:meth:`MPortNTree.links` yields channels in a fixed order, and
:func:`route_level` / :func:`route_link_ids` give the position of every
channel of a route in that order by digit arithmetic alone.  With
``q = m/2`` and ``N = 2 q^n``, node ``x`` → its leaf switch is ``2x`` and
back ``2x + 1``; the up link out of the level-``l`` switch that node
``s`` climbs through toward ``d`` is ``2(lN + s − s mod q^l + (d mod
q^{l−1})·q + (d // q^{l−1}) mod q)`` and its reverse one more.  The
simulators number channels by this contract, so reordering
:meth:`~MPortNTree.links` moves every simulator channel id.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, Union

from repro._util import require, require_int
from repro.core import topology_math as tm
from repro.topology.addressing import (
    NodeAddress,
    SwitchAddress,
    node_address_from_index,
    node_index_from_address,
)

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["ChannelKind", "Endpoint", "Link", "MPortNTree", "route_level", "route_link_ids"]

Endpoint = Union[NodeAddress, SwitchAddress]


class ChannelKind(str, Enum):
    """Connection type of a directed channel (selects t_cn vs t_cs)."""

    NODE_TO_SWITCH = "node_to_switch"
    SWITCH_TO_SWITCH = "switch_to_switch"
    SWITCH_TO_NODE = "switch_to_node"

    @property
    def is_node_link(self) -> bool:
        """True for the node↔switch kinds that use ``t_cn``."""
        return self is not ChannelKind.SWITCH_TO_SWITCH


@dataclass(frozen=True)
class Link:
    """A directed channel between two endpoints of one tree."""

    source: Endpoint
    target: Endpoint
    kind: ChannelKind


class MPortNTree:
    """An m-port n-tree topology instance.

    Parameters
    ----------
    switch_ports:
        ``m`` — every switch has ``m`` ports (``m/2`` up + ``m/2`` down,
        except roots which face all ``m`` ports down).
    tree_depth:
        ``n`` — number of switch levels (level ``n`` is the root level).
    """

    def __init__(self, switch_ports: int, tree_depth: int) -> None:
        require_int(switch_ports, "switch_ports", minimum=4)
        require(switch_ports % 2 == 0, f"switch_ports must be even, got {switch_ports}")
        require_int(tree_depth, "tree_depth", minimum=1)
        self.switch_ports = switch_ports
        self.tree_depth = tree_depth
        self.radix = switch_ports // 2

    # -- population -------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """``N = 2 q^n``."""
        return tm.num_nodes(self.switch_ports, self.tree_depth)

    @property
    def num_switches(self) -> int:
        """``(2n-1) q^{n-1}``."""
        return tm.num_switches(self.switch_ports, self.tree_depth)

    def node(self, index: int) -> NodeAddress:
        """The :class:`NodeAddress` of node *index* (``0 <= index < N``)."""
        return node_address_from_index(index, radix=self.radix, depth=self.tree_depth)

    def node_index(self, address: NodeAddress) -> int:
        """Inverse of :meth:`node`."""
        require(address.depth == self.tree_depth, f"address depth {address.depth} != tree depth {self.tree_depth}")
        return node_index_from_address(address, radix=self.radix)

    def nodes(self) -> Iterator[NodeAddress]:
        """All nodes in index order."""
        for i in range(self.num_nodes):
            yield self.node(i)

    def switches(self) -> Iterator[SwitchAddress]:
        """All switches, level by level."""
        q = self.radix
        n = self.tree_depth
        for level in range(1, n + 1):
            prefix_len = n - level
            if level == n:
                prefixes: list[tuple[int, ...]] = [()]
            else:
                prefixes = list(_mixed_radix_tuples(prefix_len, q, top=2 * q))
            for prefix in prefixes:
                for column in _uniform_radix_tuples(level - 1, q):
                    yield SwitchAddress(level=level, prefix=prefix, column=column)

    @cached_property
    def root_switches(self) -> tuple[SwitchAddress, ...]:
        """The ``q^{n-1}`` root switches."""
        n = self.tree_depth
        return tuple(
            SwitchAddress(level=n, prefix=(), column=column)
            for column in _uniform_radix_tuples(n - 1, self.radix)
        )

    def default_root(self) -> SwitchAddress:
        """Root switch of column ``(0, …, 0)`` (concentrator attach point)."""
        return SwitchAddress(level=self.tree_depth, prefix=(), column=(0,) * (self.tree_depth - 1))

    # -- adjacency ---------------------------------------------------------------

    def leaf_switch(self, node: NodeAddress) -> SwitchAddress:
        """The level-1 switch node *node* attaches to."""
        return SwitchAddress(level=1, prefix=node.digits[:-1], column=())

    def up_neighbor(self, switch: SwitchAddress, up_port: int) -> SwitchAddress:
        """Ascend via *up_port*: drop the last prefix digit, prepend the port.

        The dropped digit becomes the down-port on the upper switch.
        """
        require(switch.level < self.tree_depth, "root switches have no up links")
        require(0 <= up_port < self.radix, f"up_port must be in [0, {self.radix})")
        return SwitchAddress(
            level=switch.level + 1,
            prefix=switch.prefix[:-1],
            column=(up_port,) + switch.column,
        )

    def down_neighbor(self, switch: SwitchAddress, down_port: int) -> Endpoint:
        """Descend via *down_port* (a switch below, or a node from level 1)."""
        limit = self.switch_ports if switch.is_root else self.radix
        require(0 <= down_port < limit, f"down_port must be in [0, {limit})")
        if switch.level == 1:
            return NodeAddress(switch.prefix + (down_port,))
        return SwitchAddress(
            level=switch.level - 1,
            prefix=switch.prefix + (down_port,),
            column=switch.column[1:],
        )

    def is_adjacent(self, lower: Endpoint, upper: SwitchAddress) -> bool:
        """True if *upper* is one level above *lower* and physically linked."""
        if isinstance(lower, NodeAddress):
            return upper == self.leaf_switch(lower)
        if lower.level + 1 != upper.level:
            return False
        return (
            upper.prefix == lower.prefix[:-1]
            and upper.column[1:] == lower.column
        )

    # -- channels ----------------------------------------------------------------

    def links(self) -> Iterator[Link]:
        """Every directed channel of the tree (both directions of each link)."""
        for node in self.nodes():
            leaf = self.leaf_switch(node)
            yield Link(node, leaf, ChannelKind.NODE_TO_SWITCH)
            yield Link(leaf, node, ChannelKind.SWITCH_TO_NODE)
        for switch in self.switches():
            if switch.level == self.tree_depth:
                continue
            for up_port in range(self.radix):
                upper = self.up_neighbor(switch, up_port)
                yield Link(switch, upper, ChannelKind.SWITCH_TO_SWITCH)
                yield Link(upper, switch, ChannelKind.SWITCH_TO_SWITCH)

    def num_full_duplex_links(self) -> int:
        """Physical full-duplex link count: ``n * N`` (every level pair carries N)."""
        return self.tree_depth * self.num_nodes

    # -- verification helpers ------------------------------------------------------

    def to_networkx(self) -> nx.Graph:
        """Undirected physical graph (nodes + switches) for structural checks."""
        import networkx as nx

        graph = nx.Graph()
        for node in self.nodes():
            graph.add_node(node, kind="node")
        for switch in self.switches():
            graph.add_node(switch, kind="switch")
        seen = set()
        for link in self.links():
            key = frozenset((link.source, link.target))
            if key in seen:
                continue
            seen.add(key)
            graph.add_edge(link.source, link.target)
        return graph


def route_level(radix: int, depth: int, source, destination):
    """NCA level ``h`` of the route ``source → destination`` between the
    node indices of an m-port n-tree with ``q = radix``, ``n = depth``.

    ``h`` is one plus the number of levels ``l < n`` whose subtree prefixes
    ``x // q^l`` differ.  Works on Python ints and, elementwise, on integer
    arrays.  A self pair has no route; callers reject it.
    """
    level = 1
    span = radix
    for _ in range(1, depth):
        level = level + (source // span != destination // span)
        span *= radix
    return level


def _up_link(radix: int, n_nodes: int, level: int, source, destination):
    """Position in :meth:`MPortNTree.links` of the up link out of the
    level-*level* switch that *source* climbs through toward *destination*
    (its reverse, the down link, is the next position)."""
    below = radix ** (level - 1)
    return 2 * (
        level * n_nodes
        + source - source % (below * radix)
        + destination % below * radix
        + destination // below % radix
    )


def route_link_ids(radix: int, depth: int, source, destination, level: int) -> list:
    """Positions in :meth:`MPortNTree.links` of the route ``source →
    destination`` that turns at level *level* (its :func:`route_level`).

    The route is the node→leaf link, the up links of levels ``1..h−1``
    (up-port = the destination's digit at that level), the down links from
    ``h`` to ``2`` toward the destination and the leaf→node link: ``2h``
    channels, the same list as :func:`~repro.topology.routing.route`.
    Works on Python ints and, elementwise, on integer arrays whose routes
    share *level*.  The round trip ``x → x`` through level ``n`` is the
    climb to ``x``'s home root followed by the descent from it.
    """
    n_nodes = 2 * radix**depth
    return (
        [2 * source]
        + [_up_link(radix, n_nodes, l, source, destination) for l in range(1, level)]
        + [_up_link(radix, n_nodes, l, destination, destination) + 1 for l in range(level - 1, 0, -1)]
        + [2 * destination + 1]
    )


def _uniform_radix_tuples(length: int, radix: int) -> Iterator[tuple[int, ...]]:
    """All base-``radix`` tuples of the given length (length 0 yields ``()``)."""
    if length == 0:
        yield ()
        return
    for head in range(radix):
        for rest in _uniform_radix_tuples(length - 1, radix):
            yield (head,) + rest


def _mixed_radix_tuples(length: int, radix: int, *, top: int) -> Iterator[tuple[int, ...]]:
    """All prefix tuples: first digit in ``[0, top)``, the rest base ``radix``."""
    if length == 0:
        yield ()
        return
    for head in range(top):
        for rest in _uniform_radix_tuples(length - 1, radix):
            yield (head,) + rest
