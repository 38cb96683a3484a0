"""m-port n-tree construction tests (topology.mport_ntree vs paper §2)."""

from functools import lru_cache

import networkx as nx
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import num_nodes, num_switches, switches_per_level
from repro.topology import ChannelKind, MPortNTree, nca_level, route, structural_summary
from repro.topology.mport_ntree import route_level, route_link_ids
from repro.topology.routing import ascend_to_root, descend_from_root, home_root

trees = st.tuples(st.sampled_from([4, 6, 8]), st.integers(1, 3))


class TestPopulation:
    @given(trees)
    def test_counts_match_closed_forms(self, params):
        m, n = params
        tree = MPortNTree(m, n)
        assert tree.num_nodes == num_nodes(m, n)
        assert tree.num_switches == num_switches(m, n)
        assert sum(1 for _ in tree.switches()) == tree.num_switches
        assert sum(1 for _ in tree.nodes()) == tree.num_nodes

    @given(trees)
    def test_switches_per_level(self, params):
        m, n = params
        tree = MPortNTree(m, n)
        per_level = switches_per_level(m, n)
        for level in range(1, n + 1):
            count = sum(1 for s in tree.switches() if s.level == level)
            assert count == per_level[level - 1]

    @given(trees)
    def test_root_switch_count(self, params):
        m, n = params
        tree = MPortNTree(m, n)
        assert len(tree.root_switches) == (m // 2) ** (n - 1)

    def test_rejects_odd_ports(self):
        with pytest.raises(ValueError):
            MPortNTree(5, 2)


class TestAdjacency:
    @given(trees, st.data())
    def test_up_down_are_inverse(self, params, data):
        m, n = params
        tree = MPortNTree(m, n)
        switches = [s for s in tree.switches() if s.level < n]
        if not switches:
            return
        switch = data.draw(st.sampled_from(switches))
        port = data.draw(st.integers(0, tree.radix - 1))
        upper = tree.up_neighbor(switch, port)
        down_port = switch.prefix[-1]
        assert tree.down_neighbor(upper, down_port) == switch
        assert tree.is_adjacent(switch, upper)

    @given(trees, st.data())
    def test_leaf_switch_adjacency(self, params, data):
        m, n = params
        tree = MPortNTree(m, n)
        node = tree.node(data.draw(st.integers(0, tree.num_nodes - 1)))
        leaf = tree.leaf_switch(node)
        assert leaf.level == 1
        assert tree.is_adjacent(node, leaf)
        assert tree.down_neighbor(leaf, node.leaf_port) == node

    def test_root_has_wide_down_ports(self):
        tree = MPortNTree(8, 2)
        root = tree.root_switches[0]
        children = {tree.down_neighbor(root, p) for p in range(8)}
        assert len(children) == 8
        with pytest.raises(ValueError):
            tree.up_neighbor(root, 0)


class TestChannels:
    @given(trees)
    def test_link_count_and_uniqueness(self, params):
        m, n = params
        tree = MPortNTree(m, n)
        links = list(tree.links())
        keys = {(l.source, l.target) for l in links}
        assert len(keys) == len(links)  # no duplicate directed channels
        assert len(links) == 2 * tree.num_full_duplex_links()

    @given(trees)
    def test_kinds_partition(self, params):
        m, n = params
        tree = MPortNTree(m, n)
        kinds = [l.kind for l in tree.links()]
        node_links = sum(1 for k in kinds if k is not ChannelKind.SWITCH_TO_SWITCH)
        assert node_links == 2 * tree.num_nodes

    @given(trees)
    def test_graph_is_connected(self, params):
        m, n = params
        tree = MPortNTree(m, n)
        summary = structural_summary(tree)
        assert summary["connected"]
        assert summary["num_links"] == summary["expected_links"]

    def test_networkx_degrees(self):
        tree = MPortNTree(4, 2)
        graph = tree.to_networkx()
        for vertex, data in graph.nodes(data=True):
            if data["kind"] == "node":
                assert graph.degree(vertex) == 1
            elif vertex.is_root:
                assert graph.degree(vertex) == 4  # all m ports down
            else:
                assert graph.degree(vertex) == 4  # m/2 down + m/2 up

    def test_tree_diameter_bound(self):
        # Any two nodes are within 2n + ... the graph diameter (in hops,
        # nodes+switches alternating) is 2(n+1) - 2 node-hops at most.
        tree = MPortNTree(4, 3)
        graph = tree.to_networkx()
        assert nx.diameter(graph) <= 2 * (tree.tree_depth + 1)


@lru_cache(maxsize=None)
def link_positions(m, n):
    """The tree and its ``(source, target) → position in links()`` map."""
    tree = MPortNTree(m, n)
    return tree, {(link.source, link.target): i for i, link in enumerate(tree.links())}


def positions(index, route_):
    return [index[(link.source, link.target)] for link in route_.links]


@st.composite
def tree_and_pairs(draw):
    m, n = draw(st.tuples(st.sampled_from([4, 6, 8, 10]), st.integers(1, 3)))
    total = 2 * (m // 2) ** n
    nodes = st.integers(0, total - 1)
    pairs = draw(st.lists(st.tuples(nodes, nodes).filter(lambda p: p[0] != p[1]), min_size=1, max_size=30))
    return m, n, pairs


class TestChannelNumbering:
    """The closed form is the numbering of links(): route_link_ids gives
    the links() positions of every route the object router builds."""

    @given(tree_and_pairs())
    def test_routes_match_the_router_at_any_radix(self, case):
        m, n, pairs = case
        tree, index = link_positions(m, n)
        q = m // 2
        for s, d in pairs:
            h = nca_level(tree, tree.node(s), tree.node(d))
            assert route_level(q, n, s, d) == h
            assert route_link_ids(q, n, s, d, h) == positions(index, route(tree, tree.node(s), tree.node(d)))

    @given(tree_and_pairs())
    def test_round_trip_is_the_home_root_climb_and_descent(self, case):
        m, n, pairs = case
        tree, index = link_positions(m, n)
        q = m // 2
        for x, _ in pairs:
            node = tree.node(x)
            root = home_root(tree, node)
            assert tree.root_switches.index(root) == x % q ** (n - 1)
            trip = route_link_ids(q, n, x, x, n)
            assert trip[:n] == positions(index, ascend_to_root(tree, node, root))
            assert trip[n:] == positions(index, descend_from_root(tree, root, node))

    @given(tree_and_pairs())
    def test_arrays_are_elementwise_ints(self, case):
        m, n, pairs = case
        q = m // 2
        s, d = (np.array(col) for col in zip(*pairs))
        levels = np.broadcast_to(route_level(q, n, s, d), s.shape)
        assert levels.tolist() == [route_level(q, n, a, b) for a, b in pairs]
        for h in np.unique(levels).tolist():
            sel = levels == h
            rows = np.stack(route_link_ids(q, n, s[sel], d[sel], h), axis=1)
            expected = [route_link_ids(q, n, a, b, h) for a, b in zip(s[sel].tolist(), d[sel].tolist())]
            assert rows.tolist() == expected
