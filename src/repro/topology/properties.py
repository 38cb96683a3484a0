"""Structural properties and verification utilities for m-port n-trees.

These functions bridge the closed-form combinatorics of
:mod:`repro.core.topology_math` and the explicit graphs of
:mod:`repro.topology.mport_ntree`: the test suite asserts that the
constructed topology realises exactly the distributions the analytical
model assumes (Eq. 6 journey-length pmf, Eq. 8 mean distance, switch and
link counts).
"""

from __future__ import annotations

from collections import Counter
from itertools import permutations

import numpy as np

from repro._util import require
from repro.core import topology_math as tm
from repro.topology.mport_ntree import ChannelKind, MPortNTree
from repro.topology.routing import Route, nca_level, route

__all__ = [
    "empirical_nca_distribution",
    "empirical_mean_links",
    "verify_route",
    "structural_summary",
]


def empirical_nca_distribution(tree: MPortNTree, *, source_index: int | None = None) -> np.ndarray:
    """NCA-level pmf measured on the real topology.

    With *source_index* given, enumerates that node's destinations (the pmf
    is source-invariant, which the test suite verifies); otherwise
    enumerates all ordered pairs.  Index ``h-1`` holds ``P(h)``.
    """
    counts: Counter[int] = Counter()
    if source_index is not None:
        src = tree.node(source_index)
        for dst in tree.nodes():
            if dst == src:
                continue
            counts[nca_level(tree, src, dst)] += 1
    else:
        for src, dst in permutations(tree.nodes(), 2):
            counts[nca_level(tree, src, dst)] += 1
    total = sum(counts.values())
    pmf = np.zeros(tree.tree_depth, dtype=np.float64)
    for h, c in counts.items():
        pmf[h - 1] = c / total
    return pmf


def empirical_mean_links(tree: MPortNTree, *, source_index: int = 0) -> float:
    """Mean route length in links from one source, measured on real routes."""
    src = tree.node(source_index)
    lengths = [
        route(tree, src, dst).num_links
        for dst in tree.nodes()
        if dst != src
    ]
    return float(np.mean(lengths))


def verify_route(tree: MPortNTree, path: Route) -> None:
    """Assert that *path* is physically realisable and Up*/Down* shaped.

    Checks every hop against the tree's adjacency, that levels first
    ascend monotonically and then descend (no valleys — the Up*/Down*
    deadlock-freedom invariant) and that endpoint kinds match the channel
    kinds.  Raises ``ValueError`` with a diagnostic on violation.
    """
    levels: list[int] = []
    for link in path.links:
        src, dst = link.source, link.target
        if link.kind is ChannelKind.NODE_TO_SWITCH:
            ok = hasattr(dst, "level") and tree.is_adjacent(src, dst)
        elif link.kind is ChannelKind.SWITCH_TO_NODE:
            ok = hasattr(src, "level") and tree.is_adjacent(dst, src)
        else:
            lo, hi = (src, dst) if src.level < dst.level else (dst, src)
            ok = tree.is_adjacent(lo, hi)
        require(ok, f"hop {src} -> {dst} ({link.kind.value}) is not a physical link")
        if hasattr(dst, "level"):
            levels.append(dst.level)
    # Up*/Down*: the switch-level sequence must be unimodal (rise then fall).
    descending = False
    for prev, cur in zip(levels, levels[1:]):
        if cur < prev:
            descending = True
        elif cur > prev and descending:
            raise ValueError(f"route violates Up*/Down*: level sequence {levels}")


def structural_summary(tree: MPortNTree) -> dict:
    """Key structural facts, cross-checked against the closed forms."""
    import networkx as nx

    graph = tree.to_networkx()
    switches = [v for v, d in graph.nodes(data=True) if d["kind"] == "switch"]
    nodes = [v for v, d in graph.nodes(data=True) if d["kind"] == "node"]
    return {
        "num_nodes": len(nodes),
        "num_switches": len(switches),
        "num_links": graph.number_of_edges(),
        "expected_nodes": tree.num_nodes,
        "expected_switches": tree.num_switches,
        "expected_links": tree.num_full_duplex_links(),
        "connected": nx.is_connected(graph),
        "mean_links_closed_form": tm.mean_journey_links(tree.switch_ports, tree.tree_depth),
    }
