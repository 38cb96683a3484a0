"""The parameter plan: a cell list packed into stack-wide journey families.

A :class:`ParameterPlan` builds one scalar
:class:`~repro.core.model.AnalyticalModel` per cell (only the cheap class
decomposition and destination weighting) and groups the cells by
structure signature: switch arity, single-cluster-ness, ICN2 depth and
the classes' depths and names, so every cell of a :class:`_CellGroup`
has the same classes in the same order.  Every rate of the model is
linear in the load, so the plan stores per-row slopes, channel times,
tail times, relaxing factors and destination weights, and the closed
forms (:mod:`repro.core.stacked`) realise them over rows of loads.

Journey depth is per-row data.  The rows of the whole stack live in
journey families: one :class:`_IntraBlock` for every class of every
depth, and one :class:`_PairBlock` per ICN2 depth ``n_c`` for every
ordered class pair.  Each is its journey shapes' rows concatenated shape
by shape, then group by group: an intra shape is a ``(switch_ports,
tree_depth)``, a pair shape a ``(switch_ports, d_src, d_dst, n_c)``, and
within a shape a group's pairs are member-major, so row ``first + p · C +
c`` is member ``p`` in cell ``c``.  A group addresses its rows by first
row per class and per ordered pair.  Each row carries its shape, and
through it its depths and pmf weights, so one solver call prices rows of
several shapes.  A shape's journey structure is derived once per process
and shared read-only.

:data:`_SOLVE_ELEMENTS` is the engine's one working-set budget.  Three
rules read it from this module: the chunk rule :func:`_solve_calls`, the
class batches of :meth:`_CellGroup.batches` and the saturation search's
runs (:meth:`~repro.core.stacked.StackedModel._source_queue_saturation_rows`).
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro._util import require
from repro.core.model import AnalyticalModel
from repro.core.service_times import ServiceTimes
from repro.core.topology_math import journey_length_pmf, mean_journey_links

__all__ = ["ParameterPlan"]


#: The engine's one working-set budget, in elements.  It bounds three
#: things: a solver call's padded scratch, ``(n_c, d_dst, rows, loads)``
#: for a pair solve and ``(depth, rows, loads)`` for an intra solve at the
#: call's deepest row (:func:`_solve_calls`); an evaluation's batch of
#: source classes, as pair row-loads (:meth:`_CellGroup.batches`); and a
#: saturation run's first round, as row-loads
#: (:meth:`StackedModel._source_queue_saturation_rows`).  Each derived
#: size is at least one row or class.  A row count alone does not bound a
#: solve: with solves of up to 256 rows at any probe width, the saturation
#: peak of a 90-cell ``544-hotspot`` explore grid rose from 6.7 to 11.7 MB
#: (traced, 2-core host); a budget of 8,192 elements made explore no
#: faster.
_SOLVE_ELEMENTS = 32_768


# ---------------------------------------------------------------------------
# group-constant journey structure (shapes shared by every cell of a group)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Structure:
    """A journey layout: shared by every plan of the process, so its arrays are read-only."""

    def __post_init__(self) -> None:
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False


@dataclass(frozen=True)
class _IntraStructure(_Structure):
    """Journey layout of one class's intra-cluster model (cell-independent)."""

    pmf: np.ndarray  # (depth,) journey pmf
    two_h_minus_1: np.ndarray  # (depth,) = 2·(h − 1), the tail-time slopes
    mean_links: float
    tree_depth: int


@dataclass(frozen=True)
class _PairStructure(_Structure):
    """Journey layout of one ordered class pair (cell-independent)."""

    weights: np.ndarray  # (J,) journey pmf products (r, v, l order)
    r_minus_1: np.ndarray  # (J,)
    v_minus_1: np.ndarray  # (J,)
    two_l: np.ndarray  # (J,)
    d_src: int
    d_dst: int
    n_c: int
    d_e1: float
    d_i2: float


#: Distinct journey structures a process keeps; the registry's 16 scenarios
#: derive 60.
_STRUCTURES = 256


@functools.lru_cache(maxsize=_STRUCTURES)
def _intra_structure(switch_ports: int, depth: int) -> _IntraStructure:
    h_values = np.arange(1, depth + 1, dtype=np.float64)
    return _IntraStructure(
        pmf=journey_length_pmf(switch_ports, depth),
        two_h_minus_1=2.0 * (h_values - 1.0),
        mean_links=mean_journey_links(switch_ports, depth),
        tree_depth=depth,
    )


@functools.lru_cache(maxsize=_STRUCTURES)
def _pair_structure(
    switch_ports: int, depth_src: int, depth_dst: int, n_c: int
) -> _PairStructure:
    pmf_r = journey_length_pmf(switch_ports, depth_src)
    pmf_v = journey_length_pmf(switch_ports, depth_dst)
    pmf_l = journey_length_pmf(switch_ports, n_c)
    count = depth_src * depth_dst * n_c
    weights = np.empty(count, dtype=np.float64)
    r_m1 = np.empty(count, dtype=np.float64)
    v_m1 = np.empty(count, dtype=np.float64)
    two_l = np.empty(count, dtype=np.float64)
    j = 0
    for r in range(1, depth_src + 1):
        p_r = float(pmf_r[r - 1])
        for v in range(1, depth_dst + 1):
            p_rv = p_r * float(pmf_v[v - 1])
            for l_hops in range(1, n_c + 1):
                weights[j] = p_rv * float(pmf_l[l_hops - 1])
                r_m1[j] = float(r - 1)
                v_m1[j] = float(v - 1)
                two_l[j] = float(2 * l_hops)
                j += 1
    return _PairStructure(
        weights=weights,
        r_minus_1=r_m1,
        v_minus_1=v_m1,
        two_l=two_l,
        d_src=depth_src,
        d_dst=depth_dst,
        n_c=n_c,
        d_e1=mean_journey_links(switch_ports, depth_src),
        d_i2=mean_journey_links(switch_ports, n_c),
    )


# ---------------------------------------------------------------------------
# stacked parameter planes: stack-wide journey families, addressed by cell groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _IntraBlock:
    """The intra-cluster rows of every class in the stack: one journey family.

    One row per cell of every class, shape by shape (a shape is a
    ``(switch_ports, tree_depth)``, in order of first appearance), then
    group-major, class order, cell.  Each row carries its shape — and
    through it its depth and pmf weights — and its mean journey links, so
    one solve prices rows of several depths.  The per-cell group flags
    (``m_flits``, ``var_paper``, ``sqr_per_node``) are tiled the same way.
    """

    structures: tuple[_IntraStructure, ...]  # per shape
    depths: np.ndarray  # per shape: tree depth
    weights: np.ndarray  # per shape: journey pmf, zero past its depth
    scratch: np.ndarray  # per shape: solver scratch elements per row and load
    shape: np.ndarray  # per row: its shape
    mean_links: np.ndarray
    m_flits: np.ndarray
    var_paper: np.ndarray  # variance_approximation == "paper"
    sqr_per_node: np.ndarray  # source_queue_rate == "per_node"
    t_cs: np.ndarray  # ICN1 switch-stage channel time
    t_cn: np.ndarray  # ICN1 final-stage channel time
    nodes: np.ndarray  # N_i (float64, exact)
    u: np.ndarray  # U_i
    count: np.ndarray
    intra_fraction: np.ndarray  # 1 − U_i
    eta_divisor: np.ndarray  # 4 n_i N_i
    tail_time: np.ndarray  # E_in (Eq. 19)
    min_service: np.ndarray  # M t_cn

    @property
    def size(self) -> int:
        return int(self.t_cs.size)


@dataclass(frozen=True)
class _PairBlock:
    """The ordered class pairs of one ICN2 depth ``n_c`` across the stack: one journey family.

    One row per cell of every ordered class pair whose system has that
    ICN2 depth, shape by shape (a shape is a ``(switch_ports, d_src,
    d_dst, n_c)``, in order of first appearance), then group-major, then
    member-major (a group's members of a shape are its ``(i, j)`` pairs of
    that shape in row-major order), then cell.  Each row carries its shape
    — and through it its depths and pmf weights — and its mean ECN1 and
    ICN2 journey links, so one solve prices rows of several shapes.  The
    per-cell group flags are tiled the same way.
    """

    structures: tuple[_PairStructure, ...]  # per shape
    n_c: int
    depths: np.ndarray  # per shape: (d_src, d_dst)
    weights: np.ndarray  # per shape: (d_src, d_dst, n_c) pmf products, zero past its depths
    scratch: np.ndarray  # per shape: solver scratch elements per row and load
    shape: np.ndarray  # per row: its shape
    d_e1: np.ndarray  # mean ECN1 journey links of the source depth
    d_i2: np.ndarray  # mean ICN2 journey links
    m_flits: np.ndarray
    var_paper: np.ndarray  # variance_approximation == "paper"
    sqr_aggregate: np.ndarray  # source_queue_rate == "aggregate_pair"
    conc_outgoing: np.ndarray  # concentrator_rate == "source_outgoing"
    src_cs: np.ndarray  # source ECN1 switch-stage channel time
    i2_cs: np.ndarray  # ICN2 switch-stage channel time
    dst_cs: np.ndarray  # destination ECN1 switch-stage channel time
    dst_cn: np.ndarray  # destination ECN1 final-stage channel time
    external: np.ndarray  # N_i U_i + N_j U_j (Eq. 22 slope)
    src_nodes: np.ndarray
    src_u: np.ndarray
    eta_e1_divisor: np.ndarray
    delta: np.ndarray  # Eq. 28 relaxing factor
    tail_time: np.ndarray  # E_ex (Eq. 33)
    min_service: np.ndarray  # M t_cn^{E1(i)}
    conc_service: np.ndarray  # M t_cs^{I2}
    conc_variance: np.ndarray  # Eq. 36 variance
    weight: np.ndarray  # destination weight of j in the Eq. 35/38 averages

    @property
    def size(self) -> int:
        return int(self.weight.size)

    def outward(self) -> np.ndarray:
        """Rows whose queues can saturate: the source class sends outward to a positive weight."""
        return (self.src_u > 0.0) & (self.weight > 0.0)


def _solve_calls(
    block: "_IntraBlock | _PairBlock", rows: np.ndarray, width: int
) -> list["np.ndarray | slice"]:
    """The solver calls over block *rows* at *width* loads each: the chunk rule.

    One rule for intra and pair families, in evaluations and searches
    alike.  A call's padded scratch is its largest row scratch (a pair
    row's ``n_c · d_dst``, an intra row's depth) × its rows × *width*.
    All rows are one call when that stays within :data:`_SOLVE_ELEMENTS`.
    Otherwise the rows are taken shape by shape (in row order within a
    shape), and consecutive shapes share a call only while its padded
    scratch stays within the budget.  A shape that alone exceeds it is cut
    into calls of its own, of as many rows as the budget holds at that
    shape's scratch (at least one).  Returns each call's positions in
    *rows* (``slice(None)`` for a single call).
    """
    shape = block.shape[rows]
    scratch = block.scratch[shape]
    if int(scratch.max()) * rows.size * width <= _SOLVE_ELEMENTS:
        return [slice(None)]
    order = np.argsort(shape, kind="stable")
    ends = [*(np.flatnonzero(np.diff(shape[order])) + 1).tolist(), rows.size]
    calls: list["np.ndarray | slice"] = []
    begin = start = widest = 0
    for stop in ends:
        own = int(scratch[order[start]])
        if own * (stop - start) * width > _SOLVE_ELEMENTS:
            if begin < start:
                calls.append(order[begin:start])
            step = max(1, _SOLVE_ELEMENTS // (own * width))
            calls += [order[first : min(first + step, stop)] for first in range(start, stop, step)]
            begin, widest = stop, 0
        elif max(widest, own) * (stop - begin) * width > _SOLVE_ELEMENTS:
            calls.append(order[begin:start])
            begin, widest = start, own
        else:
            widest = max(widest, own)
        start = stop
    if begin < rows.size:
        calls.append(order[begin:])
    return calls if len(calls) > 1 else [slice(None)]


@dataclass(frozen=True)
class _CellGroup:
    """All cells sharing one structure signature: class order and family rows.

    Class ``i`` of cell ``c`` is intra row ``intra[i] + c``; the ordered
    pair ``(i, j)`` of cell ``c`` is row ``pairs[i, j] + c`` of pair block
    ``family``.
    """

    indices: np.ndarray  # positions in the original cell list
    single_cluster: bool
    class_names: tuple[str, ...]
    total_nodes: np.ndarray  # (C,)
    intra: np.ndarray  # (classes,) first intra row of each class
    family: int  # its pair block; -1 when single_cluster
    pairs: np.ndarray  # (classes, classes) first pair row of each ordered pair

    @property
    def size(self) -> int:
        return int(self.indices.size)

    def batches(self, cells: int, width: int) -> Iterator[slice]:
        """Consecutive source classes per evaluation batch over *cells* cells at *width* loads.

        As many classes as fit :data:`_SOLVE_ELEMENTS` pair row-loads (a
        class holds ``classes · cells`` pair rows of *width* loads each),
        at least one; every class of a single-cluster group, which has no
        pairs.
        """
        count = len(self.class_names)
        per = count if self.single_cluster else max(1, _SOLVE_ELEMENTS // (count * cells * width))
        for first in range(0, count, per):
            yield slice(first, min(first + per, count))


def _group_signature(model: AnalyticalModel) -> tuple:
    """Cells with equal signatures share every journey-plane shape."""
    classes = model.cluster_classes
    return (
        model.system.switch_ports,
        model.system.num_clusters == 1,
        model.system.icn2_tree_depth,
        tuple((cls.tree_depth, cls.name) for cls in classes),
    )


def _journey_shape(shapes: dict, key: tuple, derive: Callable[..., Any]) -> Any:
    """The journey structure of shape *key* in *shapes*, ``derive(*key)`` on its first use."""
    if key not in shapes:
        shapes[key] = (derive(*key), [])
    return shapes[key][0]


def _add_part(shapes: dict, key: tuple, part: dict[str, np.ndarray]) -> tuple:
    """Append one group's rows *part* to shape *key* of *shapes*.

    Returns ``(key, first)``: the shape and the part's first row in it.
    """
    parts = shapes[key][1]
    first = sum(p["m_flits"].size for p in parts)
    parts.append(part)
    return key, first


def _family(shapes: dict) -> tuple[dict[str, Any], dict[tuple, int]]:
    """Concatenate *shapes* (key → (structure, parts)) in order into one family's planes.

    Returns the planes, with ``structures`` and the per-row ``shape``, and
    each shape's first row in the family.
    """
    structures = tuple(structure for structure, _ in shapes.values())
    parts = [part for _, shape_parts in shapes.values() for part in shape_parts]
    sizes = [sum(part["m_flits"].size for part in shape_parts) for _, shape_parts in shapes.values()]
    offsets = dict(zip(shapes, np.cumsum([0, *sizes[:-1]]).tolist()))
    planes: dict[str, Any] = {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}
    planes["structures"] = structures
    planes["shape"] = np.repeat(np.arange(len(structures)), sizes)
    return planes, offsets


def _intra_block(shapes: dict) -> tuple[_IntraBlock, dict[tuple, int]]:
    planes, offsets = _family(shapes)
    structures = planes["structures"]
    depths = np.array([s.tree_depth for s in structures])
    weights = np.zeros((len(structures), int(depths.max())))
    for k, structure in enumerate(structures):
        weights[k, : structure.tree_depth] = structure.pmf
    mean_links = np.array([s.mean_links for s in structures])[planes["shape"]]
    block = _IntraBlock(
        depths=depths, weights=weights, scratch=depths, mean_links=mean_links, **planes
    )
    return block, offsets


def _pair_block(shapes: dict) -> tuple[_PairBlock, dict[tuple, int]]:
    planes, offsets = _family(shapes)
    structures = planes["structures"]
    n_c = structures[0].n_c
    depths = np.array([(s.d_src, s.d_dst) for s in structures])
    weights = np.zeros((len(structures), int(depths[:, 0].max()), int(depths[:, 1].max()), n_c))
    for k, s in enumerate(structures):
        weights[k, : s.d_src, : s.d_dst] = s.weights.reshape(s.d_src, s.d_dst, n_c)
    block = _PairBlock(
        n_c=n_c,
        depths=depths,
        weights=weights,
        scratch=n_c * depths[:, 1],
        d_e1=np.array([s.d_e1 for s in structures])[planes["shape"]],
        d_i2=np.array([s.d_i2 for s in structures])[planes["shape"]],
        **planes,
    )
    return block, offsets


class ParameterPlan:
    """Packed parameters of a cell list: stack-wide journey families, addressed by cell groups.

    Packing builds one scalar :class:`AnalyticalModel` per cell (only
    the cheap class decomposition and destination weighting) and groups
    the cells by structure signature, so cells whose class decompositions
    differ land in different groups.  Each group's per-cell parameter
    planes are packed into stack-wide journey families: one
    :class:`_IntraBlock` for every class of every depth, and one
    :class:`_PairBlock` per ICN2 depth ``n_c``, each holding its journey
    shapes' rows of every group, shape by shape.  A journey structure is
    derived once per process, whatever plan and group it sits in, and
    shared read-only.  The blocks are the only
    copy of a per-row plane; a group keeps its class order and addresses
    its rows by first row per class and per ordered class pair.
    """

    def __init__(self, models: Sequence[AnalyticalModel]) -> None:
        require(len(models) > 0, "ParameterPlan needs at least one cell")
        for model in models:
            require(
                isinstance(model, AnalyticalModel),
                "ParameterPlan cells must be AnalyticalModel instances",
            )
        self.models = tuple(models)
        by_sig: dict[tuple, list[int]] = {}
        for pos, model in enumerate(self.models):
            by_sig.setdefault(_group_signature(model), []).append(pos)
        intra: dict[tuple, tuple[_IntraStructure, list[dict[str, np.ndarray]]]] = {}
        pairs: dict[tuple, tuple[_PairStructure, list[dict[str, np.ndarray]]]] = {}
        packed = [self._pack_group(positions, intra, pairs) for positions in by_sig.values()]
        self.intra, intra_first = _intra_block(intra)
        families: dict[int, dict[tuple, Any]] = {}
        for key, entry in pairs.items():  # key = (switch_ports, d_src, d_dst, n_c)
            families.setdefault(key[3], {})[key] = entry
        blocks = [_pair_block(shapes) for shapes in families.values()]
        self.pair_blocks: tuple[_PairBlock, ...] = tuple(block for block, _ in blocks)
        pair_first = {
            key: (family, first) for family, (_, firsts) in enumerate(blocks) for key, first in firsts.items()
        }
        groups = []
        for positions, single, names, total_nodes, class_parts, pair_parts in packed:
            family, pair_rows = -1, np.zeros((0, 0), dtype=np.intp)
            if pair_parts:
                family = pair_first[pair_parts[0][0]][0]
                pair_rows = np.array(
                    [pair_first[key][1] + first for key, first in pair_parts], dtype=np.intp
                ).reshape(len(names), len(names))
            groups.append(
                _CellGroup(
                    indices=np.asarray(positions, dtype=np.intp),
                    single_cluster=single,
                    class_names=names,
                    total_nodes=total_nodes,
                    intra=np.array([intra_first[key] + first for key, first in class_parts], dtype=np.intp),
                    family=family,
                    pairs=pair_rows,
                )
            )
        self.groups: tuple[_CellGroup, ...] = tuple(groups)
        # Each cell's group and its position in the group.
        self.cell_group = np.empty(self.cells, dtype=np.intp)
        self.cell_position = np.empty(self.cells, dtype=np.intp)
        for g, group in enumerate(self.groups):
            self.cell_group[group.indices] = g
            self.cell_position[group.indices] = np.arange(group.size)

    @property
    def cells(self) -> int:
        return len(self.models)

    # -- packing ---------------------------------------------------------------

    def _pack_group(self, positions: list[int], intra_shapes: dict, pair_shapes: dict) -> tuple:
        """Pack one group's cells into the journey shapes.

        Returns the group's positions, single-cluster flag, class names and
        total nodes, each class's ``(shape, first row)`` and each ordered
        pair's ``(shape, first row)``, its member's first row in the shape.
        """
        models = [self.models[p] for p in positions]
        rep = models[0]
        ports = rep.system.switch_ports
        classes0 = rep.cluster_classes
        n_cls = len(classes0)
        single = rep.system.num_clusters == 1
        n_c = rep.system.icn2_tree_depth
        m_flits = np.array([m.message.length_flits for m in models], dtype=np.float64)
        total_nodes = np.array([m.system.total_nodes for m in models], dtype=np.float64)
        var_paper = np.array(
            [m.options.variance_approximation == "paper" for m in models], dtype=bool
        )
        sqr_per_node = np.array(
            [m.options.source_queue_rate == "per_node" for m in models], dtype=bool
        )

        class_parts: list[tuple] = []
        class_planes: list[tuple[np.ndarray, ...]] = []  # per class: (e_cs, e_cn, nodes, u)
        for i in range(n_cls):
            key = (ports, classes0[i].tree_depth)
            structure = _journey_shape(intra_shapes, key, _intra_structure)
            count = len(models)
            t_cs = np.empty(count)
            t_cn = np.empty(count)
            e_cs = np.empty(count)
            e_cn = np.empty(count)
            nodes = np.empty(count)
            u = np.empty(count)
            counts = np.empty(count)
            for c, model in enumerate(models):
                src = model.cluster_classes[i]
                st = ServiceTimes.for_network(src.icn1, model.message, model.options)
                t_cs[c], t_cn[c] = st.t_cs, st.t_cn
                st_e = ServiceTimes.for_network(src.ecn1, model.message, model.options)
                e_cs[c], e_cn[c] = st_e.t_cs, st_e.t_cn
                nodes[c] = src.nodes
                u[c] = src.u
                counts[c] = src.count
            class_planes.append((e_cs, e_cn, nodes, u))
            terms = structure.pmf[None, :] * (
                structure.two_h_minus_1[None, :] * t_cs[:, None] + t_cn[:, None]
            )
            part = {
                "m_flits": m_flits,
                "var_paper": var_paper,
                "sqr_per_node": sqr_per_node,
                "t_cs": t_cs,
                "t_cn": t_cn,
                "nodes": nodes,
                "u": u,
                "count": counts,
                "intra_fraction": 1.0 - u,
                "eta_divisor": 4.0 * structure.tree_depth * nodes,
                "tail_time": np.sum(terms, axis=1),
                "min_service": m_flits * t_cn,
            }
            class_parts.append(_add_part(intra_shapes, key, part))

        slots: dict[tuple[int, int], tuple] = {}
        if not single:
            sqr_aggregate = np.array(
                [m.options.source_queue_rate == "aggregate_pair" for m in models], dtype=bool
            )
            conc_outgoing = np.array(
                [m.options.concentrator_rate == "source_outgoing" for m in models], dtype=bool
            )
            i2_cs = np.array(
                [
                    ServiceTimes.for_network(m.system.icn2, m.message, m.options).t_cs
                    for m in models
                ]
            )
            relax = np.array([m.options.relaxing_factor for m in models], dtype=bool)
            i2_beta = np.array([m.system.icn2.beta for m in models])
            src_beta = np.array(
                [[m.cluster_classes[i].ecn1.beta for m in models] for i in range(n_cls)]
            )
            with np.errstate(divide="ignore", invalid="ignore"):
                delta = np.where(relax, i2_beta / src_beta, 1.0)  # (classes, C)
            dest_weights = np.empty((n_cls, n_cls, len(models)))
            for c, model in enumerate(models):
                for i in range(n_cls):
                    row = model._destination_weights(i)
                    if model.cluster_classes[i].u > 0.0:
                        require(sum(row) > 0, "destination weights must not all be zero")
                    dest_weights[i, :, c] = [float(w) for w in row]
            # Per-class planes, (classes, C); a shape gathers its members' rows.
            e_cs, e_cn, nodes, u = (np.array(planes) for planes in zip(*class_planes))
            by_shape: dict[tuple[int, int], list[tuple[int, int]]] = {}
            for i in range(n_cls):
                for j in range(n_cls):
                    key = (classes0[i].tree_depth, classes0[j].tree_depth)
                    by_shape.setdefault(key, []).append((i, j))
            for (d_src, d_dst), members in by_shape.items():
                src = [i for i, _ in members]
                dst = [j for _, j in members]
                key = (ports, d_src, d_dst, n_c)
                structure = _journey_shape(pair_shapes, key, _pair_structure)
                flits = np.tile(m_flits, len(members))
                paper = np.tile(var_paper, len(members))
                src_cs = e_cs[src].ravel()
                dst_cs = e_cs[dst].ravel()
                dst_cn = e_cn[dst].ravel()
                src_nodes = nodes[src].ravel()
                src_u = u[src].ravel()
                i2 = np.tile(i2_cs, len(members))
                tails = (
                    structure.r_minus_1[None, :] * src_cs[:, None]
                    + structure.v_minus_1[None, :] * dst_cs[:, None]
                    + structure.two_l[None, :] * i2[:, None]
                ) + dst_cn[:, None]
                # The journey-weight sum as a left fold in journey order.
                tail_time = np.add.accumulate(structure.weights * tails, axis=1)[:, -1]
                conc_service = flits * i2
                part = {
                    "m_flits": flits,
                    "var_paper": paper,
                    "sqr_aggregate": np.tile(sqr_aggregate, len(members)),
                    "conc_outgoing": np.tile(conc_outgoing, len(members)),
                    "src_cs": src_cs,
                    "i2_cs": i2,
                    "dst_cs": dst_cs,
                    "dst_cn": dst_cn,
                    "external": src_nodes * src_u + nodes[dst].ravel() * u[dst].ravel(),
                    "src_nodes": src_nodes,
                    "src_u": src_u,
                    "eta_e1_divisor": 4.0 * d_src * src_nodes,
                    "delta": delta[src].ravel(),
                    "tail_time": tail_time,
                    "min_service": flits * e_cn[src].ravel(),
                    "conc_service": conc_service,
                    "conc_variance": np.where(
                        paper,
                        (conc_service - flits * src_cs) ** 2,  # Eq. 36
                        conc_service**2,
                    ),
                    "weight": dest_weights[src, dst].ravel(),
                }
                _, first = _add_part(pair_shapes, key, part)
                for p, pair in enumerate(members):
                    slots[pair] = (key, first + p * len(models))

        names = tuple(cls.name for cls in classes0)
        pair_parts = [slots[i, j] for i in range(n_cls) for j in range(n_cls)] if slots else []
        return positions, single, names, total_nodes, class_parts, pair_parts
