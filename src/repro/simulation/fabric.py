"""Resolved fabric: integer channel ids, flit times and one table of legs.

The simulators work on dense integer channel ids instead of structured
:class:`~repro.cluster.channels.SystemChannel` objects.  A
:class:`ResolvedFabric` binds a :class:`~repro.cluster.system.
HeterogeneousSystem` to one :class:`~repro.core.parameters.MessageSpec`,
assigning every directed channel its per-flit service time (``t_cn`` /
``t_cs`` of the owning network — the same primitives the analytical model
uses) and a reporting group:

``icn1`` / ``ecn1`` / ``icn2``
    ordinary channels of each network;
``cd-concentrate``
    the concentrator→ICN2 injection channel (the Eq. 37 concentrate buffer
    server);
``cd-dispatch``
    the dispatcher→ECN1 injection channel (the dispatch buffer server).

A channel's flit time, group and "uncontended" flag are constant on
sub-blocks of :attr:`~repro.cluster.system.HeterogeneousSystem.
channel_blocks` — a tree's node links and switch links, the two
directions of a concentrator attachment, the ICN2 node links at the
concentrators — so the fabric fills its three per-channel tables block by
block in numpy and never builds a :class:`~repro.cluster.channels.
SystemChannel`.  :meth:`HeterogeneousSystem.channels` and the object
router stay as the readable oracle the tests compare these tables and the
legs against.

A journey is one leg (its ICN1 route) or three (the ECN1 ascent, the ICN2
crossing and the ECN1 descent, paper Fig. 2).  The leg is the only unit
of path state: the fabric builds each leg once, on first use, with a
dense leg id — the ascent and the descent per node, the ICN2 crossing per
cluster pair, the ICN1 route per intra-cluster pair — and every journey
reads legs by id, as the model prices each leg per cluster class and
never per pair.

Legs are computed in closed form, not routed through address objects.
Channel ids follow :meth:`HeterogeneousSystem.channels`: each tree's
channels in :meth:`~repro.topology.mport_ntree.MPortNTree.links` order from
its block base (:attr:`~repro.cluster.system.HeterogeneousSystem.
channel_blocks`), so :func:`~repro.topology.mport_ntree.route_link_ids`
gives every channel of a route from the endpoints' node indices.  The
ascent of node ``x`` in an ECN1 of depth ``n`` is the first ``n`` channels
of the round trip ``x → x`` through level ``n`` — the climb to its home
root ``r = x mod q^{n−1}`` — then root ``r`` → concentrator; the descent
is concentrator → root ``r``, then the last ``n``.  The same arithmetic
builds one leg from Python ints (:meth:`~ResolvedFabric.leg_ids`, for the
reference loop and the flit engine) or many legs from integer arrays,
batched so that the legs of a batch have one kind, tree depth and turn
level (:meth:`~ResolvedFabric.leg_rows`, for the array engine).  The table
keeps channel ids flat in numpy with per-leg offsets and bottleneck flit
times; its Python views (:attr:`~ResolvedFabric.legs`,
:meth:`~ResolvedFabric.hot_records`) are materialised on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from repro._util import require
from repro.cluster.system import HeterogeneousSystem
from repro.core.parameters import MessageSpec, ModelOptions, NetworkCharacteristics
from repro.core.service_times import ServiceTimes
from repro.topology.mport_ntree import MPortNTree, route_level, route_link_ids

__all__ = ["ResolvedSegment", "ResolvedFabric", "GROUPS"]

GROUPS: tuple[str, ...] = ("icn1", "ecn1", "icn2", "cd-concentrate", "cd-dispatch")

# Leg kinds, in the order of their key ranges (see ResolvedFabric._key).
_ICN1, _UP, _DOWN, _ICN2 = range(4)


@dataclass(frozen=True)
class ResolvedSegment:
    """One wormhole leg as the simulators consume it."""

    channel_ids: tuple[int, ...]
    bottleneck_flit_time: float


class ResolvedFabric:
    """Dense-id view of the fabric for one message specification."""

    def __init__(
        self,
        system: HeterogeneousSystem,
        message: MessageSpec,
        options: ModelOptions | None = None,
    ) -> None:
        self.system = system
        self.message = message
        self.options = options or ModelOptions()

        self._radix = system.config.switch_ports // 2
        self._blocks = system.channel_blocks
        self.num_channels = self._blocks.total
        #: Per-channel flit times, reporting groups (indices into
        #: :data:`GROUPS`) and "grants without queueing" flags, in the
        #: dtypes the compiled kernel reads.  The uncontended channels are
        #: the links into a concentrator/dispatcher buffer: the paper models
        #: every segment sink as "always able to receive" (Eq. 29's final
        #: stage has no blocking term), so the simulators treat them as
        #: interleaving, non-blocking ingress links.
        self.flit_time, self.group, self.uncontended = self._channel_tables()
        self._flit_list: list[float] = self.flit_time.tolist()
        self._flag_list: list[int] = self.uncontended.tolist()
        self._group_counts = dict(zip(GROUPS, np.bincount(self.group, minlength=len(GROUPS)).tolist()))

        # The closed-form layout: per cluster its tree depth and first node
        # id (the channel block bases are self._blocks).
        clusters = system.clusters
        self._depth = [c.spec.tree_depth for c in clusters]
        self._first = [c.first_global_id for c in clusters]
        self._cluster_of = np.repeat(np.arange(len(clusters)), [c.num_nodes for c in clusters])
        #: node id -> cluster index (the hot loop's per-delivery lookup).
        self.cluster_index: list[int] = self._cluster_of.tolist()

        # The leg table: leg key -> leg id; per leg its channel ids (flat,
        # with offsets) and bottleneck flit time in numpy, after the legs
        # built one at a time since the last batch, which wait in Python
        # lists (lengths, channel ids, flit times) so that building one leg
        # makes no numpy call.
        self._leg_id: dict[int, int] = {}
        self._offsets = np.zeros(1, dtype=np.int64)
        self._cids = np.empty(0, dtype=np.int32)
        self._tau = np.empty(0, dtype=np.float64)
        self._pending: tuple[list, list, list] = ([], [], [])
        self._legs: list[ResolvedSegment] = []
        self._hot: list[tuple] = []

    # -- the leg table -------------------------------------------------------------

    @property
    def num_legs(self) -> int:
        """Legs built so far; leg ids are ``0 .. num_legs − 1``."""
        return self._tau.size + len(self._pending[2])

    def _key(self, kind: int, a, b):
        """The table key of a leg (ints, or int arrays elementwise): ICN1
        routes ``a → b`` by node ids, then ascents and descents of node
        ``a``, then ICN2 crossings ``a → b`` by cluster index."""
        n = self.system.total_nodes
        if kind == _ICN1:
            return a * n + b
        if kind == _ICN2:
            return n * n + 2 * n + a * len(self.system.clusters) + b
        return n * n + (kind - 1) * n + a

    def _channel_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(flit_time, group, uncontended)`` per channel, filled per
        sub-block of :attr:`~repro.cluster.system.HeterogeneousSystem.
        channel_blocks` with one :class:`ServiceTimes` per network.

        In a tree block the first ``2N`` channels are node links (``t_cn``)
        and the rest switch links (``t_cs``), all in the tree's group.  In
        cluster ``k``'s attachment block, root ``r`` → concentrator (``attach
        + 2r``) is an uncontended ``ecn1`` channel and the reverse a
        ``cd-dispatch`` one, both at the ECN1's ``t_cn``.  Among the ICN2
        node links, concentrator ``x`` → leaf (``2x``) is ``cd-concentrate``
        and leaf → concentrator ``x`` (``2x + 1``) is uncontended.
        """
        system = self.system
        blocks = self._blocks
        flit_time = np.empty(blocks.total, dtype=np.float64)
        group = np.empty(blocks.total, dtype=np.int8)
        uncontended = np.zeros(blocks.total, dtype=np.int8)

        def tree(base: int, topology: MPortNTree, network: NetworkCharacteristics, name: str) -> ServiceTimes:
            st = ServiceTimes.for_network(network, self.message, self.options)
            nodes = base + 2 * topology.num_nodes
            end = base + 2 * topology.num_full_duplex_links()
            flit_time[base:nodes] = st.t_cn
            flit_time[nodes:end] = st.t_cs
            group[base:end] = GROUPS.index(name)
            return st

        for k, cluster in enumerate(system.clusters):
            tree(blocks.icn1[k], cluster.icn1, cluster.spec.icn1, "icn1")
            ecn1 = tree(blocks.ecn1[k], cluster.ecn1, cluster.spec.ecn1, "ecn1")
            if len(system.clusters) > 1:
                base = blocks.attach[k]
                end = base + 2 * self._radix ** (cluster.spec.tree_depth - 1)
                flit_time[base:end] = ecn1.t_cn
                group[base:end:2] = GROUPS.index("ecn1")
                uncontended[base:end:2] = 1
                group[base + 1 : end : 2] = GROUPS.index("cd-dispatch")
        if len(system.clusters) > 1:
            base = blocks.icn2
            tree(base, system.icn2, system.config.icn2, "icn2")
            nodes = base + 2 * system.icn2.num_nodes
            group[base:nodes:2] = GROUPS.index("cd-concentrate")
            uncontended[base + 1 : nodes : 2] = 1
        return flit_time, group, uncontended

    def _columns(self, kind: int, depth: int, level: int, s, d, base, attach) -> list:
        """Channel ids, position by position, of legs of one *kind* in trees
        of *depth* that turn at *level*: *s*, *d* are tree-local endpoint
        indices (``s == d`` for ECN1 legs), *base* the tree block's first
        channel id and *attach* the concentrator attachments' (ints, or int
        arrays elementwise)."""
        ids = route_link_ids(self._radix, depth, s, d, level)
        if kind == _UP:
            return [base + c for c in ids[:depth]] + [attach + 2 * (s % self._radix ** (depth - 1))]
        if kind == _DOWN:
            return [attach + 2 * (s % self._radix ** (depth - 1)) + 1] + [base + c for c in ids[depth:]]
        return [base + c for c in ids]

    def _leg(self, kind: int, a: int, b: int) -> int:
        """The id of one leg (node ids, or cluster indices for ICN2),
        building it from Python ints on first use."""
        key = self._key(kind, a, b)
        leg = self._leg_id.get(key)
        if leg is not None:
            return leg
        blocks = self._blocks
        if kind == _ICN2:
            depth, first, base, attach = self.system.icn2.tree_depth, 0, blocks.icn2, 0
        else:
            k = self.cluster_index[a]
            depth, first, attach = self._depth[k], self._first[k], blocks.attach[k]
            base = (blocks.icn1 if kind == _ICN1 else blocks.ecn1)[k]
        s, d = a - first, b - first
        level = route_level(self._radix, depth, s, d) if kind in (_ICN1, _ICN2) else depth
        ids = tuple(self._columns(kind, depth, level, s, d, base, attach))
        tau = max([self._flit_list[c] for c in ids])
        leg = self.num_legs
        lengths, cids, taus = self._pending
        lengths.append(len(ids))
        cids.extend(ids)
        taus.append(tau)
        if len(self._legs) == leg:
            self._legs.append(ResolvedSegment(channel_ids=ids, bottleneck_flit_time=tau))
        self._leg_id[key] = leg
        return leg

    def _build(self, keys: np.ndarray) -> np.ndarray:
        """Build and key the legs of the sorted, absent *keys* in batches
        of one kind, tree depth and turn level; returns their new ids."""
        blocks = self._blocks
        self.leg_table()  # store the pending legs first: ids follow storage order
        next_id = self.num_legs
        ids = np.empty(keys.size, dtype=np.int64)
        built = []
        starts = [self._key(kind, 0, 0) for kind in (_ICN1, _UP, _DOWN, _ICN2)]
        spans = np.searchsorted(keys, starts + [np.iinfo(np.int64).max])
        for kind, start in enumerate(starts):
            at = np.arange(spans[kind], spans[kind + 1])
            if not at.size:
                continue
            offset = keys[at] - start
            if kind == _ICN2:
                a, b = np.divmod(offset, len(self.system.clusters))
                depth_of = np.full(at.size, self.system.icn2.tree_depth)
                first = attach = np.zeros(at.size, dtype=np.int64)
                base = np.full(at.size, blocks.icn2)
            else:
                a, b = np.divmod(offset, self.system.total_nodes) if kind == _ICN1 else (offset, offset)
                k = self._cluster_of[a]
                depth_of, first, attach = (np.take(v, k) for v in (self._depth, self._first, blocks.attach))
                base = np.take(blocks.icn1 if kind == _ICN1 else blocks.ecn1, k)
            s, d = a - first, b - first
            for depth in np.flatnonzero(np.bincount(depth_of)).tolist():
                sel = np.flatnonzero(depth_of == depth)
                if kind in (_ICN1, _ICN2):
                    level_of = np.broadcast_to(route_level(self._radix, depth, s[sel], d[sel]), sel.shape)
                else:
                    level_of = np.full(sel.size, depth)
                for level in np.flatnonzero(np.bincount(level_of)).tolist():
                    grp = sel[level_of == level]
                    rows = np.stack(
                        self._columns(kind, depth, level, s[grp], d[grp], base[grp], attach[grp]), axis=1
                    )
                    ids[at[grp]] = np.arange(next_id, next_id + grp.size)
                    next_id += grp.size
                    built.append(rows)
        self._store(
            np.repeat([rows.shape[1] for rows in built], [rows.shape[0] for rows in built]),
            np.concatenate([rows.ravel() for rows in built]),
            np.concatenate([self.flit_time[rows].max(axis=1) for rows in built]),
        )
        self._leg_id.update(zip(keys.tolist(), ids.tolist()))
        return ids

    def _store(self, lengths, cids, tau) -> None:
        """Append legs to the numpy table: their lengths, their channel ids
        back to back and their bottleneck flit times."""
        self._offsets = np.concatenate((self._offsets, self._offsets[-1] + np.cumsum(lengths)))
        self._cids = np.concatenate((self._cids, np.asarray(cids, dtype=np.int32)))
        self._tau = np.concatenate((self._tau, np.asarray(tau, dtype=np.float64)))

    def leg_ids(self, source: int, destination: int) -> tuple[int, ...]:
        """Leg ids of the journey ``source → destination`` (flat node ids):
        the ICN1 route, or the ascent, the ICN2 crossing and the descent."""
        n = self.system.total_nodes
        require(0 <= source < n and 0 <= destination < n, f"node ids must be in [0, {n})")
        require(source != destination, "source and destination must differ")
        i = self.cluster_index[source]
        j = self.cluster_index[destination]
        leg = self._leg
        if i == j:
            return (leg(_ICN1, source, destination),)
        return (leg(_UP, source, source), leg(_ICN2, i, j), leg(_DOWN, destination, destination))

    def leg_rows(self, sources, destinations) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`leg_ids` of many journeys at once, as int32 ``(offsets,
        ids)``: journey ``r``'s leg ids are ``ids[offsets[r]:offsets[r+1]]``.

        The journeys' absent legs are built in batches (:meth:`_build`);
        the same checks as :meth:`leg_ids` apply to every journey.
        """
        src = np.asarray(sources, dtype=np.int64)
        dst = np.asarray(destinations, dtype=np.int64)
        n = self.system.total_nodes
        require(
            not src.size or (min(src.min(), dst.min()) >= 0 and max(src.max(), dst.max()) < n),
            f"node ids must be in [0, {n})",
        )
        require(not np.any(src == dst), "source and destination must differ")
        i = self._cluster_of[src]
        j = self._cluster_of[dst]
        inter = i != j
        offsets = np.zeros(src.size + 1, dtype=np.int64)
        np.cumsum(np.where(inter, 3, 1), out=offsets[1:])
        keys = np.empty(int(offsets[-1]), dtype=np.int64)
        head = offsets[:-1]
        keys[head] = np.where(inter, self._key(_UP, src, src), self._key(_ICN1, src, dst))
        keys[head[inter] + 1] = self._key(_ICN2, i[inter], j[inter])
        keys[head[inter] + 2] = self._key(_DOWN, dst[inter], dst[inter])
        unique, inverse = np.unique(keys, return_inverse=True)
        ids = np.fromiter(map(self._leg_id.get, unique.tolist(), repeat(-1)), np.int64, unique.size)
        absent = ids < 0
        if absent.any():
            ids[absent] = self._build(unique[absent])
        return offsets.astype(np.int32), ids[inverse].astype(np.int32)

    def leg_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(offsets, channel_ids, bottleneck_flit_times)`` of every leg
        built so far (int64, int32, float64): leg ``g``'s channels are
        ``channel_ids[offsets[g]:offsets[g+1]]``."""
        lengths, cids, tau = self._pending
        if tau:
            self._store(lengths, cids, tau)
            self._pending = ([], [], [])
        return self._offsets, self._cids, self._tau

    # -- Python views of the table ---------------------------------------------------

    @property
    def legs(self) -> list[ResolvedSegment]:
        """Every leg built so far as a :class:`ResolvedSegment`, by leg id."""
        views = self._legs
        done = len(views)
        if done < self.num_legs:
            offsets, cids, tau = self.leg_table()
            bounds = (offsets[done:] - offsets[done]).tolist()
            ids = cids[offsets[done]:].tolist()
            views.extend(
                ResolvedSegment(channel_ids=tuple(ids[lo:hi]), bottleneck_flit_time=t)
                for lo, hi, t in zip(bounds, bounds[1:], tau[done:].tolist())
            )
        return views

    def resolve(self, source: int, destination: int) -> tuple[ResolvedSegment, ...]:
        """Segments of the journey ``source → destination`` (flat node ids)."""
        ids = self.leg_ids(source, destination)
        legs = self.legs
        return tuple(legs[i] for i in ids)

    def hot_records(self) -> list[tuple]:
        """The hot-loop record of every leg built so far, by leg id.

        A record is ``(channel_ids, hold_times, tau, drain, last,
        rel_items)`` where ``hold_times[k] = M·τ_k`` (full-message occupancy
        of channel *k*), ``drain = (M−1)·τ*`` (tail streaming at the
        bottleneck rate), ``last = len(channel_ids) − 1`` and ``rel_items``
        holds ``(k, channel_id, M·τ_k, (last−k)·τ*)`` for the leg's
        *contended* channels only — the release arithmetic the hot loop
        runs at every segment sink, with every product folded in and the
        :attr:`uncontended` branch resolved away.  The list lives on the
        fabric and grows as legs appear, so a session reuses it across
        load points and seeds.
        """
        records = self._hot
        flags = self._flag_list
        m = self.message.length_flits
        flit_time = self._flit_list
        for leg in self.legs[len(records):]:
            cids = leg.channel_ids
            tau = leg.bottleneck_flit_time
            last = len(cids) - 1
            hold = tuple(m * flit_time[c] for c in cids)
            rel_items = tuple(
                (kk, cids[kk], hold[kk], (last - kk) * tau)
                for kk in range(last + 1)
                if not flags[cids[kk]]
            )
            records.append((cids, hold, tau, (m - 1) * tau, last, rel_items))
        return records

    def hot_resolver(self):
        """``resolve(source, destination)`` for the reference loop: the
        journey's :meth:`hot_records`, looked up by leg id."""
        records = self.hot_records()
        leg_ids = self.leg_ids

        def resolve(source: int, destination: int) -> tuple:
            ids = leg_ids(source, destination)
            if len(records) < self.num_legs:
                self.hot_records()
            return tuple([records[i] for i in ids])

        return resolve

    # -- reporting -------------------------------------------------------------------

    def channels_per_group(self) -> dict[str, int]:
        """Directed channel counts by reporting group."""
        return dict(self._group_counts)
