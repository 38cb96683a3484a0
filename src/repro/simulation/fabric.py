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

A journey is one leg (its ICN1 route) or three (the ECN1 ascent, the ICN2
crossing and the ECN1 descent, paper Fig. 2).  The leg is the only unit
of path state: the fabric resolves each leg once, on first use, into a
``(channel ids, bottleneck flit time)`` record with a dense leg id — the
ascent and descent per node, the ICN2 crossing per cluster pair, the ICN1
route per intra-cluster pair — and every journey reads those records by
id, as the model prices each leg per cluster class and never per pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import require
from repro.cluster.channels import Concentrator, SystemChannel
from repro.cluster.pathing import ecn1_legs, icn2_leg, intra_path
from repro.cluster.system import HeterogeneousSystem
from repro.core.parameters import MessageSpec, ModelOptions, NetworkCharacteristics
from repro.core.service_times import ServiceTimes

__all__ = ["ResolvedSegment", "ResolvedFabric", "GROUPS"]

GROUPS: tuple[str, ...] = ("icn1", "ecn1", "icn2", "cd-concentrate", "cd-dispatch")


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

        self._service_cache: dict[NetworkCharacteristics, ServiceTimes] = {}
        channels = list(system.channels())
        self.num_channels = len(channels)
        self.channel_index: dict[SystemChannel, int] = {ch: i for i, ch in enumerate(channels)}
        self.channels: tuple[SystemChannel, ...] = tuple(channels)

        flit_time = np.empty(self.num_channels, dtype=np.float64)
        group = np.empty(self.num_channels, dtype=np.int8)
        for i, ch in enumerate(channels):
            flit_time[i] = self._channel_flit_time(ch)
            group[i] = GROUPS.index(self._channel_group(ch))
        self.flit_time = flit_time
        self.group = group
        #: Per-channel "grants without queueing" flags: the links into a
        #: concentrator/dispatcher buffer.  The paper models every segment
        #: sink as "always able to receive" (Eq. 29's final stage has no
        #: blocking term), so the simulators treat these as interleaving,
        #: non-blocking ingress links.
        self.uncontended: list[bool] = [isinstance(ch.target, Concentrator) for ch in channels]

        #: Every leg resolved so far; a leg id indexes this list.
        self.legs: list[ResolvedSegment] = []
        self._leg_id: dict[tuple, int] = {}
        self._hot: list[tuple] = []

        #: node id -> cluster index (the hot loop's per-delivery lookup).
        self.cluster_index: list[int] = [
            system.cluster_of(node).index for node in system.global_ids()
        ]

    # -- channel attributes ------------------------------------------------------

    def _network_of(self, channel: SystemChannel) -> NetworkCharacteristics:
        tag = channel.network
        if tag[0] == "icn1":
            return self.system.clusters[tag[1]].spec.icn1
        if tag[0] == "ecn1":
            return self.system.clusters[tag[1]].spec.ecn1
        return self.system.config.icn2

    def _service_times(self, network: NetworkCharacteristics) -> ServiceTimes:
        st = self._service_cache.get(network)
        if st is None:
            st = ServiceTimes.for_network(network, self.message, self.options)
            self._service_cache[network] = st
        return st

    def _channel_flit_time(self, channel: SystemChannel) -> float:
        st = self._service_times(self._network_of(channel))
        return st.t_cn if channel.kind.is_node_link else st.t_cs

    def _channel_group(self, channel: SystemChannel) -> str:
        if isinstance(channel.source, Concentrator):
            return "cd-concentrate" if channel.network[0] == "icn2" else "cd-dispatch"
        return channel.network[0]

    # -- path resolution -----------------------------------------------------------

    def _leg(self, key: tuple) -> int:
        """The id of leg *key*, resolving the leg on first use."""
        if key not in self._leg_id:
            kind, *args = key
            if kind == "icn1":
                built = {key: intra_path(self.system, *args).segments[0]}
            elif kind == "icn2":
                built = {key: icn2_leg(self.system, *args)}
            else:  # a node's ascent and descent resolve together
                up, down = ecn1_legs(self.system, *args)
                built = {("up", *args): up, ("down", *args): down}
            for k, seg in built.items():
                ids = tuple(self.channel_index[ch] for ch in seg.channels)
                tau = max(float(self.flit_time[c]) for c in ids)
                self._leg_id[k] = len(self.legs)
                self.legs.append(ResolvedSegment(channel_ids=ids, bottleneck_flit_time=tau))
        return self._leg_id[key]

    def leg_ids(self, source: int, destination: int) -> tuple[int, ...]:
        """Leg ids of the journey ``source → destination`` (flat node ids):
        the ICN1 route, or the ascent, the ICN2 crossing and the descent."""
        i = self.cluster_index[source]
        j = self.cluster_index[destination]
        leg = self._leg
        if i == j:
            return (leg(("icn1", source, destination)),)
        return (leg(("up", source)), leg(("icn2", i, j)), leg(("down", destination)))

    def resolve(self, source: int, destination: int) -> tuple[ResolvedSegment, ...]:
        """Segments of the journey ``source → destination`` (flat node ids)."""
        require(source != destination, "source and destination must differ")
        legs = self.legs
        return tuple(legs[i] for i in self.leg_ids(source, destination))

    def hot_records(self) -> list[tuple]:
        """The hot-loop record of every leg resolved so far, by leg id.

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
        flags = self.uncontended
        m = self.message.length_flits
        flit_time = self.flit_time
        for leg in self.legs[len(records):]:
            cids = leg.channel_ids
            tau = leg.bottleneck_flit_time
            last = len(cids) - 1
            hold = tuple(m * float(flit_time[c]) for c in cids)
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
        legs = self.legs
        leg_ids = self.leg_ids

        def resolve(source: int, destination: int) -> tuple:
            ids = leg_ids(source, destination)
            if len(records) < len(legs):
                self.hot_records()
            return tuple([records[i] for i in ids])

        return resolve

    # -- reporting -------------------------------------------------------------------

    def channels_per_group(self) -> dict[str, int]:
        """Directed channel counts by reporting group."""
        counts = {name: 0 for name in GROUPS}
        for g in self.group:
            counts[GROUPS[int(g)]] += 1
        return counts
