"""Resolved-fabric tests (simulation.fabric)."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Concentrator, HeterogeneousSystem, build_path
from repro.core import NET1, ClusterSpec, MessageSpec, ModelOptions, ServiceTimes, SystemConfig
from repro.scenarios import get_scenario, scenario_names
from repro.simulation import GROUPS, ResolvedFabric
from repro.simulation.eventcore import _EventCoreContext


def mixed_system(switch_ports, depths):
    """One ICN2 level of ``len(depths) = m`` clusters of the given depths."""
    return SystemConfig(
        switch_ports=switch_ports,
        clusters=tuple(ClusterSpec(tree_depth=n, name=f"c{i}") for i, n in enumerate(depths)),
        icn2=NET1,
        name=f"mixed-m{switch_ports}",
    )


#: Radix q ≠ 2 with mixed depths 1-3.  At m = 4 (q = 2) the top digit's
#: radix 2q equals q², so a radix mix-up passes every m = 4 system.
MIXED_M6 = mixed_system(6, (1, 2, 3, 1, 2, 1))
MIXED_M8 = mixed_system(8, (1, 1, 1, 1, 1, 1, 2, 3))


#: One cluster: no attachment block and no ICN2 block.
ONE_CLUSTER = SystemConfig(switch_ports=4, clusters=(ClusterSpec(tree_depth=2, name="solo"),), name="solo")


@lru_cache(maxsize=None)
def channel_index(system):
    """:class:`SystemChannel` → channel id, by the ``channels()`` oracle."""
    return {ch: i for i, ch in enumerate(system.channels())}


def oracle_tables(system, message, options):
    """Flit time, group and uncontended flag of every channel, read off
    its :class:`SystemChannel`: the flit time of its network and link
    kind, the group of its endpoints, and no queueing exactly on the links
    into a concentrator."""
    flit_time, group, uncontended = [], [], []
    for ch in system.channels():
        tag = ch.network
        if tag[0] == "icn2":
            network = system.config.icn2
        else:
            spec = system.clusters[tag[1]].spec
            network = spec.icn1 if tag[0] == "icn1" else spec.ecn1
        st = ServiceTimes.for_network(network, message, options)
        flit_time.append(st.t_cn if ch.kind.is_node_link else st.t_cs)
        if isinstance(ch.source, Concentrator):
            group.append("cd-concentrate" if tag[0] == "icn2" else "cd-dispatch")
        else:
            group.append(tag[0])
        uncontended.append(int(isinstance(ch.target, Concentrator)))
    return flit_time, group, uncontended


def oracle_ids(fabric, src, dst):
    """Channel ids of each leg of ``src → dst`` by the object router."""
    index = channel_index(fabric.system)
    return [tuple(index[ch] for ch in seg.channels) for seg in build_path(fabric.system, src, dst).segments]


@lru_cache(maxsize=None)
def random_system(switch_ports, depths):
    return HeterogeneousSystem(mixed_system(switch_ports, depths))


@st.composite
def system_and_pairs(draw):
    """A random one-ICN2-level system (m ∈ {4, 6, 8, 10}, depths 1-3, at
    most 128 nodes per cluster) and random ordered pairs of its nodes."""
    m = draw(st.sampled_from([4, 6, 8, 10]))
    deepest = max(n for n in (1, 2, 3) if 2 * (m // 2) ** n <= 128)
    depths = tuple(draw(st.lists(st.integers(1, deepest), min_size=m, max_size=m)))
    total = sum(2 * (m // 2) ** n for n in depths)
    nodes = st.integers(0, total - 1)
    pairs = draw(st.lists(st.tuples(nodes, nodes).filter(lambda p: p[0] != p[1]), min_size=1, max_size=40))
    return random_system(m, depths), pairs


class TestChannelTable:
    @pytest.mark.parametrize(
        "case", ["small_system", "tiny_hetero_system", "mixed_m6", "mixed_m8", "one_cluster", *scenario_names()]
    )
    def test_block_tables_match_the_channel_oracle(self, case, request, small_message):
        """The tables filled per channel block equal what each
        :class:`SystemChannel` of ``channels()`` implies: every registry
        scenario under its own message and options, and the test systems
        under the non-default ``t_cn`` convention."""
        named = {"mixed_m6": MIXED_M6, "mixed_m8": MIXED_M8, "one_cluster": ONE_CLUSTER}
        if case in scenario_names():
            spec = get_scenario(case)
            config, message, options = spec.system, spec.message, spec.options
        else:
            config = named.get(case) or request.getfixturevalue(case)
            message, options = small_message, ModelOptions(tcn_convention="full_network_latency")
        system = HeterogeneousSystem(config)
        fabric = ResolvedFabric(system, message, options)
        flit_time, group, uncontended = oracle_tables(system, message, options)
        assert fabric.flit_time.dtype == np.float64
        assert fabric.group.dtype == fabric.uncontended.dtype == np.int8
        assert fabric.flit_time.tolist() == flit_time
        assert [GROUPS[g] for g in fabric.group.tolist()] == group
        assert fabric.uncontended.tolist() == uncontended

    def test_flit_times_match_service_primitives(self, small_fabric, small_system, small_message):
        st_icn1 = ServiceTimes.for_network(small_system.clusters[0].icn1, small_message)
        st_icn2 = ServiceTimes.for_network(small_system.icn2, small_message)
        for cid, ch in enumerate(small_fabric.system.channels()):
            tau = small_fabric.flit_time[cid]
            if ch.network[0] == "icn1":
                expected = st_icn1.t_cn if ch.kind.is_node_link else st_icn1.t_cs
                assert tau == pytest.approx(expected)
            elif ch.network == ("icn2",):
                expected = st_icn2.t_cn if ch.kind.is_node_link else st_icn2.t_cs
                assert tau == pytest.approx(expected)

    def test_groups_cover_all_channels(self, small_fabric):
        counts = small_fabric.channels_per_group()
        assert set(counts) == set(GROUPS)
        assert sum(counts.values()) == small_fabric.num_channels

    def test_cd_groups_identified(self, small_fabric):
        counts = small_fabric.channels_per_group()
        # 4 clusters (m=4, n=2 -> 2 roots each): 1 concentrate link per
        # cluster into ICN2; 2 dispatch links per cluster (one per root).
        assert counts["cd-concentrate"] == 4
        assert counts["cd-dispatch"] == 8

    @pytest.mark.parametrize("config", ["small_system", "tiny_hetero_system"])
    def test_physical_sinks_contend(self, config, request, small_message):
        """Only the links into a concentrator/dispatcher buffer grant
        without queueing; every link into a node is a physical sink."""
        from repro.topology.addressing import NodeAddress

        fabric = ResolvedFabric(HeterogeneousSystem(request.getfixturevalue(config)), small_message)
        assert len(fabric.uncontended) == fabric.num_channels
        sinks = []
        for cid, ch in enumerate(fabric.system.channels()):
            assert fabric.uncontended[cid] == isinstance(ch.target, Concentrator)
            if isinstance(ch.target, NodeAddress):
                sinks.append(ch.network[0])
                assert not fabric.uncontended[cid]
        # One ejection link per node in its ICN1 and in its ECN1.
        n = fabric.system.total_nodes
        assert sorted(sinks) == ["ecn1"] * n + ["icn1"] * n

    def test_options_affect_tcn(self, small_system, small_message):
        system = HeterogeneousSystem(small_system)
        half = ResolvedFabric(system, small_message)
        full = ResolvedFabric(system, small_message, ModelOptions(tcn_convention="full_network_latency"))
        assert np.any(full.flit_time > half.flit_time)
        assert np.all(full.flit_time >= half.flit_time)


class TestResolve:
    def test_intra_single_segment(self, small_fabric):
        segments = small_fabric.resolve(0, 3)
        assert len(segments) == 1
        assert all(isinstance(c, int) for c in segments[0].channel_ids)

    def test_inter_three_segments(self, small_fabric):
        segments = small_fabric.resolve(0, 9)
        assert len(segments) == 3

    def test_bottleneck_is_max_flit_time(self, small_fabric):
        for seg in small_fabric.resolve(0, 9):
            taus = [small_fabric.flit_time[c] for c in seg.channel_ids]
            assert seg.bottleneck_flit_time == pytest.approx(max(taus))

    def test_caches_are_reused(self, small_fabric):
        a = small_fabric.resolve(0, 9)
        b = small_fabric.resolve(0, 9)
        assert a[0] is b[0]  # the source's ascent leg
        assert a[1] is b[1]  # the cluster pair's ICN2 leg
        assert a[2] is b[2]  # the destination's descent leg

    def test_shared_legs_across_destinations(self, small_fabric):
        to_b = small_fabric.resolve(0, 9)
        to_c = small_fabric.resolve(0, 17)
        assert to_b[0] is to_c[0]  # same ascent leg object

    def test_self_resolution_rejected(self, small_fabric):
        with pytest.raises(ValueError):
            small_fabric.resolve(3, 3)


class TestLegTable:
    @pytest.mark.parametrize("config", ["small_system", "tiny_hetero_system", "mixed_m6", "mixed_m8"])
    def test_every_pair_matches_the_pathing_oracle(self, config, request, small_message):
        named = {"mixed_m6": MIXED_M6, "mixed_m8": MIXED_M8}
        system = HeterogeneousSystem(named.get(config) or request.getfixturevalue(config))
        fabric = ResolvedFabric(system, small_message)
        n = system.total_nodes
        for src in range(n):
            for dst in range(n):
                if src == dst:
                    continue
                expected = oracle_ids(fabric, src, dst)
                assert [seg.channel_ids for seg in fabric.resolve(src, dst)] == expected
        # One leg per node and direction, per cluster pair and per
        # intra-cluster pair: journeys share legs, never copies of them
        # (small_system's 768 inter-cluster pairs need 2N + C(C-1) = 76).
        c = len(system.clusters)
        intra = sum(k.num_nodes * (k.num_nodes - 1) for k in system.clusters)
        assert len(fabric.legs) == 2 * n + c * (c - 1) + intra

    @settings(max_examples=25)
    @given(system_and_pairs())
    def test_closed_form_legs_match_the_oracle_at_any_radix(self, case):
        system, pairs = case
        message = MessageSpec(length_flits=8, flit_bytes=256.0)
        scalar = ResolvedFabric(system, message)
        batched = ResolvedFabric(system, message)
        src, dst = (np.array(col) for col in zip(*pairs))
        offsets, ids = batched.leg_rows(src, dst)
        for r, (s, d) in enumerate(pairs):
            expected = oracle_ids(scalar, s, d)
            assert [seg.channel_ids for seg in scalar.resolve(s, d)] == expected
            row = ids[offsets[r] : offsets[r + 1]].tolist()
            assert [batched.legs[g].channel_ids for g in row] == expected
        # Both builds give every leg its bottleneck flit time.
        for fabric in (scalar, batched):
            for leg in fabric.legs:
                assert leg.bottleneck_flit_time == max(fabric.flit_time[c] for c in leg.channel_ids)

    def test_batched_rows_equal_scalar_leg_ids(self, small_message):
        system = HeterogeneousSystem(MIXED_M6)
        fabric = ResolvedFabric(system, small_message)
        rng = np.random.default_rng(7)
        src = rng.integers(0, system.total_nodes, 3_000)
        dst = rng.integers(0, system.total_nodes - 1, 3_000)
        dst += dst >= src
        p_off, p_segs = _EventCoreContext(fabric).paths_for(fabric, src, dst)
        assert p_off.dtype == p_segs.dtype == np.int32
        built = fabric.num_legs
        assert built == len(np.unique(p_segs))
        fresh = ResolvedFabric(system, small_message)
        for r, (s, d) in enumerate(zip(src.tolist(), dst.tolist())):
            row = p_segs[p_off[r] : p_off[r + 1]].tolist()
            # The scalar path finds the batch's legs under the same ids ...
            assert fabric.leg_ids(s, d) == tuple(row)
            # ... and builds the same channels on a fresh fabric.
            assert [leg.channel_ids for leg in fresh.resolve(s, d)] == [fabric.legs[g].channel_ids for g in row]
        assert fabric.num_legs == built

    def test_batched_tables_equal_hot_records(self, small_message):
        fabric = ResolvedFabric(HeterogeneousSystem(MIXED_M8), small_message)
        rng = np.random.default_rng(3)
        src = rng.integers(0, 100, 500)
        dst = (src + 1 + rng.integers(0, 200, 500)) % 208
        ctx = _EventCoreContext(fabric)
        ctx.paths_for(fabric, src, dst)
        fabric.resolve(200, 150)  # sources are < 100: a leg only the scalar path builds
        tables = ctx.arrays(fabric)
        records = fabric.hot_records()
        assert len(records) == fabric.num_legs == len(tables["s_drain"])
        for g, (cids, hold, _tau, drain, _last, rel_items) in enumerate(records):
            lo, hi = tables["s_cid_off"][g : g + 2]
            assert tables["s_cids"][lo:hi].tolist() == list(cids)
            assert tables["s_hold"][lo:hi].tolist() == list(hold)
            assert tables["s_drain"][g] == drain
            lo, hi = tables["s_rel_off"][g : g + 2]
            items = zip(*(tables[k][lo:hi].tolist() for k in ("r_kk", "r_cid", "r_hold", "r_off")))
            assert tuple(items) == rel_items

    @pytest.mark.parametrize(
        "bad", [(0, 0), (-1, 3), (3, -1), (32, 3), (3, 32)], ids=["self", "src-1", "dst-1", "srcN", "dstN"]
    )
    def test_both_paths_reject_bad_pairs(self, small_fabric, bad):
        assert small_fabric.system.total_nodes == 32
        src, dst = bad
        with pytest.raises(ValueError):
            small_fabric.leg_ids(src, dst)
        ctx = _EventCoreContext(small_fabric)
        with pytest.raises(ValueError):
            ctx.paths_for(small_fabric, np.array([1, src]), np.array([2, dst]))


class TestHotRecords:
    def test_one_table_grows_with_the_legs(self, small_system, small_message):
        fabric = ResolvedFabric(HeterogeneousSystem(small_system), small_message)
        records = fabric.hot_records()
        assert records == []
        # Each leg is built alone: 0's ascent, the crossing, 9's descent.
        fabric.resolve(0, 9)
        assert fabric.hot_records() is records
        assert len(records) == len(fabric.legs) == 3
        fabric.resolve(0, 17)  # node 0's ascent is shared; 2 new legs
        assert fabric.hot_records() is records
        assert len(records) == len(fabric.legs) == 5

    def test_records_fold_the_leg_arithmetic(self, small_fabric):
        small_fabric.resolve(1, 30)
        small_fabric.resolve(1, 2)
        m = small_fabric.message.length_flits
        records = small_fabric.hot_records()
        for leg, (cids, hold, tau, drain, last, rel_items) in zip(small_fabric.legs, records):
            assert cids == leg.channel_ids
            assert tau == leg.bottleneck_flit_time
            assert hold == tuple(m * float(small_fabric.flit_time[c]) for c in cids)
            assert drain == (m - 1) * tau
            assert last == len(cids) - 1
            contended = [k for k, c in enumerate(cids) if not small_fabric.uncontended[c]]
            assert [item[0] for item in rel_items] == contended
            for k, cid, hold_k, offset in rel_items:
                assert (cid, hold_k, offset) == (cids[k], hold[k], (last - k) * tau)

    def test_resolver_sees_legs_resolved_after_it(self, small_system, small_message):
        fabric = ResolvedFabric(HeterogeneousSystem(small_system), small_message)
        resolve = fabric.hot_resolver()
        for src, dst in [(0, 9), (0, 1), (5, 30), (0, 9)]:
            records = resolve(src, dst)
            table = fabric.hot_records()
            assert records == tuple(table[i] for i in fabric.leg_ids(src, dst))
            assert [r[0] for r in records] == [seg.channel_ids for seg in fabric.resolve(src, dst)]
