"""Resolved-fabric tests (simulation.fabric)."""

import numpy as np
import pytest

from repro.cluster import HeterogeneousSystem, build_path
from repro.core import MessageSpec, ModelOptions, ServiceTimes
from repro.simulation import GROUPS, ResolvedFabric


class TestChannelTable:
    def test_flit_times_match_service_primitives(self, small_fabric, small_system, small_message):
        st_icn1 = ServiceTimes.for_network(small_system.clusters[0].icn1, small_message)
        st_icn2 = ServiceTimes.for_network(small_system.icn2, small_message)
        for cid, ch in enumerate(small_fabric.channels):
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
        from repro.cluster.channels import Concentrator
        from repro.topology.addressing import NodeAddress

        fabric = ResolvedFabric(HeterogeneousSystem(request.getfixturevalue(config)), small_message)
        assert len(fabric.uncontended) == fabric.num_channels
        sinks = []
        for cid, ch in enumerate(fabric.channels):
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
    @pytest.mark.parametrize("config", ["small_system", "tiny_hetero_system"])
    def test_every_pair_matches_the_pathing_oracle(self, config, request, small_message):
        system = HeterogeneousSystem(request.getfixturevalue(config))
        fabric = ResolvedFabric(system, small_message)
        n = system.total_nodes
        for src in range(n):
            for dst in range(n):
                if src == dst:
                    continue
                expected = [
                    tuple(fabric.channel_index[ch] for ch in seg.channels)
                    for seg in build_path(system, src, dst).segments
                ]
                assert [seg.channel_ids for seg in fabric.resolve(src, dst)] == expected
        # One leg per node and direction, per cluster pair and per
        # intra-cluster pair: journeys share legs, never copies of them
        # (small_system's 768 inter-cluster pairs need 2N + C(C-1) = 76).
        c = len(system.clusters)
        intra = sum(k.num_nodes * (k.num_nodes - 1) for k in system.clusters)
        assert len(fabric.legs) == 2 * n + c * (c - 1) + intra


class TestHotRecords:
    def test_one_table_grows_with_the_legs(self, small_system, small_message):
        fabric = ResolvedFabric(HeterogeneousSystem(small_system), small_message)
        records = fabric.hot_records()
        assert records == []
        # A node's ascent and descent resolve together: 2 + 1 + 2 legs.
        fabric.resolve(0, 9)
        assert fabric.hot_records() is records
        assert len(records) == len(fabric.legs) == 5
        fabric.resolve(0, 17)  # node 0's legs are shared; 1 + 2 new ones
        assert fabric.hot_records() is records
        assert len(records) == len(fabric.legs) == 8

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
