"""Cluster-of-clusters fabric tests (cluster.system, cluster.channels)."""

import pytest

from repro.cluster import Concentrator, HeterogeneousSystem, SystemChannel
from repro.core import ClusterSpec, SystemConfig, paper_system_544, paper_system_1120
from repro.topology import ChannelKind


class TestAssembly:
    def test_paper_1120(self):
        system = HeterogeneousSystem(paper_system_1120())
        assert system.total_nodes == 1120
        assert len(system.clusters) == 32
        assert system.icn2.num_nodes == 32

    def test_paper_544(self):
        system = HeterogeneousSystem(paper_system_544())
        assert system.total_nodes == 544
        assert system.icn2.num_nodes == 16

    def test_cluster_offsets_are_contiguous(self, built_small_system):
        offsets = [c.first_global_id for c in built_small_system.clusters]
        sizes = [c.num_nodes for c in built_small_system.clusters]
        for i in range(1, len(offsets)):
            assert offsets[i] == offsets[i - 1] + sizes[i - 1]

    def test_single_cluster_system_has_no_icn2_channels(self):
        cfg = SystemConfig(switch_ports=4, clusters=(ClusterSpec(2),))
        system = HeterogeneousSystem(cfg)
        tags = {ch.network[0] for ch in system.channels()}
        assert tags == {"icn1", "ecn1"}


class TestNodeLookup:
    def test_locate_roundtrip(self, built_small_system):
        for gid in built_small_system.global_ids():
            cluster, addr = built_small_system.locate(gid)
            assert cluster.local_to_global(cluster.icn1.node_index(addr)) == gid

    def test_cluster_of_boundaries(self, built_small_system):
        first = built_small_system.clusters[1].first_global_id
        assert built_small_system.cluster_of(first).index == 1
        assert built_small_system.cluster_of(first - 1).index == 0

    def test_out_of_range_rejected(self, built_small_system):
        with pytest.raises(ValueError):
            built_small_system.cluster_of(built_small_system.total_nodes)
        with pytest.raises(ValueError):
            built_small_system.cluster_of(-1)


class TestChannels:
    def test_channel_count(self, built_small_system):
        # Per cluster: ICN1 (2nN) + ECN1 (2nN) + 2 links per ECN1 root;
        # plus ICN2 (2 n_c C).
        expected = 0
        for cluster in built_small_system.clusters:
            n, n_nodes = cluster.spec.tree_depth, cluster.num_nodes
            roots = (built_small_system.config.switch_ports // 2) ** (n - 1)
            expected += 2 * (2 * n * n_nodes) + 2 * roots
        icn2 = built_small_system.icn2
        expected += 2 * icn2.tree_depth * icn2.num_nodes
        assert built_small_system.num_channels == expected

    @pytest.mark.parametrize("depths", [(2, 2, 2, 2), (1, 2, 3, 1, 2, 1), (3,)])
    def test_blocks_locate_the_enumeration(self, depths):
        # channel_blocks is the closed form of channels()' order: each
        # tree block starts at its base in links() order, and root r's
        # concentrator attachment pair sits at attach + 2r, attach + 2r + 1.
        m = 6 if len(depths) == 6 else 4
        clusters = tuple(ClusterSpec(tree_depth=n, name=f"c{i}") for i, n in enumerate(depths))
        system = HeterogeneousSystem(SystemConfig(switch_ports=m, clusters=clusters))
        channels = list(system.channels())
        blocks = system.channel_blocks
        assert blocks.total == system.num_channels == len(channels)
        for k, cluster in enumerate(system.clusters):
            links = list(cluster.icn1.links())  # the ECN1 tree has the same shape
            for tag, base in ((("icn1", k), blocks.icn1[k]), (("ecn1", k), blocks.ecn1[k])):
                assert channels[base : base + len(links)] == [SystemChannel.from_link(tag, link) for link in links]
            if len(depths) > 1:
                cd = Concentrator(k)
                for r, root in enumerate(cluster.ecn1.root_switches):
                    pair = channels[blocks.attach[k] + 2 * r : blocks.attach[k] + 2 * r + 2]
                    assert [(ch.source, ch.target) for ch in pair] == [(root, cd), (cd, root)]
        icn2 = [ch for ch in channels if ch.network == ("icn2",)]
        assert channels[blocks.icn2 :] == icn2
        assert len(icn2) == (2 * system.icn2.num_full_duplex_links() if len(depths) > 1 else 0)

    def test_no_duplicate_channels(self, built_small_system):
        channels = list(built_small_system.channels())
        assert len(channels) == len(set(channels))

    def test_concentrator_links_per_root(self, built_small_system):
        cds = [ch for ch in built_small_system.channels() if isinstance(ch.target, Concentrator) and ch.network[0] == "ecn1"]
        roots = (built_small_system.config.switch_ports // 2) ** (built_small_system.clusters[0].spec.tree_depth - 1)
        per_cluster = {}
        for ch in cds:
            per_cluster.setdefault(ch.target.cluster_index, 0)
            per_cluster[ch.target.cluster_index] += 1
        assert all(count == roots for count in per_cluster.values())

    def test_icn2_endpoints_are_concentrators(self, built_small_system):
        for ch in built_small_system.channels():
            if ch.network[0] != "icn2":
                continue
            if ch.kind is ChannelKind.NODE_TO_SWITCH:
                assert isinstance(ch.source, Concentrator)
            if ch.kind is ChannelKind.SWITCH_TO_NODE:
                assert isinstance(ch.target, Concentrator)

    def test_channel_from_link_tags(self):
        from repro.topology import Link, MPortNTree

        tree = MPortNTree(4, 1)
        link = next(iter(tree.links()))
        ch = SystemChannel.from_link(("icn1", 3), link)
        assert ch.network == ("icn1", 3)
        assert ch.kind is link.kind


class TestDescribe:
    def test_describe_content(self, built_small_system):
        d = built_small_system.describe()
        assert d["total_nodes"] == 32
        assert d["clusters"] == 4
        assert d["cluster_sizes"] == [8, 8, 8, 8]
        assert d["channels"] == built_small_system.num_channels
