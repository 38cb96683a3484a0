"""Tests for configuration objects (core.parameters), incl. paper Table 1."""

import pickle
from dataclasses import replace

import pytest

from repro.core import (
    NET1,
    NET2,
    ClusterSpec,
    MessageSpec,
    ModelOptions,
    NetworkCharacteristics,
    SystemConfig,
    paper_message,
    paper_system_544,
    paper_system_1120,
)
from repro.core.parameters import nodes_in_tree
from repro.scenarios import get_scenario, scenario_names


class TestNetworkCharacteristics:
    def test_beta_is_inverse_bandwidth(self):
        assert NET1.beta == pytest.approx(1 / 500)
        assert NET2.beta == pytest.approx(1 / 250)

    def test_paper_table2_values(self):
        assert (NET1.bandwidth, NET1.network_latency, NET1.switch_latency) == (500.0, 0.01, 0.02)
        assert (NET2.bandwidth, NET2.network_latency, NET2.switch_latency) == (250.0, 0.05, 0.01)

    def test_scaled_bandwidth(self):
        scaled = NET1.scaled_bandwidth(1.2)
        assert scaled.bandwidth == pytest.approx(600.0)
        assert scaled.network_latency == NET1.network_latency

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_rejects_bad_bandwidth(self, bad):
        with pytest.raises(ValueError):
            NetworkCharacteristics(bandwidth=bad, network_latency=0.1, switch_latency=0.1)

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            NetworkCharacteristics(bandwidth=1.0, network_latency=-0.1, switch_latency=0.1)


class TestClusterSpec:
    def test_nodes_formula(self):
        assert ClusterSpec(tree_depth=3).nodes(8) == 128
        assert ClusterSpec(tree_depth=1).nodes(4) == 4

    def test_class_key_groups_identical_specs(self):
        a = ClusterSpec(tree_depth=2, name="x")
        b = ClusterSpec(tree_depth=2, name="y")
        assert a.class_key() == b.class_key()

    def test_class_key_distinguishes_networks(self):
        a = ClusterSpec(tree_depth=2, icn1=NET1)
        b = ClusterSpec(tree_depth=2, icn1=NET2)
        assert a.class_key() != b.class_key()

    def test_rejects_zero_depth(self):
        with pytest.raises(ValueError):
            ClusterSpec(tree_depth=0)


class TestMessageSpec:
    def test_total_bytes(self):
        assert MessageSpec(32, 256.0).total_bytes == pytest.approx(8192.0)

    def test_paper_message_defaults(self):
        msg = paper_message()
        assert (msg.length_flits, msg.flit_bytes) == (32, 256.0)

    def test_rejects_zero_flits(self):
        with pytest.raises(ValueError):
            MessageSpec(0, 256.0)


class TestModelOptions:
    def test_defaults_are_paper(self):
        opts = ModelOptions()
        assert opts.tcn_convention == "half_network_latency"
        assert opts.source_queue_rate == "paper"
        assert opts.relaxing_factor is True
        assert opts.concentrator_rate == "pair_mean"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("tcn_convention", "bogus"),
            ("source_queue_rate", "bogus"),
            ("variance_approximation", "bogus"),
            ("inter_average", "bogus"),
            ("concentrator_rate", "bogus"),
        ],
    )
    def test_rejects_unknown_values(self, field, value):
        with pytest.raises(ValueError):
            ModelOptions(**{field: value})


class TestSystemConfig:
    def test_paper_1120_shape(self):
        cfg = paper_system_1120()
        assert cfg.total_nodes == 1120
        assert cfg.num_clusters == 32
        assert cfg.switch_ports == 8
        assert cfg.icn2_tree_depth == 2
        assert cfg.cluster_sizes[:12] == (8,) * 12
        assert cfg.cluster_sizes[12:28] == (32,) * 16
        assert cfg.cluster_sizes[28:] == (128,) * 4

    def test_paper_544_shape(self):
        cfg = paper_system_544()
        assert cfg.total_nodes == 544
        assert cfg.num_clusters == 16
        assert cfg.switch_ports == 4
        assert cfg.icn2_tree_depth == 3
        assert cfg.cluster_sizes == (16,) * 8 + (32,) * 3 + (64,) * 5

    def test_outgoing_probability_eq2(self):
        cfg = paper_system_1120()
        # U_i = 1 - (N_i - 1)/(N - 1)
        assert cfg.outgoing_probability(0) == pytest.approx(1 - 7 / 1119)
        assert cfg.outgoing_probability(31) == pytest.approx(1 - 127 / 1119)

    def test_cluster_classes_grouping(self):
        classes = paper_system_1120().cluster_classes()
        assert [c.count for c in classes] == [12, 16, 4]
        assert [c.nodes for c in classes] == [8, 32, 128]
        assert sum(c.count * c.nodes for c in classes) == 1120

    def test_classes_keep_distinct_networks_apart(self):
        cfg = SystemConfig(
            switch_ports=4,
            clusters=(
                ClusterSpec(tree_depth=1, ecn1=NET2),
                ClusterSpec(tree_depth=1, ecn1=NET1),
                ClusterSpec(tree_depth=1, ecn1=NET2),
                ClusterSpec(tree_depth=1, ecn1=NET2),
            ),
        )
        assert [c.count for c in cfg.cluster_classes()] == [3, 1]

    def test_rejects_invalid_cluster_count(self):
        with pytest.raises(ValueError, match="number of clusters"):
            SystemConfig(switch_ports=4, clusters=(ClusterSpec(1), ClusterSpec(1), ClusterSpec(1)))

    def test_rejects_odd_ports(self):
        with pytest.raises(ValueError):
            SystemConfig(switch_ports=5, clusters=(ClusterSpec(1),))

    def test_single_cluster_allowed(self):
        cfg = SystemConfig(switch_ports=4, clusters=(ClusterSpec(2),))
        assert cfg.num_clusters == 1
        assert cfg.outgoing_probability(0) == 0.0

    def test_with_icn2_replaces_only_icn2(self):
        cfg = paper_system_544()
        fast = cfg.with_icn2(NET1.scaled_bandwidth(1.2))
        assert fast.icn2.bandwidth == pytest.approx(600.0)
        assert fast.clusters == cfg.clusters

    def test_nodes_in_tree_helper(self):
        assert nodes_in_tree(8, 3) == 128
        with pytest.raises(ValueError):
            nodes_in_tree(7, 3)


def _derived(system: SystemConfig) -> tuple:
    return system.cluster_sizes, system.total_nodes, system.cluster_classes()


class TestDerivedStructure:
    """``cluster_sizes``, ``total_nodes`` and ``cluster_classes()`` are
    derived once per instance, and the caches are invisible."""

    def test_value_semantics_unchanged(self):
        cold = paper_system_1120()
        warm = paper_system_1120()
        _derived(warm)
        assert warm == cold
        assert (hash(warm), repr(warm), warm.to_dict()) == (hash(cold), repr(cold), cold.to_dict())
        for system in (cold, warm):
            back = pickle.loads(pickle.dumps(system))
            assert back == system and repr(back) == repr(system)
            assert _derived(back) == _derived(paper_system_1120())

    def test_replace_and_with_icn2_derive_their_own(self, tiny_hetero_system):
        system = replace(tiny_hetero_system)
        _derived(system)
        deeper = replace(system, clusters=tuple(ClusterSpec(tree_depth=2) for _ in range(4)))
        assert deeper.cluster_sizes == (8, 8, 8, 8) and deeper.total_nodes == 32
        assert [(c.count, c.nodes) for c in deeper.cluster_classes()] == [(4, 8)]
        faster = system.with_icn2(NET1.scaled_bandwidth(2.0))
        assert _derived(faster) == _derived(system)
        assert faster.cluster_classes() is not system.cluster_classes()

    @pytest.mark.parametrize("name", scenario_names())
    def test_registry_systems_equal_fresh_ones(self, name):
        system = get_scenario(name).system
        first = _derived(system)
        fresh = SystemConfig.from_dict(system.to_dict())
        assert first == _derived(system) == _derived(fresh)
        m = system.switch_ports
        assert first[0] == tuple(nodes_in_tree(m, c.tree_depth) for c in system.clusters)
        assert first[1] == sum(first[0])
        assert [system.outgoing_probability(i) for i in range(system.num_clusters)] == [
            1.0 - (n - 1) / (first[1] - 1) for n in first[0]
        ]

    def test_each_cluster_size_is_derived_once(self, monkeypatch):
        import repro.core.parameters as parameters

        calls = []
        original = parameters.nodes_in_tree

        def counted(switch_ports, tree_depth):
            calls.append(tree_depth)
            return original(switch_ports, tree_depth)

        monkeypatch.setattr(parameters, "nodes_in_tree", counted)
        system = paper_system_544()
        for _ in range(3):
            _derived(system)
            system.outgoing_probability(0)
        # 16 cluster sizes, plus the 3 class representatives of cluster_classes().
        assert len(calls) == 16 + 3

