"""Pareto-frontier and sensitivity tests (analysis.frontier)."""

import pytest

from repro.analysis import (
    axis_sensitivity,
    bandwidth_cost_proxy,
    pareto_frontier,
    pareto_frontier_cells,
    scale_network,
)
from repro.core import paper_system_544
from repro.scenarios import get_scenario, scenario_names


def cell(coords, **metrics):
    return {"coords": coords, "metrics": metrics}


class TestParetoFrontier:
    def test_dominated_points_dropped(self):
        # (cost, perf): B dominates C (cheaper AND better); A and B remain.
        xs = [1.0, 2.0, 3.0]
        ys = [1.0, 5.0, 4.0]
        assert pareto_frontier(xs, ys) == (0, 1)

    def test_sorted_by_x_in_preferred_direction(self):
        xs = [3.0, 1.0, 2.0]
        ys = [9.0, 1.0, 5.0]
        assert pareto_frontier(xs, ys) == (1, 2, 0)

    def test_duplicates_of_a_frontier_point_kept(self):
        xs = [1.0, 1.0, 2.0]
        ys = [4.0, 4.0, 4.0]
        # The two identical points survive; the strictly pricier one dies.
        assert pareto_frontier(xs, ys) == (0, 1)

    def test_equal_x_keeps_only_best_y(self):
        xs = [1.0, 1.0]
        ys = [4.0, 3.0]
        assert pareto_frontier(xs, ys) == (0,)

    def test_direction_flags(self):
        xs = [1.0, 2.0]
        ys = [1.0, 2.0]
        # Maximise both: only (2, 2) is efficient.
        assert pareto_frontier(xs, ys, minimize_x=False) == (1,)
        # Minimise both: only (1, 1) is efficient.
        assert pareto_frontier(xs, ys, maximize_y=False) == (0,)

    def test_single_point(self):
        assert pareto_frontier([5.0], [7.0]) == (0,)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            pareto_frontier([1.0, float("nan")], [1.0, 2.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            pareto_frontier([1.0], [1.0, 2.0])

    def test_cells_wrapper(self):
        cells = [
            cell({"a": 1}, cost_proxy=1.0, saturation_load=1.0),
            cell({"a": 2}, cost_proxy=2.0, saturation_load=5.0),
            cell({"a": 3}, cost_proxy=3.0, saturation_load=4.0),
        ]
        assert pareto_frontier_cells(cells) == (0, 1)

    def test_cells_wrapper_unknown_metric(self):
        with pytest.raises(ValueError, match="unknown metric"):
            pareto_frontier_cells([cell({}, cost_proxy=1.0)], y="nope")


class TestAxisSensitivity:
    def test_ranks_influential_axis_first(self):
        # metric = 10*a + b: axis 'a' moves it 10x harder than 'b'.
        cells = [
            cell({"a": a, "b": b}, m=10.0 * a + b)
            for a in (1.0, 2.0)
            for b in (1.0, 2.0)
        ]
        ranking = axis_sensitivity(cells, metric="m")
        assert [s.path for s in ranking] == ["a", "b"]
        assert ranking[0].spread > ranking[1].spread > 0
        assert ranking[0].groups == ranking[1].groups == 2

    def test_inert_axis_scores_zero(self):
        cells = [
            cell({"a": a, "b": b}, m=float(a))
            for a in (1.0, 2.0)
            for b in (1.0, 2.0)
        ]
        ranking = {s.path: s.spread for s in axis_sensitivity(cells, metric="m")}
        assert ranking["b"] == 0.0
        assert ranking["a"] > 0.0

    def test_nan_cells_excluded(self):
        cells = [
            cell({"a": 1.0}, m=1.0),
            cell({"a": 2.0}, m=float("nan")),
        ]
        (ranking,) = axis_sensitivity(cells, metric="m")
        assert ranking.spread == 0.0  # the surviving group has one value

    def test_single_axis_grid(self):
        cells = [cell({"a": v}, m=v) for v in (1.0, 2.0, 4.0)]
        (ranking,) = axis_sensitivity(cells, metric="m")
        assert ranking.groups == 1
        assert ranking.spread == pytest.approx((4.0 - 1.0) / (7.0 / 3.0))


class TestCostProxy:
    def test_monotone_in_every_role(self):
        base = paper_system_544()
        cost = bandwidth_cost_proxy(base)
        for role in ("icn1", "ecn1", "icn2"):
            assert bandwidth_cost_proxy(scale_network(base, role, 2.0)) > cost

    def test_formula_on_paper_544(self):
        base = paper_system_544()
        # Σ N_i·n_i·bw_icn1 + Σ N_i·bw_ecn1 + C·n_c·bw_icn2, Table 1 row 2:
        # 8 clusters n=3 (16 nodes), 3 clusters n=4 (32), 5 clusters n=5 (64).
        icn1 = 500.0 * (8 * 16 * 3 + 3 * 32 * 4 + 5 * 64 * 5)
        ecn1 = 250.0 * (8 * 16 + 3 * 32 + 5 * 64)
        icn2 = 500.0 * 16 * 3  # C=16 = 2*2**3 -> n_c=3
        assert bandwidth_cost_proxy(base) == pytest.approx(icn1 + ecn1 + icn2)

    @pytest.mark.parametrize("name", scenario_names())
    def test_equals_the_per_cluster_loop_bit_for_bit(self, name):
        """The proxy reads the cached cluster sizes: the same ints, added
        in the same order as the per-cluster derivation it replaced."""
        system = get_scenario(name).system
        m = system.switch_ports
        cost = 0.0
        for spec in system.clusters:
            nodes = spec.nodes(m)
            cost += nodes * spec.tree_depth * spec.icn1.bandwidth
            cost += nodes * spec.ecn1.bandwidth
        cost += system.num_clusters * system.icn2_tree_depth * system.icn2.bandwidth
        assert bandwidth_cost_proxy(system) == cost
        assert bandwidth_cost_proxy(system) == cost  # once more, from the cache

