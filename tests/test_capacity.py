"""Capacity-planning tests (analysis.capacity)."""

import pytest

from repro.analysis import max_load_for_latency, model_bottlenecks, required_upgrade_factor
from repro.core import AnalyticalModel, MessageSpec, find_saturation_load, paper_system_544
from repro.core.stacked import StackedModel
from repro.workloads import HotspotTraffic

MSG = MessageSpec(32, 256.0)


def one_cell(system, pattern=None):
    """The one-cell stack the capacity queries price."""
    return StackedModel([(system, MSG, None, pattern)])


class TestMaxLoadForLatency:
    def test_budget_is_met_and_tight(self, paper_544):
        model = AnalyticalModel(paper_544, MSG)
        budget = 1.5 * model.zero_load_latency()
        plan = max_load_for_latency(one_cell(paper_544), budget)
        assert plan.feasible
        achieved_latency = model.evaluate(plan.achieved).latency
        assert achieved_latency <= budget
        # Tight: 1% more load must bust the budget (or saturate).
        over = model.evaluate(plan.achieved * 1.02)
        assert over.saturated or over.latency > budget

    def test_infeasible_budget(self, paper_544):
        model = AnalyticalModel(paper_544, MSG)
        plan = max_load_for_latency(one_cell(paper_544), 0.5 * model.zero_load_latency())
        assert not plan.feasible
        assert plan.achieved == 0.0

    def test_generous_budget_approaches_saturation(self, paper_544):
        plan = max_load_for_latency(one_cell(paper_544), 1e9)
        lam_star = find_saturation_load(AnalyticalModel(paper_544, MSG))
        assert plan.feasible
        assert plan.achieved == pytest.approx(lam_star, rel=1e-3)

    def test_monotone_in_budget(self, paper_544):
        model = AnalyticalModel(paper_544, MSG)
        zero = model.zero_load_latency()
        engine = one_cell(paper_544)
        small = max_load_for_latency(engine, 1.2 * zero).achieved
        large = max_load_for_latency(engine, 2.0 * zero).achieved
        assert large > small

    def test_rejects_nonpositive_budget(self, paper_544):
        with pytest.raises(ValueError):
            max_load_for_latency(one_cell(paper_544), 0.0)

    @pytest.mark.parametrize(
        "budget,feasible,detail",
        [
            (20.0, False, "budget 20 below zero-load latency 40.81"),
            (100.0, True, "λ_max = 8.6494e-04 (83% of saturation)"),
            (1e6, True, "budget met arbitrarily close to the saturation load"),
        ],
    )
    def test_detail_text_per_branch(self, paper_544, budget, feasible, detail):
        plan = max_load_for_latency(one_cell(paper_544), budget)
        assert (plan.feasible, plan.detail) == (feasible, detail)


class TestRequiredUpgrade:
    def test_icn2_upgrade_reaches_target(self, paper_544):
        base = find_saturation_load(AnalyticalModel(paper_544, MSG))
        plan = required_upgrade_factor(one_cell(paper_544), "icn2", 1.3 * base)
        assert plan.feasible
        assert 1.0 < plan.achieved < 2.0

    def test_non_binding_roles_infeasible(self, paper_544):
        base = find_saturation_load(AnalyticalModel(paper_544, MSG))
        for role in ("ecn1", "icn1"):
            plan = required_upgrade_factor(one_cell(paper_544), role, 1.3 * base, max_factor=4.0)
            assert not plan.feasible

    def test_no_upgrade_needed(self, paper_544):
        base = find_saturation_load(AnalyticalModel(paper_544, MSG))
        plan = required_upgrade_factor(one_cell(paper_544), "icn2", 0.5 * base)
        assert plan.feasible
        assert plan.achieved == 1.0

    def test_factor_is_minimal(self, paper_544):
        from repro.analysis import scale_network

        base = find_saturation_load(AnalyticalModel(paper_544, MSG))
        target = 1.25 * base
        plan = required_upgrade_factor(one_cell(paper_544), "icn2", target)
        at = find_saturation_load(AnalyticalModel(scale_network(paper_544, "icn2", plan.achieved), MSG))
        below = find_saturation_load(
            AnalyticalModel(scale_network(paper_544, "icn2", plan.achieved * 0.98), MSG)
        )
        assert at >= target
        assert below < target


class TestUpgradeKneeCaching:
    """Regression: the detail f-strings used to re-run full saturation
    searches (knee(hi), knee(max_factor)) for values already computed."""

    @staticmethod
    def _record_built_systems(monkeypatch):
        import repro.analysis.capacity as capacity_mod

        built: list[str] = []
        real = capacity_mod.StackedModel

        class Recording(real):
            def __init__(self, cells):
                built.extend(cell[0].name for cell in cells)
                super().__init__(cells)

        monkeypatch.setattr(capacity_mod, "StackedModel", Recording)
        return built

    def test_infeasible_path_builds_each_factor_once(self, paper_544, monkeypatch):
        engine = one_cell(paper_544)
        built = self._record_built_systems(monkeypatch)
        base = find_saturation_load(AnalyticalModel(paper_544, MSG))
        plan = required_upgrade_factor(engine, "icn1", 1.3 * base, max_factor=4.0)
        assert not plan.feasible
        # Factor 1 is the engine itself, so only knee(max_factor) is built,
        # exactly once; the detail string must reuse that cached knee
        # instead of recomputing it.
        assert built == [f"{paper_544.name}+icn1x4"]
        assert "not the binding resource" in plan.detail

    def test_feasible_path_reuses_cached_knee_in_detail(self, paper_544, monkeypatch):
        engine = one_cell(paper_544)
        built = self._record_built_systems(monkeypatch)
        base = find_saturation_load(AnalyticalModel(paper_544, MSG))
        plan = required_upgrade_factor(engine, "icn2", 1.3 * base)
        assert plan.feasible
        # The final detail reuses the cached knee(hi): no system variant is
        # ever constructed twice across the bisection + report, and factor 1
        # (the engine itself) is never rebuilt.
        assert len(built) == len(set(built))
        assert paper_544.name not in built
        assert f"x{plan.achieved:.3f}" in plan.detail


class TestEnginePattern:
    """The engine carries the traffic pattern, so the queries price the
    pattern they were given the engine for."""

    PATTERN = HotspotTraffic(hot_cluster=15, hot_fraction=0.3)

    def test_bottlenecks_rank_the_engine_pattern(self, paper_544):
        """Regression: a hotspot operating point must not rank as uniform."""
        hotspot = model_bottlenecks(one_cell(paper_544, self.PATTERN), 2e-4)
        uniform = model_bottlenecks(one_cell(paper_544), 2e-4)
        assert hotspot.resources != uniform.resources
        assert hotspot.binding.kind == uniform.binding.kind == "concentrator"
        assert hotspot.load == 2e-4

    def test_capacity_plans_the_engine_pattern(self, paper_544):
        engine = one_cell(paper_544, self.PATTERN)
        budget = 1.5 * float(engine.zero_load_latencies()[0])
        plan = max_load_for_latency(engine, budget)
        assert plan.feasible
        assert plan.achieved == float(engine.loads_at_budget([budget])[0])
        assert engine.evaluate_latencies([plan.achieved])[0, 0] <= budget
        assert plan.achieved != max_load_for_latency(one_cell(paper_544), budget).achieved

    def test_upgrade_plans_the_engine_pattern(self, paper_544):
        from repro.analysis import scale_network

        engine = one_cell(paper_544, self.PATTERN)
        target = 1.25 * float(engine.saturation_load()[0])
        plan = required_upgrade_factor(engine, "icn2", target)
        assert plan.feasible

        def knee(factor):
            system = scale_network(paper_544, "icn2", factor)
            return float(one_cell(system, self.PATTERN).saturation_load()[0])

        assert knee(plan.achieved) >= target > knee(plan.achieved * 0.98)
        uniform = required_upgrade_factor(one_cell(paper_544), "icn2", target)
        assert plan.achieved != uniform.achieved
