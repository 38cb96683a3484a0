"""Experiment facade tests (repro.experiments).

The key invariant: every Experiment workflow returns *exactly* the numbers
the corresponding direct call produces — the facade is plumbing, not a new
model path.
"""

import numpy as np
import pytest

from repro.analysis import max_load_for_latency, model_bottlenecks
from repro.core import BatchedModel, MessageSpec, paper_system_1120
from repro.core.stacked import StackedModel
from repro.core.sweep import auto_load_grid, sweep_load
from repro.experiments import EXPERIMENT_SCHEMA, Experiment
from repro.io import to_jsonable
from repro.scenarios import ScenarioSpec, get_scenario, scenario_names


@pytest.fixture(scope="module")
def exp_1120():
    return Experiment("1120")


class TestConstruction:
    def test_accepts_name_or_spec(self):
        by_name = Experiment("544")
        by_spec = Experiment(get_scenario("544"))
        assert by_name.spec == by_spec.spec

    def test_rejects_non_spec(self):
        with pytest.raises(ValueError):
            Experiment(42)

    def test_engine_is_cached(self, exp_1120):
        assert exp_1120.engine is exp_1120.engine

    def test_engine_reflects_spec(self):
        exp = Experiment("544-hotspot")
        assert exp.engine.pattern is exp.spec.pattern
        assert exp.engine.pattern is not None

    def test_unserialisable_pattern_fails_at_construction(self):
        """Regression: an unregistered pattern used to fail only after the
        first workflow finished its computation."""
        from repro.core import paper_system_544
        from repro.workloads import LocalityTraffic

        class Custom(LocalityTraffic):
            pass

        spec = ScenarioSpec(name="custom", system=paper_system_544(), pattern=Custom(0.5))
        with pytest.raises(ValueError, match="not registered"):
            Experiment(spec)


class TestMatchesDirectCalls:
    """Acceptance: 1120 Experiment results == direct entry-point results."""

    def test_sweep_matches_sweep_load(self, exp_1120):
        engine = BatchedModel(paper_system_1120(), MessageSpec(32, 256.0))
        grid = auto_load_grid(engine, points=12, fraction_of_saturation=0.95)
        direct = sweep_load(engine, grid, with_results=False)
        facade = exp_1120.sweep()
        assert facade.data["columns"]["load"] == [float(v) for v in direct.loads]
        assert facade.data["columns"]["latency"] == [float(v) for v in direct.latencies]

    def test_capacity_matches_max_load_for_latency(self, exp_1120):
        direct = max_load_for_latency(
            StackedModel([(paper_system_1120(), MessageSpec(32, 256.0), None, None)]), 80.0
        )
        facade = exp_1120.capacity(80.0)
        assert facade.data["achieved"] == direct.achieved
        assert facade.data["feasible"] == direct.feasible
        assert facade.data["target"] == direct.target

    def test_bottlenecks_matches_model_bottlenecks(self, exp_1120):
        lam = 0.9 * exp_1120.engine.saturation_load()
        direct = model_bottlenecks(
            StackedModel([(paper_system_1120(), MessageSpec(32, 256.0), None, None)]), lam
        )
        facade = exp_1120.bottlenecks()
        assert facade.data["binding"]["resource"] == direct.binding.resource
        assert facade.data["binding"]["utilization"] == direct.binding.utilization
        assert [r["resource"] for r in facade.data["resources"]] == [
            r.resource for r in direct.resources
        ]
        assert facade.data["saturation_load"] == direct.saturation_load
        # The CSV-ready columns mirror the per-resource records exactly.
        cols = facade.data["columns"]
        assert cols["resource"] == [r.resource for r in direct.resources]
        assert cols["kind"] == [r.kind for r in direct.resources]
        assert cols["utilization"] == [r.utilization for r in direct.resources]

    def test_saturation_matches_engine(self, exp_1120):
        engine = BatchedModel(paper_system_1120(), MessageSpec(32, 256.0))
        facade = exp_1120.saturation()
        assert facade.data["saturation_load"] == engine.saturation_load()
        assert facade.data["binding_resource"] == engine.binding_resource()
        assert facade.data["per_resource"] == engine.saturation_loads()

    def test_evaluate_matches_model(self, exp_1120):
        lam = 0.4 * exp_1120.engine.saturation_load()
        direct = exp_1120.engine.evaluate(lam)
        facade = exp_1120.evaluate(lam)
        assert facade.data["latency"] == direct.latency
        assert facade.data["saturated"] == direct.saturated

    @pytest.mark.parametrize("name", scenario_names())
    def test_saturation_text_names_the_binding_resource(self, name):
        """The text and the data name one binding resource, with its kind
        and ρ from the 0.9 λ* report (on 544-hotspot two concentrators tie
        at λ*, and the report ranks the other one first)."""
        exp = Experiment(name)
        result = exp.saturation()
        binding = result.data["binding_resource"]
        report = exp.bottlenecks()
        (entry,) = [r for r in report.data["resources"] if r["resource"] == binding]
        assert result.text.splitlines()[1] == (
            f"binding resource   = {binding} ({entry['kind']}, "
            f"ρ={entry['utilization']:.3f} at 0.9 λ*)"
        )

    @pytest.mark.parametrize("name", scenario_names())
    def test_bottlenecks_and_saturation_name_one_binding_resource(self, name):
        """The report's binding resource is the engine's, the one whose
        utilisation first reaches 1, at any load — not the top of the
        ranking (on 544-hotspot two concentrators tie and the ranking puts
        the other one first)."""
        exp = Experiment(name)
        binding = exp.saturation().data["binding_resource"]
        for load in (None, 0.5 * exp.engine.saturation_load()):
            assert exp.bottlenecks(load).data["binding"]["resource"] == binding


class TestResultSchema:
    def test_uniform_fields(self, exp_1120):
        result = exp_1120.saturation()
        assert result.schema == EXPERIMENT_SCHEMA
        assert result.kind == "saturation"
        assert result.scenario == "1120"
        assert ScenarioSpec.from_dict(result.spec) == exp_1120.spec
        assert isinstance(result.text, str) and result.text

    def test_to_dict_is_jsonable(self, exp_1120):
        import json

        payload = exp_1120.sweep().to_dict()
        json.dumps(payload)  # must not raise
        assert payload["schema"] == EXPERIMENT_SCHEMA
        assert payload == to_jsonable(payload)

    def test_columns_on_curve_kinds(self, exp_1120):
        assert set(exp_1120.sweep().columns()) == {"load", "latency"}
        assert set(exp_1120.capacity(80.0).columns()) == {"target", "achieved", "feasible"}
        assert set(exp_1120.bottlenecks().columns()) == {
            "resource", "kind", "utilization"
        }

    def test_columns_raises_on_scalar_kinds(self, exp_1120):
        with pytest.raises(ValueError, match="no tabular columns"):
            exp_1120.describe().columns()

    def test_from_dict_round_trip(self, exp_1120):
        """Regression: ExperimentResult gained from_dict (RS201) — the
        serialised form is the fixed point since to_dict flattens arrays."""
        from repro.experiments import ExperimentResult

        result = exp_1120.saturation()
        payload = result.to_dict()
        restored = ExperimentResult.from_dict(payload)
        assert restored.to_dict() == payload
        assert restored.kind == result.kind
        assert restored.scenario == result.scenario
        assert restored.schema == EXPERIMENT_SCHEMA

    def test_from_dict_defaults_schema_and_text(self):
        from repro.experiments import ExperimentResult

        restored = ExperimentResult.from_dict(
            {"kind": "k", "scenario": "s", "spec": {}, "data": {"x": 1}}
        )
        assert restored.schema == EXPERIMENT_SCHEMA
        assert restored.text == ""

    def test_from_dict_rejects_unknown_keys(self):
        from repro.experiments import ExperimentResult

        with pytest.raises(ValueError, match="unknown"):
            ExperimentResult.from_dict(
                {"kind": "k", "scenario": "s", "spec": {}, "data": {}, "bogus": 1}
            )

    def test_from_dict_rejects_foreign_schema(self):
        from repro.experiments import ExperimentResult

        with pytest.raises(ValueError, match="schema"):
            ExperimentResult.from_dict(
                {
                    "kind": "k", "scenario": "s", "spec": {}, "data": {},
                    "schema": "repro.experiment/999",
                }
            )


class TestWorkflows:
    def test_describe(self, exp_1120):
        result = exp_1120.describe()
        assert result.data["total_nodes"] == 1120
        assert result.data["num_clusters"] == 32
        assert len(result.data["classes"]) == 3

    def test_whatif_gain_positive(self, exp_1120):
        result = exp_1120.whatif(role="icn2", factor=1.2)
        assert result.data["saturation_gain"] > 1.0
        assert len(result.data["curves"]) == 2
        base, variant = result.data["curves"]
        assert base["loads"] == variant["loads"]

    def test_saturated_evaluate_text(self, exp_1120):
        lam_star = exp_1120.engine.saturation_load()
        result = exp_1120.evaluate(2.0 * lam_star)
        assert "SATURATED" in result.text
        assert result.data["saturated"] is True

    def test_capacity_requires_budget_without_spec_default(self, exp_1120):
        with pytest.raises(ValueError, match="latency_budget"):
            exp_1120.capacity()

    def test_capacity_uses_spec_budget(self):
        from dataclasses import replace

        spec = replace(get_scenario("544"), latency_budget=60.0)
        result = Experiment(spec).capacity()
        assert result.data["target"] == 60.0
        assert result.data["feasible"] is True

    def test_simulate_and_validate_small(self):
        exp = Experiment("544")
        sim = exp.simulate(2e-4, messages=300, seed=1)
        assert sim.data["completed"] is True
        assert sim.data["mean_latency"] > 0
        val = exp.validate(points=2, messages=300, seed=1)
        cols = val.data["columns"]
        assert len(cols["load"]) == 2
        assert all(np.isfinite(cols["model"]))

    def test_pattern_scenario_runs_model_and_sim(self):
        exp = Experiment("544-local")
        sweep = exp.sweep()
        assert all(np.isfinite(sweep.data["columns"]["latency"][:-1]))
        sim = exp.simulate(1e-4, messages=200, seed=0)
        assert sim.data["completed"] is True

    def test_flit_granularity_through_facade(self):
        """Regression: the flit-level reference engine is reachable from
        Experiment.simulate/validate (small N keeps the run cheap)."""
        from repro.cluster import homogeneous_system

        spec = ScenarioSpec(
            name="flit-smoke",
            system=homogeneous_system(switch_ports=4, tree_depth=1, num_clusters=4),
        )
        exp = Experiment(spec)
        sim = exp.simulate(1e-3, messages=150, seed=3, granularity="flit")
        assert sim.data["completed"] is True
        assert sim.data["mean_latency"] > 0
        val = exp.validate(points=2, messages=150, seed=3, granularity="flit")
        cols = val.data["columns"]
        assert len(cols["load"]) == 2
        assert all(np.isfinite(cols["simulation"]))
