"""Calibration-engine tests (repro.experiments.calibrate).

Locks the subsystem's contracts: deterministic option-space enumeration,
ground truth shared across combinations, serial/parallel bit-equality, an
on-disk simulator-curve cache whose hits are indistinguishable from fresh
runs, and — the regression the whole design hangs on — single-knob
calibration reproducing the hand-written ablation bench numbers bit for
bit.
"""

import json
import math
from types import SimpleNamespace

import pytest

from repro.cluster import homogeneous_system
from repro.core import AnalyticalModel, MessageSpec, ModelOptions, paper_system_544
from repro.core.sweep import find_saturation_load
from repro.experiments import Experiment
from repro.experiments.calibrate import (
    CALIBRATION_SCHEMA,
    SIM_CURVE_SCHEMA,
    calibrate_options,
    option_combinations,
    sim_curve_key,
)
from repro.io import ResultCache, to_jsonable
from repro.scenarios import AxisSpec, ScenarioSpec, get_scenario
from repro.simulation import MeasurementWindow, SimulationSession

TINY_AXES = [("relaxing_factor", (True, False)), ("concentrator_rate", ("pair_mean", "source_outgoing"))]
TINY_KW = dict(messages=300, seed=1)


def tiny_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="tiny",
        system=homogeneous_system(switch_ports=4, tree_depth=2, num_clusters=4),
        message=MessageSpec(16, 256.0),
    )


def canonical(payload) -> str:
    """Bit-stable text form (NaN/inf-safe) for table-equality assertions."""
    return json.dumps(to_jsonable(payload), sort_keys=True)


@pytest.fixture(scope="module")
def sim_cache(tmp_path_factory):
    """One on-disk curve cache shared by the module's calibration runs."""
    return ResultCache(tmp_path_factory.mktemp("calibration-cache"))


@pytest.fixture(scope="module")
def tiny_result(sim_cache):
    return calibrate_options([tiny_spec()], axes=TINY_AXES, cache=sim_cache, **TINY_KW)


class TestOptionCombinations:
    def test_full_space_is_96(self):
        varied, combos = option_combinations()
        assert len(combos) == 96
        assert [len(values) for _, values in varied] == [2, 3, 2, 2, 2, 2]
        assert len({name for name, _ in combos}) == 96

    def test_row_major_last_knob_fastest(self):
        _, combos = option_combinations()
        first, second = combos[0][1], combos[1][1]
        assert first.concentrator_rate == "pair_mean"
        assert second.concentrator_rate == "source_outgoing"
        # Every other knob still at its first domain value.
        assert second.tcn_convention == "half_network_latency"
        assert combos[0][0].startswith("tcn_convention=half_network_latency/")

    def test_fixed_pins_a_knob(self):
        varied, combos = option_combinations(fixed={"source_queue_rate": "per_node"})
        assert len(combos) == 32
        assert all(c.source_queue_rate == "per_node" for _, c in combos)
        assert "source_queue_rate" not in dict(varied)

    def test_axes_restrict_and_default_the_rest(self):
        varied, combos = option_combinations(axes=[("relaxing_factor", (True, False))])
        assert [name for name, _ in combos] == ["relaxing_factor=True", "relaxing_factor=False"]
        # Unmentioned knobs sit at the ModelOptions defaults.
        assert all(c.concentrator_rate == "pair_mean" for _, c in combos)

    def test_axisspec_and_options_prefix_accepted(self):
        varied, combos = option_combinations(
            axes=[AxisSpec("options.variance_approximation", ("paper", "exponential"))]
        )
        assert dict(varied) == {"variance_approximation": ("paper", "exponential")}

    def test_unknown_knob_rejected(self):
        with pytest.raises(ValueError, match="unknown model option 'drain_model'"):
            option_combinations(fixed={"drain_model": "x"})

    def test_value_outside_domain_rejected(self):
        with pytest.raises(ValueError, match="cannot take 'maybe'"):
            option_combinations(axes=[("relaxing_factor", ("maybe",))])

    def test_everything_pinned_rejected(self):
        pins = ModelOptions().to_dict()
        with pytest.raises(ValueError, match="at least one varying knob"):
            option_combinations(fixed=pins)

    def test_knob_in_axes_and_fixed_rejected(self):
        with pytest.raises(ValueError, match="both axes and fixed"):
            option_combinations(
                axes=[("relaxing_factor", (True, False))], fixed={"relaxing_factor": True}
            )

    def test_duplicate_axis_rejected(self):
        with pytest.raises(ValueError, match="duplicate option axis"):
            option_combinations(
                axes=[("relaxing_factor", (True,)), ("relaxing_factor", (False,))]
            )


class TestCalibrateResult:
    def test_schema_and_kind(self, tiny_result):
        assert tiny_result.schema == CALIBRATION_SCHEMA
        assert tiny_result.kind == "calibrate"
        assert tiny_result.scenario == "tiny"
        # The result is JSON-serialisable end to end.
        json.dumps(to_jsonable(tiny_result.to_dict()))

    def test_table_shape(self, tiny_result):
        data = tiny_result.data
        assert len(data["combinations"]) == 4
        lengths = {len(col) for col in data["columns"].values()}
        assert lengths == {4}
        assert set(data["columns"]) == {
            "combination",
            "relaxing_factor",
            "concentrator_rate",
            "rms_weighted:tiny",
            "score",
        }

    def test_ground_truth_shared_across_combinations(self, tiny_result):
        # One simulator curve per scenario: every combination scored
        # against the same four points.
        [scenario] = tiny_result.data["scenarios"]
        assert len(scenario["sim_latencies"]) == 4
        assert tiny_result.data["simulated_points"] == 4

    def test_loads_anchored_to_reference_saturation(self, tiny_result):
        spec = tiny_spec()
        lam_ref = find_saturation_load(AnalyticalModel(spec.system, spec.message))
        [scenario] = tiny_result.data["scenarios"]
        assert scenario["loads"] == [f * lam_ref for f in (0.2, 0.4, 0.6, 0.8)]

    def test_errors_reproduce_the_scalar_model(self, tiny_result):
        # Spot-check one combination's errors against a by-hand recompute
        # through the scalar reference model.
        spec = tiny_spec()
        [scenario] = tiny_result.data["scenarios"]
        record = next(
            r
            for r in tiny_result.data["combinations"]
            if r["options"]["relaxing_factor"] is False
            and r["options"]["concentrator_rate"] == "pair_mean"
        )
        model = AnalyticalModel(
            spec.system, spec.message, ModelOptions.from_dict(record["options"])
        )
        expected = [
            (model.evaluate(lam).latency - sim) / sim
            for lam, sim in zip(scenario["loads"], scenario["sim_latencies"])
        ]
        assert record["per_scenario"]["tiny"]["errors"] == expected

    def test_winner_is_the_score_minimum(self, tiny_result):
        data = tiny_result.data
        scores = [r["score"] for r in data["combinations"]]
        assert data["winner"]["score"] == min(scores)
        assert data["ranking"][0] == data["winner"]["index"]
        ranked = [data["combinations"][i]["score"] for i in data["ranking"]]
        assert ranked == sorted(ranked)

    def test_sensitivity_covers_varied_knobs(self, tiny_result):
        knobs = {s["knob"] for s in tiny_result.data["sensitivity"]}
        assert knobs == {"relaxing_factor", "concentrator_rate"}


class TestParallelAndCache:
    def test_parallel_is_bit_identical_to_serial(self, sim_cache, tiny_result):
        parallel = calibrate_options(
            [tiny_spec()], axes=TINY_AXES, cache=sim_cache, jobs=2, **TINY_KW
        )
        for field in ("combinations", "columns", "ranking", "winner"):
            assert canonical(parallel.data[field]) == canonical(tiny_result.data[field])

    @pytest.mark.parametrize("error", [ValueError, IndexError])
    def test_engine_bug_propagates(self, sim_cache, tiny_result, monkeypatch, error):
        """The model side is one stacked call with no per-combination
        fallback: any exception from it, a model rejection included,
        propagates."""
        from repro.core.stacked import StackedModel

        def broken(self, loads):
            raise error("engine bug")

        monkeypatch.setattr(StackedModel, "evaluate_latencies", broken)
        with pytest.raises(error, match="engine bug"):
            calibrate_options([tiny_spec()], axes=TINY_AXES, cache=sim_cache, **TINY_KW)

    def test_cached_run_simulates_nothing(self, sim_cache, tiny_result):
        again = calibrate_options([tiny_spec()], axes=TINY_AXES, cache=sim_cache, **TINY_KW)
        assert again.data["simulated_points"] == 0
        assert again.data["cached_curves"] == 1
        assert again.data["scenarios"][0]["from_cache"] is True
        assert canonical(again.data["combinations"]) == canonical(
            tiny_result.data["combinations"]
        )

    def test_reported_jobs_are_the_workers_that_could_run(self, sim_cache, tiny_result, tmp_path):
        """Explore's rule: ``max(1, min(jobs, points to simulate))``."""
        one_point = calibrate_options(
            [tiny_spec()], axes=TINY_AXES, fractions=(0.2,), jobs=4,
            cache=ResultCache(tmp_path / "cache"), **TINY_KW,
        )
        assert (one_point.data["simulated_points"], one_point.data["jobs"]) == (1, 1)
        replay = calibrate_options([tiny_spec()], axes=TINY_AXES, cache=sim_cache, jobs=8, **TINY_KW)
        assert (replay.data["simulated_points"], replay.data["jobs"]) == (0, 1)
        assert "(1 of 1 curves from cache, jobs=1)" in replay.text

    def test_restricting_the_space_reuses_the_curve(self, sim_cache, tiny_result):
        # The curve key is independent of the combination space.
        narrower = calibrate_options(
            [tiny_spec()], axes=[("relaxing_factor", (True, False))], cache=sim_cache, **TINY_KW
        )
        assert narrower.data["simulated_points"] == 0
        assert (
            narrower.data["scenarios"][0]["sim_latencies"]
            == tiny_result.data["scenarios"][0]["sim_latencies"]
        )

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        spec = tiny_spec()
        window = MeasurementWindow.scaled_paper(TINY_KW["messages"])
        lam_ref = find_saturation_load(AnalyticalModel(spec.system, spec.message))
        loads = [f * lam_ref for f in (0.2, 0.4, 0.6, 0.8)]
        seeds = [TINY_KW["seed"] + i for i in range(4)]
        key = sim_curve_key(spec, loads, seeds, window, "message")
        store.put(key, {"schema": SIM_CURVE_SCHEMA, "latencies": [1.0]})  # truncated
        result = calibrate_options(
            [spec], axes=[("relaxing_factor", (True, False))], cache=store, **TINY_KW
        )
        assert result.data["simulated_points"] == 4  # recomputed, not crashed

    def test_protocol_changes_the_key(self):
        spec = tiny_spec()
        window = MeasurementWindow.scaled_paper(300)
        base = sim_curve_key(spec, [1e-3], [0], window, "message")
        assert sim_curve_key(spec, [2e-3], [0], window, "message") != base
        assert sim_curve_key(spec, [1e-3], [1], window, "message") != base
        assert sim_curve_key(spec, [1e-3], [0], window, "flit") != base
        # Derived naming does not move the key.
        renamed = ScenarioSpec(name="other", system=spec.system, message=spec.message)
        assert sim_curve_key(renamed, [1e-3], [0], window, "message") == base


class TestModelSideMatchesScalarModel:
    """The one stacked model-side call equals the scalar reference model
    bit for bit over the whole 96-combination option space."""

    @pytest.mark.parametrize("name", ["1120", "het8-split"])
    def test_every_combination_bit_for_bit(self, name, monkeypatch):
        import repro.simulation.parallel as parallel

        def fake_point(item):
            # Ground truth is irrelevant here; skip the simulator.
            return SimpleNamespace(
                mean_latency=1.0, stats=SimpleNamespace(std=0.0), completed=True, events=0
            )

        monkeypatch.setattr(parallel, "run_work_item", fake_point)
        result = calibrate_options([name])
        spec = get_scenario(name)
        [scenario] = result.data["scenarios"]
        assert len(result.data["combinations"]) == 96
        for record in result.data["combinations"]:
            model = AnalyticalModel(
                spec.system,
                spec.message,
                ModelOptions.from_dict(record["options"]),
                spec.pattern,
            )
            expected = [model.evaluate(lam).latency for lam in scenario["loads"]]
            assert record["per_scenario"][name]["model"] == expected, record["name"]


class TestSaturatingCombination:
    def test_early_saturating_reading_ranks_last(self, sim_cache):
        # The literal aggregate-pair reading saturates at ~0.23 of the
        # reference λ* on the tiny system, inside the 0.4/0.6/0.8 points:
        # its curve scores inf and ranks behind every finite reading.
        result = calibrate_options(
            [tiny_spec()],
            axes=[("source_queue_rate", ("paper", "aggregate_pair"))],
            cache=sim_cache,
            **TINY_KW,
        )
        records = {r["options"]["source_queue_rate"]: r for r in result.data["combinations"]}
        assert records["aggregate_pair"]["score"] == math.inf
        assert math.isfinite(records["paper"]["score"])
        # The lightest point (0.2 λ*_ref) is still below its knee, so the
        # light-load metric stays finite while the curve metrics blow up.
        assert math.isfinite(records["aggregate_pair"]["per_scenario"]["tiny"]["light_load_error"])
        assert result.data["ranking"][-1] == records["aggregate_pair"]["index"]
        assert result.data["winner"]["options"]["source_queue_rate"] == "paper"
        assert result.data["sensitivity_dropped"] == 1


class TestExperimentFacade:
    def test_facade_matches_direct_call(self, sim_cache, tiny_result):
        via_facade = Experiment(tiny_spec()).calibrate(
            axes=TINY_AXES, cache=sim_cache, **TINY_KW
        )
        assert canonical(via_facade.data["combinations"]) == canonical(
            tiny_result.data["combinations"]
        )
        assert via_facade.schema == CALIBRATION_SCHEMA


class TestValidation:
    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError, match="must be in \\(0, 1\\)"):
            calibrate_options([tiny_spec()], fractions=(0.5, 1.0))

    def test_unsorted_fractions_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            calibrate_options([tiny_spec()], fractions=(0.4, 0.2))

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="metric must be one of"):
            calibrate_options([tiny_spec()], metric="mse")

    def test_duplicate_scenarios_rejected(self):
        with pytest.raises(ValueError, match="duplicate scenario names"):
            calibrate_options([tiny_spec(), tiny_spec()])

    def test_no_scenarios_rejected(self):
        with pytest.raises(ValueError, match="at least one scenario"):
            calibrate_options([])


class TestAblationBenchRegression:
    """Single-knob calibration == bench_ablation_relaxing_factor, bit for bit.

    Recomputes the bench's pipeline inline — scalar models at fractions of
    the default reading's λ*, one shared simulator seed, the scaled paper
    window — and pins that ``calibrate`` restricted to the same knob
    produces the *identical* floats.  (Same protocol as the bench at a
    reduced message budget; bit-equality is budget-independent because
    both sides consume the same budget.)
    """

    MESSAGES = 500
    SEED = 2

    def test_relaxing_factor_errors_bit_for_bit(self):
        system = paper_system_544()
        message = MessageSpec(32, 256.0)
        with_delta = AnalyticalModel(system, message)
        without_delta = AnalyticalModel(system, message, ModelOptions(relaxing_factor=False))
        lam_star = find_saturation_load(with_delta)
        loads = [f * lam_star for f in (0.2, 0.4, 0.6, 0.8)]
        window = MeasurementWindow.scaled_paper(self.MESSAGES)
        session = SimulationSession(system, message)
        bench_errors = {True: [], False: []}
        for lam in loads:
            sim = session.run(lam, seed=self.SEED, window=window).mean_latency
            bench_errors[True].append((with_delta.evaluate(lam).latency - sim) / sim)
            bench_errors[False].append((without_delta.evaluate(lam).latency - sim) / sim)

        result = calibrate_options(
            ["544"],
            fixed={
                "tcn_convention": "half_network_latency",
                "source_queue_rate": "paper",
                "variance_approximation": "paper",
                "inter_average": "paper",
                "concentrator_rate": "pair_mean",
            },
            messages=self.MESSAGES,
            seed=self.SEED,
            seed_stride=0,  # the benches share one seed across loads
        )
        assert [r["name"] for r in result.data["combinations"]] == [
            "relaxing_factor=True",
            "relaxing_factor=False",
        ]
        [scenario] = result.data["scenarios"]
        assert scenario["loads"] == loads
        for record in result.data["combinations"]:
            expected = bench_errors[record["options"]["relaxing_factor"]]
            assert record["per_scenario"]["544"]["errors"] == expected
