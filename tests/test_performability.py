"""Performability subsystem tests (spec, CTMC math, degradation, metrics).

Locks the subsystem's contracts: JSON-round-trippable failure scenarios,
a birth-death availability chain that matches closed forms and hand
enumeration, hard boundary validation of degraded-state construction, and
availability-weighted metrics that are bit-identical across worker counts
and cache replays.
"""

import json
import math

import pytest

from repro.cluster import homogeneous_system
from repro.exec import RunPolicy
from repro.experiments import Experiment
from repro.io import ResultCache, to_jsonable
from repro.performability import (
    FailureMode,
    FailureScenario,
    enumerate_states,
    expand_states,
    mode_population,
    performability_analysis,
    resolve_populations,
    state_cache_key,
    state_label,
    steady_state,
    two_state_availability,
)
from repro.scenarios import ScenarioSpec, get_scenario


def canonical(payload) -> str:
    """Bit-stable text form (NaN-safe) for table-equality assertions."""
    return json.dumps(to_jsonable(payload), sort_keys=True)


def node_mode(**kw):
    kw.setdefault("failure_rate", 1e-4)
    kw.setdefault("repair_rate", 1e-2)
    return FailureMode(kind="node", **kw)


def icn2_switch_mode(**kw):
    kw.setdefault("failure_rate", 1e-5)
    kw.setdefault("repair_rate", 1e-2)
    return FailureMode(kind="switch", role="icn2", **kw)


def icn2_link_mode(**kw):
    kw.setdefault("failure_rate", 1e-5)
    kw.setdefault("repair_rate", 1e-2)
    return FailureMode(kind="link", role="icn2", **kw)


@pytest.fixture(scope="module")
def base_544():
    return get_scenario("544")


@pytest.fixture(scope="module")
def acceptance_failures():
    """The ISSUE's acceptance spec: node + switch + link churn on 544."""
    return FailureScenario(
        modes=(node_mode(), icn2_switch_mode(), icn2_link_mode()),
        max_concurrent=2,
        name="acceptance",
    )


class TestFailureSpec:
    def test_round_trip_dict_json_file(self, acceptance_failures, tmp_path):
        scenario = acceptance_failures
        assert FailureScenario.from_dict(scenario.to_dict()) == scenario
        assert FailureScenario.from_json(scenario.to_json()) == scenario
        path = scenario.save(tmp_path / "f.json")
        assert FailureScenario.load(path) == scenario

    def test_schema_tag_present_and_enforced(self, acceptance_failures):
        data = acceptance_failures.to_dict()
        assert data["schema"] == "repro.performability/1"
        data["schema"] = "repro.performability/99"
        with pytest.raises(ValueError, match="unsupported failure-scenario schema"):
            FailureScenario.from_dict(data)

    def test_labels_derived_and_unique(self):
        mode = FailureMode(
            kind="link", role="icn1", cluster=2, level=1,
            failure_rate=0.0, repair_rate=0.0,
        )
        assert mode.label == "icn1-link-c2-L1"
        assert node_mode(name="flaky").label == "flaky"
        with pytest.raises(ValueError, match="labels must be unique"):
            FailureScenario(modes=(node_mode(), node_mode()))

    def test_with_rates_zeroed(self, acceptance_failures):
        zeroed = acceptance_failures.with_rates_zeroed()
        assert all(m.failure_rate == 0.0 for m in zeroed.modes)
        assert zeroed.labels == acceptance_failures.labels

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(kind="router", failure_rate=1e-4, repair_rate=1e-2),
             "failure kind"),
            (dict(kind="node", role="icn2", failure_rate=1e-4, repair_rate=1e-2),
             "no network role"),
            (dict(kind="switch", failure_rate=1e-4, repair_rate=1e-2),
             "need a network role"),
            (dict(kind="switch", role="icn1", failure_rate=1e-4, repair_rate=1e-2),
             "need a cluster index"),
            (dict(kind="switch", role="icn2", cluster=0,
                  failure_rate=1e-4, repair_rate=1e-2),
             "cluster must be None"),
            (dict(kind="node", failure_rate=1e-4, repair_rate=0.0),
             "repair_rate must be positive"),
            (dict(kind="node", failure_rate=-1.0, repair_rate=1e-2),
             "finite non-negative"),
            (dict(kind="ports", role="icn2", failure_rate=1e-4, repair_rate=1e-2),
             "fraction"),
            (dict(kind="node", fraction=0.5, failure_rate=1e-4, repair_rate=1e-2),
             "only applies to ports"),
            (dict(kind="node", count=0, failure_rate=1e-4, repair_rate=1e-2),
             "count"),
        ],
    )
    def test_mode_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            FailureMode(**kwargs)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            FailureMode.from_dict(
                {"kind": "node", "failure_rate": 1e-4,
                 "repair_rate": 1e-2, "mtbf": 1e4}
            )
        with pytest.raises(ValueError, match="unknown"):
            FailureScenario.from_dict(
                {"modes": [{"kind": "node", "failure_rate": 0.0,
                            "repair_rate": 0.0}], "burst": True}
            )

    def test_needs_at_least_one_mode(self):
        with pytest.raises(ValueError, match="at least one mode"):
            FailureScenario(modes=())


class TestAvailabilityMath:
    def test_ctmc_matches_two_state_closed_form(self):
        # One repairable unit: pi_up must equal MTBF / (MTBF + MTTR).
        failure, repair = 1e-4, 1e-2
        scenario = FailureScenario(
            modes=(node_mode(failure_rate=failure, repair_rate=repair),)
        )
        probs = steady_state(scenario, (1,))
        expected = two_state_availability(1.0 / failure, 1.0 / repair)
        assert probs[0] == pytest.approx(expected, rel=1e-12)
        assert probs[1] == pytest.approx(1.0 - expected, rel=1e-12)

    def test_ctmc_matches_hand_enumerated_three_state_chain(self):
        # Machine-repairman with 2 units, independent repair:
        # birth (2-k)f, death k*r, so pi_1/pi_0 = 2f/r, pi_2/pi_0 = f^2/r^2.
        f, r = 0.003, 0.1
        scenario = FailureScenario(
            modes=(node_mode(failure_rate=f, repair_rate=r, count=2),)
        )
        probs = steady_state(scenario, (2,))
        norm = 1.0 + 2.0 * f / r + (f / r) ** 2
        assert probs[0] == pytest.approx(1.0 / norm, rel=1e-12)
        assert probs[1] == pytest.approx((2.0 * f / r) / norm, rel=1e-12)
        assert probs[2] == pytest.approx((f / r) ** 2 / norm, rel=1e-12)

    def test_probabilities_sum_to_one_under_truncation(self):
        scenario = FailureScenario(
            modes=(
                node_mode(failure_rate=2e-3, repair_rate=5e-2, count=2),
                icn2_switch_mode(failure_rate=7e-4, repair_rate=3e-2, count=2),
            ),
            max_concurrent=2,
        )
        states = enumerate_states(scenario)
        assert len(states) == 6  # 3x3 product minus the three sum>2 corners
        probs = steady_state(scenario, (100, 4))
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)
        assert all(p >= 0.0 for p in probs)

    def test_zero_rate_modes_get_exact_zero(self):
        scenario = FailureScenario(
            modes=(
                node_mode(failure_rate=1e-4, repair_rate=1e-2),
                icn2_switch_mode(failure_rate=0.0, repair_rate=0.0),
            )
        )
        states = enumerate_states(scenario)
        probs = steady_state(scenario, (100, 4))
        for state, p in zip(states, probs):
            if state[1] > 0:
                assert p == 0.0
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_all_rates_zero_is_exactly_pristine(self):
        scenario = FailureScenario(
            modes=(node_mode(), icn2_switch_mode())
        ).with_rates_zeroed()
        probs = steady_state(scenario, (100, 4))
        assert probs[0] == 1.0
        assert all(p == 0.0 for p in probs[1:])

    def test_enumeration_is_lexicographic_with_pristine_first(self):
        scenario = FailureScenario(
            modes=(node_mode(count=2), icn2_switch_mode()), max_concurrent=2
        )
        assert enumerate_states(scenario) == [
            (0, 0), (0, 1), (1, 0), (1, 1), (2, 0)
        ]
        assert state_label(scenario, (0, 0)) == "pristine"
        assert state_label(scenario, (2, 0)) == "node=2"
        assert state_label(scenario, (1, 1)) == "node=1+icn2-switch=1"

    def test_population_validation(self):
        scenario = FailureScenario(modes=(node_mode(count=8),))
        with pytest.raises(ValueError, match="only 4 component"):
            steady_state(scenario, (4,))
        with pytest.raises(ValueError, match="one population per mode"):
            steady_state(scenario, (4, 4))

    def test_two_state_closed_form_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="mtbf"):
            two_state_availability(0.0, 1.0)
        with pytest.raises(ValueError, match="mttr"):
            two_state_availability(1.0, -2.0)


class TestDegrade:
    def test_populations_on_544(self, base_544):
        scenario = FailureScenario(
            modes=(node_mode(), icn2_switch_mode(), icn2_link_mode())
        )
        # 544 nodes; ICN2 is a 4-port 3-tree: 4 top-level switches, 16 nodes
        # worth of links per level.
        assert resolve_populations(base_544.system, scenario) == (544, 4, 16)

    def test_switch_loss_derates_bandwidth_only(self, base_544):
        system = base_544.system
        scenario = FailureScenario(modes=(icn2_switch_mode(),))
        pristine, degraded = expand_states(system, scenario)
        assert pristine.system == system
        assert degraded.system.icn2.bandwidth == pytest.approx(
            system.icn2.bandwidth * 3 / 4
        )
        # Topology shape is untouched: only the bandwidth is derated.
        assert degraded.system.icn2_tree_depth == system.icn2_tree_depth
        assert degraded.system.clusters == system.clusters
        assert degraded.active_nodes == system.total_nodes

    def test_node_loss_changes_capacity_not_fabric(self, base_544):
        system = base_544.system
        scenario = FailureScenario(modes=(node_mode(count=2),))
        states = expand_states(system, scenario)
        assert [st.active_nodes for st in states] == [544, 543, 542]
        assert all(st.system == system for st in states)

    def test_ports_mode_derates_by_fraction(self, base_544):
        system = base_544.system
        scenario = FailureScenario(
            modes=(
                FailureMode(
                    kind="ports", role="icn1", cluster=0, count=2,
                    fraction=0.25, failure_rate=1e-4, repair_rate=1e-2,
                ),
            )
        )
        states = expand_states(system, scenario)
        original = system.clusters[0].icn1.bandwidth
        assert states[1].system.clusters[0].icn1.bandwidth == pytest.approx(
            original * 0.75
        )
        assert states[2].system.clusters[0].icn1.bandwidth == pytest.approx(
            original * 0.5
        )
        # Other clusters and networks are untouched.
        assert states[2].system.clusters[1:] == system.clusters[1:]
        assert states[2].system.icn2 == system.icn2

    def test_factors_compose_multiplicatively(self, base_544):
        system = base_544.system
        scenario = FailureScenario(
            modes=(icn2_switch_mode(), icn2_link_mode()), max_concurrent=2
        )
        both = [
            st for st in expand_states(system, scenario) if st.state == (1, 1)
        ]
        assert both, "joint state missing from the expansion"
        assert both[0].system.icn2.bandwidth == pytest.approx(
            system.icn2.bandwidth * (3 / 4) * (15 / 16)
        )

    def test_disconnecting_spec_names_the_state(self, base_544):
        scenario = FailureScenario(modes=(icn2_switch_mode(count=4),))
        with pytest.raises(ValueError) as err:
            expand_states(base_544.system, scenario)
        message = str(err.value)
        assert "availability state 'icn2-switch=4' is invalid" in message
        assert "disconnect the fabric" in message

    def test_removing_every_node_names_the_state(self):
        system = homogeneous_system(switch_ports=4, tree_depth=1, num_clusters=4)
        scenario = FailureScenario(
            modes=(node_mode(count=system.total_nodes),)
        )
        with pytest.raises(ValueError) as err:
            expand_states(system, scenario)
        message = str(err.value)
        assert f"availability state 'node={system.total_nodes}'" in message
        assert "removes all" in message

    def test_bad_targeting_fails_before_expansion(self, base_544):
        with pytest.raises(ValueError, match="cluster 99"):
            mode_population(
                base_544.system,
                FailureMode(
                    kind="switch", role="icn1", cluster=99,
                    failure_rate=1e-4, repair_rate=1e-2,
                ),
            )
        with pytest.raises(ValueError, match="level 9"):
            mode_population(base_544.system, icn2_switch_mode(level=9))
        single = homogeneous_system(switch_ports=4, tree_depth=2, num_clusters=1)
        with pytest.raises(ValueError, match="no ICN2"):
            mode_population(single, icn2_switch_mode())
        with pytest.raises(ValueError, match="only 4 component"):
            mode_population(base_544.system, icn2_switch_mode(count=5))


class TestPerformabilityAnalysis:
    def test_acceptance_weighted_capacity_below_pristine(
        self, base_544, acceptance_failures
    ):
        result = performability_analysis(base_544, acceptance_failures)
        data = result.data
        assert result.kind == "performability"
        assert data["availability"] < 1.0
        assert data["saturation_load_weighted"] < data["saturation_load_pristine"]
        assert data["expected_capacity"] < (
            base_544.system.total_nodes * data["saturation_load_pristine"]
        )
        assert sum(data["columns"]["probability"]) == pytest.approx(1.0, abs=1e-12)

    def test_zero_rates_recover_pristine_exactly(self, base_544, acceptance_failures):
        result = performability_analysis(
            base_544, acceptance_failures.with_rates_zeroed()
        )
        data = result.data
        assert data["availability"] == 1.0
        assert data["saturation_load_weighted"] == data["saturation_load_pristine"]
        assert data["expected_capacity"] == (
            base_544.system.total_nodes * data["saturation_load_pristine"]
        )

    def test_switch_loss_outranks_node_loss(self, base_544, acceptance_failures):
        ranking = performability_analysis(base_544, acceptance_failures).data[
            "ranking"
        ]
        impact = {row["mode"]: row["impact"] for row in ranking}
        assert impact["icn2-switch"] > impact["node"]
        assert ranking[0]["mode"] == "icn2-switch"
        # Impacts are sorted worst-first and every single-failure state ranks,
        # including ones reached with probability ~0.
        impacts = [row["impact"] for row in ranking]
        assert impacts == sorted(impacts, reverse=True)
        assert len(ranking) == len(acceptance_failures.modes)

    def test_zero_rate_what_if_modes_still_rank(self, base_544):
        failures = FailureScenario(
            modes=(
                node_mode(),
                icn2_switch_mode(failure_rate=0.0, repair_rate=0.0),
            )
        )
        ranking = performability_analysis(base_544, failures).data["ranking"]
        rows = {row["mode"]: row for row in ranking}
        assert rows["icn2-switch"]["probability"] == 0.0
        assert rows["icn2-switch"]["impact"] > rows["node"]["impact"]

    def test_serial_and_parallel_are_bit_identical(self, base_544, acceptance_failures):
        serial = performability_analysis(base_544, acceptance_failures)
        fanned = performability_analysis(base_544, acceptance_failures, jobs=2)
        assert fanned.data["jobs"] == 2
        # The serial run prices every distinct degraded system in one
        # stacked evaluation; --jobs falls back to the supervised pool.
        assert serial.data["stacked"] is True
        assert fanned.data["stacked"] is False
        for key in ("columns", "curve", "ranking", "availability",
                    "saturation_load_weighted", "expected_capacity"):
            assert canonical(serial.data[key]) == canonical(fanned.data[key])

    @pytest.mark.parametrize(
        "policy", [None, RunPolicy(max_retries=0)], ids=["one-pass", "per-item"]
    )
    def test_model_rejection_is_confined_to_its_state(self, base_544, monkeypatch, policy):
        """A ValueError from the stack (the model rejecting one degraded
        system) turns only that state into a NaN row, in both dispatch
        modes: the one-pass mode tries the whole set once, then supervises
        each state as a one-cell stack."""
        from repro.core.stacked import StackedModel

        failures = FailureScenario(
            modes=(icn2_switch_mode(), icn2_link_mode()), max_concurrent=1
        )
        clean = performability_analysis(base_544, failures)
        states = expand_states(base_544.system, failures)
        rejected = states[2]
        assert len({repr(st.system) for st in states}) == len(states)
        original = StackedModel.from_specs
        calls = []

        def reject_one(specs):
            calls.append(len(specs))
            if any(spec.system == rejected.system for spec in specs):
                raise ValueError("state rejected by the model")
            return original(specs)

        monkeypatch.setattr(StackedModel, "from_specs", reject_one)
        result = performability_analysis(base_544, failures, policy=policy)
        assert result.data["stacked"] is False
        assert [e["state"] for e in result.data["errors"]] == [rejected.label]
        for got, want in zip(result.data["states"], clean.data["states"]):
            if got["label"] == rejected.label:
                assert math.isnan(got["metrics"]["saturation_load"])
            else:
                assert canonical(got) == canonical(want)
        whole = [len(states)] if policy is None else []
        assert calls[: len(whole)] == whole
        assert set(calls[len(whole):]) == {1}

    def test_composition_error_shows_as_unstacked(
        self, base_544, acceptance_failures, monkeypatch
    ):
        """A ValueError that only multi-state stacks raise (a composition
        bug, not a rejected state) yields the full table from one-cell
        stacks with ``stacked`` false, the signal that the pass failed."""
        from repro.core.stacked import StackedModel

        clean = performability_analysis(base_544, acceptance_failures)
        original = StackedModel.from_specs

        def ragged_bug(specs):
            if len(specs) > 1:
                raise ValueError("operands could not be broadcast together")
            return original(specs)

        monkeypatch.setattr(StackedModel, "from_specs", ragged_bug)
        result = performability_analysis(base_544, acceptance_failures)
        assert result.data["stacked"] is False
        assert result.data["errors"] == []
        assert result.text == clean.text
        assert canonical(result.data["columns"]) == canonical(clean.data["columns"])

    def test_engine_bug_propagates(self, base_544, acceptance_failures, monkeypatch):
        from repro.core.stacked import StackedModel

        def broken(specs):
            raise IndexError("engine bug")

        monkeypatch.setattr(StackedModel, "from_specs", broken)
        with pytest.raises(IndexError, match="engine bug"):
            performability_analysis(base_544, acceptance_failures)

    def test_replay_reports_at_least_one_worker(self, base_544, acceptance_failures, tmp_path):
        # 0 is how --jobs spells "one worker per CPU": a replay with no
        # pending states must not report it.
        performability_analysis(base_544, acceptance_failures, jobs=2, cache=tmp_path / "c")
        replay = performability_analysis(
            base_544, acceptance_failures, jobs=2, cache=tmp_path / "c"
        )
        assert replay.data["evaluated"] == 0
        assert replay.data["jobs"] == 1
        assert "from cache, jobs=1)" in replay.text

    def test_cache_replay_evaluates_nothing(self, base_544, acceptance_failures, tmp_path):
        store = ResultCache(tmp_path / "cache")
        first = performability_analysis(
            base_544, acceptance_failures, cache=store
        )
        assert first.data["cached"] == 0
        assert first.data["evaluated"] > 0
        second = performability_analysis(
            base_544, acceptance_failures, cache=store
        )
        assert second.data["evaluated"] == 0
        assert second.data["cached"] == len(second.data["states"])
        assert second.data["cache_hits"] == second.data["cached"]
        for key in ("columns", "curve", "ranking", "availability",
                    "saturation_load_weighted", "expected_capacity"):
            assert canonical(first.data[key]) == canonical(second.data[key])

    def test_node_states_share_one_evaluation(self, base_544):
        # Node losses leave the fabric untouched, so all three states
        # degrade to the same system and cost a single model evaluation.
        failures = FailureScenario(modes=(node_mode(count=2),))
        result = performability_analysis(base_544, failures)
        assert len(result.data["states"]) == 3
        assert result.data["evaluated"] == 1

    def test_curve_is_conditional_and_served_mass_tracks_pi(
        self, base_544, acceptance_failures
    ):
        data = performability_analysis(base_544, acceptance_failures).data
        curve = data["curve"]
        n_loads = len(curve["load"])
        assert len(curve["latency"]) == n_loads
        assert len(curve["served_probability"]) == n_loads
        # At the lowest load every state serves: mass 1, finite latency.
        assert curve["served_probability"][0] == pytest.approx(1.0, abs=1e-12)
        assert curve["latency"][0] > 0.0
        # Served mass never increases with load.
        served = curve["served_probability"]
        assert all(a >= b - 1e-12 for a, b in zip(served, served[1:]))

    def test_cache_key_ignores_spec_name(self, base_544):
        loads = (1e-5, 2e-5)
        renamed = ScenarioSpec.from_dict(
            {**base_544.to_dict(), "name": "alias", "description": "other"}
        )
        assert state_cache_key(base_544, loads) == state_cache_key(renamed, loads)
        assert state_cache_key(base_544, loads) != state_cache_key(
            base_544, (1e-5, 3e-5)
        )

    def test_facade_parity_and_input_forms(
        self, base_544, acceptance_failures, tmp_path
    ):
        direct = performability_analysis(base_544, acceptance_failures)
        exp = Experiment("544")
        via_obj = exp.performability(acceptance_failures)
        via_dict = exp.performability(acceptance_failures.to_dict())
        path = acceptance_failures.save(tmp_path / "f.json")
        via_path = exp.performability(str(path))
        for other in (via_obj, via_dict, via_path):
            assert canonical(other.data) == canonical(direct.data)
            assert other.text == direct.text

    def test_invalid_spec_surfaces_through_facade(self, base_544):
        failures = FailureScenario(modes=(icn2_switch_mode(count=4),))
        with pytest.raises(ValueError, match="availability state"):
            Experiment("544").performability(failures)

    def test_result_spec_is_composite_and_round_trips(
        self, base_544, acceptance_failures
    ):
        result = performability_analysis(base_544, acceptance_failures)
        assert ScenarioSpec.from_dict(result.spec["scenario"]) == base_544
        assert (
            FailureScenario.from_dict(result.spec["failures"])
            == acceptance_failures
        )
