"""End-to-end resilience tests: studies under injected faults + resume.

Locks the PR's acceptance criteria: with worker crashes and hung items
injected, explore completes via retries bit-identically to the fault-free
run; a run killed mid-flight resumes from its journal evaluating only the
remaining cells; exhausted retries degrade to partial tables with an
``errors`` section and CLI exit code 3; and a clean interrupt exits 130.
"""

import json
import math
import os

import pytest

from repro import cli
from repro.cluster import homogeneous_system
from repro.core import MessageSpec
from repro.exec import FAULTS_ENV, RunPolicy
from repro.experiments import explore_grid
from repro.experiments.calibrate import calibrate_options
from repro.io import ResultCache, to_jsonable
from repro.performability import FailureMode, FailureScenario, performability_analysis
from repro.scenarios import AxisSpec, DesignGrid, ScenarioSpec, get_scenario


def canonical(payload) -> str:
    """Bit-stable text form (NaN-safe) for table-equality assertions."""
    return json.dumps(to_jsonable(payload), sort_keys=True)


def _arm(monkeypatch, *faults):
    monkeypatch.setenv(
        FAULTS_ENV,
        json.dumps({"schema": "repro.faults/1", "faults": list(faults)}),
    )


def small_grid() -> DesignGrid:
    return DesignGrid(
        base=get_scenario("544"),
        axes=(
            AxisSpec("system.icn2.bandwidth", (500.0, 600.0)),
            AxisSpec("message.length_flits", (32, 64)),
        ),
    )


def tiny_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="tiny",
        system=homogeneous_system(switch_ports=4, tree_depth=2, num_clusters=4),
        message=MessageSpec(16, 256.0),
    )


@pytest.fixture(scope="module")
def plain_explore():
    return explore_grid(small_grid(), jobs=2)


class TestExploreUnderFaults:
    def test_crash_and_hang_recover_bit_identically(self, plain_explore, monkeypatch):
        """Acceptance: a crashed worker and a hung item are retried and the
        final table is bit-identical to the fault-free run."""
        _arm(
            monkeypatch,
            {"op": "crash", "index": 0, "attempt": 0},
            {"op": "hang", "index": 3, "attempt": 0, "seconds": 30.0},
        )
        faulted = explore_grid(small_grid(), jobs=2, policy=RunPolicy(timeout=5.0))
        assert canonical(faulted.data["columns"]) == canonical(plain_explore.data["columns"])
        assert canonical(faulted.data["cells"]) == canonical(plain_explore.data["cells"])
        assert faulted.data["errors"] == [] and faulted.data["partial"] is False

    def test_corrupt_cache_entry_heals_on_the_next_run(self, tmp_path, monkeypatch):
        store = ResultCache(tmp_path / "cache")
        _arm(monkeypatch, {"op": "corrupt-cache", "index": 1, "attempt": 0})
        first = explore_grid(small_grid(), cache=store)
        monkeypatch.delenv(FAULTS_ENV)
        again = explore_grid(small_grid(), cache=store)
        # The corrupted entry reads as a miss: exactly one cell re-evaluates
        # and the healed table matches the original bit-for-bit.
        assert again.data["cached"] == 3 and again.data["evaluated"] == 1
        assert canonical(again.data["columns"]) == canonical(first.data["columns"])

    def test_exhausted_retries_give_a_partial_table(self, plain_explore, monkeypatch):
        _arm(
            monkeypatch,
            {"op": "raise", "index": 2, "attempt": 0},
            {"op": "raise", "index": 3, "attempt": 0},
        )
        partial = explore_grid(
            small_grid(), jobs=2, frontier=True, policy=RunPolicy(max_retries=0)
        )
        assert partial.data["partial"] is True
        assert [e["cell"] for e in partial.data["errors"]] == [
            partial.data["cells"][2]["name"],
            partial.data["cells"][3]["name"],
        ]
        # Failed cells carry NaN metrics; surviving cells are untouched.
        sat = partial.data["columns"]["saturation_load"]
        assert sat[:2] == plain_explore.data["columns"]["saturation_load"][:2]
        assert all(math.isnan(v) for v in sat[2:])
        # Frontier views are suppressed on partial tables.
        assert "frontier" not in partial.data
        assert "PARTIAL: 2 of 4 cell(s) failed after retries" in partial.text

    def test_resume_evaluates_only_unjournaled_cells(
        self, plain_explore, tmp_path, monkeypatch
    ):
        """Acceptance: kill-mid-run emulation — two cells fail (and are not
        journaled), then a resumed run replays the journaled two from the
        cache and produces a byte-identical full table."""
        store = ResultCache(tmp_path / "cache")
        _arm(
            monkeypatch,
            {"op": "raise", "index": 2, "attempt": 0},
            {"op": "raise", "index": 3, "attempt": 0},
        )
        interrupted = explore_grid(
            small_grid(), jobs=2, cache=store, policy=RunPolicy(max_retries=0)
        )
        assert interrupted.data["partial"] is True
        monkeypatch.delenv(FAULTS_ENV)
        resumed = explore_grid(small_grid(), jobs=2, cache=store, resume=True)
        assert resumed.data["resumed"] == 2  # the journaled, completed cells
        assert resumed.data["cached"] == 2 and resumed.data["evaluated"] == 2
        assert resumed.data["partial"] is False
        assert canonical(resumed.data["columns"]) == canonical(
            plain_explore.data["columns"]
        )
        assert "resumed 2 cell(s) from the run journal" in resumed.text

    def test_resume_requires_cache_and_an_existing_journal(self, tmp_path):
        with pytest.raises(ValueError, match="resume requires a result cache"):
            explore_grid(small_grid(), resume=True)
        with pytest.raises(ValueError, match="no run journal"):
            explore_grid(small_grid(), cache=ResultCache(tmp_path / "c"), resume=True)


class TestCalibratePartial:
    def test_failed_scenario_is_excluded_from_scoring(self, monkeypatch):
        spec_a = tiny_spec()
        spec_b = ScenarioSpec(
            name="tiny-b",
            system=spec_a.system,
            message=MessageSpec(32, 256.0),
        )
        axes = [("relaxing_factor", (True, False))]
        clean = calibrate_options([spec_a], axes=axes, messages=300, seed=1)
        # Scenario items are flattened (scenario-major); failing any point
        # of tiny-b (items 4..7) must drop only tiny-b from scoring.
        _arm(monkeypatch, {"op": "raise", "index": 4, "attempt": 0})
        partial = calibrate_options(
            [spec_a, spec_b],
            axes=axes,
            messages=300,
            seed=1,
            policy=RunPolicy(max_retries=0),
        )
        assert partial.data["partial"] is True
        assert [e["scenario"] for e in partial.data["errors"]] == ["tiny-b"]
        assert [s["name"] for s in partial.data["scenarios"]] == ["tiny"]
        assert canonical(partial.data["ranking"]) == canonical(clean.data["ranking"])
        assert "PARTIAL: 1 scenario(s) failed after retries" in partial.text

    def test_no_surviving_scenario_is_an_error(self, monkeypatch):
        _arm(monkeypatch, *[{"op": "raise", "index": i, "attempt": 0} for i in range(4)])
        with pytest.raises(ValueError, match="no scenario produced a simulator curve"):
            calibrate_options(
                [tiny_spec()],
                axes=[("relaxing_factor", (True, False))],
                messages=300,
                seed=1,
                policy=RunPolicy(max_retries=0),
            )


class TestPerformabilityPartial:
    def test_failed_state_propagates_nan_and_is_unranked(self, monkeypatch):
        scenario = FailureScenario(
            modes=(
                FailureMode(kind="node", failure_rate=1e-4, repair_rate=1e-2),
                FailureMode(
                    kind="switch", role="icn2", failure_rate=1e-5, repair_rate=1e-2
                ),
            ),
            max_concurrent=1,
            name="partial-test",
        )
        _arm(monkeypatch, {"op": "raise", "index": 1, "attempt": 0})
        result = performability_analysis(
            get_scenario("544"), scenario, policy=RunPolicy(max_retries=0)
        )
        assert result.data["partial"] is True
        assert len(result.data["errors"]) == 1
        assert "state" in result.data["errors"][0]
        failed_labels = {
            s["label"]
            for s in result.data["states"]
            if math.isnan(s["metrics"]["saturation_load"])
        }
        assert failed_labels  # the failed state's row survives as NaN
        assert result.data["errors"][0]["state"] in failed_labels
        # NaN states cannot be ranked; every ranked entry is finite.
        ranked = {r["state"] for r in result.data["ranking"]}
        assert ranked.isdisjoint(failed_labels)
        assert all(math.isfinite(r["impact"]) for r in result.data["ranking"])
        assert "PARTIAL" in result.text


class TestCliResilience:
    EXPLORE = [
        "explore",
        "--scenario",
        "544",
        "--axis",
        "system.icn2.bandwidth=500,600",
        "--axis",
        "message.length_flits=32,64",
    ]

    @staticmethod
    def _plan(*faults) -> str:
        return json.dumps({"schema": "repro.faults/1", "faults": list(faults)})

    @pytest.fixture(autouse=True)
    def _clean_faults_env(self, monkeypatch):
        # cli --faults arms the plan via os.environ; keep it test-local.
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        yield
        os.environ.pop(FAULTS_ENV, None)

    def test_partial_run_exits_3(self, capsys):
        code = cli.main(
            self.EXPLORE
            + ["--retries", "0", "--faults", self._plan({"op": "raise", "index": 0})]
        )
        assert code == 3
        out = capsys.readouterr().out
        assert "PARTIAL: 1 of 4 cell(s) failed after retries" in out

    def test_fault_free_run_exits_0(self, capsys):
        assert cli.main(self.EXPLORE) == 0
        assert "evaluated 4 of 4 cells" in capsys.readouterr().out

    def test_bad_fault_plan_fails_before_compute(self, capsys):
        code = cli.main(self.EXPLORE + ["--faults", '{"schema": "bogus/9"}'])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert FAULTS_ENV not in os.environ  # never armed

    def test_resume_without_cache_exits_2(self, capsys):
        code = cli.main(self.EXPLORE + ["--resume"])
        assert code == 2
        assert "resume requires a result cache" in capsys.readouterr().err

    def test_cli_resume_round_trip_is_byte_identical(self, tmp_path, capsys):
        plain_csv = tmp_path / "plain.csv"
        assert cli.main(self.EXPLORE + ["--out", str(plain_csv)]) == 0
        cache = str(tmp_path / "cache")
        code = cli.main(
            self.EXPLORE
            + [
                "--cache", cache, "--retries", "0",
                "--faults",
                self._plan({"op": "raise", "index": 2}, {"op": "raise", "index": 3}),
            ]
        )
        assert code == 3
        os.environ.pop(FAULTS_ENV, None)
        resumed_csv = tmp_path / "resumed.csv"
        capsys.readouterr()
        assert (
            cli.main(
                self.EXPLORE
                + ["--cache", cache, "--resume", "--out", str(resumed_csv)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "resumed 2 cell(s) from the run journal" in out
        assert resumed_csv.read_bytes() == plain_csv.read_bytes()

    def test_keyboard_interrupt_exits_130(self, capsys, monkeypatch):
        def _interrupt(args):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._COMMANDS, "saturation", _interrupt)
        assert cli.main(["saturation"]) == 130
        assert "interrupted" in capsys.readouterr().err


class TestArmedPlanOnSerialRuns:
    """An armed fault plan selects per-item supervision even on serial
    runs with no explicit policy, so its faults fire instead of being
    skipped by the one-pass stacked evaluation."""

    RAISE_ITEM_0 = [{"op": "raise", "index": 0, "attempt": a} for a in range(3)]

    @pytest.fixture(autouse=True)
    def _clean_faults_env(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        yield
        os.environ.pop(FAULTS_ENV, None)

    @staticmethod
    def _failures() -> FailureScenario:
        return FailureScenario(
            modes=(
                FailureMode(kind="node", failure_rate=1e-4, repair_rate=1e-2),
                FailureMode(kind="switch", role="icn2", failure_rate=1e-5, repair_rate=1e-2),
            ),
            max_concurrent=2,
            name="armed-serial",
        )

    def test_explore_api_gives_a_nan_row_for_item_0(self, plain_explore, monkeypatch):
        _arm(monkeypatch, *self.RAISE_ITEM_0)
        result = explore_grid(small_grid())
        assert result.data["stacked"] is False
        assert [e["cell"] for e in result.data["errors"]] == [result.data["cells"][0]["name"]]
        sat = result.data["columns"]["saturation_load"]
        assert math.isnan(sat[0])
        assert sat[1:] == plain_explore.data["columns"]["saturation_load"][1:]

    def test_performability_api_gives_a_nan_row_for_item_0(self, monkeypatch):
        _arm(monkeypatch, *self.RAISE_ITEM_0)
        result = performability_analysis(get_scenario("544"), self._failures())
        assert result.data["stacked"] is False
        # Item 0 is the pristine system, shared by the node-loss state.
        assert [e["state"] for e in result.data["errors"]] == ["pristine"]
        nan_states = {
            s["label"] for s in result.data["states"]
            if math.isnan(s["metrics"]["saturation_load"])
        }
        assert nan_states == {"pristine", "node=1"}

    def test_explore_cli_exits_3(self, capsys):
        plan = json.dumps({"schema": "repro.faults/1", "faults": self.RAISE_ITEM_0})
        assert cli.main(TestCliResilience.EXPLORE + ["--faults", plan]) == 3
        assert "PARTIAL: 1 of 4 cell(s) failed after retries" in capsys.readouterr().out

    def test_performability_cli_exits_3(self, tmp_path, capsys):
        failures = self._failures().save(tmp_path / "failures.json")
        plan = json.dumps({"schema": "repro.faults/1", "faults": self.RAISE_ITEM_0})
        code = cli.main(
            ["performability", "--scenario", "544", "--failures", str(failures),
             "--faults", plan]
        )
        assert code == 3
        assert "PARTIAL: 1 distinct state(s) failed after retries" in capsys.readouterr().out
