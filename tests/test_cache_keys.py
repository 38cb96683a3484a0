"""On-disk identity pins: cache-key digests and run-journal file names.

Every cache entry and every run journal is addressed by a SHA-256 over a
canonical payload.  A refactor that changed that canonicalisation — key
order, int/float folding, which spec fields are dropped, the run-key
payload — would silently turn every stored entry into a miss and break
``--resume`` across the upgrade.  These digests were taken from the
released key functions; a failure here means existing caches and
journals are orphaned, which needs a deliberate version bump, not a
digest update.

The engine and trajectory version tags are pinned to a constant, so a
legitimate version bump (which *intends* to orphan old entries) leaves
this file alone.
"""

from pathlib import Path

import pytest

import repro.experiments.explore as explore
import repro.performability.evaluate as performability_evaluate
import repro.simulation.runner as runner
from repro.cluster import homogeneous_system
from repro.core import MessageSpec
from repro.experiments import explore_grid
from repro.experiments.calibrate import calibrate_options, sim_curve_key
from repro.performability import FailureMode, FailureScenario, performability_analysis
from repro.performability.evaluate import state_cache_key
from repro.scenarios import AxisSpec, DesignGrid, ScenarioSpec
from repro.simulation import MeasurementWindow

CELL_KEY = "7fc37afa9ad3860b9b03403d903590364842e930a798e56f80141a1d4a464d7c"
STATE_KEY = "210338225f5df70969eeb310bb46f5cf0aa46d30fbdb3c41810627c780ae0389"
SIM_CURVE_KEY = "c2b0c1e753824ce1f27e4292c968e4de31f2103eaade75583b921f9c2c7ceb91"
EXPLORE_JOURNAL = "b425786d84437c1925a29d00ebe696d738335da3e92dffe293e85ca9f58b38fb.jsonl"
PERFORMABILITY_JOURNAL = "2208597c792da815442376720ee9c90ff1dd2fab74dc5b15328accae4e4cbdaa.jsonl"
CALIBRATE_JOURNAL = "d61006875e31b41372931e3044fa2dac59b251193fb57a0adade5974d9b1c53e.jsonl"


@pytest.fixture(autouse=True)
def pinned_versions(monkeypatch):
    """Version tags fixed, so only canonicalisation changes move a digest."""
    monkeypatch.setattr(explore, "ENGINE_VERSION", "pinned-engine")
    monkeypatch.setattr(performability_evaluate, "ENGINE_VERSION", "pinned-engine")
    monkeypatch.setattr(runner, "TRAJECTORY_VERSION", "pinned-trajectory")


def tiny_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="tiny",
        system=homogeneous_system(switch_ports=4, tree_depth=2, num_clusters=4),
        message=MessageSpec(16, 256.0),
    )


def journal_names(root: Path) -> "list[str]":
    return sorted(path.name for path in (root / "journal").iterdir())


class TestCacheKeyDigests:
    def test_cell_cache_key(self):
        assert explore.cell_cache_key(tiny_spec(), 4.0) == CELL_KEY

    def test_state_cache_key(self):
        assert state_cache_key(tiny_spec(), (1e-4, 2e-4)) == STATE_KEY

    def test_sim_curve_key(self):
        window = MeasurementWindow(warmup=30, measured=300, drain=30)
        key = sim_curve_key(tiny_spec(), [1e-4, 2e-4], [1, 2], window, "message")
        assert key == SIM_CURVE_KEY


class TestRunJournalNames:
    def test_explore_journal(self, tmp_path):
        grid = DesignGrid(
            base=tiny_spec(), axes=(AxisSpec("message.length_flits", (16, 32)),)
        )
        explore_grid(grid, cache=tmp_path)
        assert journal_names(tmp_path) == [EXPLORE_JOURNAL]

    def test_performability_journal(self, tmp_path):
        failures = FailureScenario(
            modes=(FailureMode(kind="node", failure_rate=1e-4, repair_rate=1e-2),),
            max_concurrent=1,
            name="pin",
        )
        performability_analysis(tiny_spec(), failures, cache=tmp_path)
        assert journal_names(tmp_path) == [PERFORMABILITY_JOURNAL]

    def test_calibrate_journal(self, tmp_path):
        calibrate_options(
            [tiny_spec()],
            axes=[("relaxing_factor", (True, False))],
            fractions=(0.2, 0.5),
            messages=100,
            seed=1,
            cache=tmp_path,
        )
        assert journal_names(tmp_path) == [CALIBRATE_JOURNAL]
