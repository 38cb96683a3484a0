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

import hashlib
import json
import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.experiments.explore as explore
import repro.performability.evaluate as performability_evaluate
import repro.simulation.runner as runner
from repro.cluster import homogeneous_system
from repro.core import MessageSpec
from repro.experiments import explore_grid
from repro.experiments.calibrate import calibrate_options, sim_curve_key
from repro.io import EXPLORE_CELL_SCHEMA, SIM_CURVE_SCHEMA, to_jsonable
from repro.io.schemas import PERFORMABILITY_STATE_SCHEMA
from repro.performability import FailureMode, FailureScenario, performability_analysis
from repro.performability.evaluate import state_cache_key
from repro.scenarios import AxisSpec, DesignGrid, ScenarioSpec, get_scenario
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


def canonical_numbers(value):
    """The int -> float fold the key builders once applied before hashing.

    Kept as the oracle's half of the old definition: it folds Python ints
    only, so it is not an oracle for numpy-integer inputs.
    """
    if isinstance(value, dict):
        return {k: canonical_numbers(v) for k, v in value.items()}
    if isinstance(value, list):
        return [canonical_numbers(v) for v in value]
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return float(value)
    return value


def oracle_key(spec: ScenarioSpec, drop, **fields) -> str:
    """The old key definition spelled out: ``canonical_numbers`` over the
    spec minus ``name``/``description``/*drop*, then ``to_jsonable``, the
    sorted compact JSON text and SHA-256."""
    payload = spec.to_dict()
    for section in ("name", "description", *drop):
        payload.pop(section, None)
    text = json.dumps(
        to_jsonable({**fields, "spec": canonical_numbers(payload)}),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def spelled(low: int, high: int):
    """An integer-valued number, spelled as an int or as a float."""
    return st.builds(
        lambda value, as_float: float(value) if as_float else value,
        st.integers(low, high),
        st.booleans(),
    )


AXIS_VALUES = {
    "system.icn2.bandwidth": spelled(100, 2000),
    "system.clusters.0.compute_power": spelled(1, 4),
    "message.flit_bytes": spelled(64, 1024),
    "message.length_flits": st.integers(8, 128),
    "latency_budget": st.one_of(spelled(20, 500), st.just(math.inf)),
}


@st.composite
def grid_axes(draw):
    paths = draw(st.lists(st.sampled_from(sorted(AXIS_VALUES)), min_size=1, max_size=3, unique=True))
    return tuple(
        AxisSpec(path, tuple(draw(st.lists(AXIS_VALUES[path], min_size=1, max_size=2, unique=True))))
        for path in paths
    )


class TestBuildersMatchTheOldDefinition:
    """Every builder's key equals the old definition on random grids over
    registry bases, int and float spellings and finite or infinite
    budgets alike, so entries written before one walk replaced
    ``canonical_numbers`` still hit."""

    @pytest.mark.parametrize("base", ["544", "1120", "544-hotspot", "het8-split"])
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        axes=grid_axes(),
        knee=st.one_of(spelled(2, 8), st.just(math.inf)),
        loads=st.lists(st.floats(1e-5, 1e-2), min_size=1, max_size=3),
        seeds=st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=3),
    )
    def test_every_builder_equals_the_oracle(self, base, axes, knee, loads, seeds):
        window = MeasurementWindow(warmup=30, measured=300, drain=30)
        for cell in DesignGrid(base=get_scenario(base), axes=axes).cells():
            assert explore.cell_cache_key(cell.spec, knee) == oracle_key(
                cell.spec,
                ("load_grid",),
                schema=EXPLORE_CELL_SCHEMA,
                engine_version=explore.ENGINE_VERSION,
                knee_threshold_factor=float(knee),
            )
            assert state_cache_key(cell.spec, tuple(loads)) == oracle_key(
                cell.spec,
                ("load_grid",),
                schema=PERFORMABILITY_STATE_SCHEMA,
                engine_version=performability_evaluate.ENGINE_VERSION,
                loads=[float(v) for v in loads],
            )
            assert sim_curve_key(cell.spec, loads, seeds, window, "flit") == oracle_key(
                cell.spec,
                ("load_grid", "latency_budget"),
                schema=SIM_CURVE_SCHEMA,
                trajectory_version=runner.TRAJECTORY_VERSION,
                granularity="flit",
                window={"warmup": 30, "measured": 300, "drain": 30},
                loads=[float(v) for v in loads],
                seeds=[int(s) for s in seeds],
            )
