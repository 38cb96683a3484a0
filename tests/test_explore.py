"""Design-space exploration tests (scenarios.grid + experiments.explore).

Locks the subsystem's three contracts: deterministic grid expansion, one-
axis slices bit-identical to the pre-existing what-if study, and an
on-disk cache whose hits are indistinguishable from fresh evaluations.
"""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import curve_label, icn2_bandwidth_study
from repro.core import NET1, MessageSpec, paper_system_544
from repro.core.stacked import StackedModel
from repro.exec import FAULTS_ENV, RunPolicy
from repro.experiments import Experiment, cell_cache_key, explore_grid
from repro.io import ResultCache, to_jsonable
from repro.io.cache import content_key
from repro.scenarios import AxisSpec, DesignGrid, ScenarioSpec, get_scenario
from repro.scenarios.grid import GridCell, _copy_tree, format_axis_value, set_by_path

MSG = MessageSpec(32, 256.0)


@pytest.fixture(scope="module")
def base_544():
    return get_scenario("544")


def small_grid(base, *, bandwidths=(500.0, 600.0), flits=(32, 64)):
    return DesignGrid(
        base=base,
        axes=(
            AxisSpec("system.icn2.bandwidth", tuple(bandwidths)),
            AxisSpec("message.length_flits", tuple(flits)),
        ),
    )


def two_topology_grid(base, *, bandwidths=(500.0, 600.0, 700.0), flits=(32, 64)):
    """Cells of two tree depths: two topology groups of the stacked engine."""
    return DesignGrid(
        base=base,
        axes=(
            AxisSpec("system.clusters.0.tree_depth", (3, 4)),
            AxisSpec("system.icn2.bandwidth", tuple(bandwidths)),
            AxisSpec("message.length_flits", tuple(flits)),
        ),
    )


@pytest.fixture
def shard_calls(monkeypatch):
    """Payload lists of every ``run_supervised`` call the study executor makes."""
    import repro.exec.study as study_module

    calls = []
    original = study_module.run_supervised

    def record(fn, payloads, **kwargs):
        payloads = list(payloads)
        calls.append(payloads)
        return original(fn, payloads, **kwargs)

    monkeypatch.setattr(study_module, "run_supervised", record)
    return calls


def shard_sizes(calls) -> list:
    return [[len(shard) for shard in payloads] for payloads in calls]


def canonical(payload) -> str:
    """Bit-stable text form (NaN-safe) for table-equality assertions."""
    return json.dumps(to_jsonable(payload), sort_keys=True)


class TestAxisSpec:
    def test_rejects_empty_values(self):
        with pytest.raises(ValueError, match="at least one value"):
            AxisSpec("message.length_flits", ())

    def test_rejects_duplicate_values(self):
        with pytest.raises(ValueError, match="duplicate values"):
            AxisSpec("message.length_flits", (32, 32))

    def test_round_trip(self):
        axis = AxisSpec("system.icn2.bandwidth", (250.0, 500.0))
        assert AxisSpec.from_dict(axis.to_dict()) == axis


class TestSetByPath:
    def test_unknown_key_lists_alternatives(self, base_544):
        tree = base_544.to_dict()
        with pytest.raises(ValueError, match="unknown key 'bandwdith'"):
            set_by_path(tree, "system.icn2.bandwdith", 1.0)

    def test_derived_fields_not_sweepable(self, base_544):
        tree = base_544.to_dict()
        with pytest.raises(ValueError, match="must start with one of"):
            set_by_path(tree, "name", "evil")

    def test_list_index_path(self, base_544):
        tree = base_544.to_dict()
        set_by_path(tree, "system.clusters.0.tree_depth", 4)
        assert tree["system"]["clusters"][0]["tree_depth"] == 4

    def test_list_index_out_of_range(self, base_544):
        tree = base_544.to_dict()
        with pytest.raises(ValueError, match="out of range"):
            set_by_path(tree, "system.clusters.99.tree_depth", 4)

    def test_scalar_top_level_leaf(self, base_544):
        tree = base_544.to_dict()
        set_by_path(tree, "latency_budget", 60.0)
        assert tree["latency_budget"] == 60.0


class TestDesignGrid:
    def test_size_and_row_major_order(self, base_544):
        grid = small_grid(base_544)
        cells = grid.cells()
        assert grid.size == len(cells) == 4
        # Last axis varies fastest.
        assert [c.coords["message.length_flits"] for c in cells] == [32, 64, 32, 64]
        assert [c.coords["system.icn2.bandwidth"] for c in cells] == [500.0, 500.0, 600.0, 600.0]

    def test_deterministic_names(self, base_544):
        cells = small_grid(base_544).cells()
        assert cells[0].name == "544/system.icn2.bandwidth=500/message.length_flits=32"
        assert cells[3].name == "544/system.icn2.bandwidth=600/message.length_flits=64"
        assert len({c.name for c in cells}) == len(cells)

    def test_cells_apply_values(self, base_544):
        cells = small_grid(base_544).cells()
        assert cells[3].spec.system.icn2.bandwidth == 600.0
        assert cells[3].spec.message.length_flits == 64
        # The base spec is untouched.
        assert base_544.system.icn2.bandwidth == 500.0

    def test_invalid_cell_names_itself(self, base_544):
        grid = DesignGrid(base=base_544, axes=(AxisSpec("message.length_flits", (0,)),))
        with pytest.raises(ValueError, match="grid cell '544/message.length_flits=0'"):
            grid.cells()

    def test_duplicate_axis_paths_rejected(self, base_544):
        with pytest.raises(ValueError, match="duplicate axis paths"):
            DesignGrid(
                base=base_544,
                axes=(
                    AxisSpec("message.length_flits", (32,)),
                    AxisSpec("message.length_flits", (64,)),
                ),
            )

    def test_overlapping_axis_paths_rejected(self, base_544):
        """A whole-subtree axis would silently clobber a leaf axis inside
        it, making cell coordinates lie about the evaluated spec."""
        icn2 = base_544.system.icn2.to_dict()
        for axes in (
            (AxisSpec("system.icn2.bandwidth", (500.0, 600.0)), AxisSpec("system.icn2", (icn2,))),
            (AxisSpec("system.icn2", (icn2,)), AxisSpec("system.icn2.bandwidth", (500.0, 600.0))),
        ):
            with pytest.raises(ValueError, match="overlapping axis paths"):
                DesignGrid(base=base_544, axes=axes)
        # Sibling leaves under one parent remain a valid grid.
        DesignGrid(
            base=base_544,
            axes=(
                AxisSpec("system.icn2.bandwidth", (500.0,)),
                AxisSpec("system.icn2.network_latency", (0.01,)),
            ),
        ).cells()

    def test_json_round_trip(self, base_544):
        grid = small_grid(base_544)
        assert DesignGrid.from_dict(grid.to_dict()) == grid
        assert DesignGrid.from_json(grid.to_json()) == grid

    def test_save_load(self, base_544, tmp_path):
        grid = small_grid(base_544)
        path = grid.save(tmp_path / "grid.json")
        assert DesignGrid.load(path) == grid


def oracle_cells(grid: DesignGrid) -> tuple:
    """The per-cell round trip ``DesignGrid.cells`` replaced: copy the whole
    base tree, set every axis leaf, rebuild the spec through ``from_dict``."""
    base_dict = grid.base.to_dict()
    out = []
    for index, values in enumerate(itertools.product(*(a.values for a in grid.axes))):
        name = grid.cell_name(values)
        cell_dict = _copy_tree(base_dict)
        for axis, value in zip(grid.axes, values):
            set_by_path(cell_dict, axis.path, value)
        cell_dict["name"] = name
        cell_dict["description"] = f"grid cell of {grid.base.name!r}"
        try:
            spec = ScenarioSpec.from_dict(cell_dict)
        except ValueError as exc:
            raise ValueError(f"grid cell {name!r} is invalid: {exc}") from exc
        coords = {axis.path: value for axis, value in zip(grid.axes, values)}
        out.append(GridCell(index=index, name=name, coords=coords, spec=spec))
    return tuple(out)


def expansion(expand, grid):
    """``(cells, None)`` of one expansion, or ``(None, error text)``."""
    try:
        return expand(grid), None
    except ValueError as exc:
        return None, str(exc)


#: Spec sections, by the ``ScenarioSpec`` field an axis path starts with.
SECTIONS = ("system", "message", "options", "pattern", "load_grid", "latency_budget")


def _icn2(bandwidth, latency):
    return {"bandwidth": bandwidth, "network_latency": latency, "switch_latency": 0.02, "name": "Net.1"}


#: Candidate axes (path, value pool) by slot; a slot holds at most one
#: axis, so no two drawn paths overlap.  ``0`` is the pools' invalid value.
AXIS_SLOTS = {
    "icn2": (
        ("system.icn2", [_icn2(bw, lat) for bw in (300.0, 500.0, 700.0) for lat in (0.01, 0.02)]),
        ("system.icn2.bandwidth", [250.0, 500, 600.0, np.float64(750.0)]),
    ),
    "cluster_a": (
        ("system.clusters.0.tree_depth", [3, 4, 5, np.int64(4), np.int32(5), 0]),
        ("system.clusters.0.ecn1.bandwidth", [125.0, 250.0, 400.0]),
    ),
    "cluster_b": (
        ("system.clusters.15.tree_depth", [3, 4, 5, np.int64(3)]),
        ("system.clusters.9.icn1.bandwidth", [400.0, 500.0, 800.0]),
    ),
    "message": (
        ("message.length_flits", [16, 32, np.int64(64), np.int32(128), 0]),
        ("message.flit_bytes", [128.0, 256.0, 512]),
    ),
    "options": (
        ("options.relaxing_factor", [True, False]),
        ("options.tcn_convention", ["half_network_latency", "full_network_latency"]),
    ),
    "pattern": (("pattern.params.hot_fraction", [0.1, 0.25, 0.5]),),
    "load_grid": (
        ("load_grid.points", [4, 8, np.int64(12)]),
        ("load_grid.include_zero", [True, False]),
    ),
    "latency_budget": (("latency_budget", [60.0, 150.0, math.inf]),),
}


@st.composite
def design_grids(draw):
    """Random grids of at most 36 cells over all six spec sections."""
    hotspot = draw(st.booleans())
    slots = [name for name in AXIS_SLOTS if hotspot or name != "pattern"]
    chosen = draw(st.lists(st.sampled_from(slots), min_size=1, max_size=6, unique=True))
    axes, size = [], 1
    for slot in chosen:
        path, pool = draw(st.sampled_from(AXIS_SLOTS[slot]))
        most = max(n for n in (1, 2, 3) if size * n <= 36)
        values = draw(
            st.lists(st.sampled_from(pool), min_size=1, max_size=most, unique_by=format_axis_value)
        )
        size *= len(values)
        axes.append(AxisSpec(path, tuple(values)))
    base = get_scenario("544-hotspot" if hotspot else "544")
    return DesignGrid(base=base, axes=tuple(draw(st.permutations(axes))))


class TestCellExpansion:
    """``cells()`` builds each section once per distinct combination of its
    axes' values; every cell equals the per-cell round trip it replaced."""

    @given(design_grids())
    def test_cells_equal_the_per_cell_round_trip(self, grid):
        cells, error = expansion(DesignGrid.cells, grid)
        oracle, oracle_error = expansion(oracle_cells, grid)
        assert error == oracle_error
        if oracle is None:
            return
        assert cells == oracle
        for cell, expected in zip(cells, oracle):
            assert repr(cell.spec) == repr(expected.spec)
            assert cell.spec.to_dict() == expected.spec.to_dict()
            assert cell_cache_key(cell.spec, 4.0) == cell_cache_key(expected.spec, 4.0)
        # Cells agreeing on a section's axis values share its object.
        picks = list(itertools.product(*(range(len(a.values)) for a in grid.axes)))
        for section in SECTIONS:
            members = [i for i, a in enumerate(grid.axes) if a.path.split(".")[0] == section]
            shared = {}
            for cell, pick in zip(cells, picks):
                key = tuple(pick[i] for i in members)
                assert getattr(cell.spec, section) is shared.setdefault(key, getattr(cell.spec, section))

    def test_explore_grid_shares_45_systems_over_270_cells(self, base_544):
        axes = (
            AxisSpec("system.clusters.0.tree_depth", (3, 4, 5)),
            AxisSpec("system.clusters.15.tree_depth", (3, 4, 5)),
            AxisSpec("system.icn2.bandwidth", (300.0, 400.0, 500.0, 600.0, 700.0)),
            AxisSpec("message.length_flits", (16, 32, 64)),
            AxisSpec("message.flit_bytes", (128.0, 256.0)),
        )
        cells = DesignGrid(base=base_544, axes=axes).cells()
        assert len(cells) == 270
        assert len({id(c.spec.system) for c in cells}) == 45
        assert len({id(c.spec.message) for c in cells}) == 6
        assert len({id(c.spec.options) for c in cells}) == 1


class TestInvalidCells:
    """An invalid cell fails at expansion, named as the per-cell
    ``ScenarioSpec.from_dict`` round trip names it."""

    @pytest.mark.parametrize(
        "axes, message",
        [
            pytest.param(
                (
                    AxisSpec("system.icn2.bandwidth", (500.0, 600.0, -1.0)),
                    AxisSpec("message.length_flits", (32, 64)),
                ),
                "grid cell '544/system.icn2.bandwidth=-1/message.length_flits=32' is invalid: "
                "bandwidth must be a finite positive number, got -1.0",
                id="bad-value-after-valid-cells",
            ),
            pytest.param(
                (
                    AxisSpec("message.length_flits", (0,)),
                    AxisSpec("system.clusters.0.tree_depth", (0,)),
                ),
                "grid cell '544/message.length_flits=0/system.clusters.0.tree_depth=0' is "
                "invalid: tree_depth must be >= 1, got 0",
                id="system-error-before-message-error",
            ),
            pytest.param(
                (
                    AxisSpec("message.length_flits", (32, 64)),
                    AxisSpec(
                        "system.clusters",
                        (
                            [c.to_dict() for c in paper_system_544().clusters],
                            [c.to_dict() for c in paper_system_544().clusters[:15]],
                        ),
                    ),
                ),
                "number of clusters C=15 must equal",
                id="fifteen-clusters",
            ),
            pytest.param(
                (AxisSpec("system.icn2.bandwdith", (500.0,)),),
                "axis path 'system.icn2.bandwdith': unknown key 'bandwdith'",
                id="bad-path",
            ),
            pytest.param(
                (
                    AxisSpec("system.clusters.0.tree_depth", (0,)),
                    AxisSpec("message.lenght_flits", (32,)),
                ),
                "axis path 'message.lenght_flits': unknown key 'lenght_flits'",
                id="bad-path-before-bad-value",
            ),
        ],
    )
    def test_error_equals_the_round_trip(self, base_544, axes, message):
        grid = DesignGrid(base=base_544, axes=axes)
        _, error = expansion(DesignGrid.cells, grid)
        _, oracle_error = expansion(oracle_cells, grid)
        assert error == oracle_error
        assert message in error
        # Path errors are set_by_path's own message, not a cell's.
        assert error.startswith("grid cell ") == ("unknown key" not in message)


class TestExploreGrid:
    def test_one_axis_slice_matches_icn2_bandwidth_study(self, base_544):
        """Acceptance: the ICN2-bandwidth axis reproduces the Fig. 7 study's
        saturation loads bit-for-bit."""
        factor = 1.2
        study = icn2_bandwidth_study((paper_system_544(),), MSG, factor=factor)
        result = Experiment(base_544).explore(
            [("system.icn2.bandwidth", [NET1.bandwidth, NET1.bandwidth * factor])]
        )
        sat = result.data["columns"]["saturation_load"]
        assert sat[0] == study.curve(curve_label(paper_system_544(), "base")).saturation_load
        assert sat[1] == study.curve(
            curve_label(paper_system_544(), f"icn2 x{factor:g}")
        ).saturation_load

    def test_parallel_matches_serial(self, base_544):
        grid = small_grid(base_544)
        serial = explore_grid(grid)
        pooled = explore_grid(grid, jobs=2)
        assert canonical(serial.data["columns"]) == canonical(pooled.data["columns"])
        assert canonical(serial.data["cells"]) == canonical(pooled.data["cells"])
        assert pooled.data["jobs"] == 2

    def test_cache_round_trip_identical_table(self, base_544, tmp_path):
        grid = small_grid(base_544)
        first = explore_grid(grid, cache=tmp_path / "cache")
        second = explore_grid(grid, cache=tmp_path / "cache", jobs=2)
        assert first.data["evaluated"] == 4 and first.data["cached"] == 0
        assert second.data["evaluated"] == 0 and second.data["cached"] == 4
        assert canonical(first.data["columns"]) == canonical(second.data["columns"])
        assert canonical(first.data["cells"]) == canonical(second.data["cells"])

    def test_enlarged_grid_only_evaluates_new_cells(self, base_544, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        explore_grid(small_grid(base_544), cache=cache)
        bigger = explore_grid(
            small_grid(base_544, bandwidths=(500.0, 600.0, 700.0)), cache=cache
        )
        assert bigger.data["cached"] == 4
        assert bigger.data["evaluated"] == 2  # only the 700.0 column
        assert len(cache) == 6

    def test_cache_key_ignores_derived_name(self, base_544):
        cells = small_grid(base_544).cells()
        renamed = ScenarioSpec.from_dict(
            {**cells[0].spec.to_dict(), "name": "other", "description": "x"}
        )
        assert cell_cache_key(cells[0].spec, 4.0) == cell_cache_key(renamed, 4.0)
        assert cell_cache_key(cells[0].spec, 4.0) != cell_cache_key(cells[1].spec, 4.0)
        assert cell_cache_key(cells[0].spec, 4.0) != cell_cache_key(cells[0].spec, 3.0)

    def test_cache_key_ignores_metric_irrelevant_load_grid(self, base_544):
        """No explore metric reads the load-grid policy, so two specs
        differing only there must share a cache entry."""
        from dataclasses import replace

        from repro.scenarios import LoadGridPolicy

        spec = small_grid(base_544).cells()[0].spec
        repointed = replace(spec, load_grid=LoadGridPolicy(points=3))
        assert cell_cache_key(spec, 4.0) == cell_cache_key(repointed, 4.0)

    def test_cache_key_canonicalises_int_vs_float_values(self, base_544):
        """CLI coercion yields int 500 where the API writes 500.0, and an
        ``np.arange`` axis yields ``np.int64``; all build the identical
        model and must share one cache entry under every study's key."""
        from repro.experiments.calibrate import sim_curve_key
        from repro.performability import state_cache_key
        from repro.simulation import MeasurementWindow

        def first_spec(path, value):
            return DesignGrid(base=base_544, axes=(AxisSpec(path, (value,)),)).cells()[0].spec

        window = MeasurementWindow(warmup=30, measured=300, drain=30)
        bandwidth = "system.icn2.bandwidth"
        depth = "system.clusters.0.tree_depth"
        for key in (
            lambda spec: cell_cache_key(spec, 4.0),
            lambda spec: state_cache_key(spec, (1e-4, 2e-4)),
            lambda spec: sim_curve_key(spec, [1e-4], [1], window, "message"),
        ):
            assert key(first_spec(bandwidth, 500)) == key(first_spec(bandwidth, 500.0))
            assert key(first_spec(depth, np.int64(4))) == key(first_spec(depth, 4))
            assert key(first_spec(depth, np.int64(4))) != key(first_spec(depth, 3))
        assert cell_cache_key(first_spec(bandwidth, 500), 4) == cell_cache_key(
            first_spec(bandwidth, 500.0), 4.0
        )

    def test_numpy_arange_bandwidth_axis_matches_the_float_grid(self, base_544):
        """An ``np.arange`` bandwidth axis yields ``np.int64`` values; they are
        real numbers, so the grid expands to the float grid's designs and
        shares its cache keys and metrics."""
        path = "system.icn2.bandwidth"
        as_arange = DesignGrid(base=base_544, axes=(AxisSpec(path, tuple(np.arange(500, 701, 100))),))
        as_float = DesignGrid(base=base_544, axes=(AxisSpec(path, (500.0, 600.0, 700.0)),))
        assert isinstance(as_arange.cells()[0].spec.system.icn2.bandwidth, np.int64)
        assert [cell_cache_key(c.spec, 4.0) for c in as_arange.cells()] == [
            cell_cache_key(c.spec, 4.0) for c in as_float.cells()
        ]
        metrics = [
            canonical([cell["metrics"] for cell in explore_grid(grid).data["cells"]])
            for grid in (as_arange, as_float)
        ]
        assert metrics[0] == metrics[1]

    def test_numpy_knee_threshold_factor(self, base_544):
        grid = small_grid(base_544)
        numpy_factor = explore_grid(grid, knee_threshold_factor=np.int64(4))
        assert canonical(numpy_factor.data["columns"]) == canonical(
            explore_grid(grid, knee_threshold_factor=4.0).data["columns"]
        )
        with pytest.raises(ValueError, match="knee_threshold_factor"):
            explore_grid(grid, knee_threshold_factor=True)

    def test_numpy_int_axis_replays_from_a_saved_grid(self, base_544, tmp_path):
        """A grid saved with ``np.arange`` values loads back as Python ints;
        exploring it against the first run's cache evaluates nothing."""
        grid = DesignGrid(
            base=base_544, axes=(AxisSpec("system.clusters.0.tree_depth", tuple(np.arange(3, 5))),)
        )
        first = explore_grid(grid, cache=tmp_path / "cache")
        assert first.data["evaluated"] == 2
        grid.save(tmp_path / "grid.json")
        replay = explore_grid(DesignGrid.load(tmp_path / "grid.json"), cache=tmp_path / "cache")
        assert (replay.data["evaluated"], replay.data["cached"]) == (0, 2)
        assert canonical(replay.data["columns"]) == canonical(first.data["columns"])

    def test_metrics_are_consistent(self, base_544):
        result = Experiment(base_544).explore(
            [("system.icn2.bandwidth", [500.0, 600.0])]
        )
        for cell in result.data["cells"]:
            m = cell["metrics"]
            assert 0.0 < m["knee_load"] < m["saturation_load"]
            assert m["zero_load_latency"] > 0
            assert m["binding_kind"] in ("source-queue", "concentrator")
            assert m["total_nodes"] == 544
            assert m["lambda_at_budget"] != m["lambda_at_budget"]  # NaN: no budget

    def test_budget_metric_with_finite_budget(self, base_544):
        from dataclasses import replace

        spec = replace(base_544, latency_budget=60.0)
        result = Experiment(spec).explore([("system.icn2.bandwidth", [500.0, 600.0])])
        for cell in result.data["cells"]:
            m = cell["metrics"]
            assert 0.0 < m["lambda_at_budget"] < m["saturation_load"]

    def test_pattern_base_explores(self):
        result = Experiment("544-hotspot").explore(
            [("message.length_flits", [32, 64])]
        )
        sat = result.data["columns"]["saturation_load"]
        assert sat[1] < sat[0]

    def test_frontier_and_sensitivity_attached(self, base_544):
        result = explore_grid(small_grid(base_544), frontier=True)
        frontier = result.data["frontier"]
        assert frontier["x"] == "cost_proxy" and frontier["y"] == "saturation_load"
        assert len(frontier["indices"]) >= 1
        paths = [s["path"] for s in result.data["sensitivity"]]
        assert sorted(paths) == ["message.length_flits", "system.icn2.bandwidth"]
        assert "Pareto frontier" in result.text

    def test_three_axis_grid_with_jobs(self, base_544):
        """Acceptance: a >= 3-axis, >= 48-cell grid completes through the
        closed forms under --jobs parallelism."""
        result = Experiment(base_544).explore(
            [
                ("system.icn2.bandwidth", [250.0, 375.0, 500.0, 625.0]),
                ("message.length_flits", [16, 32, 48, 64]),
                ("message.flit_bytes", [128.0, 256.0, 512.0]),
            ],
            jobs=2,
        )
        cols = result.data["columns"]
        assert len(cols["cell"]) == 48
        assert result.data["evaluated"] == 48
        # λ* falls monotonically with message length at fixed other axes
        # (cells 0..11 share bandwidth=250, flit_bytes varies fastest).
        sat = cols["saturation_load"]
        assert sat[0] > sat[3] > sat[6] > sat[9]

    def test_result_is_jsonable_with_stable_schema(self, base_544):
        result = explore_grid(small_grid(base_544))
        payload = result.to_dict()
        assert payload["kind"] == "explore"
        assert payload["schema"] == "repro.experiment/1"
        assert payload["spec"]["schema"] == "repro.grid/1"
        json.dumps(payload)  # fully serialisable (NaN tagged)

    def test_rejects_bad_knee_factor(self, base_544):
        with pytest.raises(ValueError, match="knee_threshold_factor"):
            explore_grid(small_grid(base_544), knee_threshold_factor=1.0)


class TestStackedFastPath:
    """Serial explore prices pending cells in one StackedModel evaluation."""

    def test_serial_run_uses_stack_and_reports_it(self, base_544):
        result = explore_grid(small_grid(base_544))
        assert result.data["stacked"] is True
        assert result.data["cache_hits"] == 0
        assert result.data["evaluated"] == 4

    def test_jobs_run_stacked_shards_and_policy_runs_per_cell(self, base_544):
        from repro.exec import RunPolicy

        grid = small_grid(base_544)
        serial = explore_grid(grid)
        pooled = explore_grid(grid, jobs=2)
        with_policy = explore_grid(grid, policy=RunPolicy(max_retries=0))
        assert serial.data["stacked"] is True
        assert pooled.data["stacked"] is True
        assert with_policy.data["stacked"] is False
        # Shards and per-cell items are byte-identical to the one pass.
        for other in (pooled, with_policy):
            assert canonical(serial.data["columns"]) == canonical(other.data["columns"])
            assert canonical(serial.data["cells"]) == canonical(other.data["cells"])

    def test_jobs_cut_contiguous_shards_across_topology_groups(self, base_544, shard_calls):
        """Under ``jobs`` alone the pending cells are cut, in item order,
        into one contiguous stacked shard per worker; every dispatch mode
        gives the same table on a grid of two topology groups."""
        grid = two_topology_grid(base_544)
        specs = [cell.spec for cell in grid.cells()]
        serial = explore_grid(grid)
        assert serial.data["stacked"] is True
        assert shard_calls == []
        for jobs, sizes in ((2, [6, 6]), (3, [4, 4, 4])):
            shard_calls.clear()
            sharded = explore_grid(grid, jobs=jobs)
            assert sharded.data["stacked"] is True and sharded.data["jobs"] == jobs
            assert shard_sizes(shard_calls) == [sizes]
            assert [spec for shard in shard_calls[0] for spec in shard] == specs
            assert canonical(sharded.data["columns"]) == canonical(serial.data["columns"])
            assert canonical(sharded.data["cells"]) == canonical(serial.data["cells"])
        shard_calls.clear()
        per_item = explore_grid(grid, policy=RunPolicy())
        assert per_item.data["stacked"] is False
        assert shard_sizes(shard_calls) == [[1] * grid.size]
        assert canonical(per_item.data["columns"]) == canonical(serial.data["columns"])
        assert canonical(per_item.data["cells"]) == canonical(serial.data["cells"])
        shard_calls.clear()
        ten_cells = two_topology_grid(
            base_544, bandwidths=(500.0, 600.0, 700.0, 800.0, 900.0), flits=(32,)
        )
        explore_grid(ten_cells, jobs=3)
        assert shard_sizes(shard_calls) == [[4, 3, 3]]

    def test_plan_and_resume_run_one_item_shards(
        self, base_544, shard_calls, monkeypatch, tmp_path
    ):
        """An armed fault plan or ``resume`` selects per-item mode under
        ``jobs`` too: one-cell shards, so fault indices stay item indices."""
        grid = small_grid(base_544)
        clean = explore_grid(grid)
        monkeypatch.setenv(
            FAULTS_ENV,
            json.dumps(
                {"schema": "repro.faults/1", "faults": [{"op": "raise", "index": 0, "attempt": 0}]}
            ),
        )
        planned = explore_grid(grid, jobs=2)
        monkeypatch.delenv(FAULTS_ENV)
        assert planned.data["stacked"] is False and planned.data["errors"] == []
        assert canonical(planned.data["cells"]) == canonical(clean.data["cells"])
        assert shard_sizes(shard_calls) == [[1, 1, 1, 1]]
        cache = ResultCache(tmp_path / "c")
        explore_grid(grid, cache=cache)
        for cell in grid.cells()[1:3]:
            cache.put(cell_cache_key(cell.spec, 4.0), {"x": 1})
        shard_calls.clear()
        resumed = explore_grid(grid, jobs=2, cache=cache, resume=True)
        assert resumed.data["evaluated"] == 2 and resumed.data["stacked"] is False
        assert canonical(resumed.data["cells"]) == canonical(clean.data["cells"])
        assert shard_sizes(shard_calls) == [[1, 1]]

    @pytest.mark.parametrize(
        "jobs, policy",
        [(None, None), (None, RunPolicy(max_retries=0)), (2, None)],
        ids=["one-pass", "per-item", "sharded"],
    )
    def test_model_rejection_is_confined_to_its_cell(
        self, base_544, monkeypatch, jobs, policy
    ):
        """A ValueError from the stack (the model rejecting one cell) turns
        only that cell into a NaN row, in every dispatch mode: the one-pass
        mode tries the whole set once and a shard its run of cells, then
        each cell of a failed set is supervised as a one-cell stack."""
        grid = small_grid(base_544)
        clean = explore_grid(grid)
        rejected = grid.cells()[2]
        original = StackedModel.from_specs
        calls = []

        def reject_one(specs):
            calls.append(len(specs))
            if any(spec == rejected.spec for spec in specs):
                raise ValueError("cell rejected by the model")
            return original(specs)

        monkeypatch.setattr(StackedModel, "from_specs", reject_one)
        result = explore_grid(grid, jobs=jobs, policy=policy)
        assert result.data["stacked"] is False
        assert [e["cell"] for e in result.data["errors"]] == [rejected.name]
        assert result.data["errors"][0]["index"] == 2
        assert "ValueError: cell rejected by the model" in result.data["errors"][0]["error"]
        for idx, (got, want) in enumerate(zip(result.data["cells"], clean.data["cells"])):
            if idx == 2:
                assert math.isnan(got["metrics"]["saturation_load"])
                assert got["metrics"]["binding_kind"] == "error"
            else:
                assert canonical(got) == canonical(want)
        if jobs is None:  # pool workers price out of this process's sight
            whole = [grid.size] if policy is None else []
            assert calls[: len(whole)] == whole
            assert set(calls[len(whole):]) == {1}

    def test_composition_error_shows_as_unstacked(self, base_544, monkeypatch):
        """A ValueError that only multi-cell stacks raise (a composition
        bug, not a rejected cell) yields the full table from one-cell
        stacks with ``stacked`` false, the signal that the pass failed,
        from the one pass and from shards alike."""
        grid = small_grid(base_544)
        clean = explore_grid(grid)
        original = StackedModel.from_specs

        def ragged_bug(specs):
            if len(specs) > 1:
                raise ValueError("operands could not be broadcast together")
            return original(specs)

        monkeypatch.setattr(StackedModel, "from_specs", ragged_bug)
        for jobs in (None, 2):
            result = explore_grid(grid, jobs=jobs)
            assert result.data["stacked"] is False
            assert result.data["errors"] == []
            assert canonical(result.data["cells"]) == canonical(clean.data["cells"])

    def test_engine_bug_propagates(self, base_544, monkeypatch):
        """Any other exception is an engine bug: no silent per-cell fallback."""

        def broken(specs):
            raise IndexError("engine bug")

        monkeypatch.setattr(StackedModel, "from_specs", broken)
        with pytest.raises(IndexError, match="engine bug"):
            explore_grid(small_grid(base_544))

    def test_replay_reports_cache_hits_and_does_no_work(self, base_544, tmp_path):
        grid = small_grid(base_544)
        first = explore_grid(grid, cache=tmp_path / "c")
        assert first.data["stacked"] is True and first.data["evaluated"] == 4
        second = explore_grid(grid, cache=tmp_path / "c")
        assert second.data["evaluated"] == 0
        assert second.data["cache_hits"] == second.data["cached"] == 4
        assert second.data["stacked"] is False  # nothing left to stack
        assert canonical(first.data["columns"]) == canonical(second.data["columns"])

    def test_replay_reports_at_least_one_worker(self, base_544, tmp_path):
        # 0 is how --jobs spells "one worker per CPU": a replay with no
        # pending cells must not report it.
        grid = small_grid(base_544)
        explore_grid(grid, jobs=2, cache=tmp_path / "c")
        replay = explore_grid(grid, jobs=2, cache=tmp_path / "c")
        assert replay.data["evaluated"] == 0
        assert replay.data["jobs"] == 1
        assert "(4 from cache, jobs=1)" in replay.text

    def test_corrupt_entry_heals_through_stacked_path(self, base_544, tmp_path):
        grid = small_grid(base_544)
        cache = ResultCache(tmp_path / "c")
        first = explore_grid(grid, cache=cache)
        key = cell_cache_key(grid.cells()[1].spec, 4.0)
        cache.put(key, {"x": 1}).write_text("{not json")
        second = explore_grid(grid, cache=cache)
        # get_many treats the corrupt entry as a miss; the stacked path
        # re-evaluates exactly that cell and rewrites a valid entry.
        assert second.data["evaluated"] == 1 and second.data["cache_hits"] == 3
        assert second.data["stacked"] is True
        assert canonical(first.data["columns"]) == canonical(second.data["columns"])
        healed = cache.get(key)
        assert healed is not None
        assert canonical(healed["metrics"]) == canonical(first.data["cells"][1]["metrics"])


class TestResultCache:
    def test_get_miss_returns_none(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        assert cache.get("ab" * 32) is None

    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = content_key({"x": 1})
        cache.put(key, {"metrics": {"a": float("nan"), "b": 2}})
        loaded = cache.get(key)
        assert loaded["metrics"]["b"] == 2
        assert loaded["metrics"]["a"] != loaded["metrics"]["a"]  # NaN restored
        assert key in cache and len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = content_key({"x": 2})
        path = cache.put(key, {"ok": True})
        path.write_text("{not json")
        assert cache.get(key) is None

    def test_malformed_float_tag_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = content_key({"x": 3})
        cache.put(key, {"ok": True}).write_text('{"__float__": "Infinity"}')
        assert cache.get(key) is None

    def test_non_utf8_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = content_key({"x": 4})
        cache.put(key, {"ok": True}).write_bytes(b"\xff\xfe{}")
        assert cache.get(key) is None

    def test_get_many_matches_get(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        keys = [content_key({"x": i}) for i in range(5)]
        for key in keys[:3]:
            cache.put(key, {"k": key})
        cache.put(keys[3], {"ok": True}).write_text("{not json")  # corrupt
        # keys[4] is never written: a cold miss.
        many = cache.get_many(keys)
        assert many == [cache.get(key) for key in keys]
        assert [entry is None for entry in many] == [False, False, False, True, True]

    def test_get_many_on_cold_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        assert cache.get_many([]) == []
        assert cache.get_many([content_key({"x": 1})]) == [None]

    def test_get_many_rejects_non_hex_key(self, tmp_path):
        with pytest.raises(ValueError, match="hex digest"):
            ResultCache(tmp_path).get_many(["../../etc/passwd"])

    def test_rejects_non_hex_key(self, tmp_path):
        with pytest.raises(ValueError, match="hex digest"):
            ResultCache(tmp_path).get("../../etc/passwd")

    def test_content_key_is_order_insensitive(self):
        assert content_key({"a": 1, "b": 2.5}) == content_key({"b": 2.5, "a": 1})
        assert content_key({"a": 1}) != content_key({"a": 2})

    def test_schema_mismatch_forces_reevaluation(self, base_544, tmp_path):
        grid = small_grid(base_544)
        cache = ResultCache(tmp_path / "c")
        explore_grid(grid, cache=cache)
        # Poison one entry with a foreign schema: it must not be served.
        key = cell_cache_key(grid.cells()[0].spec, 4.0)
        cache.put(key, {"schema": "something/else", "metrics": {}})
        again = explore_grid(grid, cache=cache)
        assert again.data["evaluated"] == 1
        assert again.data["cached"] == 3
        assert again.data["columns"]["saturation_load"][0] > 0

    def test_entry_without_metrics_forces_reevaluation(self, base_544, tmp_path):
        from repro.experiments import EXPLORE_CELL_SCHEMA

        grid = small_grid(base_544)
        cache = ResultCache(tmp_path / "c")
        explore_grid(grid, cache=cache)
        key = cell_cache_key(grid.cells()[1].spec, 4.0)
        cache.put(key, {"schema": EXPLORE_CELL_SCHEMA})  # metrics stripped
        again = explore_grid(grid, cache=cache)
        assert again.data["evaluated"] == 1
        assert again.data["cached"] == 3

    def test_incomplete_metrics_entry_forces_reevaluation(self, base_544, tmp_path):
        """A schema-tagged entry missing metric keys (e.g. from a build
        that changed the metric set without a schema bump) is a miss and
        gets overwritten, not a crash on column assembly."""
        from repro.experiments import EXPLORE_CELL_SCHEMA

        grid = small_grid(base_544)
        cache = ResultCache(tmp_path / "c")
        explore_grid(grid, cache=cache)
        key = cell_cache_key(grid.cells()[2].spec, 4.0)
        cache.put(key, {"schema": EXPLORE_CELL_SCHEMA, "metrics": {"saturation_load": 1.0}})
        again = explore_grid(grid, cache=cache)
        assert again.data["evaluated"] == 1
        assert again.data["cached"] == 3
        # The poisoned entry was healed on disk.
        healed = explore_grid(grid, cache=cache)
        assert healed.data["evaluated"] == 0 and healed.data["cached"] == 4
