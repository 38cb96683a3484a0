"""Design-space exploration tests (scenarios.grid + experiments.explore).

Locks the subsystem's three contracts: deterministic grid expansion, one-
axis slices bit-identical to the pre-existing what-if study, and an
on-disk cache whose hits are indistinguishable from fresh evaluations.
"""

import json
import math

import pytest

from repro.analysis import curve_label, icn2_bandwidth_study
from repro.core import NET1, MessageSpec, paper_system_544
from repro.core.stacked import StackedModel
from repro.exec import RunPolicy
from repro.experiments import Experiment, cell_cache_key, explore_grid
from repro.io import ResultCache, to_jsonable
from repro.io.cache import content_key
from repro.scenarios import AxisSpec, DesignGrid, ScenarioSpec, get_scenario
from repro.scenarios.grid import set_by_path

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
        """CLI coercion yields int 500 where the API writes 500.0; both
        build the identical model and must share one cache entry."""
        def first_spec(value):
            return DesignGrid(
                base=base_544, axes=(AxisSpec("system.icn2.bandwidth", (value,)),)
            ).cells()[0].spec

        assert cell_cache_key(first_spec(500), 4.0) == cell_cache_key(first_spec(500.0), 4.0)
        assert cell_cache_key(first_spec(500), 4) == cell_cache_key(first_spec(500.0), 4.0)

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

    def test_jobs_and_policy_fall_back_to_per_cell(self, base_544):
        from repro.exec import RunPolicy

        grid = small_grid(base_544)
        serial = explore_grid(grid)
        pooled = explore_grid(grid, jobs=2)
        with_policy = explore_grid(grid, policy=RunPolicy(max_retries=0))
        assert serial.data["stacked"] is True
        assert pooled.data["stacked"] is False
        assert with_policy.data["stacked"] is False
        # Fallback paths are byte-identical to the stacked one.
        for other in (pooled, with_policy):
            assert canonical(serial.data["columns"]) == canonical(other.data["columns"])
            assert canonical(serial.data["cells"]) == canonical(other.data["cells"])

    @pytest.mark.parametrize(
        "policy", [None, RunPolicy(max_retries=0)], ids=["one-pass", "per-item"]
    )
    def test_model_rejection_is_confined_to_its_cell(self, base_544, monkeypatch, policy):
        """A ValueError from the stack (the model rejecting one cell) turns
        only that cell into a NaN row, in both dispatch modes: the one-pass
        mode tries the whole set once, then supervises each cell as a
        one-cell stack."""
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
        result = explore_grid(grid, policy=policy)
        assert result.data["stacked"] is False
        assert [e["cell"] for e in result.data["errors"]] == [rejected.name]
        assert "ValueError: cell rejected by the model" in result.data["errors"][0]["error"]
        for idx, (got, want) in enumerate(zip(result.data["cells"], clean.data["cells"])):
            if idx == 2:
                assert math.isnan(got["metrics"]["saturation_load"])
                assert got["metrics"]["binding_kind"] == "error"
            else:
                assert canonical(got) == canonical(want)
        whole = [grid.size] if policy is None else []
        assert calls[: len(whole)] == whole
        assert set(calls[len(whole):]) == {1}

    def test_composition_error_shows_as_unstacked(self, base_544, monkeypatch):
        """A ValueError that only multi-cell stacks raise (a composition
        bug, not a rejected cell) yields the full table from one-cell
        stacks with ``stacked`` false, the signal that the pass failed."""
        grid = small_grid(base_544)
        clean = explore_grid(grid)
        original = StackedModel.from_specs

        def ragged_bug(specs):
            if len(specs) > 1:
                raise ValueError("operands could not be broadcast together")
            return original(specs)

        monkeypatch.setattr(StackedModel, "from_specs", ragged_bug)
        result = explore_grid(grid)
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
