"""The parameter plan (core.plan): journey structures, blocks and the chunk rule.

A plan packs a cell list into stack-wide journey families, addressed by
cell groups, and :data:`_SOLVE_ELEMENTS` bounds every solver call, class
batch and saturation run of the engine.  The suite pins the family
layout, the once-per-process journey structures, the chunk rule and the
one budget all three of its readers follow.
"""

import numpy as np
import pytest

from repro.core import plan as packing
from repro.core import stacked
from repro.core.plan import _solve_calls
from repro.core.stacked import StackedModel
from repro.scenarios import get_scenario
from tests.test_stacked import REGISTRY, SolverCalls, as_cells, grid_270_specs, three_group_cells


class TestJourneyStructures:
    """A journey structure is derived once per shape, whatever group it sits in."""

    @pytest.mark.parametrize(
        "cells, shapes",
        [
            # 16 singleton classes of 3 depths, 256 pairs of 9 shapes: the
            # classes were derived 16 times.
            (lambda: as_cells([get_scenario("544-hotspot")]), (3, 9)),
            # 3 groups of 90 cells, each 3 classes of 3 depths and 9 pair
            # shapes: each group derived its own, 9 + 27 times.
            (lambda: as_cells(grid_270_specs()), (3, 9)),
        ],
        ids=["544-hotspot", "grid-270"],
    )
    def test_one_derivation_per_shape(self, monkeypatch, cells, shapes):
        derived = {"intra": [], "pair": []}
        intra, pair = packing._intra_structure, packing._pair_structure

        def counting_intra(*key):
            derived["intra"].append(key)
            return intra(*key)

        def counting_pair(*key):
            derived["pair"].append(key)
            return pair(*key)

        cells = cells()
        monkeypatch.setattr(packing, "_intra_structure", counting_intra)
        monkeypatch.setattr(packing, "_pair_structure", counting_pair)
        plan = StackedModel(cells).plan
        assert (len(derived["intra"]), len(derived["pair"])) == shapes
        assert len(set(derived["intra"])) == len(plan.intra.structures) == shapes[0]
        assert len(set(derived["pair"])) == sum(len(block.structures) for block in plan.pair_blocks) == shapes[1]

    def test_a_second_plan_derives_no_structure(self):
        # Structures are memoised per process: after a first plan of every
        # registry scenario, a second derives none of its 60.
        specs = [spec for _, spec in REGISTRY]
        for spec in specs:
            StackedModel.from_specs([spec])
        derivations = packing._intra_structure.cache_info().misses + packing._pair_structure.cache_info().misses
        plans = [StackedModel.from_specs([spec]).plan for spec in specs]
        assert packing._intra_structure.cache_info().misses + packing._pair_structure.cache_info().misses == derivations
        shapes = {id(s) for plan in plans for s in plan.intra.structures}
        shapes |= {id(s) for plan in plans for block in plan.pair_blocks for s in block.structures}
        assert len(shapes) == 60

    def test_memoised_arrays_refuse_writes(self):
        structures = [packing._intra_structure(4, 3), packing._pair_structure(4, 3, 5, 2)]
        arrays = [value for s in structures for value in vars(s).values() if isinstance(value, np.ndarray)]
        assert len(arrays) == 6
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_the_accumulated_tail_time_equals_the_loop_fold(self):
        # Each pair row's E_ex (Eq. 33) is one np.add.accumulate over its
        # journeys: a strict left fold from 0.0 in journey order, as the
        # scalar loop runs it, on every shape of every registry scenario.
        for name, spec in REGISTRY:
            for block in StackedModel.from_specs([spec]).plan.pair_blocks:
                for k, structure in enumerate(block.structures):
                    rows = block.shape == k
                    tails = (
                        structure.r_minus_1[None, :] * block.src_cs[rows, None]
                        + structure.v_minus_1[None, :] * block.dst_cs[rows, None]
                        + structure.two_l[None, :] * block.i2_cs[rows, None]
                    ) + block.dst_cn[rows, None]
                    folded = np.zeros(tails.shape[0])
                    for jj in range(structure.weights.size):
                        folded = folded + structure.weights[jj] * tails[:, jj]
                    assert np.array_equal(block.tail_time[rows], folded), (name, k)


class TestStackWideBlocks:
    """Each journey family is one block of rows across cell groups, shape by shape."""

    @pytest.fixture(scope="class")
    def cells(self):
        return three_group_cells()

    def test_groups_share_blocks_in_their_own_class_orders(self, cells):
        plan = StackedModel(cells).plan
        assert len(plan.groups) == 3
        assert plan.intra.depths.tolist() == [3, 4, 5]
        assert len(plan.pair_blocks) == 1
        pairs = plan.pair_blocks[0]
        assert pairs.n_c == 3 and len(pairs.structures) == 9
        for group in plan.groups:
            assert group.family == 0
            assert sorted(plan.intra.shape[group.intra].tolist()) == [0, 1, 2]
            assert sorted(pairs.shape[group.pairs.ravel()].tolist()) == list(range(9))
        orders = {tuple(plan.intra.shape[group.intra].tolist()) for group in plan.groups}
        assert len(orders) == 3

    def test_intra_classes_of_one_cell_share_one_family(self):
        # 544-hotspot's 16 singleton classes have depths 3 (8 classes), 4
        # (3) and 5 (5): three shapes of one family, so an evaluation or a
        # saturation probe makes one intra solve.
        plan = StackedModel.from_specs([get_scenario("544-hotspot")]).plan
        assert plan.intra.depths.tolist() == [3, 4, 5]
        assert np.bincount(plan.intra.shape).tolist() == [8, 3, 5]
        group = plan.groups[0]
        assert group.intra.tolist() == list(range(16))
        assert plan.intra.shape[group.intra].tolist() == [0] * 8 + [1] * 3 + [2] * 5


class TestChunkRule:
    """One working-set budget cuts solver calls, class batches and saturation runs."""

    def test_chunks_hold_at_most_the_row_budget(self, monkeypatch):
        # Under a 4,000-element budget, three 544-hotspot cells: every
        # solver call, intra or pair, in an evaluation as in the saturation
        # search, has padded scratch within the budget, or holds one row of
        # a shape that alone exceeds it.  Calls fill the budget rather than
        # holding a row each.  The search's 48 intra rows exceed it at a
        # whole grid, so intra rows are cut too.  Every cell stays
        # bit-identical to the cell priced alone under the default budget.
        spec = get_scenario("544-hotspot")
        cells = [(spec.system, spec.message, spec.options, spec.pattern)] * 3
        grids = (np.linspace(0.0, 9e-4, 7), np.linspace(0.0, 9e-4, 33))
        alone = StackedModel(cells[:1])
        references = [alone.evaluate_latencies(grid)[0] for grid in grids]
        reference_saturation = alone.saturation_loads()[0]
        monkeypatch.setattr(packing, "_SOLVE_ELEMENTS", 4_000)
        stack = StackedModel(cells)
        calls = SolverCalls(monkeypatch)

        def within_budget(filled):
            assert any(shapes > 1 for _, shapes, _, _ in calls.calls)
            assert all(scratch <= 4_000 or (shapes == 1 and rows == 1) for _, shapes, rows, scratch in calls.calls)
            for kind in filled:
                assert max(scratch for call, _, _, scratch in calls.calls if call == kind) > 2_000, kind

        for grid, reference in zip(grids, references):
            for row in stack.evaluate_latencies(grid):
                assert np.array_equal(row, reference)
        within_budget(("pair",))
        calls.calls.clear()
        assert stack.saturation_loads() == [reference_saturation] * 3
        within_budget(("intra", "pair"))

    def test_one_budget_reaches_every_reader(self, monkeypatch):
        # One 544 cell under a 200-element budget, patched once: its 3 intra
        # rows at 33 loads (depths 3, 4 and 5, 495 padded elements) take
        # one solver call per depth, a batch holds 2 of its 3 source
        # classes (99 pair row-loads per class), and the saturation search
        # refines its 12 queues in runs of 200 // 33 = 6 rows.  Under the
        # default budget each is one call, one batch and one run.
        cells = as_cells([get_scenario("544")])
        reference = StackedModel(cells).saturation_loads()
        monkeypatch.setattr(packing, "_SOLVE_ELEMENTS", 200)
        stack = StackedModel(cells)
        intra, group = stack.plan.intra, stack.plan.groups[0]
        calls = _solve_calls(intra, np.arange(intra.size), 33)
        assert [intra.depths[intra.shape[call]].tolist() for call in calls] == [[3], [4], [5]]
        assert [(batch.start, batch.stop) for batch in group.batches(1, 33)] == [(0, 2), (2, 3)]
        runs = []
        original = stacked._refine_rows

        def recording(lo, hi, probe, **kwargs):
            runs.append(len(lo))
            return original(lo, hi, probe, **kwargs)

        monkeypatch.setattr(stacked, "_refine_rows", recording)
        assert stack.saturation_loads() == reference
        assert runs == [6, 6]
