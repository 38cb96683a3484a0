"""Stacked-engine lane independence (core.stacked): bit-identity per cell.

Explore, performability and calibrate price a whole cell set in one
:class:`StackedModel`, while their per-item supervised runs price each
cell alone as a one-cell stack.  The suite checks every stacked metric
against each cell priced alone through :class:`BatchedModel` (the
engine's one-cell view) and, for knees, :func:`model_knee` below.  The
contract is that a cell priced alone equals the same cell inside any
stack *bit for bit* — not round-off closeness — for every metric those
consumers read: per-resource saturation dictionaries, binding resources, λ*,
zero-load floors, auto load grids, latency curves, knee loads and budget
capacities.  The searches are also pinned against scalar oracles:
:func:`refine_monotone_crossing` (the one-bracket loop every search
replicates, ``tests/test_refine.py``) and :func:`model_budget` (the
one-cell capacity search).  The suite locks that contract across the full scenario
registry (which includes the m=8 heterogeneity ladder), ragged
mixed-topology cell sets (grouping + masks), the ``ModelOptions``
ablation space and performability degraded states including
single-cluster/single-stage edge systems.
"""

import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.capacity import max_load_for_latency
from repro.cluster import homogeneous_system
from repro.core import MessageSpec
from repro.core.batch import BatchedModel
from repro.core import plan as packing
from repro.core import refine, stacked
from repro.core.parameters import ModelOptions
from repro.core.stacked import StackedModel
from repro.core.sweep import auto_load_grid
from repro.experiments.explore import explore_grid
from repro.performability import FailureMode, FailureScenario, expand_states
from repro.scenarios import AxisSpec, DesignGrid, ScenarioSpec, get_scenario
from repro.scenarios.registry import iter_scenarios
from tests.test_refine import refine_monotone_crossing

REGISTRY = list(iter_scenarios())


def model_budget(engine: BatchedModel, budget: float) -> float:
    """Budget-capacity reference: one cell's largest load meeting *budget*."""
    if budget < engine.zero_load_latency():
        return 0.0
    hi = engine.saturation_load() * 0.9999
    hi_latency = engine.evaluate_many(np.array([hi]), with_results=False).latencies[0]
    if np.isfinite(hi_latency) and hi_latency <= budget:
        return hi

    def beyond(grid: np.ndarray) -> np.ndarray:
        latencies = engine.evaluate_many(grid, with_results=False).latencies
        return ~(np.isfinite(latencies) & (latencies <= budget))

    lo, _ = refine_monotone_crossing(0.0, hi, beyond, rel_tol=1e-4)
    return lo


def model_knee(engine: BatchedModel, lam_star: float, zero: float, factor: float) -> float:
    """Knee reference: load where one cell's latency first reaches ``factor ×`` its floor."""
    threshold = factor * zero

    def beyond(grid: np.ndarray) -> np.ndarray:
        latencies = engine.evaluate_many(grid, with_results=False).latencies
        return ~(np.isfinite(latencies) & (latencies < threshold))

    lo, _ = refine_monotone_crossing(0.0, lam_star * (1.0 - 1e-9), beyond, rel_tol=1e-6)
    return lo


def per_cell_engines(cells):
    return [BatchedModel(*cell) for cell in cells]


def assert_stack_matches(cells, names=None):
    """Every consumer-facing metric, stacked vs per-cell, bit for bit."""
    names = names or [f"cell{idx}" for idx in range(len(cells))]
    stack = StackedModel(cells)
    engines = per_cell_engines(cells)

    sat_s = stack.saturation_loads()
    bind_s = stack.binding_resources()
    lam_s = stack.saturation_load()
    zero_s = stack.zero_load_latencies()
    grids_s = stack.auto_load_grids()
    curves_s = stack.evaluate_latencies(grids_s)
    for idx, (name, engine) in enumerate(zip(names, engines)):
        assert engine.saturation_loads() == sat_s[idx], name
        assert engine.binding_resource() == bind_s[idx], name
        assert engine.saturation_load() == lam_s[idx], name
        assert engine.zero_load_latency() == zero_s[idx], name
        grid = auto_load_grid(engine)
        assert np.array_equal(grid, grids_s[idx]), name
        curve = engine.evaluate_many(grid, with_results=False).latencies
        assert np.array_equal(curve, curves_s[idx]), name
    return stack, engines


class TestRegistryEquivalence:
    """Every registry scenario in ONE stack, metrics equal per cell."""

    @pytest.fixture(scope="class")
    def specs(self):
        return [spec for _, spec in REGISTRY]

    @pytest.fixture(scope="class")
    def stack(self, specs):
        return StackedModel.from_specs(specs)

    @pytest.fixture(scope="class")
    def engines(self, specs):
        return [
            BatchedModel(s.system, s.message, s.options, s.pattern) for s in specs
        ]

    def test_saturation_dicts_bitwise(self, stack, engines):
        stacked = stack.saturation_loads()
        for (name, _), engine, entry in zip(REGISTRY, engines, stacked):
            assert engine.saturation_loads() == entry, name

    def test_binding_and_lambda_star(self, stack, engines):
        binding = stack.binding_resources()
        lam = stack.saturation_load()
        for idx, ((name, _), engine) in enumerate(zip(REGISTRY, engines)):
            assert engine.binding_resource() == binding[idx], name
            assert engine.saturation_load() == lam[idx], name

    def test_zero_load_and_grids(self, stack, engines):
        zero = stack.zero_load_latencies()
        grids = stack.auto_load_grids()
        for idx, ((name, _), engine) in enumerate(zip(REGISTRY, engines)):
            assert engine.zero_load_latency() == zero[idx], name
            assert np.array_equal(auto_load_grid(engine), grids[idx]), name

    def test_grids_take_only_an_integer_point_count(self, stack):
        # points=2.5 once gave 3 loads per row, the last past λ*.
        for points in (2.5, 3.0, 1, True):
            with pytest.raises(ValueError, match="points"):
                stack.auto_load_grids(points=points)
        assert np.array_equal(
            stack.auto_load_grids(points=np.int64(5)), stack.auto_load_grids(points=5)
        )

    def test_latency_curves_bitwise(self, stack, engines):
        grids = stack.auto_load_grids()
        curves = stack.evaluate_latencies(grids)
        for idx, ((name, _), engine) in enumerate(zip(REGISTRY, engines)):
            reference = engine.evaluate_many(grids[idx], with_results=False).latencies
            assert np.array_equal(reference, curves[idx]), name

    def test_knee_loads_bitwise(self, stack, engines):
        knees = stack.knee_loads(4.0)
        for idx, ((name, _), engine) in enumerate(zip(REGISTRY, engines)):
            reference = model_knee(
                engine, engine.saturation_load(), engine.zero_load_latency(), 4.0
            )
            assert reference == knees[idx], name

    @pytest.mark.parametrize("modulus", [3, 2])
    def test_budget_capacities_bitwise(self, stack, engines, specs, modulus):
        # NaN budgets (no latency_budget on the spec) must stay NaN; the
        # finite ones must equal the one-cell reference search and the
        # capacity planner's plan.  Under modulus 2, 544-local is searched
        # while 544-hotspot passes NaN through, so the search's rows are a
        # strict subset of their 2-cell, 16-class group.
        budgets = np.array(
            [
                2.5 * engine.zero_load_latency() if idx % modulus else float("nan")
                for idx, engine in enumerate(engines)
            ]
        )
        achieved = stack.loads_at_budget(budgets)
        for idx, ((name, _), spec) in enumerate(zip(REGISTRY, specs)):
            if np.isnan(budgets[idx]):
                assert np.isnan(achieved[idx]), name
            else:
                assert model_budget(engines[idx], float(budgets[idx])) == achieved[idx], name
                plan = max_load_for_latency(engines[idx].stack, float(budgets[idx]))
                assert plan.achieved == achieved[idx], name


class TestHeterogeneityLadder:
    """The m=8 ladder's four rungs: four cell groups whose classes share depth and shape blocks."""

    def test_ladder_stack_matches_per_cell(self):
        names = ["het8-uniform", "het8-mild", "het8-split", "het8-extreme"]
        specs = [get_scenario(name) for name in names]
        assert_stack_matches(
            [(s.system, s.message, s.options, s.pattern) for s in specs], names
        )


class TestRaggedMixedTopologies:
    """Cells with different m, C, depths and cluster classes in one stack."""

    def test_mixed_cells_match_per_cell(self):
        message = MessageSpec(32, 256.0)
        mixed = [
            ("544", get_scenario("544")),
            ("1120", get_scenario("1120")),
            ("het8-extreme", get_scenario("het8-extreme")),
            ("544-x4", get_scenario("544-x4")),
            ("544-hotspot", get_scenario("544-hotspot")),
        ]
        cells = [(s.system, s.message, s.options, s.pattern) for _, s in mixed]
        # Edge systems: a single-cluster stack cell (no pair journeys at
        # all — the mask must zero the inter-cluster terms exactly) and a
        # minimal-depth single-stage cluster.
        cells.append(
            (homogeneous_system(switch_ports=4, tree_depth=1, num_clusters=1), message, None, None)
        )
        cells.append(
            (homogeneous_system(switch_ports=4, tree_depth=1, num_clusters=4), message, None, None)
        )
        names = [name for name, _ in mixed] + ["single-cluster", "depth-1"]
        stack, _ = assert_stack_matches(cells, names)
        # Heterogeneous shapes must not collapse into one padded group by
        # accident: group signatures separate the topology families.
        assert len(stack.plan.groups) > 1

    def test_duplicate_cells_share_results(self):
        spec = get_scenario("544")
        cells = [(spec.system, spec.message, spec.options, spec.pattern)] * 3
        stack = StackedModel(cells)
        lam = stack.saturation_load()
        assert lam[0] == lam[1] == lam[2]


class TestOptionSpace:
    """The full ModelOptions ablation space, stacked over two topologies."""

    def test_all_option_combinations_match_per_cell(self):
        import itertools

        domains = ModelOptions.option_values()
        cells = []
        names = []
        for assignment in itertools.product(*domains.values()):
            options = ModelOptions(**dict(zip(domains, assignment)))
            for base in ("544", "het8-mild"):
                spec = get_scenario(base)
                cells.append((spec.system, spec.message, options, spec.pattern))
                names.append(f"{base}/{assignment}")
        stack = StackedModel(cells)
        grids = stack.auto_load_grids()
        curves = stack.evaluate_latencies(grids)
        lam = stack.saturation_load()
        for idx, cell in enumerate(cells):
            engine = BatchedModel(*cell)
            assert engine.saturation_load() == lam[idx], names[idx]
            grid = auto_load_grid(engine)
            assert np.array_equal(grid, grids[idx]), names[idx]
            reference = engine.evaluate_many(grid, with_results=False).latencies
            assert np.array_equal(reference, curves[idx]), names[idx]


def degraded_state_specs():
    """``544`` and its degraded states under node, ICN2 switch and link failures."""
    spec = get_scenario("544")
    failures = FailureScenario(
        modes=(
            FailureMode(kind="node", failure_rate=1e-4, repair_rate=1e-2),
            FailureMode(kind="switch", role="icn2", failure_rate=1e-5, repair_rate=1e-2),
            FailureMode(kind="link", role="icn2", failure_rate=1e-5, repair_rate=1e-2),
        ),
        max_concurrent=2,
        name="equivalence",
    )
    states = expand_states(spec.system, failures)
    specs = [
        ScenarioSpec.from_dict({**spec.to_dict(), "system": st.system.to_dict()})
        for st in states
    ]
    return spec, states, specs


class TestPerformabilityDegradedStates:
    """Degraded-system stacks: what performability_analysis prices."""

    @pytest.fixture(scope="class")
    def degraded_specs(self):
        return degraded_state_specs()

    def test_degraded_states_match_per_state_engine(self, degraded_specs):
        spec, states, specs = degraded_specs
        pristine = StackedModel.from_specs([spec])
        loads = np.asarray(
            [float(v) for v in spec.load_grid.grid(pristine)[0]], dtype=np.float64
        )
        stack = StackedModel.from_specs(specs)
        latencies = stack.evaluate_latencies(loads)
        lam = stack.saturation_load()
        binding = stack.binding_resources()
        zero = stack.zero_load_latencies()
        for idx, (st, degraded) in enumerate(zip(states, specs)):
            engine = BatchedModel(
                degraded.system, degraded.message, degraded.options, degraded.pattern
            )
            assert engine.saturation_load() == lam[idx], st.label
            assert engine.binding_resource() == binding[idx], st.label
            assert engine.zero_load_latency() == zero[idx], st.label
            reference = engine.evaluate_many(loads, with_results=False).latencies
            assert np.array_equal(reference, latencies[idx]), st.label

    def test_single_cluster_degraded_edge(self):
        # The smallest stackable systems: one cluster (no inter-cluster
        # journeys) next to a two-cluster sibling in the same stack.
        message = MessageSpec(16, 128.0)
        cells = [
            (homogeneous_system(switch_ports=4, tree_depth=1, num_clusters=1), message, None, None),
            (homogeneous_system(switch_ports=4, tree_depth=1, num_clusters=4), message, None, None),
            (homogeneous_system(switch_ports=4, tree_depth=2, num_clusters=1), message, None, None),
        ]
        assert_stack_matches(cells, ["C1-d1", "C4-d1", "C1-d2"])


class SolverCalls:
    """Records every solver call: ``(kind, shapes, rows, padded scratch)``.

    A call's shapes are its distinct journey depths (pair calls:
    ``(d_src, d_dst)``), its padded scratch the elements of its
    ``(n_c, d_dst, rows, loads)`` or ``(depth, rows, loads)`` working set
    at its deepest row.
    """

    def __init__(self, monkeypatch):
        self.calls = []
        pair, intra = stacked._solve_pair_stacked, stacked._solve_intra_stacked

        def pair_call(*args):
            d_src, d_dst, n_c, eta_e1 = args[4], args[5], args[6], args[8]
            shapes = len(set(zip(d_src.tolist(), d_dst.tolist())))
            self.calls.append(("pair", shapes, d_src.size, n_c * int(d_dst.max()) * eta_e1.size))
            return pair(*args)

        def intra_call(*args):
            depth, eta_i1 = args[2], args[4]
            self.calls.append(("intra", len(set(depth.tolist())), depth.size, int(depth.max()) * eta_i1.size))
            return intra(*args)

        monkeypatch.setattr(stacked, "_solve_pair_stacked", pair_call)
        monkeypatch.setattr(stacked, "_solve_intra_stacked", intra_call)

    def count(self, kind):
        return sum(call[0] == kind for call in self.calls)


def grid_270_specs():
    """The 270-cell, 3-group explore grid on ``544`` of the explore benchmark."""
    grid = DesignGrid(
        base=get_scenario("544"),
        axes=(
            AxisSpec("system.clusters.0.tree_depth", (3, 4, 5)),
            AxisSpec("system.clusters.15.tree_depth", (3, 4, 5)),
            AxisSpec("system.icn2.bandwidth", (250.0, 375.0, 500.0, 625.0, 750.0)),
            AxisSpec("message.length_flits", (16, 32, 64)),
            AxisSpec("message.flit_bytes", (128.0, 256.0)),
        ),
    )
    return [cell.spec for cell in grid.cells()]


class TestClassPairShapes:
    """Class pairs of every journey shape are rows of one padded solver call."""

    @pytest.mark.parametrize(
        "name, loads",
        [
            # 3 classes of depths 3, 4 and 5: 9 pairs in 9 shapes.
            ("544", np.linspace(0.0, 5e-4, 33)),
            # 16 singleton classes: 256 pairs in 9 shapes, 16 classes of 3
            # depths.  At 33 loads its pairs exceed the element budget.
            ("544-hotspot", np.array([2e-4])),
        ],
    )
    def test_one_cell_evaluation_makes_one_pair_and_one_intra_solve(self, monkeypatch, name, loads):
        calls = SolverCalls(monkeypatch)
        StackedModel.from_specs([get_scenario(name)]).evaluate_latencies(loads)
        assert (calls.count("pair"), calls.count("intra")) == (1, 1)
        assert all(shapes > 1 for _, shapes, _, _ in calls.calls)

    def test_one_cell_saturation_probe_makes_at_most_two_solves(self, monkeypatch):
        # 544: 3 ICN1 queues of 3 depths and 9 ECN1 queues of 9 shapes,
        # one refinement; every probe call solves each family once.
        calls = SolverCalls(monkeypatch)
        per_probe = []
        original = stacked._refine_rows

        def recording(lo, hi, probe, **kwargs):
            def counted(rows, loads):
                before = len(calls.calls)
                out = probe(rows, loads)
                per_probe.append(len(calls.calls) - before)
                return out

            return original(lo, hi, counted, **kwargs)

        monkeypatch.setattr(stacked, "_refine_rows", recording)
        StackedModel.from_specs([get_scenario("544")]).saturation_loads()
        assert per_probe and max(per_probe) <= 2

    def test_grid_evaluations_make_no_more_solves_than_one_per_shape(self, monkeypatch):
        # The 270-cell grid's 33-load evaluations: 3 groups of 90 cells,
        # each 3 source classes of 9 pair shapes of 90 rows.  All 3 classes
        # fit one batch of the element budget; its intra rows take 2 calls
        # per group and each pair shape 1 or 2 (one at n_c · d_dst = 9, cut
        # in two above): 6 intra and 45 pair solves.  The knee and budget
        # searches' evaluations make 21 intra and 87 pair solves.
        stack = StackedModel.from_specs(grid_270_specs())
        stack.saturation_loads()
        calls = SolverCalls(monkeypatch)
        stack.evaluate_latencies(np.linspace(0.0, 2e-4, 33))
        assert calls.count("pair") <= 45 and calls.count("intra") <= 6
        calls.calls.clear()
        stack.knee_loads(4.0)
        stack.loads_at_budget(np.full(stack.cells, 200.0))
        assert calls.count("pair") <= 87 and calls.count("intra") <= 21


def planes_of(value):
    """Every float or bool plane in a nested mapping, list or tuple of planes."""
    if isinstance(value, dict):
        return [plane for item in value.values() for plane in planes_of(item)]
    if isinstance(value, (list, tuple)):
        return [plane for item in value for plane in planes_of(item)]
    return [np.asarray(value)] if not isinstance(value, str) else []


def padding_cases():
    """Every registry scenario in one stack, a 3-cell 544-hotspot stack and the 3-group grid."""
    hotspot = get_scenario("544-hotspot")
    return {
        "registry": [(s.system, s.message, s.options, s.pattern) for _, s in REGISTRY],
        "544-hotspot-x3": [(hotspot.system, hotspot.message, hotspot.options, hotspot.pattern)] * 3,
        "three-groups": three_group_cells(),
    }


class TestPaddedCalls:
    """Rows of several journey shapes in one padded call keep every lane."""

    @staticmethod
    def results(cells):
        stack = StackedModel(cells)
        lam = stack.saturation_load()
        # Past 1.2 λ* every latency is infinite; far past it the padded
        # journeys of the shallow rows overflow too, beside valid lanes.
        loads = lam[:, None] * np.array([0.0, 0.3, 0.6, 0.9, 1.0, 1.2, 4.0, 30.0, 1e3])
        zero = stack.zero_load_latencies()
        return {
            "latencies": stack.evaluate_latencies(loads),
            "terms": stack.evaluate_terms(loads),
            "utilizations": stack.resource_utilizations(loads),
            "saturation": stack.saturation_loads(),
            "knees": stack.knee_loads(4.0),
            "budgets": stack.loads_at_budget(2.5 * zero),
        }

    @pytest.mark.parametrize("case", ["registry", "544-hotspot-x3", "three-groups"])
    def test_unmerged_calls_equal_padded_calls_bit_for_bit(self, monkeypatch, case):
        cells = padding_cases()[case]
        calls = SolverCalls(monkeypatch)
        padded = self.results(cells)
        assert any(shapes > 1 for _, shapes, _, _ in calls.calls)
        calls.calls.clear()
        monkeypatch.setattr(packing, "_SOLVE_ELEMENTS", 1)
        alone = self.results(cells)
        assert all(shapes == 1 for _, shapes, _, _ in calls.calls)
        assert padded["saturation"] == alone["saturation"]
        for key in ("latencies", "terms", "utilizations", "knees", "budgets"):
            ours, theirs = planes_of(padded[key]), planes_of(alone[key])
            assert len(ours) == len(theirs), key
            for mine, other in zip(ours, theirs):
                assert mine.dtype == other.dtype and np.array_equal(mine, other), key
                assert not (mine.dtype.kind == "f" and np.isnan(mine).any()), key


def hotspot_grid():
    """The serial 90-cell ``544-hotspot`` explore grid: 45 ICN2 bandwidths
    from 300 to 900 × message lengths 32 and 64, budget 200."""
    return DesignGrid(
        base=replace(get_scenario("544-hotspot"), latency_budget=200.0),
        axes=(
            AxisSpec("system.icn2.bandwidth", tuple(float(b) for b in np.linspace(300.0, 900.0, 45))),
            AxisSpec("message.length_flits", (32, 64)),
        ),
    )


def traced_peak(call):
    """tracemalloc's peak, in MB, of the allocations *call* makes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


class TestWorkingSet:
    """The engine holds no state outside its stacks, and one budget bounds its memory."""

    def test_separate_stacks_in_two_threads_equal_serial_runs(self):
        # One thread prices three 544-hotspot cells, the other a 6-cell 544
        # grid, each three times on a fresh stack.  State shared between
        # stacks, such as one scratch buffer for every solve of the
        # process, would mix the two threads' numbers.
        hotspot = get_scenario("544-hotspot")
        grid = DesignGrid(
            base=get_scenario("544"),
            axes=(
                AxisSpec("system.icn2.bandwidth", (300.0, 500.0, 700.0)),
                AxisSpec("message.length_flits", (16, 64)),
            ),
        )
        stacks = (
            [(hotspot.system, hotspot.message, hotspot.options, hotspot.pattern)] * 3,
            as_cells(cell.spec for cell in grid.cells()),
        )

        def priced(cells):
            out = []
            for _ in range(3):
                stack = StackedModel(cells)
                lam = stack.saturation_load()
                latencies = stack.evaluate_latencies(lam[:, None] * np.linspace(0.0, 0.95, 33))
                out.append((lam, latencies, stack.knee_loads(4.0)))
            return out

        serial = [priced(cells) for cells in stacks]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(priced, cells) for cells in stacks]
                threaded = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        wrong = [
            (s, k)
            for s, (alone, together) in enumerate(zip(serial, threaded))
            for k, (mine, other) in enumerate(zip(alone, together))
            if not all(np.array_equal(a, b) for a, b in zip(mine, other))
        ]
        assert not wrong

    def test_hotspot_grid_peaks_stay_within_the_budget(self):
        # Traced peaks of a warm explore of the hotspot grid and of the full
        # saturation search on its stack: 9.0 and 5.9 MB.  One run of all
        # 23,040 searched queues peaked at 51 MB.
        grid = hotspot_grid()
        explore_grid(replace(grid, axes=(AxisSpec("system.icn2.bandwidth", (300.0,)),)))
        assert traced_peak(lambda: explore_grid(grid)) < 18.0
        stack = StackedModel.from_specs([cell.spec for cell in grid.cells()])
        assert traced_peak(stack.saturation_loads) < 12.0


def three_group_cells():
    """12 cells of ``544`` in 3 cell groups: cluster 0 of depth 3, 4 or 5
    reorders the classes, so each group holds the same 3 depths and 9
    journey shapes in its own class order."""
    grid = DesignGrid(
        base=get_scenario("544"),
        axes=(
            AxisSpec("system.clusters.0.tree_depth", (3, 4, 5)),
            AxisSpec("system.clusters.15.tree_depth", (3, 5)),
            AxisSpec("system.icn2.bandwidth", (400.0, 600.0)),
        ),
    )
    return [(c.spec.system, c.spec.message, c.spec.options, c.spec.pattern) for c in grid.cells()]


def grid_36_specs():
    """The 36-cell, 2-group grid on ``544`` of the explore-smoke CI step."""
    grid = DesignGrid(
        base=get_scenario("544"),
        axes=(
            AxisSpec("system.clusters.0.tree_depth", (3, 4)),
            AxisSpec("system.clusters.15.tree_depth", (3, 4)),
            AxisSpec("system.icn2.bandwidth", (400.0, 500.0, 600.0)),
            AxisSpec("message.length_flits", (16, 32, 64)),
        ),
    )
    return [cell.spec for cell in grid.cells()]


def small_group_specs():
    """18 cells of ``544`` in 3 cell groups of 6: a group searched alone
    opens whole-grid plans, the stack's 18 rows open windows."""
    grid = DesignGrid(
        base=get_scenario("544"),
        axes=(
            AxisSpec("system.clusters.0.tree_depth", (3, 4, 5)),
            AxisSpec("system.clusters.15.tree_depth", (3, 5)),
            AxisSpec("system.icn2.bandwidth", (400.0, 500.0, 600.0)),
        ),
    )
    return [cell.spec for cell in grid.cells()]


def pole_miss_specs():
    """16 cells of ``544-icn2-x0.5`` (ICN2 bandwidth 62.5–750, message lengths
    16–128): as many rows as open windows, and 6 of their knees at 4× the
    floor lie below the pole bound, so their pole windows miss."""
    grid = DesignGrid(
        base=get_scenario("544-icn2-x0.5"),
        axes=(
            AxisSpec("system.icn2.bandwidth", (62.5, 125.0, 500.0, 750.0)),
            AxisSpec("message.length_flits", (16, 32, 64, 128)),
        ),
    )
    return [cell.spec for cell in grid.cells()]


class TestStackWideBlocks:
    """Searches over stack-wide blocks: one solver call per family, every cell as priced alone.

    The blocks' layout is pinned in ``tests/test_plan.py``.
    """

    @pytest.fixture(scope="class")
    def cells(self):
        return three_group_cells()

    @pytest.mark.parametrize(
        "grid",
        [three_group_cells, grid_270_specs, grid_36_specs, small_group_specs],
        ids=["three-groups", "grid-270", "grid-36", "small-groups"],
    )
    def test_every_cell_equals_the_cell_priced_alone(self, grid):
        # Knee and budget search each stack in one refinement: the grids
        # hold 3 groups of 4 cells, 3 of 90, 2 of 18 and 3 of 6.
        stack, engines = assert_stack_matches(as_cells(grid()))
        knees = stack.knee_loads(4.0)
        budgets = 2.5 * stack.zero_load_latencies()
        achieved = stack.loads_at_budget(budgets)
        for idx, engine in enumerate(engines):
            lam, zero, budget = engine.saturation_load(), engine.zero_load_latency(), float(budgets[idx])
            assert engine.stack.knee_loads(4.0)[0] == knees[idx] == model_knee(engine, lam, zero, 4.0), idx
            assert engine.stack.loads_at_budget(budgets[idx : idx + 1])[0] == achieved[idx], idx
            assert model_budget(engine, budget) == achieved[idx], idx

    def test_one_search_makes_one_solver_call_per_family_in_each_probe(self, cells, monkeypatch):
        # 144 searched rows: 3 ICN1 queues and 9 ECN1 queues per cell, 36
        # rows of the intra family (3 depths) and 108 of the pair family
        # (9 shapes), in one run, so a probe's rows may span both; with an
        # element budget every probe fits, each family present is one
        # solver call.
        monkeypatch.setattr(packing, "_SOLVE_ELEMENTS", 10**7)
        stack = StackedModel(cells)
        plan = stack.plan
        family_of = np.repeat([0, 1], [plan.intra.size, int(np.count_nonzero(plan.pair_blocks[0].outward()))])
        assert family_of.size == 144
        calls = SolverCalls(monkeypatch)
        runs = []
        original = stacked._refine_rows

        def recording(lo, hi, probe, **kwargs):
            made = []
            runs.append(made)

            def counted_probe(rows, loads):
                before = len(calls.calls)
                out = probe(rows, loads)
                made.append((np.count_nonzero(np.bincount(family_of[rows])), len(calls.calls) - before))
                return out

            return original(lo, hi, counted_probe, **kwargs)

        monkeypatch.setattr(stacked, "_refine_rows", recording)
        stack.saturation_loads()
        assert len(runs) == 1 and runs[0]
        for present, solves in runs[0]:
            assert solves == present
        assert max(shapes for _, shapes, _, _ in calls.calls) == 9


def search_cells(count):
    """*count* one-group cells of an explore-style grid on ``544``."""
    grid = DesignGrid(
        base=get_scenario("544"),
        axes=(
            AxisSpec("system.icn2.bandwidth", tuple(300.0 + 50.0 * k for k in range(count // 2))),
            AxisSpec("message.length_flits", (16, 64)),
        ),
    )
    return [cell.spec for cell in grid.cells()]


@pytest.fixture(scope="module")
def search_probes():
    """Each refinement's probe, first bracket and result over an 18-cell stack."""
    records = []
    original = stacked._refine_rows

    def recording(lo, hi, probe, **kwargs):
        out = original(lo, hi, probe, **kwargs)
        records.append((probe, np.array(lo, dtype=float), np.array(hi, dtype=float), out))
        return out

    patch = pytest.MonkeyPatch()
    patch.setattr(stacked, "_refine_rows", recording)
    try:
        stack = StackedModel.from_specs(search_cells(18))
        stack.saturation_loads()
        stack.knee_loads(4.0)
        stack.loads_at_budget(3.0 * stack.zero_load_latencies())
    finally:
        patch.undo()
    return records


class TestPredictedProbes:
    """The three searches' verdicts are monotone; prediction halves their work."""

    @settings(max_examples=30)
    @given(st.data())
    def test_verdicts_never_fall_along_sorted_loads(self, search_probes, data):
        # Loads spread over the first and the final bracket, plus the
        # floats next to the final bracket ends, sorted along each row.
        probe, lo0, hi0, (lo, hi) = data.draw(st.sampled_from(search_probes))
        spread = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=24)))
        ulps = data.draw(st.integers(1, 64))
        near = [lo, hi]
        for _ in range(ulps):
            near += [np.nextafter(near[-2], -np.inf), np.nextafter(near[-1], np.inf)]
        loads = np.concatenate(
            [
                lo0[:, None] + spread[None, :] * (hi0 - lo0)[:, None],
                lo[:, None] + spread[None, :] * (hi - lo)[:, None],
                np.stack(near, axis=1),
            ],
            axis=1,
        )
        loads = np.sort(np.maximum(loads, 0.0), axis=1)
        crossed, _ = probe(np.arange(lo0.size), loads)
        assert not np.any(crossed[:, :-1] & ~crossed[:, 1:])

    def test_searches_evaluate_at_most_half_the_plain_loads(self, monkeypatch):
        # A 270-cell grid like the explore benchmark's.  The plain loop is
        # the scalar oracle, each row refined alone on whole grids.  The
        # probe reads each row's final bracket (lo, hi) as not crossed,
        # crossed (not crossed at hi if the row ended at lo == hi), so by
        # monotonicity every load at or below lo is not crossed and every
        # load at or above hi is, and no whole grid of the row's rounds
        # holds a load strictly inside that bracket.  The oracle replays
        # those verdicts, costing no model evaluation, and must end on the
        # same bracket.  saturation_loads() is the full search, with no
        # ceiling; knee and budget then read λ* off its maps, and pass a
        # prior and a pole bound, which only choose the loads they probe:
        # the plain loop takes only its own arguments.
        specs = grid_270_specs()
        original = stacked._refine_rows
        work = {"calls": 0, "loads": 0, "plain": 0}

        def counting(lo, hi, probe, **kwargs):
            assert kwargs.get("ceiling") is None

            def counted(rows, loads):
                work["calls"] += 1
                work["loads"] += loads.size
                return probe(rows, loads)

            out = original(lo, hi, counted, **kwargs)
            own = {key: kwargs[key] for key in ("rel_tol", "points", "max_rounds") if key in kwargs}
            ends, _ = probe(np.arange(len(lo)), np.stack(out, axis=1))
            assert not ends[:, 0].any()
            assert np.array_equal(ends[:, 1], out[0] < out[1])
            for lo0, hi0, lo1, hi1 in zip(lo, hi, *out):

                def replay(loads, lo1=lo1, hi1=hi1):
                    work["plain"] += loads.size
                    return (loads >= hi1) & (lo1 < hi1)

                assert refine_monotone_crossing(lo0, hi0, replay, **own) == (lo1, hi1)
            return out

        monkeypatch.setattr(stacked, "_refine_rows", counting)
        stack = StackedModel.from_specs(specs)
        stack.saturation_loads()
        assert work["calls"] <= 26
        stack.knee_loads(4.0)
        stack.loads_at_budget(np.full(stack.cells, 200.0))
        assert work["loads"] <= work["plain"] / 2
        assert work["loads"] < 401_194 and work["calls"] <= 31


class TestOneCellSearches:
    """A search of one cell decides several rounds per probe call."""

    @pytest.mark.parametrize("name, spec", REGISTRY, ids=[name for name, _ in REGISTRY])
    def test_probe_calls_per_search(self, name, spec, monkeypatch):
        # Saturation searches 2 to 12 queues per registry scenario (256 on
        # 544-hotspot and 544-local), knee and budget one row.  The plain
        # loop makes 9-10, 4-5 and 3 calls, and the budget search also
        # evaluated every cell at 0.9999 λ* before it refined.  After the
        # knee, the budget search predicts from the knee's samples from its
        # first call (1-2 calls); searched alone it takes 2-3.
        calls = []
        original = stacked._refine_rows

        def counting(lo, hi, probe, **kwargs):
            calls.append(0)

            def counted(rows, loads):
                calls[-1] += 1
                return probe(rows, loads)

            return original(lo, hi, counted, **kwargs)

        monkeypatch.setattr(stacked, "_refine_rows", counting)
        stack = StackedModel.from_specs([spec])
        evaluations = []
        evaluate = stack.evaluate_latencies

        def counted_evaluate(loads):
            evaluations.append(loads)
            return evaluate(loads)

        monkeypatch.setattr(stack, "evaluate_latencies", counted_evaluate)
        stack.saturation_loads()
        assert len(calls) == 1 and calls[0] <= 6
        zero = stack.zero_load_latencies()
        calls.clear()
        stack.knee_loads(4.0)
        assert len(calls) == 1 and calls[0] <= 4
        calls.clear()
        evaluations.clear()
        stack.loads_at_budget(2.0 * zero)
        assert len(calls) == 1 and calls[0] <= 2
        assert not evaluations
        alone = StackedModel.from_specs([spec])
        alone.saturation_load()
        calls.clear()
        alone.loads_at_budget(2.0 * zero)
        assert len(calls) == 1 and calls[0] <= 3

        # Below the floor, inside the range and met at 0.9999 λ*.
        engine = BatchedModel(spec.system, spec.message, spec.options, spec.pattern)
        for budget in (0.5 * zero[0], 2.0 * zero[0], 1e9):
            assert stack.loads_at_budget(np.array([budget]))[0] == model_budget(engine, budget)
        assert not evaluations
        assert stack.loads_at_budget(np.array([1e9]))[0] == stack.saturation_load()[0] * 0.9999


def ecn1_bound_specs():
    """90 cells of ``544`` with an over-provisioned ICN2 (bandwidth 5,000 to
    80,000): every cell binds on an ECN1 source queue, not a concentrator."""
    grid = DesignGrid(
        base=get_scenario("544"),
        axes=(
            AxisSpec("system.icn2.bandwidth", tuple(5000.0 * 2.0 ** (k / 11) for k in range(45))),
            AxisSpec("message.length_flits", (16, 64)),
        ),
    )
    return [cell.spec for cell in grid.cells()]


#: Cell lists, built on demand, whose bounded λ* and binding resources
#: must equal the full search's.
BOUNDED_CASES = {
    "registry": lambda: [spec for _, spec in REGISTRY],
    **{name: (lambda spec=spec: [spec]) for name, spec in REGISTRY},
    "grid-270": grid_270_specs,
    "ecn1-bound": ecn1_bound_specs,
    "three-groups": three_group_cells,
    "degraded": lambda: degraded_state_specs()[2],
}


def as_cells(items):
    """Stack cells from specs or ``(system, message, options, pattern)`` tuples."""
    return [
        item if isinstance(item, tuple) else (item.system, item.message, item.options, item.pattern)
        for item in items
    ]


def full_least(cells):
    """λ* and binding resource from a fresh stack's full maps: minimum and first argmin."""
    maps = StackedModel(cells).saturation_loads()
    return [min(m.values()) for m in maps], [min(m, key=m.get) for m in maps]


class TestBoundedSaturation:
    """λ* and the binding resource by the bounded search equal the full search's."""

    @pytest.mark.parametrize("case", list(BOUNDED_CASES))
    def test_bounded_search_equals_the_full_maps(self, case):
        cells = as_cells(BOUNDED_CASES[case]())
        stack = StackedModel(cells)
        lam, binding = stack.saturation_load(), stack.binding_resources()
        full_lam, full_binding = full_least(cells)
        assert lam.tolist() == full_lam
        assert binding == full_binding
        if case == "ecn1-bound":
            assert all(name.endswith("ecn1-source-queue") for name in binding)
        if len(cells) > 1:
            for idx, cell in enumerate(cells):
                alone = StackedModel([cell])
                assert alone.saturation_load()[0] == lam[idx], (case, idx)
                assert alone.binding_resources()[0] == binding[idx], (case, idx)

    @pytest.mark.parametrize("name, ties", [("544-local", "icn1-source-queue"), ("544-hotspot", "concentrator")])
    def test_tied_minima_keep_the_first_argmin(self, name, ties):
        # The tie cases are real: several resources share the minimum, and
        # the bounded search names the first of them in scalar order.
        cells = as_cells([get_scenario(name)])
        (saturation,) = StackedModel(cells).saturation_loads()
        least = min(saturation.values())
        tied = [resource for resource, value in saturation.items() if value == least]
        assert len(tied) >= 2 and all(resource.endswith(ties) for resource in tied)
        assert StackedModel(cells).binding_resources() == [tied[0]]

    def test_bounded_search_stops_every_queue_that_cannot_bind(self, monkeypatch):
        # Every cell of the 270-cell grid binds on a concentrator, so each
        # of its 3,240 searched queues is probed once at its cell's ceiling
        # and stops: one call per run of 992 rows.  The full search makes
        # 26 calls and evaluates 345,138 row-loads.
        work = {"calls": 0, "loads": 0}
        original = stacked._refine_rows

        def counting(lo, hi, probe, **kwargs):
            def counted(rows, loads):
                work["calls"] += 1
                work["loads"] += loads.size
                return probe(rows, loads)

            return original(lo, hi, counted, **kwargs)

        monkeypatch.setattr(stacked, "_refine_rows", counting)
        stack = StackedModel.from_specs(grid_270_specs())
        stack.saturation_load()
        assert work["calls"] <= 4 and work["loads"] <= 3_240
        assert all(name.endswith("concentrator") for name in stack.binding_resources())

    def test_each_stack_makes_one_search(self, monkeypatch):
        # λ* and the binding resource are read off the full maps once they
        # exist, and a bounded search is never repeated on one stack.
        searches = []
        original = StackedModel._source_queue_saturation_rows

        def counting(stack, *args):
            searches.append(args)
            return original(stack, *args)

        monkeypatch.setattr(StackedModel, "_source_queue_saturation_rows", counting)
        cells = three_group_cells()
        stack = StackedModel(cells)
        stack.saturation_loads()
        stack.saturation_load()
        stack.binding_resources()
        assert searches == [()]
        searches.clear()
        stack = StackedModel(cells)
        stack.binding_resources()
        stack.saturation_load()
        stack.knee_loads(4.0)
        assert len(searches) == 1 and len(searches[0]) == 1


class TestLatencyCrossings:
    """Knee and budget are one latency-crossing search, one refinement per stack."""

    def test_small_groups_open_windows_only_together(self):
        sizes = [group.size for group in StackedModel.from_specs(small_group_specs()).plan.groups]
        assert len(sizes) == 3 and max(sizes) < refine._WINDOW_MIN_ROWS <= sum(sizes)

    @staticmethod
    def counted_refinements(monkeypatch):
        """``[probe calls, row-loads]`` of each ``_refine_rows`` from now on."""
        work = []
        original = stacked._refine_rows

        def counting(lo, hi, probe, **kwargs):
            work.append([0, 0])

            def counted(rows, loads):
                work[-1][0] += 1
                work[-1][1] += loads.size
                return probe(rows, loads)

            return original(lo, hi, counted, **kwargs)

        monkeypatch.setattr(stacked, "_refine_rows", counting)
        return work

    @staticmethod
    def recorded_plans(monkeypatch):
        """``(window, rows, opens at the pole)`` of each plan from now on."""
        plans = []
        original = refine._predicted_plan

        def recording(lo, hi, guess, rounds_left, **kwargs):
            plans.append((kwargs["window"], lo.size, kwargs.get("start") is not None))
            return original(lo, hi, guess, rounds_left, **kwargs)

        monkeypatch.setattr(refine, "_predicted_plan", recording)
        return plans

    @staticmethod
    def fresh_270_stack():
        """The 270-cell grid's stack with its λ* and floors priced, and no search run."""
        stack = StackedModel.from_specs(grid_270_specs())
        stack.saturation_load()
        stack.zero_load_latencies()
        return stack

    def test_one_refinement_per_search_on_the_270_cell_grid(self, monkeypatch):
        # Three groups of 90 cells, one refinement per search.  Each search
        # runs on a fresh stack, so its only prior is each row's floor.  The
        # knee's rows open with pole windows, the 14 grid points from 0.59
        # λ* up, which all hold their crossings, so no row evaluates a whole
        # grid: 8,640 row-loads in 3 probe calls (13,770 with whole first
        # grids).  The budget's open with the widest of theirs, 19 points.
        stacks = [self.fresh_270_stack() for _ in range(2)]
        work = self.counted_refinements(monkeypatch)
        plans = self.recorded_plans(monkeypatch)
        stacks[0].knee_loads(4.0)
        assert work == [[3, 8_640]]
        assert plans[0] == (14, 270, True) and all(window < 33 for window, _, _ in plans)
        work.clear()
        plans.clear()
        stacks[1].loads_at_budget(np.full(stacks[1].cells, 200.0))
        assert work == [[3, 7_478]]
        assert plans[0] == (19, 270, True)

    def test_a_budget_after_the_knee_predicts_from_its_samples(self, monkeypatch):
        # The knee evaluates each cell at 32 loads over [0.59 λ*, λ*).  A
        # budget search after it on the same stack reads them as its prior,
        # so each row opens with a window and its later rounds' pairs
        # instead of a whole grid: 2 calls and 3,048 row-loads for budget
        # 200.  A budget of 1e9 is met at 0.9999 λ*: each window through hi
        # reads no crossing and ends its row, in the one call a whole grid
        # takes.
        stacks = [self.fresh_270_stack() for _ in range(2)]
        work = self.counted_refinements(monkeypatch)
        for stack, budget in zip(stacks, (200.0, 1e9)):
            work.clear()
            stack.knee_loads(4.0)
            assert work == [[3, 8_640]]
            work.clear()
            stack.loads_at_budget(np.full(stack.cells, budget))
            assert len(work) == 1
            if budget == 200.0:
                assert work[0][0] == 2 and work[0][1] <= 3_100
            else:
                assert work[0][0] == 1

    def test_a_missed_pole_window_costs_its_row_one_whole_grid(self, monkeypatch):
        # 6 of the 16 knees at 4× the floor lie below 0.6 λ*, the pole
        # bound: their windows read crossed at their first load, and those
        # rows evaluate their whole grids in the knee's second call.  Every
        # knee and budget load still equals the cell searched alone and the
        # scalar oracles, bit for bit.
        specs = pole_miss_specs()
        stack = StackedModel.from_specs(specs)
        lam = stack.saturation_load()
        stack.zero_load_latencies()
        plans = self.recorded_plans(monkeypatch)
        knees = stack.knee_loads(4.0)
        assert np.count_nonzero(knees < 0.6 * lam) == 6
        assert plans[0] == (14, 16, True) and (33, 6, False) in plans[1:]
        achieved = stack.loads_at_budget(np.full(stack.cells, 200.0))
        monkeypatch.undo()
        for idx, spec in enumerate(specs):
            engine = BatchedModel(spec.system, spec.message, spec.options, spec.pattern)
            zero = engine.zero_load_latency()
            assert engine.stack.knee_loads(4.0)[0] == knees[idx] == model_knee(engine, lam[idx], zero, 4.0), idx
            assert engine.stack.loads_at_budget(np.array([200.0]))[0] == achieved[idx], idx
            assert model_budget(engine, 200.0) == achieved[idx], idx

    @pytest.mark.parametrize(
        "specs",
        [grid_270_specs, grid_36_specs, pole_miss_specs, *[(lambda spec=spec: [spec]) for _, spec in REGISTRY]],
        ids=["grid-270", "grid-36", "pole-miss", *[name for name, _ in REGISTRY]],
    )
    def test_search_order_never_moves_a_load(self, specs):
        # Each search alone on a fresh stack, then all of them on one stack
        # in one order and in the reverse: every later search reads the
        # earlier ones' samples as its prior, which chooses the loads it
        # evaluates and never the load it finds.  Budgets 1.2x the floor
        # put most knee samples on the crossed side; 1e9 is met at 0.9999 λ*.
        searches = {
            "knee 4x": lambda stack: stack.knee_loads(4.0),
            "knee 2x": lambda stack: stack.knee_loads(2.0),
            "budget 1.2x": lambda stack: stack.loads_at_budget(1.2 * stack.zero_load_latencies()),
            "budget 1e9": lambda stack: stack.loads_at_budget(np.full(stack.cells, 1e9)),
        }
        specs = specs()
        alone = {name: search(StackedModel.from_specs(specs)) for name, search in searches.items()}
        for order in (list(searches), list(reversed(searches))):
            stack = StackedModel.from_specs(specs)
            for name in order:
                assert np.array_equal(searches[name](stack), alone[name]), (order, name)
