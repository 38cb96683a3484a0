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
capacities.  The suite locks that contract across the full scenario
registry (which includes the m=8 heterogeneity ladder), ragged
mixed-topology cell sets (grouping + masks), the ``ModelOptions``
ablation space and performability degraded states including
single-cluster/single-stage edge systems.
"""

import numpy as np
import pytest

from repro.analysis.capacity import max_load_for_latency
from repro.cluster import homogeneous_system
from repro.core import MessageSpec
from repro.core.batch import BatchedModel, refine_monotone_crossing
from repro.core.parameters import ModelOptions
from repro.core.stacked import StackedModel
from repro.core.sweep import auto_load_grid
from repro.performability import FailureMode, FailureScenario, expand_states
from repro.scenarios import ScenarioSpec, get_scenario
from repro.scenarios.registry import iter_scenarios

REGISTRY = list(iter_scenarios())


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

    def test_budget_capacities_bitwise(self, stack, engines, specs):
        # NaN budgets (no latency_budget on the spec) must stay NaN; the
        # finite ones must equal the scalar capacity planner's plan.
        budgets = np.array(
            [
                2.5 * engine.zero_load_latency() if idx % 3 else float("nan")
                for idx, engine in enumerate(engines)
            ]
        )
        achieved = stack.loads_at_budget(budgets)
        for idx, ((name, _), spec) in enumerate(zip(REGISTRY, specs)):
            if np.isnan(budgets[idx]):
                assert np.isnan(achieved[idx]), name
            else:
                plan = max_load_for_latency(
                    spec.system,
                    spec.message,
                    float(budgets[idx]),
                    options=spec.options,
                    engine=engines[idx],
                )
                assert plan.achieved == achieved[idx], name


class TestHeterogeneityLadder:
    """The m=8 ladder stacks into one group family with class padding."""

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


class TestPerformabilityDegradedStates:
    """Degraded-system stacks: what performability_analysis prices."""

    @pytest.fixture(scope="class")
    def degraded_specs(self):
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

    def test_degraded_states_match_per_state_engine(self, degraded_specs):
        spec, states, specs = degraded_specs
        pristine = BatchedModel(spec.system, spec.message, spec.options, spec.pattern)
        loads = np.asarray(
            [float(v) for v in spec.load_grid.grid(pristine)], dtype=np.float64
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
