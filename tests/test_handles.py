"""Every analysis, validation and simulation entry point names its design once.

Model queries take the engine they price and validation takes the session
it simulates; the system, message, options and traffic pattern are read
from that handle.  A query that took them a second time, beside the
handle, could compare a model of one design with a simulation of another
— the duplication these tests keep out of the public API.

The model queries' handle is a one-cell ``StackedModel``: the one-cell
``BatchedModel`` view is built only by ``Experiment.engine`` and
``core/sweep.py``, and the stacks the library prices instead equal the
per-design views bit for bit.
"""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.analysis
import repro.simulation
import repro.validation
from repro.analysis import (
    curve_label,
    icn2_bandwidth_study,
    max_load_for_latency,
    model_bottlenecks,
    required_upgrade_factor,
    scale_network,
)
from repro.cluster import paper_organizations
from repro.core import BatchedModel, MessageSpec, auto_load_grid
from repro.core.stacked import StackedModel
from repro.scenarios import get_scenario, scenario_names
from repro.validation import all_latency_figures, figure7_systems, reproduction_report

#: The handle parameters of each module's public callables.  In
#: ``repro.simulation`` a parameter named ``engine`` names the event engine
#: (``"array"``/``"reference"``), not a model, so only ``session`` is a
#: handle there.
HANDLES = {
    repro.analysis: {"engine", "session"},
    repro.validation: {"engine", "session"},
    repro.simulation: {"session"},
}
DESIGN = {"system", "message", "options", "pattern"}


def _public_callables():
    for module, handles in HANDLES.items():
        for name in module.__all__:
            obj = getattr(module, name)
            if callable(obj):
                yield f"{module.__name__}.{name}", handles, inspect.signature(obj).parameters


def test_no_public_callable_takes_the_design_beside_its_handle():
    offenders = [
        f"{name}{sorted(DESIGN & set(params))}"
        for name, handles, params in _public_callables()
        if handles & set(params) and DESIGN & set(params)
    ]
    assert offenders == []


def test_queries_take_their_handle_first():
    params = {name: params for name, _, params in _public_callables()}
    for name, handle in (
        ("repro.analysis.max_load_for_latency", "engine"),
        ("repro.analysis.required_upgrade_factor", "engine"),
        ("repro.analysis.model_bottlenecks", "engine"),
        ("repro.validation.run_validation", "session"),
        ("repro.validation.light_load_point", "session"),
        ("repro.analysis.estimate_sim_knee", "session"),
        ("repro.simulation.replicate", "session"),
    ):
        assert next(iter(params[name])) == handle, name
    assert "headroom_report" not in repro.analysis.__all__


SRC = Path(repro.__file__).parent


class _ViewBuilders(ast.NodeVisitor):
    """``(module, enclosing function)`` of every ``BatchedModel(...)`` call."""

    def __init__(self, module: str) -> None:
        self.module, self.scope, self.found = module, ["<module>"], []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "BatchedModel":
            self.found.append((self.module, self.scope[-1]))
        self.generic_visit(node)


def test_only_the_experiment_engine_and_sweep_build_the_one_cell_view():
    """Every other library user prices a one-cell or many-cell StackedModel."""
    builders, importers = [], []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        visitor = _ViewBuilders(module)
        visitor.visit(tree)
        builders += visitor.found
        if module.split("/")[0] in ("analysis", "validation", "performability"):
            importers += [
                module
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and any(alias.name == "BatchedModel" for alias in node.names)
            ]
    assert sorted(builders) == [("core/sweep.py", "_engine"), ("experiments/experiment.py", "engine")]
    assert importers == []


class TestOneCellStacksPriceLikeTheView:
    """The stacks the library now prices equal per-design views bit for bit."""

    @pytest.mark.parametrize("points", [3, 8, 12])
    def test_fig7_curves_equal_per_design_views(self, points):
        systems, message = figure7_systems(), MessageSpec(128, 256.0)
        study = icn2_bandwidth_study(systems, message, points=points)
        views = [BatchedModel(system, message) for system in systems]
        lam_min = min(view.saturation_load() for view in views)
        grid = np.linspace(0.9 * lam_min / points, 0.9 * lam_min, points)
        expected = []
        for system, view in zip(systems, views):
            variant = BatchedModel(scale_network(system, "icn2", 1.2), message)
            for suffix, engine in (("base", view), ("icn2 x1.2", variant)):
                latencies = engine.evaluate_many(grid, with_results=False).latencies
                expected.append(
                    (curve_label(system, suffix), grid.tolist(), latencies.tolist(), engine.saturation_load())
                )
        assert [
            (c.label, c.loads.tolist(), c.latencies.tolist(), c.saturation_load) for c in study.curves
        ] == expected

    def test_model_only_report_equals_per_design_views(self):
        report = reproduction_report(points_per_curve=3, include_simulation=False)
        for figure in all_latency_figures():
            for message in figure.messages:
                view = BatchedModel(figure.system, message)
                grid = auto_load_grid(view, points=3, fraction_of_saturation=0.92)
                latencies = view.evaluate_many(grid, with_results=False).latencies
                label = f"{figure.system.name}, M={message.length_flits}, Lm={message.flit_bytes:g}"
                rows = report.payload[f"{figure.figure}:{label}"]
                assert rows == list(zip(grid.tolist(), latencies.tolist())), label
        for row, system in zip(report.payload["bottlenecks"], paper_organizations()):
            view = BatchedModel(system, MessageSpec(32, 256.0))
            lam_star, binding = view.saturation_load(), view.binding_resource()
            kinds = {r.resource: r.kind for r in view.resource_utilizations([0.5 * lam_star])}
            assert row == [system.name, f"{lam_star:.3e}", binding, kinds[binding]]

    @pytest.mark.parametrize("name", scenario_names())
    def test_model_bottlenecks_on_a_one_cell_stack_equals_the_view(self, name):
        spec = get_scenario(name)
        view = BatchedModel(spec.system, spec.message, spec.options, spec.pattern)
        load = 0.9 * view.saturation_load()
        report = model_bottlenecks(StackedModel.from_specs([spec]), load)
        expected = sorted(
            (
                (r.resource, float(r.utilization[0]), r.kind)
                for r in view.resource_utilizations(np.array([load]))
            ),
            key=lambda entry: entry[1],
            reverse=True,
        )
        assert [(r.resource, r.utilization, r.kind) for r in report.resources] == expected
        assert report.binding.resource == view.binding_resource()
        assert report.saturation_load == view.saturation_load()
        assert report.load == load

    def test_a_query_refuses_a_stack_of_two_cells(self):
        spec = get_scenario("544")
        stack = StackedModel.from_specs([spec, spec])
        with pytest.raises(ValueError, match="engine must hold one cell, got 2"):
            model_bottlenecks(stack, 1e-4)
        with pytest.raises(ValueError, match="engine must hold one cell, got 2"):
            max_load_for_latency(stack, 100.0)
        with pytest.raises(ValueError, match="engine must hold one cell, got 2"):
            required_upgrade_factor(stack, "icn2", 1e-3)
