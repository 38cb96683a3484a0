"""Validation harness tests (validation.compare, validation.scenarios)."""

import numpy as np
import pytest

from repro.core import AnalyticalModel, ModelOptions, auto_load_grid, find_saturation_load
from repro.core.stacked import StackedModel
from repro.scenarios import LoadGridPolicy
from repro.simulation import MeasurementWindow, SimulationSession
from repro.validation import (
    all_latency_figures,
    figure3,
    figure5,
    figure7_systems,
    light_load_point,
    run_validation,
)
from repro.workloads import HotspotTraffic, LocalityTraffic


class TestScenarios:
    def test_four_latency_figures(self):
        figures = all_latency_figures()
        assert [f.figure for f in figures] == ["Fig.3", "Fig.4", "Fig.5", "Fig.6"]

    def test_figure3_definition(self):
        fig = figure3()
        assert fig.system.total_nodes == 1120
        assert [m.length_flits for m in fig.messages] == [32, 32]
        assert [m.flit_bytes for m in fig.messages] == [256.0, 512.0]

    def test_paper_axis_matches_model_saturation(self):
        """Each figure's x-axis upper bound sits at the d_m=256 model knee."""
        for fig in all_latency_figures():
            model = AnalyticalModel(fig.system, fig.messages[0])
            lam_star = find_saturation_load(model)
            assert lam_star == pytest.approx(fig.paper_x_max, rel=0.15)

    def test_load_grid_below_saturation(self):
        fig = figure5()
        stack = StackedModel([(fig.system, message, None, None) for message in fig.messages])
        grid = stack.auto_load_grids(points=6, fraction_of_saturation=0.92)[0]
        model = AnalyticalModel(fig.system, fig.messages[0])
        assert len(grid) == 6
        assert all(not model.is_saturated(x) for x in grid)

    def test_figure7_systems(self):
        small, big = figure7_systems()
        assert small.total_nodes == 544
        assert big.total_nodes == 1120

    def test_policy_grid_rows_are_monotone(self, small_system, small_message, tiny_hetero_system):
        stack = StackedModel(
            [(system, small_message, None, None) for system in (small_system, tiny_hetero_system)]
        )
        grids = LoadGridPolicy(points=5, fraction_of_saturation=0.92).grid(stack)
        assert grids.shape == (2, 5)
        assert np.all(np.diff(grids, axis=1) > 0)

    @pytest.mark.parametrize("figure", all_latency_figures(), ids=lambda f: f.figure)
    def test_figure_grids_equal_the_model_grid(self, figure):
        """A figure stack's grid rows are each curve's one-design grid."""
        stack = StackedModel([(figure.system, message, None, None) for message in figure.messages])
        grids = stack.auto_load_grids(points=5, fraction_of_saturation=0.92)
        for row, message in zip(grids, figure.messages):
            model = AnalyticalModel(figure.system, message)
            expected = auto_load_grid(model, points=5, fraction_of_saturation=0.92)
            assert row.tolist() == expected.tolist()


class TestRunValidation:
    def test_curve_structure(self, small_system, small_message, small_session):
        grid = auto_load_grid(
            AnalyticalModel(small_system, small_message), points=3, fraction_of_saturation=0.5
        )
        curve = run_validation(small_session, grid, window=MeasurementWindow(100, 1000, 100))
        assert len(curve.points) == 3
        for point in curve.points:
            assert point.sim_completed
            assert np.isfinite(point.relative_error)

    def test_rows_shape(self, small_session):
        curve = run_validation(small_session, [1e-4], window=MeasurementWindow(50, 500, 50))
        ((load, model, sim, err),) = curve.as_rows()
        assert load == pytest.approx(1e-4)
        assert err == pytest.approx((model - sim) / sim)

    def test_max_abs_error(self, small_session):
        curve = run_validation(small_session, [1e-4, 5e-4], window=MeasurementWindow(50, 500, 50))
        assert curve.max_abs_error() >= abs(curve.points[0].relative_error)

    def test_rejects_empty_loads(self, small_session):
        with pytest.raises(ValueError):
            run_validation(small_session, [])

    def test_label_defaults_to_the_session_system(self, hetero_session, tiny_hetero_system):
        curve = run_validation(hetero_session, [1e-4], window=MeasurementWindow(20, 200, 20))
        assert curve.label == tiny_hetero_system.name
        labelled = run_validation(
            hetero_session, [1e-4], label="mine", window=MeasurementWindow(20, 200, 20)
        )
        assert labelled.label == "mine"

    def test_both_columns_read_the_session_options(self, small_system, small_message):
        """The session is the one handle on the design: its options set the
        model column and the simulated points alike."""
        options = ModelOptions(tcn_convention="full_network_latency")
        window = MeasurementWindow(20, 200, 20)
        loads = [5e-4, 1e-3]
        session = SimulationSession(small_system, small_message, options=options)
        curve = run_validation(session, loads, window=window)
        model = AnalyticalModel(small_system, small_message, options)
        assert [p.model_latency for p in curve.points] == [model.evaluate(lam).latency for lam in loads]
        assert curve.points[0].model_latency != AnalyticalModel(small_system, small_message).evaluate(5e-4).latency
        direct = [session.run(lam, seed=idx, window=window) for idx, lam in enumerate(loads)]
        assert [p.sim_latency for p in curve.points] == [r.mean_latency for r in direct]


class TestModelColumn:
    """Validation prices its loads with one stacked row; the scalar model
    is the oracle it must equal exactly."""

    @pytest.mark.parametrize("case", ["small", "tiny-hetero-hotspot", "tiny-hetero-locality"])
    def test_equals_scalar_evaluate(self, case, small_system, tiny_hetero_system, small_message):
        system, pattern = {
            "small": (small_system, None),
            "tiny-hetero-hotspot": (tiny_hetero_system, HotspotTraffic(hot_cluster=3, hot_fraction=0.3)),
            "tiny-hetero-locality": (tiny_hetero_system, LocalityTraffic(locality=0.8)),
        }[case]
        model = AnalyticalModel(system, small_message, None, pattern)
        # Four loads up to 0.9·λ*, and one past saturation (infinite latency).
        grid = np.append(auto_load_grid(model, points=4, fraction_of_saturation=0.9), 1.2 * find_saturation_load(model))
        curve = run_validation(
            SimulationSession(system, small_message, pattern=pattern), grid, window=MeasurementWindow(20, 200, 20)
        )
        expected = [model.evaluate(float(lam)).latency for lam in grid]
        assert np.isinf(expected[-1])
        assert [point.model_latency for point in curve.points] == expected

    def test_validation_never_calls_the_scalar_model(self, monkeypatch, small_session):
        def refuse(model, load):
            raise AssertionError("scalar AnalyticalModel.evaluate on the product path")

        monkeypatch.setattr(AnalyticalModel, "evaluate", refuse)
        window = MeasurementWindow(20, 200, 20)
        curve = run_validation(small_session, [1e-4, 5e-4], window=window)
        point = light_load_point(small_session, window=window)
        assert all(np.isfinite(p.model_latency) for p in (*curve.points, point))


class TestLightLoadPoint:
    def test_small_system_error_reasonable(self, small_session):
        """Model tracks the simulator at light load (paper: 4-8 % at scale)."""
        point = light_load_point(small_session, window=MeasurementWindow(200, 2000, 200))
        assert point.sim_completed
        assert abs(point.relative_error) < 0.20

    @pytest.mark.parametrize("options", [None, ModelOptions(tcn_convention="full_network_latency")])
    def test_light_load_is_a_fraction_of_saturation(self, small_system, small_message, options):
        session = SimulationSession(small_system, small_message, options=options)
        point = light_load_point(session, load_fraction=0.3, window=MeasurementWindow(20, 200, 20))
        assert point.load == 0.3 * find_saturation_load(AnalyticalModel(small_system, small_message, options))

    def test_light_load_is_a_fraction_of_the_pattern_saturation(self, tiny_hetero_system, small_message):
        """A hotspot session's light load is a fraction of the hotspot
        model's λ*, and both columns are priced and simulated under it."""
        pattern = HotspotTraffic(hot_cluster=3, hot_fraction=0.3)
        session = SimulationSession(tiny_hetero_system, small_message, pattern=pattern)
        window = MeasurementWindow(20, 200, 20)
        point = light_load_point(session, load_fraction=0.3, window=window)
        model = AnalyticalModel(tiny_hetero_system, small_message, None, pattern)
        lam = 0.3 * find_saturation_load(model)
        assert lam != 0.3 * find_saturation_load(AnalyticalModel(tiny_hetero_system, small_message))
        assert point.load == lam
        assert point.model_latency == model.evaluate(lam).latency
        assert point.sim_latency == session.run(lam, seed=0, window=window).mean_latency

    def test_rejects_bad_fraction(self, small_session):
        with pytest.raises(ValueError):
            light_load_point(small_session, load_fraction=1.2)
