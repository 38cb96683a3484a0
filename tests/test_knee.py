"""Simulated-knee estimation tests (analysis.knee)."""

import pytest

from repro.analysis import estimate_sim_knee
from repro.simulation import MeasurementWindow


class TestEstimateSimKnee:
    @pytest.fixture(scope="class")
    def estimate(self, small_session):
        return estimate_sim_knee(
            small_session,
            threshold_factor=3.0,
            window=MeasurementWindow(100, 1200, 100),
            seed=2,
            iterations=5,
        )

    def test_knee_below_or_near_model_saturation(self, estimate):
        assert 0.1 < estimate.knee_fraction <= 1.2

    def test_probes_recorded(self, estimate):
        assert len(estimate.probes) >= 5
        loads = [p[0] for p in estimate.probes]
        assert all(l > 0 for l in loads)

    def test_threshold_semantics(self, small_session, estimate):
        """Latency just below the knee stays under the threshold."""
        from repro.core import AnalyticalModel

        model = AnalyticalModel(small_session.system_config, small_session.message)
        threshold = 3.0 * model.zero_load_latency()
        below = small_session.run(
            0.8 * estimate.sim_knee, seed=2, window=MeasurementWindow(100, 1200, 100)
        )
        assert below.mean_latency < threshold * 1.5

    def test_higher_threshold_moves_knee_right(self, small_session, estimate):
        relaxed = estimate_sim_knee(
            small_session,
            threshold_factor=8.0,
            window=MeasurementWindow(100, 1200, 100),
            seed=2,
            iterations=5,
        )
        assert relaxed.sim_knee >= estimate.sim_knee * 0.99

    @pytest.mark.parametrize(
        "bad",
        [
            {"threshold_factor": 0.5},
            {"iterations": 0},
            {"iterations": -2},
            {"iterations": 2.5},
            {"iterations": True},
        ],
        ids=lambda bad: "{}={}".format(*next(iter(bad.items()))),
    )
    def test_rejects_bad_arguments_before_simulating(self, small_session, monkeypatch, bad):
        # Zero or negative iterations used to report the bracket top, 1.2 λ*,
        # as the knee after one simulation, and 2.5 raised TypeError after it.
        def run(*args, **kwargs):
            raise AssertionError("simulated before validating its arguments")

        monkeypatch.setattr(small_session, "run", run)
        with pytest.raises(ValueError):
            estimate_sim_knee(small_session, **bad)
