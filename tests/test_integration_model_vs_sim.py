"""Integration: the analytical model against the discrete-event simulator.

These are the repository's core validation tests — small-system versions of
the paper's §4 methodology, kept fast enough for CI.
"""

import numpy as np
import pytest

from repro.core import AnalyticalModel, MessageSpec, find_saturation_load
from repro.simulation import MeasurementWindow, SimulationSession
from repro.workloads import LocalityTraffic


class TestLightLoadTracking:
    def test_homogeneous_light_load(self, small_system, small_message, small_session):
        """Model within 15 % of simulation at 20 % of saturation load."""
        model = AnalyticalModel(small_system, small_message)
        lam = 0.2 * find_saturation_load(model)
        sim = small_session.run(lam, seed=1, window=MeasurementWindow(300, 4000, 300))
        predicted = model.evaluate(lam).latency
        assert predicted == pytest.approx(sim.mean_latency, rel=0.15)

    def test_heterogeneous_light_load(self, tiny_hetero_system, small_message, hetero_session):
        model = AnalyticalModel(tiny_hetero_system, small_message)
        lam = 0.2 * find_saturation_load(model)
        sim = hetero_session.run(lam, seed=2, window=MeasurementWindow(300, 4000, 300))
        predicted = model.evaluate(lam).latency
        assert predicted == pytest.approx(sim.mean_latency, rel=0.15)

    def test_intra_component_tracks_closely(self, small_system, small_message, small_session):
        """Intra-cluster latency has no concentrator approximations: < 10 %."""
        model = AnalyticalModel(small_system, small_message)
        lam = 0.2 * find_saturation_load(model)
        sim = small_session.run(lam, seed=3, window=MeasurementWindow(300, 4000, 300))
        breakdown = model.evaluate(lam).clusters[0]
        assert breakdown.intra.total == pytest.approx(sim.stats.mean_intra, rel=0.10)


class TestShapeAgreement:
    def test_model_is_optimistic_near_saturation(self, paper_544, small_message):
        """Paper §4: discrepancies appear as load approaches saturation,
        with the model under-predicting (its independence approximations
        ignore coupled blocking).  Asserted at paper scale, where the claim
        is made."""
        message = MessageSpec(32, 256.0)
        model = AnalyticalModel(paper_544, message)
        lam_star = find_saturation_load(model)
        window = MeasurementWindow(300, 3000, 300)
        session = SimulationSession(paper_544, message)
        light = session.run(0.2 * lam_star, seed=4, window=window)
        heavy = session.run(0.75 * lam_star, seed=4, window=window)
        err_light = abs(model.evaluate(0.2 * lam_star).latency - light.mean_latency) / light.mean_latency
        err_heavy = (heavy.mean_latency - model.evaluate(0.75 * lam_star).latency) / heavy.mean_latency
        assert err_heavy > err_light
        assert err_heavy > 0  # optimistic, not just inaccurate

    def test_sim_latency_grows_toward_model_saturation(self, small_system, small_message, small_session):
        model = AnalyticalModel(small_system, small_message)
        lam_star = find_saturation_load(model)
        window = MeasurementWindow(200, 2500, 200)
        sims = [
            small_session.run(f * lam_star, seed=5, window=window).mean_latency
            for f in (0.2, 0.5, 0.8)
        ]
        assert sims[0] < sims[1] < sims[2]
        assert sims[2] > 1.5 * sims[0]


class TestPatternIntegration:
    def test_locality_pattern_model_vs_sim(self, small_system, small_message):
        """The non-uniform extension validates the same way the paper's
        uniform baseline does."""
        pattern = LocalityTraffic(0.6)
        model = AnalyticalModel(small_system, small_message, pattern=pattern)
        lam = 0.15 * find_saturation_load(model)
        session = SimulationSession(small_system, small_message, pattern=pattern)
        sim = session.run(lam, seed=6, window=MeasurementWindow(300, 4000, 300))
        assert model.evaluate(lam).latency == pytest.approx(sim.mean_latency, rel=0.20)
        # Sanity: measured intra share reflects the pattern.
        intra_share = sim.stats.count_intra / sim.stats.count
        assert intra_share == pytest.approx(0.6, abs=0.05)
