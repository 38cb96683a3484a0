"""Flit-level simulator tests and cross-engine agreement (simulation.flitsim)."""

import pytest

from repro.simulation import MeasurementWindow, MessageLevelWormholeSimulator, make_streams
from repro.simulation.flitsim import FlitLevelSimulator

from tests.test_wormhole_sim import isolated_message_latency


class TestIsolatedMessage:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_single_message_matches_message_level_exactly(self, small_fabric, seed):
        """For an uncontended journey the analytic drain is flit-exact."""
        window = MeasurementWindow(warmup=0, measured=1, drain=0)
        msg_level = MessageLevelWormholeSimulator(small_fabric, window, 1e-3, make_streams(seed)).run()
        flit_level = FlitLevelSimulator(small_fabric, window, 1e-3, make_streams(seed)).run()
        assert flit_level.stats.mean == pytest.approx(msg_level.stats.mean, rel=1e-12)

    def test_single_message_closed_form(self, small_fabric):
        window = MeasurementWindow(warmup=0, measured=1, drain=0)
        result = FlitLevelSimulator(small_fabric, window, 1e-3, make_streams(4)).run()
        m = small_fabric.message.length_flits
        candidates = []
        n = small_fabric.system.total_nodes
        for src in range(n):
            for dst in range(n):
                if src == dst:
                    continue
                segs = small_fabric.resolve(src, dst)
                candidates.append(isolated_message_latency(small_fabric, segs, m))
        assert any(abs(result.stats.mean - c) < 1e-6 for c in candidates)


class TestCrossEngineAgreement:
    def test_light_load_agreement(self, small_fabric):
        """At light load contention is rare: engines agree closely."""
        window = MeasurementWindow(warmup=200, measured=1500, drain=200)
        msg_level = MessageLevelWormholeSimulator(small_fabric, window, 2e-4, make_streams(21)).run()
        flit_level = FlitLevelSimulator(small_fabric, window, 2e-4, make_streams(21)).run()
        assert flit_level.stats.mean == pytest.approx(msg_level.stats.mean, rel=0.02)

    def test_moderate_load_agreement_within_tolerance(self, small_fabric):
        """The analytic drain is an approximation; certify it within 10 %."""
        window = MeasurementWindow(warmup=200, measured=1500, drain=200)
        msg_level = MessageLevelWormholeSimulator(small_fabric, window, 2e-3, make_streams(22)).run()
        flit_level = FlitLevelSimulator(small_fabric, window, 2e-3, make_streams(22)).run()
        assert flit_level.stats.mean == pytest.approx(msg_level.stats.mean, rel=0.10)


class TestFlitEngineBasics:
    def test_deterministic(self, small_fabric):
        window = MeasurementWindow(warmup=50, measured=400, drain=50)
        a = FlitLevelSimulator(small_fabric, window, 1e-3, make_streams(9)).run()
        b = FlitLevelSimulator(small_fabric, window, 1e-3, make_streams(9)).run()
        assert a.stats.mean == b.stats.mean

    def test_all_measured_delivered(self, small_fabric):
        window = MeasurementWindow(warmup=50, measured=400, drain=50)
        result = FlitLevelSimulator(small_fabric, window, 1e-3, make_streams(10)).run()
        assert result.completed
        assert result.stats.count == 400

    def test_more_events_than_message_level(self, small_fabric, fast_window):
        window = MeasurementWindow(warmup=50, measured=300, drain=50)
        msg_level = MessageLevelWormholeSimulator(small_fabric, window, 1e-3, make_streams(11)).run()
        flit_level = FlitLevelSimulator(small_fabric, window, 1e-3, make_streams(11)).run()
        assert flit_level.events > 5 * msg_level.events
