"""High-level simulation API tests (simulation.runner)."""

import pytest

from repro.core import MessageSpec
from repro.simulation import (
    MeasurementWindow,
    SimulationConfig,
    SimulationSession,
    simulate,
)


class TestSimulationConfig:
    def test_defaults(self, small_system, small_message):
        cfg = SimulationConfig(system=small_system, message=small_message, generation_rate=1e-3)
        assert cfg.granularity == "message"
        assert cfg.window.measured == 20_000

    def test_rejects_zero_rate(self, small_system, small_message):
        with pytest.raises(ValueError):
            SimulationConfig(system=small_system, message=small_message, generation_rate=0.0)

    def test_rejects_bad_granularity(self, small_system, small_message):
        with pytest.raises(ValueError):
            SimulationConfig(
                system=small_system, message=small_message, generation_rate=1e-3, granularity="quantum"
            )

    def test_rejects_unknown_engine(self, small_system, small_message):
        with pytest.raises(ValueError, match="engine must be one of"):
            SimulationConfig(
                system=small_system, message=small_message, generation_rate=1e-3, engine="vectorised"
            )


class TestSimulate:
    def test_end_to_end(self, small_system, small_message):
        cfg = SimulationConfig(
            system=small_system,
            message=small_message,
            generation_rate=1e-3,
            seed=13,
            window=MeasurementWindow(100, 1000, 100),
        )
        result = simulate(cfg)
        assert result.completed
        assert result.stats.count == 1000
        assert result.mean_latency > 0
        assert result.granularity == "message"
        assert result.seed == 13

    def test_flit_granularity_dispatch(self, small_system, small_message):
        cfg = SimulationConfig(
            system=small_system,
            message=small_message,
            generation_rate=1e-3,
            window=MeasurementWindow(20, 200, 20),
            granularity="flit",
        )
        result = simulate(cfg)
        assert result.completed
        assert result.granularity == "flit"


class TestSession:
    def test_session_matches_one_shot(self, small_system, small_message):
        window = MeasurementWindow(100, 800, 100)
        session = SimulationSession(small_system, small_message)
        a = session.run(1e-3, seed=4, window=window)
        b = simulate(
            SimulationConfig(
                system=small_system,
                message=small_message,
                generation_rate=1e-3,
                seed=4,
                window=window,
            )
        )
        assert a.mean_latency == pytest.approx(b.mean_latency)

    def test_session_reuse_is_stateless(self, small_session):
        window = MeasurementWindow(100, 800, 100)
        first = small_session.run(1e-3, seed=5, window=window)
        _ = small_session.run(5e-3, seed=6, window=window)
        again = small_session.run(1e-3, seed=5, window=window)
        assert first.mean_latency == again.mean_latency

    def test_wall_seconds_recorded(self, small_session):
        result = small_session.run(1e-3, seed=1, window=MeasurementWindow(10, 100, 10))
        assert result.wall_seconds > 0

    def test_message_spec_accessible(self, small_session, small_message):
        assert small_session.message is small_message
        assert small_session.fabric.message == MessageSpec(16, 256.0)
