"""Message-level wormhole simulator tests (simulation.wormhole).

Determinism/conservation tests run against the public
:meth:`~repro.simulation.wormhole.MessageLevelWormholeSimulator.trajectory`
accessor and are parametrized over both event engines, so the reference
loop and the compiled array core share one test surface (the ``array``
cases fall back to the reference loop on hosts without a C compiler —
bit-identical either way, which is itself under test in
``test_eventcore.py``).
"""

import numpy as np
import pytest

from repro.simulation import (
    ENGINES,
    MeasurementWindow,
    MessageLevelWormholeSimulator,
    make_streams,
)


@pytest.fixture(params=ENGINES)
def engine(request):
    return request.param


def isolated_message_latency(fabric, segments, m_flits):
    """Closed form for an uncontended journey: per segment the header
    accumulates hop times and the drain adds (M-1)·τ_max (cut-through)."""
    total = 0.0
    for seg in segments:
        total += sum(fabric.flit_time[c] for c in seg.channel_ids)
    total += (m_flits - 1) * segments[-1].bottleneck_flit_time
    return total


class TestIsolatedMessage:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_single_message_matches_closed_form(self, small_fabric, seed):
        window = MeasurementWindow(warmup=0, measured=1, drain=0)
        sim = MessageLevelWormholeSimulator(small_fabric, window, 1e-3, make_streams(seed))
        result = sim.run()
        assert result.completed
        observed = result.stats.mean
        m = small_fabric.message.length_flits
        candidates = set()
        n = small_fabric.system.total_nodes
        for src in range(n):
            for dst in range(n):
                if src == dst:
                    continue
                candidates.add(round(isolated_message_latency(small_fabric, small_fabric.resolve(src, dst), m), 9))
        assert any(abs(observed - c) < 1e-6 for c in candidates)

    def test_single_message_zero_waits(self, small_fabric):
        window = MeasurementWindow(warmup=0, measured=1, drain=0)
        sim = MessageLevelWormholeSimulator(small_fabric, window, 1e-3, make_streams(0))
        result = sim.run()
        assert result.source_wait_mean == pytest.approx(0.0)


class TestDeterminismAndConservation:
    def test_same_seed_same_trajectory(self, small_fabric, fast_window, engine):
        sims = [
            MessageLevelWormholeSimulator(
                small_fabric, fast_window, 5e-4, make_streams(11), engine=engine
            )
            for _ in range(2)
        ]
        for sim in sims:
            sim.run()
        assert sims[0].trajectory() == sims[1].trajectory()

    def test_different_seed_different_trajectory(self, small_fabric, fast_window, engine):
        sims = [
            MessageLevelWormholeSimulator(
                small_fabric, fast_window, 5e-4, make_streams(seed), engine=engine
            )
            for seed in (1, 2)
        ]
        for sim in sims:
            sim.run()
        assert sims[0].trajectory() != sims[1].trajectory()
        assert sims[0].trajectory().latencies != sims[1].trajectory().latencies

    def test_all_measured_messages_delivered(self, small_fabric, fast_window, engine):
        sim = MessageLevelWormholeSimulator(
            small_fabric, fast_window, 5e-4, make_streams(3), engine=engine
        )
        result = sim.run()
        assert result.completed
        assert result.stats.count == fast_window.measured
        traj = sim.trajectory()
        assert traj.completed
        assert len(traj.latencies) == fast_window.measured
        assert len(traj.inter_cluster) == len(traj.latencies) == len(traj.source_clusters)

    def test_second_run_is_refused(self, small_fabric, fast_window, engine):
        # Under either engine a second run would otherwise append to, or
        # replace, the first run's collector.
        sim = MessageLevelWormholeSimulator(
            small_fabric, fast_window, 5e-4, make_streams(3), engine=engine
        )
        sim.run()
        first = sim.trajectory()
        with pytest.raises(ValueError, match="runs once"):
            sim.run()
        assert sim.trajectory() == first

    def test_event_budget_interrupts(self, small_fabric, fast_window, engine):
        sim = MessageLevelWormholeSimulator(
            small_fabric, fast_window, 5e-4, make_streams(3), engine=engine
        )
        result = sim.run(max_events=100)
        assert not result.completed
        assert result.events <= 100
        assert sim.trajectory().events == result.events


class TestLoadResponse:
    def test_latency_increases_with_load(self, small_fabric, fast_window):
        means = [
            MessageLevelWormholeSimulator(small_fabric, fast_window, lam, make_streams(5)).run().stats.mean
            for lam in (1e-4, 2e-3, 6e-3)
        ]
        assert means[0] < means[1] < means[2]

    def test_group_utilizations_valid(self, small_session, fast_window):
        result = small_session.run(2e-3, seed=6, window=fast_window)
        for group, util in result.network_utilization.items():
            assert 0.0 <= util <= 1.0, group

    def test_utilization_scales_with_load(self, small_session, fast_window):
        low = small_session.run(5e-4, seed=6, window=fast_window)
        high = small_session.run(2e-3, seed=6, window=fast_window)
        assert high.network_utilization["cd-concentrate"] > low.network_utilization["cd-concentrate"]


class TestStatsPlumbing:
    def test_intra_and_inter_populations(self, small_session, fast_window):
        result = small_session.run(1e-3, seed=9, window=fast_window)
        stats = result.stats
        assert stats.count_intra + stats.count_inter == stats.count
        # 4 clusters of 8: inter fraction should be near U = 1 - 7/31.
        inter_fraction = stats.count_inter / stats.count
        assert inter_fraction == pytest.approx(1 - 7 / 31, abs=0.05)

    def test_per_cluster_means_cover_all_clusters(self, small_session, fast_window):
        result = small_session.run(1e-3, seed=9, window=fast_window)
        assert set(result.per_cluster_means) == {0, 1, 2, 3}

    def test_inter_slower_than_intra(self, small_session, fast_window):
        result = small_session.run(1e-3, seed=9, window=fast_window)
        assert result.stats.mean_inter > result.stats.mean_intra
