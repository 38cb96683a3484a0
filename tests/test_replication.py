"""Replication/CI tests (simulation.replication)."""

import numpy as np
import pytest

from repro.simulation import MeasurementWindow, replica_seeds, replicate
from repro.simulation.replication import t_critical


class TestReplicate:
    def test_summary_statistics(self, small_session):
        rep = replicate(
            small_session,
            1e-3,
            replicas=4,
            base_seed=10,
            window=MeasurementWindow(100, 800, 100),
        )
        means = [r.mean_latency for r in rep.replicas]
        assert rep.mean_latency == pytest.approx(sum(means) / 4)
        assert rep.ci_half_width > 0
        assert rep.ci_low < rep.mean_latency < rep.ci_high

    def test_seeds_are_spawned_not_sequential(self, small_session):
        rep = replicate(
            small_session,
            1e-3,
            replicas=3,
            base_seed=0,
            window=MeasurementWindow(50, 500, 50),
        )
        assert rep.seeds == replica_seeds(0, 3)
        # Never base_seed + i arithmetic: that aliases overlapping bases.
        assert rep.seeds != (0, 1, 2)
        assert len(set(rep.seeds)) == 3
        assert len({r.mean_latency for r in rep.replicas}) == 3

    def test_overlapping_bases_share_no_replica_stream(self):
        """The regression seed+i reintroduces: seeds(0)[1] == seeds(1)[0]."""
        assert not set(replica_seeds(0, 4)) & set(replica_seeds(1, 4))
        assert replica_seeds(7, 4) == replica_seeds(7, 4)  # deterministic

    def test_throughput_accounting(self, small_session):
        rep = replicate(
            small_session, 1e-3, replicas=3, base_seed=0, window=MeasurementWindow(50, 400, 50)
        )
        assert rep.events == sum(r.events for r in rep.replicas)
        assert rep.wall_seconds == max(r.wall_seconds for r in rep.replicas)
        assert rep.elapsed_seconds >= rep.wall_seconds
        assert rep.events_per_second > 0

    def test_more_messages_tighten_ci(self, small_session):
        small = replicate(
            small_session, 1e-3, replicas=3, base_seed=1, window=MeasurementWindow(50, 400, 50)
        )
        large = replicate(
            small_session, 1e-3, replicas=3, base_seed=1, window=MeasurementWindow(200, 4000, 200)
        )
        assert large.relative_half_width < small.relative_half_width

    def test_ci_contains_model_prediction_at_light_load(self, small_system, small_message, small_session):
        """At light load the model sits within (a slightly widened) CI."""
        from repro.core import AnalyticalModel

        rep = replicate(
            small_session,
            3e-4,
            replicas=5,
            base_seed=3,
            window=MeasurementWindow(200, 2000, 200),
            confidence=0.99,
        )
        predicted = AnalyticalModel(small_system, small_message).evaluate(3e-4).latency
        # The model carries a small systematic bias; allow CI + 10 %.
        assert rep.ci_low * 0.9 <= predicted <= rep.ci_high * 1.1

    def test_contains_helper(self, small_session):
        rep = replicate(
            small_session, 1e-3, replicas=2, base_seed=5, window=MeasurementWindow(50, 400, 50)
        )
        assert rep.contains(rep.mean_latency)
        assert not rep.contains(rep.ci_high + 1.0)

    def test_requires_two_replicas(self, small_session):
        with pytest.raises(ValueError):
            replicate(small_session, 1e-3, replicas=1)

    def test_rejects_bad_confidence(self, small_session):
        with pytest.raises(ValueError):
            replicate(small_session, 1e-3, replicas=2, confidence=1.0)


class TestTCritical:
    CONFIDENCES = (0.80, 0.85, 0.90, 0.95, 0.975, 0.99, 0.995, 0.999)

    def test_matches_scipy_for_every_df_to_1000(self):
        stats = pytest.importorskip("scipy.stats")
        df = np.repeat(np.arange(1, 1001), len(self.CONFIDENCES))
        confidence = np.tile(self.CONFIDENCES, 1000)
        expected = stats.t.ppf(0.5 + confidence / 2.0, df)
        got = np.array([t_critical(float(c), int(d)) for c, d in zip(confidence, df)])
        rel = np.abs(got - expected) / expected
        worst = int(np.argmax(rel))
        assert rel[worst] <= 1e-12, (df[worst], confidence[worst], rel[worst])

    @pytest.mark.parametrize("confidence", CONFIDENCES)
    def test_closed_forms_invert_their_cdfs(self, confidence):
        """df 1: P(|T| <= t) = 2 atan(t) / π; df 2: t / √(2 + t²)."""
        t1, t2 = t_critical(confidence, 1), t_critical(confidence, 2)
        assert 2.0 * np.arctan(t1) / np.pi == pytest.approx(confidence, rel=1e-15)
        assert t2 / np.sqrt(2.0 + t2 * t2) == pytest.approx(confidence, rel=1e-15)
