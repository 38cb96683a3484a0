"""Measurement-protocol tests (simulation.metrics vs paper §4)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simulation import LatencyCollector, MeasurementWindow


class TestWindow:
    def test_paper_protocol_scaling(self):
        w = MeasurementWindow.scaled_paper(100_000)
        assert (w.warmup, w.measured, w.drain) == (10_000, 100_000, 10_000)

    def test_window_membership(self):
        w = MeasurementWindow(warmup=10, measured=5, drain=3)
        assert not w.is_measured(9)
        assert w.is_measured(10)
        assert w.is_measured(14)
        assert not w.is_measured(15)
        assert w.total == 18

    def test_rejects_zero_measured(self):
        with pytest.raises(ValueError):
            MeasurementWindow(warmup=0, measured=0, drain=0)

    @given(st.integers(1, 10_000))
    def test_scaled_total(self, budget):
        w = MeasurementWindow.scaled_paper(budget)
        assert w.total == budget + 2 * max(1, budget // 10)


class TestCollector:
    def make(self):
        return LatencyCollector(MeasurementWindow(warmup=2, measured=4, drain=1))

    def test_warmup_and_drain_excluded(self):
        c = self.make()
        for seq in range(7):
            c.record(seq, 10.0 + seq, inter_cluster=False, source_cluster=0)
        stats = c.stats()
        assert stats.count == 4
        assert stats.mean == pytest.approx(np.mean([12.0, 13.0, 14.0, 15.0]))

    def test_all_measured_delivered_flag(self):
        c = self.make()
        assert not c.all_measured_delivered
        for seq in range(2, 6):
            c.record(seq, 1.0, inter_cluster=True, source_cluster=0)
        assert c.all_measured_delivered

    def test_intra_inter_split(self):
        c = self.make()
        c.record(2, 10.0, inter_cluster=False, source_cluster=0)
        c.record(3, 30.0, inter_cluster=True, source_cluster=1)
        stats = c.stats()
        assert stats.mean_intra == pytest.approx(10.0)
        assert stats.mean_inter == pytest.approx(30.0)
        assert (stats.count_intra, stats.count_inter) == (1, 1)

    def test_per_cluster_means(self):
        c = self.make()
        c.record(2, 10.0, inter_cluster=False, source_cluster=0)
        c.record(3, 20.0, inter_cluster=False, source_cluster=0)
        c.record(4, 40.0, inter_cluster=True, source_cluster=2)
        assert c.per_cluster_means() == {0: pytest.approx(15.0), 2: pytest.approx(40.0)}

    def test_empty_stats_are_nan(self):
        stats = self.make().stats()
        assert stats.count == 0
        assert np.isnan(stats.mean)

    def test_percentiles(self):
        c = LatencyCollector(MeasurementWindow(0, 100, 0))
        for seq in range(100):
            c.record(seq, float(seq), inter_cluster=False, source_cluster=0)
        stats = c.stats()
        assert stats.p50 == pytest.approx(49.5)
        assert stats.p95 == pytest.approx(94.05)
        assert stats.minimum == 0.0
        assert stats.maximum == 99.0

    @given(
        st.lists(
            st.one_of(st.floats(0.0, 1e6), st.sampled_from([0.0, 1.0, 2.5, 7.0])),
            min_size=1,
            max_size=60,
        )
    )
    def test_percentiles_equal_numpy_bit_for_bit(self, latencies):
        # Ties, single values and both interpolation sides (the virtual
        # index's fraction below and at or above one half).
        c = LatencyCollector(MeasurementWindow(0, len(latencies), 0))
        for seq, latency in enumerate(latencies):
            c.record(seq, latency, inter_cluster=False, source_cluster=0)
        stats = c.stats()
        assert stats.p50 == float(np.percentile(latencies, 50))
        assert stats.p95 == float(np.percentile(latencies, 95))

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            self.make().record(2, -1.0, inter_cluster=False, source_cluster=0)
