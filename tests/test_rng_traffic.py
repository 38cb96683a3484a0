"""RNG stream and traffic-process tests (simulation.rng, simulation.traffic)."""

import numpy as np
import pytest

from repro.cluster import HeterogeneousSystem
from repro.simulation import PoissonArrivals, UniformDestinations, make_streams


class TestStreams:
    def test_deterministic(self):
        a, b = make_streams(123), make_streams(123)
        assert a.arrivals.random() == b.arrivals.random()
        assert a.destinations.random() == b.destinations.random()

    def test_streams_are_independent(self):
        s = make_streams(5)
        x = s.arrivals.random(4)
        y = s.destinations.random(4)
        assert not np.allclose(x, y)

    def test_different_seeds_differ(self):
        assert make_streams(1).arrivals.random() != make_streams(2).arrivals.random()

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            make_streams(-1)


class TestPoissonArrivals:
    def test_mean_interarrival(self):
        rng = np.random.default_rng(0)
        proc = PoissonArrivals(0.5, rng)
        gaps = [proc.next_arrival(0.0) for _ in range(20_000)]
        assert np.mean(gaps) == pytest.approx(2.0, rel=0.05)

    def test_next_is_after_now(self):
        proc = PoissonArrivals(1.0, np.random.default_rng(1))
        now = 100.0
        assert proc.next_arrival(now) > now

    def test_rejects_zero_rate(self):
        with pytest.raises(ValueError):
            PoissonArrivals(0.0, np.random.default_rng(0))


class TestUniformDestinations:
    def test_never_self(self, built_small_system):
        rng = np.random.default_rng(3)
        sampler = UniformDestinations()
        for src in (0, 5, 31):
            for _ in range(200):
                assert sampler.sample_destination(rng, built_small_system, src) != src

    def test_covers_all_nodes_uniformly(self, built_small_system):
        rng = np.random.default_rng(4)
        sampler = UniformDestinations()
        n = built_small_system.total_nodes
        draws = 20_000
        counts = np.zeros(n)
        for _ in range(draws):
            counts[sampler.sample_destination(rng, built_small_system, 7)] += 1
        assert counts[7] == 0
        expected = draws / (n - 1)
        # Loose 5-sigma binomial bound per bucket.
        sigma = np.sqrt(draws * (1 / (n - 1)) * (1 - 1 / (n - 1)))
        others = np.delete(counts, 7)
        assert np.all(np.abs(others - expected) < 5 * sigma)

    def test_intra_fraction_matches_eq2(self, built_small_system):
        """P(destination in own cluster) should equal 1 - U_i."""
        rng = np.random.default_rng(5)
        sampler = UniformDestinations()
        cluster = built_small_system.cluster_of(0)
        draws = 30_000
        stay = sum(
            1
            for _ in range(draws)
            if cluster.contains_global(sampler.sample_destination(rng, built_small_system, 0))
        )
        expected = (cluster.num_nodes - 1) / (built_small_system.total_nodes - 1)
        assert stay / draws == pytest.approx(expected, abs=0.01)


class TestDrawStreams:
    """A message-level run draws its arrival gaps and uniform destinations
    in one batch each from its own streams.

    Both event engines consume these arrays — the reference loop as
    Python lists, the array core as ndarray slices — so they must be
    draw-for-draw identical to the per-event scalar path.
    """

    def test_batch_equals_per_event_scalar_path(self, small_fabric):
        """The historical engine drew scalars per event; numpy guarantees
        one batched draw streams the same values draw for draw.  The
        simulator draws in its constructor, whatever its engine."""
        from repro.simulation import MeasurementWindow, MessageLevelWormholeSimulator

        window = MeasurementWindow(50, 200, 50)
        n = small_fabric.system.total_nodes
        rate = 1e-3
        sim = MessageLevelWormholeSimulator(small_fabric, window, rate, make_streams(13))
        scalar = make_streams(13)
        expected_gaps = [
            scalar.arrivals.standard_exponential() * (1.0 / rate) for _ in range(n + window.total)
        ]
        assert sim._arrival_gaps_array.tolist() == expected_gaps
        expected_dest = [int(scalar.destinations.integers(0, n - 1)) for _ in range(window.total)]
        assert sim._dest_draws_array.tolist() == expected_dest

    def test_cross_load_point_reuse_is_bit_identical(self, small_session, fast_window):
        """Rerunning a load on one session, after another load under the
        same seed, reproduces it to the last bit."""
        first = small_session.run(5e-4, seed=21, window=fast_window)
        small_session.run(2e-3, seed=21, window=fast_window)
        again = small_session.run(5e-4, seed=21, window=fast_window)
        assert first.mean_latency == again.mean_latency
        assert first.duration == again.duration
        assert first.events == again.events
