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


class TestReplayableDraws:
    """Slice-consumption contract of the per-seed draw cache.

    Both event engines consume these arrays — the reference loop as
    Python lists, the array core as ndarray slices — so the cache must be
    draw-for-draw identical to the per-event scalar path for any mix of
    partial consumption, extension, and replay.
    """

    def test_partial_consumption_is_prefix_stable(self):
        from repro.simulation import ReplayableDraws

        draws = ReplayableDraws(3)
        first = draws.unit_arrivals(100).copy()
        # A later, larger request extends the same stream: the prefix is
        # untouched and the extension equals one fresh batched draw.
        longer = draws.unit_arrivals(250)
        assert longer[:100].tolist() == first.tolist()
        fresh = make_streams(3).arrivals.standard_exponential(250)
        assert longer.tolist() == fresh.tolist()

    def test_destinations_partial_then_extend(self):
        from repro.simulation import ReplayableDraws

        draws = ReplayableDraws(4)
        first = draws.destinations(50, 31).copy()
        longer = draws.destinations(200, 31)
        assert longer[:50].tolist() == first.tolist()
        fresh = make_streams(4).destinations.integers(0, 31, size=200)
        assert longer.tolist() == fresh.tolist()

    def test_batch_equals_per_event_scalar_path(self):
        """The historical engine drew scalars per event; numpy guarantees
        the batched cache streams the same values draw for draw."""
        from repro.simulation import ReplayableDraws

        draws = ReplayableDraws(7)
        batched_gaps = draws.unit_arrivals(64)
        batched_dest = draws.destinations(64, 15)
        scalar = make_streams(7)
        assert batched_gaps.tolist() == [scalar.arrivals.standard_exponential() for _ in range(64)]
        assert batched_dest.tolist() == [int(scalar.destinations.integers(0, 15)) for _ in range(64)]

    def test_destination_bound_is_sticky(self):
        from repro.simulation import ReplayableDraws

        draws = ReplayableDraws(0)
        draws.destinations(10, 31)
        with pytest.raises(ValueError, match="bound"):
            draws.destinations(10, 63)

    def test_cross_load_point_reuse_is_bit_identical(self, small_session, fast_window):
        """Two loads on one session share the seed's cache; rerunning a
        load must replay, not re-draw — same numbers to the last bit."""
        first = small_session.run(5e-4, seed=21, window=fast_window)
        small_session.run(2e-3, seed=21, window=fast_window)  # consumes the same cache
        again = small_session.run(5e-4, seed=21, window=fast_window)
        assert first.mean_latency == again.mean_latency
        assert first.duration == again.duration
        assert first.events == again.events

    def test_cache_eviction_keeps_results_identical(self, small_session, fast_window):
        """Blow past the session's LRU capacity so seed 100 is evicted and
        rebuilt from scratch; a rebuilt cache must reproduce the original
        run exactly (it derives from the seed alone)."""
        baseline = small_session.run(1e-3, seed=100, window=fast_window)
        assert 100 in small_session._draws
        for seed in range(101, 101 + small_session._draws_max):
            small_session.run(1e-3, seed=seed, window=fast_window)
        assert 100 not in small_session._draws  # evicted
        rebuilt = small_session.run(1e-3, seed=100, window=fast_window)
        assert rebuilt.mean_latency == baseline.mean_latency
        assert rebuilt.duration == baseline.duration
        assert rebuilt.events == baseline.events

    @pytest.mark.parametrize("engine", ["reference", "array"])
    def test_array_engine_consumes_identical_draw_arrays(self, small_fabric, engine):
        """The drawn arrays, which both engines consume (the reference loop
        lists them inside its run), must equal the per-event scalar
        stream."""
        from repro.simulation import MeasurementWindow, MessageLevelWormholeSimulator, ReplayableDraws

        window = MeasurementWindow(50, 200, 50)
        n = small_fabric.system.total_nodes
        draws = ReplayableDraws(13)
        sim = MessageLevelWormholeSimulator(
            small_fabric, window, 1e-3, make_streams(13), draws=draws, engine=engine
        )
        scalar = make_streams(13)
        need = n + window.total
        expected_gaps = [scalar.arrivals.standard_exponential() * 1e3 for _ in range(need)]
        assert sim._arrival_gaps_array.tolist() == pytest.approx(expected_gaps, rel=0, abs=0)
        expected_dest = [int(scalar.destinations.integers(0, n - 1)) for _ in range(window.total)]
        assert sim._dest_draws_array.tolist() == expected_dest

    def test_replayed_array_run_equals_fresh_streams_run(self, small_fabric, fast_window):
        from dataclasses import replace

        from repro.simulation import MessageLevelWormholeSimulator, ReplayableDraws

        results = []
        for engine in ("reference", "array"):
            cached = MessageLevelWormholeSimulator(
                small_fabric, fast_window, 1e-3, make_streams(17),
                draws=ReplayableDraws(17), engine=engine,
            ).run()
            fresh = MessageLevelWormholeSimulator(
                small_fabric, fast_window, 1e-3, make_streams(17), engine=engine
            ).run()
            assert replace(cached, wall_seconds=0.0) == replace(fresh, wall_seconds=0.0)
            results.append(replace(cached, wall_seconds=0.0))
        assert results[0] == results[1]
