"""Concentrator/dispatcher semantics tests (paper Eqs. 20, 29 and 37).

The reproduction's most consequential interpretation decision is how the
concentrators behave.  The simulators have one semantics: cut-through
merge units whose buffer is always able to receive, with physical sinks.
These tests pin each element of it so regressions are caught by name.
"""

import pytest

from repro.cluster.channels import Concentrator
from repro.simulation import MeasurementWindow, make_streams
from repro.simulation.flitsim import FlitLevelSimulator


class TestReceptionFlags:
    def test_cd_reception_channels_flagged(self, small_fabric):
        flagged = {
            cid for cid in range(small_fabric.num_channels) if small_fabric.uncontended[cid]
        }
        channels = list(small_fabric.system.channels())
        expected = {
            cid
            for cid, ch in enumerate(channels)
            if isinstance(ch.target, Concentrator)
        }
        assert flagged == expected
        # Every cluster has reception links on both the ECN1 and ICN2 side.
        nets = {channels[cid].network[0] for cid in flagged}
        assert nets == {"ecn1", "icn2"}

    def test_paper_mode_leaves_reception_uncontended(self, small_fabric):
        # The array core's tables reference the fabric's flags (the
        # reference loop lists them inside its run and keeps nothing).
        from repro.simulation import eventcore

        assert eventcore._context_for(small_fabric).uncontended is small_fabric.uncontended

    def test_flit_engine_mirrors_flags(self, small_fabric, fast_window):
        sim = FlitLevelSimulator(small_fabric, fast_window, 1e-3, make_streams(0))
        assert sim._uncontended == small_fabric.uncontended.tolist()


class TestCutThroughBehaviour:
    def test_paper_mode_single_serialization(self, small_session, fast_window):
        """Cut-through: inter latency ≈ header hops + one (M-1)·τ_max drain,
        NOT three full drains."""
        run = small_session.run(1e-4, seed=1, window=fast_window)
        fabric = small_session.fabric
        m = fabric.message.length_flits
        # Bound: slowest possible journey under single serialization.
        worst_single = 0.0
        for src, dst in [(0, 9), (0, 17), (0, 25)]:
            segs = fabric.resolve(src, dst)
            total = sum(fabric.flit_time[c] for s in segs for c in s.channel_ids)
            total += (m - 1) * max(s.bottleneck_flit_time for s in segs)
            worst_single = max(worst_single, total)
        # At near-zero load the inter mean must sit below ~1.3x that bound
        # (queueing allowance), far below the 3x of store-and-forward.
        assert run.stats.mean_inter < 1.3 * worst_single

    def test_cut_through_latency_decomposes(self, small_session):
        """Cut-through at near-zero load = Σ hop times of every segment +
        one (M-1)·τ drain of the last segment."""
        run = small_session.run(5e-5, seed=3, window=MeasurementWindow(20, 300, 20))
        fabric = small_session.fabric
        m = fabric.message.length_flits
        samples = []
        for src, dst in [(0, 9), (3, 20), (7, 30)]:
            segs = fabric.resolve(src, dst)
            total = sum(fabric.flit_time[c] for seg in segs for c in seg.channel_ids)
            samples.append(total + (m - 1) * segs[-1].bottleneck_flit_time)
        assert min(samples) * 0.95 < run.stats.mean_inter < max(samples) * 1.2

    def test_concentrate_utilization_matches_nominal_service(self, small_session, fast_window):
        """At light load the concentrate link's utilisation is ≈
        λ_out · M · τ(ICN2 segment) — Eq. 37's service, not the E1 rate."""
        lam = 5e-4
        run = small_session.run(lam, seed=2, window=fast_window)
        fabric = small_session.fabric
        system = fabric.system
        m = fabric.message.length_flits
        n_i = system.clusters[0].num_nodes
        u = system.config.outgoing_probability(0)
        seg = fabric.resolve(0, n_i + 1)[1]  # an ICN2 segment
        nominal = n_i * lam * u * m * seg.bottleneck_flit_time
        assert run.network_utilization["cd-concentrate"] == pytest.approx(nominal, rel=0.25)


class TestDispatchSpreading:
    def test_dispatch_traffic_spreads_over_roots(self, small_session, fast_window):
        """Multi-root attach: both dispatch links of a cluster carry load."""
        run = small_session.run(2e-3, seed=4, window=fast_window)
        del run  # busy accounting is aggregated; check structurally instead
        fabric = small_session.fabric
        roots_used = set()
        channels = list(fabric.system.channels())
        cluster1 = fabric.system.clusters[1]
        for dst in range(cluster1.first_global_id, cluster1.first_global_id + cluster1.num_nodes):
            seg = fabric.resolve(0, dst)[2]
            first_channel = channels[seg.channel_ids[0]]
            roots_used.add(first_channel.target)
        assert len(roots_used) == len(cluster1.ecn1.root_switches)
