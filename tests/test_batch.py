"""Batched-engine tests (core.batch): scalar equivalence + closed-form saturation.

The scalar :class:`AnalyticalModel` is the reference implementation; the
batched engine must reproduce it to float64 round-off (the 1e-9
contract) across systems, traffic patterns and option variants, and its
per-resource saturation rates must agree with the full-model bisection
(:func:`bisect_saturation`).
"""

import numpy as np
import pytest

from repro.core import (
    AnalyticalModel,
    BatchedModel,
    ClusterSpec,
    MessageSpec,
    ModelOptions,
    SystemConfig,
    find_saturation_load,
    paper_system_544,
    paper_system_1120,
    switch_channel_time,
    sweep_load,
)
from repro.workloads import HotspotTraffic, LocalityTraffic, UniformTraffic

MSG = MessageSpec(32, 256.0)
REL = 1e-9


def bisect_saturation(model: AnalyticalModel, *, rel_tol: float) -> float:
    """Full-model bisection reference for λ*: every queue utilisation is
    monotone in ``λ_g``, so bracket the first saturating load from ``[0, 1]``
    (expanding ×4 until saturated) and halve to *rel_tol*; returns the
    saturated end, which overshoots the exact λ* by construction."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        if model.is_saturated(hi):
            break
        lo, hi = hi, hi * 4.0
    else:
        raise AssertionError("could not find a saturating load")
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if model.is_saturated(mid):
            hi = mid
        else:
            lo = mid
    return hi


def assert_equivalent(model: AnalyticalModel, engine: BatchedModel, grid) -> None:
    """Compare every field of the batched sweep against scalar evaluations."""
    sweep = engine.evaluate_many(grid)
    assert sweep.loads.shape == (len(grid),)
    assert len(sweep.results) == len(grid)
    for lam, batched in zip(grid, sweep.results):
        scalar = model.evaluate(float(lam))
        assert batched.load == scalar.load
        assert batched.saturated == scalar.saturated
        assert batched.saturated_resources == scalar.saturated_resources
        if np.isfinite(scalar.latency):
            assert batched.latency == pytest.approx(scalar.latency, rel=REL)
        else:
            assert batched.latency == scalar.latency
        for b, s in zip(batched.clusters, scalar.clusters):
            assert (b.name, b.tree_depth, b.nodes, b.count) == (s.name, s.tree_depth, s.nodes, s.count)
            assert b.outgoing_probability == s.outgoing_probability
            assert b.saturated == s.saturated
            for field in ("mean", "inter_network", "concentrator_wait", "outward"):
                _assert_close(getattr(b, field), getattr(s, field))
            for field in ("source_wait", "network_latency", "tail_time", "total",
                          "aggregate_rate", "channel_rate", "source_utilization"):
                _assert_close(getattr(b.intra, field), getattr(s.intra, field))
            assert b.intra.saturated == s.intra.saturated
            assert len(b.inter_pairs) == len(s.inter_pairs)
            for bp, sp in zip(b.inter_pairs, s.inter_pairs):
                assert bp.saturated == sp.saturated
                for field in ("source_wait", "network_latency", "tail_time", "total",
                              "ecn1_rate", "icn2_rate", "ecn1_channel_rate",
                              "icn2_channel_rate", "relaxing_factor", "source_utilization"):
                    _assert_close(getattr(bp, field), getattr(sp, field))


def _assert_close(a: float, b: float) -> None:
    if np.isfinite(b):
        assert a == pytest.approx(b, rel=REL, abs=1e-300)
    else:
        assert a == b or (np.isnan(a) and np.isnan(b))


@pytest.fixture(scope="module")
def hetero():
    """Small heterogeneous system: fast enough for scalar reference loops."""
    return SystemConfig(
        switch_ports=4,
        clusters=(
            ClusterSpec(tree_depth=1, name="a0"),
            ClusterSpec(tree_depth=1, name="a1"),
            ClusterSpec(tree_depth=2, name="b"),
            ClusterSpec(tree_depth=3, name="c"),
        ),
        name="tiny-hetero",
    )


class TestScalarEquivalence:
    @pytest.mark.parametrize("system_factory", [paper_system_1120, paper_system_544])
    def test_uniform_traffic_paper_systems(self, system_factory):
        """Latency, flags and breakdowns agree across the whole curve, from
        zero load through points beyond saturation."""
        system = system_factory()
        model = AnalyticalModel(system, MSG)
        engine = BatchedModel(system, MSG)
        lam_star = engine.saturation_load()
        grid = np.concatenate([[0.0], np.linspace(0.1 * lam_star, 1.15 * lam_star, 8)])
        assert_equivalent(model, engine, grid)

    @pytest.mark.parametrize(
        "pattern",
        [UniformTraffic(), HotspotTraffic(3, 0.4), LocalityTraffic(0.7), LocalityTraffic(0.0)],
        ids=["uniform", "hotspot", "locality-0.7", "locality-0"],
    )
    def test_nonuniform_patterns(self, hetero, pattern):
        model = AnalyticalModel(hetero, MSG, pattern=pattern)
        engine = BatchedModel(hetero, MSG, pattern=pattern)
        lam_star = engine.saturation_load()
        grid = np.linspace(0.0, 1.1 * lam_star, 7)
        assert_equivalent(model, engine, grid)

    @pytest.mark.parametrize(
        "options",
        [
            ModelOptions(source_queue_rate="per_node"),
            ModelOptions(source_queue_rate="aggregate_pair"),
            ModelOptions(concentrator_rate="source_outgoing"),
            ModelOptions(variance_approximation="exponential"),
            ModelOptions(inter_average="traffic_weighted"),
            ModelOptions(relaxing_factor=False, tcn_convention="full_network_latency"),
        ],
        ids=["per_node", "aggregate_pair", "source_outgoing", "exponential", "weighted", "no-relax"],
    )
    def test_option_variants(self, options):
        system = paper_system_1120()
        model = AnalyticalModel(system, MSG, options)
        engine = BatchedModel(system, MSG, options)
        lam_star = engine.saturation_load()
        grid = np.linspace(0.0, 1.05 * lam_star, 6)
        assert_equivalent(model, engine, grid)

    def test_single_cluster_system(self):
        single = SystemConfig(switch_ports=4, clusters=(ClusterSpec(tree_depth=3, name="solo"),), name="single")
        model = AnalyticalModel(single, MSG)
        engine = BatchedModel(single, MSG)
        lam_star = engine.saturation_load()
        assert_equivalent(model, engine, np.linspace(0.0, 1.1 * lam_star, 6))

    def test_message_geometry_variants(self):
        system = paper_system_1120()
        for message in (MessageSpec(64, 256.0), MessageSpec(128, 512.0)):
            model = AnalyticalModel(system, message)
            engine = BatchedModel(system, message)
            lam_star = engine.saturation_load()
            assert_equivalent(model, engine, np.linspace(0.0, lam_star, 5))


class TestEvaluateManyContract:
    def test_rejects_negative_and_empty(self):
        engine = BatchedModel(paper_system_1120(), MSG)
        with pytest.raises(ValueError, match="loads must be non-negative"):
            engine.evaluate_many([-1e-5])
        with pytest.raises(ValueError, match="loads must be a non-empty"):
            engine.evaluate_many([])
        # Finiteness is checked first: a NaN load is not finite, not negative.
        with pytest.raises(ValueError, match="loads must be finite"):
            engine.evaluate_many([float("nan")])
        with pytest.raises(ValueError, match="loads must be non-negative"):
            engine.resource_utilizations([-1e-5])

    def test_with_results_false_skips_breakdowns(self):
        engine = BatchedModel(paper_system_1120(), MSG)
        grid = np.linspace(1e-5, 3e-4, 6)
        full = engine.evaluate_many(grid)
        lean = engine.evaluate_many(grid, with_results=False)
        assert lean.results == ()
        np.testing.assert_array_equal(full.latencies, lean.latencies)

    def test_sweep_load_delegates_to_engine(self):
        model = AnalyticalModel(paper_system_544(), MSG)
        grid = [1e-5, 2e-4]
        sweep = sweep_load(model, grid)
        for lam, result in zip(grid, sweep.results):
            assert result.latency == pytest.approx(model.evaluate(lam).latency, rel=REL)

    def test_promotion_prices_a_mutated_model_with_its_new_message(self):
        """Regression: a view once cached on the scalar model survived its
        mutation and answered for the old message geometry."""
        model = AnalyticalModel(paper_system_544(), MSG)
        before = find_saturation_load(model)
        model.message = MessageSpec(64, 256.0)
        after = find_saturation_load(model)
        assert after != before
        assert after == BatchedModel(paper_system_544(), MessageSpec(64, 256.0)).saturation_load()
        assert sweep_load(model, [1e-4]).latencies[0] == pytest.approx(
            model.evaluate(1e-4).latency, rel=REL
        )

    def test_view_reads_its_design_back_from_the_stack(self):
        """``options=None`` reads as ``ModelOptions()``, and a pattern gives
        one singleton class per cluster, as on the stacked cell."""
        pattern = HotspotTraffic(hot_cluster=15, hot_fraction=0.3)
        engine = BatchedModel(paper_system_544(), MSG, None, pattern)
        assert (engine.system, engine.message, engine.pattern) == (paper_system_544(), MSG, pattern)
        assert engine.options == ModelOptions()
        assert len(engine.cluster_classes) == paper_system_544().num_clusters

    def test_evaluate_single_point(self):
        engine = BatchedModel(paper_system_544(), MSG)
        scalar = AnalyticalModel(paper_system_544(), MSG).evaluate(2e-4)
        assert engine.evaluate(2e-4).latency == pytest.approx(scalar.latency, rel=REL)


class TestClosedFormSaturation:
    TABLE_CASES = [
        (paper_system_1120, 32, 256.0),
        (paper_system_1120, 64, 512.0),
        (paper_system_1120, 128, 256.0),
        (paper_system_544, 32, 256.0),
        (paper_system_544, 64, 256.0),
        (paper_system_544, 128, 512.0),
    ]

    @pytest.mark.parametrize("system_factory,m_flits,d_m", TABLE_CASES)
    def test_matches_bisection_on_table_systems(self, system_factory, m_flits, d_m):
        """Acceptance: closed form within the bisection's rel_tol on every
        Table 1 organisation × Table 2 message geometry."""
        model = AnalyticalModel(system_factory(), MessageSpec(m_flits, d_m))
        exact = find_saturation_load(model)  # closed form
        bisected = bisect_saturation(model, rel_tol=1e-4)
        assert exact == pytest.approx(bisected, rel=2e-4)
        # The bisection overshoots by construction; the exact value may not.
        assert exact <= bisected * (1 + 1e-12)

    def test_exact_value_brackets_scalar_saturation(self):
        for factory in (paper_system_1120, paper_system_544):
            model = AnalyticalModel(factory(), MSG)
            lam_star = find_saturation_load(model)
            assert not model.is_saturated(lam_star * 0.99999)
            assert model.is_saturated(lam_star * 1.00001)

    def test_concentrator_closed_form_is_exact(self):
        """λ* = 1 / (max_i N_i U_i · M · t_cs^{I2}) — DESIGN.md §3 item 7,
        now produced directly by saturation_loads()."""
        system = paper_system_1120()
        engine = BatchedModel(system, MSG)
        sizes = system.cluster_sizes
        max_nu = max(n * system.outgoing_probability(i) for i, n in enumerate(sizes))
        predicted = 1.0 / (max_nu * MSG.length_flits * switch_channel_time(system.icn2, MSG.flit_bytes))
        assert engine.saturation_load() == pytest.approx(predicted, rel=1e-12)
        assert "concentrator" in engine.binding_resource()

    def test_per_resource_map_structure(self):
        engine = BatchedModel(paper_system_1120(), MSG)
        loads = engine.saturation_loads()
        classes = engine.cluster_classes
        for src in classes:
            assert f"{src.name}:icn1-source-queue" in loads
            for dst in classes:
                assert f"{src.name}->{dst.name}:concentrator" in loads
        assert all(lam > 0 for lam in loads.values())
        assert min(loads.values()) == engine.saturation_load()

    def test_source_queue_binding_when_icn2_oversized(self, hetero):
        """Scaling ICN2 way up moves the knee to a load-dependent-service
        source queue — the non-closed-form inversion must still match the
        full-model bisection."""
        from repro.analysis import scale_network

        fast_icn2 = scale_network(hetero, "icn2", 50.0)
        model = AnalyticalModel(fast_icn2, MSG)
        engine = BatchedModel(fast_icn2, MSG)
        assert "concentrator" not in engine.binding_resource()
        exact = engine.saturation_load()
        bisected = bisect_saturation(model, rel_tol=1e-6)
        assert exact == pytest.approx(bisected, rel=1e-5)

    def test_single_cluster_source_queue_inversion(self):
        single = SystemConfig(switch_ports=4, clusters=(ClusterSpec(tree_depth=2, name="solo"),), name="single")
        model = AnalyticalModel(single, MSG)
        exact = find_saturation_load(model)
        bisected = bisect_saturation(model, rel_tol=1e-6)
        assert exact == pytest.approx(bisected, rel=1e-5)
        assert not model.is_saturated(exact * 0.9999)
        assert model.is_saturated(exact * 1.0001)

    def test_zero_rate_queues_excluded(self, hetero):
        """Queues that can never saturate (U_i = 1 ⇒ zero intra rate) are
        left out of the map instead of reporting an infinite λ*."""
        engine = BatchedModel(hetero, MSG, pattern=LocalityTraffic(0.0))
        loads = engine.saturation_loads()
        assert loads  # inter resources still present
        assert all(np.isfinite(lam) for lam in loads.values())
        assert not any(name.endswith("icn1-source-queue") for name in loads)


class TestBottleneckEngineReuse:
    def test_matching_engine_reused(self):
        from repro.analysis import model_bottlenecks

        system = paper_system_544()
        engine = BatchedModel(system, MSG)
        saturation = engine.saturation_load()
        report = model_bottlenecks(engine.stack, 2e-4)
        fresh = model_bottlenecks(BatchedModel(system, MSG).stack, 2e-4)
        assert report.binding == fresh.binding
        assert report.resources == fresh.resources
        assert report.saturation_load == fresh.saturation_load == saturation

    def test_report_reads_the_engine_options(self):
        """The engine is the one handle on the design: a report on an
        engine built with other ModelOptions ranks that convention's
        utilisations, with nothing to pass twice."""
        from repro.analysis import model_bottlenecks

        system = paper_system_544()
        opts = ModelOptions(source_queue_rate="per_node")
        engine = BatchedModel(system, MSG, opts)
        report = model_bottlenecks(engine.stack, 2e-4)
        reference = {
            r.resource: float(r.utilization[0]) for r in engine.resource_utilizations([2e-4])
        }
        assert {r.resource: r.utilization for r in report.resources} == reference
        default = model_bottlenecks(BatchedModel(system, MSG).stack, 2e-4)
        assert report.resources != default.resources


class TestRefineMonotoneCrossing:
    """The bracket refinement through the capacity search (the kernel alone: ``tests/test_refine.py``)."""

    def test_budget_exactly_at_zero_load_latency_terminates(self):
        """End-to-end shape of a crossing at lo == 0, which used to spin
        forever: a budget equal to the zero-load latency means every
        positive load busts it."""
        from repro.analysis import max_load_for_latency

        system = paper_system_544()
        zero = AnalyticalModel(system, MSG).zero_load_latency()
        plan = max_load_for_latency(BatchedModel(system, MSG).stack, zero)
        assert plan.feasible
        assert plan.achieved == pytest.approx(0.0, abs=1e-12)
