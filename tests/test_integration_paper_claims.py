"""Integration: the paper's headline claims, at paper scale (model side).

Simulation-backed versions of these claims run in the benchmark harness
(EXPERIMENTS.md); here we assert everything that is fast enough for CI.
"""

import pytest

from repro.analysis import icn2_bandwidth_study, model_bottlenecks
from repro.core import (
    AnalyticalModel,
    MessageSpec,
    auto_load_grid,
    find_saturation_load,
    paper_system_544,
    paper_system_1120,
)
from repro.core.stacked import StackedModel
from repro.validation import all_latency_figures


class TestFigureKnees:
    """Saturation points of Figs. 3-6 under both flit sizes."""

    @pytest.mark.parametrize(
        "system_name,m_flits,d_m,expected",
        [
            ("1120", 32, 256.0, 5.18e-4),
            ("1120", 32, 512.0, 2.64e-4),
            ("1120", 64, 256.0, 2.59e-4),
            ("1120", 64, 512.0, 1.32e-4),
            ("544", 32, 256.0, 1.04e-3),
            ("544", 32, 512.0, 5.29e-4),
            ("544", 64, 256.0, 5.19e-4),
            ("544", 64, 512.0, 2.65e-4),
        ],
    )
    def test_saturation_grid(self, system_name, m_flits, d_m, expected):
        system = paper_system_1120() if system_name == "1120" else paper_system_544()
        lam_star = find_saturation_load(AnalyticalModel(system, MessageSpec(m_flits, d_m)))
        assert lam_star == pytest.approx(expected, rel=0.02)

    def test_doubling_message_length_halves_saturation(self):
        for system in (paper_system_1120(), paper_system_544()):
            short = find_saturation_load(AnalyticalModel(system, MessageSpec(32, 256.0)))
            long = find_saturation_load(AnalyticalModel(system, MessageSpec(64, 256.0)))
            assert long == pytest.approx(short / 2, rel=0.02)

    def test_n544_saturates_twice_as_late_as_n1120(self):
        """The N=544 system's largest cluster carries half the external load."""
        big = find_saturation_load(AnalyticalModel(paper_system_1120(), MessageSpec(32, 256.0)))
        small = find_saturation_load(AnalyticalModel(paper_system_544(), MessageSpec(32, 256.0)))
        assert small / big == pytest.approx(2.0, rel=0.05)


class TestLatencyOrdering:
    def test_larger_flits_cost_more_at_equal_load(self):
        for fig in all_latency_figures():
            model_small = AnalyticalModel(fig.system, fig.messages[0])
            model_large = AnalyticalModel(fig.system, fig.messages[1])
            grid = auto_load_grid(model_large, points=4, fraction_of_saturation=0.92)
            for lam in grid:
                assert model_large.evaluate(lam).latency > model_small.evaluate(lam).latency

    def test_zero_load_latency_scales_with_message_length(self):
        system = paper_system_1120()
        l32 = AnalyticalModel(system, MessageSpec(32, 256.0)).zero_load_latency()
        l64 = AnalyticalModel(system, MessageSpec(64, 256.0)).zero_load_latency()
        # Dominated by M·t serialisation: close to 2x, slightly below.
        assert 1.7 < l64 / l32 < 2.0


class TestBottleneckClaim:
    def test_concentrator_icn2_path_binds_everywhere(self):
        """Paper §4: 'the inter-cluster networks, especially ICN2, are the
        bottlenecks of the system'."""
        for system in (paper_system_1120(), paper_system_544()):
            for m_flits in (32, 64):
                engine = StackedModel([(system, MessageSpec(m_flits, 256.0), None, None)])
                report = model_bottlenecks(engine, 1e-4)
                assert report.binding.kind == "concentrator"


class TestFigure7Claims:
    def test_icn2_bandwidth_helps_most_under_high_traffic(self):
        study = icn2_bandwidth_study(
            (paper_system_544(), paper_system_1120()),
            MessageSpec(128, 256.0),
            points=8,
        )
        for base_label in ("N544-m4-C16: N=544, base", "N1120-m8-C32: N=1120, base"):
            variant_label = base_label.replace("base", "icn2 x1.2")
            base = study.curve(base_label)
            fast = study.curve(variant_label)
            gain = (base.latencies - fast.latencies) / base.latencies
            assert gain[-1] > gain[0] > 0

    def test_n544_keeps_composure_deeper_into_the_grid(self):
        """Paper: 'the system with N=544 has better improvements' — on the
        shared axis its curves stay far flatter than N=1120's."""
        study = icn2_bandwidth_study(
            (paper_system_544(), paper_system_1120()),
            MessageSpec(128, 256.0),
            points=8,
        )
        base_544 = study.curve("N544-m4-C16: N=544, base")
        base_1120 = study.curve("N1120-m8-C32: N=1120, base")
        rise_544 = base_544.latencies[-1] / base_544.latencies[0]
        rise_1120 = base_1120.latencies[-1] / base_1120.latencies[0]
        assert rise_1120 > 1.25 * rise_544
        assert base_544.latencies[-1] < base_1120.latencies[-1]
