"""Analysis tests (analysis.bottleneck, analysis.whatif, analysis.tables)."""

import numpy as np
import pytest

from repro.analysis import (
    WhatIfCurve,
    WhatIfStudy,
    icn2_bandwidth_study,
    model_bottlenecks,
    render_series,
    render_table,
    scale_network,
    sim_bottlenecks,
)
from repro.core import MessageSpec, paper_system_544, paper_system_1120
from repro.core.stacked import StackedModel
from repro.simulation import MeasurementWindow

MSG = MessageSpec(32, 256.0)


def one_cell(system):
    """The one-cell stack ``model_bottlenecks`` prices."""
    return StackedModel([(system, MSG, None, None)])


class TestModelBottlenecks:
    def test_concentrator_binds_paper_systems(self):
        """Paper §4: the ICN2 path (concentrator) is the bottleneck."""
        for system in (paper_system_1120(), paper_system_544()):
            report = model_bottlenecks(one_cell(system), 3e-4)
            assert report.binding.kind == "concentrator"

    def test_biggest_cluster_binds(self):
        report = model_bottlenecks(one_cell(paper_system_1120()), 3e-4)
        assert "c28" in report.binding.resource  # the 128-node class

    def test_utilizations_scale_linearly(self):
        engine = one_cell(paper_system_544())
        low = model_bottlenecks(engine, 1e-4)
        high = model_bottlenecks(engine, 2e-4)
        assert high.binding.utilization == pytest.approx(2 * low.binding.utilization, rel=1e-6)

    def test_top_is_sorted(self):
        report = model_bottlenecks(one_cell(paper_system_544()), 2e-4)
        tops = report.top(8)
        assert all(a.utilization >= b.utilization for a, b in zip(tops, tops[1:]))

    def test_saturation_load_attached(self):
        report = model_bottlenecks(one_cell(paper_system_544()), 2e-4)
        assert report.saturation_load == pytest.approx(1.04e-3, rel=0.05)


class TestSimBottlenecks:
    def test_ranked_from_simulation(self, small_session, fast_window):
        result = small_session.run(2e-3, seed=3, window=fast_window)
        ranked = sim_bottlenecks(result)
        assert all(a.utilization >= b.utilization for a, b in zip(ranked, ranked[1:]))
        assert {r.resource for r in ranked} == set(result.network_utilization)


class TestScaleNetwork:
    def test_icn2_scaling(self):
        scaled = scale_network(paper_system_544(), "icn2", 1.2)
        assert scaled.icn2.bandwidth == pytest.approx(600.0)

    def test_ecn1_scaling_touches_all_clusters(self):
        scaled = scale_network(paper_system_544(), "ecn1", 2.0)
        assert all(s.ecn1.bandwidth == pytest.approx(500.0) for s in scaled.clusters)
        assert all(s.icn1.bandwidth == pytest.approx(500.0) for s in scaled.clusters)

    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError):
            scale_network(paper_system_544(), "wan", 1.2)


class TestIcn2Study:
    def test_fig7_structure_and_claims(self):
        study = icn2_bandwidth_study(
            (paper_system_544(), paper_system_1120()),
            MessageSpec(128, 256.0),
            points=6,
        )
        labels = [c.label for c in study.curves]
        # Labels carry the system name so equal node counts cannot collide.
        assert labels == [
            "N544-m4-C16: N=544, base",
            "N544-m4-C16: N=544, icn2 x1.2",
            "N1120-m8-C32: N=1120, base",
            "N1120-m8-C32: N=1120, icn2 x1.2",
        ]
        by_label = {c.label: c for c in study.curves}
        # +20% ICN2 bandwidth shifts the knee right by ~19% (service time
        # is alpha_s + d_m/bw, so slightly less than 20%).
        gain_544 = study.saturation_gain("N544-m4-C16: N=544, base", "N544-m4-C16: N=544, icn2 x1.2")
        gain_1120 = study.saturation_gain(
            "N1120-m8-C32: N=1120, base", "N1120-m8-C32: N=1120, icn2 x1.2"
        )
        assert 1.1 < gain_544 < 1.25
        assert 1.1 < gain_1120 < 1.25
        # Improvement is largest at the high-traffic end (paper Fig. 7).
        base = by_label["N1120-m8-C32: N=1120, base"].latencies
        fast = by_label["N1120-m8-C32: N=1120, icn2 x1.2"].latencies
        improvement = (base - fast) / base
        assert improvement[-1] > improvement[0]
        # The N=544 system stays flat deeper into the shared grid.
        assert (
            by_label["N544-m4-C16: N=544, base"].latencies[-1]
            < by_label["N1120-m8-C32: N=1120, base"].latencies[-1]
        )

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"points": 0}, "points must be >= 2"),
            ({"points": 1}, "points must be >= 2"),
            ({"points": 2.5}, "points must be an integer"),
            ({"grid_fraction": 1.5}, r"fraction_of_saturation must be in \(0, 1\)"),
        ],
        ids=["points=0", "points=1", "points=2.5", "grid_fraction=1.5"],
    )
    def test_rejects_a_grid_no_other_study_accepts(self, kwargs, match):
        """Regression: points=0 raised ZeroDivisionError, points=1 or a grid
        reaching past λ* were silently accepted, and a fractional point
        count must not stretch the grid past its top."""
        with pytest.raises(ValueError, match=match):
            icn2_bandwidth_study((paper_system_544(),), MSG, **kwargs)


class TestWhatIfLabels:
    """Regression: labels must stay unique for systems with equal node counts."""

    def test_equal_node_counts_get_distinct_labels(self):
        from dataclasses import replace

        base = paper_system_544()
        clone = replace(base, name="N544-variant")  # same N, different system
        study = icn2_bandwidth_study((base, clone), MSG, points=3)
        labels = [c.label for c in study.curves]
        assert len(set(labels)) == 4  # no silent collisions
        assert any("N544-variant" in label for label in labels)
        # saturation_gain resolves each system's own pair of curves.
        gain = study.saturation_gain(
            "N544-variant: N=544, base", "N544-variant: N=544, icn2 x1.2"
        )
        assert 1.1 < gain < 1.25

    def test_saturation_gain_rejects_ambiguous_labels(self):
        dup = WhatIfCurve("dup", np.array([1.0]), np.array([2.0]), saturation_load=1.0)
        other = WhatIfCurve("other", np.array([1.0]), np.array([2.0]), saturation_load=2.0)
        study = WhatIfStudy("t", (dup, dup, other))
        with pytest.raises(ValueError, match="ambiguous"):
            study.saturation_gain("dup", "other")

    def test_saturation_gain_rejects_unknown_label(self):
        other = WhatIfCurve("other", np.array([1.0]), np.array([2.0]), saturation_load=2.0)
        study = WhatIfStudy("t", (other,))
        with pytest.raises(KeyError):
            study.saturation_gain("missing", "other")


class TestTables:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [[1, 2.5], [10, 0.25]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "---" in lines[2] or "-" in lines[2]
        assert len(lines) == 5

    def test_render_series(self):
        text = render_series("S", "x", [1.0, 2.0], {"y": [3.0, 4.0]})
        assert "x" in text and "y" in text
        assert "3" in text and "4" in text

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            render_table(["a"], [[1, 2]])
