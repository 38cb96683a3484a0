"""Reproduction-report tests (validation.report + CLI report command)."""

import pytest

from repro.cluster import paper_organizations
from repro.core import AnalyticalModel, MessageSpec, find_saturation_load
from repro.core.stacked import StackedModel
from repro.validation import all_latency_figures, reproduction_report


class TestModelOnlyReport:
    @pytest.fixture(scope="class")
    def report(self):
        return reproduction_report(points_per_curve=3, include_simulation=False)

    def test_contains_all_sections(self, report):
        for marker in (
            "Table 1",
            "Table 2",
            "Fig.3",
            "Fig.4",
            "Fig.5",
            "Fig.6",
            "ICN2 bandwidth study",
            "Bottleneck audit",
        ):
            assert marker in report.text, marker

    def test_payload_has_every_figure_curve(self, report):
        figure_keys = [k for k in report.payload if k.startswith("Fig.")]
        # 4 figures x 2 flit sizes
        assert len(figure_keys) == 8

    def test_model_only_has_no_accuracy_stats(self, report):
        assert report.light_load_mean_abs_error != report.light_load_mean_abs_error  # NaN

    def test_model_rows_equal_the_scalar_model(self, report):
        for figure in all_latency_figures():
            for message in figure.messages:
                label = f"{figure.system.name}, M={message.length_flits}, Lm={message.flit_bytes:g}"
                rows = report.payload[f"{figure.figure}:{label}"]
                model = AnalyticalModel(figure.system, message)
                assert len(rows) == 3
                assert rows == [(lam, model.evaluate(lam).latency) for lam, _ in rows]

    def test_audit_saturation_loads_equal_the_model(self, report):
        systems = paper_organizations()
        assert len(report.payload["bottlenecks"]) == len(systems)
        for row, system in zip(report.payload["bottlenecks"], systems):
            lam_star = find_saturation_load(AnalyticalModel(system, MessageSpec(32, 256.0)))
            assert row[:2] == [system.name, f"{lam_star:.3e}"]

    def test_model_only_report_never_calls_the_scalar_model(self, monkeypatch):
        def refuse(model, load):
            raise AssertionError("scalar AnalyticalModel.evaluate on the product path")

        monkeypatch.setattr(AnalyticalModel, "evaluate", refuse)
        report = reproduction_report(points_per_curve=2, include_simulation=False)
        assert len([k for k in report.payload if k.startswith("Fig.")]) == 8

    def test_audit_searches_each_organisation_once(self, monkeypatch):
        # The figure grids search λ* once for the stack of the eight curves
        # and the Fig. 7 study once for its stack of four; the audit then
        # searches each organisation once, on the one-cell stack it hands
        # to model_bottlenecks.  A search is bounded (given the
        # concentrator planes) or full; each is one call.
        searches = []
        original = StackedModel._source_queue_saturation_rows

        def counting(stack, *args):
            searches.append(stack.cells)
            return original(stack, *args)

        monkeypatch.setattr(StackedModel, "_source_queue_saturation_rows", counting)
        reproduction_report(points_per_curve=2, include_simulation=False)
        assert searches == [8, 4, 1, 1]

    def test_bottleneck_rows_name_concentrators(self, report):
        for row in report.payload["bottlenecks"]:
            assert row[3] == "concentrator"


class TestSimulationReport:
    def test_small_simulated_report(self):
        report = reproduction_report(
            messages_per_point=400, points_per_curve=2, include_simulation=True
        )
        assert "simulation" in report.text
        assert report.light_load_max_abs_error == report.light_load_max_abs_error  # not NaN
        # Short windows are noisy: accept a generous band here; the bench
        # asserts the tight one at full message counts.
        assert report.within_paper_band(band=0.30)

    def test_rejects_tiny_budget(self):
        with pytest.raises(ValueError):
            reproduction_report(messages_per_point=10)


class TestCliReport:
    def test_model_only_via_cli(self, capsys):
        from repro.cli import main

        code = main(["report", "--model-only", "--points", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Table 1" in out and "Fig.6" in out
