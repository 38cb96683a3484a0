"""Persistence and reporting tests (io.results, io.reporting)."""

import numpy as np
import pytest

from repro.cluster import table1_rows
from repro.core import NET1, NET2, MessageSpec, paper_system_544
from repro.io import (
    format_table1,
    format_table2,
    format_validation_curve,
    format_whatif_study,
    load_curve_csv,
    load_json,
    save_curve_csv,
    save_json,
    to_jsonable,
)


class TestToJsonable:
    def test_dataclass_tree(self):
        payload = to_jsonable(MessageSpec(32, 256.0))
        assert payload == {"length_flits": 32, "flit_bytes": 256.0}

    def test_numpy_values(self):
        payload = to_jsonable({"a": np.float64(1.5), "b": np.arange(3)})
        assert payload == {"a": 1.5, "b": [0, 1, 2]}

    def test_numpy_bool_round_trips_as_bool(self):
        """Regression: np.bool_ used to fall through to str() and come back
        as the always-truthy string "True"/"False"."""
        payload = to_jsonable({"t": np.bool_(True), "f": np.bool_(False)})
        assert payload == {"t": True, "f": False}
        assert isinstance(payload["t"], bool)
        assert isinstance(payload["f"], bool)
        assert not payload["f"]  # the old str(value) form was truthy

    def test_numpy_non_finite_scalars_tagged(self):
        payload = to_jsonable({"x": np.float64("inf"), "y": np.float64("nan")})
        assert payload["x"] == {"__float__": "inf"}
        assert payload["y"] == {"__float__": "nan"}

    def test_non_finite_floats_tagged(self):
        payload = to_jsonable({"x": float("inf"), "y": float("nan")})
        assert payload["x"] == {"__float__": "inf"}
        assert payload["y"] == {"__float__": "nan"}

    def test_fallback_to_str(self):
        class Odd:
            def __str__(self):
                return "odd!"

        assert to_jsonable(Odd()) == "odd!"


class TestJsonRoundtrip:
    def test_roundtrip(self, tmp_path):
        data = {"curve": [1.0, float("inf")], "meta": {"n": 5}}
        path = save_json(tmp_path / "out.json", data)
        loaded = load_json(path)
        assert loaded["meta"]["n"] == 5
        assert loaded["curve"][1] == float("inf")

    def test_nan_roundtrip(self, tmp_path):
        loaded = load_json(save_json(tmp_path / "x.json", {"v": float("nan")}))
        assert np.isnan(loaded["v"])

    def test_creates_parent_dirs(self, tmp_path):
        path = save_json(tmp_path / "deep" / "dir" / "x.json", {"a": 1})
        assert path.exists()


class TestCsvRoundtrip:
    def test_roundtrip(self, tmp_path):
        cols = {"load": [1e-4, 2e-4], "latency": [10.5, 20.25]}
        path = save_curve_csv(tmp_path / "c.csv", cols)
        loaded = load_curve_csv(path)
        assert loaded["load"] == [1e-4, 2e-4]
        assert loaded["latency"] == [10.5, 20.25]

    def test_bool_column_round_trips(self, tmp_path):
        """Regression: repr(float(v)) used to turn a saturated-flags column
        into 1.0/0.0 (and choke on strings)."""
        cols = {"load": [1e-4, 2e-4], "saturated": [False, True]}
        loaded = load_curve_csv(save_curve_csv(tmp_path / "b.csv", cols))
        assert loaded["saturated"] == [False, True]
        assert isinstance(loaded["saturated"][0], bool)

    def test_numpy_bool_column_round_trips(self, tmp_path):
        cols = {"saturated": list(np.array([True, False]))}
        loaded = load_curve_csv(save_curve_csv(tmp_path / "nb.csv", cols))
        assert loaded["saturated"] == [True, False]

    def test_string_column_round_trips(self, tmp_path):
        cols = {"label": ["c0", "c8->c11:concentrator"], "rho": [0.5, 0.9]}
        loaded = load_curve_csv(save_curve_csv(tmp_path / "s.csv", cols))
        assert loaded["label"] == ["c0", "c8->c11:concentrator"]
        assert loaded["rho"] == [0.5, 0.9]

    def test_mixed_types_in_one_file(self, tmp_path):
        cols = {"name": ["a", "b"], "ok": [True, False], "x": [1.5, float("inf")]}
        loaded = load_curve_csv(save_curve_csv(tmp_path / "m.csv", cols))
        assert loaded == cols

    def test_rejects_ragged_columns(self, tmp_path):
        with pytest.raises(ValueError):
            save_curve_csv(tmp_path / "c.csv", {"a": [1], "b": [1, 2]})

    def test_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError):
            save_curve_csv(tmp_path / "c.csv", {})


class TestReporting:
    def test_format_table1_contains_paper_rows(self):
        text = format_table1(table1_rows())
        assert "1120" in text and "544" in text
        assert "n=1 x12" in text

    def test_format_table2(self):
        text = format_table2([NET1, NET2])
        assert "Net.1" in text and "Net.2" in text
        assert "500" in text and "250" in text

    def test_format_validation_curve(self, small_session):
        from repro.simulation import MeasurementWindow
        from repro.validation import run_validation

        curve = run_validation(small_session, [1e-4], window=MeasurementWindow(20, 200, 20))
        text = format_validation_curve(curve, figure="Fig.X")
        assert "Fig.X" in text
        assert "model" in text and "simulation" in text

    def test_format_whatif_study(self):
        from repro.analysis import icn2_bandwidth_study

        study = icn2_bandwidth_study((paper_system_544(),), MessageSpec(32, 256.0), points=3)
        text = format_whatif_study(study)
        assert "N=544, base" in text
        assert "lambda_g" in text
