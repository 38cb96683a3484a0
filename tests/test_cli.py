"""Command-line interface tests (repro.cli)."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParser:
    @staticmethod
    def _subparsers(parser):
        sub = next(a for a in parser._actions if hasattr(a, "choices") and a.choices)
        return dict(sub.choices)

    def test_all_subcommands_registered(self):
        assert set(self._subparsers(build_parser())) == {
            "describe",
            "latency",
            "saturation",
            "sweep",
            "simulate",
            "validate",
            "capacity",
            "bottlenecks",
            "knee",
            "whatif",
            "explore",
            "calibrate",
            "performability",
            "report",
            "scenarios",
            "export-config",
        }

    def test_out_flag_coverage(self):
        """Every result-producing subcommand persists with --out; the flag
        set is pinned so a new subcommand cannot silently skip it."""
        flags = {
            name: {s for action in p._actions for s in action.option_strings}
            for name, p in self._subparsers(build_parser()).items()
        }
        with_out = {name for name, f in flags.items() if "--out" in f}
        assert with_out == {
            "sweep",
            "validate",
            "capacity",
            "bottlenecks",
            "knee",
            "whatif",
            "explore",
            "calibrate",
            "performability",
            "export-config",
        }

    def test_jobs_flag_coverage(self):
        flags = {
            name: {s for action in p._actions for s in action.option_strings}
            for name, p in self._subparsers(build_parser()).items()
        }
        with_jobs = {name for name, f in flags.items() if "--jobs" in f}
        assert with_jobs == {
            "simulate",
            "validate",
            "explore",
            "calibrate",
            "performability",
            "report",
        }

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_system(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["describe", "--system", "2048"])


class TestDescribe:
    def test_describe_1120(self, capsys):
        code, out, _ = run_cli(capsys, "describe", "--system", "1120")
        assert code == 0
        assert "N=1120" in out
        assert "U_i (Eq.2)" in out

    def test_describe_544(self, capsys):
        code, out, _ = run_cli(capsys, "describe", "--system", "544")
        assert code == 0
        assert "C=16" in out


class TestLatency:
    def test_latency_report(self, capsys):
        code, out, _ = run_cli(capsys, "latency", "--system", "544", "--load", "2e-4")
        assert code == 0
        assert "mean message latency" in out
        assert "L_in" in out and "W_d" in out

    def test_saturated_load_reported(self, capsys):
        code, out, _ = run_cli(capsys, "latency", "--system", "544", "--load", "1")
        assert code == 0
        assert "SATURATED" in out

    def test_negative_load_is_an_error(self, capsys):
        code, _, err = run_cli(capsys, "latency", "--system", "544", "--load=-1e-4")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("command", ["latency", "bottlenecks"])
    @pytest.mark.parametrize("load", ["nan", "inf"])
    def test_non_finite_load_names_the_finite_rule(self, capsys, command, load):
        # A NaN load used to fail the sign check first: "loads must be non-negative".
        code, _, err = run_cli(capsys, command, "--scenario", "544", "--load", load)
        assert code == 2
        assert err == "error: loads must be finite\n"


class TestSaturation:
    def test_reports_knee_and_binding(self, capsys):
        code, out, _ = run_cli(capsys, "saturation", "--system", "1120", "--flits", "32")
        assert code == 0
        # Exact closed-form knee (the old bisection reported 5.1767e-04).
        assert "5.1766e-04" in out
        assert "concentrator" in out
        assert "per-resource saturation" in out


class TestSweep:
    def test_sweep_rows(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--system", "544", "--points", "4")
        assert code == 0
        assert out.count("\n") >= 6
        assert "lambda_g" in out

    def test_scenario_list_rejects_config(self, capsys, tmp_path):
        """A multi-scenario list bypasses resolve_spec, so --config must be
        rejected loudly, never silently dropped."""
        code, _, err = run_cli(
            capsys, "sweep", "--scenario", "544,1120", "--config", str(tmp_path / "x.json")
        )
        assert code == 2
        assert "conflicts with --config/--system" in err


class TestSimulate:
    def test_simulate_small_run(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--system",
            "544",
            "--load",
            "2e-4",
            "--messages",
            "500",
            "--seed",
            "1",
        )
        assert code == 0
        assert "simulated mean latency" in out
        assert "completed=True" in out


class TestValidate:
    def test_validate_curve(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "validate",
            "--system",
            "544",
            "--points",
            "2",
            "--messages",
            "500",
        )
        assert code == 0
        assert "model" in out and "simulation" in out


class TestCapacity:
    def test_feasible_budget(self, capsys):
        code, out, _ = run_cli(capsys, "capacity", "--system", "544", "--budget", "60")
        assert code == 0
        assert "feasible" in out

    def test_infeasible_budget(self, capsys):
        code, out, _ = run_cli(capsys, "capacity", "--system", "544", "--budget", "1")
        assert code == 0
        assert "INFEASIBLE" in out

    def test_no_budget_anywhere_is_clean_error(self, capsys):
        code, _, err = run_cli(capsys, "capacity", "--system", "544")
        assert code == 2
        assert "latency_budget" in err


class TestScenarioSelection:
    def test_scenario_flag(self, capsys):
        code, out, _ = run_cli(capsys, "describe", "--scenario", "het8-split")
        assert code == 0
        assert "N=544" in out and "C=8" in out

    def test_system_is_an_alias(self, capsys):
        _, via_system, _ = run_cli(capsys, "describe", "--system", "544")
        _, via_scenario, _ = run_cli(capsys, "describe", "--scenario", "544")
        assert via_system == via_scenario

    def test_conflicting_selectors_rejected(self, capsys, tmp_path):
        """--config plus --scenario must error, not silently pick one."""
        cfg = tmp_path / "s.json"
        run_cli(capsys, "export-config", "--system", "544", "--out", str(cfg))
        code, _, err = run_cli(capsys, "sweep", "--scenario", "1120", "--config", str(cfg))
        assert code == 2
        assert "conflicting scenario selectors" in err
        code, _, err = run_cli(capsys, "describe", "--scenario", "1120", "--system", "544")
        assert code == 2
        assert "conflicting scenario selectors" in err

    def test_unknown_scenario_is_clean_error(self, capsys):
        code, _, err = run_cli(capsys, "describe", "--scenario", "not-a-scenario")
        assert code == 2
        assert err.startswith("error:")
        assert "available" in err

    def test_missing_config_file_is_clean_error(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--config", "/no/such/config.json")
        assert code == 2
        assert err.startswith("error:")

    def test_non_numeric_config_value_is_clean_error(self, capsys, tmp_path):
        """A string where a network latency belongs is refused like a string
        bandwidth: one error line and exit 2, not a TypeError traceback,
        naming the number it wants rather than a bound."""
        import json

        code, text, _ = run_cli(capsys, "export-config", "--system", "544")
        for field in ("network_latency", "switch_latency", "bandwidth"):
            spec = json.loads(text)
            spec["system"]["icn2"][field] = "0.01"
            cfg = tmp_path / f"{field}.json"
            cfg.write_text(json.dumps(spec))
            code, out, err = run_cli(capsys, "saturation", "--config", str(cfg))
            assert (code, out) == (2, "")
            assert err.startswith("error:") and field in err and "must be a finite" in err
            assert err.count("\n") == 1

    def test_config_file_roundtrip_reproduces_preset(self, capsys, tmp_path):
        """export-config -> sweep --config must match sweep --system bit-for-bit."""
        path = tmp_path / "cfg.json"
        code, _, _ = run_cli(capsys, "export-config", "--system", "1120", "--out", str(path))
        assert code == 0
        _, via_config, _ = run_cli(capsys, "sweep", "--config", str(path))
        _, via_system, _ = run_cli(capsys, "sweep", "--system", "1120")
        assert via_config == via_system

    def test_pattern_flag(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "latency",
            "--system",
            "544",
            "--load",
            "2e-4",
            "--pattern",
            "hotspot:hot_cluster=3,hot_fraction=0.2",
        )
        assert code == 0
        assert "mean message latency" in out

    def test_unknown_pattern_is_clean_error(self, capsys):
        code, _, err = run_cli(
            capsys, "latency", "--system", "544", "--load", "2e-4", "--pattern", "zipf"
        )
        assert code == 2
        assert "unknown traffic pattern" in err

    def test_option_flag_changes_result(self, capsys):
        _, base, _ = run_cli(capsys, "saturation", "--system", "544")
        code, alt, _ = run_cli(
            capsys, "saturation", "--system", "544", "--option", "concentrator_rate=source_outgoing"
        )
        assert code == 0
        assert base != alt

    def test_unknown_option_is_clean_error(self, capsys):
        code, _, err = run_cli(capsys, "describe", "--system", "544", "--option", "bogus=1")
        assert code == 2
        assert "unknown model option" in err


class TestScenariosCommand:
    def test_lists_all_registered(self, capsys):
        from repro.scenarios import scenario_names

        code, out, _ = run_cli(capsys, "scenarios")
        assert code == 0
        for name in scenario_names():
            assert name in out

    def test_show_one_as_json(self, capsys):
        import json

        code, out, _ = run_cli(capsys, "scenarios", "544-hotspot")
        assert code == 0
        data = json.loads(out)
        assert data["pattern"]["name"] == "hotspot"
        assert data["schema"] == "repro.scenario/1"


class TestExportConfig:
    def test_stdout_json_parses(self, capsys):
        import json

        code, out, _ = run_cli(capsys, "export-config", "--system", "544")
        assert code == 0
        data = json.loads(out)
        assert data["system"]["switch_ports"] == 4

    def test_export_honors_overrides(self, capsys):
        import json

        code, out, _ = run_cli(
            capsys, "export-config", "--system", "544", "--flits", "64", "--pattern", "locality:locality=0.5"
        )
        assert code == 0
        data = json.loads(out)
        assert data["message"]["length_flits"] == 64
        assert data["pattern"] == {"name": "locality", "params": {"locality": 0.5}}


class TestOutFlag:
    def test_sweep_csv(self, capsys, tmp_path):
        from repro.io import load_curve_csv

        path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys, "sweep", "--system", "544", "--points", "3", "--out", str(path)
        )
        assert code == 0
        assert f"wrote {path}" in out
        cols = load_curve_csv(path)
        assert set(cols) == {"load", "latency"}
        assert len(cols["load"]) == 3

    def test_sweep_json_schema(self, capsys, tmp_path):
        from repro.io import load_json

        path = tmp_path / "sweep.json"
        code, _, _ = run_cli(capsys, "sweep", "--system", "544", "--out", str(path))
        assert code == 0
        data = load_json(path)
        assert data["schema"] == "repro.experiment/1"
        assert data["kind"] == "sweep"
        assert data["scenario"] == "544"
        assert data["spec"]["system"]["name"] == "N544-m4-C16"
        assert len(data["data"]["columns"]["load"]) == 12

    def test_capacity_csv_round_trips_bool(self, capsys, tmp_path):
        from repro.io import load_curve_csv

        path = tmp_path / "cap.csv"
        code, _, _ = run_cli(
            capsys, "capacity", "--system", "544", "--budget", "60", "--out", str(path)
        )
        assert code == 0
        cols = load_curve_csv(path)
        assert cols["feasible"] == [True]

    def test_validate_honors_config_grid_points(self, capsys, tmp_path):
        """Regression: validate used to hardcode 5 points, silently ignoring
        a config's load_grid.points."""
        import json

        from repro.io import load_curve_csv
        from repro.scenarios import get_scenario

        spec = get_scenario("544")
        data = spec.to_dict()
        data["load_grid"]["points"] = 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / "val.csv"
        code, _, _ = run_cli(
            capsys, "validate", "--config", str(cfg), "--messages", "300", "--out", str(out)
        )
        assert code == 0
        assert len(load_curve_csv(out)["load"]) == 2

    def test_validate_default_grid_stays_at_five_points(self, capsys, tmp_path):
        """Without --points and without a scenario-customised grid, validate
        keeps its historical 5-simulation default (not the sweep's 12)."""
        out = tmp_path / "val5.csv"
        code, _, _ = run_cli(
            capsys, "validate", "--system", "544", "--messages", "300", "--out", str(out)
        )
        assert code == 0
        from repro.io import load_curve_csv

        assert len(load_curve_csv(out)["load"]) == 5

    def test_validate_csv(self, capsys, tmp_path):
        from repro.io import load_curve_csv

        path = tmp_path / "val.csv"
        code, _, _ = run_cli(
            capsys,
            "validate",
            "--system",
            "544",
            "--points",
            "2",
            "--messages",
            "500",
            "--out",
            str(path),
        )
        assert code == 0
        cols = load_curve_csv(path)
        assert set(cols) == {"load", "model", "simulation", "rel_error"}

    def test_unknown_extension_is_clean_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--system", "544", "--out", str(tmp_path / "x.txt")
        )
        assert code == 2
        assert ".json or .csv" in err

    def test_export_config_rejects_csv_out(self, capsys, tmp_path):
        """export-config only writes JSON; a .csv --out must fail, not
        silently produce a JSON-bodied .csv file."""
        path = tmp_path / "x.csv"
        code, _, err = run_cli(capsys, "export-config", "--system", "544", "--out", str(path))
        assert code == 2
        assert ".json" in err
        assert not path.exists()

    def test_pattern_missing_params_is_clean_error(self, capsys):
        code, _, err = run_cli(
            capsys, "latency", "--system", "544", "--load", "2e-4", "--pattern", "hotspot"
        )
        assert code == 2
        assert "invalid parameters" in err


class TestWhatIf:
    def test_whatif_curves(self, capsys):
        code, out, _ = run_cli(capsys, "whatif", "--system", "544", "--factor", "1.2")
        assert code == 0
        assert "saturation gain" in out

    def test_whatif_csv_out(self, capsys, tmp_path):
        from repro.io import load_curve_csv

        path = tmp_path / "whatif.csv"
        code, out, _ = run_cli(
            capsys, "whatif", "--system", "544", "--out", str(path)
        )
        assert code == 0
        assert f"wrote {path}" in out
        assert set(load_curve_csv(path)) == {"load", "base", "variant"}


class TestBottlenecks:
    def test_default_load_reports_binding(self, capsys):
        code, out, _ = run_cli(capsys, "bottlenecks", "--system", "544")
        assert code == 0
        assert "binding resource" in out
        assert "concentrator" in out

    def test_explicit_load_and_csv_out(self, capsys, tmp_path):
        from repro.io import load_curve_csv

        path = tmp_path / "bn.csv"
        code, out, _ = run_cli(
            capsys, "bottlenecks", "--system", "544", "--load", "2e-4", "--out", str(path)
        )
        assert code == 0
        assert f"wrote {path}" in out
        cols = load_curve_csv(path)
        assert set(cols) == {"resource", "kind", "utilization"}
        assert len(cols["resource"]) >= 2

    def test_bad_out_extension_rejected_before_compute(self, capsys, tmp_path):
        path = tmp_path / "bn.txt"
        code, _, err = run_cli(
            capsys, "bottlenecks", "--system", "544", "--out", str(path)
        )
        assert code == 2
        assert ".json or .csv" in err
        assert not path.exists()


class TestKnee:
    @pytest.fixture()
    def tiny_config(self, tmp_path):
        from repro.cluster import homogeneous_system
        from repro.scenarios import ScenarioSpec

        path = tmp_path / "tiny.json"
        ScenarioSpec(
            name="tiny",
            system=homogeneous_system(switch_ports=4, tree_depth=1, num_clusters=4),
        ).save(path)
        return str(path)

    def test_knee_with_csv_out(self, capsys, tiny_config, tmp_path):
        from repro.io import load_curve_csv

        path = tmp_path / "knee.csv"
        code, out, _ = run_cli(
            capsys, "knee", "--config", tiny_config,
            "--messages", "150", "--iterations", "2", "--out", str(path),
        )
        assert code == 0
        assert "simulated knee" in out
        cols = load_curve_csv(path)
        assert set(cols) == {
            "sim_knee", "model_saturation", "knee_fraction", "threshold_factor"
        }
        assert len(cols["sim_knee"]) == 1

    def test_no_iterations_is_a_clean_error(self, capsys, tiny_config):
        code, out, err = run_cli(
            capsys, "knee", "--config", tiny_config, "--messages", "150", "--iterations", "0"
        )
        assert code == 2
        assert out == "" and err == "error: iterations must be >= 1, got 0\n"

    def test_bad_out_extension_rejected_before_compute(self, capsys, tmp_path):
        path = tmp_path / "knee.txt"
        code, _, err = run_cli(
            capsys, "knee", "--system", "544", "--out", str(path)
        )
        assert code == 2
        assert ".json or .csv" in err
        assert not path.exists()


class TestPerformability:
    @pytest.fixture()
    def failures_file(self, tmp_path):
        from repro.performability import FailureMode, FailureScenario

        path = tmp_path / "failures.json"
        FailureScenario(
            modes=(
                FailureMode(kind="node", failure_rate=1e-4, repair_rate=1e-2),
                FailureMode(kind="switch", role="icn2", failure_rate=1e-5, repair_rate=1e-2),
            ),
            max_concurrent=2,
            name="cli-smoke",
        ).save(path)
        return str(path)

    def test_reports_weighted_metrics(self, capsys, failures_file):
        code, out, _ = run_cli(
            capsys, "performability", "--scenario", "544", "--failures", failures_file
        )
        assert code == 0
        assert "availability state(s)" in out
        assert "λ*_A availability-weighted" in out
        assert "which failure hurts most" in out

    def test_cache_serves_second_run_bit_identical(self, capsys, failures_file, tmp_path):
        cache = str(tmp_path / "cache")
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        code, first, _ = run_cli(
            capsys, "performability", "--scenario", "544",
            "--failures", failures_file, "--jobs", "2",
            "--cache", cache, "--out", str(out_a),
        )
        assert code == 0
        assert "evaluated 2 of 4 states (0 from cache" in first
        code, second, _ = run_cli(
            capsys, "performability", "--scenario", "544",
            "--failures", failures_file,
            "--cache", cache, "--out", str(out_b),
        )
        assert code == 0
        assert "evaluated 0 of 4 states (4 from cache" in second
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_json_out_is_self_describing(self, capsys, failures_file, tmp_path):
        from repro.io import load_json

        path = tmp_path / "perf.json"
        code, _, _ = run_cli(
            capsys, "performability", "--scenario", "544",
            "--failures", failures_file, "--out", str(path),
        )
        assert code == 0
        payload = load_json(path)
        assert payload["kind"] == "performability"
        assert payload["spec"]["failures"]["schema"] == "repro.performability/1"
        assert payload["data"]["saturation_load_weighted"] < payload["data"]["saturation_load_pristine"]

    def test_disconnecting_spec_is_clean_error_naming_state(self, capsys, tmp_path):
        from repro.performability import FailureMode, FailureScenario

        path = tmp_path / "bad.json"
        # The 544 preset's ICN2 top level has 4 switches; tracking 4
        # simultaneous losses reaches a disconnected state.
        FailureScenario(
            modes=(
                FailureMode(
                    kind="switch", role="icn2", count=4,
                    failure_rate=1e-5, repair_rate=1e-2,
                ),
            ),
        ).save(path)
        code, _, err = run_cli(
            capsys, "performability", "--scenario", "544", "--failures", str(path)
        )
        assert code == 2
        assert "availability state 'icn2-switch=4' is invalid" in err
        assert "disconnect the fabric" in err

    def test_missing_failures_file_is_clean_error(self, capsys):
        code, _, err = run_cli(
            capsys, "performability", "--scenario", "544",
            "--failures", "/no/such/failures.json",
        )
        assert code == 2
        assert err.startswith("error:")

    def test_bad_out_extension_rejected_before_compute(self, capsys, failures_file, tmp_path):
        path = tmp_path / "perf.txt"
        code, _, err = run_cli(
            capsys, "performability", "--scenario", "544",
            "--failures", failures_file, "--out", str(path),
        )
        assert code == 2
        assert ".json or .csv" in err
        assert not path.exists()


class TestValidateGranularity:
    def test_flit_granularity_end_to_end(self, capsys, tmp_path):
        """Regression: the CLI never exposed the flit-level reference
        engine on validate (tiny N keeps the run cheap)."""
        from repro.cluster import homogeneous_system
        from repro.scenarios import ScenarioSpec

        cfg = tmp_path / "small.json"
        ScenarioSpec(
            name="flit-cli-smoke",
            system=homogeneous_system(switch_ports=4, tree_depth=1, num_clusters=4),
        ).save(cfg)
        code, out, _ = run_cli(
            capsys,
            "validate",
            "--config", str(cfg),
            "--points", "2",
            "--messages", "150",
            "--granularity", "flit",
        )
        assert code == 0
        assert "rel_error" in out or "model" in out

    def test_rejects_unknown_granularity(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["validate", "--granularity", "byte"])


class TestExplore:
    AXES = [
        "--axis", "system.icn2.bandwidth=500,600",
        "--axis", "message.length_flits=32,64",
    ]

    def test_axis_grid_runs(self, capsys):
        code, out, _ = run_cli(capsys, "explore", "--scenario", "544", *self.AXES)
        assert code == 0
        assert "4 cells" in out
        assert "544/system.icn2.bandwidth=600/message.length_flits=64" in out
        assert "evaluated 4 of 4 cells" in out

    def test_cache_serves_second_run(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        code, first, _ = run_cli(
            capsys, "explore", "--scenario", "544", *self.AXES,
            "--cache", cache, "--out", str(out_a),
        )
        assert code == 0 and "evaluated 4 of 4 cells (0 from cache" in first
        code, second, _ = run_cli(
            capsys, "explore", "--scenario", "544", *self.AXES,
            "--jobs", "2", "--cache", cache, "--out", str(out_b),
        )
        assert code == 0 and "evaluated 0 of 4 cells (4 from cache" in second
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_frontier_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "explore", "--scenario", "544", *self.AXES, "--frontier"
        )
        assert code == 0
        assert "Pareto frontier" in out
        assert "axis sensitivity" in out

    def test_grid_file(self, capsys, tmp_path):
        from repro.scenarios import AxisSpec, DesignGrid, get_scenario

        path = tmp_path / "grid.json"
        DesignGrid(
            base=get_scenario("544"),
            axes=(AxisSpec("system.icn2.bandwidth", (500.0, 600.0)),),
        ).save(path)
        code, out, _ = run_cli(capsys, "explore", "--grid", str(path))
        assert code == 0
        assert "2 cells" in out

    def test_grid_conflicts_with_axis(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "explore", "--grid", str(tmp_path / "g.json"), *self.AXES
        )
        assert code == 2
        assert "conflicts with --axis" in err

    def test_requires_an_axis(self, capsys):
        code, _, err = run_cli(capsys, "explore", "--scenario", "544")
        assert code == 2
        assert "at least one --axis" in err

    def test_bad_axis_path_is_clean_error(self, capsys):
        code, _, err = run_cli(
            capsys, "explore", "--scenario", "544", "--axis", "system.icn2.bandwdith=500"
        )
        assert code == 2
        assert "unknown key" in err

    def test_budget_flag_fills_lambda_at_budget(self, capsys, tmp_path):
        from repro.io import load_json

        out = tmp_path / "explore.json"
        code, _, _ = run_cli(
            capsys, "explore", "--scenario", "544",
            "--axis", "system.icn2.bandwidth=500,600",
            "--budget", "60", "--out", str(out),
        )
        assert code == 0
        payload = load_json(out)
        for value in payload["data"]["columns"]["lambda_at_budget"]:
            assert value > 0


class TestCalibrate:
    @pytest.fixture()
    def tiny_config(self, tmp_path):
        from repro.cluster import homogeneous_system
        from repro.core import MessageSpec
        from repro.scenarios import ScenarioSpec

        path = tmp_path / "tiny.json"
        ScenarioSpec(
            name="tiny",
            system=homogeneous_system(switch_ports=4, tree_depth=2, num_clusters=4),
            message=MessageSpec(16, 256.0),
        ).save(path)
        return str(path)

    def test_vary_run_with_csv_out(self, capsys, tiny_config, tmp_path):
        from repro.io import load_curve_csv

        out = tmp_path / "cal.csv"
        code, text, _ = run_cli(
            capsys, "calibrate", "--config", tiny_config,
            "--vary", "relaxing_factor=true,false",
            "--messages", "200", "--out", str(out),
        )
        assert code == 0
        assert "calibration of 2 option combinations" in text
        assert "global winner:" in text
        columns = load_curve_csv(out)
        assert columns["combination"] == ["relaxing_factor=True", "relaxing_factor=False"]
        assert columns["relaxing_factor"] == [True, False]

    def test_fix_restricts_the_space(self, capsys, tiny_config):
        code, text, _ = run_cli(
            capsys, "calibrate", "--config", tiny_config,
            "--fix", "tcn_convention=half_network_latency",
            "--fix", "source_queue_rate=paper",
            "--fix", "variance_approximation=paper",
            "--fix", "inter_average=paper",
            "--fix", "concentrator_rate=pair_mean",
            "--fractions", "0.2,0.5",
            "--messages", "200", "--seed", "2", "--seed-stride", "0",
        )
        assert code == 0
        assert "calibration of 2 option combinations" in text
        assert "loads at 0.2, 0.5" in text

    def test_cache_serves_second_run(self, capsys, tiny_config, tmp_path):
        cache = str(tmp_path / "cache")
        args = (
            "calibrate", "--config", tiny_config,
            "--vary", "relaxing_factor=true,false",
            "--messages", "200", "--cache", cache,
        )
        code, first, _ = run_cli(capsys, *args)
        assert code == 0 and "simulated 4 point(s) (0 of 1 curves from cache" in first
        code, second, _ = run_cli(capsys, *args, "--jobs", "2")
        assert code == 0 and "simulated 0 point(s) (1 of 1 curves from cache" in second
        strip = lambda text: [l for l in text.splitlines() if not l.startswith("simulated")]
        assert strip(first) == strip(second)

    def test_unknown_fix_knob_is_clean_error(self, capsys):
        code, _, err = run_cli(
            capsys, "calibrate", "--scenario", "544", "--fix", "drain_model=x"
        )
        assert code == 2
        assert "unknown model option" in err

    def test_bad_vary_value_is_clean_error(self, capsys):
        code, _, err = run_cli(
            capsys, "calibrate", "--scenario", "544", "--vary", "relaxing_factor=maybe"
        )
        assert code == 2
        assert "relaxing_factor must be true/false" in err

    def test_bad_fractions_is_clean_error(self, capsys):
        code, _, err = run_cli(
            capsys, "calibrate", "--scenario", "544", "--fractions", "0.2;0.4"
        )
        assert code == 2
        assert "--fractions" in err

    def test_multi_scenario_rejects_overrides(self, capsys):
        code, _, err = run_cli(
            capsys, "calibrate", "--scenario", "544,1120", "--flits", "64"
        )
        assert code == 2
        assert "does not support" in err

    def test_multi_scenario_rejects_config(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "calibrate", "--scenario", "544,1120", "--config", str(tmp_path / "x.json")
        )
        assert code == 2
        assert "conflicts with --config/--system" in err
