"""The compiled array core is the message-level engine of every entry point
whose caller names none.

Each entry point runs with no engine while ``eventcore.array_run`` counts
its calls; where an engine can be passed, the default's results equal
``engine="reference"`` (the Python loop kept as the oracle), wall-clock
fields aside.  The flit granularity keeps its one engine, and without the
kernel the default falls back to the reference loop with one warning.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cluster import homogeneous_system
from repro.core import MessageSpec
from repro.experiments import Experiment
from repro.experiments.calibrate import DEFAULT_FRACTIONS, calibrate_options
from repro.scenarios import ScenarioSpec
from repro.simulation import (
    MeasurementWindow,
    SimulationConfig,
    eventcore,
    kernel_available,
    replicate,
    simulate,
)
from repro.simulation.flitsim import FlitLevelSimulator
from repro.validation import light_load_point, reproduction_report, run_validation

ROOT = Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.skipif(
    not kernel_available(), reason="no C compiler/kernel on this host"
)

WINDOW = MeasurementWindow(50, 400, 50)
LOAD = 1e-3


def tiny_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="tiny",
        system=homogeneous_system(switch_ports=4, tree_depth=2, num_clusters=4),
        message=MessageSpec(16, 256.0),
    )


def no_wall(result):
    return replace(result, wall_seconds=0.0)


@pytest.fixture
def array_runs(monkeypatch):
    """The engine of every simulator that reached the compiled core."""
    calls = []
    original = eventcore.array_run

    def counting(sim, **kwargs):
        calls.append(sim.engine)
        return original(sim, **kwargs)

    monkeypatch.setattr(eventcore, "array_run", counting)
    return calls


class TestSimulationLayer:
    def test_session_run(self, small_session, array_runs):
        result = small_session.run(LOAD, seed=3, window=WINDOW)
        assert array_runs == ["array"]
        reference = small_session.run(LOAD, seed=3, window=WINDOW, engine="reference")
        assert array_runs == ["array"]
        assert no_wall(result) == no_wall(reference)

    def test_simulate_config(self, small_system, small_message, array_runs):
        config = SimulationConfig(
            system=small_system, message=small_message, generation_rate=LOAD, seed=4, window=WINDOW
        )
        assert config.engine is None
        result = simulate(config)
        assert len(array_runs) == 1
        reference = simulate(replace(config, engine="reference"))
        assert no_wall(result) == no_wall(reference)

    def test_replicate(self, small_session, array_runs):
        rep = replicate(small_session, LOAD, replicas=2, base_seed=5, window=WINDOW)
        assert len(array_runs) == 2
        reference = replicate(
            small_session, LOAD, replicas=2, base_seed=5, window=WINDOW, engine="reference"
        )
        assert len(array_runs) == 2
        assert [no_wall(r) for r in rep.replicas] == [no_wall(r) for r in reference.replicas]
        assert rep.mean_latency == reference.mean_latency
        assert rep.ci_half_width == reference.ci_half_width


class TestFlitGranularity:
    def test_no_engine_runs_the_flit_engine(self, small_session, array_runs, monkeypatch):
        flit_runs = []
        original = FlitLevelSimulator.run

        def counting(sim, **kwargs):
            flit_runs.append(sim)
            return original(sim, **kwargs)

        monkeypatch.setattr(FlitLevelSimulator, "run", counting)
        window = MeasurementWindow(20, 100, 20)
        result = small_session.run(LOAD, seed=6, window=window, granularity="flit")
        assert len(flit_runs) == 1 and array_runs == []
        assert result.granularity == "flit"
        config = SimulationConfig(
            system=small_session.system_config,
            message=small_session.message,
            generation_rate=LOAD,
            seed=6,
            window=window,
            granularity="flit",
        )
        assert no_wall(simulate(config)) == no_wall(result)
        assert len(flit_runs) == 2 and array_runs == []


class TestValidationLayer:
    def test_run_validation(self, small_session, array_runs):
        curve = run_validation(small_session, [5e-4, LOAD], seed=7, window=WINDOW)
        assert len(array_runs) == 2
        reference = run_validation(
            small_session, [5e-4, LOAD], seed=7, window=WINDOW, engine="reference"
        )
        assert len(array_runs) == 2
        assert curve.points == reference.points
        assert [no_wall(r) for r in curve.sim_results] == [
            no_wall(r) for r in reference.sim_results
        ]

    def test_light_load_point(self, small_session, array_runs):
        point = light_load_point(small_session, window=WINDOW)
        assert len(array_runs) == 1
        assert point.sim_completed

    def test_reproduction_report(self, array_runs):
        report = reproduction_report(messages_per_point=100, points_per_curve=2)
        assert array_runs and set(array_runs) == {"array"}
        assert "simulation" in report.text


class TestExperimentLayer:
    @pytest.fixture(scope="class")
    def experiment(self):
        return Experiment(tiny_spec())

    def test_simulate(self, experiment, array_runs):
        result = experiment.simulate(LOAD, messages=300, seed=8)
        assert len(array_runs) == 1
        reference = experiment.simulate(LOAD, messages=300, seed=8, engine="reference")
        assert len(array_runs) == 1
        assert result.data == reference.data

    def test_simulate_replicas(self, experiment, array_runs):
        result = experiment.simulate(LOAD, messages=300, seed=9, replicas=2)
        assert len(array_runs) == 2
        reference = experiment.simulate(LOAD, messages=300, seed=9, replicas=2, engine="reference")
        assert len(array_runs) == 2
        timing = {"wall_seconds", "elapsed_seconds", "events_per_second"}
        assert {k: v for k, v in result.data.items() if k not in timing} == {
            k: v for k, v in reference.data.items() if k not in timing
        }

    def test_validate(self, experiment, array_runs):
        result = experiment.validate(points=2, messages=300, seed=10)
        assert len(array_runs) == 2
        reference = experiment.validate(points=2, messages=300, seed=10, engine="reference")
        assert len(array_runs) == 2
        assert result.data["columns"] == reference.data["columns"]
        assert result.data["sim_events"] == reference.data["sim_events"]

    def test_knee(self, experiment, array_runs):
        result = experiment.knee(messages=300, iterations=2)
        assert len(array_runs) == len(result.data["probes"]) >= 1

    def test_calibrate_options(self, array_runs):
        calibrate_options(
            [tiny_spec()], axes=[("relaxing_factor", (True, False))], messages=300, seed=1
        )
        # The simulated ground truth is shared by every option combination.
        assert len(array_runs) == len(DEFAULT_FRACTIONS)


#: A default validate in a fresh interpreter whose kernel is unavailable.
DEFAULT_VALIDATE = """
import json
from repro.experiments import Experiment

result = Experiment("544").validate(messages=300, points=3)
print(json.dumps(result.data["columns"]))
"""


@pytest.fixture(scope="module")
def reference_columns():
    return Experiment("544").validate(messages=300, points=3, engine="reference").data["columns"]


def assert_falls_back_with_one_warning(env_updates, reason, reference_columns):
    env = dict(os.environ, **env_updates)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", DEFAULT_VALIDATE], capture_output=True, text=True, env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    warning = f"RuntimeWarning: engine='array' is running the reference loop: {reason}"
    lines = [line for line in proc.stderr.splitlines() if "RuntimeWarning" in line]
    assert len(lines) == 1 and warning in lines[0], proc.stderr
    assert json.loads(proc.stdout) == reference_columns


def test_kernel_off_default_falls_back_with_one_warning(reference_columns):
    assert_falls_back_with_one_warning(
        {"REPRO_SIM_KERNEL": "0"}, "REPRO_SIM_KERNEL=0 turns the kernel off", reference_columns
    )


def test_world_writable_kernel_cache_falls_back_with_one_warning(tmp_path, reference_columns):
    cache = tmp_path / "kernels"
    cache.mkdir()
    cache.chmod(0o777)
    assert_falls_back_with_one_warning(
        {"REPRO_EVENTCORE_CACHE": str(cache)},
        f"the kernel cache {cache} is writable by its group or others",
        reference_columns,
    )
    assert list(cache.iterdir()) == []
