"""The benchmark's four workloads: seeded inputs, timed passes, output checks.

Each workload is a loop of *passes*.  :meth:`Workload.inputs` derives one
pass's inputs from the workload seed and the pass index (plain numbers,
made outside the timed region); :meth:`Workload.run_pass` hands them to
the library's public API and times the calls; :meth:`Workload.check`
verifies the stored outputs after the body, untimed.  Every pass gets
fresh inputs: new grid values, new simulator seed blocks and new
``Experiment`` objects.

Importing this module imports the package under test, so the worker
times the import of this module as the package's start-up.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
import traceback
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro import Experiment
from repro.core.stacked import StackedModel
from repro.exec import RunPolicy
from repro.experiments import explore_grid
from repro.performability import FailureMode, FailureScenario
from repro.scenarios import AxisSpec, DesignGrid, get_scenario, scenario_names
from repro.simulation import MeasurementWindow, kernel_available

_now = time.perf_counter


@dataclass
class Pass:
    """What one timed pass did, plus what its checks need."""

    ops: int = 0
    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    replay_cells: int = 0
    replay_seconds: float = 0.0
    record: dict = field(default_factory=dict)
    #: Host speed during the pass over the reference speed (set by the worker).
    host_scale: float = 1.0


def _rng(seed: int, stream: str, index: int) -> np.random.Generator:
    """The generator of one named input stream at one pass index."""
    return np.random.default_rng([seed, zlib.crc32(stream.encode()), index])


def _distinct(rng: np.random.Generator, low: float, high: float, count: int) -> tuple:
    """*count* distinct seeded values in ``[low, high)``, rounded to 0.001."""
    values: set = set()
    while len(values) < count:
        values.add(round(float(rng.uniform(low, high)), 3))
    return tuple(sorted(values))


def _attempt(out: Pass, call):
    """One library operation; one that raises is a failed operation."""
    out.attempted += 1
    try:
        return call()
    except Exception:
        traceback.print_exc()
        out.failed += 1
        return None


def _table_text(result) -> str:
    """A result table as JSON text (NaN-safe equality for the checks)."""
    return json.dumps(result.data["columns"], sort_keys=True)


class Workload:
    """One benchmark workload; subclasses fill in the three hooks."""

    name = ""
    #: Seconds of ``--seconds`` one pass stands for: the body runs
    #: ``round(seconds / pass_seconds)`` passes, at least one.  Roughly a
    #: pass's duration on the 2-core host the benchmark was tuned on.
    pass_seconds = 1.0

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def inputs(self, index: int) -> dict:
        raise NotImplementedError

    def run_pass(self, inputs: dict) -> Pass:
        raise NotImplementedError

    def check(self, passes: "list[Pass]") -> "tuple[int, int]":
        """Verify stored outputs; returns ``(checks attempted, checks failed)``."""
        raise NotImplementedError


class _ExploreGrid(Workload):
    """Shared grid construction of the two explore workloads."""

    depths_first = (3, 4, 5)
    depths_last = (3, 4, 5)
    bandwidths = 5
    lengths = (16, 32, 64)
    flit_bytes = (128.0, 256.0)

    def inputs(self, index: int) -> dict:
        rng = _rng(self.seed, self.name, index)
        return {
            "bandwidths": _distinct(rng, 200.0, 800.0, self.bandwidths),
            "budget": round(float(rng.uniform(150.0, 300.0)), 3),
            "sample": int(rng.integers(1 << 30)),
        }

    def grid(self, inputs: dict, coords: "dict | None" = None) -> DesignGrid:
        axes = {
            "system.clusters.0.tree_depth": self.depths_first,
            "system.clusters.15.tree_depth": self.depths_last,
            "system.icn2.bandwidth": inputs["bandwidths"],
            "message.length_flits": self.lengths,
            "message.flit_bytes": self.flit_bytes,
        }
        if coords is not None:
            axes = {path: (coords[path],) for path in axes}
        base = get_scenario("544").with_overrides(latency_budget=inputs["budget"])
        return DesignGrid(base=base, axes=tuple(AxisSpec(p, v) for p, v in axes.items()))


class ExploreStacked(_ExploreGrid):
    """Serial ``explore_grid`` (no cache, no jobs) over ragged seeded grids."""

    name = "explore_stacked"
    pass_seconds = 1.2

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        super().__init__(seed, tiny, workdir)
        if tiny:
            self.depths_first, self.depths_last = (3, 4), (3,)
            self.bandwidths, self.lengths, self.flit_bytes = 2, (16,), (256.0,)

    def run_pass(self, inputs: dict) -> Pass:
        start = _now()
        result = explore_grid(self.grid(inputs))
        seconds = _now() - start
        cells = result.data["cells"]
        sample = cells[inputs["sample"] % len(cells)]
        return Pass(
            ops=len(cells),
            seconds=seconds,
            attempted=len(cells),
            failed=len(result.data["errors"]) + (not result.data["stacked"]),
            record={"inputs": inputs, "coords": sample["coords"], "metrics": sample["metrics"]},
        )

    def check(self, passes):
        """A seeded cell of each pass, re-run on the per-cell path, must match."""
        failed = 0
        for p in passes:
            grid = self.grid(p.record["inputs"], coords=p.record["coords"])
            per_cell = explore_grid(grid, policy=RunPolicy())
            metrics = per_cell.data["cells"][0]["metrics"]
            same = json.dumps(metrics, sort_keys=True) == json.dumps(
                p.record["metrics"], sort_keys=True
            )
            failed += per_cell.data["stacked"] or not same
        return len(passes), failed


class ExplorePool(_ExploreGrid):
    """``jobs=2`` into an empty cache directory, then replays from it."""

    name = "explore_pool"
    pass_seconds = 4.0
    depths_first = (3, 4)
    depths_last = (3, 4)
    bandwidths = 3
    flit_bytes = (256.0,)
    replays = 3

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        super().__init__(seed, tiny, workdir)
        if tiny:
            self.depths_last, self.bandwidths, self.lengths = (3,), 2, (16,)
            self.replays = 1

    def run_pass(self, inputs: dict) -> Pass:
        root = Path(tempfile.mkdtemp(prefix="cache-", dir=self.workdir))
        try:
            start = _now()
            grid = self.grid(inputs)
            cold = explore_grid(grid, jobs=2, cache=root)
            seconds = _now() - start
            size = grid.size
            failed = len(cold.data["errors"]) + (cold.data["evaluated"] != size)
            texts = [_table_text(cold)]
            replay_seconds = 0.0
            for _ in range(self.replays):
                start = _now()
                replay = explore_grid(grid, jobs=2, cache=root)
                replay_seconds += _now() - start
                failed += replay.data["cache_hits"] != size
                texts.append(_table_text(replay))
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return Pass(
            ops=size,
            seconds=seconds,
            attempted=size * (1 + self.replays),
            failed=failed,
            replay_cells=size * self.replays,
            replay_seconds=replay_seconds,
            record={"inputs": inputs, "texts": texts},
        )

    def check(self, passes):
        """The pooled table and every replay must equal the stacked table."""
        failed = 0
        for p in passes:
            stacked = _table_text(explore_grid(self.grid(p.record["inputs"])))
            failed += any(text != stacked for text in p.record["texts"])
        return len(passes), failed


class ValidateCold(Workload):
    """``Experiment.validate(engine="array")`` on fresh experiments and seeds."""

    name = "validate_cold"
    pass_seconds = 14.0
    scenarios = ("544", "het8-split")
    messages = 10_000
    check_messages = 1_000

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        super().__init__(seed, tiny, workdir)
        if tiny:
            self.messages = self.check_messages = 300
        # Without the compiled kernel engine="array" quietly runs the
        # reference loop, so an unavailable kernel fails the workload.
        self.kernel = kernel_available()

    def inputs(self, index: int) -> dict:
        rng = _rng(self.seed, self.name, index)
        return {name: int(rng.integers(1, 1 << 30)) for name in self.scenarios}

    def run_pass(self, inputs: dict) -> Pass:
        out = Pass()
        for name, seed in inputs.items():
            start = _now()
            result = _attempt(
                out,
                lambda: Experiment(name).validate(engine="array", messages=self.messages, seed=seed),
            )
            out.seconds += _now() - start
            if result is not None:
                out.ops += result.data["sim_events"]
                out.failed += not np.all(np.isfinite(result.data["columns"]["simulation"]))
        return out

    def check(self, passes):
        """The kernel loaded, and one short point equals the reference engine."""
        rng = _rng(self.seed, self.name + ".check", 0)
        experiment = Experiment(self.scenarios[0])
        load = float(rng.uniform(0.2, 0.6)) * experiment.engine.saturation_load()
        seed = int(rng.integers(1, 1 << 30))
        window = MeasurementWindow.scaled_paper(self.check_messages)
        runs = [
            experiment.session().run(load, seed=seed, window=window, engine=engine)
            for engine in ("array", "reference")
        ]
        array, reference = (repr(replace(run, wall_seconds=0.0)) for run in runs)
        return 2, (not self.kernel) + (array != reference)


def _failure_modes(rng: np.random.Generator) -> FailureScenario:
    """The performability benchmark's node + ICN2 churn, rates drawn per pass."""
    scale = float(rng.uniform(0.5, 2.0))
    return FailureScenario(
        modes=(
            FailureMode(kind="node", failure_rate=1e-4 * scale, repair_rate=1e-2),
            FailureMode(
                kind="switch", role="icn2", count=2, failure_rate=1e-5 * scale, repair_rate=1e-2
            ),
            FailureMode(
                kind="link", role="icn2", level=1, count=2,
                failure_rate=1e-5 * scale, repair_rate=1e-2,
            ),
        ),
        name="bench",
    )


class ModelQueries(Workload):
    """Every registered scenario answers the single-cell model queries."""

    name = "model_queries"
    pass_seconds = 10.0
    performability_scenarios = ("544", "1120")

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        super().__init__(seed, tiny, workdir)
        self.scenarios = ("1120", "het8-split") if tiny else scenario_names()

    def inputs(self, index: int) -> dict:
        rng = _rng(self.seed, self.name, index)
        return {
            "budget_factor": {name: float(rng.uniform(1.5, 3.0)) for name in self.scenarios},
            "whatif_factor": {name: round(float(rng.uniform(1.1, 1.6)), 3) for name in self.scenarios},
            "failures": _failure_modes(rng),
        }

    def run_pass(self, inputs: dict) -> Pass:
        out = Pass(record={"saturation": {}})
        start = _now()
        for name in self.scenarios:
            e = Experiment(name)
            budget = inputs["budget_factor"][name]
            saturation = _attempt(out, e.saturation)
            _attempt(out, e.sweep)
            _attempt(out, lambda: e.capacity(budget=budget * e.engine.zero_load_latency()))
            _attempt(out, lambda: e.whatif("icn2", inputs["whatif_factor"][name]))
            _attempt(out, e.bottlenecks)
            if saturation is not None:
                out.record["saturation"][name] = saturation.data["saturation_load"]
        for name in self.performability_scenarios:
            _attempt(out, lambda: Experiment(name).performability(inputs["failures"]))
        out.seconds = _now() - start
        out.ops = out.attempted
        return out

    def check(self, passes):
        """Each scenario's λ* equals a one-cell ``StackedModel``, every pass."""
        failed = 0
        for name in self.scenarios:
            stacked = float(StackedModel.from_specs([get_scenario(name)]).saturation_load()[0])
            failed += any(p.record["saturation"].get(name) != stacked for p in passes)
        return len(self.scenarios), failed


WORKLOADS = {w.name: w for w in (ExploreStacked, ExplorePool, ValidateCold, ModelQueries)}
