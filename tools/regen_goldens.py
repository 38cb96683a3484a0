"""Regenerate the golden digest corpora.

Two corpora live under ``tests/goldens/``:

* ``trajectories.json`` pins one sha256 digest of the canonical trajectory
  (:func:`repro.simulation.eventcore.trajectory_digest`) per (scenario,
  seed, granularity) golden point.  CI replays every entry —
  message-granularity points under **both** event engines — so either
  engine drifting from its pinned trajectory fails by name.
* ``model_outputs.json`` pins one sha256 digest per closed-form model
  case (:func:`model_cases`) over the exact ``repr`` of every number in
  the per-resource saturation map, the binding resource, the zero-load
  latency, every ``ModelResult`` breakdown on a load grid from 0 to 1.15
  λ* and the resource utilisations at 0.9 λ*, and a second digest per
  case (:func:`search_digest`) over the knee loads at 2× and 4× the
  floor and the loads at budgets of 0.5×, 1.5× and 3× the floor and 1e9.
  The digests leave ``ENGINE_VERSION`` out on purpose: a refactor that
  bumps the version without changing a number keeps every digest.

``python -m tools.regen_goldens`` rewrites both files; ``--check`` only
compares them against a fresh build and exits 1 when either is stale.

Regen protocol (the RF003 discipline, applied to trajectories)
--------------------------------------------------------------
Digests leave ``TRAJECTORY_VERSION`` out, as the model corpus leaves
``ENGINE_VERSION`` out; the corpus header records the version it was
pinned under, and the suite checks that header against the code:

1. change the simulator, bump ``TRAJECTORY_VERSION`` in
   ``src/repro/simulation/runner.py``, and regenerate the reprolint
   fingerprints (``python -m tools.reprolint --write-fingerprints``);
2. regenerate this corpus in the same commit::

       PYTHONPATH=src python -m tools.regen_goldens

3. eyeball the diff: a refactor that keeps every trajectory rewrites only
   the ``trajectory_version`` line; an intentional semantic change also
   rewrites the digests of the entries it moved.  An *unintentional*
   trajectory change is caught by the suite before you ever get here.

The model corpus follows the same discipline, except that it records no
version at all, so an ``ENGINE_VERSION`` bump alone never rewrites it:
regenerate it only for an intentional change to the closed forms'
numbers, and say which numbers moved and why in the commit.

Never hand-edit digests, and never regenerate to silence a failure you
cannot explain — that failure is the corpus doing its job.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent

GOLDENS_PATH = ROOT / "tests" / "goldens" / "trajectories.json"
GOLDENS_SCHEMA = "repro.goldens.trajectories/1"
MODEL_GOLDENS_PATH = ROOT / "tests" / "goldens" / "model_outputs.json"
MODEL_GOLDENS_SCHEMA = "repro.goldens.model_outputs/2"

#: The corpus: (scenario, seed, granularity, load, (warmup, measured, drain)).
#: Message points span the registry's topology/traffic families; flit
#: points are smaller (the flit engine is ~50x slower per message).
GOLDEN_SPECS: tuple[tuple[str, int, str, float, tuple[int, int, int]], ...] = (
    ("544", 0, "message", 3e-4, (100, 600, 100)),
    ("544", 1, "message", 3e-4, (100, 600, 100)),
    ("544", 2024, "message", 3e-4, (100, 600, 100)),
    ("544-hotspot", 0, "message", 3e-4, (100, 600, 100)),
    ("544-hotspot", 1, "message", 3e-4, (100, 600, 100)),
    ("544-local", 0, "message", 3e-4, (100, 600, 100)),
    ("544-local", 2024, "message", 3e-4, (100, 600, 100)),
    ("het8-extreme", 0, "message", 3e-4, (100, 600, 100)),
    ("het8-extreme", 1, "message", 3e-4, (100, 600, 100)),
    ("het8-uniform", 0, "message", 3e-4, (100, 600, 100)),
    ("het8-uniform", 2024, "message", 3e-4, (100, 600, 100)),
    ("1120", 0, "message", 2e-4, (100, 400, 100)),
    ("544", 0, "flit", 3e-4, (20, 120, 20)),
    ("544", 1, "flit", 3e-4, (20, 120, 20)),
    ("het8-uniform", 0, "flit", 3e-4, (20, 120, 20)),
    ("het8-uniform", 1, "flit", 3e-4, (20, 120, 20)),
)


def golden_trajectory(scenario, seed, granularity, load, window, *, engine="reference"):
    """Run one golden point and return its trajectory."""
    from repro.cluster.system import HeterogeneousSystem
    from repro.core.parameters import ModelOptions
    from repro.scenarios.registry import get_scenario
    from repro.simulation.fabric import ResolvedFabric
    from repro.simulation.metrics import MeasurementWindow
    from repro.simulation.rng import make_streams

    spec = get_scenario(scenario)
    fabric = ResolvedFabric(HeterogeneousSystem(spec.system), spec.message, ModelOptions())
    mw = MeasurementWindow(*window)
    if granularity == "message":
        from repro.simulation.wormhole import MessageLevelWormholeSimulator

        sim = MessageLevelWormholeSimulator(
            fabric, mw, load, make_streams(seed), spec.pattern, engine=engine
        )
    else:
        from repro.simulation.flitsim import FlitLevelSimulator

        sim = FlitLevelSimulator(fabric, mw, load, make_streams(seed), spec.pattern)
    sim.run()
    return sim.trajectory()


def golden_digest(scenario, seed, granularity, load, window, *, engine="reference"):
    """Digest of one golden point (what the corpus pins)."""
    from repro.simulation.eventcore import trajectory_digest

    return trajectory_digest(
        golden_trajectory(scenario, seed, granularity, load, window, engine=engine)
    )


#: Option variants of the scalar-equivalence suite, evaluated on ``1120``.
_OPTION_VARIANTS: dict[str, dict[str, Any]] = {
    "per_node": {"source_queue_rate": "per_node"},
    "aggregate_pair": {"source_queue_rate": "aggregate_pair"},
    "source_outgoing": {"concentrator_rate": "source_outgoing"},
    "exponential": {"variance_approximation": "exponential"},
    "weighted": {"inter_average": "traffic_weighted"},
    "no-relax": {"relaxing_factor": False, "tcn_convention": "full_network_latency"},
}


def _registry_names() -> tuple[str, ...]:
    from repro.scenarios.registry import scenario_names

    return tuple(scenario_names())


def model_cases() -> tuple[str, ...]:
    """Names of the model corpus entries, in corpus order."""
    return (
        _registry_names()
        + tuple(f"1120/{variant}" for variant in _OPTION_VARIANTS)
        + ("tiny-hetero/hotspot", "tiny-hetero/locality-0", "single-cluster")
    )


def _tiny_hetero():
    from repro.core.parameters import ClusterSpec, SystemConfig

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


def model_engine(case: str):
    """The :class:`~repro.core.BatchedModel` one model corpus entry pins."""
    from repro.core import BatchedModel, ClusterSpec, MessageSpec, ModelOptions, SystemConfig
    from repro.scenarios.registry import get_scenario
    from repro.workloads import HotspotTraffic, LocalityTraffic

    message = MessageSpec(32, 256.0)
    if case in _registry_names():
        spec = get_scenario(case)
        return BatchedModel(spec.system, spec.message, spec.options, spec.pattern)
    if case.startswith("1120/"):
        options = ModelOptions(**_OPTION_VARIANTS[case.split("/", 1)[1]])
        return BatchedModel(get_scenario("1120").system, message, options)
    if case == "tiny-hetero/hotspot":
        return BatchedModel(_tiny_hetero(), message, pattern=HotspotTraffic(3, 0.4))
    if case == "tiny-hetero/locality-0":
        return BatchedModel(_tiny_hetero(), message, pattern=LocalityTraffic(0.0))
    if case == "single-cluster":
        single = SystemConfig(
            switch_ports=4, clusters=(ClusterSpec(tree_depth=3, name="solo"),), name="single"
        )
        return BatchedModel(single, message)
    raise KeyError(f"unknown model corpus case {case!r}")


def _canonical(value) -> str:
    """Type-strict text of a model output: dataclasses field by field,
    arrays element by element, every scalar by its ``repr``."""
    import numpy as np

    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = ",".join(
            f"{f.name}={_canonical(getattr(value, f.name))}" for f in dataclasses.fields(value)
        )
        return f"{type(value).__name__}({fields})"
    if isinstance(value, np.ndarray):
        return "array[" + ",".join(repr(float(v)) for v in value.ravel()) + "]"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(f"{k!r}:{_canonical(v)}" for k, v in value.items()) + "}"
    return repr(value)


def model_digest(case: str) -> str:
    """Digest of one model corpus entry (what ``model_outputs.json`` pins)."""
    import numpy as np

    engine = model_engine(case)
    lam_star = engine.saturation_load()
    grid = np.linspace(0.0, 1.15 * lam_star, 8)
    outputs = (
        engine.saturation_loads(),
        engine.binding_resource(),
        engine.zero_load_latency(),
        engine.evaluate_many(grid, with_results=True).results,
        engine.resource_utilizations(np.array([0.9 * lam_star])),
    )
    return hashlib.sha256(_canonical(outputs).encode("utf-8")).hexdigest()


def search_digest(case: str) -> str:
    """Digest of one model corpus entry's knee and budget searches.

    The budgets below the floor pin the infeasible-to-0 rule, and 1e9 a
    budget met at the search's 0.9999 λ* bound.
    """
    import numpy as np

    stack = model_engine(case).stack
    floor = stack.zero_load_latencies()
    budgets = (0.5 * floor, 1.5 * floor, 3.0 * floor, np.full(stack.cells, 1e9))
    outputs = (
        [stack.knee_loads(factor) for factor in (2.0, 4.0)],
        [stack.loads_at_budget(budget) for budget in budgets],
    )
    return hashlib.sha256(_canonical(outputs).encode("utf-8")).hexdigest()


def build_model_corpus() -> dict:
    """Compute every model corpus entry (no engine version: see the module doc)."""
    return {
        "schema": MODEL_GOLDENS_SCHEMA,
        "regen": "PYTHONPATH=src python -m tools.regen_goldens  (see the module docstring for the protocol)",
        "entries": [
            {"case": case, "digest": model_digest(case), "search_digest": search_digest(case)}
            for case in model_cases()
        ],
    }


def build_corpus() -> dict:
    """Compute every golden entry with the reference engine."""
    from repro.simulation.runner import TRAJECTORY_VERSION

    entries = []
    for scenario, seed, granularity, load, window in GOLDEN_SPECS:
        entries.append(
            {
                "scenario": scenario,
                "seed": seed,
                "granularity": granularity,
                "load": load,
                "window": list(window),
                "digest": golden_digest(scenario, seed, granularity, load, window),
            }
        )
    return {
        "schema": GOLDENS_SCHEMA,
        "trajectory_version": TRAJECTORY_VERSION,
        "regen": "PYTHONPATH=src python -m tools.regen_goldens  (see the module docstring for the protocol)",
        "entries": entries,
    }


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    check_only = "--check" in argv
    stale = 0
    for path, build in ((GOLDENS_PATH, build_corpus), (MODEL_GOLDENS_PATH, build_model_corpus)):
        corpus = build()
        text = json.dumps(corpus, indent=2) + "\n"
        if check_only:
            current = path.read_text(encoding="utf-8") if path.exists() else ""
            if current != text:
                print(f"{path} is stale; rerun without --check", file=sys.stderr)
                stale += 1
            else:
                print(f"{path} is up to date")
            continue
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path} ({len(corpus['entries'])} entries)")
    return 1 if stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
