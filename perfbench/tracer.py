"""Span tracer for the benchmark's traced run.

Spans are recorded from the benchmark's side only: :func:`install` wraps
the library's public entry points (class methods on their class, module
functions where their caller looks them up) and :func:`uninstall` puts
the originals back.  Spans stay in memory with parent links until
:meth:`Tracer.dump` writes them out; :func:`layer_metrics` reduces them to
the per-layer metrics named in ``BENCHMARK.json``.

Only the standard library is imported at module level, so loading the
tracer adds nothing to the measured start-up of the package.
"""

from __future__ import annotations

import json
import os
import pickle
import time
from collections import Counter
from pathlib import Path

_now = time.perf_counter


class Tracer:
    """In-memory span recorder with parent links and plain counters."""

    def __init__(self) -> None:
        # (span id, parent id or -1, name, start, end, outermost of its name)
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._next = 0

    def wrap(self, name: str, fn, after=None):
        """*fn* timed as a span named *name*; ``after(result, args)`` runs inside it."""
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next
            tracer._next += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(sid)
            tracer._open[name] += 1
            start = _now()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, args)
                return result
            finally:
                end = _now()
                outermost = tracer._open[name] == 1
                tracer._open[name] -= 1
                tracer._stack.pop()
                tracer.spans.append((sid, parent, name, start, end, outermost))

        traced.__wrapped__ = fn
        return traced

    def counted(self, name: str, fn):
        """*fn* with a call counter and no span (for per-pair hot calls)."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def seconds(self, name: str) -> float:
        """Time inside spans of *name*, not counting re-entrant nesting."""
        return sum(s[4] - s[3] for s in self.spans if s[2] == name and s[5])

    def self_seconds(self, name: str) -> float:
        """Time inside spans of *name* that no child span covers."""
        child_time: Counter = Counter()
        for _sid, parent, _name, start, end, _outer in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return sum((s[4] - s[3]) - child_time[s[0]] for s in self.spans if s[2] == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[2] == name)

    def root_seconds(self) -> float:
        """Time covered by top-level spans (they never overlap)."""
        return sum(s[4] - s[3] for s in self.spans if s[1] < 0)

    def dump(self, path: Path) -> None:
        """Write every span (one JSON object a line), then the counters."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for sid, parent, name, start, end, _outer in self.spans:
                record = {"id": sid, "parent": parent, "name": name, "start": start, "end": end}
                out.write(json.dumps(record) + "\n")
            out.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def _patch(undo: list, owner, attr: str, replacement) -> None:
    undo.append((owner, attr, vars(owner)[attr]))
    setattr(owner, attr, replacement)


def _patch_method(undo: list, tracer: Tracer, cls, attr: str, name: str, after=None) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        _patch(undo, cls, attr, classmethod(tracer.wrap(name, raw.__func__, after)))
    else:
        _patch(undo, cls, attr, tracer.wrap(name, raw, after))


def install(tracer: Tracer) -> list:
    """Wrap the layer entry points; returns the undo list for :func:`uninstall`."""
    import repro.core.parameters as parameters
    import repro.experiments.experiment as experiment
    import repro.experiments.explore as explore
    import repro.performability as performability
    import repro.simulation.eventcore as eventcore
    from repro.core.batch import BatchedModel
    from repro.core.model import AnalyticalModel
    from repro.core.stacked import StackedModel
    from repro.exec import RunJournal
    from repro.io.cache import ResultCache
    from repro.scenarios.grid import DesignGrid
    from repro.simulation.fabric import ResolvedFabric
    from repro.simulation.metrics import LatencyCollector
    from repro.simulation.runner import SimulationSession
    from repro.simulation.wormhole import MessageLevelWormholeSimulator

    undo: list = []
    counts = tracer.counts

    # scenarios + core
    _patch_method(undo, tracer, DesignGrid, "cells", "scenarios.cells")
    _patch(
        undo, parameters, "nodes_in_tree",
        tracer.counted("core.nodes_in_tree", parameters.nodes_in_tree),
    )
    _patch_method(undo, tracer, StackedModel, "from_specs", "core.plan")
    _patch_method(undo, tracer, StackedModel, "saturation_load", "core.saturation")
    _patch_method(undo, tracer, StackedModel, "knee_loads", "core.knee")
    _patch_method(undo, tracer, StackedModel, "loads_at_budget", "core.budget")
    _patch_method(undo, tracer, BatchedModel, "__init__", "core.batched_build")
    _patch_method(undo, tracer, BatchedModel, "evaluate_many", "core.batched_eval")
    _patch_method(undo, tracer, BatchedModel, "saturation_loads", "core.batched_saturation")

    # analysis
    for module in (experiment, explore):
        _patch(
            undo, module, "max_load_for_latency",
            tracer.wrap("analysis.capacity", module.max_load_for_latency),
        )
        _patch(undo, module, "render_table", tracer.wrap("analysis.render", module.render_table))
    _patch(
        undo, experiment, "model_bottlenecks",
        tracer.wrap("analysis.bottlenecks", experiment.model_bottlenecks),
    )

    def count_states(result, _args):
        counts["performability.states"] += len(result.data["states"])

    _patch(
        undo, performability, "performability_analysis",
        tracer.wrap("performability", performability.performability_analysis, count_states),
    )

    # exec: the supervised pool, its payloads and its result callbacks
    supervised = tracer.wrap("exec.supervised", explore.run_supervised)

    def traced_run_supervised(fn, payloads, **kwargs):
        items = list(payloads)
        counts["exec.items"] += len(items)
        counts["exec.payload_bytes"] += sum(len(pickle.dumps(item)) for item in items)
        on_result = kwargs.get("on_result")
        if on_result is not None:
            kwargs["on_result"] = tracer.wrap("exec.callback", on_result)
        outcomes = supervised(fn, items, **kwargs)
        counts["exec.attempts"] += sum(outcome.attempts for outcome in outcomes)
        return outcomes

    _patch(undo, explore, "run_supervised", traced_run_supervised)

    # io: cache keys, puts, fsyncs, bytes, replay reads
    _patch(undo, explore, "cell_cache_key", tracer.wrap("io.key", explore.cell_cache_key))

    def put_bytes(path, _args):
        counts["io.bytes_written"] += path.stat().st_size

    _patch_method(undo, tracer, ResultCache, "put", "io.put", put_bytes)

    record = tracer.wrap("exec.journal", RunJournal.__dict__["record"])

    def traced_record(self, key, **meta):
        before = self.path.stat().st_size if self.path.exists() else 0
        record(self, key, **meta)
        counts["io.bytes_written"] += self.path.stat().st_size - before

    _patch(undo, RunJournal, "record", traced_record)

    def count_hits(entries, _args):
        counts["io.lookups"] += len(entries)
        counts["io.hits"] += sum(entry is not None for entry in entries)

    _patch_method(undo, tracer, ResultCache, "get_many", "io.get_many", count_hits)
    _patch(undo, os, "fsync", tracer.counted("io.fsync", os.fsync))

    # simulation + validation
    def count_events(result, _args):
        counts["simulation.events"] += result.events

    _patch_method(undo, tracer, SimulationSession, "__init__", "simulation.session")
    _patch_method(undo, tracer, SimulationSession, "run", "simulation.run", count_events)
    _patch_method(undo, tracer, SimulationSession, "_package", "simulation.reduce")
    _patch_method(undo, tracer, LatencyCollector, "stats", "simulation.reduce")
    _patch_method(undo, tracer, LatencyCollector, "per_cluster_means", "simulation.reduce")
    _patch_method(undo, tracer, MessageLevelWormholeSimulator, "__init__", "simulation.sim_init")
    _patch(
        undo, eventcore, "kernel_prepass",
        tracer.wrap("simulation.prepass", eventcore.kernel_prepass),
    )
    _patch_method(undo, tracer, eventcore._EventCoreContext, "paths_for", "simulation.paths")
    _patch_method(undo, tracer, eventcore._EventCoreContext, "arrays", "simulation.tables")
    _patch(
        undo, ResolvedFabric, "resolve",
        tracer.counted("simulation.pair_resolutions", ResolvedFabric.__dict__["resolve"]),
    )
    _patch_method(undo, tracer, AnalyticalModel, "evaluate", "validation.model")
    _patch_method(undo, tracer, experiment.Experiment, "load_grid", "experiments.load_grid")
    return undo


def uninstall(undo: list) -> None:
    """Restore every attribute :func:`install` replaced (last patch first)."""
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


#: Per-layer metric name -> unit, in report order.
LAYER_UNITS = {
    "startup.import_s": "s",
    "startup.modules": "count",
    "scenarios.cells_s": "s",
    "core.nodes_in_tree_calls": "count",
    "core.plan_s": "s",
    "core.saturation_s": "s",
    "core.knee_s": "s",
    "core.budget_s": "s",
    "core.batched_builds": "count",
    "core.batched_build_s": "s",
    "core.batched_evals": "count",
    "core.batched_eval_s": "s",
    "core.batched_saturation_s": "s",
    "analysis.capacity_s": "s",
    "analysis.bottlenecks_s": "s",
    "analysis.render_s": "s",
    "performability.states": "count",
    "performability.s": "s",
    "exec.supervised_s": "s",
    "exec.wait_s": "s",
    "exec.items": "count",
    "exec.attempts": "count",
    "exec.payload_bytes": "bytes",
    "exec.journal_records": "count",
    "exec.journal_s": "s",
    "io.key_s": "s",
    "io.puts": "count",
    "io.put_s": "s",
    "io.fsyncs": "count",
    "io.bytes_written": "bytes",
    "io.get_many_s": "s",
    "io.hit_ratio": "ratio",
    "experiments.replay_cells_per_s": "1/s",
    "simulation.session_s": "s",
    "simulation.sim_init_s": "s",
    "simulation.prepass_s": "s",
    "simulation.paths_s": "s",
    "simulation.pair_resolutions": "count",
    "simulation.tables_s": "s",
    "simulation.kernel_s": "s",
    "simulation.kernel_events_per_s": "1/s",
    "simulation.reduce_s": "s",
    "simulation.events": "count",
    "validation.model_s": "s",
    "experiments.load_grid_s": "s",
    "experiments.self_s": "s",
    "trace.overhead": "ratio",
}


def layer_metrics(
    tracer: Tracer,
    *,
    import_s: float,
    modules: int,
    traced_s: float,
    overhead: float,
    replay_cells: int,
    replay_s: float,
) -> dict:
    """Reduce the recorded spans to the per-layer metrics (value by name)."""
    t, c = tracer, tracer.counts
    supervised = t.seconds("exec.supervised")
    kernel = t.self_seconds("simulation.run")
    events = c["simulation.events"]
    values = {
        "startup.import_s": import_s,
        "startup.modules": modules,
        "scenarios.cells_s": t.seconds("scenarios.cells"),
        "core.nodes_in_tree_calls": c["core.nodes_in_tree"],
        "core.plan_s": t.seconds("core.plan"),
        "core.saturation_s": t.seconds("core.saturation"),
        "core.knee_s": t.seconds("core.knee"),
        "core.budget_s": t.seconds("core.budget"),
        "core.batched_builds": t.calls("core.batched_build"),
        "core.batched_build_s": t.seconds("core.batched_build"),
        "core.batched_evals": t.calls("core.batched_eval"),
        "core.batched_eval_s": t.seconds("core.batched_eval"),
        "core.batched_saturation_s": t.seconds("core.batched_saturation"),
        "analysis.capacity_s": t.seconds("analysis.capacity"),
        "analysis.bottlenecks_s": t.seconds("analysis.bottlenecks"),
        "analysis.render_s": t.seconds("analysis.render"),
        "performability.states": c["performability.states"],
        "performability.s": t.seconds("performability"),
        "exec.supervised_s": supervised,
        "exec.wait_s": supervised - t.seconds("exec.callback"),
        "exec.items": c["exec.items"],
        "exec.attempts": c["exec.attempts"],
        "exec.payload_bytes": c["exec.payload_bytes"],
        "exec.journal_records": t.calls("exec.journal"),
        "exec.journal_s": t.seconds("exec.journal"),
        "io.key_s": t.seconds("io.key"),
        "io.puts": t.calls("io.put"),
        "io.put_s": t.seconds("io.put"),
        "io.fsyncs": c["io.fsync"],
        "io.bytes_written": c["io.bytes_written"],
        "io.get_many_s": t.seconds("io.get_many"),
        "io.hit_ratio": c["io.hits"] / c["io.lookups"] if c["io.lookups"] else 0.0,
        "experiments.replay_cells_per_s": replay_cells / replay_s if replay_s > 0 else 0.0,
        "simulation.session_s": t.seconds("simulation.session"),
        "simulation.sim_init_s": t.seconds("simulation.sim_init"),
        "simulation.prepass_s": t.seconds("simulation.prepass"),
        "simulation.paths_s": t.seconds("simulation.paths"),
        "simulation.pair_resolutions": c["simulation.pair_resolutions"],
        "simulation.tables_s": t.seconds("simulation.tables"),
        "simulation.kernel_s": kernel,
        "simulation.kernel_events_per_s": events / kernel if kernel > 0 else 0.0,
        "simulation.reduce_s": t.seconds("simulation.reduce"),
        "simulation.events": events,
        "validation.model_s": t.seconds("validation.model"),
        "experiments.load_grid_s": t.seconds("experiments.load_grid"),
        "experiments.self_s": traced_s - t.root_seconds(),
        "trace.overhead": overhead,
    }
    if values.keys() != LAYER_UNITS.keys():
        raise RuntimeError("layer metric set out of step with LAYER_UNITS")
    return values
