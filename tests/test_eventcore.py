"""Differential harness for the array event core (simulation.eventcore).

Three layers of defence, per the bit-identical-trajectory contract:

* the pure-Python :func:`generation_schedule` is pinned against the
  compiled prepass (the kernel's heap order is proven by the trajectory
  equality below);
* the differential suite runs reference and array engines over registry
  scenarios × seeds × windows and asserts *exact* equality — full event
  trace, trajectory, and raw-result fields — never ``allclose``;
* the fallback path (no compiler) is proven equal too, so the engine
  switch can never change numbers regardless of toolchain.

Randomness is seeded through :mod:`repro.simulation.rng` (RD101: no
unseeded draws anywhere in the suite).
"""

import gc
import os
import stat
import weakref
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from repro.cluster.system import HeterogeneousSystem
from repro.core.parameters import ModelOptions
from repro.scenarios.registry import get_scenario
from repro.simulation import eventcore
from repro.simulation.eventcore import (
    canonical_trajectory,
    generation_schedule,
    kernel_available,
    kernel_prepass,
    trajectory_digest,
)
from repro.simulation.fabric import ResolvedFabric
from repro.simulation.metrics import MeasurementWindow
from repro.simulation.rng import make_streams
from repro.simulation.runner import ENGINES, SimulationConfig, SimulationSession
from repro.simulation.wormhole import MessageLevelWormholeSimulator

needs_kernel = pytest.mark.skipif(
    not kernel_available(), reason="no C compiler/kernel on this host"
)

SCENARIOS = ("544", "544-hotspot", "544-local", "544-x4", "het8-extreme", "het8-uniform")
SEEDS = (0, 1, 2024)
WINDOW = MeasurementWindow(100, 600, 100)
LOAD = 3e-4


@lru_cache(maxsize=None)
def scenario_fabric(name):
    spec = get_scenario(name)
    system = HeterogeneousSystem(spec.system)
    return spec, ResolvedFabric(system, spec.message, ModelOptions())


def run_engine(name, seed, engine, *, window=WINDOW, max_events=500_000_000, load=LOAD, **kw):
    """One traced run; returns (simulator, raw result, trace)."""
    spec, fabric = scenario_fabric(name)
    trace = []
    sim = MessageLevelWormholeSimulator(
        fabric, window, load, make_streams(seed), spec.pattern, engine=engine, **kw
    )
    raw = sim.run(max_events=max_events, trace=trace)
    return sim, raw, trace


def assert_identical(name, seed, **kw):
    """Reference vs array: exact equality of trace, trajectory and raw.
    Returns the reference run's raw result."""
    ref_sim, ref_raw, ref_trace = run_engine(name, seed, "reference", **kw)
    arr_sim, arr_raw, arr_trace = run_engine(name, seed, "array", **kw)
    assert ref_trace == arr_trace, f"{name} seed={seed}: event traces diverge"
    assert ref_sim.trajectory() == arr_sim.trajectory(), (
        f"{name} seed={seed}: trajectories diverge"
    )
    assert canonical_trajectory(ref_sim.trajectory()) == canonical_trajectory(
        arr_sim.trajectory()
    )
    assert ref_raw.events == arr_raw.events
    assert ref_raw.generated == arr_raw.generated
    assert ref_raw.duration == arr_raw.duration
    assert ref_raw.completed == arr_raw.completed
    # repr round-trips floats exactly and renders NaN as "nan", so this is
    # still bit-exact for truncated runs whose stats hold NaN fields.
    assert repr(ref_raw.stats) == repr(arr_raw.stats)
    assert repr(ref_raw.per_cluster_means) == repr(arr_raw.per_cluster_means)
    assert ref_raw.busy_time_by_group == arr_raw.busy_time_by_group
    return ref_raw


# ---------------------------------------------------------------------------
# generation schedule: Python spec vs compiled prepass
# ---------------------------------------------------------------------------


class TestGenerationSchedule:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n_nodes,total", [(4, 50), (32, 400), (544, 800)])
    def test_python_schedule_is_deterministic(self, seed, n_nodes, total):
        gaps = make_streams(seed).arrivals.standard_exponential(n_nodes + total)
        a = generation_schedule(gaps, n_nodes, total)
        b = generation_schedule(gaps, n_nodes, total)
        for x, y in zip(a, b):
            assert x.tolist() == y.tolist()

    @needs_kernel
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n_nodes,total", [(4, 50), (32, 400), (544, 800)])
    def test_kernel_prepass_matches_python(self, seed, n_nodes, total):
        gaps = make_streams(seed).arrivals.standard_exponential(n_nodes + total)
        py = generation_schedule(gaps, n_nodes, total)
        c = kernel_prepass(gaps, n_nodes, total)
        for spec_col, kernel_col in zip(py, c):
            assert spec_col.tolist() == kernel_col.tolist()

    def test_schedule_times_monotone(self):
        gaps = make_streams(1).arrivals.standard_exponential(8 + 100)
        g_time, g_node, dead_time, _ = generation_schedule(gaps, 8, 100)
        assert g_time.tolist() == sorted(g_time.tolist())
        assert all(int(n) < 8 for n in g_node)
        # Dead arrivals drain strictly after scheduling, at/after the last
        # generation's time.
        assert min(dead_time) >= g_time[-1] or len(dead_time) == 8

    def test_short_gaps_rejected(self):
        with pytest.raises(ValueError):
            generation_schedule([0.1, 0.2], 2, 5)


# ---------------------------------------------------------------------------
# the differential suite: reference vs array, exact equality
# ---------------------------------------------------------------------------


@needs_kernel
class TestDifferentialTrajectories:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_bit_identical_across_scenarios_and_seeds(self, scenario, seed):
        assert_identical(scenario, seed)

    @pytest.mark.parametrize("scenario", ("544", "544-hotspot"))
    def test_near_saturation_identical(self, scenario):
        # At 0.8 of the saturation load (~1e-3) journeys wait at the
        # concentrators an order of magnitude longer than at LOAD, so the
        # blocking branches of both engines run on most journeys.
        raw = assert_identical(scenario, 7, load=8e-4)
        _, light, _ = run_engine(scenario, 7, "reference")
        assert raw.concentrator_wait_mean > 10 * light.concentrator_wait_mean

    @pytest.mark.parametrize("max_events", (500, 5001))
    def test_event_budget_truncation_identical(self, max_events):
        # Truncated runs stop mid-flight (possibly before any measured
        # delivery, leaving NaN wait means) and must still agree exactly.
        assert_identical("544", 0, max_events=max_events)

    def test_empty_measurement_tail(self):
        assert_identical("het8-uniform", 1, window=MeasurementWindow(0, 200, 0))

    def test_digest_matches_between_engines(self):
        ref_sim, _, _ = run_engine("544", 2024, "reference")
        arr_sim, _, _ = run_engine("544", 2024, "array")
        assert trajectory_digest(ref_sim.trajectory()) == trajectory_digest(
            arr_sim.trajectory()
        )


@needs_kernel
class TestSessionAndConfigPlumbing:
    def test_session_results_identical_modulo_wall(self, small_system, small_message):
        session = SimulationSession(small_system, small_message)
        ref = session.run(1e-3, seed=3, window=WINDOW, engine="reference")
        arr = session.run(1e-3, seed=3, window=WINDOW, engine="array")
        assert replace(ref, wall_seconds=0.0) == replace(arr, wall_seconds=0.0)

    def test_rerun_on_one_session_identical_under_each_engine(self, small_system, small_message):
        # A rerun on one session reuses its fabric and event-core tables
        # but draws afresh from the seed's streams: under each engine it
        # must reproduce the first run, and the engines must agree.
        results = []
        for engine in ENGINES:
            session = SimulationSession(small_system, small_message)
            first = session.run(1e-3, seed=5, window=WINDOW, engine=engine)
            second = session.run(1e-3, seed=5, window=WINDOW, engine=engine)
            results.append((first, second))
        (ref1, ref2), (arr1, arr2) = results
        assert replace(ref1, wall_seconds=0.0) == replace(ref2, wall_seconds=0.0)
        assert replace(ref1, wall_seconds=0.0) == replace(arr1, wall_seconds=0.0)
        assert replace(arr1, wall_seconds=0.0) == replace(arr2, wall_seconds=0.0)

    def test_session_fabric_is_freed_after_an_array_run(self, small_system, small_message):
        # The event-core tables are keyed weakly by fabric; nothing in them
        # may refer back to it, or a discarded session is never freed.
        session = SimulationSession(small_system, small_message)
        session.run(1e-3, seed=3, window=WINDOW, engine="array")
        fabric = weakref.ref(session.fabric)
        del session
        gc.collect()
        assert fabric() is None

    def test_one_context_per_fabric(self, small_system, small_message):
        # Every load point and seed of a session shares one set of flat
        # leg tables, keyed by the fabric alone.
        session = SimulationSession(small_system, small_message)
        session.run(1e-3, seed=3, window=WINDOW, engine="array")
        ctx = eventcore._CONTEXTS[session.fabric]
        session.run(2e-3, seed=4, window=WINDOW, engine="array")
        assert eventcore._CONTEXTS[session.fabric] is ctx
        fabric = session.fabric
        # The per-channel tables are the fabric's own arrays, not copies.
        for table in ("flit_time", "group", "uncontended"):
            assert getattr(ctx, table) is getattr(fabric, table)
        assert len(ctx.arrays(fabric)["s_drain"]) == len(fabric.legs)

    @pytest.mark.parametrize(
        "engine, granularity", [("reference", "message"), ("array", "message"), ("reference", "flit")]
    )
    def test_runs_never_enumerate_channel_objects(self, monkeypatch, small_system, small_message, engine, granularity):
        # HeterogeneousSystem.channels() is the tests' oracle only: the
        # fabric fills its tables from the channel blocks and builds legs
        # by digit arithmetic.
        def refuse(system):
            raise AssertionError("channels() called on the product path")

        monkeypatch.setattr(HeterogeneousSystem, "channels", refuse)
        session = SimulationSession(small_system, small_message)
        result = session.run(1e-3, seed=2, window=WINDOW, engine=engine, granularity=granularity)
        assert result.completed

    @pytest.mark.parametrize("engine", ENGINES)
    def test_simulator_holds_no_per_channel_state(self, small_fabric, engine):
        # The constructor keeps only what both engines read; the reference
        # loop builds its per-channel lists, deques and heap inside run().
        held = {
            "engine", "fabric", "window", "pattern", "streams", "generation_rate",
            "collector", "_arrival_gaps_array", "_dest_draws_array", "_last_result",
        }
        sim = MessageLevelWormholeSimulator(small_fabric, WINDOW, LOAD, make_streams(5), engine=engine)
        assert set(vars(sim)) == held
        sim.run()
        assert set(vars(sim)) == held

    def test_leg_table_grows_with_the_legs_a_run_uses(self, monkeypatch):
        # 1120-x4 has 326,272 possible ICN1 legs; a short run builds only
        # the distinct legs its messages use, and keys no others.
        spec = get_scenario("1120-x4")
        session = SimulationSession(spec.system, spec.message)
        rows = []
        paths_for = eventcore._EventCoreContext.paths_for

        def recording(ctx, fabric, g_node, g_dest):
            rows.append(paths_for(ctx, fabric, g_node, g_dest))
            return rows[-1]

        monkeypatch.setattr(eventcore._EventCoreContext, "paths_for", recording)
        session.run(1.5e-4, seed=11, window=WINDOW, engine="array")
        fabric = session.fabric
        (_p_off, p_segs), = rows
        assert fabric.num_legs == len(np.unique(p_segs)) == len(fabric._leg_id)
        assert 0 < fabric.num_legs < WINDOW.total * 3

    def test_flit_granularity_rejects_array_engine(self, small_system, small_message):
        session = SimulationSession(small_system, small_message)
        with pytest.raises(ValueError, match="message-granularity only"):
            session.run(1e-3, window=WINDOW, granularity="flit", engine="array")
        with pytest.raises(ValueError, match="message-granularity only"):
            SimulationConfig(
                system=small_system,
                message=small_message,
                generation_rate=1e-3,
                granularity="flit",
                engine="array",
            )

    def test_unknown_engine_rejected(self, small_fabric):
        with pytest.raises(ValueError, match="unknown engine"):
            MessageLevelWormholeSimulator(
                small_fabric, WINDOW, 1e-3, make_streams(0), engine="vectorised"
            )


class TestFallbackPath:
    def test_array_engine_falls_back_to_reference(self, monkeypatch, small_fabric):
        # Simulate a host with no compiler: the kernel never loads and the
        # array engine must warn and produce the reference trajectory.
        monkeypatch.setattr(eventcore, "_KERNEL", None)
        assert not kernel_available()
        trace_fb, trace_ref = [], []
        fb = MessageLevelWormholeSimulator(
            small_fabric, WINDOW, 1e-3, make_streams(7), engine="array"
        )
        with pytest.warns(RuntimeWarning, match="running the reference loop"):
            fb_raw = fb.run(trace=trace_fb)
        ref = MessageLevelWormholeSimulator(
            small_fabric, WINDOW, 1e-3, make_streams(7), engine="reference"
        )
        ref_raw = ref.run(trace=trace_ref)
        assert trace_fb == trace_ref
        assert fb.trajectory() == ref.trajectory()
        assert fb_raw.events == ref_raw.events

    def test_kill_switch_is_named_as_the_reason(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_KERNEL", "0")
        with pytest.raises(eventcore._KernelUnavailable, match="REPRO_SIM_KERNEL=0"):
            eventcore._build_kernel()


class TestKernelCacheTrust:
    """The default cache path is predictable, so a cache directory or
    library that another user owns or can write may hold a planted
    library: it is refused, never compiled into or loaded."""

    def test_world_writable_cache_is_refused(self, monkeypatch, tmp_path):
        cache = tmp_path / "kernels"
        cache.mkdir()
        cache.chmod(0o777)
        monkeypatch.setenv("REPRO_EVENTCORE_CACHE", str(cache))
        with pytest.raises(eventcore._KernelUnavailable, match="writable by its group or others"):
            eventcore._build_kernel()
        assert list(cache.iterdir()) == []

    def test_foreign_owned_cache_is_refused(self, monkeypatch, tmp_path):
        cache = tmp_path / "kernels"
        cache.mkdir(mode=0o700)
        owner = cache.stat().st_uid
        monkeypatch.setenv("REPRO_EVENTCORE_CACHE", str(cache))
        monkeypatch.setattr(eventcore.os, "getuid", lambda: owner + 1)
        with pytest.raises(eventcore._KernelUnavailable, match=f"owned by uid {owner}"):
            eventcore._build_kernel()
        assert list(cache.iterdir()) == []

    def test_symlinked_cache_is_refused(self, monkeypatch, tmp_path):
        target = tmp_path / "elsewhere"
        target.mkdir(mode=0o700)
        cache = tmp_path / "kernels"
        cache.symlink_to(target)
        monkeypatch.setenv("REPRO_EVENTCORE_CACHE", str(cache))
        with pytest.raises(eventcore._KernelUnavailable, match="is not a directory"):
            eventcore._build_kernel()

    @needs_kernel
    def test_writable_library_is_refused(self, monkeypatch, tmp_path):
        cache = tmp_path / "kernels"
        monkeypatch.setenv("REPRO_EVENTCORE_CACHE", str(cache))
        # A group-writable umask must not leave the fresh cache, or the
        # library compiled into it, failing the next load's check.
        previous = os.umask(0o002)
        try:
            eventcore._build_kernel()
        finally:
            os.umask(previous)
        assert stat.S_IMODE(cache.stat().st_mode) == 0o700
        (library,) = cache.glob("_eventcore-*.so")
        assert not library.stat().st_mode & (stat.S_IWGRP | stat.S_IWOTH)
        eventcore._build_kernel()  # the cached library passes the check
        library.chmod(0o666)
        with pytest.raises(eventcore._KernelUnavailable, match="writable by its group or others"):
            eventcore._build_kernel()

    def test_kernel_unavailable_raises_in_array_run(self, monkeypatch, small_fabric):
        monkeypatch.setattr(eventcore, "_KERNEL", None)
        sim = MessageLevelWormholeSimulator(
            small_fabric, WINDOW, 1e-3, make_streams(0), engine="array"
        )
        with pytest.raises(ValueError, match="kernel unavailable"):
            eventcore.array_run(sim)


# ---------------------------------------------------------------------------
# trajectory canonicalisation and digests
# ---------------------------------------------------------------------------


class TestTrajectorySurface:
    def test_trajectory_requires_completed_run(self, small_fabric):
        sim = MessageLevelWormholeSimulator(small_fabric, WINDOW, 1e-3, make_streams(0))
        with pytest.raises(ValueError, match="run"):
            sim.trajectory()

    def test_digest_is_stable_and_version_free(self, small_fabric):
        sim = MessageLevelWormholeSimulator(small_fabric, WINDOW, 1e-3, make_streams(4))
        sim.run()
        traj = sim.trajectory()
        assert trajectory_digest(traj) == trajectory_digest(traj)
        canon = canonical_trajectory(traj)
        from repro.simulation.runner import TRAJECTORY_VERSION

        assert canon["version"] == TRAJECTORY_VERSION
        # A version bump alone keeps the digest; a moved number does not.
        bumped = replace(traj, version=traj.version + "-next")
        assert trajectory_digest(bumped) == trajectory_digest(traj)
        moved = replace(traj, latencies=(traj.latencies[0] + 1.0,) + traj.latencies[1:])
        assert trajectory_digest(moved) != trajectory_digest(traj)

    def test_nan_wait_means_compare_equal(self, small_fabric):
        # A run truncated before any measured delivery leaves NaN wait
        # means; trajectory equality is canonical, so NaN == NaN here.
        sims = []
        for _ in range(2):
            sim = MessageLevelWormholeSimulator(
                small_fabric, WINDOW, 1e-3, make_streams(2)
            )
            sim.run(max_events=40)
            sims.append(sim)
        a, b = (s.trajectory() for s in sims)
        assert a.source_wait_mean != a.source_wait_mean  # NaN
        assert a == b

    def test_flit_engine_exposes_same_surface(self, small_session):
        from repro.simulation.flitsim import FlitLevelSimulator

        sim = FlitLevelSimulator(
            small_session.fabric, MeasurementWindow(20, 100, 20), 1e-3, make_streams(0)
        )
        sim.run()
        traj = sim.trajectory()
        assert traj.events > 0
        assert trajectory_digest(traj) == trajectory_digest(traj)
