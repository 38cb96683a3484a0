"""Parallel execution subsystem tests (simulation.parallel + fan-out paths).

The contract under test: every fan-out level — replicas, load points,
scenarios — produces results bit-identical to the serial path for any
worker count, worker exceptions propagate, and the aggregate accounting
(sum events / max wall) holds.  Pools here are small and the windows tiny,
so the whole module stays test-suite-speed.
"""

import os
from dataclasses import replace

import pytest

from repro.simulation import (
    MeasurementWindow,
    SimulationConfig,
    replicate,
    resolve_jobs,
    run_work_items,
)
from repro.validation.compare import run_validation

WINDOW = MeasurementWindow(50, 400, 50)


class FailingDestinations:
    """A destination sampler that fails inside the worker running it
    (module-level, so a config carrying it pickles into the pool)."""

    def sample_destination(self, rng, system, source):
        raise ValueError("destination sampling failed")


class TestResolveJobs:
    def test_defaults_to_serial(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1

    def test_auto_uses_cpu_count(self):
        assert resolve_jobs(0) >= 1
        assert resolve_jobs("auto") == resolve_jobs(0)

    def test_auto_counts_only_the_cpus_this_process_may_run_on(self, monkeypatch):
        # A run confined to one of 64 CPUs starts one worker, not 64.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert resolve_jobs(0) == 1
        assert resolve_jobs("auto") == 1

    def test_auto_falls_back_to_cpu_count_without_a_mask(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert resolve_jobs(0) == 5

    def test_rejects_negative_and_bool(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)
        with pytest.raises(ValueError):
            resolve_jobs(True)
        with pytest.raises(ValueError):
            resolve_jobs(False)  # must not alias the 0 = "auto" spelling


class TestRunWorkItems:
    def _items(self, system, message, n=3):
        return [
            SimulationConfig(
                system=system,
                message=message,
                generation_rate=1e-3,
                seed=100 + i,
                window=WINDOW,
            )
            for i in range(n)
        ]

    def test_serial_matches_session_runs(self, small_system, small_message, small_session):
        items = self._items(small_system, small_message)
        results = run_work_items(items, session=small_session)
        for item, result in zip(items, results):
            direct = small_session.run(item.generation_rate, seed=item.seed, window=item.window)
            assert result.mean_latency == direct.mean_latency
            assert result.events == direct.events

    def test_pool_is_bit_identical_and_order_preserving(self, small_system, small_message):
        items = self._items(small_system, small_message, n=4)
        serial = run_work_items(items, jobs=1)
        pooled = run_work_items(items, jobs=2)
        assert [r.seed for r in pooled] == [item.seed for item in items]
        assert [r.mean_latency for r in pooled] == [r.mean_latency for r in serial]
        assert [r.events for r in pooled] == [r.events for r in serial]

    def test_worker_count_invariance(self, small_system, small_message):
        items = self._items(small_system, small_message, n=4)
        by_jobs = {
            jobs: [r.mean_latency for r in run_work_items(items, jobs=jobs)]
            for jobs in (1, 2, 3)
        }
        assert by_jobs[1] == by_jobs[2] == by_jobs[3]

    def test_worker_exception_propagates(self, small_system, small_message):
        bad = SimulationConfig(
            system=small_system,
            message=small_message,
            generation_rate=1e-3,
            seed=0,
            window=WINDOW,
            pattern=FailingDestinations(),
        )
        good = self._items(small_system, small_message, n=1)[0]
        with pytest.raises(ValueError, match="destination sampling failed"):
            run_work_items([good, bad], jobs=2)
        with pytest.raises(ValueError, match="destination sampling failed"):
            run_work_items([good, bad], jobs=1)

    @pytest.mark.parametrize("granularity", ["message", "flit"])
    def test_every_entry_point_runs_a_config_alike(
        self, small_system, small_message, granularity
    ):
        from repro.simulation import run_work_item, simulate

        config = SimulationConfig(
            system=small_system,
            message=small_message,
            generation_rate=1e-3,
            seed=5,
            window=MeasurementWindow(20, 200, 20),
            granularity=granularity,
        )
        results = [simulate(config), run_work_item(config), *run_work_items([config])]
        assert {r.granularity for r in results} == {granularity}
        first = replace(results[0], wall_seconds=0.0)
        assert all(replace(r, wall_seconds=0.0) == first for r in results[1:])

    def test_serial_path_prefers_the_callers_session(
        self, small_system, small_message, small_session, monkeypatch
    ):
        from repro.simulation import parallel

        cached = []
        session_for = parallel._session_for

        def recording(config):
            cached.append(config)
            return session_for(config)

        monkeypatch.setattr(parallel, "_session_for", recording)
        same = self._items(small_system, small_message, n=2)
        other = replace(same[0], message=replace(small_message, length_flits=8))
        results = run_work_items([*same, other], session=small_session)
        assert cached == [other]
        assert [r.seed for r in results] == [100, 101, 100]
        assert results[2].mean_latency != results[0].mean_latency

    def test_configs_differing_only_in_pattern_run_their_own_design(
        self, tiny_hetero_system, small_message
    ):
        """The pattern is part of the session reuse key: no path runs a
        config on a session (cached, the caller's or a worker's) of
        another traffic pattern."""
        from repro.simulation import SimulationSession, simulate
        from repro.workloads import HotspotTraffic, LocalityTraffic

        base = SimulationConfig(
            system=tiny_hetero_system, message=small_message, generation_rate=1e-3, seed=3, window=WINDOW
        )
        patterns = (None, HotspotTraffic(hot_cluster=3, hot_fraction=0.4), LocalityTraffic(0.8))
        items = [replace(base, pattern=pattern) for pattern in patterns]
        expected = [replace(simulate(item), wall_seconds=0.0) for item in items]
        assert len({r.mean_latency for r in expected}) == len(items)
        session = SimulationSession(tiny_hetero_system, small_message, pattern=patterns[1])
        for kwargs in ({}, {"session": session}, {"jobs": 2}):
            results = run_work_items(items, **kwargs)
            assert [replace(r, wall_seconds=0.0) for r in results] == expected, kwargs

    def test_rejects_non_items(self):
        with pytest.raises(ValueError):
            run_work_items(["nope"])


class TestParallelReplication:
    def test_parallel_matches_serial_bit_for_bit(self, small_session):
        serial = replicate(small_session, 1e-3, replicas=4, base_seed=0, window=WINDOW)
        pooled = replicate(small_session, 1e-3, replicas=4, base_seed=0, window=WINDOW, jobs=2)
        assert pooled.seeds == serial.seeds
        assert [r.mean_latency for r in pooled.replicas] == [
            r.mean_latency for r in serial.replicas
        ]
        assert pooled.mean_latency == serial.mean_latency
        assert pooled.ci_half_width == serial.ci_half_width
        assert pooled.events == serial.events
        assert pooled.jobs == 2

    def test_worker_count_invariance(self, small_session):
        means = {
            jobs: replicate(
                small_session, 1e-3, replicas=4, base_seed=9, window=WINDOW, jobs=jobs
            ).mean_latency
            for jobs in (1, 2, 3)
        }
        assert len(set(means.values())) == 1

    def test_jobs_recorded_capped_at_replicas(self, small_session):
        rep = replicate(small_session, 1e-3, replicas=2, base_seed=0, window=WINDOW, jobs=8)
        assert rep.jobs == 2

    def test_run_kwargs_forwarded_to_workers(self, small_session):
        serial = replicate(
            small_session,
            1e-3,
            replicas=2,
            base_seed=1,
            window=WINDOW,
            granularity="flit",
        )
        pooled = replicate(
            small_session,
            1e-3,
            replicas=2,
            base_seed=1,
            window=WINDOW,
            granularity="flit",
            jobs=2,
        )
        assert [r.granularity for r in pooled.replicas] == ["flit", "flit"]
        assert [r.mean_latency for r in pooled.replicas] == [
            r.mean_latency for r in serial.replicas
        ]

    def test_replicas_simulate_the_sessions_pattern(self, tiny_hetero_system, small_message):
        """Each replica of a pattern session, serial or pooled, is the
        pattern's own run at its seed, not the uniform design's."""
        from repro.simulation import SimulationSession, replica_seeds, simulate
        from repro.workloads import HotspotTraffic

        hot = HotspotTraffic(hot_cluster=3, hot_fraction=0.4)
        session = SimulationSession(tiny_hetero_system, small_message, pattern=hot)
        expected = [
            simulate(
                SimulationConfig(
                    system=tiny_hetero_system,
                    message=small_message,
                    pattern=hot,
                    generation_rate=1e-3,
                    seed=seed,
                    window=WINDOW,
                )
            ).mean_latency
            for seed in replica_seeds(5, 3)
        ]
        uniform = replicate(
            SimulationSession(tiny_hetero_system, small_message),
            1e-3,
            replicas=3,
            base_seed=5,
            window=WINDOW,
        )
        for jobs in (None, 2):
            rep = replicate(session, 1e-3, replicas=3, base_seed=5, window=WINDOW, jobs=jobs)
            means = [r.mean_latency for r in rep.replicas]
            assert means == expected, jobs
            assert means != [r.mean_latency for r in uniform.replicas], jobs


class TestParallelValidation:
    def test_jobs_do_not_change_the_curve(self, small_session):
        loads = [5e-4, 1e-3, 2e-3]
        serial = run_validation(small_session, loads, window=WINDOW)
        pooled = run_validation(small_session, loads, window=WINDOW, jobs=2)
        assert [p.sim_latency for p in pooled.points] == [p.sim_latency for p in serial.points]
        assert [p.model_latency for p in pooled.points] == [
            p.model_latency for p in serial.points
        ]

    def test_throughput_aggregates(self, small_session):
        curve = run_validation(small_session, [5e-4, 1e-3], window=WINDOW)
        assert curve.sim_events == sum(r.events for r in curve.sim_results)
        assert curve.sim_wall_seconds == max(r.wall_seconds for r in curve.sim_results)

    def test_config_error_is_rejected_before_any_pool(self, small_session, monkeypatch):
        from repro.simulation import parallel

        calls = []
        supervised = parallel.run_supervised

        def counting(*args, **kwargs):
            calls.append(args)
            return supervised(*args, **kwargs)

        monkeypatch.setattr(parallel, "run_supervised", counting)
        with pytest.raises(ValueError, match="message-granularity only"):
            run_validation(
                small_session,
                [5e-4, 1e-3],
                window=WINDOW,
                granularity="flit",
                engine="array",
                jobs=2,
            )
        assert calls == []


class TestSweepMany:
    def _result(self, **kwargs):
        from repro.experiments import Experiment

        return Experiment.sweep_many(["544", "1120"], points=4, **kwargs)

    def test_schema_is_stable(self):
        result = self._result()
        assert result.kind == "sweep_many"
        assert result.scenario == "544,1120"
        assert set(result.data.keys()) == {"scenarios", "columns"}
        assert set(result.data["columns"].keys()) == {"scenario", "load", "latency"}
        lengths = {len(col) for col in result.data["columns"].values()}
        assert lengths == {8}  # 2 scenarios x 4 points, long format
        for row in result.data["scenarios"]:
            assert set(row.keys()) == {
                "scenario",
                "total_nodes",
                "loads",
                "latencies",
                "saturation_load",
            }
        assert {s["name"] for s in result.spec["scenarios"]} == {"544", "1120"}
        assert result.to_dict()["schema"] == "repro.experiment/1"

    def test_matches_single_scenario_sweep(self):
        from repro.experiments import Experiment

        result = self._result()
        by_name = {row["scenario"]: row for row in result.data["scenarios"]}
        for name in ("544", "1120"):
            import dataclasses

            spec = Experiment(name).spec
            spec = dataclasses.replace(
                spec, load_grid=dataclasses.replace(spec.load_grid, points=4)
            )
            single = Experiment(spec).sweep()
            assert by_name[name]["loads"] == single.data["columns"]["load"]
            assert by_name[name]["latencies"] == single.data["columns"]["latency"]

    @staticmethod
    def _assert_rows_match_single_sweeps(result, specs):
        from repro.experiments import Experiment

        assert [row["scenario"] for row in result.data["scenarios"]] == [
            spec.name for spec in specs
        ]
        for row, spec in zip(result.data["scenarios"], specs):
            single = Experiment(spec).sweep().data
            assert row["loads"] == single["columns"]["load"], spec.name
            assert row["latencies"] == single["columns"]["latency"], spec.name
            assert row["saturation_load"] == single["saturation_load"], spec.name

    def test_whole_registry_matches_single_sweeps(self):
        from repro.experiments import Experiment
        from repro.scenarios.registry import iter_scenarios

        specs = [spec for _, spec in iter_scenarios()]
        result = Experiment.sweep_many([spec.name for spec in specs])
        self._assert_rows_match_single_sweeps(result, specs)

    def test_mixed_grid_policies_match_single_sweeps(self):
        import dataclasses

        from repro.experiments import Experiment
        from repro.scenarios import LoadGridPolicy, get_scenario

        custom = dataclasses.replace(
            get_scenario("het8-split"),
            name="het8-split-custom-grid",
            load_grid=LoadGridPolicy(points=5, fraction_of_saturation=0.8, include_zero=True),
        )
        specs = [get_scenario("544"), custom, get_scenario("1120")]
        self._assert_rows_match_single_sweeps(Experiment.sweep_many(specs), specs)
        four = [
            dataclasses.replace(s, load_grid=dataclasses.replace(s.load_grid, points=4))
            for s in specs
        ]
        self._assert_rows_match_single_sweeps(Experiment.sweep_many(specs, points=4), four)

    def test_rejects_duplicates_and_empty(self):
        from repro.experiments import Experiment

        with pytest.raises(ValueError, match="duplicate"):
            Experiment.sweep_many(["544", "544"])
        with pytest.raises(ValueError, match="at least one"):
            Experiment.sweep_many([])


class TestWorkerSessionCacheLRU:
    @staticmethod
    def _item(system, message, flits):
        from dataclasses import replace

        return SimulationConfig(
            system=system,
            message=replace(message, length_flits=flits),
            generation_rate=1e-3,
            seed=0,
            window=WINDOW,
        )

    def test_hit_refreshes_recency(self, small_system, small_message, monkeypatch):
        """A cache hit must move the session to most-recent, not leave it
        at insertion order — under FIFO the steady reuse pattern
        (A B A C A D ...) would evict A every time the cache fills."""
        from repro.simulation import parallel

        monkeypatch.setattr(parallel, "_SESSION_CACHE", {})
        monkeypatch.setattr(parallel, "_SESSION_CACHE_MAX", 2)
        a, b, c = (self._item(small_system, small_message, n) for n in (4, 8, 16))
        session_a = parallel._session_for(a)
        parallel._session_for(b)
        assert parallel._session_for(a) is session_a  # hit refreshes a
        parallel._session_for(c)  # fills the cache: must evict b, not a
        assert parallel._session_for(a) is session_a
        assert len(parallel._SESSION_CACHE) == 2

    def test_eviction_drops_least_recently_used(
        self, small_system, small_message, monkeypatch
    ):
        from repro.simulation import parallel

        monkeypatch.setattr(parallel, "_SESSION_CACHE", {})
        monkeypatch.setattr(parallel, "_SESSION_CACHE_MAX", 2)
        a, b, c = (self._item(small_system, small_message, n) for n in (4, 8, 16))
        parallel._session_for(a)
        session_b = parallel._session_for(b)
        parallel._session_for(c)  # evicts a (least recently used)
        assert parallel._session_for(b) is session_b
        assert (a.system, a.message, a.options) not in parallel._SESSION_CACHE


class TestSessionReruns:
    def test_repeated_load_points_replay_identically(self, small_session):
        """Rerunning a load point on one session must not drift."""
        first = small_session.run(1e-3, seed=41, window=WINDOW)
        again = small_session.run(1e-3, seed=41, window=WINDOW)
        other_load = small_session.run(2e-3, seed=41, window=WINDOW)
        assert again.mean_latency == first.mean_latency
        assert again.events == first.events
        assert other_load.mean_latency != first.mean_latency
