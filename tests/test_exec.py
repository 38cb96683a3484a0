"""Unit tests for the supervised execution runtime (``repro.exec``).

Pooled tests here spawn real process pools, so each one keeps its
payload list tiny; the deterministic fault plans (armed through the
``REPRO_FAULTS`` environment, which forked workers inherit) make worker
crashes, hangs and raises exactly reproducible.
"""

import json
import os
import subprocess
import time

import pytest

from repro.exec import (
    FAULTS_ENV,
    OUTCOME_FAILED,
    OUTCOME_OK,
    ExecutionFailed,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    ItemOutcome,
    RunJournal,
    RunPolicy,
    armed_plan,
    corrupt_cache_entry,
    fire,
    raise_on_failure,
    resolve_jobs,
    run_supervised,
)
from repro.io.cache import ResultCache


def _double(payload):
    return payload * 2


def _pid(payload):
    return os.getpid()


def _boom(payload):
    raise ValueError(f"boom {payload}")


def _placed(payload):
    # Slow enough that each worker takes one item and the parent has
    # placed both before the mask is read.
    time.sleep(0.3)
    return os.getpid(), sorted(os.sched_getaffinity(0))


needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="placement needs an affinity mask of at least two CPUs",
)


def _arm(monkeypatch, *faults):
    plan = {"schema": "repro.faults/1", "faults": [dict(f) for f in faults]}
    monkeypatch.setenv(FAULTS_ENV, json.dumps(plan))


class TestRunPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"max_retries": True},
            {"timeout": 0},
            {"timeout": -2.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RunPolicy(**kwargs)


class TestSerialExecution:
    def test_values_in_submission_order(self):
        outcomes = run_supervised(_double, [3, 1, 2], jobs=1)
        assert [o.value for o in outcomes] == [6, 2, 4]
        assert all(o.ok and o.attempts == 1 for o in outcomes)

    def test_retry_recovers_a_transient_fault(self, monkeypatch):
        _arm(monkeypatch, {"op": "raise", "index": 1, "attempt": 0})
        outcomes = run_supervised(_double, [3, 1, 2], jobs=1)
        assert [o.value for o in outcomes] == [6, 2, 4]
        assert [o.attempts for o in outcomes] == [1, 2, 1]

    def test_exhausted_retries_keep_the_original_exception(self):
        outcomes = run_supervised(_boom, [9], jobs=1, policy=RunPolicy(max_retries=1))
        (outcome,) = outcomes
        assert outcome.status == OUTCOME_FAILED
        assert outcome.attempts == 2
        assert "boom 9" in outcome.error
        with pytest.raises(ValueError, match="boom 9"):
            raise_on_failure(outcomes)

    def test_on_result_sees_every_item_once(self):
        seen = {}
        run_supervised(
            _double, [5, 6], jobs=1, on_result=lambda i, o: seen.setdefault(i, o)
        )
        assert sorted(seen) == [0, 1]
        assert all(seen[i].ok for i in seen)

    def test_raise_on_failure_without_exception_object(self):
        outcome = ItemOutcome(index=0, status="timeout", attempts=3, error="timed out")
        with pytest.raises(ExecutionFailed, match="timed out"):
            raise_on_failure([outcome])


class TestPooledExecution:
    def test_pool_matches_serial(self):
        serial = run_supervised(_double, list(range(6)), jobs=1)
        pooled = run_supervised(_double, list(range(6)), jobs=2)
        assert pooled == serial

    def test_worker_crash_respawns_and_retries(self, monkeypatch):
        _arm(monkeypatch, {"op": "crash", "index": 0, "attempt": 0})
        outcomes = run_supervised(_double, [3, 1, 2, 4], jobs=2)
        assert [o.value for o in outcomes] == [6, 2, 4, 8]
        assert outcomes[0].attempts >= 2  # the crashed attempt was charged

    def test_hung_item_times_out_and_retries(self, monkeypatch):
        _arm(monkeypatch, {"op": "hang", "index": 0, "attempt": 0, "seconds": 30.0})
        outcomes = run_supervised(
            _double, [3, 1], jobs=2, policy=RunPolicy(timeout=0.5)
        )
        assert [o.value for o in outcomes] == [6, 2]
        assert outcomes[0].attempts >= 2

    def test_two_pool_breaks_stay_pooled(self, monkeypatch):
        # Two crashes use up the two pool rebuilds; a third pool runs item 0.
        _arm(monkeypatch, *[{"op": "crash", "index": 0, "attempt": a} for a in range(2)])
        outcomes = run_supervised(_pid, [3, 1], jobs=2)
        assert all(o.ok for o in outcomes)
        assert outcomes[0].attempts == 3
        assert outcomes[0].value != os.getpid()

    def test_exhausted_restarts_degrade_to_serial(self, monkeypatch):
        # A third crash exhausts the two rebuilds: item 0's fourth attempt
        # runs serially, in this process.
        _arm(monkeypatch, *[{"op": "crash", "index": 0, "attempt": a} for a in range(3)])
        outcomes = run_supervised(_pid, [3, 1], jobs=2, policy=RunPolicy(max_retries=3))
        assert all(o.ok for o in outcomes)
        assert outcomes[0].attempts == 4
        assert outcomes[0].value == os.getpid()

    def test_single_payload_runs_serially(self, monkeypatch):
        # The pool never exceeds the payload count, so a crash fault on a
        # one-item run raises (serial semantics) and is retried in-process.
        _arm(monkeypatch, {"op": "crash", "index": 0, "attempt": 0})
        (outcome,) = run_supervised(_double, [3], jobs=2)
        assert outcome.ok and outcome.value == 6 and outcome.attempts == 2

    def test_resolve_jobs_reexport(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(3) == 3

    @needs_two_cpus
    def test_each_worker_runs_on_its_own_cpu(self):
        mask = set(os.sched_getaffinity(0))
        (pid0, cpus0), (pid1, cpus1) = [o.value for o in run_supervised(_placed, [0, 1], jobs=2)]
        assert pid0 != pid1
        assert len(cpus0) == len(cpus1) == 1
        assert cpus0 != cpus1
        assert set(cpus0 + cpus1) <= mask

    @needs_two_cpus
    def test_a_rebuilt_pool_is_placed_again(self, monkeypatch):
        _arm(monkeypatch, {"op": "crash", "index": 0, "attempt": 0})
        mask = set(os.sched_getaffinity(0))
        outcomes = run_supervised(_placed, [0, 1], jobs=2)
        assert all(o.ok for o in outcomes)
        assert outcomes[0].attempts >= 2  # its value comes from a rebuilt pool
        _, cpus = outcomes[0].value
        assert len(cpus) == 1 and set(cpus) <= mask

    @needs_two_cpus
    def test_a_refused_move_changes_no_outcome(self, monkeypatch):
        placed = run_supervised(_double, list(range(6)), jobs=2)
        refusals = []

        def refuse(pid, cpus):
            refusals.append(pid)
            raise OSError("refused")

        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        assert run_supervised(_double, list(range(6)), jobs=2) == placed
        assert refusals  # the supervisor did try to place the workers


class TestFaultPlans:
    def test_unarmed_is_a_no_op(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert armed_plan() is None
        fire(0, 0)  # must not raise

    def test_inline_and_file_sources_agree(self, tmp_path):
        payload = {
            "schema": "repro.faults/1",
            "faults": [{"op": "raise", "index": 2, "attempt": 1}],
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(payload))
        assert FaultPlan.load(json.dumps(payload)) == FaultPlan.load(str(path))

    def test_match_is_exact_and_fire_raises(self, monkeypatch):
        plan = FaultPlan.from_dict(
            {"schema": "repro.faults/1", "faults": [{"op": "raise", "index": 1}]}
        )
        assert plan.match(1, 0) is not None
        assert plan.match(1, 1) is None
        assert plan.match(0, 0) is None
        _arm(monkeypatch, {"op": "raise", "index": 1, "attempt": 0})
        fire(0, 0)  # unmatched (index differs): no-op
        fire(1, 1)  # unmatched (attempt differs): no-op
        with pytest.raises(FaultInjected):
            fire(1, 0)

    def test_corrupt_cache_fault_is_not_an_execution_fault(self):
        plan = FaultPlan.from_dict(
            {
                "schema": "repro.faults/1",
                "faults": [{"op": "corrupt-cache", "index": 0}],
            }
        )
        assert plan.match(0, 0) is None  # never fires during execution
        assert plan.corrupts_cache(0)
        assert not plan.corrupts_cache(1)

    def test_bad_specs_are_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(op="explode", index=0)
        with pytest.raises(ValueError):
            FaultSpec.from_dict({"op": "raise", "index": 0, "bogus": 1})
        with pytest.raises(ValueError):
            FaultPlan.from_dict({"schema": "other/1", "faults": []})

    def test_corrupt_cache_entry_poisons_the_stored_json(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        key = "ab" + "0" * 62
        store.put(key, {"x": 1})
        assert store.get(key) == {"x": 1}
        corrupt_cache_entry(store, key)
        assert store.get(key) is None  # corrupt entry reads as a miss


class TestRunJournal:
    def test_record_and_replay(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        assert not journal.exists()
        assert journal.completed_keys() == set()
        journal.record("k1", cell="a")
        journal.record("k2")
        journal.record("k1")  # duplicate: must not append a second line
        assert journal.completed_keys() == {"k1", "k2"}
        lines = (tmp_path / "run.jsonl").read_text().splitlines()
        assert len(lines) == 2
        fresh = RunJournal(tmp_path / "run.jsonl")
        assert fresh.completed_keys() == {"k1", "k2"}

    def test_torn_and_foreign_lines_are_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path)
        journal.record("k1")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": "other/1", "key": "k2"}\n')
            handle.write('{"schema": "repro.run-journal/1", "key"')  # torn write
        assert RunJournal(path).completed_keys() == {"k1"}
        # A resumed run's first record must not be glued onto the torn tail.
        RunJournal(path).record("k3")
        assert RunJournal(path).completed_keys() == {"k1", "k3"}

    def test_record_does_not_copy_the_key_set(self, tmp_path, monkeypatch):
        # record() once copied the whole key set per call: quadratic in
        # the length of the run.
        journal = RunJournal(tmp_path / "run.jsonl")
        calls = []
        completed_keys = RunJournal.completed_keys

        def counted(self):
            calls.append(1)
            return completed_keys(self)

        monkeypatch.setattr(RunJournal, "completed_keys", counted)
        keys = [f"k{i}" for i in range(1000)]
        for key in keys:
            journal.record(key)
        journal.record("k0")
        assert len(calls) <= 1
        assert completed_keys(journal) == set(keys)
        assert len((tmp_path / "run.jsonl").read_text().splitlines()) == 1000

    def test_for_cache_lives_beside_the_entries(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        journal = RunJournal.for_cache(store, "deadbeef")
        assert journal.path == tmp_path / "cache" / "journal" / "deadbeef.jsonl"


class TestCacheDurability:
    def test_put_survives_reload(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        key = "cd" + "1" * 62
        store.put(key, {"rows": [1, 2]})
        assert ResultCache(tmp_path / "cache").get(key) == {"rows": [1, 2]}

    def test_open_sweeps_tmp_files_of_dead_writers(self, tmp_path):
        root = tmp_path / "cache"
        shard = root / "ab"
        shard.mkdir(parents=True)
        proc = subprocess.Popen(["true"])
        proc.wait()
        dead = shard / f".abc.json.{proc.pid}.tmp"
        dead.write_text("torn")
        alive = shard / f".def.json.{__import__('os').getpid()}.tmp"
        alive.write_text("in-flight")
        unrelated = shard / "notatmp.json"
        unrelated.write_text("{}")
        ResultCache(root)
        assert not dead.exists()  # dead writer's leftover swept
        assert alive.exists()  # live writer untouched
        assert unrelated.exists()
