"""One study executor: the cache, journal and evaluation path of every study.

Explore, performability and calibrate share one pipeline: address each
work item by a content key, replay valid hits from a
:class:`~repro.io.cache.ResultCache`, evaluate the rest, persist and
journal every item the moment it lands, and turn items that still fail
into NaN rows with ``repro.item-outcome/1`` error records.  :class:`Study`
owns that pipeline; a study keeps only its domain: what a key hashes,
what a valid hit carries, and one picklable *pricer*
``price(specs) -> [metrics, ...]`` (a module-level function, or a
:func:`functools.partial` of one) that evaluates a list of specs in one
:class:`~repro.core.stacked.StackedModel` pass.

:meth:`Study.evaluate` prices the pending items in one of three modes:

* **one pass** — ``jobs`` absent or 1, no explicit
  :class:`~repro.exec.RunPolicy`, no ``resume`` and no armed fault plan
  (``--faults``/``REPRO_FAULTS``): every item in one in-process stack;
* **stacked shards** — the same, but ``jobs`` set otherwise: the items
  are cut, in item order, into one contiguous run of near-equal size per
  resolved worker, and :func:`~repro.exec.run_supervised` hands each run
  to the pricer in one pool worker; the parent persists and journals a
  shard's items as that shard lands, so a kill loses at most the ``jobs``
  shards in flight;
* **per item** — an explicit policy, ``resume`` or an armed plan: the
  same supervised call with one-item shards (retries, timeouts, pool
  respawn and the fault hook act on single items, so fault-plan indices
  are item indices).

A model rejection (the ``ValueError`` its input checks raise) in the one
pass, or any failure of a shard after its retries, sends only the items
of that pass or shard down the per-item path, where a rejection is
confined to its own row; any other exception from the one pass is an
engine bug and propagates.  ``stacked`` reads true when every pending
item was priced by the one pass or by a shard that landed.  An error
record's ``index`` is the item's position among the pending items in
every mode.  All modes give bit-identical rows (the stacked engine's
lane independence, locked by ``tests/test_stacked.py``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Sequence

from repro._util import require
from repro.exec.faults import armed_plan, maybe_corrupt_cache
from repro.exec.journal import RunJournal
from repro.exec.outcomes import OUTCOME_OK, ItemOutcome
from repro.exec.policy import RunPolicy
from repro.exec.supervisor import resolve_jobs, run_supervised
from repro.io.cache import ResultCache, content_key
from repro.io.schemas import RUN_JOURNAL_SCHEMA

__all__ = ["Pricer", "Study"]

#: A study's stacked evaluator: one metric mapping per spec, in order.
Pricer = Callable[[Sequence[Any]], list[dict[str, Any]]]


class Study:
    """One study run: its store, journal, cache replay and evaluation.

    *keys* are the rows' content keys, ``None`` when no cache is
    configured (keys only address the store and the journal).  The
    journal's identity is the full key list, so the same study resumes
    itself and any change to the work list starts a fresh journal.
    Journal lines and error records name each row as ``{label: labels[row]}``.
    """

    def __init__(
        self,
        kind: str,
        keys: "list[str] | None",
        *,
        cache: "ResultCache | str | None",
        resume: bool,
        label: str,
        labels: "list[str]",
    ) -> None:
        self.store = None if cache is None else (
            cache if isinstance(cache, ResultCache) else ResultCache(cache)
        )
        self.journal: "RunJournal | None" = None
        if self.store is not None:
            run_key = content_key({"schema": RUN_JOURNAL_SCHEMA, "kind": kind, "keys": keys})
            self.journal = RunJournal.for_cache(self.store, run_key)
        if resume:
            require(self.journal is not None, "resume requires a result cache (--cache)")
            assert self.journal is not None
            require(
                self.journal.exists(),
                f"resume requested but no run journal exists at {self.journal.path}",
            )
        self.keys = keys
        self.resume = resume
        self.label = label
        self.labels = labels
        self.cached = self.resumed = self.evaluated = 0
        self.stacked = False
        self.jobs = 1
        self.errors: "list[dict[str, Any]]" = []

    @property
    def cache_root(self) -> "str | None":
        return None if self.store is None else str(self.store.root)

    def replay(self, valid: "Callable[[Any], bool]") -> "list[Any]":
        """Each row's cache entry if *valid* accepts it, else ``None``.

        One ``get_many`` pass: a corrupt, foreign or incomplete entry is a
        miss to recompute, not a crash.  Counts the hits and the distinct
        hit keys the journal records as completed (*resumed*).
        """
        if self.store is None or self.journal is None or self.keys is None:
            return [None] * len(self.labels)
        entries = [e if valid(e) else None for e in self.store.get_many(self.keys)]
        hits = {key for key, entry in zip(self.keys, entries) if entry is not None}
        self.cached = sum(entry is not None for entry in entries)
        self.resumed = len(hits & self.journal.completed_keys())
        return entries

    def persist(self, row: int, slot: int, payload: Any) -> None:
        """Store and journal *row*'s entry; *slot* is its fault-plan index.

        Runs in the supervising process as each item lands, so a kill at
        any instant leaves cache and journal describing the completed items.
        """
        if self.store is None or self.journal is None or self.keys is None:
            return
        key = self.keys[row]
        self.store.put(key, payload)
        maybe_corrupt_cache(self.store, key, slot)
        self.journal.record(key, **{self.label: self.labels[row]})

    def evaluate(
        self,
        specs: "Sequence[Any]",
        price: Pricer,
        *,
        envelope: "dict[str, Any]",
        valid: "Callable[[dict[str, Any]], bool]",
        error_row: "Callable[[int], dict[str, Any]]",
        jobs: "int | str | None",
        policy: "RunPolicy | None",
    ) -> "list[dict[str, Any]]":
        """Every row's metrics: cache hits, then one evaluation per pending key.

        A hit carries *envelope*'s ``schema`` and a ``metrics`` mapping
        *valid* accepts; fresh metrics are stored as ``{**envelope, label:
        row label, "metrics": ...}``.  Items that still fail yield
        ``error_row(row)`` for each of their rows plus one ``errors`` record.
        """

        def is_hit(entry: Any) -> bool:
            return (
                isinstance(entry, dict)
                and entry.get("schema") == envelope["schema"]
                and isinstance(entry.get("metrics"), dict)
                and valid(entry["metrics"])
            )

        metrics: "list[Any]" = [None if e is None else e["metrics"] for e in self.replay(is_hit)]
        groups: "dict[Any, list[int]]" = {}
        for row, value in enumerate(metrics):
            if value is None:
                groups.setdefault(row if self.keys is None else self.keys[row], []).append(row)
        items = list(groups.values())
        heads = [specs[rows[0]] for rows in items]
        self.evaluated = len(items)
        self.jobs = max(1, min(resolve_jobs(jobs), len(items)))

        landed: "dict[int, ItemOutcome]" = {}

        def land(slot: int, outcome: ItemOutcome) -> None:
            landed[slot] = outcome
            if outcome.ok:
                row = items[slot][0]
                entry = {**envelope, self.label: self.labels[row], "metrics": outcome.value}
                self.persist(row, slot, entry)

        def supervise(runs: "list[range]") -> None:
            """Price each run of item slots as one supervised shard.

            A landed shard lands each of its items; a failed one-item shard
            is its item's outcome, remapped to the item's slot; a larger
            failed shard leaves its items to the per-item pass.
            """

            def land_shard(index: int, outcome: ItemOutcome) -> None:
                run = runs[index]
                if outcome.ok:
                    for slot, value in zip(run, outcome.value):
                        land(slot, replace(outcome, index=slot, value=value))
                elif len(run) == 1:
                    land(run[0], replace(outcome, index=run[0]))

            run_supervised(
                price,
                [[heads[slot] for slot in run] for run in runs],
                jobs=self.jobs,
                policy=policy,
                on_result=land_shard,
            )

        stackable = bool(items) and policy is None and not self.resume and armed_plan() is None
        if stackable and jobs in (None, 1):
            try:
                values = price(heads)
            except ValueError:
                pass  # the model rejected an item: supervise each one below
            else:
                for slot, value in enumerate(values):
                    land(slot, ItemOutcome(slot, OUTCOME_OK, 1, value))
        elif stackable:
            # Contiguous runs, not round-robin: a stack prices each topology
            # group apart, and item order keeps like items adjacent.
            size, extra = divmod(len(items), self.jobs)
            cuts = [k * size + min(k, extra) for k in range(self.jobs + 1)]
            supervise([range(a, b) for a, b in zip(cuts, cuts[1:])])
        left = [slot for slot in range(len(items)) if slot not in landed]
        self.stacked = bool(items) and not left and all(o.ok for o in landed.values())
        if left:
            supervise([range(slot, slot + 1) for slot in left])
        for slot, rows in enumerate(items):
            outcome = landed[slot]
            for row in rows:
                metrics[row] = outcome.value if outcome.ok else error_row(row)
            if not outcome.ok:
                self.errors.append({self.label: self.labels[rows[0]], **outcome.error_record()})
        return metrics

    def summary(self) -> "dict[str, Any]":
        """The run counters explore and performability report in ``data``."""
        return {
            "evaluated": self.evaluated,
            "cached": self.cached,
            "cache_hits": self.cached,
            "stacked": self.stacked,
            "resumed": self.resumed,
            "jobs": self.jobs,
            "cache_root": self.cache_root,
            "errors": self.errors,
            "partial": bool(self.errors),
        }
