"""Append-only, crash-safe run journal for long fan-outs.

A journal records, one JSON line at a time, the content keys of items a
run has finished and persisted to its :class:`~repro.io.cache.ResultCache`.
Because each line is appended, flushed, and fsynced as the item
completes, a run killed at any instant leaves a journal describing
exactly the completed prefix — a later ``--resume`` replays those items
from the cache and evaluates only the remainder.

Torn final lines (the process died mid-write) are expected and skipped,
and the next record starts a line of its own after one; re-recording an
already-journaled key is a no-op, so resumed runs can blindly record
everything they touch.  The journal lives beside the
cache entries it refers to (``<cache root>/journal/<run key>.jsonl``),
keyed by a content hash of the run's full work list: the same study
resumes itself, a different study gets a fresh journal.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from repro.io.schemas import RUN_JOURNAL_SCHEMA

__all__ = ["RUN_JOURNAL_SCHEMA", "RunJournal"]


class RunJournal:
    """Append-only record of completed item keys for one run identity."""

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self._seen: "set[str] | None" = None
        self._torn = False  # the file ends in a line without its newline

    @classmethod
    def for_cache(cls, store: Any, run_key: str) -> "RunJournal":
        """The journal for *run_key* stored beside *store*'s entries."""
        return cls(Path(store.root) / "journal" / f"{run_key}.jsonl")

    def exists(self) -> bool:
        return self.path.exists()

    def completed_keys(self) -> "set[str]":
        """Keys of every item this journal has recorded as completed.

        Unparseable lines (a torn final write from a killed process) are
        skipped, not fatal.
        """
        return set(self._keys())

    def _keys(self) -> "set[str]":
        """The journal's own key set, read from the file on first use."""
        if self._seen is not None:
            return self._seen
        seen: "set[str]" = set()
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            self._seen = seen
            return seen
        self._torn = not text.endswith("\n") and bool(text)
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            if isinstance(entry, dict) and entry.get("schema") == RUN_JOURNAL_SCHEMA:
                key = entry.get("key")
                if isinstance(key, str):
                    seen.add(key)
        self._seen = seen
        return seen

    def record(self, key: str, **meta: Any) -> None:
        """Durably append *key* (with optional metadata) to the journal.

        The line is flushed and fsynced before returning, so a kill
        immediately after an item's cache write cannot lose the fact that
        the item completed.  After a torn final line the entry starts with
        a newline, so the fragment never swallows it.  Already-recorded
        keys are skipped.
        """
        seen = self._keys()
        if key in seen:
            return
        entry = {"schema": RUN_JOURNAL_SCHEMA, "key": key}
        entry.update(meta)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(("\n" if self._torn else "") + json.dumps(entry, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        seen.add(key)
        self._torn = False
