"""Content-addressed on-disk result cache.

Design-space exploration re-runs the same grid with more values per axis,
more axes, or a different worker count; the expensive part — one
load-independent model decomposition plus the closed-form saturation
inversion per cell — is a pure function of the cell's spec.  This module
memoises such results on disk:

* :func:`spec_key` — the one rule by which a study's spec becomes a
  cache key: the spec serialised once, minus its derived
  ``name``/``description`` and the caller's model-irrelevant sections,
  with every integer in it (Python or numpy) folded to the equal float,
  hashed beside the caller's own fields;
* :func:`content_key` — SHA-256 over the canonical JSON text of a
  JSON-shaped payload (``sort_keys``, no whitespace), so a key is stable
  across processes, worker counts and dict ordering;
* :class:`ResultCache` — a two-level directory of ``<key>.json`` files
  under one root, with atomic durable writes (temp file + ``fsync`` +
  ``os.replace``) so neither a concurrent reader nor a post-crash resume
  ever sees a torn entry; temp files orphaned by killed writers are
  swept when the cache is opened.

Callers build keys from *all* numeric inputs — for exploration cells that
is the serialised spec (minus its derived ``name``/``description``), the
metric parameters and :data:`repro.core.batch.ENGINE_VERSION` — so a cache
hit is bit-identical to a fresh evaluation by construction, and bumping
the engine version orphans (rather than corrupts) old entries.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from pathlib import Path

import numpy as np

from repro._util import require
from repro.io.results import load_json, to_jsonable

__all__ = ["ResultCache", "content_key", "spec_key"]


def content_key(payload) -> str:
    """SHA-256 hex digest of *payload*'s canonical JSON text.

    *payload* must be JSON-shaped: dicts with string keys, lists,
    strings, numbers, bools and ``None``, with non-finite floats already
    tagged as :func:`~repro.io.results.to_jsonable` tags them
    (:func:`spec_key` hands it such a payload).  Two payloads share a key
    iff they would save as the same JSON document.
    """
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True, allow_nan=False
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _fold(value):
    """*value* as JSON data with every non-bool integer folded to a float.

    One pass over a serialised spec.  Plain dicts, lists, strings and
    numbers dispatch on their exact type; other leaves serialise as
    :func:`~repro.io.results.to_jsonable` writes them (non-finite floats
    tagged, numpy scalars unwrapped).
    """
    kind = type(value)
    if kind is float:
        return value if math.isfinite(value) else to_jsonable(value)
    if kind is int:
        return float(value)
    if kind is str or kind is bool or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _fold(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_fold(v) for v in value]
    if isinstance(value, (int, np.integer)):
        return float(value)
    return to_jsonable(value)


def spec_key(spec, drop: "tuple[str, ...]" = (), **fields) -> str:
    """Content key of *spec*'s model-relevant sections plus *fields*.

    Serialises *spec* (a :class:`~repro.scenarios.ScenarioSpec`) once,
    drops its derived ``name``/``description`` and the *drop* sections,
    and folds every integer inside it, Python or numpy, to the equal
    float.  Spec values arrive as ``500`` from CLI coercion,
    ``np.int64(500)`` from an ``np.arange`` axis and ``500.0`` from the
    Python API or a config file; all build the identical model and
    simulation (the math is float throughout), so they share one key.
    Spec ints are small (ports, depths, flit counts), far below float64's
    integer-exact range, so folding never collides two values.  *fields*
    are hashed beside the spec as :func:`~repro.io.results.to_jsonable`
    writes them, unfolded, so an integer window or seed stays an integer.
    """
    payload = spec.to_dict()
    for section in ("name", "description", *drop):
        payload.pop(section, None)
    return content_key({**to_jsonable(fields), "spec": _fold(payload)})


class ResultCache:
    """A directory of content-addressed JSON results.

    Entries are stored as ``<root>/<key[:2]>/<key>.json`` (the two-char
    fan-out keeps directory listings manageable for large studies).  The
    cache is append-only from the library's point of view; deleting the
    root directory is the supported way to clear it.
    """

    #: Temp-file names embed the writing pid: ``.<key>.json.<pid>.tmp``.
    _TMP_SUFFIX = re.compile(r"\.(?P<pid>\d+)\.tmp$")

    def __init__(self, root: "str | Path") -> None:
        self.root = Path(root)
        self._sweep_stale_tmp()

    @staticmethod
    def _pid_alive(pid: int) -> bool:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except PermissionError:
            return True
        except OSError:
            return True
        return True

    def _sweep_stale_tmp(self) -> None:
        """Remove temp files abandoned by dead writer processes.

        A writer killed between creating its temp file and the atomic
        ``os.replace`` leaves ``.<name>.<pid>.tmp`` behind.  Opening the
        cache sweeps any whose pid no longer exists; temp files of live
        concurrent writers are left alone.
        """
        if not self.root.is_dir():
            return
        for tmp in self.root.glob("??/.*.tmp"):
            match = self._TMP_SUFFIX.search(tmp.name)
            if match is None or self._pid_alive(int(match.group("pid"))):
                continue
            try:
                tmp.unlink()
            except OSError:
                pass

    def _path(self, key: str) -> Path:
        require(
            isinstance(key, str) and len(key) >= 8 and all(c in "0123456789abcdef" for c in key),
            f"cache key must be a hex digest, got {key!r}",
        )
        return self.root / key[:2] / f"{key}.json"

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def get(self, key: str):
        """The payload stored under *key*, or ``None`` on a miss.

        An unreadable or corrupt entry counts as a miss — exploration then
        recomputes and overwrites it — rather than poisoning the run.
        Corruption surfaces as ``OSError`` (unreadable), ``ValueError``
        (bad JSON / bad encoding — ``JSONDecodeError`` and
        ``UnicodeDecodeError`` both subclass it) or ``KeyError``
        (a malformed non-finite-float tag in ``load_json``'s restore).
        """
        path = self._path(key)
        try:
            return load_json(path)
        except (OSError, ValueError, KeyError):
            return None

    def get_many(self, keys: "list[str]") -> list:
        """Payloads for *keys* in order, ``None`` per miss — one listing pass.

        Equivalent to ``[self.get(k) for k in keys]`` but lists each
        touched fan-out directory once and answers membership from the
        listing, so a large mostly-cold grid costs one ``scandir`` per
        two-char prefix instead of one ``stat`` per key.  Corrupt or
        unreadable entries count as misses exactly as in :meth:`get`.
        """
        paths = [self._path(key) for key in keys]
        listed: dict[Path, "set[str]"] = {}
        for path in paths:
            parent = path.parent
            if parent not in listed:
                try:
                    listed[parent] = set(os.listdir(parent))
                except OSError:
                    listed[parent] = set()
        out = []
        for path in paths:
            if path.name not in listed[path.parent]:
                out.append(None)
                continue
            try:
                out.append(load_json(path))
            except (OSError, ValueError, KeyError):
                out.append(None)
        return out

    def put(self, key: str, payload) -> Path:
        """Store *payload* under *key* atomically and durably.

        The temp file is flushed and fsynced before the atomic
        ``os.replace``, so a crash (or power loss) can leave either the
        old entry or the complete new one — never a torn file that a
        resumed run would have to treat as corrupt.
        """
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(to_jsonable(payload), indent=2, sort_keys=True) + "\n"
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        return path

    def __len__(self) -> int:
        """Number of entries currently on disk (walks the fan-out dirs)."""
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("??/*.json"))
