"""Persistence of model/simulation/validation results (JSON and CSV).

Everything serialises to plain dicts first (:func:`to_jsonable`), so saved
artifacts are tool-agnostic; loaders return dictionaries rather than
reconstructing live objects, keeping the on-disk format decoupled from the
class layout.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro._util import require

if TYPE_CHECKING:
    from typing import Self

__all__ = [
    "to_jsonable",
    "from_jsonable",
    "save_json",
    "load_json",
    "JsonDocument",
    "save_curve_csv",
    "load_curve_csv",
]


def to_jsonable(value: Any) -> Any:
    """Recursively convert dataclasses/arrays/scalars to JSON-safe objects."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: to_jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return [to_jsonable(v) for v in value.tolist()]
    if isinstance(value, np.bool_):
        # Before np.floating/np.integer: np.bool_ is neither, and without
        # this case it would fall through to str() and round-trip as the
        # (always truthy) string "True"/"False".
        return bool(value)
    if isinstance(value, (np.floating, np.integer)):
        return to_jsonable(value.item())  # re-dispatch so non-finite floats get tagged
    if isinstance(value, float) and not np.isfinite(value):
        return {"__float__": "inf" if value > 0 else ("-inf" if value < 0 else "nan")}
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, (str, int, bool)) or value is None or isinstance(value, float):
        return value
    return str(value)


def _restore_floats(value: Any) -> Any:
    if isinstance(value, dict):
        if set(value.keys()) == {"__float__"}:
            return {"inf": float("inf"), "-inf": float("-inf"), "nan": float("nan")}[value["__float__"]]
        return {k: _restore_floats(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_restore_floats(v) for v in value]
    return value


def from_jsonable(value: Any) -> Any:
    """Inverse of :func:`to_jsonable`'s float tagging.

    Restores ``{"__float__": ...}`` markers to ``inf``/``-inf``/``nan``
    anywhere in a decoded JSON tree — use this when JSON text arrives from
    somewhere other than :func:`load_json` (e.g. a config piped on stdin).
    """
    return _restore_floats(value)


def save_json(path: str | Path, payload: Any) -> Path:
    """Serialise *payload* (any dataclass/dict tree) to pretty JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_jsonable(payload), indent=2, sort_keys=True) + "\n")
    return path


def load_json(path: str | Path) -> Any:
    """Load a JSON artifact saved by :func:`save_json` (restores inf/nan)."""
    return _restore_floats(json.loads(Path(path).read_text()))


class JsonDocument:
    """JSON text and file methods over a class's ``to_dict``/``from_dict``.

    A declarative document class (scenario spec, design grid, failure
    scenario) defines the mapping pair and inherits these four, so every
    document is written by :func:`save_json` and read by
    :func:`load_json` alike.
    """

    def to_json(self) -> str:
        """Pretty JSON text of the document (non-finite floats tagged)."""
        return json.dumps(to_jsonable(self.to_dict()), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> Self:
        """Inverse of :meth:`to_json` (restores tagged non-finite floats)."""
        return cls.from_dict(from_jsonable(json.loads(text)))

    def save(self, path: "str | Path") -> Path:
        """Write the document as a JSON file."""
        return save_json(path, self.to_dict())

    @classmethod
    def load(cls, path: "str | Path") -> Self:
        """Read a document from a JSON file written by :meth:`save`."""
        return cls.from_dict(load_json(path))


def _format_csv_cell(value: Any) -> str:
    """One CSV cell: bools and strings natively, everything else as a float.

    Floats go through ``repr`` so they round-trip bit-for-bit; bools use
    their Python repr (``True``/``False``) and strings are written verbatim.
    """
    if isinstance(value, (bool, np.bool_)):
        return repr(bool(value))
    if isinstance(value, str):
        return value
    return repr(float(value))


def _parse_csv_cell(text: str) -> "float | bool | str":
    """Inverse of :func:`_format_csv_cell` for one cell.

    A string cell whose text happens to parse as a float (or as
    ``True``/``False``) comes back as that value — column producers that
    need verbatim strings should avoid purely numeric labels.
    """
    if text == "True":
        return True
    if text == "False":
        return False
    try:
        return float(text)
    except ValueError:
        return text


def save_curve_csv(path: str | Path, columns: dict[str, "list | np.ndarray"]) -> Path:
    """Write named columns of equal length as CSV.

    Cells may be numbers, booleans (e.g. a ``saturated``/``feasible``
    column) or strings (labels); :func:`load_curve_csv` round-trips all
    three.
    """
    require(len(columns) > 0, "at least one column required")
    lengths = {len(v) for v in columns.values()}
    require(len(lengths) == 1, "all columns must have equal length")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns.keys())
        for row in zip(*columns.values()):
            writer.writerow([_format_csv_cell(v) for v in row])
    return path


def load_curve_csv(path: str | Path) -> dict[str, list]:
    """Load a CSV written by :func:`save_curve_csv`.

    Each cell is restored to its native type: ``True``/``False`` to bools,
    numeric text to floats, anything else to the verbatim string.
    """
    with Path(path).open() as fh:
        reader = csv.reader(fh)
        header = next(reader)
        columns: dict[str, list] = {h: [] for h in header}
        for row in reader:
            for h, v in zip(header, row):
                columns[h].append(_parse_csv_cell(v))
    return columns
