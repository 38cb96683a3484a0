"""Multi-axis design grids over scenario specs.

The paper's purpose is *design-space exploration*: trading ICN1/ICN2
bandwidth, cluster organisation and message geometry against saturation
load.  This module provides the declarative layer for such studies:

* :class:`AxisSpec` — one swept parameter, addressed by a dotted path into
  the serialised :class:`~repro.scenarios.ScenarioSpec` tree (e.g.
  ``"system.icn2.bandwidth"``, ``"message.length_flits"``,
  ``"system.clusters.3.tree_depth"`` — integer segments index lists);
* :class:`DesignGrid` — a base spec plus N axes, expanded to the Cartesian
  product of derived scenario variants.

Expansion is **deterministic**: cells are enumerated row-major (the last
axis varies fastest) and each variant is named
``<base>/<path>=<value>/...`` with one ``path=value`` segment per axis in
axis order, so a cell's name is a pure function of the base name and its
coordinates.  Each spec section (``system``, ``message``, ``options``,
``pattern``, ``load_grid``, ``latency_budget``) is built once per distinct
combination of the values of the axes under it, by the same ``from_dict``
that :meth:`ScenarioSpec.from_dict` calls on the same mapping, and the
cells that agree on those values share the section object.  So a 270-cell
grid over 45 distinct systems validates 45 systems, yet an axis value that
produces an invalid system (e.g. a cluster count that is not an ICN2 tree
population) still fails at expansion time with the first offending cell
named, exactly as a per-cell :meth:`ScenarioSpec.from_dict` would report it.

Grids serialise like specs (``grid == DesignGrid.from_dict(grid.to_dict())``)
so a whole study is one JSON file (the CLI's ``explore --grid``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from repro._util import reject_unknown_keys, require
from repro.core.parameters import MessageSpec, ModelOptions, SystemConfig
from repro.io.results import JsonDocument
from repro.io.schemas import GRID_SCHEMA
from repro.scenarios.spec import LoadGridPolicy, ScenarioSpec
from repro.workloads.patterns import pattern_from_dict

__all__ = ["AxisSpec", "DesignGrid", "GridCell", "GRID_SCHEMA", "as_axis", "format_axis_value"]

#: The spec sections an axis may traverse, each with the call that
#: :meth:`ScenarioSpec.from_dict` makes on its mapping, in that method's
#: order.  ``latency_budget`` is a bare value that
#: ``ScenarioSpec.__post_init__`` checks.  Naming/schema fields are derived.
_SECTIONS = (
    ("system", SystemConfig.from_dict),
    ("message", MessageSpec.from_dict),
    ("options", ModelOptions.from_dict),
    ("pattern", lambda data: None if data is None else pattern_from_dict(data)),
    ("load_grid", LoadGridPolicy.from_dict),
    ("latency_budget", lambda value: value),
)
_AXIS_ROOTS = tuple(root for root, _ in _SECTIONS)


def format_axis_value(value) -> str:
    """Canonical text of one axis value (used in cell names and tables).

    Floats use ``repr`` so distinct values never collide in a name; integer
    -valued floats drop the trailing ``.0`` for readability (``600.0`` and
    ``600`` name the same cell only if they are the same axis value).
    """
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if math.isfinite(value) and value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    return str(value)


def _copy_tree(node):
    """Deep copy of a JSON-ready spec tree (dicts, lists, scalar leaves).

    ``ScenarioSpec.to_dict`` trees contain only containers that
    :func:`set_by_path` may mutate (dicts/lists) and immutable leaves, so
    this beats :func:`copy.deepcopy` while copying exactly as deeply.
    Grid expansion copies one base section per distinct combination of
    the values of the axes under it, not the whole tree per cell.
    """
    if isinstance(node, dict):
        return {key: _copy_tree(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_copy_tree(value) for value in node]
    return node


def _index(segment: str, path: str, length: int) -> int:
    require(
        segment.isdigit(),
        f"axis path {path!r}: segment {segment!r} must be a list index (0..{length - 1})",
    )
    idx = int(segment)
    require(idx < length, f"axis path {path!r}: index {idx} out of range (list has {length} items)")
    return idx


def _child(node, segment: str, path: str):
    if isinstance(node, list):
        return node[_index(segment, path, len(node))]
    require(isinstance(node, dict), f"axis path {path!r}: {segment!r} reached a non-container value")
    require(
        segment in node,
        f"axis path {path!r}: unknown key {segment!r}; available: {sorted(node)}",
    )
    return node[segment]


def set_by_path(tree: dict, path: str, value) -> None:
    """Set *value* at dotted *path* inside a ``ScenarioSpec.to_dict`` tree.

    The path must address an **existing** leaf — creating new keys is
    refused so a typo'd axis fails loudly here instead of (or in addition
    to) tripping the spec deserialiser's unknown-key check.
    """
    parts = path.split(".")
    require(all(parts), f"axis path {path!r} must be a dotted path of non-empty segments")
    require(
        parts[0] in _AXIS_ROOTS,
        f"axis path {path!r} must start with one of {list(_AXIS_ROOTS)} "
        "(name/description/schema are derived, not sweepable)",
    )
    node = tree
    for segment in parts[:-1]:
        node = _child(node, segment, path)
    leaf = parts[-1]
    if isinstance(node, list):
        node[_index(leaf, path, len(node))] = value
    else:
        require(isinstance(node, dict), f"axis path {path!r}: {leaf!r} reached a non-container value")
        require(
            leaf in node,
            f"axis path {path!r}: unknown key {leaf!r}; available: {sorted(node)}",
        )
        node[leaf] = value


@dataclass(frozen=True)
class AxisSpec:
    """One swept parameter: a dotted spec path and its candidate values."""

    path: str
    values: tuple

    def __post_init__(self) -> None:
        require(isinstance(self.path, str) and self.path != "", "axis path must be a non-empty string")
        require(isinstance(self.values, tuple), "axis values must be a tuple")
        require(len(self.values) >= 1, f"axis {self.path!r} needs at least one value")
        labels = [format_axis_value(v) for v in self.values]
        require(
            len(set(labels)) == len(labels),
            f"axis {self.path!r} has duplicate values {labels} (cell names must be unique)",
        )

    def to_dict(self) -> dict:
        """JSON-ready mapping; :meth:`from_dict` inverts it exactly."""
        return {"path": self.path, "values": list(self.values)}

    @classmethod
    def from_dict(cls, data: dict) -> "AxisSpec":
        """Rebuild from a :meth:`to_dict` mapping (unknown keys rejected)."""
        reject_unknown_keys(data, ("path", "values"), "axis", required=("path", "values"))
        values = data["values"]
        require(isinstance(values, (list, tuple)), f"axis {data['path']!r} values must be a list")
        return cls(path=data["path"], values=tuple(values))


def as_axis(axis) -> AxisSpec:
    """Coerce an :class:`AxisSpec` or a ``(path, values)`` pair to an axis."""
    if isinstance(axis, AxisSpec):
        return axis
    require(
        isinstance(axis, (tuple, list)) and len(axis) == 2,
        f"axes must be AxisSpec or (path, values) pairs, got {axis!r}",
    )
    path, values = axis
    require(isinstance(values, (list, tuple)), f"axis {path!r} values must be a sequence")
    return AxisSpec(path=path, values=tuple(values))


@dataclass(frozen=True)
class GridCell:
    """One expanded point of a design grid."""

    index: int
    name: str
    coords: dict  # axis path -> value, in axis order
    spec: ScenarioSpec


@dataclass(frozen=True)
class DesignGrid(JsonDocument):
    """A base scenario plus N parameter axes (their Cartesian product)."""

    base: ScenarioSpec
    axes: tuple[AxisSpec, ...]

    def __post_init__(self) -> None:
        require(isinstance(self.base, ScenarioSpec), "base must be a ScenarioSpec")
        require(isinstance(self.axes, tuple), "axes must be a tuple of AxisSpec")
        require(len(self.axes) >= 1, "a design grid needs at least one axis")
        for axis in self.axes:
            require(isinstance(axis, AxisSpec), "axes must contain AxisSpec instances")
        paths = [axis.path for axis in self.axes]
        require(len(set(paths)) == len(paths), f"duplicate axis paths: {paths}")
        # Overlapping paths (one a segment-prefix of another, e.g.
        # "system.icn2" and "system.icn2.bandwidth") would let a later
        # axis silently clobber an earlier one's value, making the cell's
        # reported coordinates lie about the evaluated spec.
        for i, a in enumerate(paths):
            for b in paths[i + 1 :]:
                sa, sb = a.split("."), b.split(".")
                n = min(len(sa), len(sb))
                require(
                    sa[:n] != sb[:n],
                    f"overlapping axis paths {a!r} and {b!r}: one addresses "
                    "a value inside the other's subtree",
                )
        # Serialisability (registered pattern, valid schema) must fail at
        # grid construction, before any cell burns compute.
        self.base.to_dict()

    @property
    def size(self) -> int:
        """Number of cells (the product of the axis lengths)."""
        return math.prod(len(axis.values) for axis in self.axes)

    def cell_name(self, values: tuple) -> str:
        """Deterministic variant name for one coordinate tuple."""
        parts = [
            f"{axis.path}={format_axis_value(value)}"
            for axis, value in zip(self.axes, values)
        ]
        return "/".join([self.base.name] + parts)

    def cells(self) -> tuple[GridCell, ...]:
        """Expand the Cartesian product, row-major (last axis fastest).

        A section is built on the first cell that needs it: a copy of the
        base section with that cell's values set, passed to the section's
        ``from_dict``.  Later cells with the same value indices on the
        section's axes reuse the object (indices, because a subtree axis
        takes unhashable dict values).  Cells are built in row-major order
        and a cell's sections in ``ScenarioSpec.from_dict``'s order, so the
        first invalid cell is the one named, with the error a per-cell
        ``ScenarioSpec.from_dict`` would raise.
        """
        base_dict = self.base.to_dict()
        # Axis paths never overlap, so whether one resolves does not depend
        # on any axis value: setting the first cell's values on a copy of
        # the base raises a bad path's own error, unwrapped, before any
        # cell is validated.
        first = _copy_tree(base_dict)
        for axis in self.axes:
            set_by_path(first, axis.path, axis.values[0])
        sections = [
            (root, build, [i for i, axis in enumerate(self.axes) if axis.path.split(".")[0] == root], {})
            for root, build in _SECTIONS
        ]
        description = f"grid cell of {self.base.name!r}"
        out = []
        for index, picks in enumerate(itertools.product(*(range(len(a.values)) for a in self.axes))):
            values = tuple(axis.values[pick] for axis, pick in zip(self.axes, picks))
            name = self.cell_name(values)
            parts = {}
            try:
                for root, build, members, built in sections:
                    key = tuple(picks[i] for i in members)
                    if key not in built:
                        tree = {root: _copy_tree(base_dict[root])}
                        for i in members:
                            set_by_path(tree, self.axes[i].path, values[i])
                        built[key] = build(tree[root])
                    parts[root] = built[key]
                spec = ScenarioSpec(name=name, description=description, **parts)
            except ValueError as exc:
                raise ValueError(f"grid cell {name!r} is invalid: {exc}") from exc
            coords = {axis.path: value for axis, value in zip(self.axes, values)}
            out.append(GridCell(index=index, name=name, coords=coords, spec=spec))
        return tuple(out)

    # -- serialisation ---------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready mapping; :meth:`from_dict` inverts it exactly."""
        return {
            "schema": GRID_SCHEMA,
            "base": self.base.to_dict(),
            "axes": [axis.to_dict() for axis in self.axes],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DesignGrid":
        """Rebuild from a :meth:`to_dict` mapping (unknown keys rejected)."""
        reject_unknown_keys(data, ("schema", "base", "axes"), "grid", required=("base", "axes"))
        schema = data.get("schema", GRID_SCHEMA)
        require(
            schema == GRID_SCHEMA,
            f"unsupported grid schema {schema!r} (this build reads {GRID_SCHEMA!r})",
        )
        axes = data["axes"]
        require(isinstance(axes, (list, tuple)), "grid 'axes' must be a list")
        return cls(
            base=ScenarioSpec.from_dict(data["base"]),
            axes=tuple(AxisSpec.from_dict(a) for a in axes),
        )
