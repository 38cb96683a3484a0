"""Declarative, JSON-round-trippable scenario specifications.

A :class:`ScenarioSpec` bundles everything one model/simulation study needs
— system organisation, message geometry, equation-interpretation options,
traffic pattern and a load-grid policy — into a single value object that
serialises to a plain dict (and therefore to JSON) and back *exactly*:

    spec == ScenarioSpec.from_dict(spec.to_dict())

holds for every spec whose pattern is registered (see
:mod:`repro.workloads.patterns`).  Non-finite floats (the default
``latency_budget`` is ``inf``) survive a file round-trip through
:func:`repro.io.results.save_json`/:func:`~repro.io.results.load_json`,
which tag them.

The spec is the *only* currency of the public workflow surface: the
scenario registry (:mod:`repro.scenarios.registry`) stores named specs, the
:class:`repro.experiments.Experiment` facade consumes one, and the CLI's
``--scenario``/``--config`` flags resolve to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro._util import is_real, reject_unknown_keys, require, require_int
from repro.core.parameters import MessageSpec, ModelOptions, SystemConfig
from repro.core.stacked import StackedModel
from repro.io.results import JsonDocument
from repro.io.schemas import SCENARIO_SCHEMA
from repro.workloads.patterns import pattern_from_dict, pattern_to_dict

__all__ = ["LoadGridPolicy", "ScenarioSpec", "SCENARIO_SCHEMA"]


@dataclass(frozen=True)
class LoadGridPolicy:
    """How a scenario turns its saturation load into a figure-ready grid.

    The keywords of :meth:`~repro.core.stacked.StackedModel.auto_load_grids`:
    *points* evenly spaced loads covering ``(0, fraction_of_saturation ·
    λ*]`` (from 0 when *include_zero* is set), with its defaults.
    """

    points: int = 12
    fraction_of_saturation: float = 0.95
    include_zero: bool = False

    def __post_init__(self) -> None:
        require_int(self.points, "points", minimum=2)
        require(
            is_real(self.fraction_of_saturation) and 0.0 < self.fraction_of_saturation < 1.0,
            f"fraction_of_saturation must be in (0, 1), got {self.fraction_of_saturation!r}",
        )
        require(isinstance(self.include_zero, bool), "include_zero must be a bool")

    def grid(self, stack: StackedModel) -> np.ndarray:
        """Every cell's grid under this policy, shape ``(cells, points)``."""
        return stack.auto_load_grids(**self.to_dict())

    def to_dict(self) -> dict:
        """JSON-ready mapping; :meth:`from_dict` inverts it exactly."""
        return {
            "points": self.points,
            "fraction_of_saturation": self.fraction_of_saturation,
            "include_zero": self.include_zero,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LoadGridPolicy":
        """Rebuild from a :meth:`to_dict` mapping (unknown keys rejected)."""
        reject_unknown_keys(data, ("points", "fraction_of_saturation", "include_zero"), "load_grid")
        return cls(**data)


@dataclass(frozen=True)
class ScenarioSpec(JsonDocument):
    """One fully-described study: system + message + options + traffic + grid.

    name:
        identifier of the scenario (the registry key when registered).
    system:
        the cluster-of-clusters organisation under study.
    message:
        fixed message geometry (defaults to the paper's M=32, d_m=256).
    options:
        equation-interpretation switches (defaults follow DESIGN.md §3).
    pattern:
        optional non-uniform traffic pattern; must be registry-backed
        (:mod:`repro.workloads.patterns`) for the spec to serialise.
    load_grid:
        policy producing the scenario's load grid for sweeps/validation.
    latency_budget:
        default mean-latency budget for capacity planning; ``inf`` means
        "no budget configured" (callers must then pass one explicitly).
    description:
        free-form one-liner shown by ``python -m repro scenarios``.
    """

    name: str
    system: SystemConfig
    message: MessageSpec = MessageSpec(32, 256.0)
    options: ModelOptions = ModelOptions()
    pattern: object | None = None
    load_grid: LoadGridPolicy = LoadGridPolicy()
    latency_budget: float = math.inf
    description: str = ""

    def __post_init__(self) -> None:
        require(isinstance(self.name, str) and self.name != "", "scenario name must be a non-empty string")
        require(isinstance(self.system, SystemConfig), "system must be a SystemConfig")
        require(isinstance(self.message, MessageSpec), "message must be a MessageSpec")
        require(isinstance(self.options, ModelOptions), "options must be a ModelOptions")
        require(isinstance(self.load_grid, LoadGridPolicy), "load_grid must be a LoadGridPolicy")
        require(
            is_real(self.latency_budget)
            and not math.isnan(self.latency_budget)
            and self.latency_budget > 0,
            f"latency_budget must be positive (inf allowed), got {self.latency_budget!r}",
        )
        require(isinstance(self.description, str), "description must be a string")

    # -- derived ---------------------------------------------------------------

    def with_overrides(
        self,
        *,
        message: MessageSpec | None = None,
        options: ModelOptions | None = None,
        pattern: object | None = None,
        clear_pattern: bool = False,
        load_grid: LoadGridPolicy | None = None,
        latency_budget: float | None = None,
    ) -> "ScenarioSpec":
        """Copy with selected components replaced (CLI flag plumbing)."""
        return replace(
            self,
            message=message or self.message,
            options=options or self.options,
            pattern=None if clear_pattern else (pattern if pattern is not None else self.pattern),
            load_grid=load_grid or self.load_grid,
            latency_budget=self.latency_budget if latency_budget is None else latency_budget,
        )

    # -- serialisation ---------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready mapping; :meth:`from_dict` inverts it exactly.

        Raises ``ValueError`` when the pattern is not registry-backed —
        an unserialisable spec should fail at export time, not at load time.
        """
        return {
            "schema": SCENARIO_SCHEMA,
            "name": self.name,
            "description": self.description,
            "system": self.system.to_dict(),
            "message": self.message.to_dict(),
            "options": self.options.to_dict(),
            "pattern": None if self.pattern is None else pattern_to_dict(self.pattern),
            "load_grid": self.load_grid.to_dict(),
            "latency_budget": self.latency_budget,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        """Rebuild from a :meth:`to_dict` mapping (unknown keys rejected)."""
        reject_unknown_keys(
            data,
            (
                "schema",
                "name",
                "description",
                "system",
                "message",
                "options",
                "pattern",
                "load_grid",
                "latency_budget",
            ),
            "scenario",
            required=("system",),
        )
        schema = data.get("schema", SCENARIO_SCHEMA)
        require(
            schema == SCENARIO_SCHEMA,
            f"unsupported scenario schema {schema!r} (this build reads {SCENARIO_SCHEMA!r})",
        )
        pattern_data = data.get("pattern")
        return cls(
            name=data.get("name", "scenario"),
            description=data.get("description", ""),
            system=SystemConfig.from_dict(data["system"]),
            message=MessageSpec.from_dict(data["message"]) if "message" in data else MessageSpec(32, 256.0),
            options=ModelOptions.from_dict(data["options"]) if "options" in data else ModelOptions(),
            pattern=None if pattern_data is None else pattern_from_dict(pattern_data),
            load_grid=LoadGridPolicy.from_dict(data["load_grid"]) if "load_grid" in data else LoadGridPolicy(),
            latency_budget=data.get("latency_budget", math.inf),
        )
