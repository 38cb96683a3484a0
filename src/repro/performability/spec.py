"""Declarative failure/repair scenarios (the performability input layer).

Production clusters run degraded: nodes, switches and links fail with some
rate and are repaired with another.  This module is the declarative
vocabulary for such churn:

* :class:`FailureMode` — one class of component failures (compute-node
  loss, switch loss at a tree level, link loss at a tree level, or a
  per-level port degradation) with exponential failure/repair rates and a
  truncation knob (``count`` — the maximum number of simultaneous failures
  of this mode the availability chain tracks);
* :class:`FailureScenario` — a bundle of modes plus an optional global
  concurrency truncation, JSON-round-trippable exactly like
  :class:`~repro.scenarios.ScenarioSpec` (``scenario ==
  FailureScenario.from_dict(scenario.to_dict())``), so a whole failure
  study is one config file (the CLI's ``performability --failures``).

A mode is *structural* here — which components of which network it
removes.  Resolving it against a concrete system (component populations,
boundary validation, the degraded :class:`~repro.core.parameters.
SystemConfig` per availability state) happens in
:mod:`repro.performability.degrade`; the CTMC arithmetic lives in
:mod:`repro.performability.states`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro._util import is_real, reject_unknown_keys, require, require_int
from repro.io.results import JsonDocument
from repro.io.schemas import PERFORMABILITY_SCHEMA

__all__ = ["FailureMode", "FailureScenario", "PERFORMABILITY_SCHEMA"]

#: Component classes a mode may remove.
_KINDS = ("node", "switch", "link", "ports")

#: Network roles a switch/link/ports mode may target.
_ROLES = ("icn1", "ecn1", "icn2")


def _require_rate(value: Any, name: str) -> None:
    """Rates are finite and non-negative (0 = the mode never fires)."""
    require(
        is_real(value) and value == value and float("-inf") < value < float("inf") and value >= 0,
        f"{name} must be a finite non-negative number, got {value!r}",
    )


@dataclass(frozen=True)
class FailureMode:
    """One class of component failures with exponential failure/repair.

    kind:
        ``"node"`` — compute-node loss (the topology keeps its shape; the
        failed nodes stop counting toward deliverable capacity);
        ``"switch"`` — switch loss at one level of a tree (derates that
        level's aggregate capacity by the failed fraction);
        ``"link"`` — full-duplex link loss at one level of a tree (same
        derating mechanism, milder per unit — levels have more links than
        switches);
        ``"ports"`` — per-level port degradation: each failed unit removes
        a declared *fraction* of a level's ports.
    role:
        which network a ``switch``/``link``/``ports`` mode targets
        (``"icn1"``/``"ecn1"``/``"icn2"``); must be ``None`` for ``node``.
    cluster:
        cluster index for ``node`` (optional — ``None`` spreads the losses
        over the whole system) and for ``icn1``/``ecn1`` roles (required:
        a physical switch/link lives in exactly one cluster); must be
        ``None`` for ``icn2``.
    level:
        tree level of a ``switch``/``link``/``ports`` mode (1..n, the root
        level is ``n``); ``None`` defaults to the top level — the fewest
        components, hence the biggest per-failure impact.
    count:
        maximum simultaneous failures of this mode the availability chain
        tracks (the per-mode truncation knob, >= 1).
    failure_rate:
        per-component exponential failure rate (1/MTBF per component);
        0 keeps the mode in the state space with probability 0 — useful
        for pure "what would this failure cost" rankings.
    repair_rate:
        per-failed-component exponential repair rate (1/MTTR); must be
        positive whenever ``failure_rate`` is.
    fraction:
        ``ports`` only — fraction of the level's ports one failed unit
        removes (in (0, 1)).
    name:
        label used in state names and tables; defaults to a derived
        ``kind``/``role`` label (:attr:`label`).
    """

    kind: str
    failure_rate: float
    repair_rate: float
    role: str | None = None
    cluster: int | None = None
    level: int | None = None
    count: int = 1
    fraction: float | None = None
    name: str = ""

    def __post_init__(self) -> None:
        require(self.kind in _KINDS, f"failure kind must be one of {_KINDS}, got {self.kind!r}")
        _require_rate(self.failure_rate, "failure_rate")
        _require_rate(self.repair_rate, "repair_rate")
        require(
            self.failure_rate == 0 or self.repair_rate > 0,
            f"repair_rate must be positive when failure_rate > 0 "
            f"(got failure_rate={self.failure_rate!r}, repair_rate={self.repair_rate!r})",
        )
        require_int(self.count, "count", minimum=1)
        if self.kind == "node":
            require(self.role is None, f"node failures take no network role, got {self.role!r}")
            require(self.level is None, f"node failures take no tree level, got {self.level!r}")
        else:
            require(
                self.role in _ROLES,
                f"{self.kind} failures need a network role in {_ROLES}, got {self.role!r}",
            )
            if self.role == "icn2":
                require(
                    self.cluster is None,
                    f"icn2 failures are system-wide; cluster must be None, got {self.cluster!r}",
                )
            else:
                require(
                    self.cluster is not None,
                    f"{self.role} failures need a cluster index (a physical "
                    f"{self.kind} lives in exactly one cluster)",
                )
            if self.level is not None:
                require_int(self.level, "level", minimum=1)
        if self.cluster is not None:
            require_int(self.cluster, "cluster", minimum=0)
        if self.kind == "ports":
            require(
                is_real(self.fraction) and 0.0 < self.fraction < 1.0,
                f"ports failures need a fraction in (0, 1), got {self.fraction!r}",
            )
        else:
            require(
                self.fraction is None,
                f"fraction only applies to ports failures, got {self.fraction!r}",
            )
        require(isinstance(self.name, str), "name must be a string")

    @property
    def label(self) -> str:
        """Display name: the explicit ``name`` or a derived structural label."""
        if self.name:
            return self.name
        parts = [self.role] if self.role is not None else []
        parts.append(self.kind)
        if self.cluster is not None:
            parts.append(f"c{self.cluster}")
        if self.level is not None:
            parts.append(f"L{self.level}")
        return "-".join(parts)

    def to_dict(self) -> dict:
        """JSON-ready mapping; :meth:`from_dict` inverts it exactly.

        ``None``-valued optionals are omitted so configs stay minimal.
        """
        out: dict = {
            "kind": self.kind,
            "failure_rate": self.failure_rate,
            "repair_rate": self.repair_rate,
            "count": self.count,
        }
        for key in ("role", "cluster", "level", "fraction"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.name:
            out["name"] = self.name
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FailureMode":
        """Rebuild from a :meth:`to_dict` mapping (unknown keys rejected)."""
        reject_unknown_keys(
            data,
            ("kind", "failure_rate", "repair_rate", "count", "role", "cluster", "level", "fraction", "name"),
            "failure mode",
            required=("kind", "failure_rate", "repair_rate"),
        )
        return cls(
            kind=data["kind"],
            failure_rate=data["failure_rate"],
            repair_rate=data["repair_rate"],
            count=data.get("count", 1),
            role=data.get("role"),
            cluster=data.get("cluster"),
            level=data.get("level"),
            fraction=data.get("fraction"),
            name=data.get("name", ""),
        )


@dataclass(frozen=True)
class FailureScenario(JsonDocument):
    """A set of failure modes plus the global concurrency truncation.

    modes:
        the failure modes, in declaration order (state tuples index them
        in this order; labels must be unique).
    max_concurrent:
        global truncation knob — states with more than this many total
        simultaneous failures are cut from the availability chain;
        ``None`` keeps the full per-mode product space.
    name:
        optional label for reports.
    """

    modes: tuple[FailureMode, ...] = field(default_factory=tuple)
    max_concurrent: int | None = None
    name: str = ""

    def __post_init__(self) -> None:
        require(isinstance(self.modes, tuple), "modes must be a tuple of FailureMode")
        require(len(self.modes) >= 1, "a failure scenario needs at least one mode")
        for mode in self.modes:
            require(
                isinstance(mode, FailureMode),
                f"modes must contain FailureMode, got {type(mode).__name__}",
            )
        labels = [mode.label for mode in self.modes]
        require(
            len(set(labels)) == len(labels),
            f"failure mode labels must be unique, got {labels} "
            "(set explicit names on modes sharing a structural label)",
        )
        if self.max_concurrent is not None:
            require_int(self.max_concurrent, "max_concurrent", minimum=1)
        require(isinstance(self.name, str), "name must be a string")

    @property
    def labels(self) -> tuple[str, ...]:
        """Mode labels, in mode order."""
        return tuple(mode.label for mode in self.modes)

    def with_rates_zeroed(self) -> "FailureScenario":
        """Copy with every failure rate set to 0 (the pristine-limit check)."""
        return replace(
            self, modes=tuple(replace(m, failure_rate=0.0) for m in self.modes)
        )

    # -- serialisation ---------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready mapping; :meth:`from_dict` inverts it exactly."""
        out: dict = {
            "schema": PERFORMABILITY_SCHEMA,
            "modes": [mode.to_dict() for mode in self.modes],
        }
        if self.max_concurrent is not None:
            out["max_concurrent"] = self.max_concurrent
        if self.name:
            out["name"] = self.name
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FailureScenario":
        """Rebuild from a :meth:`to_dict` mapping (unknown keys rejected)."""
        reject_unknown_keys(
            data, ("schema", "modes", "max_concurrent", "name"), "failure scenario",
            required=("modes",),
        )
        schema = data.get("schema", PERFORMABILITY_SCHEMA)
        require(
            schema == PERFORMABILITY_SCHEMA,
            f"unsupported failure-scenario schema {schema!r} "
            f"(this build reads {PERFORMABILITY_SCHEMA!r})",
        )
        modes = data["modes"]
        require(isinstance(modes, (list, tuple)), "failure scenario 'modes' must be a list")
        return cls(
            modes=tuple(FailureMode.from_dict(m) for m in modes),
            max_concurrent=data.get("max_concurrent"),
            name=data.get("name", ""),
        )
