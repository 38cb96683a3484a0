"""Traffic patterns: the paper's uniform baseline and non-uniform extensions.

The paper assumes uniform destinations (assumption 2) and names non-uniform
traffic as future work (§5).  Every pattern here implements **both** the
model-facing protocol (:class:`repro.core.model.TrafficPatternLike` —
per-cluster outgoing probability and destination-cluster weights) and the
simulator-facing protocol (:class:`repro.simulation.traffic.
SimTrafficPattern` — destination sampling), so the same object drives a
model evaluation and its validating simulation.

Registry
--------
Patterns register themselves under a short name with their constructor
parameters exposed as a plain dict, so a pattern serialises to
``{"name": ..., "params": {...}}`` and scenario configs (see
:mod:`repro.scenarios`) round-trip through JSON.  Third-party patterns
join the registry with :func:`register_pattern`.
"""

from __future__ import annotations

from typing import ClassVar

import numpy as np

from repro._util import is_real, reject_unknown_keys, require, require_int
from repro.cluster.system import HeterogeneousSystem
from repro.core.parameters import SystemConfig

__all__ = [
    "UniformTraffic",
    "LocalityTraffic",
    "HotspotTraffic",
    "RegisteredPattern",
    "register_pattern",
    "pattern_names",
    "make_pattern",
    "pattern_to_dict",
    "pattern_from_dict",
]

_PATTERN_REGISTRY: dict[str, type] = {}


def register_pattern(cls: type) -> type:
    """Class decorator: register *cls* under its ``pattern_name``.

    The class must define ``pattern_name`` (a short identifier) and a
    ``pattern_params()`` method whose dict, splatted back into the
    constructor, rebuilds an equal pattern — that contract is what makes
    :func:`pattern_to_dict`/:func:`pattern_from_dict` a true round-trip.
    """
    name = getattr(cls, "pattern_name", None)
    require(isinstance(name, str) and name != "", f"{cls.__name__} must define a non-empty pattern_name")
    require(name not in _PATTERN_REGISTRY, f"pattern name {name!r} already registered")
    _PATTERN_REGISTRY[name] = cls
    return cls


def pattern_names() -> tuple[str, ...]:
    """Registered pattern names, sorted."""
    return tuple(sorted(_PATTERN_REGISTRY))


def make_pattern(name: str, **params):
    """Instantiate the registered pattern *name* with *params*.

    Unknown names raise ``KeyError``; wrong/missing parameters raise
    ``ValueError`` (not ``TypeError``), so callers surfacing configuration
    mistakes can rely on the library's usual exception vocabulary.
    """
    if name not in _PATTERN_REGISTRY:
        raise KeyError(f"unknown traffic pattern {name!r}; registered: {', '.join(pattern_names())}")
    try:
        return _PATTERN_REGISTRY[name](**params)
    except TypeError as exc:
        raise ValueError(f"invalid parameters for pattern {name!r}: {exc}") from exc


def pattern_to_dict(pattern) -> dict:
    """Serialise a registered pattern as ``{"name", "params"}``.

    The pattern's *exact class* must be the registered one: a subclass
    inheriting a base's ``pattern_name`` would serialise under the base
    name and silently deserialise as the base class — different traffic
    behaviour with no error — so it is rejected here instead.
    """
    name = getattr(pattern, "pattern_name", None)
    require(
        isinstance(name, str) and _PATTERN_REGISTRY.get(name) is type(pattern),
        f"pattern {type(pattern).__name__} is not registered and cannot be serialised "
        f"(register it with repro.workloads.register_pattern)",
    )
    return {"name": name, "params": dict(pattern.pattern_params())}


def pattern_from_dict(data: dict) -> "RegisteredPattern":
    """Rebuild a pattern from a :func:`pattern_to_dict` mapping."""
    reject_unknown_keys(data, ("name", "params"), "pattern", required=("name",))
    params = data.get("params", {})
    require(isinstance(params, dict), "pattern 'params' must be a mapping")
    return make_pattern(data["name"], **params)


class RegisteredPattern:
    """Mixin giving registered patterns value semantics and a serial form.

    Equality and hashing follow ``(type, pattern_params())`` so a pattern
    that went through ``to_dict -> json -> from_dict`` compares equal to the
    original — the property scenario-spec round-trip tests rely on.
    """

    pattern_name: ClassVar[str] = ""

    def pattern_params(self) -> dict:
        """Constructor parameters; default: no parameters."""
        return {}

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.pattern_params() == other.pattern_params()

    def __hash__(self) -> int:
        return hash((type(self), tuple(sorted(self.pattern_params().items()))))

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in sorted(self.pattern_params().items()))
        return f"{type(self).__name__}({args})"


@register_pattern
class UniformTraffic(RegisteredPattern):
    """Paper assumption 2: destinations uniform over all other nodes.

    Equivalent to passing ``pattern=None`` to the model; provided explicitly
    so the pattern plumbing itself can be validated against the closed form.
    """

    pattern_name = "uniform"

    def outgoing_probability(self, system: SystemConfig, cluster_index: int) -> float:
        """Eq. 2 recovered from first principles."""
        return system.outgoing_probability(cluster_index)

    def destination_cluster_weights(self, system: SystemConfig, cluster_index: int) -> list[float]:
        """P(destination cluster = j | inter) ∝ N_j for j ≠ i."""
        sizes = system.cluster_sizes
        return [0.0 if j == cluster_index else float(sizes[j]) for j in range(system.num_clusters)]

    def sample_destination(self, rng: np.random.Generator, system: HeterogeneousSystem, source: int) -> int:
        draw = int(rng.integers(0, system.total_nodes - 1))
        return draw + 1 if draw >= source else draw


@register_pattern
class LocalityTraffic(RegisteredPattern):
    """Tunable locality: a message stays in its cluster with probability *p*.

    ``locality=0`` sends everything outward; under ``locality`` equal to the
    uniform value ``1 - U_i`` this degenerates to (a cluster-wise
    approximation of) the paper's baseline.  Destinations are uniform within
    the chosen scope.
    """

    pattern_name = "locality"

    def __init__(self, locality: float) -> None:
        require(
            is_real(locality) and 0.0 <= locality <= 1.0,
            f"locality must be in [0, 1], got {locality!r}",
        )
        self.locality = float(locality)

    def pattern_params(self) -> dict:
        return {"locality": self.locality}

    def outgoing_probability(self, system: SystemConfig, cluster_index: int) -> float:
        if system.cluster_sizes[cluster_index] <= 1:
            return 1.0 if system.num_clusters > 1 else 0.0
        return 1.0 - self.locality

    def destination_cluster_weights(self, system: SystemConfig, cluster_index: int) -> list[float]:
        sizes = system.cluster_sizes
        return [0.0 if j == cluster_index else float(sizes[j]) for j in range(system.num_clusters)]

    def sample_destination(self, rng: np.random.Generator, system: HeterogeneousSystem, source: int) -> int:
        cluster = system.cluster_of(source)
        stay = cluster.num_nodes > 1 and float(rng.random()) < self.locality
        if stay:
            lo = cluster.first_global_id
            draw = lo + int(rng.integers(0, cluster.num_nodes - 1))
            return draw + 1 if draw >= source else draw
        outside = system.total_nodes - cluster.num_nodes
        if outside == 0:  # single-cluster system: fall back to intra
            draw = int(rng.integers(0, system.total_nodes - 1))
            return draw + 1 if draw >= source else draw
        draw = int(rng.integers(0, outside))
        if draw >= cluster.first_global_id:
            draw += cluster.num_nodes
        return draw


@register_pattern
class HotspotTraffic(RegisteredPattern):
    """A fraction of all traffic targets one *hot* cluster.

    With probability ``hot_fraction`` the destination is uniform inside the
    hot cluster; otherwise it is uniform over all other nodes (the paper's
    baseline).  Models the "popular file server cluster" scenario that
    motivates non-uniform analysis.

    Known gap: the model prices a pair's concentrator from the sending
    clusters' rates, ``λ_g (N_i U_i + N_j U_j) / 2``
    (:func:`~repro.core.concentrator.concentrator_pair_wait` with
    :func:`~repro.core.inter.pair_rates`, and their stacked twins), so the
    hot cluster's inbound dispatcher load is never modelled.  On
    ``544-hotspot``, ``validate --points 5 --messages 10000`` gives model
    56.42 against simulation 936.5 at λ_g = 3.796e-04 (−94 %), and −5 % at
    1.898e-04.
    """

    pattern_name = "hotspot"

    def __init__(self, hot_cluster: int, hot_fraction: float) -> None:
        require(
            is_real(hot_fraction) and 0.0 <= hot_fraction <= 1.0,
            f"hot_fraction must be in [0, 1], got {hot_fraction!r}",
        )
        require_int(hot_cluster, "hot_cluster", minimum=0)
        self.hot_cluster = int(hot_cluster)
        self.hot_fraction = float(hot_fraction)

    def pattern_params(self) -> dict:
        return {"hot_cluster": self.hot_cluster, "hot_fraction": self.hot_fraction}

    def _check(self, system: SystemConfig) -> None:
        require(self.hot_cluster < system.num_clusters, f"hot_cluster {self.hot_cluster} out of range for C={system.num_clusters}")

    def outgoing_probability(self, system: SystemConfig, cluster_index: int) -> float:
        self._check(system)
        h = self.hot_fraction
        uniform_u = system.outgoing_probability(cluster_index)
        if cluster_index == self.hot_cluster:
            # Hot-directed traffic from inside the hot cluster stays local.
            return (1.0 - h) * uniform_u
        return h + (1.0 - h) * uniform_u

    def destination_cluster_weights(self, system: SystemConfig, cluster_index: int) -> list[float]:
        self._check(system)
        sizes = system.cluster_sizes
        n_total = system.total_nodes
        h = self.hot_fraction
        weights = []
        for j in range(system.num_clusters):
            if j == cluster_index:
                weights.append(0.0)
                continue
            base = (1.0 - h) * sizes[j] / (n_total - 1)
            if j == self.hot_cluster:
                base += h
            weights.append(base)
        return weights

    def sample_destination(self, rng: np.random.Generator, system: HeterogeneousSystem, source: int) -> int:
        self._check(system.config)
        hot = system.clusters[self.hot_cluster]
        if float(rng.random()) < self.hot_fraction:
            inside = hot.contains_global(source)
            pool = hot.num_nodes - (1 if inside else 0)
            if pool > 0:
                draw = hot.first_global_id + int(rng.integers(0, pool))
                if inside and draw >= source:
                    draw += 1
                return draw
        draw = int(rng.integers(0, system.total_nodes - 1))
        return draw + 1 if draw >= source else draw
