"""Map availability states to degraded systems the closed forms can price.

This is the glue of the hierarchical decomposition: every state of the
availability chain (:mod:`repro.performability.states`) becomes a concrete
:class:`~repro.core.parameters.SystemConfig` that the existing
:class:`~repro.core.stacked.StackedModel` prices unchanged — no simulator,
no new model equations.

Degradation semantics (the documented approximations):

* **switch / link / ports** failures derate the *aggregate bandwidth* of
  the affected network: losing ``k`` of the ``S`` components at one tree
  level multiplies that network's bandwidth by ``(S - k) / S`` (for
  ``ports``, by ``1 - k * fraction``).  This treats a partially-failed
  level as a uniformly thinner level rather than re-deriving the journey
  distribution of an irregular tree — the standard capacity-oriented
  reading, and the one that keeps every state inside the paper's closed
  forms.  Factors from multiple modes hitting the same network compose
  multiplicatively.
* **node** failures leave the topology's shape alone (an m-port n-tree
  with holes is still routed as the full tree) and are instead accounted
  as *capacity weighting*: a state with ``k`` failed nodes serves load on
  ``N - k`` of ``N`` nodes, which the evaluation layer folds into the
  availability-weighted metrics.

Construction is validated *hard*, mirroring ``DesignGrid``'s invalid-cell
behaviour: a scenario whose tracked states would disconnect the fabric
(remove a level's last switch/link, or every compute node) fails at
spec-expansion time with a diagnostic naming the offending state — not
with NaNs three layers later.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro._util import require
from repro.core.parameters import NetworkCharacteristics, SystemConfig
from repro.core.topology_math import num_nodes, switches_per_level
from repro.performability.spec import FailureMode, FailureScenario
from repro.performability.states import enumerate_states, state_label

__all__ = [
    "DegradedState",
    "expand_states",
    "mode_population",
    "resolve_populations",
]

#: Bandwidth factors at or below this are treated as a disconnected fabric.
_MIN_FACTOR = 1e-9


@dataclass(frozen=True)
class DegradedState:
    """One availability state resolved against a concrete system.

    state:
        failure multiplicities per mode (the chain's state tuple).
    label:
        human-readable name (:func:`~repro.performability.states.state_label`).
    system:
        the degraded :class:`~repro.core.parameters.SystemConfig` —
        bandwidth-derated networks, topology shape unchanged.
    active_nodes:
        compute nodes still serving load in this state (``N`` minus the
        state's node failures); the evaluation layer weights capacity by
        ``active_nodes / N``.
    """

    state: tuple[int, ...]
    label: str
    system: SystemConfig
    active_nodes: int


def _tree_depth_for(system: SystemConfig, mode: FailureMode) -> int:
    """Tree depth of the network a switch/link/ports mode targets."""
    if mode.role == "icn2":
        require(
            system.num_clusters > 1,
            f"failure mode {mode.label!r} targets the ICN2, but system "
            f"{system.name!r} has a single cluster (no ICN2 exists)",
        )
        return system.icn2_tree_depth
    cluster = mode.cluster
    assert cluster is not None  # enforced by FailureMode validation
    require(
        cluster < system.num_clusters,
        f"failure mode {mode.label!r} targets cluster {cluster}, but system "
        f"{system.name!r} has {system.num_clusters} cluster(s)",
    )
    return system.clusters[cluster].tree_depth


def _level_for(mode: FailureMode, depth: int) -> int:
    """Resolved tree level of a mode (``None`` means the top level)."""
    if mode.level is None:
        return depth
    require(
        mode.level <= depth,
        f"failure mode {mode.label!r} targets level {mode.level} of a "
        f"depth-{depth} tree",
    )
    return mode.level


def mode_population(system: SystemConfig, mode: FailureMode) -> int:
    """Number of components a mode draws failures from in *system*.

    ``node`` — the cluster's node count (or the whole system's when no
    cluster is named); ``switch`` — switches at the resolved level of the
    target tree; ``link`` — full-duplex links at that level (``N`` per
    adjacent level pair of an m-port n-tree); ``ports`` — the mode's own
    ``count`` (each unit degrades the level by ``fraction``).
    """
    if mode.kind == "node":
        if mode.cluster is None:
            population = system.total_nodes
        else:
            require(
                mode.cluster < system.num_clusters,
                f"failure mode {mode.label!r} targets cluster {mode.cluster}, "
                f"but system {system.name!r} has {system.num_clusters} cluster(s)",
            )
            population = system.cluster_sizes[mode.cluster]
    elif mode.kind == "ports":
        _level_for(mode, _tree_depth_for(system, mode))  # validate targeting
        population = mode.count
    else:
        depth = _tree_depth_for(system, mode)
        level = _level_for(mode, depth)
        if mode.kind == "switch":
            population = switches_per_level(system.switch_ports, depth)[level - 1]
        else:  # link
            population = num_nodes(system.switch_ports, depth)
    require(
        mode.count <= population,
        f"failure mode {mode.label!r} tracks up to {mode.count} simultaneous "
        f"failures but only {population} component(s) exist in system "
        f"{system.name!r}",
    )
    return population


def resolve_populations(
    system: SystemConfig, scenario: FailureScenario
) -> tuple[int, ...]:
    """Component populations per mode, in mode order (feeds the CTMC)."""
    return tuple(mode_population(system, mode) for mode in scenario.modes)


def _derate(
    net: NetworkCharacteristics, factor: float, what: str
) -> NetworkCharacteristics:
    """Multiply a network's bandwidth by *factor*; refuse a dead network."""
    require(
        factor > _MIN_FACTOR,
        f"would disconnect the fabric: {what} has no capacity left",
    )
    if factor == 1.0:
        return net
    return replace(net, bandwidth=net.bandwidth * factor)


def _degraded_system(
    system: SystemConfig, scenario: FailureScenario, state: tuple[int, ...]
) -> DegradedState:
    """Build the degraded system of one state (raises on a dead fabric)."""
    # Accumulate bandwidth factors per target network, then apply them in
    # one pass so several modes hitting the same network compose.
    icn2_factor = 1.0
    cluster_factors: dict[tuple[int, str], float] = {}
    node_losses = 0
    for mode, k in zip(scenario.modes, state):
        if k == 0:
            continue
        if mode.kind == "node":
            node_losses += k
            continue
        if mode.kind == "ports":
            fraction = mode.fraction
            assert fraction is not None  # enforced by FailureMode validation
            factor = 1.0 - k * fraction
        else:
            population = mode_population(system, mode)
            factor = (population - k) / population
        depth = _tree_depth_for(system, mode)
        level = _level_for(mode, depth)
        what = (
            f"{mode.role} level {level} after {k} {mode.kind} failure(s) "
            f"({mode.label!r})"
        )
        require(
            factor > _MIN_FACTOR,
            f"would disconnect the fabric: {what} has no capacity left",
        )
        if mode.role == "icn2":
            icn2_factor *= factor
        else:
            assert mode.cluster is not None and mode.role is not None
            key = (mode.cluster, mode.role)
            cluster_factors[key] = cluster_factors.get(key, 1.0) * factor

    active = system.total_nodes - node_losses
    require(
        active >= 1,
        f"removes all {system.total_nodes} compute nodes",
    )

    degraded = system
    if icn2_factor != 1.0:
        degraded = replace(
            degraded, icn2=_derate(system.icn2, icn2_factor, "the ICN2")
        )
    if cluster_factors:
        clusters = list(degraded.clusters)
        for (cluster, role), factor in sorted(cluster_factors.items()):
            spec = clusters[cluster]
            net = getattr(spec, role)
            clusters[cluster] = replace(
                spec,
                **{role: _derate(net, factor, f"cluster {cluster}'s {role}")},
            )
        degraded = replace(degraded, clusters=tuple(clusters))
    return DegradedState(
        state=state,
        label=state_label(scenario, state),
        system=degraded,
        active_nodes=active,
    )


def expand_states(
    system: SystemConfig, scenario: FailureScenario
) -> list[DegradedState]:
    """Resolve every tracked availability state to a degraded system.

    Order matches :func:`~repro.performability.states.enumerate_states`
    (pristine first).  Any state whose degraded system would be invalid —
    disconnected fabric, no compute nodes left, a mode targeting a level
    or cluster the system does not have — raises :class:`ValueError`
    naming the state, in the same shape as ``DesignGrid``'s invalid-cell
    diagnostic, so a bad failure spec dies at expansion time.
    """
    resolve_populations(system, scenario)  # validate all modes up front
    out = []
    for state in enumerate_states(scenario):
        try:
            out.append(_degraded_system(system, scenario, state))
        except ValueError as exc:
            label = state_label(scenario, state)
            raise ValueError(
                f"availability state {label!r} is invalid: {exc}"
            ) from exc
    return out
