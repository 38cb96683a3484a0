"""Named scenario registry: paper presets plus generated families.

The paper evaluates exactly two organisations (Table 1); the registry keeps
those under their historical names ``"1120"`` and ``"544"`` and surrounds
them with generated families so a configuration-space study starts from
dozens of ready-made points:

* **scale-outs** — the Table 1 organisations replicated to the next valid
  ICN2 populations (``C = 2·(m/2)**n_c``), up to N=4480 nodes;
* **heterogeneity ladder** — fixed ``m=8, C=8`` systems stepping from a
  homogeneous node organisation to an extreme small/large cluster split;
* **ICN2 bandwidth skews** — the presets with the global network halved or
  doubled (the paper's Fig. 7 axis, frozen into named scenarios);
* **message / traffic variants** — a long-message preset and non-uniform
  (hotspot, locality) traffic on the N=544 system.

Scenarios are registered as *factories* (specs are built on first access)
so importing this module stays cheap.  :func:`register_scenario` accepts
user factories; names are unique.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterable

from repro._util import require
from repro.analysis.whatif import scale_network
from repro.core.parameters import (
    ClusterSpec,
    MessageSpec,
    SystemConfig,
    paper_system_544,
    paper_system_1120,
)
from repro.scenarios.spec import ScenarioSpec
from repro.workloads.patterns import HotspotTraffic, LocalityTraffic

__all__ = [
    "register_scenario",
    "scenario_names",
    "get_scenario",
    "get_scenarios",
    "iter_scenarios",
    "PAPER_PRESETS",
]

#: The two Table 1 organisations (kept addressable by their node counts).
PAPER_PRESETS = ("1120", "544")

_REGISTRY: dict[str, Callable[[], ScenarioSpec]] = {}


def register_scenario(name: str, factory: Callable[[], ScenarioSpec]) -> None:
    """Register *factory* (returning a :class:`ScenarioSpec`) under *name*."""
    require(isinstance(name, str) and name != "", "scenario name must be a non-empty string")
    require(name not in _REGISTRY, f"scenario {name!r} already registered")
    _REGISTRY[name] = factory


def scenario_names() -> tuple[str, ...]:
    """All registered scenario names (presets first, then sorted)."""
    rest = sorted(n for n in _REGISTRY if n not in PAPER_PRESETS)
    return tuple(n for n in PAPER_PRESETS if n in _REGISTRY) + tuple(rest)


def get_scenario(name: str) -> ScenarioSpec:
    """The spec registered under *name*.

    Raises ``KeyError`` with the available names when *name* is unknown —
    the CLI surfaces that message verbatim.
    """
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(scenario_names())}"
        )
    spec = _REGISTRY[name]()
    require(isinstance(spec, ScenarioSpec), f"factory for {name!r} did not return a ScenarioSpec")
    return spec


def get_scenarios(scenarios: Iterable[str | ScenarioSpec], workflow: str) -> list[ScenarioSpec]:
    """The specs of *scenarios*, registered names and/or specs, for *workflow*.

    At least one, each a name or a :class:`ScenarioSpec`, and no name
    twice: a multi-scenario result keys its rows by scenario name.
    """
    specs = [get_scenario(s) if isinstance(s, str) else s for s in scenarios]
    require(len(specs) > 0, f"{workflow} needs at least one scenario")
    for spec in specs:
        require(isinstance(spec, ScenarioSpec), "scenarios must be names or ScenarioSpec")
    names = [spec.name for spec in specs]
    require(len(set(names)) == len(names), f"duplicate scenario names: {names}")
    return specs


def iter_scenarios():
    """Yield ``(name, spec)`` for every registered scenario."""
    for name in scenario_names():
        yield name, get_scenario(name)


# ---------------------------------------------------------------------------
# built-in scenario families
# ---------------------------------------------------------------------------


def _spec(name: str, system: SystemConfig, description: str, **kwargs) -> ScenarioSpec:
    return ScenarioSpec(name=name, system=system, description=description, **kwargs)


def _scaled_out(base: SystemConfig, factor: int) -> SystemConfig:
    """Replicate *base*'s cluster list *factor* times (C stays a valid
    ICN2 population because factor is a power of m/2 times the original).

    The name is rebuilt from the scaled system's real totals — reusing the
    base name would embed a stale N/C in every report and exported spec.
    """
    scaled = replace(base, clusters=base.clusters * factor, name="scaled")
    return replace(
        scaled,
        name=f"N{scaled.total_nodes}-m{scaled.switch_ports}-C{scaled.num_clusters}",
    )


def _ladder_system(depths: "list[int]", rung: str) -> SystemConfig:
    clusters = tuple(
        ClusterSpec(tree_depth=n, name=f"c{idx}") for idx, n in enumerate(depths)
    )
    return SystemConfig(switch_ports=8, clusters=clusters, name=f"het8-{rung}")


def _register_builtins() -> None:
    # -- paper presets ------------------------------------------------------
    register_scenario(
        "1120",
        lambda: _spec("1120", paper_system_1120(), "paper Table 1 row 1: N=1120, C=32, m=8"),
    )
    register_scenario(
        "544",
        lambda: _spec("544", paper_system_544(), "paper Table 1 row 2: N=544, C=16, m=4"),
    )

    # -- scale-outs ---------------------------------------------------------
    register_scenario(
        "1120-x4",
        lambda: _spec(
            "1120-x4",
            _scaled_out(paper_system_1120(), 4),
            "Table 1 row 1 replicated 4x: N=4480, C=128, m=8",
        ),
    )
    register_scenario(
        "544-x2",
        lambda: _spec(
            "544-x2",
            _scaled_out(paper_system_544(), 2),
            "Table 1 row 2 replicated 2x: N=1088, C=32, m=4",
        ),
    )
    register_scenario(
        "544-x4",
        lambda: _spec(
            "544-x4",
            _scaled_out(paper_system_544(), 4),
            "Table 1 row 2 replicated 4x: N=2176, C=64, m=4",
        ),
    )

    # -- heterogeneity ladder (m=8, C=8; increasing size skew) --------------
    ladder = (
        ("uniform", [2] * 8, "homogeneous rung: 8 clusters of 32 nodes (N=256)"),
        ("mild", [1] * 2 + [2] * 4 + [3] * 2, "mildly skewed rung: 8/32/128-node mix (N=400)"),
        ("split", [1] * 4 + [3] * 4, "bimodal rung: four 8-node + four 128-node clusters (N=544)"),
        ("extreme", [1] * 6 + [2] + [3], "extreme rung: six 8-node clusters + one 32 + one 128 (N=208)"),
    )
    for rung, depths, desc in ladder:
        register_scenario(
            f"het8-{rung}",
            lambda depths=depths, rung=rung, desc=desc: _spec(
                f"het8-{rung}", _ladder_system(depths, rung), f"heterogeneity ladder, {desc}"
            ),
        )

    # -- ICN2 bandwidth skews ----------------------------------------------
    for preset, factory in (("1120", paper_system_1120), ("544", paper_system_544)):
        for tag, factor in (("x0.5", 0.5), ("x2", 2.0)):
            register_scenario(
                f"{preset}-icn2-{tag}",
                lambda factory=factory, factor=factor, preset=preset, tag=tag: _spec(
                    f"{preset}-icn2-{tag}",
                    scale_network(factory(), "icn2", factor),
                    f"N={preset} with ICN2 bandwidth scaled {tag} (Fig. 7 axis)",
                ),
            )

    # -- message / traffic variants ----------------------------------------
    register_scenario(
        "1120-bigmsg",
        lambda: _spec(
            "1120-bigmsg",
            paper_system_1120(),
            "N=1120 with long messages (M=128 flits of 512 B)",
            message=MessageSpec(128, 512.0),
        ),
    )
    register_scenario(
        "544-hotspot",
        lambda: _spec(
            "544-hotspot",
            paper_system_544(),
            "N=544 with 30% of traffic targeting the last 64-node cluster",
            pattern=HotspotTraffic(hot_cluster=15, hot_fraction=0.3),
        ),
    )
    register_scenario(
        "544-local",
        lambda: _spec(
            "544-local",
            paper_system_544(),
            "N=544 with 60% intra-cluster locality",
            pattern=LocalityTraffic(0.6),
        ),
    )


_register_builtins()
