"""What-if studies on network provisioning (paper Fig. 7).

The paper's design-space demonstration increases the ICN2 bandwidth by
20 % and charts the latency improvement for both Table 1 systems.  This
module generalises that study to arbitrary scaling factors and any of the
three network roles, using the analytical model (as the paper does —
"The results of analysis ... are depicted in Fig. 7").

The base systems and their variants are priced as one
:class:`~repro.core.stacked.StackedModel`: one packing, one vectorised
pass over the shared load grid and one saturation search for every curve.

Curve labels embed the system *name* alongside its node count: two
distinct systems can easily share a total node count (e.g. a base system
and a rebalanced variant), and a bare ``N=...`` label would make them
indistinguishable — :meth:`WhatIfStudy.saturation_gain` refuses ambiguous
labels instead of silently picking the first match.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro._util import require, require_int, require_positive
from repro.core.parameters import MessageSpec, ModelOptions, SystemConfig
from repro.core.stacked import StackedModel

__all__ = ["WhatIfCurve", "WhatIfStudy", "curve_label", "icn2_bandwidth_study", "scale_network"]


def curve_label(system: SystemConfig, suffix: str) -> str:
    """Canonical label of *system*'s curve with the given *suffix*.

    The single source of the label format, used by
    :func:`icn2_bandwidth_study` and by consumers that look curves up via
    :meth:`WhatIfStudy.saturation_gain` — so a format change cannot strand
    the lookups.
    """
    return f"{system.name}: N={system.total_nodes}, {suffix}"


@dataclass(frozen=True)
class WhatIfCurve:
    """Model latency curve of one system variant."""

    label: str
    loads: np.ndarray
    latencies: np.ndarray
    saturation_load: float


@dataclass(frozen=True)
class WhatIfStudy:
    """A set of comparable what-if curves over a common load grid."""

    title: str
    curves: tuple[WhatIfCurve, ...]

    def curve(self, label: str) -> WhatIfCurve:
        """The unique curve labelled *label*.

        Raises ``KeyError`` when no curve matches and ``ValueError`` when
        the label is ambiguous (several curves share it) — silently
        returning the first match would let a duplicate label misattribute
        a whole study.
        """
        matches = [c for c in self.curves if c.label == label]
        if not matches:
            raise KeyError(f"no curve labelled {label!r}")
        require(len(matches) == 1, f"ambiguous label {label!r}: {len(matches)} curves match")
        return matches[0]

    def saturation_gain(self, base_label: str, variant_label: str) -> float:
        """Ratio of saturation loads (variant / base) — the knee shift."""
        return self.curve(variant_label).saturation_load / self.curve(base_label).saturation_load


def scale_network(system: SystemConfig, role: str, factor: float) -> SystemConfig:
    """A copy of *system* with one network role's bandwidth scaled.

    ``role`` is ``"icn2"``, ``"icn1"`` or ``"ecn1"``; the latter two scale
    the corresponding network of every cluster.
    """
    require(role in ("icn2", "icn1", "ecn1"), f"unknown network role {role!r}")
    require_positive(factor, "factor")
    if role == "icn2":
        return system.with_icn2(
            system.icn2.scaled_bandwidth(factor),
            name=f"{system.name}+icn2x{factor:g}",
        )
    clusters = tuple(
        replace(
            spec,
            icn1=spec.icn1.scaled_bandwidth(factor) if role == "icn1" else spec.icn1,
            ecn1=spec.ecn1.scaled_bandwidth(factor) if role == "ecn1" else spec.ecn1,
        )
        for spec in system.clusters
    )
    return replace(system, clusters=clusters, name=f"{system.name}+{role}x{factor:g}")


def icn2_bandwidth_study(
    systems: tuple[SystemConfig, ...],
    message: MessageSpec,
    *,
    factor: float = 1.2,
    points: int = 12,
    grid_fraction: float = 0.9,
    options: ModelOptions | None = None,
) -> WhatIfStudy:
    """Paper Fig. 7: base vs +20 % ICN2 bandwidth for each system.

    All curves share the load grid of the *least* saturable base system
    (its :meth:`~repro.core.stacked.StackedModel.auto_load_grids` row at
    *grid_fraction* of λ*), so the figure is directly comparable across
    systems, exactly as the paper plots both systems on one axis.
    """
    require(len(systems) >= 1, "at least one system required")
    # The grid's own check takes any number >= 2 as a point count.
    require_int(points, "points", minimum=2)
    variants = [scale_network(s, "icn2", factor) for s in systems]
    stack = StackedModel([(s, message, options, None) for s in (*systems, *variants)])
    grids = stack.auto_load_grids(points=points, fraction_of_saturation=grid_fraction)
    lam_star = stack.saturation_load()
    grid = grids[np.argmin(lam_star[: len(systems)])]
    latencies = stack.evaluate_latencies(grid)

    curves: list[WhatIfCurve] = []
    for i, system in enumerate(systems):
        for label_suffix, cell in (("base", i), (f"icn2 x{factor:g}", len(systems) + i)):
            curves.append(
                WhatIfCurve(
                    label=curve_label(system, label_suffix),
                    loads=grid,
                    latencies=latencies[cell],
                    saturation_load=float(lam_star[cell]),
                )
            )
    return WhatIfStudy(title=f"ICN2 bandwidth study (M={message.length_flits}, d_m={message.flit_bytes:g})", curves=tuple(curves))
