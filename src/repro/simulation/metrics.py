"""Measurement protocol and latency statistics (paper §4).

The paper gathers statistics over a measurement window delimited by
generation order: the first ``warmup`` messages are excluded, the next
``measured`` messages are recorded, and a further ``drain`` batch is
generated (but not recorded) so the tail of the measurement window
experiences realistic downstream load.

:class:`LatencyCollector` implements that protocol; :class:`LatencyStats`
summarises the measured population.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro._util import require, require_int

__all__ = ["MeasurementWindow", "LatencyCollector", "LatencyStats"]


@dataclass(frozen=True)
class MeasurementWindow:
    """Message-count windows of one run (generation-sequence based)."""

    warmup: int
    measured: int
    drain: int

    def __post_init__(self) -> None:
        require_int(self.warmup, "warmup", minimum=0)
        require_int(self.measured, "measured", minimum=1)
        require_int(self.drain, "drain", minimum=0)

    @property
    def total(self) -> int:
        """Total messages generated in the run."""
        return self.warmup + self.measured + self.drain

    def is_measured(self, sequence: int) -> bool:
        """True if generation-sequence *sequence* falls in the window."""
        return self.warmup <= sequence < self.warmup + self.measured

    @classmethod
    def scaled_paper(cls, budget: int) -> "MeasurementWindow":
        """The paper's 10k/100k/10k protocol scaled to *budget* measured messages."""
        require_int(budget, "budget", minimum=1)
        side = max(1, budget // 10)
        return cls(warmup=side, measured=budget, drain=side)


@dataclass(frozen=True)
class LatencyStats:
    """Summary of the measured latency population."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    p50: float
    p95: float
    mean_intra: float
    mean_inter: float
    count_intra: int
    count_inter: int

    @classmethod
    def empty(cls) -> "LatencyStats":
        nan = float("nan")
        return cls(0, nan, nan, nan, nan, nan, nan, nan, nan, 0, 0)


def _percentile(ordered: np.ndarray, q: int) -> float:
    """``np.percentile(values, q)`` from the sorted non-empty *values*, bit for bit.

    numpy's default linear method: the virtual index ``(n − 1) · q/100``
    interpolates between its two neighbours, from below when its
    fraction is under one half and from above otherwise, and a NaN in the
    data makes the result NaN.  ``np.percentile`` itself picks its
    partition points with ``np.unique``, whose first call imports
    ``numpy.ma`` (about 1 MB of resident memory).
    """
    last = ordered.size - 1
    if math.isnan(ordered[last]):
        return math.nan
    index = last * (q / 100)
    if index >= last:
        return float(ordered[last])
    below = math.floor(index)
    gamma = index - below
    low, high = float(ordered[below]), float(ordered[below + 1])
    diff = high - low
    return high - diff * (1 - gamma) if gamma >= 0.5 else low + diff * gamma


@dataclass
class LatencyCollector:
    """Accumulates delivered-message records and produces statistics."""

    window: MeasurementWindow
    _latencies: list[float] = field(default_factory=list)
    _is_inter: list[bool] = field(default_factory=list)
    _src_clusters: list[int] = field(default_factory=list)
    delivered_measured: int = 0

    def record(self, sequence: int, latency: float, *, inter_cluster: bool, source_cluster: int) -> None:
        """Record a delivery; ignores messages outside the measurement window."""
        require(latency >= 0.0, f"negative latency {latency}")
        if not self.window.is_measured(sequence):
            return
        self._latencies.append(latency)
        self._is_inter.append(inter_cluster)
        self._src_clusters.append(source_cluster)
        self.delivered_measured += 1

    @property
    def all_measured_delivered(self) -> bool:
        return self.delivered_measured >= self.window.measured

    def stats(self) -> LatencyStats:
        """Summarise the measured deliveries recorded so far."""
        if not self._latencies:
            return LatencyStats.empty()
        lat = np.asarray(self._latencies, dtype=np.float64)
        ordered = np.sort(lat)
        inter = np.asarray(self._is_inter, dtype=bool)
        nan = float("nan")
        return LatencyStats(
            count=int(lat.size),
            mean=float(lat.mean()),
            std=float(lat.std(ddof=1)) if lat.size > 1 else 0.0,
            minimum=float(lat.min()),
            maximum=float(lat.max()),
            p50=_percentile(ordered, 50),
            p95=_percentile(ordered, 95),
            mean_intra=float(lat[~inter].mean()) if (~inter).any() else nan,
            mean_inter=float(lat[inter].mean()) if inter.any() else nan,
            count_intra=int((~inter).sum()),
            count_inter=int(inter.sum()),
        )

    def per_cluster_means(self) -> dict[int, float]:
        """Mean measured latency grouped by source cluster."""
        if not self._latencies:
            return {}
        lat = np.asarray(self._latencies, dtype=np.float64)
        src = np.asarray(self._src_clusters, dtype=np.int64)
        return {int(c): float(lat[src == c].mean()) for c in np.flatnonzero(np.bincount(src))}
