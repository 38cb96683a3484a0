"""Empirical saturation-knee estimation from simulation runs.

The analytical model has a crisp saturation load (an M/G/1 pole); the
simulator's latency instead *grows without bound* past some load.  This
module estimates where: the smallest load at which the simulated mean
latency exceeds a multiple of the zero-load latency — the operational
definition of the knee a practitioner reads off the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util import require, require_int, require_positive
from repro.core.stacked import StackedModel
from repro.simulation.metrics import MeasurementWindow
from repro.simulation.runner import SimulationSession

__all__ = ["KneeEstimate", "estimate_sim_knee"]


@dataclass(frozen=True)
class KneeEstimate:
    """Simulated knee location relative to the model's saturation load."""

    sim_knee: float
    model_saturation: float
    threshold_factor: float
    probes: tuple[tuple[float, float], ...]  # (load, sim latency)

    @property
    def knee_fraction(self) -> float:
        """Simulated knee as a fraction of the analytic saturation load."""
        return self.sim_knee / self.model_saturation


def estimate_sim_knee(
    session: SimulationSession,
    *,
    threshold_factor: float = 4.0,
    window: MeasurementWindow | None = None,
    seed: int = 0,
    iterations: int = 7,
    **run_kwargs,
) -> KneeEstimate:
    """Bisect for the load where sim latency crosses ``factor × L(0)``.

    Brackets inside ``(0, λ*_model × 1.2]``; each probe is one simulation
    run: one at the bracket top, then one per iteration, of which there
    must be at least one.  The *session*'s
    design, traffic pattern included, shapes both the analytic reference
    (``λ*``, ``L(0)``) and the simulated runs.
    """
    require_positive(threshold_factor, "threshold_factor")
    require(threshold_factor > 1.0, "threshold_factor must exceed 1")
    require_int(iterations, "iterations", minimum=1)
    engine = StackedModel([session.design])
    lam_star = float(engine.saturation_load()[0])
    threshold = threshold_factor * float(engine.zero_load_latencies()[0])
    window = window or MeasurementWindow.scaled_paper(5_000)

    probes: list[tuple[float, float]] = []

    def latency_at(load: float) -> float:
        result = session.run(load, seed=seed, window=window, **run_kwargs)
        probes.append((load, result.mean_latency))
        return result.mean_latency

    lo, hi = 0.0, 1.2 * lam_star
    if latency_at(hi) < threshold:
        return KneeEstimate(
            sim_knee=hi, model_saturation=lam_star, threshold_factor=threshold_factor, probes=tuple(probes)
        )
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if latency_at(mid) >= threshold:
            hi = mid
        else:
            lo = mid
    return KneeEstimate(
        sim_knee=hi,
        model_saturation=lam_star,
        threshold_factor=threshold_factor,
        probes=tuple(probes),
    )
