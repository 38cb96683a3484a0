"""Replicated simulation runs with confidence intervals.

One simulation run gives a point estimate; the paper's methodology (and
any defensible validation) wants replication.  :func:`replicate` runs the
same configuration under independent seeds and returns the across-replica
mean latency with a Student-t confidence interval; :func:`t_critical`
computes the interval's quantile in closed form, so replication needs
nothing beyond numpy.

Replica seeds are spawned from the base seed via
:func:`repro.simulation.rng.replica_seeds` (``SeedSequence.spawn``, never
``base_seed + i`` arithmetic), and each replica is an independent pure
function of its seed — so ``jobs=k`` fans the replicas across a process
pool with results bit-identical to the serial path for any ``k``.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from repro._util import require
from repro.simulation.metrics import MeasurementWindow
from repro.simulation.parallel import resolve_jobs, run_work_items
from repro.simulation.rng import replica_seeds
from repro.simulation.runner import SimulationConfig, SimulationResult, SimulationSession

__all__ = ["ReplicatedResult", "replicate"]


def t_critical(confidence: float, df: int) -> float:
    """Two-sided Student-t critical value: ``P(|T| <= t) = confidence`` at *df*.

    Equals ``scipy.stats.t.ppf(0.5 + confidence / 2, df)`` to within
    1e-12 relative (``tests/test_replication.py``).  df 1 and 2 have
    closed forms.  Otherwise ``df`` is an integer, so ``P(|T| <= t)`` is
    the finite sum of Abramowitz & Stegun 26.7.3 (odd) / 26.7.4 (even)
    in ``θ = atan(t / √df)``; a Cornish–Fisher start (A&S 26.7.5) is
    polished by Newton steps until they stop shrinking (the float64 floor).
    """
    if df == 1:
        # tan(π c / 2), written through 1 − c, which is exact for c >= 0.5.
        return 1.0 / math.tan(0.5 * math.pi * (1.0 - confidence))
    if df == 2:
        return confidence * math.sqrt(2.0 / ((1.0 - confidence) * (1.0 + confidence)))
    nu = float(df)
    x = NormalDist().inv_cdf(0.5 + 0.5 * confidence)
    x2 = x * x
    t = x + (
        (x2 + 1.0) * x / 4.0
        + ((5.0 * x2 + 16.0) * x2 + 3.0) * x / (96.0 * nu)
        + (((3.0 * x2 + 19.0) * x2 + 17.0) * x2 - 15.0) * x / (384.0 * nu**2)
        + ((((79.0 * x2 + 776.0) * x2 + 1482.0) * x2 - 1920.0) * x2 - 945.0)
        * x
        / (92160.0 * nu**3)
    ) / nu
    # d P(|T| <= t) / dt = density · cos^(df+1) θ / √df
    density = 2.0 / math.pi if df % 2 else 1.0
    for k in range(2 - df % 2, df, 2):
        density *= (k + 1) / k
    last_step = math.inf
    for _ in range(50):
        cos2 = nu / (nu + t * t)
        sin = t / math.sqrt(nu + t * t)
        term = sin * math.sqrt(cos2) if df % 2 else sin
        terms = []
        for k in range(1 + df % 2, df, 2):
            terms.append(term)
            term *= cos2 * k / (k + 1)
        prob = math.fsum(terms)
        if df % 2:
            prob = 2.0 / math.pi * (math.atan(t / math.sqrt(nu)) + prob)
        step = (confidence - prob) * math.sqrt(nu) / (density * cos2 ** ((df + 1) / 2))
        if not abs(step) < last_step:
            break
        t += step
        last_step = abs(step)
    return t


@dataclass(frozen=True)
class ReplicatedResult:
    """Across-seed summary of one simulated operating point.

    ``events`` is the total event count across replicas; ``wall_seconds``
    is the *maximum* single-replica wall time (the critical path under
    parallel execution — summing would double-count concurrent work);
    ``elapsed_seconds`` is the observed end-to-end time of the whole
    replication call, so ``events_per_second`` reports the effective
    throughput actually achieved (serial or parallel).
    """

    generation_rate: float
    replicas: tuple[SimulationResult, ...]
    mean_latency: float
    ci_half_width: float
    confidence: float
    events: int = 0
    wall_seconds: float = 0.0
    elapsed_seconds: float = 0.0
    jobs: int = 1

    @property
    def ci_low(self) -> float:
        return self.mean_latency - self.ci_half_width

    @property
    def ci_high(self) -> float:
        return self.mean_latency + self.ci_half_width

    def contains(self, value: float) -> bool:
        """True if *value* falls inside the confidence interval."""
        return self.ci_low <= value <= self.ci_high

    @property
    def relative_half_width(self) -> float:
        """CI half-width as a fraction of the mean (precision of the run)."""
        return self.ci_half_width / self.mean_latency if self.mean_latency else float("nan")

    @property
    def events_per_second(self) -> float:
        """Effective simulator throughput of the whole replication call."""
        return self.events / self.elapsed_seconds if self.elapsed_seconds > 0 else float("nan")

    @property
    def seeds(self) -> tuple[int, ...]:
        """The per-replica seeds actually used (spawned, not base+i)."""
        return tuple(r.seed for r in self.replicas)


def replicate(
    session: SimulationSession,
    generation_rate: float,
    *,
    replicas: int = 5,
    base_seed: int = 0,
    window: MeasurementWindow | None = None,
    confidence: float = 0.95,
    jobs: "int | str | None" = None,
    **run_kwargs,
) -> ReplicatedResult:
    """Run *replicas* independent simulations and summarise the latency.

    The *session*'s design (system, message, options and traffic
    pattern) is the one replicated.  Per-replica seeds are spawned from
    *base_seed* (see :func:`~repro.simulation.rng.replica_seeds`); all
    other run parameters become fields of one
    :class:`~repro.simulation.runner.SimulationConfig` per replica, and
    :func:`~repro.simulation.parallel.run_work_items` runs them on
    *session*.  ``jobs`` fans the replicas across a process
    pool (``0``/``"auto"`` = one worker per CPU this process may run on);
    results are bit-identical to serial execution for any worker count
    because each replica depends only on its own seed.
    """
    require(replicas >= 2, "at least two replicas are needed for a CI")
    require(0.0 < confidence < 1.0, "confidence must be in (0, 1)")
    seeds = replica_seeds(base_seed, replicas)
    window = window or MeasurementWindow.scaled_paper(20_000)
    # Cap at the replica count so the recorded jobs reflects the workers
    # that could actually run (run_work_items applies the same cap).
    n_jobs = min(resolve_jobs(jobs), replicas)
    configs = [
        SimulationConfig(
            system=session.system_config,
            message=session.message,
            options=session.options,
            pattern=session.pattern,
            generation_rate=generation_rate,
            seed=seed,
            window=window,
            **run_kwargs,
        )
        for seed in seeds
    ]
    start = _time.perf_counter()
    results = tuple(run_work_items(configs, jobs=n_jobs, session=session))
    elapsed = _time.perf_counter() - start
    means = np.array([r.mean_latency for r in results], dtype=np.float64)
    mean = float(means.mean())
    sem = float(means.std(ddof=1) / np.sqrt(replicas))
    t_crit = t_critical(confidence, replicas - 1)
    return ReplicatedResult(
        generation_rate=generation_rate,
        replicas=results,
        mean_latency=mean,
        ci_half_width=t_crit * sem,
        confidence=confidence,
        events=sum(r.events for r in results),
        wall_seconds=max(r.wall_seconds for r in results),
        elapsed_seconds=elapsed,
        jobs=n_jobs,
    )
