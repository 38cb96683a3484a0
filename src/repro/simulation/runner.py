"""High-level simulation entry points.

A :class:`SimulationConfig` is the one description of a simulator run: it
validates its inputs at construction, crosses process boundaries as the
work item of :mod:`repro.simulation.parallel`, and maps onto
:meth:`SimulationSession.run` in one place.  :func:`simulate` runs one
configuration end to end; :class:`SimulationSession` caches the
materialised fabric so load sweeps (the paper's figures) do not pay the
construction cost per point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util import require, require_nonnegative
from repro.cluster.system import HeterogeneousSystem
from repro.core.parameters import MessageSpec, ModelOptions, SystemConfig
from repro.simulation.fabric import ResolvedFabric
from repro.simulation.metrics import LatencyStats, MeasurementWindow
from repro.simulation.rng import make_streams
from repro.simulation.traffic import SimTrafficPattern
from repro.simulation.wormhole import MessageLevelWormholeSimulator, RawRunResult

__all__ = [
    "ENGINES",
    "SimulationConfig",
    "SimulationResult",
    "SimulationSession",
    "TRAJECTORY_VERSION",
    "simulate",
]

GRANULARITIES = ("message", "flit")

#: Message-level event engines (see :mod:`repro.simulation.eventcore`).
#: Both must produce bit-identical trajectories.  ``"array"``, the compiled
#: core, is what a run uses when its caller names no engine; ``"reference"``
#: is the Python loop kept as the test oracle and as the array engine's
#: warned fallback.  The flit granularity has a single engine, so
#: ``engine="array"`` there is a config error.
ENGINES = ("reference", "array")

#: Version tag of the simulators' *trajectories*, embedded in on-disk cache
#: keys (:mod:`repro.io.cache`) alongside the run's spec-level inputs.  Bump
#: whenever a change alters any number a simulator run produces for a fixed
#: (spec, seed, window, granularity) — event ordering, RNG consumption,
#: drain arithmetic — so cached simulator curves are orphaned rather than
#: silently reused across incompatible engines.  One tag covers **both**
#: engines this module dispatches to (:mod:`repro.simulation.wormhole`,
#: :mod:`repro.simulation.flitsim`, and the compiled array core in
#: :mod:`repro.simulation.eventcore`); it lives here, at the dispatch
#: point, so a change to any engine is a change to this module's contract.
#:
#: sim/2: the array event core landed.  Trajectories are unchanged (the
#: differential suite proves reference == array bit for bit), but the tag
#: participates in golden digests and cache keys, and the engine surface
#: it covers widened, so the corpus was re-pinned under sim/2.
#:
#: sim/3: the simulators share per-leg path records instead of caching
#: every node pair.  Trajectories are unchanged (the version-free golden
#: digests did not move); cached simulator curves miss once.
#:
#: sim/4: cut-through concentrators with physical sinks are the only
#: semantics (the store-and-forward and ideal-sink modes are gone).
#: Trajectories are unchanged; cached simulator curves miss once.
#:
#: sim/5: legs are computed in closed form from the channel-numbering
#: contract of ``MPortNTree.links()`` and ``HeterogeneousSystem.channels()``,
#: one at a time or in numpy batches.  Trajectories are unchanged; cached
#: simulator curves miss once.
#:
#: sim/6: the fabric fills its per-channel tables from the channel blocks
#: instead of enumerating ``SystemChannel`` objects, and the reference loop
#: builds its per-channel state inside its own run.  Trajectories are
#: unchanged; cached simulator curves miss once.
#:
#: sim/7: a message-level simulator runs once; a second ``run()`` raises
#: instead of appending to (reference loop) or replacing (array core) the
#: first run's collector.  Trajectories are unchanged; cached simulator
#: curves miss once.
#:
#: sim/8: the fabric's leg batches and the latency statistics group and
#: rank without ``np.unique``/``np.percentile``, whose first calls import
#: ``numpy.ma``.  Trajectories are unchanged; cached simulator curves miss
#: once.
#:
#: sim/9: the compiled array core is the default message-level engine and
#: the per-seed draw replay cache is gone; a run draws its arrival gaps and
#: destinations from its own streams.  Trajectories are unchanged; cached
#: simulator curves miss once.
#:
#: sim/10: the session holds the traffic pattern beside system, message and
#: options, and ``SimulationSession.run`` takes none.  Trajectories are
#: unchanged; cached simulator curves miss once.
TRAJECTORY_VERSION = "sim/10"


def _resolve_engine(granularity: str, engine: str | None) -> str:
    """Check a *granularity*/*engine* pair and name the engine that runs it.

    ``engine=None`` means the caller chose none: the compiled array core
    at message granularity, the flit engine (``"flit"``) at flit
    granularity.  ``"array"`` is message-granularity only.
    """
    require(granularity in GRANULARITIES, f"granularity must be one of {GRANULARITIES}")
    require(engine is None or engine in ENGINES, f"engine must be one of {ENGINES}")
    if granularity == "flit":
        require(
            engine != "array",
            "engine='array' is message-granularity only (the flit engine has no array core)",
        )
        return "flit"
    return engine or "array"


@dataclass(frozen=True)
class SimulationConfig:
    """Complete description of one simulation run (picklable, so it is
    also the work item a pool worker runs)."""

    system: SystemConfig
    message: MessageSpec
    generation_rate: float
    seed: int = 0
    window: MeasurementWindow = field(default_factory=lambda: MeasurementWindow.scaled_paper(20_000))
    granularity: str = "message"
    options: ModelOptions = field(default_factory=ModelOptions)
    pattern: SimTrafficPattern | None = None
    max_events: int = 500_000_000
    engine: str | None = None

    def __post_init__(self) -> None:
        _resolve_engine(self.granularity, self.engine)
        require_nonnegative(self.generation_rate, "generation_rate")
        require(self.generation_rate > 0, "generation_rate must be positive for a simulation")

    @property
    def design(self) -> tuple:
        """``(system, message, options, pattern)``: the design the run simulates."""
        return (self.system, self.message, self.options, self.pattern)


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one run, with the figure-facing summary up front."""

    generation_rate: float
    mean_latency: float
    stats: LatencyStats
    per_cluster_means: dict[int, float]
    network_utilization: dict[str, float]
    source_wait_mean: float
    concentrator_wait_mean: float
    duration: float
    events: int
    generated: int
    completed: bool
    granularity: str
    seed: int
    wall_seconds: float


class SimulationSession:
    """Reusable system+fabric for running many loads of one design.

    The design is the system, message, options and traffic *pattern*
    (``None`` = the paper's uniform traffic); every run on the session
    simulates it, and the validation and replication entry points read
    all four off the session.
    """

    def __init__(
        self,
        system: SystemConfig,
        message: MessageSpec,
        *,
        options: ModelOptions | None = None,
        pattern: SimTrafficPattern | None = None,
    ) -> None:
        self.system_config = system
        self.message = message
        self.options = options or ModelOptions()
        self.pattern = pattern
        self.system = HeterogeneousSystem(system)
        self.fabric = ResolvedFabric(self.system, message, self.options)

    @property
    def design(self) -> tuple:
        """``(system, message, options, pattern)``: the key of the design simulated."""
        return (self.system_config, self.message, self.options, self.pattern)

    def run(
        self,
        generation_rate: float,
        *,
        seed: int = 0,
        window: MeasurementWindow | None = None,
        granularity: str = "message",
        max_events: int = 500_000_000,
        engine: str | None = None,
    ) -> SimulationResult:
        """Run one load point of the session's design on the cached fabric
        (*engine* as in :func:`_resolve_engine`)."""
        engine = _resolve_engine(granularity, engine)
        window = window or MeasurementWindow.scaled_paper(20_000)
        streams = make_streams(seed)
        if engine == "flit":
            from repro.simulation.flitsim import FlitLevelSimulator

            sim = FlitLevelSimulator(self.fabric, window, generation_rate, streams, self.pattern)
        else:
            sim = MessageLevelWormholeSimulator(
                self.fabric, window, generation_rate, streams, self.pattern, engine=engine
            )
        raw = sim.run(max_events=max_events)
        return self._package(raw, generation_rate, granularity, seed)

    def _package(
        self, raw: RawRunResult, generation_rate: float, granularity: str, seed: int
    ) -> SimulationResult:
        counts = self.fabric.channels_per_group()
        utilization = {}
        for group, busy in raw.busy_time_by_group.items():
            denom = counts.get(group, 0) * raw.duration
            utilization[group] = busy / denom if denom > 0 else 0.0
        return SimulationResult(
            generation_rate=generation_rate,
            mean_latency=raw.stats.mean,
            stats=raw.stats,
            per_cluster_means=raw.per_cluster_means,
            network_utilization=utilization,
            source_wait_mean=raw.source_wait_mean,
            concentrator_wait_mean=raw.concentrator_wait_mean,
            duration=raw.duration,
            events=raw.events,
            generated=raw.generated,
            completed=raw.completed,
            granularity=granularity,
            seed=seed,
            wall_seconds=raw.wall_seconds,
        )


def _run_config(session: SimulationSession, config: SimulationConfig) -> SimulationResult:
    """Run *config* on *session*, a session of the same design — the one
    place config fields map to run arguments."""
    return session.run(
        config.generation_rate,
        seed=config.seed,
        window=config.window,
        granularity=config.granularity,
        max_events=config.max_events,
        engine=config.engine,
    )


def _session(config: SimulationConfig) -> SimulationSession:
    """A fresh session of *config*'s design."""
    return SimulationSession(
        config.system, config.message, options=config.options, pattern=config.pattern
    )


def simulate(config: SimulationConfig) -> SimulationResult:
    """Build the fabric and run one :class:`SimulationConfig` end to end."""
    return _run_config(_session(config), config)
