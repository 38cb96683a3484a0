"""Discrete-event wormhole simulators used to validate the analytical model."""

from repro.simulation.eventcore import (
    Trajectory,
    build_trajectory,
    canonical_trajectory,
    kernel_available,
    trajectory_digest,
)
from repro.simulation.fabric import GROUPS, ResolvedFabric, ResolvedSegment
from repro.simulation.metrics import LatencyCollector, LatencyStats, MeasurementWindow
from repro.simulation.parallel import resolve_jobs, run_work_item, run_work_items
from repro.simulation.replication import ReplicatedResult, replicate
from repro.simulation.rng import SimulationStreams, make_streams, replica_seeds
from repro.simulation.runner import (
    ENGINES,
    TRAJECTORY_VERSION,
    SimulationConfig,
    SimulationResult,
    SimulationSession,
    simulate,
)
from repro.simulation.traffic import PoissonArrivals, SimTrafficPattern, UniformDestinations
from repro.simulation.wormhole import MessageLevelWormholeSimulator, RawRunResult

__all__ = [
    "Trajectory",
    "build_trajectory",
    "canonical_trajectory",
    "kernel_available",
    "trajectory_digest",
    "ENGINES",
    "ResolvedFabric",
    "ResolvedSegment",
    "GROUPS",
    "MeasurementWindow",
    "LatencyCollector",
    "LatencyStats",
    "SimulationStreams",
    "make_streams",
    "replica_seeds",
    "resolve_jobs",
    "run_work_item",
    "run_work_items",
    "ReplicatedResult",
    "replicate",
    "SimulationConfig",
    "SimulationResult",
    "SimulationSession",
    "simulate",
    "PoissonArrivals",
    "UniformDestinations",
    "SimTrafficPattern",
    "MessageLevelWormholeSimulator",
    "RawRunResult",
    "TRAJECTORY_VERSION",
]
