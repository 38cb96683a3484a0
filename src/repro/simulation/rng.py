"""Deterministic random-number streams for the simulators.

Every simulation run derives independent child streams (arrival process,
destination selection) from one user seed via :class:`numpy.random.
SeedSequence`, so results are reproducible and robust to internal
event-ordering changes.

:func:`replica_seeds` lives here too because it is a pure seed-derivation
concern: it spawns the per-replica seeds used by
:func:`repro.simulation.replication.replicate` — children of one
``SeedSequence``, never ``base_seed + i`` arithmetic, so the replica
streams are provably independent and two overlapping base seeds never
share a replica stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import require_int

__all__ = ["SimulationStreams", "make_streams", "replica_seeds"]


@dataclass(frozen=True)
class SimulationStreams:
    """Independent generators for each stochastic aspect of a run."""

    arrivals: np.random.Generator
    destinations: np.random.Generator
    seed: int


def make_streams(seed: int) -> SimulationStreams:
    """Spawn the per-purpose generators from a single integer seed."""
    require_int(seed, "seed", minimum=0)
    root = np.random.SeedSequence(seed)
    arrival_seq, destination_seq = root.spawn(2)
    return SimulationStreams(
        arrivals=np.random.default_rng(arrival_seq),
        destinations=np.random.default_rng(destination_seq),
        seed=seed,
    )


def replica_seeds(base_seed: int, count: int) -> tuple[int, ...]:
    """*count* independent per-replica seeds spawned from *base_seed*.

    ``base_seed + i`` arithmetic is wrong twice over: neighbouring roots
    feed ``SeedSequence`` nearly identical entropy, and overlapping base
    seeds alias replica streams (base 0's replica 3 is base 3's replica 0),
    which silently correlates "independent" experiments.  Spawning children
    of one ``SeedSequence`` fixes both while staying plain ints, so every
    replica remains labelled by an ordinary seed and is reproducible on its
    own through :func:`make_streams`.
    """
    require_int(base_seed, "base_seed", minimum=0)
    require_int(count, "count", minimum=1)
    children = np.random.SeedSequence(base_seed).spawn(count)
    return tuple(int(child.generate_state(1, np.uint64)[0]) for child in children)
