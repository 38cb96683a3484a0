"""Birth–death/CTMC availability model over a failure scenario.

The availability layer of the hierarchical decomposition: a continuous-time
Markov chain whose state counts the simultaneous failures of each
:class:`~repro.performability.FailureMode`.  With per-component exponential
failure rates and independent per-component repair (machine-repairman
style), the chain is a multi-dimensional birth–death process:

* birth (one more failure of mode *i*): rate ``(population_i - k_i) * failure_rate_i``;
* death (one repair of mode *i*): rate ``k_i * repair_rate_i``.

The state space is the product of ``0..count_i`` per mode, truncated by the
scenario's ``max_concurrent`` knob, so a study over a 544-node system never
enumerates 2^544 states — only the handful of failure multiplicities that
carry non-negligible probability.  Steady-state probabilities come from a
dense linear solve of ``pi @ Q = 0`` with the normalisation ``sum(pi) = 1``
(the state spaces here are tens of states, far below dense-solver limits).

Modes with ``failure_rate == 0`` are kept in the state space (so the
"which failure hurts most" ranking can price them) but receive *exact*
probability 0 — the solve runs on the reachable subspace only, which also
makes the all-rates-zero limit return the pristine state with probability
exactly 1.0 rather than 1-within-roundoff.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro._util import is_real, require, require_int
from repro.performability.spec import FailureScenario

__all__ = [
    "enumerate_states",
    "state_label",
    "steady_state",
    "two_state_availability",
]

#: Tiny negative steady-state entries from the dense solve are clipped to 0;
#: anything more negative than this indicates a genuinely broken chain.
_NEGATIVE_TOLERANCE = 1e-9


def two_state_availability(mtbf: float, mttr: float) -> float:
    """Closed-form steady-state availability of a single repairable unit.

    The textbook two-state chain (up/down, failure rate ``1/mtbf``, repair
    rate ``1/mttr``) has availability ``MTBF / (MTBF + MTTR)``.  Exposed as
    the independent cross-check for :func:`steady_state`.
    """
    require(
        is_real(mtbf) and mtbf > 0,
        f"mtbf must be a positive number, got {mtbf!r}",
    )
    require(
        is_real(mttr) and mttr > 0,
        f"mttr must be a positive number, got {mttr!r}",
    )
    return mtbf / (mtbf + mttr)


def enumerate_states(scenario: FailureScenario) -> list[tuple[int, ...]]:
    """All tracked failure-multiplicity states, pristine first.

    Each state is a tuple ``(k_0, ..., k_{M-1})`` giving the number of
    simultaneous failures per mode (mode order = declaration order), with
    ``k_i <= count_i`` and ``sum(k) <= max_concurrent``.  Enumeration is
    lexicographic ascending, so index 0 is always the pristine state
    ``(0, ..., 0)`` and the order is deterministic for caching and tables.
    """
    ranges = [range(mode.count + 1) for mode in scenario.modes]
    cap = scenario.max_concurrent
    return [
        state
        for state in itertools.product(*ranges)
        if cap is None or sum(state) <= cap
    ]


def state_label(scenario: FailureScenario, state: tuple[int, ...]) -> str:
    """Human-readable name of a state (``"pristine"`` for all-zero).

    Non-zero multiplicities are rendered as ``label=k`` joined with ``+``,
    e.g. ``"icn2-switch-L3=1+node=2"`` — the same names the degraded-state
    validator and the ranking table use.
    """
    require(
        len(state) == len(scenario.modes),
        f"state has {len(state)} entries for {len(scenario.modes)} mode(s)",
    )
    parts = [
        f"{mode.label}={k}" for mode, k in zip(scenario.modes, state) if k > 0
    ]
    return "+".join(parts) if parts else "pristine"


def _reachable(state: tuple[int, ...], rates: tuple[float, ...]) -> bool:
    """A state is reachable iff no zero-rate mode shows a failure."""
    return all(k == 0 or rate > 0 for k, rate in zip(state, rates))


def steady_state(
    scenario: FailureScenario, populations: "tuple[int, ...] | list[int]"
) -> list[float]:
    """Steady-state probability of every state of :func:`enumerate_states`.

    populations:
        number of components each mode draws from (one entry per mode, in
        mode order) — e.g. 544 for system-wide node failures, or 4 for
        top-level ICN2 switches.  Birth rates scale with the number of
        still-healthy components, ``(population_i - k_i) * failure_rate_i``.

    Returns probabilities aligned with :func:`enumerate_states` order; they
    sum to 1 (after clipping roundoff negatives).  Unreachable states —
    any failures of a zero-rate mode — get exactly 0.0.
    """
    modes = scenario.modes
    require(
        len(populations) == len(modes),
        f"need one population per mode: got {len(populations)} "
        f"for {len(modes)} mode(s)",
    )
    for mode, population in zip(modes, populations):
        require_int(population, f"population of mode {mode.label!r}", minimum=1)
        require(
            mode.count <= population,
            f"mode {mode.label!r} tracks up to {mode.count} failures but only "
            f"{population} component(s) exist",
        )

    states = enumerate_states(scenario)
    rates = tuple(mode.failure_rate for mode in modes)
    live = [i for i, state in enumerate(states) if _reachable(state, rates)]

    probs = [0.0] * len(states)
    if len(live) == 1:
        # Only the pristine state is reachable (all rates zero): exact 1.0,
        # no solver roundoff in the "no failures" limit.
        probs[live[0]] = 1.0
        return probs

    index = {states[i]: row for row, i in enumerate(live)}
    n = len(live)
    generator = np.zeros((n, n), dtype=float)
    cap = scenario.max_concurrent
    for state, row in index.items():
        total = sum(state)
        for m, mode in enumerate(modes):
            k = state[m]
            if (
                k < mode.count
                and (cap is None or total < cap)
                and populations[m] - k > 0
                and mode.failure_rate > 0
            ):
                up = state[:m] + (k + 1,) + state[m + 1 :]
                generator[row, index[up]] += (populations[m] - k) * mode.failure_rate
            if k > 0:
                down = state[:m] + (k - 1,) + state[m + 1 :]
                generator[row, index[down]] += k * mode.repair_rate
        generator[row, row] = -generator[row].sum()

    # pi @ Q = 0 with sum(pi) = 1: transpose, overwrite one balance
    # equation (they are linearly dependent) with the normalisation row.
    system = generator.T.copy()
    system[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    solution = np.linalg.solve(system, rhs)

    require(
        bool(solution.min() >= -_NEGATIVE_TOLERANCE),
        f"availability chain solve produced probability {solution.min():g} < 0; "
        "the scenario's generator matrix is ill-conditioned",
    )
    clipped = np.clip(solution, 0.0, None)
    clipped /= clipped.sum()
    for i, value in zip(live, clipped):
        probs[i] = float(value)
    return probs
