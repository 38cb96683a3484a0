"""Performability: availability-weighted performance of degraded systems.

The paper's closed forms assume a pristine m-port n-tree; production
clusters run degraded.  This subsystem composes a high-level availability
model with the existing low-level performance model (the hierarchical
decomposition of Kirsal & Ever and Thomasian's review):

* :mod:`~repro.performability.spec` — declarative, JSON-round-trippable
  failure scenarios (:class:`FailureMode`, :class:`FailureScenario`);
* :mod:`~repro.performability.states` — the birth–death/CTMC availability
  chain and its dense steady-state solve;
* :mod:`~repro.performability.degrade` — availability states resolved to
  degraded :class:`~repro.core.parameters.SystemConfig` values (hard
  boundary validation: a spec that would disconnect the fabric fails at
  expansion time);
* :mod:`~repro.performability.evaluate` — availability-weighted λ*_A,
  expected capacity under churn, weighted latency curves and the
  "which failure hurts most" ranking
  (:func:`performability_analysis`).

The whole pipeline runs on the closed forms — no simulation: the study
executor prices the states in :class:`~repro.core.stacked.StackedModel`
passes or shards (:func:`~repro.performability.evaluate._price_states`),
so even many-state studies cost milliseconds per state, cache on disk,
and fan out across the shared process pool.
"""

from repro.performability.degrade import (
    DegradedState,
    expand_states,
    mode_population,
    resolve_populations,
)
from repro.performability.evaluate import (
    PERFORMABILITY_STATE_SCHEMA,
    performability_analysis,
    state_cache_key,
)
from repro.performability.spec import (
    PERFORMABILITY_SCHEMA,
    FailureMode,
    FailureScenario,
)
from repro.performability.states import (
    enumerate_states,
    state_label,
    steady_state,
    two_state_availability,
)

__all__ = [
    "DegradedState",
    "FailureMode",
    "FailureScenario",
    "PERFORMABILITY_SCHEMA",
    "PERFORMABILITY_STATE_SCHEMA",
    "enumerate_states",
    "expand_states",
    "mode_population",
    "performability_analysis",
    "resolve_populations",
    "state_cache_key",
    "state_label",
    "steady_state",
    "two_state_availability",
]
