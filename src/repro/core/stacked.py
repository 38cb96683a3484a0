"""The closed forms over (cells × loads): the model's one vectorised engine.

:class:`StackedModel` evaluates the paper's closed forms — the Eq. 13/14
stage recursion, the Eq. 15 M/G/1 waits, the Eq. 36-38 concentrator
queues and the per-resource saturation load λ* — for a whole list of
design cells at once.  It prices the parameter planes of a
:class:`~repro.core.plan.ParameterPlan`; every intermediate array is
shaped ``(rows, …)`` or ``(rows, loads)``, so the Python and NumPy call
overhead is paid once per cell set instead of once per cell.  Its three
searches (λ*, knee, latency budget) run on the refinement kernel of
:mod:`repro.core.refine`.  :class:`~repro.core.batch.BatchedModel` is the
one-cell view of this engine, and the scalar
:class:`~repro.core.model.AnalyticalModel` stays the readable oracle.

Contracts
---------
* **scalar oracle** — every term agrees with ``AnalyticalModel.evaluate``
  to float64 round-off (``tests/test_batch.py``, at 1e-9);
* **lane independence** — a cell priced alone is bit-identical to the
  same cell inside any stack (``tests/test_stacked.py``, ``==`` rather
  than ``allclose``);
* **pinned outputs** — ``tests/goldens/model_outputs.json`` pins the
  exact float ``repr`` of saturation maps, breakdowns, utilisations and
  search loads (``tools/regen_goldens.py``).

Lane independence holds because every float operation is elementwise, so
each cell's lane computes the same scalar sequence whatever else shares
the stack:

* **padded calls** — one solver call prices rows of several depths and
  shapes.  It pads its suffix chains to its own deepest ``d_src``,
  ``d_dst`` and tree depth and sets every padded term to exactly 0.0
  before the fold, never multiplying it by its zero weight (``0 · inf``
  is NaN), so each valid lane keeps its scalar float sequence (``x + 0.0
  = x``);
* **shared suffix chains** — journeys end in shared trailing stages, so
  the backward Eq. 13/14 recursion collapses to suffix chains
  (destination → ICN2 → source segments) touching each distinct column
  state once: common-subexpression elimination of the scalar per-journey
  recursion, not a reformulation;
* **masks** — per-cell *control flow* of the scalar code (option
  branches, ``U_i == 0`` and zero-weight skips) becomes ``np.where``
  masks selecting between fully-evaluated branches;
* **fold order** — every accumulation that the scalar code runs as a
  Python-order fold (journey-weight sums, destination-weight averages, the
  Eq. 3 class combination) stays an explicit fold over the same index
  order, never an ``np.sum`` reduction with a different association.  The
  Eq. 35/38 fold over destinations is one elementwise step per ``j`` over
  a batch of source classes (:meth:`~repro.core.plan._CellGroup.batches`).

The searches need the verdict to be weakly monotone in the load *in
floating point* (:mod:`repro.core.refine`), and it is: every step from
load to verdict is a correctly rounded ``+``, ``×`` or ``÷`` on
non-negative operands that grow with the load — the rates, linear in
``λ_g``; the Eq. 13/14 recursion; the Eq. 15 wait, whose ``1 − ρ``
shrinks; the Eq. 36-38 concentrator terms — the relaxing factor ``δ`` is
a constant multiplier and every clamp goes to ``inf``.

Closed-form saturation
----------------------
Saturation is the model's only divergence mechanism (an M/G/1 queue
reaching ``ρ >= 1``), and each queue's utilisation is monotone in
``λ_g``.  Concentrator queues have the constant service time ``M
t_cs^{I2}`` (Eq. 36), so ``ρ`` is linear and ``λ* = 1 / (slope · M
t_cs^{I2})`` exactly; source queues serve the load-dependent pipeline
latency ``T(λ_g)`` (Eqs. 18/31), so ``λ* = ρ⁻¹(1)`` is found by refining
the bracket below the linearised bound ``1 / (rate_slope · T(0))`` over
the queue's own journey recursion.

The *full search* (:meth:`StackedModel.saturation_loads`) refines every
source queue to 1e-13 relative width.  The cell's λ* is the least of its
queues' λ*, and the binding resource the first queue at that least, so
:meth:`StackedModel.saturation_load` and
:meth:`StackedModel.binding_resources` run a *bounded search* unless the
full maps are cached: each cell keeps a ceiling — the least of its
concentrators' λ* and its searched queues' current upper bracket ends —
and a source queue stops once it provably cannot be the cell's least
(probed once at the ceiling and not saturated there, or its ``lo``
strictly above it).  A refinement reports its first upper end or a
saturated grid point, so by the monotonicity above a stopped queue's λ*
is strictly above the ceiling, which is at least the cell's least λ*:
every queue at the least, ties included, runs to its exact λ*, and the
least and its first argmin in scalar order are the full search's bit
for bit.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import Any

import numpy as np

from repro._util import require, require_int
from repro.core import plan as packing
from repro.core.model import AnalyticalModel, TrafficPatternLike
from repro.core.parameters import MessageSpec, ModelOptions, SystemConfig
from repro.core.plan import ParameterPlan, _CellGroup, _IntraBlock, _PairBlock, _solve_calls
from repro.core.refine import _Ceiling, _linspace_rows, _refine_rows
from repro.core.stages import _LATENCY_CAP

__all__ = ["StackedModel"]


def _pole_score(
    limit: np.ndarray, latencies: np.ndarray, pole: np.ndarray, loads: np.ndarray
) -> np.ndarray:
    """``(L − T(λ)) · (λ* − λ)``: the knee and budget searches' score.

    The mean latency has its pole at λ*, and with ``T = T0 + cλ/(λ* − λ)``
    the score is linear in λ, falling through 0 where ``T`` reaches the
    limit ``L``; an infinite latency scores ``−inf``.
    """
    return (limit - latencies) * (pole[:, None] - loads)


def _chain_step(
    m_col: np.ndarray, suffix: np.ndarray, half_eta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One backward column of the Eq. 13/14 recursion on a shared suffix.

    ``m_col`` is the column's per-cell ``M · t`` (broadcastable against
    *suffix*), ``suffix`` the ``Σ_{s>k} W_s`` accumulated so far and
    ``half_eta`` the column's pre-halved channel rate ``0.5 η``; returns
    ``(T_k, T_k > cap, suffix + W_k)``.  The float sequence per element is
    the scalar :func:`~repro.core.stages.solve_pipeline` step — hoisting
    ``0.5 η`` reassociates nothing (it is the scalar's own leftmost
    product), the in-place ``inf`` clamp writes the values of the scalar's
    :data:`_LATENCY_CAP` branches, and the flipped operand orders (``m +
    s``, ``w += s``) are bitwise commutative.
    """
    t_col = m_col + suffix
    over = t_col > _LATENCY_CAP
    over_any = bool(over.any())
    w_col = half_eta * t_col
    w_col *= t_col
    clip = w_col > _LATENCY_CAP
    if over_any:
        clip |= over
    if over_any or bool(clip.any()):
        np.copyto(w_col, np.inf, where=clip)
    w_col += suffix
    return t_col, over, w_col


def _solve_intra_stacked(
    t_cs: np.ndarray,  # (R,)
    t_cn: np.ndarray,  # (R,)
    depth: np.ndarray,  # (R,) tree depth per row
    weights: np.ndarray,  # (R, deepest) journey pmf per row, 0 past its depth
    eta_i1: np.ndarray,  # (R, L)
    m_flits: np.ndarray,  # (R,)
) -> np.ndarray:
    """Stacked Eq. 5 average via one shared suffix chain, padded to the deepest row.

    Intra journeys of every length end in the same stages (one ``t_cn``
    stage, then ``t_cs`` stages), so one backward chain serves them all:
    journey *h*'s ``T_0`` is the chain's ``T`` at depth ``2h − 1``.  Per
    journey the float sequence is the scalar per-journey recursion's —
    the sharing is common-subexpression elimination, not a
    reformulation.  The chain runs to the call's deepest row.  A row's
    journeys past its own depth are padded terms: each is set to exactly
    0.0 before the fold, never multiplied by its zero weight (``0 · inf``
    is NaN), so the row's total is its own depth's sum (``x + 0.0 = x``).
    """
    deepest = weights.shape[1]
    shallowest = int(depth.min())
    m_cn = (m_flits * t_cn)[:, None]
    m_cs = (m_flits * t_cs)[:, None]
    half_eta = 0.5 * eta_i1
    suffix = np.zeros_like(eta_i1)
    total = np.zeros_like(eta_i1)
    with np.errstate(invalid="ignore", over="ignore"):
        for step in range(1, 2 * deepest):
            t_col, over, suffix = _chain_step(
                m_cn if step == 1 else m_cs, suffix, half_eta
            )
            if step % 2 == 1:  # journey h + 1 = (step + 1) / 2 starts here
                h = step // 2
                t_col[over] = np.inf
                if h >= shallowest:
                    np.copyto(t_col, 0.0, where=(depth <= h)[:, None])
                total += weights[:, h, None] * t_col
    return total


def _mg1_wait_batched(
    rate: np.ndarray, mean_service: np.ndarray, variance: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised :func:`repro.core.queueing.mg1_wait` (Eq. 15).

    Returns ``(wait, utilization, saturated)`` arrays with the scalar
    function's exact semantics: an infinite service time (blown-up upstream
    pipeline) counts as saturation whenever any traffic arrives, and a
    zero-rate queue never waits regardless of its service time.  The wait
    is computed in place, with the scalar's operations in its order.
    """
    finite = np.isfinite(mean_service) & np.isfinite(variance)
    service = np.where(finite, mean_service, 0.0)
    rho = rate * service
    infinite_service = ~finite & (rate > 0.0)
    saturated = infinite_service | (rho >= 1.0)
    wait = service * service
    del service
    wait += np.where(finite, variance, 0.0)  # the second moment
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        wait *= rate  # rate · second moment
        denominator = 1.0 - rho
        denominator *= 2.0
        wait /= denominator
    del denominator
    np.copyto(wait, np.inf, where=saturated)
    np.copyto(wait, 0.0, where=rate == 0.0)
    np.copyto(rho, np.inf, where=infinite_service)  # the utilisation
    return wait, rho, saturated


def _solve_pair_stacked(
    src_cs: np.ndarray,  # (R,)
    i2_cs: np.ndarray,  # (R,)
    dst_cs: np.ndarray,  # (R,)
    dst_cn: np.ndarray,  # (R,)
    d_src: np.ndarray,  # (R,) source tree depth per row
    d_dst: np.ndarray,  # (R,) destination tree depth per row
    n_c: int,
    weights: np.ndarray,  # (R or 1, S, D, n_c) pmf products per row, 0 past its depths
    eta_e1: np.ndarray,  # (R, L)
    eta_i2_eff: np.ndarray,  # (R, L)
    m_flits: np.ndarray,  # (R,)
) -> np.ndarray:
    """Stacked Eq. 20 average via shared suffix chains (dst → ICN2 → src).

    An inter-cluster journey's stages read, right to left: one ``dst
    t_cn``, ``v − 1`` dst ``t_cs``, ``2l − 1`` ICN2 ``t_cs`` (the relaxed
    η), ``r`` src ``t_cs``.  Journeys sharing a suffix share the backward
    recursion state exactly, so instead of one recursion per journey the
    solver walks a three-level chain tree — ``D`` dst depths, × ``n_c``
    ICN2 depths, × ``S`` src depths — touching each distinct column state
    once.  The independent branches are stacked on leading axes (``(v,
    rows, loads)`` for the ICN2 chains, ``(l, v, rows, loads)`` for the
    source chains) so each chain level is a handful of large elementwise
    steps.  Every journey's ``T_0`` and the final weighted fold (scalar
    ``(r, v, l)`` journey order) are those of the scalar per-journey
    recursion.

    The chain tree is padded to the call's deepest rows: ``S`` and ``D``
    are the largest *d_src* and *d_dst*.  A row's journeys past its own
    depths are padded terms, set to exactly 0.0 before the fold and never
    multiplied by their zero weight (``0 · inf`` is NaN), so each row adds
    its own journeys in its own ``(r, v, l)`` order and zeros in between
    (``x + 0.0 = x``).
    """
    cells, loads = eta_e1.shape
    deep_src, deep_dst = weights.shape[1], weights.shape[2]
    # Padded journeys: destination depth past the row's d_dst, per (v, row),
    # and from round r = min(d_src) on, source depth past the row's d_src.
    pad_dst = np.arange(deep_dst)[:, None] >= d_dst
    padded_dst = bool(pad_dst.any())
    shallow_src = int(d_src.min())
    w_rows = weights.transpose(1, 3, 2, 0)[..., None]  # (S, n_c, D, R, 1)
    m_src = (m_flits * src_cs)[:, None]
    m_i2 = (m_flits * i2_cs)[:, None]
    m_dst_cs = (m_flits * dst_cs)[:, None]
    m_dst_cn = (m_flits * dst_cn)[:, None]
    half_e1 = 0.5 * eta_e1
    half_i2 = 0.5 * eta_i2_eff
    # The call's working set, reused step by step through ``out=``: fresh
    # per-op temporaries at these shapes would thrash the allocator.
    shape4 = (n_c, deep_dst, cells, loads)
    shape3 = shape4[1:]
    t_buf, src_start, w_buf = np.empty(shape4), np.empty(shape4), np.empty(shape4)
    over_buf, clip_buf = np.empty(shape4, dtype=bool), np.empty(shape4, dtype=bool)
    dst_states, i2_b, t3 = np.empty(shape3), np.empty(shape3), np.empty(shape3)
    o3, c3 = np.empty(shape3, dtype=bool), np.empty(shape3, dtype=bool)
    with np.errstate(invalid="ignore", over="ignore"):
        suffix = np.zeros_like(eta_e1)
        for v in range(1, deep_dst + 1):
            _, _, suffix = _chain_step(
                m_dst_cn if v == 1 else m_dst_cs, suffix, half_e1
            )
            dst_states[v - 1] = suffix
        # ICN2 chains for every v at once: (v, rows, loads); odd chain
        # depths (journeys of l hops end there) seed the source chains.
        i2_a = dst_states
        for step in range(1, 2 * n_c):
            np.add(m_i2[None], i2_a, out=t3)
            np.greater(t3, _LATENCY_CAP, out=o3)
            over_any = bool(o3.any())
            np.multiply(half_i2[None], t3, out=i2_b)
            i2_b *= t3
            np.greater(i2_b, _LATENCY_CAP, out=c3)
            if over_any:
                c3 |= o3
            if over_any or bool(c3.any()):
                np.copyto(i2_b, np.inf, where=c3)
            i2_b += i2_a
            i2_a, i2_b = i2_b, i2_a
            if step % 2 == 1:  # l = (step + 1) / 2 hops end here
                src_start[(step + 1) // 2 - 1] = i2_a
        # Source chains for every (l, v) at once: (l, v, rows, loads).
        # Journey order is r-outermost, so each source depth's (v, l)
        # contributions fold into the total before the next depth — the
        # exact scalar (r, v, l) accumulation order.
        src_suffix = src_start
        total = np.zeros_like(eta_e1)
        for r in range(deep_src):
            np.add(m_src[None, None], src_suffix, out=t_buf)
            np.greater(t_buf, _LATENCY_CAP, out=over_buf)
            over_any = bool(over_buf.any())
            if r + 1 < deep_src:  # the deepest column's W_k is never consumed
                np.multiply(half_e1[None, None], t_buf, out=w_buf)
                w_buf *= t_buf
                np.greater(w_buf, _LATENCY_CAP, out=clip_buf)
                if over_any:
                    clip_buf |= over_buf
                if over_any or bool(clip_buf.any()):
                    np.copyto(w_buf, np.inf, where=clip_buf)
                w_buf += src_suffix
            if over_any:
                np.copyto(t_buf, np.inf, where=over_buf)
            if r >= shallow_src:
                np.copyto(t_buf, 0.0, where=(pad_dst | (d_src <= r))[None, :, :, None])
            elif padded_dst:
                np.copyto(t_buf, 0.0, where=pad_dst[None, :, :, None])
            t_buf *= w_rows[r]
            for v in range(deep_dst):
                for l_hops in range(n_c):
                    total += t_buf[l_hops, v]
            src_suffix, w_buf = w_buf, src_suffix
    return total


def _cell_slice(terms: Any, c: int) -> Any:
    """Row *c* of every plane in a nested mapping/list of ``(cells, …)`` planes."""
    if isinstance(terms, dict):
        return {key: _cell_slice(value, c) for key, value in terms.items()}
    if isinstance(terms, list):
        return [_cell_slice(value, c) for value in terms]
    return terms[c]


class StackedModel:
    """Evaluate a whole cell set through the closed forms at once.

    Construction packs the cells (see :class:`ParameterPlan`); every
    method then returns per-cell results in the original cell order, each
    cell's lane bit-identical to the same cell priced alone.  The API
    covers what the consumers need: latency curves over per-cell load
    grids, the per-term planes behind the ``ModelResult`` breakdowns,
    resource utilisations, the per-resource saturation inversion, the
    knee search and the latency-budget capacity search.

    Instances share only the read-only journey structures, derived once
    per process, so separate instances may run in separate threads.  One
    instance, with its λ*, floor and sample caches, must not be shared
    between threads.
    """

    def __init__(
        self,
        cells: Sequence[
            "AnalyticalModel | tuple[SystemConfig, MessageSpec, ModelOptions | None, TrafficPatternLike | None]"
        ],
    ) -> None:
        models = [
            cell if isinstance(cell, AnalyticalModel) else AnalyticalModel(*cell)
            for cell in cells
        ]
        self.plan = ParameterPlan(models)
        self._saturation: "list[dict[str, float]] | None" = None
        self._lam_star: "np.ndarray | None" = None
        self._binding: "list[str] | None" = None
        self._zero_load: "np.ndarray | None" = None
        # The mean latencies the latency-crossing searches' probes evaluated:
        # each probe call's (cells, loads, latencies) (see _sampled).
        self._samples: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    @classmethod
    def from_specs(cls, specs: Sequence) -> "StackedModel":
        """Stack scenario-spec-like objects (``system/message/options/pattern``)."""
        return cls([(s.system, s.message, s.options, s.pattern) for s in specs])

    @property
    def cells(self) -> int:
        return self.plan.cells

    # -- rates (the single source for evaluation AND inversion) ----------------

    def _intra_rates(
        self, block: _IntraBlock, rows: "np.ndarray | slice", loads: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Eqs. 7–10: ``λ_I1`` and ``η_I1`` over block rows."""
        lambda_i1 = (block.nodes[rows][:, None] * loads) * block.intra_fraction[rows][:, None]
        eta_i1 = (lambda_i1 * block.mean_links[rows][:, None]) / block.eta_divisor[rows][:, None]
        return lambda_i1, eta_i1

    def _pair_rates(
        self, block: _PairBlock, rows: "np.ndarray | slice", loads: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Eqs. 22–28: ``λ_E1, η_E1, η_I2·δ`` over block rows."""
        lambda_e1 = loads * block.external[rows][:, None]
        eta_e1 = (lambda_e1 * block.d_e1[rows][:, None]) / block.eta_e1_divisor[rows][:, None]
        _, eta_i2_eff = self._icn2_rates(block, rows, lambda_e1)
        eta_i2_eff *= block.delta[rows][:, None]
        return lambda_e1, eta_e1, eta_i2_eff

    def _icn2_rates(
        self, block: _PairBlock, rows: "np.ndarray | slice", lambda_e1: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Eqs. 24 and 26: ``λ_I2, η_I2`` over block rows."""
        lambda_i2 = 0.5 * lambda_e1
        return lambda_i2, (lambda_i2 * block.d_i2[rows][:, None]) / (4.0 * block.n_c)

    def _intra_source_rate(
        self,
        block: _IntraBlock,
        rows: "np.ndarray | slice",
        loads: np.ndarray,
        lambda_i1: np.ndarray,
    ) -> np.ndarray:
        """Eq. 18 source-queue rate, option branch as a per-row mask."""
        return np.where(
            block.sqr_per_node[rows][:, None],
            loads * block.intra_fraction[rows][:, None],
            lambda_i1,
        )

    def _pair_source_rate(
        self,
        block: _PairBlock,
        rows: "np.ndarray | slice",
        loads: np.ndarray,
        lambda_e1: np.ndarray,
    ) -> np.ndarray:
        """Eq. 31 source-queue rate, option branch as a per-row mask."""
        return np.where(
            block.sqr_aggregate[rows][:, None],
            lambda_e1,
            loads * block.src_u[rows][:, None],
        )

    def _concentrator_rate(
        self,
        block: _PairBlock,
        rows: "np.ndarray | slice",
        loads: np.ndarray,
        lambda_e1: np.ndarray,
    ) -> np.ndarray:
        """Eq. 37 concentrator rate, option branch as a per-row mask."""
        return np.where(
            block.conc_outgoing[rows][:, None],
            (loads * block.src_nodes[rows][:, None]) * block.src_u[rows][:, None],
            0.5 * lambda_e1,
        )

    # -- journey latencies: one solver call over rows of any depths -------------

    def _intra_latency(
        self, block: _IntraBlock, rows: "np.ndarray | slice", eta_i1: np.ndarray
    ) -> np.ndarray:
        shape = block.shape[rows]
        depth = block.depths[shape]
        return _solve_intra_stacked(
            block.t_cs[rows],
            block.t_cn[rows],
            depth,
            block.weights[shape, : int(depth.max())],
            eta_i1,
            block.m_flits[rows],
        )

    def _pair_latency(
        self,
        block: _PairBlock,
        rows: "np.ndarray | slice",
        eta_e1: np.ndarray,
        eta_i2_eff: np.ndarray,
    ) -> np.ndarray:
        shape = block.shape[rows]
        d_src, d_dst = block.depths[shape].T
        if shape.min() == shape.max():
            # One shape: its weights broadcast over rows and loads, which
            # multiplies about 2.5× faster than a weight per row.
            shape = shape[:1]
        return _solve_pair_stacked(
            block.src_cs[rows],
            block.i2_cs[rows],
            block.dst_cs[rows],
            block.dst_cn[rows],
            d_src,
            d_dst,
            block.n_c,
            block.weights[shape, : int(d_src.max()), : int(d_dst.max())],
            eta_e1,
            eta_i2_eff,
            block.m_flits[rows],
        )

    def _solved(
        self,
        terms: Callable[[Any, "np.ndarray | slice", np.ndarray], dict],
        block: "_IntraBlock | _PairBlock",
        rows: np.ndarray,
        loads: np.ndarray,
        keys: "tuple[str, ...] | None" = None,
    ) -> dict:
        """``terms(block, rows, loads)`` in the solver calls of the chunk rule.

        :func:`_solve_calls` cuts *rows* (and their *loads* rows) into
        calls; each call's planes named in *keys* (all when ``None``) are
        placed back at its rows, so the result is row for row what one
        call over all *rows* would return.
        """
        calls = _solve_calls(block, rows, loads.shape[1])
        out: dict[str, np.ndarray] = {}
        for at in calls:
            part = terms(block, rows[at], loads[at])
            if keys is not None:
                part = {key: part[key] for key in keys}
            if len(calls) == 1:
                return part
            for key, plane in part.items():
                if key not in out:
                    out[key] = np.empty((rows.size, *plane.shape[1:]), dtype=plane.dtype)
                out[key][at] = plane
        return out

    # -- per-term planes (Eqs. 1, 7–39, stacked) --------------------------------

    def _source_queue_terms(
        self,
        block: "_IntraBlock | _PairBlock",
        rows: "np.ndarray | slice",
        source_rate: np.ndarray,
        network: np.ndarray,
    ) -> dict:
        """Eqs. 15–19 / 31–33: the source queue in front of a journey set.

        Its service time is the journeys' mean network latency, with the
        Eq. 17 variance; the total adds the wait and the tail time.
        """
        with np.errstate(invalid="ignore", over="ignore"):
            variance = np.where(
                block.var_paper[rows][:, None],
                (network - block.min_service[rows][:, None]) ** 2,  # Eq. 17
                network**2,
            )
        wait, utilization, saturated = _mg1_wait_batched(source_rate, network, variance)
        tail_time = block.tail_time[rows]
        return {
            "wait": wait,
            "network_latency": network,
            "tail_time": tail_time,
            "total": wait + network + tail_time[:, None],
            "utilization": utilization,
            "saturated": saturated,
        }

    def _intra_terms(self, block: _IntraBlock, rows: "np.ndarray | slice", loads: np.ndarray) -> dict:
        """Eqs. 7–19 over block rows: every plane of an ``IntraClusterLatency``."""
        lambda_i1, eta_i1 = self._intra_rates(block, rows, loads)
        network = self._intra_latency(block, rows, eta_i1)
        source_rate = self._intra_source_rate(block, rows, loads, lambda_i1)
        return {
            **self._source_queue_terms(block, rows, source_rate, network),
            "lambda_i1": lambda_i1,
            "eta_i1": eta_i1,
        }

    def _pair_terms(
        self, block: _PairBlock, rows: "np.ndarray | slice", loads: np.ndarray, *, rates: bool = True
    ) -> dict:
        """Eqs. 20–38 over block rows: the ``InterPairLatency`` planes, the
        Eqs. 36–37 concentrator queue, the destination ``weight`` and the
        ``relaxing_factor``.  The rate planes ``lambda_e1``, ``lambda_i2``,
        ``eta_e1`` and ``eta_i2``, which the latency fold never reads, only
        with *rates*; every plane is dropped after its last use."""
        lambda_e1, eta_e1, eta_i2_eff = self._pair_rates(block, rows, loads)
        network = self._pair_latency(block, rows, eta_e1, eta_i2_eff)
        del eta_i2_eff
        planes: dict[str, np.ndarray] = {}
        if rates:
            lambda_i2, eta_i2 = self._icn2_rates(block, rows, lambda_e1)
            planes = {"lambda_e1": lambda_e1, "lambda_i2": lambda_i2, "eta_e1": eta_e1, "eta_i2": eta_i2}
        del eta_e1
        conc_wait, conc_utilization, conc_saturated = _mg1_wait_batched(
            self._concentrator_rate(block, rows, loads, lambda_e1),
            np.broadcast_to(block.conc_service[rows][:, None], loads.shape),
            np.broadcast_to(block.conc_variance[rows][:, None], loads.shape),
        )
        conc_wait *= 2.0  # Eq. 38 summand (2 inf stays inf)
        source_rate = self._pair_source_rate(block, rows, loads, lambda_e1)
        del lambda_e1
        return {
            **self._source_queue_terms(block, rows, source_rate, network),
            **planes,
            "conc_utilization": conc_utilization,
            "conc_pair_wait": conc_wait,
            "conc_saturated": conc_saturated,
            "weight": block.weight[rows],
            "relaxing_factor": block.delta[rows],
        }

    def _batch_terms(
        self,
        group: _CellGroup,
        cell_rows: np.ndarray,
        loads: np.ndarray,
        classes: slice,
        intra_keys: "tuple[str, ...] | None",
        pair_keys: "tuple[str, ...] | None",
    ) -> tuple[np.ndarray, dict, "dict | None"]:
        """A batch of source *classes* over the group's *cell_rows*: intra and pair planes.

        Returns the batch's intra rows (class-major, then cell) and their
        planes, and the planes of its ordered pairs ``(i, j)``, rows in
        ``(i, j, cell)`` order (``None`` in a single-cluster group).  Each
        is solved in the calls of the chunk rule (:func:`_solve_calls`).
        """
        cells = cell_rows.size
        batch = classes.stop - classes.start
        intra_rows = (group.intra[classes, None] + cell_rows).ravel()
        intra = self._solved(
            self._intra_terms, self.plan.intra, intra_rows, np.tile(loads, (batch, 1)), intra_keys
        )
        if group.single_cluster:
            return intra_rows, intra, None
        pair_rows = (group.pairs[classes, :, None] + cell_rows).ravel()
        rates = pair_keys is None or not {"lambda_e1", "lambda_i2", "eta_e1", "eta_i2"}.isdisjoint(pair_keys)
        pairs = self._solved(
            functools.partial(self._pair_terms, rates=rates),
            self.plan.pair_blocks[group.family],
            pair_rows,
            np.tile(loads, (pair_rows.size // cells, 1)),
            pair_keys,
        )
        return intra_rows, intra, pairs

    def _class_batches(
        self, group: _CellGroup, cell_rows: np.ndarray, loads: np.ndarray, *, keep: bool = False
    ) -> Iterator[dict]:
        """Yield each batch of source classes' Eq. 1/35/38/39 planes, in class order.

        Mirrors the class loop of ``AnalyticalModel.evaluate`` over a batch
        of classes at a time (:meth:`_CellGroup.batches`) for the group's
        cells at positions *cell_rows* (which may repeat), one row of
        *loads* each; planes are shaped ``(classes, cells, loads)``.  The
        Eq. 35/38 fold over destinations is one elementwise step per ``j``,
        in the scalar ``j`` order, over the batch's source classes, cells
        and loads.  The per-cell ``U_i == 0`` / zero-weight control-flow
        skips of the scalar path become ``np.where`` selections, so a
        masked lane never leaks the ``0 · ∞`` artifacts of a branch the
        scalar code would not have executed.
        With *keep* every intra and pair plane rides along under
        ``"intra"`` and ``"pairs"`` (the breakdown path); otherwise only
        the planes the folds read are kept.
        """
        cells = cell_rows.size
        count = len(group.class_names)
        intra_keys = None if keep else ("total", "saturated")
        pair_keys = None if keep else ("weight", "total", "conc_pair_wait", "saturated", "conc_saturated")
        block = self.plan.intra
        for classes in group.batches(cells, loads.shape[1]):
            intra_rows, intra, pairs = self._batch_terms(
                group, cell_rows, loads, classes, intra_keys, pair_keys
            )
            batch = classes.stop - classes.start
            planes = (batch, cells, loads.shape[1])
            u = block.u[intra_rows].reshape(batch, cells, 1)
            active = (u > 0.0) & (pairs is not None)
            inter_network = np.zeros(planes)
            conc_wait = np.zeros(planes)
            pair_saturated = np.zeros(planes, dtype=bool)
            if pairs is not None:
                pair_planes = (batch, count, cells, loads.shape[1])
                w = pairs["weight"].reshape(batch, count, cells, 1)
                positive = w > 0.0
                with np.errstate(invalid="ignore", over="ignore"):
                    network = np.where(positive, w * pairs["total"].reshape(pair_planes), 0.0)
                    queued = np.where(positive, w * pairs["conc_pair_wait"].reshape(pair_planes), 0.0)
                total_weight = np.zeros((batch, cells, 1))
                for j in range(count):
                    inter_network = inter_network + network[:, j]
                    conc_wait = conc_wait + queued[:, j]
                    total_weight = total_weight + w[:, j]
                saturated = (pairs["saturated"] | pairs["conc_saturated"]).reshape(pair_planes)
                pair_saturated = np.any(positive & saturated, axis=1) & active
                with np.errstate(divide="ignore", invalid="ignore"):
                    inter_network = np.where(active, inter_network / total_weight, 0.0)
                    conc_wait = np.where(active, conc_wait / total_weight, 0.0)
            outward = inter_network + conc_wait  # Eq. 39
            with np.errstate(invalid="ignore", over="ignore"):
                mean = (
                    block.intra_fraction[intra_rows].reshape(batch, cells, 1)
                    * intra["total"].reshape(planes)
                    + u * outward
                )  # Eq. 1
            yield {
                "classes": classes,
                "intra_rows": intra_rows,
                "intra": intra,
                "pairs": pairs,
                "active": active,
                "inter_network": inter_network,
                "conc_wait": conc_wait,
                "outward": outward,
                "mean": mean,
                "saturated": intra["saturated"].reshape(planes) | pair_saturated,
            }

    def _fold_latency(
        self, group: _CellGroup, cell_rows: np.ndarray, loads: np.ndarray, batches: Iterable[dict]
    ) -> np.ndarray:
        """Eq. 3: node-weighted mean of the class means in class order, ``inf`` if saturated."""
        block = self.plan.intra
        latency = np.zeros_like(loads)
        any_saturated = np.zeros(loads.shape, dtype=bool)
        for batch in batches:
            class_rows = batch["intra_rows"]
            size = batch["mean"].shape[:2] + (1,)
            weighted = (batch["mean"] * block.nodes[class_rows].reshape(size)) * block.count[
                class_rows
            ].reshape(size)
            for plane in weighted:
                latency = latency + plane
            any_saturated |= np.any(batch["saturated"], axis=0)
        latency = latency / group.total_nodes[cell_rows][:, None]
        return np.where(any_saturated, np.inf, latency)

    def _latencies(self, cells: np.ndarray, loads: np.ndarray) -> np.ndarray:
        """Mean latency (Eq. 3) of the cells at positions *cells* over their *loads* rows.

        *cells* may repeat; *loads* holds one row per entry.  The entries
        of each cell group are priced together, one group after another.
        """
        out = np.empty_like(loads)
        groups, positions = self.plan.cell_group[cells], self.plan.cell_position[cells]
        for g in np.flatnonzero(np.bincount(groups)):
            at = np.flatnonzero(groups == g)
            group, cell_rows, group_loads = self.plan.groups[g], positions[at], loads[at]
            batches = self._class_batches(group, cell_rows, group_loads)
            out[at] = self._fold_latency(group, cell_rows, group_loads, batches)
        return out

    # -- public evaluation ------------------------------------------------------

    def _as_rows(self, loads: "np.ndarray | Sequence[float]") -> np.ndarray:
        """Validated ``(cells, loads)`` rows from one shared grid or per-cell rows.

        The engine's one load check: non-empty, finite and non-negative
        (finiteness first, so a NaN load reads as not finite).
        """
        loads_arr = np.asarray(loads, dtype=np.float64)
        if loads_arr.ndim == 1:
            loads_arr = np.broadcast_to(loads_arr, (self.cells, loads_arr.size))
        require(
            loads_arr.ndim == 2 and loads_arr.shape[0] == self.cells and loads_arr.size > 0,
            "loads must be a non-empty (loads,) or (cells, loads) array",
        )
        require(bool(np.all(np.isfinite(loads_arr))), "loads must be finite")
        require(bool(np.all(loads_arr >= 0)), "loads must be non-negative")
        return loads_arr

    def evaluate_latencies(self, loads: "np.ndarray | Sequence[float]") -> np.ndarray:
        """Mean latency at per-cell load rows — shape ``(cells, loads)``.

        *loads* is either one shared grid ``(loads,)`` or per-cell rows
        ``(cells, loads)``.
        """
        return self._latencies(np.arange(self.cells), self._as_rows(loads))

    def evaluate_terms(self, loads: "np.ndarray | Sequence[float]") -> list[dict]:
        """Per-cell term planes behind the ``ModelResult`` breakdowns.

        One mapping per cell, with rows over that cell's loads:
        ``"latency"`` (Eq. 3, as :meth:`evaluate_latencies`) and
        ``"classes"``, one mapping per cluster class holding the
        ``"intra"`` terms, the ``"pairs"`` terms per destination class
        (empty when the class sends nothing outward), the Eq. 35/38/39
        planes and the class ``"saturated"`` flags.  Load-independent
        constants are scalars: ``tail_time`` in every intra and pair
        mapping, ``relaxing_factor`` and the destination ``weight`` in
        every pair mapping.
        """
        loads_arr = self._as_rows(loads)
        out: list[dict] = [{} for _ in range(self.cells)]
        for group in self.plan.groups:
            group_loads = np.ascontiguousarray(loads_arr[group.indices])
            cell_rows = np.arange(group.size)
            batches = list(self._class_batches(group, cell_rows, group_loads, keep=True))
            latency = self._fold_latency(group, cell_rows, group_loads, batches)
            count, cells = len(group.class_names), group.size
            classes = []
            for batch in batches:
                size = batch["classes"].stop - batch["classes"].start
                intra = {key: plane.reshape(size, cells, *plane.shape[1:]) for key, plane in batch["intra"].items()}
                pairs = {
                    key: plane.reshape(size, count, cells, *plane.shape[1:])
                    for key, plane in (batch["pairs"] or {}).items()
                }
                for k in range(size):
                    # A class that sends nothing outward in any cell lists no pairs.
                    outward = bool(batch["active"][k].any())
                    classes.append(
                        {
                            "intra": {key: plane[k] for key, plane in intra.items()},
                            "pairs": [
                                {key: plane[k, j] for key, plane in pairs.items()}
                                for j in range(count if outward else 0)
                            ],
                            **{
                                key: batch[key][k]
                                for key in ("inter_network", "conc_wait", "outward", "mean", "saturated")
                            },
                        }
                    )
            for c, pos in enumerate(group.indices):
                out[pos] = _cell_slice({"latency": latency, "classes": classes}, c)
        return out

    def resource_utilizations(
        self, loads: "np.ndarray | Sequence[float]"
    ) -> list[list[tuple[str, str, np.ndarray]]]:
        """Per-cell ``(resource, kind, utilisation row)`` of every queue and channel.

        The enumeration follows the scalar class order: per source class
        its ICN1 source queue and channels, then per destination class the
        ECN1 source queue, the concentrator, and the ECN1 and ICN2
        channels (no pairs in a single-cluster system).  Channel
        utilisation is ``η · M · t_cs`` of the channel's network.
        """
        loads_arr = self._as_rows(loads)
        out: list[list[tuple[str, str, np.ndarray]]] = [[] for _ in range(self.cells)]
        intra_block = self.plan.intra
        for group in self.plan.groups:
            group_loads = np.ascontiguousarray(loads_arr[group.indices])
            cells = np.arange(group.size)
            names = group.class_names
            planes: list[tuple[str, str, np.ndarray]] = []
            for classes in group.batches(group.size, group_loads.shape[1]):
                intra_rows, intra, pairs = self._batch_terms(
                    group,
                    cells,
                    group_loads,
                    classes,
                    ("utilization", "eta_i1"),
                    ("utilization", "conc_utilization", "eta_e1", "eta_i2"),
                )
                size = (classes.stop - classes.start, group.size, -1)
                m_flits = intra_block.m_flits[intra_rows][:, None]
                icn1 = intra["eta_i1"] * m_flits * intra_block.t_cs[intra_rows][:, None]
                queues, icn1 = intra["utilization"].reshape(size), icn1.reshape(size)
                if pairs is not None:
                    block = self.plan.pair_blocks[group.family]
                    pair_rows = (group.pairs[classes, :, None] + cells).ravel()
                    m_flits = block.m_flits[pair_rows][:, None]
                    pair_size = (size[0], len(names), group.size, -1)
                    pair_planes = [
                        ("ecn1-source-queue", "source-queue", pairs["utilization"]),
                        ("concentrator", "concentrator", pairs["conc_utilization"]),
                        ("ecn1-channels", "channel", pairs["eta_e1"] * m_flits * block.src_cs[pair_rows][:, None]),
                        ("icn2-channels", "channel", pairs["eta_i2"] * m_flits * block.i2_cs[pair_rows][:, None]),
                    ]
                    pair_planes = [(role, kind, plane.reshape(pair_size)) for role, kind, plane in pair_planes]
                for k, i in enumerate(range(classes.start, classes.stop)):
                    name = names[i]
                    planes += [
                        (f"{name}:icn1-source-queue", "source-queue", queues[k]),
                        (f"{name}:icn1-channels", "channel", icn1[k]),
                    ]
                    if pairs is None:
                        continue
                    for j, dst in enumerate(names):
                        planes += [
                            (f"{name}->{dst}:{role}", kind, plane[k, j]) for role, kind, plane in pair_planes
                        ]
            for c, pos in enumerate(group.indices):
                out[pos] = [(name, kind, plane[c]) for name, kind, plane in planes]
        return out

    def zero_load_latencies(self) -> np.ndarray:
        """Per-cell latency floor (λ_g → 0), shape ``(cells,)``; evaluated once per stack."""
        if self._zero_load is None:
            self._zero_load = self.evaluate_latencies(np.zeros((self.cells, 1)))[:, 0]
        return self._zero_load.copy()

    # -- per-resource saturation (one stack-wide inversion) ---------------------

    def _queue_rate(
        self, block: "_IntraBlock | _PairBlock", rows: np.ndarray, loads: np.ndarray
    ) -> np.ndarray:
        """A source queue's arrival rate over block rows (Eq. 18 or 31)."""
        if isinstance(block, _IntraBlock):
            lambda_i1, _ = self._intra_rates(block, rows, loads)
            return self._intra_source_rate(block, rows, loads, lambda_i1)
        return self._pair_source_rate(block, rows, loads, loads * block.external[rows][:, None])

    def _network(self, block: "_IntraBlock | _PairBlock", rows: "np.ndarray | slice", loads: np.ndarray) -> dict:
        """The latency a source queue serves over block rows, its own journey set, in one solver call."""
        if isinstance(block, _IntraBlock):
            _, eta_i1 = self._intra_rates(block, rows, loads)
            return {"latency": self._intra_latency(block, rows, eta_i1)}
        _, eta_e1, eta_i2_eff = self._pair_rates(block, rows, loads)
        return {"latency": self._pair_latency(block, rows, eta_e1, eta_i2_eff)}

    def _saturation_probe(
        self,
        blocks: Sequence["_IntraBlock | _PairBlock"],
        ids: np.ndarray,
        rows: np.ndarray,
        slope: np.ndarray,
    ) -> Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """``ρ >= 1`` over searched rows (block ``ids[k]``, row ``rows[k]``), scored ``λ/ρ − λ``.

        The rate is ``slope · λ``, so ``λ/ρ = 1 / (slope · T(λ))``, which
        is finite at ``λ = 0`` too.  With the Eq. 15 form ``ρ = aλ/(1 −
        bλ)`` the score is linear in λ; an infinite latency scores
        ``−inf``.  The probe splits its rows by journey family and solves
        each family's rows in the calls of the chunk rule: one call per
        family when they fit the element budget.
        """

        def crossed(sub: np.ndarray, loads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            sub_ids, sub_rows = ids[sub], rows[sub]
            verdict = np.empty(loads.shape, dtype=bool)
            score = np.empty(loads.shape)
            for b in np.flatnonzero(np.bincount(sub_ids)):
                at = np.flatnonzero(sub_ids == b)
                block, block_rows, block_loads = blocks[b], sub_rows[at], loads[at]
                t = self._solved(self._network, block, block_rows, block_loads)["latency"]
                finite = np.isfinite(t)
                with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
                    rate = self._queue_rate(block, block_rows, block_loads)
                    verdict[at] = ~finite | (rate * t >= 1.0)
                    score[at] = np.where(
                        finite, 1.0 / (slope[sub[at], None] * t) - block_loads, -np.inf
                    )
            return verdict, score

        return crossed

    def _row_cells(self) -> list[np.ndarray]:
        """Each row's position in the cell list: one plane per journey family, intra first."""
        out = [np.empty(block.size, dtype=np.intp) for block in (self.plan.intra, *self.plan.pair_blocks)]
        for group in self.plan.groups:
            cells = np.arange(group.size)
            out[0][group.intra[:, None] + cells] = group.indices
            if not group.single_cluster:
                out[1 + group.family][group.pairs[..., None] + cells] = group.indices
        return out

    def _source_queue_saturation_rows(
        self, concentrators: "Sequence[np.ndarray] | None" = None
    ) -> list[np.ndarray]:
        """λ* of every source queue in the stack: one plane per journey family, intra first.

        A source queue saturates where ``rate(λ) · T(λ) = 1`` (Eq. 15):
        ``rate`` is its arrival rate (linear in ``λ_g``, shared with the
        evaluation path) and ``T`` the monotone non-decreasing latency of
        its own journey set, so the root is unique and bounded above by the
        linearised ``1 / (rate'(0) · T(0))``.  The searched rows are every
        class's ICN1 queue and every outward pair's ECN1 queue (source class
        sending outward, positive pair weight) of positive rate slope; the
        rest never saturate and get ``inf``.  They are refined to 1e-13
        relative width in runs of consecutive family-major rows, one
        :func:`_refine_rows` per run, whose probe evaluates the queues' own
        journey recursions (not the whole model, :meth:`_saturation_probe`).
        A run's first round evaluates its rows × 33 grid points, so a run
        holds at most ``_SOLVE_ELEMENTS // 33`` rows (at least one): one run
        of all 23,040 queues of a 90-cell ``544-hotspot`` grid held a traced
        peak of 51 MB.  Rows are independent, so how the rows are cut into
        runs never changes a λ*.

        Given the pair blocks' *concentrators* λ* planes, the search is
        bounded: each cell's ceiling starts at the least of its
        concentrators' λ* and its queues' upper ends, and every run refines
        under it (:class:`_Ceiling`), lowering it for the runs after it.  A
        queue that cannot be its cell's least then stops early and reports
        a value strictly above that least, while every queue that can runs
        to its exact λ*.
        """
        blocks = (self.plan.intra, *self.plan.pair_blocks)
        out = [np.full(block.size, np.inf) for block in blocks]
        row_cells = self._row_cells()
        ids, rows, slopes, upper, cells = [], [], [], [], []
        for b, block in enumerate(blocks):
            if isinstance(block, _IntraBlock):
                searched = np.arange(block.size)
            else:
                searched = np.flatnonzero(block.outward())
            slope = self._queue_rate(block, searched, np.ones((searched.size, 1)))[:, 0]
            searched, slope = searched[slope > 0.0], slope[slope > 0.0]
            if not searched.size:
                continue
            zero_latency = self._solved(self._network, block, searched, np.zeros((searched.size, 1)))["latency"][:, 0]
            require(
                bool(np.all(np.isfinite(zero_latency) & (zero_latency > 0.0))),
                "zero-load pipeline latency must be positive",
            )
            ids.append(np.full(searched.size, b))
            rows.append(searched)
            slopes.append(slope)
            # Same tiny headroom as the scalar path: ρ(hi) >= 1 even when the
            # pipeline latency is load-independent and the bound is the root.
            upper.append((1.0 / (slope * zero_latency)) * (1.0 + 1e-9))
            cells.append(row_cells[b][searched])
        if not ids:
            return out
        all_ids, all_rows, all_slopes, all_upper, all_cells = (
            np.concatenate(parts) for parts in (ids, rows, slopes, upper, cells)
        )
        ceiling: "np.ndarray | None" = None
        if concentrators is not None:
            ceiling = np.full(self.cells, np.inf)
            for plane, plane_cells in zip(concentrators, row_cells[1:]):
                np.minimum.at(ceiling, plane_cells, plane)
            np.minimum.at(ceiling, all_cells, all_upper)
        found = np.empty(all_ids.size)
        points = 33
        length = max(1, packing._SOLVE_ELEMENTS // points)
        for start in range(0, all_ids.size, length):
            run = slice(start, start + length)
            probe = self._saturation_probe(blocks, all_ids[run], all_rows[run], all_slopes[run])
            _, found[run] = _refine_rows(
                np.zeros(found[run].size),
                all_upper[run],
                probe,
                rel_tol=1e-13,
                points=points,
                ceiling=None if ceiling is None else _Ceiling(ceiling, all_cells[run]),
            )
        for b, plane in enumerate(out):
            at = all_ids == b
            plane[all_rows[at]] = found[at]
        return out

    def _concentrator_saturation(self, block: _PairBlock) -> np.ndarray:
        """Per-row concentrator λ*: a constant service time ⇒ closed form, as in the scalar path."""
        ones = np.ones((block.size, 1))
        every = slice(None)
        slope = self._concentrator_rate(block, every, ones, ones * block.external[:, None])[:, 0]
        out = np.full(block.size, np.inf)
        inc = block.outward() & (slope > 0.0)
        out[inc] = 1.0 / (slope[inc] * block.conc_service[inc])
        return out

    def _resource_planes(
        self,
        group: _CellGroup,
        queues: Sequence[np.ndarray],
        concentrators: Sequence[np.ndarray],
    ) -> tuple[list[str], np.ndarray]:
        """A group's per-resource λ* planes, resources in the scalar insertion order.

        Per source class: its ICN1 queue, then per destination class the
        pair's ECN1 queue and concentrator.
        """
        cells = np.arange(group.size)
        intra_queues = queues[0][group.intra[:, None] + cells]
        if group.single_cluster:
            return [f"{name}:icn1-source-queue" for name in group.class_names], intra_queues
        count = len(group.class_names)
        pair_rows = group.pairs[:, :, None] + cells
        values = np.empty((count, 1 + 2 * count, group.size))
        values[:, 0] = intra_queues
        values[:, 1::2] = queues[1 + group.family][pair_rows]
        values[:, 2::2] = concentrators[group.family][pair_rows]
        names: list[str] = []
        for name in group.class_names:
            names.append(f"{name}:icn1-source-queue")
            for dst in group.class_names:
                names += [f"{name}->{dst}:ecn1-source-queue", f"{name}->{dst}:concentrator"]
        return names, values.reshape(-1, group.size)

    def _least_saturation(
        self, queues: Sequence[np.ndarray], concentrators: Sequence[np.ndarray], *, maps: bool
    ) -> list[dict[str, float]]:
        """Cache each cell's least λ* and binding resource (first minimum, scalar order).

        Returns the per-cell ``{resource: λ*}`` maps of the finite entries
        with *maps*, and empty maps without.
        """
        lam_star = np.empty(self.cells)
        binding: list[str] = [""] * self.cells
        per_cell: list[dict[str, float]] = [{} for _ in range(self.cells)]
        for group in self.plan.groups:
            names, values = self._resource_planes(group, queues, concentrators)
            with np.errstate(invalid="ignore"):
                argmin = np.argmin(values, axis=0)
            least = values[argmin, np.arange(group.size)]
            lam_star[group.indices] = least
            finite = np.isfinite(values)
            for c, pos in enumerate(group.indices):
                if finite[argmin[c], c]:
                    binding[pos] = names[int(argmin[c])]
                if maps:
                    per_cell[pos] = {names[r]: float(values[r, c]) for r in range(len(names)) if finite[r, c]}
        self._lam_star, self._binding = lam_star, binding
        return per_cell

    def saturation_loads(self) -> list[dict[str, float]]:
        """Per-cell ``{resource: λ*}`` maps, keyed like ``ModelResult.saturated_resources``.

        The full search: concentrator entries are the exact closed forms,
        source-queue entries every queue's inversion to 1e-13 relative
        width (see the module docstring), computed once per stack.  Only
        resources that can saturate the cell are listed: zero-rate queues,
        zero-weight pairs and ``U_i == 0`` classes are omitted, mirroring
        the saturation scope of ``AnalyticalModel.evaluate``.
        """
        if self._saturation is None:
            queues = self._source_queue_saturation_rows()
            concentrators = [self._concentrator_saturation(block) for block in self.plan.pair_blocks]
            self._saturation = self._least_saturation(queues, concentrators, maps=True)
        return [dict(m) for m in self._saturation]

    def _bounded_saturation(self) -> None:
        """Each cell's least λ* and binding resource by the bounded search.

        The source-queue search refines only the queues that can still be
        their cell's least (:meth:`_source_queue_saturation_rows`), so the
        least values and their first argmins in scalar order are the full
        search's bit for bit, ties included.
        """
        concentrators = [self._concentrator_saturation(block) for block in self.plan.pair_blocks]
        queues = self._source_queue_saturation_rows(concentrators)
        self._least_saturation(queues, concentrators, maps=False)

    def saturation_load(self) -> np.ndarray:
        """Per-cell smallest saturating load, shape ``(cells,)``.

        Read off the full maps when :meth:`saturation_loads` has run, and
        otherwise found by the bounded search, which refines only the
        queues that can still bind; either way computed once per stack.
        """
        if self._lam_star is None:
            self._bounded_saturation()
        assert self._lam_star is not None
        require(
            bool(np.all(np.isfinite(self._lam_star))),
            "could not find a saturating load (system unsaturable?)",
        )
        return self._lam_star.copy()

    def binding_resources(self) -> list[str]:
        """Per-cell binding resource names (first minimum, scalar order).

        From the same search as :meth:`saturation_load`.
        """
        if self._binding is None:
            self._bounded_saturation()
        assert self._binding is not None
        require("" not in self._binding, "no saturable resources in this system")
        return list(self._binding)

    # -- knee and capacity searches: one latency-crossing search ----------------

    def _latency_crossings(
        self, cells: np.ndarray, limits: np.ndarray, fraction: float, *, rel_tol: float, inclusive: bool
    ) -> np.ndarray:
        """Where the mean latency of the cells at positions *cells* crosses their *limits*.

        The knee and budget searches' one implementation: the cells are
        refined together, one row each, in one :func:`_refine_rows` over
        ``[0, fraction · λ*]``, where a load is within its row's limit when
        its latency is finite and below it (at or below it when
        *inclusive*), and each row achieves its bracket's low end.  The
        probe prices each cell group's live rows in turn
        (:meth:`_latencies`), and rows are independent, so every load is
        the one the cell's search alone would find, bit for bit.

        Each row's prior holds its exact sample at load 0, the stack's
        cached floor, and, once the probe has recorded latencies on this
        stack, the recorded ones (:meth:`_sampled`): each is judged against
        this search's own limit and comparison, which is exact, since it
        compares a stored number, and scored like a probed one, and the two
        on either side of the crossing are passed.  Passing every recorded
        sample instead held 0.21 MB more at the budget search's traced peak
        on a 270-cell grid.  With ``T = T0 + cλ/(λ* − λ)`` and ``c <= 2
        T0``, a limit ``L`` is first exceeded at or above ``λ*·(L − T0)/(L
        + T0)``, 0.6 λ* for the knee at 4× the floor: each row's pole
        bound.  In a refinement of 16 rows and more, a row whose samples
        give it no estimate, or only one extrapolated from the floor,
        opens with a pole window from that bound (:func:`_refine_rows`).
        The bound held for every knee row of four 270-cell explore grids
        at 2× and 4× the floor, and for 87.5 % (2×) and 92.0 % (4×) of 336
        rows built from the scenario registry, whose pole windows hit for
        91.7 % and 93.8 % (a window starts at the grid point below the
        bound); a row whose window misses evaluates its whole grid in the
        next call.  Prior and bound only choose which loads the probe
        evaluates, so the loads found stay the same whatever ran before.
        """
        pole = self.saturation_load()[cells]
        within = np.less_equal if inclusive else np.less

        def judged(
            sub: np.ndarray, loads: np.ndarray, latencies: np.ndarray
        ) -> tuple[np.ndarray, np.ndarray]:
            limit = limits[sub][:, None]
            score = _pole_score(limit, latencies, pole[sub], loads)
            return ~(np.isfinite(latencies) & within(latencies, limit)), score

        def beyond(sub: np.ndarray, loads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            latencies = self._latencies(cells[sub], loads)
            self._samples.append((cells[sub], loads, latencies))
            return judged(sub, loads, latencies)

        # Every row's exact sample at load 0, its floor, then its recorded ones.
        floor = self.zero_load_latencies()[cells]
        loads, latencies = np.zeros((cells.size, 1)), floor[:, None]
        sampled = self._sampled(cells)
        if sampled is not None:
            # A recorded row's loads increase and its verdicts with them, so
            # columns k − 2 … k + 1 (k samples within the limit) hold the
            # two samples on either side of its crossing, all the prior
            # needs (:func:`_refine_rows` predicts from no others).
            crossed, _ = judged(np.arange(cells.size), *sampled)
            # k: the first sample beyond the limit, past the last if none is.
            k = np.where(crossed[:, -1], np.argmax(crossed, axis=1), crossed.shape[1])
            near = k[:, None] + np.arange(-2, 2)
            np.clip(near, 0, crossed.shape[1] - 1, out=near)
            loads = np.concatenate([loads, np.take_along_axis(sampled[0], near, axis=1)], axis=1)
            latencies = np.concatenate([latencies, np.take_along_axis(sampled[1], near, axis=1)], axis=1)
            del sampled, crossed
        prior = (loads, *judged(np.arange(cells.size), loads, latencies))
        # With T = T0 + cλ/(λ* − λ) and c <= 2 T0, T first exceeds L at or
        # above λ*·(L − T0)/(L + T0): each row's pole bound.
        bound = pole * (limits - floor) / (limits + floor)
        lo, _ = _refine_rows(
            np.zeros(cells.size), pole * fraction, beyond, rel_tol=rel_tol, prior=prior, pole_bound=bound
        )
        return lo

    def _sampled(self, cells: np.ndarray) -> "tuple[np.ndarray, np.ndarray] | None":
        """The recorded samples of the cells at positions *cells*, one row per cell.

        Returns ``(loads, latencies)`` shaped ``(cells, samples)``: each
        row the cell's distinct recorded loads in increasing order and
        their latencies, padded with infinite loads of NaN latency;
        ``None`` when nothing is recorded.  The record's probe calls are
        folded into one such row per stack cell, kept as the record, so a
        search repeated on one stack does not grow it.  They are folded
        only when a search reads them, so a stack's last search (explore's
        budget search, a one-cell capacity query) folds nothing.
        """
        if not self._samples:
            return None
        # Each recorded row's first column in its cell's row.  A probe call
        # may hold several rows of one cell (a whole grid packed into
        # windows); they take consecutive places.
        fill = np.zeros(self.cells, dtype=np.intp)
        starts = []
        for owner, loads, _ in self._samples:
            order = np.argsort(owner, kind="stable")
            ranked = owner[order]
            count = np.bincount(ranked, minlength=self.cells)
            earlier = np.arange(ranked.size) - (np.cumsum(count) - count)[ranked]  # the cell's rows before it
            start = np.empty_like(owner)
            start[order] = fill[ranked] + earlier * loads.shape[1]
            starts.append(start)
            fill += count * loads.shape[1]
        shape = (self.cells, int(fill.max()))
        by_load, by_latency = np.full(shape, np.inf), np.full(shape, np.nan)
        for (owner, loads, latencies), start in zip(self._samples, starts):
            columns = start[:, None] + np.arange(loads.shape[1])
            by_load[owner[:, None], columns] = loads
            by_latency[owner[:, None], columns] = latencies
        # The mean latency is non-decreasing in the load (the monotonicity
        # of the module docstring), so sorting a row's loads and its
        # latencies apart keeps every sample's pair, and the padding sorts
        # last.  A repeated load keeps one sample.
        by_load.sort(axis=1)
        by_latency.sort(axis=1)
        repeated = np.zeros(shape, dtype=bool)
        np.equal(by_load[:, 1:], by_load[:, :-1], out=repeated[:, 1:])
        by_load[repeated] = np.inf
        by_latency[repeated] = np.nan
        by_load.sort(axis=1)
        by_latency.sort(axis=1)
        width = np.count_nonzero(np.any(by_load < np.inf, axis=0))
        by_load, by_latency = by_load[:, :width], by_latency[:, :width]
        self._samples = [(np.arange(self.cells), by_load, by_latency)]
        return by_load[cells], by_latency[cells]

    def knee_loads(self, knee_threshold_factor: float) -> np.ndarray:
        """Per-cell load where latency reaches ``factor ×`` its floor.

        Mirrors the per-cell knee reference of ``tests/test_stacked.py``
        (``model_knee``): the same bracket ``[0, λ*·(1 − 1e-9)]``,
        threshold test and 1e-6 relative refinement.
        """
        limits = knee_threshold_factor * self.zero_load_latencies()
        return self._latency_crossings(
            np.arange(self.cells), limits, 1.0 - 1e-9, rel_tol=1e-6, inclusive=False
        )

    def loads_at_budget(self, budgets: np.ndarray) -> np.ndarray:
        """Per-cell largest load whose latency meets the budget; NaN budgets pass through.

        The one implementation of the latency-budget capacity search
        (:func:`repro.analysis.capacity.max_load_for_latency` reads its
        one-cell row): infeasible budgets (below the zero-load floor)
        achieve 0, the rest refine the budget crossing in ``[0, 0.9999
        λ*]`` to 1e-4 relative width and achieve the bracket's low end.  A
        budget met at ``0.9999 λ*`` is met at the last load of the first
        round's grid, so its row stops with ``lo = hi`` and achieves that
        bound.
        """
        budgets = np.asarray(budgets, dtype=np.float64)
        require(budgets.shape == (self.cells,), "budgets must be one value per cell")
        has_budget = np.isfinite(budgets)
        require(
            bool(np.all(budgets[has_budget] > 0.0)),
            "latency_budget must be positive",
        )
        out = np.full(self.cells, np.nan)
        if not has_budget.any():
            return out
        infeasible = has_budget & (budgets < self.zero_load_latencies())
        out[infeasible] = 0.0
        search = np.flatnonzero(has_budget & ~infeasible)
        out[search] = self._latency_crossings(
            search, budgets[search], 0.9999, rel_tol=1e-4, inclusive=True
        )
        return out

    def auto_load_grids(
        self,
        *,
        points: int = 12,
        fraction_of_saturation: float = 0.95,
        include_zero: bool = False,
    ) -> np.ndarray:
        """Per-cell figure load grids, shape ``(cells, points)``.

        Row ``c`` holds *points* evenly spaced loads from ``top / points``
        (from 0 with *include_zero*) to ``top = fraction_of_saturation ·
        λ*_c``; :func:`repro.core.sweep.auto_load_grid` is the one-cell
        row.
        """
        require_int(points, "points", minimum=2)
        require(
            0.0 < fraction_of_saturation < 1.0, "fraction_of_saturation must be in (0, 1)"
        )
        lam_star = self.saturation_load()
        top = fraction_of_saturation * lam_star
        start = np.zeros(self.cells) if include_zero else top / points
        return _linspace_rows(start, top, points)
