"""The closed forms over (cells × loads): the model's one vectorised engine.

:class:`StackedModel` evaluates the paper's closed forms — the Eq. 13/14
stage recursion, the Eq. 15 M/G/1 waits, the Eq. 36-38 concentrator
queues and the per-resource saturation load λ* — for a whole list of
design cells at once.  A :class:`ParameterPlan` packs the cells into
parameter arrays with a leading *cells* axis; every intermediate array is
shaped ``(cells, …)`` or ``(cells, loads)``, so the Python and NumPy call
overhead is paid once per cell set instead of once per cell.
:class:`~repro.core.batch.BatchedModel` is the one-cell view of this
engine, and the scalar :class:`~repro.core.model.AnalyticalModel` stays
the readable oracle.

Contracts
---------
* **scalar oracle** — every term agrees with ``AnalyticalModel.evaluate``
  to float64 round-off (``tests/test_batch.py``, at 1e-9);
* **lane independence** — a cell priced alone is bit-identical to the
  same cell inside any stack (``tests/test_stacked.py``, ``==`` rather
  than ``allclose``);
* **pinned outputs** — ``tests/goldens/model_outputs.json`` pins the
  exact float ``repr`` of saturation maps, breakdowns and utilisations
  (``tools/regen_goldens.py``).

Lane independence holds because every float operation is elementwise, so
each cell's lane computes the same scalar sequence whatever else shares
the stack.  The mechanisms:

* **grouping** — cells are partitioned by structure signature (switch
  arity, class decomposition, ICN2 depth), so within a group every journey
  set has identical layout and the group-constant structure (journey
  dimensions, pmf weights) is built once;
* **shared suffix chains** — journeys end in shared trailing stages, so
  the backward Eq. 13/14 recursion collapses to suffix chains
  (destination → ICN2 → source segments) touching each distinct column
  state once, with temporaries shaped ``(cells, loads)`` instead of
  ``(cells, journeys, loads)``: common-subexpression elimination of the
  scalar per-journey recursion, not a reformulation;
* **masks** — per-cell *control flow* of the scalar code (option
  branches, ``U_i == 0`` and zero-weight skips) becomes ``np.where``
  masks selecting between fully-evaluated branches;
* **replicated termination** — the bracket refinements (saturation
  inversion, knee and budget searches) run per-cell brackets with per-cell
  round/termination state replicating
  :func:`~repro.core.batch.refine_monotone_crossing` decision-for-decision,
  including :func:`numpy.linspace`'s internal ``step == 0`` branch
  (:func:`_linspace_rows` reproduces it per row);
* **fold order** — every accumulation that the scalar code runs as a
  Python-order fold (journey-weight sums, destination-weight averages, the
  Eq. 3 class combination) stays an explicit fold over the same index
  order, never an ``np.sum`` reduction with a different association.

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
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro._util import require
from repro.core.model import AnalyticalModel, TrafficPatternLike
from repro.core.parameters import MessageSpec, ModelOptions, SystemConfig
from repro.core.service_times import ServiceTimes
from repro.core.stages import _LATENCY_CAP
from repro.core.topology_math import journey_length_pmf, mean_journey_links

__all__ = ["ParameterPlan", "StackedModel"]


# ---------------------------------------------------------------------------
# per-row numerical kernels (cells axis leading)
# ---------------------------------------------------------------------------


def _linspace_rows(start: np.ndarray, stop: np.ndarray, num: int) -> np.ndarray:
    """Row-wise ``np.linspace(start[r], stop[r], num)`` — bit-identical.

    ``np.linspace`` with *array* endpoints would take its internal
    ``step == 0`` branch (denormal handling, numpy gh-5437) for **all**
    rows whenever any one row's step is zero, diverging from the scalar
    calls :func:`~repro.core.batch.refine_monotone_crossing` makes.  This
    helper computes both variants and selects per row, so each row
    reproduces its own scalar branch.
    """
    div = num - 1
    base = np.arange(0, num, dtype=np.float64)
    delta = stop - start
    step = delta / div
    normal = base[None, :] * step[:, None]
    denormal = (base / div)[None, :] * delta[:, None]
    grid = np.where((step == 0.0)[:, None], denormal, normal)
    grid = grid + start[:, None]
    grid[:, -1] = stop
    return grid


def _refine_rows(
    lo: np.ndarray,
    hi: np.ndarray,
    crossed: Callable[[np.ndarray, np.ndarray], np.ndarray],
    *,
    rel_tol: float,
    points: int = 33,
    max_rounds: int = 100,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row :func:`~repro.core.batch.refine_monotone_crossing`.

    ``crossed(rows, grid)`` evaluates the monotone condition for the given
    row subset over per-row grids shaped ``(len(rows), points)``.  Every
    row runs the scalar loop's exact decision sequence — the convergence
    test at the top of each round, the ``first == 0`` and no-progress
    breaks, the (never-taken in practice) bracket re-expansion — with rows
    dropping out independently, so each row's final ``(lo, hi)`` matches
    its scalar bracket bit for bit.
    """
    lo = np.array(lo, dtype=np.float64)
    hi = np.array(hi, dtype=np.float64)
    alive = np.ones(lo.size, dtype=bool)
    for _ in range(max_rounds):
        alive &= ~(hi - lo <= rel_tol * hi)
        if not alive.any():
            break
        rows = np.flatnonzero(alive)
        grid = _linspace_rows(lo[rows], hi[rows], points)
        above = crossed(rows, grid)
        has = above.any(axis=1)
        none_r = rows[~has]  # pragma: no cover - callers guarantee crossed(hi)
        if none_r.size:  # pragma: no cover
            lo[none_r] = hi[none_r]
            hi[none_r] = hi[none_r] * 2.0
        first = np.argmax(above, axis=1)
        stop_rows = rows[has & (first == 0)]  # bracket degenerated
        alive[stop_rows] = False
        sel = np.flatnonzero(has & (first != 0))
        r_ok = rows[sel]
        new_lo = grid[sel, first[sel] - 1]
        new_hi = grid[sel, first[sel]]
        no_prog = (new_lo <= lo[r_ok]) & (new_hi >= hi[r_ok])  # float64 floor
        alive[r_ok[no_prog]] = False
        upd = ~no_prog
        lo[r_ok[upd]] = new_lo[upd]
        hi[r_ok[upd]] = new_hi[upd]
    return lo, hi


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
    t_cs: np.ndarray,  # (C,)
    t_cn: np.ndarray,  # (C,)
    depth: int,
    weights: np.ndarray,  # (depth,) journey pmf
    eta_i1: np.ndarray,  # (C, L)
    m_flits: np.ndarray,  # (C,)
) -> np.ndarray:
    """Stacked Eq. 5 average via one shared suffix chain.

    Intra journeys of every length end in the same stages (one ``t_cn``
    stage, then ``t_cs`` stages), so one backward chain serves them all:
    journey *h*'s ``T_0`` is the chain's ``T`` at depth ``2h − 1``.  Per
    journey the float sequence is the scalar per-journey recursion's —
    the sharing is common-subexpression elimination, not a
    reformulation.
    """
    m_cn = (m_flits * t_cn)[:, None]
    m_cs = (m_flits * t_cs)[:, None]
    half_eta = 0.5 * eta_i1
    suffix = np.zeros_like(eta_i1)
    total = np.zeros_like(eta_i1)
    t0_planes: list[np.ndarray] = []
    with np.errstate(invalid="ignore", over="ignore"):
        for step in range(1, 2 * depth):
            t_col, over, suffix = _chain_step(
                m_cn if step == 1 else m_cs, suffix, half_eta
            )
            if step % 2 == 1:  # journey h = (step + 1) / 2 starts here
                t_col[over] = np.inf
                t0_planes.append(t_col)
        for h in range(depth):
            total += weights[h] * t0_planes[h]
    return total


def _mg1_wait_batched(
    rate: np.ndarray, mean_service: np.ndarray, variance: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised :func:`repro.core.queueing.mg1_wait` (Eq. 15).

    Returns ``(wait, utilization, saturated)`` arrays with the scalar
    function's exact semantics: an infinite service time (blown-up upstream
    pipeline) counts as saturation whenever any traffic arrives, and a
    zero-rate queue never waits regardless of its service time.
    """
    finite = np.isfinite(mean_service) & np.isfinite(variance)
    service = np.where(finite, mean_service, 0.0)
    var = np.where(finite, variance, 0.0)
    rho = rate * service
    infinite_service = ~finite & (rate > 0.0)
    saturated = infinite_service | (rho >= 1.0)
    second_moment = service * service + var
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        wait = rate * second_moment / (2.0 * (1.0 - rho))
    wait = np.where(saturated, np.inf, wait)
    wait = np.where(rate == 0.0, 0.0, wait)
    utilization = np.where(infinite_service, np.inf, rho)
    return wait, utilization, saturated


_SCRATCH: dict[tuple[int, int, int, int], dict[str, np.ndarray]] = {}


def _pair_scratch(shape4: tuple[int, int, int, int]) -> dict[str, np.ndarray]:
    """Reusable buffers for :func:`_solve_pair_stacked`, keyed by shape.

    A pair solve needs ~six multi-megabyte temporaries; allocating them
    fresh per call dominates the solve at design-space sizes (hundreds of
    map/unmap cycles per refinement).  Solves are strictly sequential
    within a process (the repo parallelises with processes, not threads)
    and never hold buffer references across calls, so a small shape-keyed
    cache is safe.  The cache is cleared wholesale when it grows past a
    few dozen shapes (refinements shrink the active-cell axis near
    convergence, creating short-lived shapes).
    """
    bufs = _SCRATCH.get(shape4)
    if bufs is None:
        if len(_SCRATCH) >= 32:
            _SCRATCH.clear()
        n_c, d_dst, cells, loads = shape4
        shape3 = (d_dst, cells, loads)
        bufs = {
            "t4": np.empty(shape4),
            "wa4": np.empty(shape4),
            "wb4": np.empty(shape4),
            "o4": np.empty(shape4, dtype=bool),
            "c4": np.empty(shape4, dtype=bool),
            "dst": np.empty(shape3),
            "w3": np.empty(shape3),
            "t3": np.empty(shape3),
            "o3": np.empty(shape3, dtype=bool),
            "c3": np.empty(shape3, dtype=bool),
        }
        _SCRATCH[shape4] = bufs
    return bufs


def _solve_pair_stacked(
    src_cs: np.ndarray,  # (C,)
    i2_cs: np.ndarray,  # (C,)
    dst_cs: np.ndarray,  # (C,)
    dst_cn: np.ndarray,  # (C,)
    d_src: int,
    d_dst: int,
    n_c: int,
    weights: np.ndarray,  # (J,) pmf products in (r, v, l) journey order
    eta_e1: np.ndarray,  # (C, L)
    eta_i2_eff: np.ndarray,  # (C, L)
    m_flits: np.ndarray,  # (C,)
) -> np.ndarray:
    """Stacked Eq. 20 average via shared suffix chains (dst → ICN2 → src).

    An inter-cluster journey's stages read, right to left: one ``dst
    t_cn``, ``v − 1`` dst ``t_cs``, ``2l − 1`` ICN2 ``t_cs`` (the relaxed
    η), ``r`` src ``t_cs``.  Journeys sharing a suffix share the backward
    recursion state exactly, so instead of one recursion per journey the
    solver walks a three-level chain tree — ``d_dst`` dst depths, ×
    ``n_c`` ICN2 depths, × ``d_src`` src depths — touching each distinct
    column state once.  The independent branches are stacked on leading
    axes (``(v, cells, loads)`` for the ICN2 chains, ``(l, v, cells,
    loads)`` for the source chains) so each chain level is a handful of
    large elementwise steps.  Every journey's ``T_0`` and the final
    weighted fold (scalar ``(r, v, l)`` journey order) are those of the
    scalar per-journey recursion.
    """
    cells, loads = eta_e1.shape
    m_src = (m_flits * src_cs)[:, None]
    m_i2 = (m_flits * i2_cs)[:, None]
    m_dst_cs = (m_flits * dst_cs)[:, None]
    m_dst_cn = (m_flits * dst_cn)[:, None]
    half_e1 = 0.5 * eta_e1
    half_i2 = 0.5 * eta_i2_eff
    # Reusable working set (see _pair_scratch): fresh per-op temporaries
    # at these shapes would thrash the allocator; buffers carry no state.
    shape4 = (n_c, d_dst, cells, loads)
    s = _pair_scratch(shape4)
    t_buf, over_buf, clip_buf = s["t4"], s["o4"], s["c4"]
    t3, o3, c3 = s["t3"], s["o3"], s["c3"]
    with np.errstate(invalid="ignore", over="ignore"):
        suffix = np.zeros_like(eta_e1)
        dst_states = s["dst"]
        for v in range(1, d_dst + 1):
            _, _, suffix = _chain_step(
                m_dst_cn if v == 1 else m_dst_cs, suffix, half_e1
            )
            dst_states[v - 1] = suffix
        # ICN2 chains for every v at once: (v, cells, loads); odd chain
        # depths (journeys of l hops end there) seed the source chains.
        i2_a, i2_b = dst_states, s["w3"]
        src_start = s["wa4"]
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
        # Source chains for every (l, v) at once: (l, v, cells, loads).
        # Journey order is r-outermost, so each source depth's (v, l)
        # contributions fold into the total before the next depth — the
        # exact scalar (r, v, l) accumulation order.
        src_suffix = src_start
        w_buf = s["wb4"]
        total = np.zeros_like(eta_e1)
        for r in range(d_src):
            np.add(m_src[None, None], src_suffix, out=t_buf)
            np.greater(t_buf, _LATENCY_CAP, out=over_buf)
            over_any = bool(over_buf.any())
            if r + 1 < d_src:  # the deepest column's W_k is never consumed
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
            w_r = weights[r * d_dst * n_c : (r + 1) * d_dst * n_c].reshape(d_dst, n_c)
            t_buf *= w_r.T[:, :, None, None]
            for v in range(d_dst):
                for l_hops in range(n_c):
                    total += t_buf[l_hops, v]
            src_suffix, w_buf = w_buf, src_suffix
    return total


# ---------------------------------------------------------------------------
# group-constant journey structure (shapes shared by every cell of a group)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _IntraStructure:
    """Journey layout of one class's intra-cluster model (cell-independent)."""

    weights: np.ndarray  # (depth,) journey pmf
    pmf: np.ndarray  # (depth,)
    two_h_minus_1: np.ndarray  # (depth,) = 2·(h − 1), the tail-time slopes
    mean_links: float
    tree_depth: int


@dataclass(frozen=True)
class _PairStructure:
    """Journey layout of one ordered class pair (cell-independent)."""

    weights: np.ndarray  # (J,) journey pmf products (r, v, l order)
    r_minus_1: np.ndarray  # (J,)
    v_minus_1: np.ndarray  # (J,)
    two_l: np.ndarray  # (J,)
    d_src: int
    d_dst: int
    n_c: int
    d_e1: float
    d_i2: float


def _intra_structure(switch_ports: int, depth: int) -> _IntraStructure:
    pmf = journey_length_pmf(switch_ports, depth)
    weights = np.array([float(p) for p in pmf], dtype=np.float64)
    h_values = np.arange(1, depth + 1, dtype=np.float64)
    return _IntraStructure(
        weights=weights,
        pmf=np.asarray(pmf, dtype=np.float64),
        two_h_minus_1=2.0 * (h_values - 1.0),
        mean_links=mean_journey_links(switch_ports, depth),
        tree_depth=depth,
    )


def _pair_structure(
    switch_ports: int, depth_src: int, depth_dst: int, n_c: int
) -> _PairStructure:
    pmf_r = journey_length_pmf(switch_ports, depth_src)
    pmf_v = journey_length_pmf(switch_ports, depth_dst)
    pmf_l = journey_length_pmf(switch_ports, n_c)
    count = depth_src * depth_dst * n_c
    weights = np.empty(count, dtype=np.float64)
    r_m1 = np.empty(count, dtype=np.float64)
    v_m1 = np.empty(count, dtype=np.float64)
    two_l = np.empty(count, dtype=np.float64)
    j = 0
    for r in range(1, depth_src + 1):
        p_r = float(pmf_r[r - 1])
        for v in range(1, depth_dst + 1):
            p_rv = p_r * float(pmf_v[v - 1])
            for l_hops in range(1, n_c + 1):
                weights[j] = p_rv * float(pmf_l[l_hops - 1])
                r_m1[j] = float(r - 1)
                v_m1[j] = float(v - 1)
                two_l[j] = float(2 * l_hops)
                j += 1
    return _PairStructure(
        weights=weights,
        r_minus_1=r_m1,
        v_minus_1=v_m1,
        two_l=two_l,
        d_src=depth_src,
        d_dst=depth_dst,
        n_c=n_c,
        d_e1=mean_journey_links(switch_ports, depth_src),
        d_i2=mean_journey_links(switch_ports, n_c),
    )


# ---------------------------------------------------------------------------
# stacked (per-cell) parameter planes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _StackedIntra:
    """One class's intra-cluster parameters across a group's cells."""

    structure: _IntraStructure
    t_cs: np.ndarray  # (C,) ICN1 switch-stage channel time
    t_cn: np.ndarray  # (C,) ICN1 final-stage channel time
    nodes: np.ndarray  # (C,) N_i (float64, exact)
    u: np.ndarray  # (C,) U_i
    count: np.ndarray  # (C,)
    intra_fraction: np.ndarray  # (C,) 1 − U_i
    eta_divisor: np.ndarray  # (C,) 4 n_i N_i
    tail_time: np.ndarray  # (C,) E_in (Eq. 19)
    min_service: np.ndarray  # (C,) M t_cn


@dataclass(frozen=True)
class _StackedPair:
    """One ordered class pair's parameters across a group's cells."""

    structure: _PairStructure
    src_cs: np.ndarray  # (C,) source ECN1 switch-stage channel time
    i2_cs: np.ndarray  # (C,) ICN2 switch-stage channel time
    dst_cs: np.ndarray  # (C,) destination ECN1 switch-stage channel time
    dst_cn: np.ndarray  # (C,) destination ECN1 final-stage channel time
    external: np.ndarray  # (C,) N_i U_i + N_j U_j (Eq. 22 slope)
    src_nodes: np.ndarray  # (C,)
    src_u: np.ndarray  # (C,)
    eta_e1_divisor: np.ndarray  # (C,)
    eta_i2_divisor: float  # 4 n_c — group constant
    delta: np.ndarray  # (C,) Eq. 28 relaxing factor
    tail_time: np.ndarray  # (C,) E_ex (Eq. 33)
    min_service: np.ndarray  # (C,) M t_cn^{E1(i)}
    conc_service: np.ndarray  # (C,) M t_cs^{I2}
    conc_variance: np.ndarray  # (C,) Eq. 36 variance
    weight: np.ndarray  # (C,) destination weight of j in the Eq. 35/38 averages


@dataclass(frozen=True)
class _CellGroup:
    """All cells sharing one structure signature, packed into arrays."""

    indices: np.ndarray  # positions in the original cell list
    single_cluster: bool
    class_names: tuple[str, ...]
    m_flits: np.ndarray  # (C,)
    total_nodes: np.ndarray  # (C,)
    var_paper: np.ndarray  # (C,) bool: variance_approximation == "paper"
    sqr_per_node: np.ndarray  # (C,) bool: source_queue_rate == "per_node"
    sqr_aggregate: np.ndarray  # (C,) bool: source_queue_rate == "aggregate_pair"
    conc_outgoing: np.ndarray  # (C,) bool: concentrator_rate == "source_outgoing"
    intra: tuple[_StackedIntra, ...]
    pairs: tuple[tuple[_StackedPair, ...], ...]  # () when single_cluster

    @property
    def size(self) -> int:
        return int(self.indices.size)


def _group_signature(model: AnalyticalModel) -> tuple:
    """Cells with equal signatures share every journey-plane shape."""
    classes = model.cluster_classes
    return (
        model.system.switch_ports,
        model.system.num_clusters == 1,
        model.system.icn2_tree_depth,
        tuple((cls.tree_depth, cls.name) for cls in classes),
    )


class ParameterPlan:
    """Packed parameters of a cell list, grouped by structure signature.

    Packing builds one scalar :class:`AnalyticalModel` per cell (only
    the cheap class decomposition and destination weighting), derives
    each group's journey structure once, and fills the per-cell parameter
    planes.  Heterogeneous cluster counts are handled by the grouping
    (cells whose class decompositions differ land in different groups)
    plus the right-aligned journey padding within each group.
    """

    def __init__(self, models: Sequence[AnalyticalModel]) -> None:
        require(len(models) > 0, "ParameterPlan needs at least one cell")
        for model in models:
            require(
                isinstance(model, AnalyticalModel),
                "ParameterPlan cells must be AnalyticalModel instances",
            )
        self.models = tuple(models)
        by_sig: dict[tuple, list[int]] = {}
        for pos, model in enumerate(self.models):
            by_sig.setdefault(_group_signature(model), []).append(pos)
        self.groups: tuple[_CellGroup, ...] = tuple(
            self._build_group(positions) for positions in by_sig.values()
        )

    @property
    def cells(self) -> int:
        return len(self.models)

    # -- packing ---------------------------------------------------------------

    def _build_group(self, positions: list[int]) -> _CellGroup:
        models = [self.models[p] for p in positions]
        rep = models[0]
        ports = rep.system.switch_ports
        classes0 = rep.cluster_classes
        n_cls = len(classes0)
        single = rep.system.num_clusters == 1
        n_c = rep.system.icn2_tree_depth
        m_flits = np.array([m.message.length_flits for m in models], dtype=np.float64)
        total_nodes = np.array([m.system.total_nodes for m in models], dtype=np.float64)
        var_paper = np.array(
            [m.options.variance_approximation == "paper" for m in models], dtype=bool
        )
        sqr_per_node = np.array(
            [m.options.source_queue_rate == "per_node" for m in models], dtype=bool
        )
        sqr_aggregate = np.array(
            [m.options.source_queue_rate == "aggregate_pair" for m in models], dtype=bool
        )
        conc_outgoing = np.array(
            [m.options.concentrator_rate == "source_outgoing" for m in models], dtype=bool
        )

        intra: list[_StackedIntra] = []
        icn1_times: list[tuple[np.ndarray, np.ndarray]] = []
        ecn1_times: list[tuple[np.ndarray, np.ndarray]] = []
        for i in range(n_cls):
            structure = _intra_structure(ports, classes0[i].tree_depth)
            count = len(models)
            t_cs = np.empty(count)
            t_cn = np.empty(count)
            e_cs = np.empty(count)
            e_cn = np.empty(count)
            nodes = np.empty(count)
            u = np.empty(count)
            counts = np.empty(count)
            for c, model in enumerate(models):
                src = model.cluster_classes[i]
                st = ServiceTimes.for_network(src.icn1, model.message, model.options)
                t_cs[c], t_cn[c] = st.t_cs, st.t_cn
                st_e = ServiceTimes.for_network(src.ecn1, model.message, model.options)
                e_cs[c], e_cn[c] = st_e.t_cs, st_e.t_cn
                nodes[c] = src.nodes
                u[c] = src.u
                counts[c] = src.count
            icn1_times.append((t_cs, t_cn))
            ecn1_times.append((e_cs, e_cn))
            terms = structure.pmf[None, :] * (
                structure.two_h_minus_1[None, :] * t_cs[:, None] + t_cn[:, None]
            )
            intra.append(
                _StackedIntra(
                    structure=structure,
                    t_cs=t_cs,
                    t_cn=t_cn,
                    nodes=nodes,
                    u=u,
                    count=counts,
                    intra_fraction=1.0 - u,
                    eta_divisor=4.0 * structure.tree_depth * nodes,
                    tail_time=np.sum(terms, axis=1),
                    min_service=m_flits * t_cn,
                )
            )

        pairs: tuple[tuple[_StackedPair, ...], ...] = ()
        if not single:
            i2_cs = np.array(
                [
                    ServiceTimes.for_network(m.system.icn2, m.message, m.options).t_cs
                    for m in models
                ]
            )
            relax = np.array([m.options.relaxing_factor for m in models], dtype=bool)
            i2_beta = np.array([m.system.icn2.beta for m in models])
            dest_weights = []
            for c, model in enumerate(models):
                rows = [model._destination_weights(i) for i in range(n_cls)]
                for i in range(n_cls):
                    if model.cluster_classes[i].u > 0.0:
                        require(
                            sum(rows[i]) > 0, "destination weights must not all be zero"
                        )
                dest_weights.append(rows)
            structures: dict[tuple[int, int], _PairStructure] = {}
            all_pairs: list[tuple[_StackedPair, ...]] = []
            for i in range(n_cls):
                src_cs, src_cn = ecn1_times[i]
                src_beta = np.array([m.cluster_classes[i].ecn1.beta for m in models])
                with np.errstate(divide="ignore", invalid="ignore"):
                    delta = np.where(relax, i2_beta / src_beta, 1.0)
                row: list[_StackedPair] = []
                for j in range(n_cls):
                    key = (classes0[i].tree_depth, classes0[j].tree_depth)
                    if key not in structures:
                        structures[key] = _pair_structure(ports, key[0], key[1], n_c)
                    structure = structures[key]
                    dst_cs, dst_cn = ecn1_times[j]
                    tails = (
                        structure.r_minus_1[None, :] * src_cs[:, None]
                        + structure.v_minus_1[None, :] * dst_cs[:, None]
                        + structure.two_l[None, :] * i2_cs[:, None]
                    ) + dst_cn[:, None]
                    tail_time = np.zeros(len(models), dtype=np.float64)
                    for jj in range(structure.weights.size):
                        tail_time = tail_time + structure.weights[jj] * tails[:, jj]
                    conc_service = m_flits * i2_cs
                    conc_variance = np.where(
                        var_paper,
                        (conc_service - m_flits * src_cs) ** 2,  # Eq. 36
                        conc_service**2,
                    )
                    row.append(
                        _StackedPair(
                            structure=structure,
                            src_cs=src_cs,
                            i2_cs=i2_cs,
                            dst_cs=dst_cs,
                            dst_cn=dst_cn,
                            external=intra[i].nodes * intra[i].u
                            + intra[j].nodes * intra[j].u,
                            src_nodes=intra[i].nodes,
                            src_u=intra[i].u,
                            eta_e1_divisor=4.0 * classes0[i].tree_depth * intra[i].nodes,
                            eta_i2_divisor=4.0 * n_c,
                            delta=delta,
                            tail_time=tail_time,
                            min_service=m_flits * src_cn,
                            conc_service=conc_service,
                            conc_variance=conc_variance,
                            weight=np.array(
                                [float(dest_weights[c][i][j]) for c in range(len(models))]
                            ),
                        )
                    )
                all_pairs.append(tuple(row))
            pairs = tuple(all_pairs)

        return _CellGroup(
            indices=np.asarray(positions, dtype=np.intp),
            single_cluster=single,
            class_names=tuple(cls.name for cls in classes0),
            m_flits=m_flits,
            total_nodes=total_nodes,
            var_paper=var_paper,
            sqr_per_node=sqr_per_node,
            sqr_aggregate=sqr_aggregate,
            conc_outgoing=conc_outgoing,
            intra=tuple(intra),
            pairs=pairs,
        )


def _take(array: np.ndarray, rows: "np.ndarray | None") -> np.ndarray:
    return array if rows is None else array[rows]


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
        self._binding: "list[str] | None" = None

    @classmethod
    def from_specs(cls, specs: Sequence) -> "StackedModel":
        """Stack scenario-spec-like objects (``system/message/options/pattern``)."""
        return cls([(s.system, s.message, s.options, s.pattern) for s in specs])

    @property
    def cells(self) -> int:
        return self.plan.cells

    # -- rates (the single source for evaluation AND inversion) ----------------

    def _intra_rates(
        self, group: _CellGroup, i: int, rows: "np.ndarray | None", loads: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Eqs. 7–10: ``λ_I1`` and ``η_I1`` with the cells axis leading."""
        plan = group.intra[i]
        lambda_i1 = (
            _take(plan.nodes, rows)[:, None] * loads
        ) * _take(plan.intra_fraction, rows)[:, None]
        eta_i1 = (
            lambda_i1 * plan.structure.mean_links
        ) / _take(plan.eta_divisor, rows)[:, None]
        return lambda_i1, eta_i1

    def _pair_rates(
        self, group: _CellGroup, i: int, j: int, rows: "np.ndarray | None", loads: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Eqs. 22–28: ``λ_E1, λ_I2, η_E1, η_I2, η_I2·δ`` stacked."""
        plan = group.pairs[i][j]
        lambda_e1 = loads * _take(plan.external, rows)[:, None]
        lambda_i2 = 0.5 * lambda_e1
        eta_e1 = (lambda_e1 * plan.structure.d_e1) / _take(plan.eta_e1_divisor, rows)[
            :, None
        ]
        eta_i2 = (lambda_i2 * plan.structure.d_i2) / plan.eta_i2_divisor
        eta_i2_eff = eta_i2 * _take(plan.delta, rows)[:, None]
        return lambda_e1, lambda_i2, eta_e1, eta_i2, eta_i2_eff

    def _intra_source_rate(
        self,
        group: _CellGroup,
        i: int,
        rows: "np.ndarray | None",
        loads: np.ndarray,
        lambda_i1: np.ndarray,
    ) -> np.ndarray:
        """Eq. 18 source-queue rate, option branch as a per-cell mask."""
        plan = group.intra[i]
        return np.where(
            _take(group.sqr_per_node, rows)[:, None],
            loads * _take(plan.intra_fraction, rows)[:, None],
            lambda_i1,
        )

    def _pair_source_rate(
        self,
        group: _CellGroup,
        i: int,
        rows: "np.ndarray | None",
        loads: np.ndarray,
        lambda_e1: np.ndarray,
    ) -> np.ndarray:
        """Eq. 31 source-queue rate, option branch as a per-cell mask."""
        plan = group.pairs[i][0]
        return np.where(
            _take(group.sqr_aggregate, rows)[:, None],
            lambda_e1,
            loads * _take(plan.src_u, rows)[:, None],
        )

    def _concentrator_rate(
        self,
        group: _CellGroup,
        i: int,
        j: int,
        rows: "np.ndarray | None",
        loads: np.ndarray,
        lambda_e1: np.ndarray,
    ) -> np.ndarray:
        """Eq. 37 concentrator rate, option branch as a per-cell mask."""
        plan = group.pairs[i][j]
        return np.where(
            _take(group.conc_outgoing, rows)[:, None],
            (loads * _take(plan.src_nodes, rows)[:, None])
            * _take(plan.src_u, rows)[:, None],
            0.5 * lambda_e1,
        )

    # -- journey latencies ------------------------------------------------------

    def _intra_latency(
        self, group: _CellGroup, i: int, rows: "np.ndarray | None", eta_i1: np.ndarray
    ) -> np.ndarray:
        plan = group.intra[i]
        return _solve_intra_stacked(
            _take(plan.t_cs, rows),
            _take(plan.t_cn, rows),
            plan.structure.tree_depth,
            plan.structure.weights,
            eta_i1,
            _take(group.m_flits, rows),
        )

    def _pair_latency(
        self,
        group: _CellGroup,
        i: int,
        j: int,
        rows: "np.ndarray | None",
        eta_e1: np.ndarray,
        eta_i2_eff: np.ndarray,
    ) -> np.ndarray:
        plan = group.pairs[i][j]
        return _solve_pair_stacked(
            _take(plan.src_cs, rows),
            _take(plan.i2_cs, rows),
            _take(plan.dst_cs, rows),
            _take(plan.dst_cn, rows),
            plan.structure.d_src,
            plan.structure.d_dst,
            plan.structure.n_c,
            plan.structure.weights,
            eta_e1,
            eta_i2_eff,
            _take(group.m_flits, rows),
        )

    # -- per-term planes (Eqs. 1, 7–39, stacked) --------------------------------

    def _source_queue_terms(
        self,
        group: _CellGroup,
        plan: "_StackedIntra | _StackedPair",
        rows: "np.ndarray | None",
        source_rate: np.ndarray,
        network: np.ndarray,
    ) -> dict:
        """Eqs. 15–19 / 31–33: the source queue in front of a journey set.

        Its service time is the journeys' mean network latency, with the
        Eq. 17 variance; the total adds the wait and the tail time.
        """
        with np.errstate(invalid="ignore", over="ignore"):
            variance = np.where(
                _take(group.var_paper, rows)[:, None],
                (network - _take(plan.min_service, rows)[:, None]) ** 2,  # Eq. 17
                network**2,
            )
        wait, utilization, saturated = _mg1_wait_batched(source_rate, network, variance)
        tail_time = _take(plan.tail_time, rows)
        return {
            "wait": wait,
            "network_latency": network,
            "tail_time": tail_time,
            "total": wait + network + tail_time[:, None],
            "utilization": utilization,
            "saturated": saturated,
        }

    def _intra_terms(
        self, group: _CellGroup, i: int, rows: "np.ndarray | None", loads: np.ndarray
    ) -> dict:
        """Eqs. 7–19 for one class: every plane of its ``IntraClusterLatency``."""
        lambda_i1, eta_i1 = self._intra_rates(group, i, rows, loads)
        network = self._intra_latency(group, i, rows, eta_i1)
        source_rate = self._intra_source_rate(group, i, rows, loads, lambda_i1)
        return {
            **self._source_queue_terms(group, group.intra[i], rows, source_rate, network),
            "lambda_i1": lambda_i1,
            "eta_i1": eta_i1,
        }

    def _pair_terms(
        self, group: _CellGroup, i: int, j: int, rows: "np.ndarray | None", loads: np.ndarray
    ) -> dict:
        """Eqs. 20–38 for one ordered class pair: its ``InterPairLatency``
        planes plus the Eqs. 36–37 concentrator queue."""
        plan = group.pairs[i][j]
        lambda_e1, lambda_i2, eta_e1, eta_i2, eta_i2_eff = self._pair_rates(
            group, i, j, rows, loads
        )
        network = self._pair_latency(group, i, j, rows, eta_e1, eta_i2_eff)
        source_rate = self._pair_source_rate(group, i, rows, loads, lambda_e1)
        conc_rate = self._concentrator_rate(group, i, j, rows, loads, lambda_e1)
        ones = np.ones_like(loads)
        conc_wait, conc_utilization, conc_saturated = _mg1_wait_batched(
            conc_rate,
            ones * _take(plan.conc_service, rows)[:, None],
            ones * _take(plan.conc_variance, rows)[:, None],
        )
        return {
            **self._source_queue_terms(group, plan, rows, source_rate, network),
            "lambda_e1": lambda_e1,
            "lambda_i2": lambda_i2,
            "eta_e1": eta_e1,
            "eta_i2": eta_i2,
            "conc_utilization": conc_utilization,
            "conc_pair_wait": 2.0 * conc_wait,  # Eq. 38 summand (2 inf stays inf)
            "conc_saturated": conc_saturated,
        }

    def _class_terms(
        self,
        group: _CellGroup,
        rows: "np.ndarray | None",
        loads: np.ndarray,
        *,
        keep_pairs: bool = False,
    ) -> Iterator[dict]:
        """Yield each class's Eq. 1/35/38/39 planes, in class order.

        Mirrors the class loop of ``AnalyticalModel.evaluate``; the
        per-cell ``U_i == 0`` / zero-weight control-flow skips of the
        scalar path become post-hoc ``np.where`` selections, so a masked
        cell's lanes never leak the ``0 · ∞`` artifacts of branches the
        scalar code would not have executed.  With *keep_pairs* every
        pair's term planes ride along under ``"pairs"``, with its
        destination ``weight`` and ``relaxing_factor`` (the breakdown
        path); otherwise each pair's planes are dropped once folded.
        """
        for i in range(len(group.intra)):
            plan = group.intra[i]
            intra = self._intra_terms(group, i, rows, loads)
            inter_network = np.zeros_like(loads)
            conc_wait = np.zeros_like(loads)
            pair_saturated = np.zeros(loads.shape, dtype=bool)
            pairs: list[dict] = []
            u = _take(plan.u, rows)
            active = (u > 0.0) & (not group.single_cluster)
            if not group.single_cluster and bool(active.any()):
                total_weight = np.zeros(u.shape, dtype=np.float64)
                for j in range(len(group.intra)):
                    pair = self._pair_terms(group, i, j, rows, loads)
                    w = _take(group.pairs[i][j].weight, rows)
                    if keep_pairs:
                        delta = _take(group.pairs[i][j].delta, rows)
                        pairs.append({**pair, "weight": w, "relaxing_factor": delta})
                    with np.errstate(invalid="ignore", over="ignore"):
                        inter_network = inter_network + np.where(
                            (w > 0)[:, None], w[:, None] * pair["total"], 0.0
                        )
                        conc_wait = conc_wait + np.where(
                            (w > 0)[:, None], w[:, None] * pair["conc_pair_wait"], 0.0
                        )
                    pair_saturated = pair_saturated | (
                        (w > 0)[:, None] & (pair["saturated"] | pair["conc_saturated"])
                    )
                    total_weight = total_weight + w
                with np.errstate(divide="ignore", invalid="ignore"):
                    inter_network = np.where(
                        active[:, None], inter_network / total_weight[:, None], 0.0
                    )
                    conc_wait = np.where(
                        active[:, None], conc_wait / total_weight[:, None], 0.0
                    )
                pair_saturated = pair_saturated & active[:, None]
            outward = inter_network + conc_wait  # Eq. 39
            with np.errstate(invalid="ignore", over="ignore"):
                mean = (
                    _take(plan.intra_fraction, rows)[:, None] * intra["total"]
                    + u[:, None] * outward
                )  # Eq. 1
            yield {
                "intra": intra,
                "pairs": pairs,
                "inter_network": inter_network,
                "conc_wait": conc_wait,
                "outward": outward,
                "mean": mean,
                "saturated": intra["saturated"] | pair_saturated,
            }

    def _fold_latency(
        self,
        group: _CellGroup,
        rows: "np.ndarray | None",
        loads: np.ndarray,
        classes: Iterable[dict],
    ) -> np.ndarray:
        """Eq. 3: node-weighted mean of the class means, ``inf`` if saturated."""
        latency = np.zeros_like(loads)
        any_saturated = np.zeros(loads.shape, dtype=bool)
        for plan, terms in zip(group.intra, classes):
            latency = latency + (
                terms["mean"] * _take(plan.nodes, rows)[:, None]
            ) * _take(plan.count, rows)[:, None]
            any_saturated = any_saturated | terms["saturated"]
        latency = latency / _take(group.total_nodes, rows)[:, None]
        return np.where(any_saturated, np.inf, latency)

    def _group_latencies(
        self, group: _CellGroup, rows: "np.ndarray | None", loads: np.ndarray
    ) -> np.ndarray:
        """Mean latency over per-cell load rows for one group (latency only)."""
        return self._fold_latency(group, rows, loads, self._class_terms(group, rows, loads))

    # -- public evaluation ------------------------------------------------------

    def _as_rows(self, loads: "np.ndarray | Sequence[float]") -> np.ndarray:
        """Validated ``(cells, loads)`` rows from one shared grid or per-cell rows.

        The engine's one load check: non-empty, non-negative and finite.
        """
        loads_arr = np.asarray(loads, dtype=np.float64)
        if loads_arr.ndim == 1:
            loads_arr = np.broadcast_to(loads_arr, (self.cells, loads_arr.size))
        require(
            loads_arr.ndim == 2 and loads_arr.shape[0] == self.cells and loads_arr.size > 0,
            "loads must be a non-empty (loads,) or (cells, loads) array",
        )
        require(bool(np.all(loads_arr >= 0)), "loads must be non-negative")
        require(bool(np.all(np.isfinite(loads_arr))), "loads must be finite")
        return loads_arr

    def evaluate_latencies(self, loads: "np.ndarray | Sequence[float]") -> np.ndarray:
        """Mean latency at per-cell load rows — shape ``(cells, loads)``.

        *loads* is either one shared grid ``(loads,)`` or per-cell rows
        ``(cells, loads)``.
        """
        loads_arr = self._as_rows(loads)
        out = np.empty_like(loads_arr)
        for group in self.plan.groups:
            out[group.indices] = self._group_latencies(
                group, None, np.ascontiguousarray(loads_arr[group.indices])
            )
        return out

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
            classes = list(self._class_terms(group, None, group_loads, keep_pairs=True))
            latency = self._fold_latency(group, None, group_loads, classes)
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
        for group in self.plan.groups:
            group_loads = np.ascontiguousarray(loads_arr[group.indices])
            m_flits = group.m_flits[:, None]
            planes: list[tuple[str, str, np.ndarray]] = []
            for i, name in enumerate(group.class_names):
                intra = self._intra_terms(group, i, None, group_loads)
                icn1_channels = intra["eta_i1"] * m_flits * group.intra[i].t_cs[:, None]
                planes += [
                    (f"{name}:icn1-source-queue", "source-queue", intra["utilization"]),
                    (f"{name}:icn1-channels", "channel", icn1_channels),
                ]
                if group.single_cluster:
                    continue
                for j, dst in enumerate(group.class_names):
                    plan = group.pairs[i][j]
                    pair = self._pair_terms(group, i, j, None, group_loads)
                    pair_name = f"{name}->{dst}"
                    planes += [
                        (f"{pair_name}:ecn1-source-queue", "source-queue", pair["utilization"]),
                        (f"{pair_name}:concentrator", "concentrator", pair["conc_utilization"]),
                        (
                            f"{pair_name}:ecn1-channels",
                            "channel",
                            pair["eta_e1"] * m_flits * plan.src_cs[:, None],
                        ),
                        (
                            f"{pair_name}:icn2-channels",
                            "channel",
                            pair["eta_i2"] * m_flits * plan.i2_cs[:, None],
                        ),
                    ]
            for c, pos in enumerate(group.indices):
                out[pos] = [(name, kind, plane[c]) for name, kind, plane in planes]
        return out

    def zero_load_latencies(self) -> np.ndarray:
        """Per-cell latency floor (λ_g → 0), shape ``(cells,)``."""
        return self.evaluate_latencies(np.zeros((self.cells, 1)))[:, 0]

    # -- per-resource saturation (stacked inversion) ----------------------------

    def _source_queue_saturation_rows(
        self,
        size: int,
        include: np.ndarray,
        rate_of: Callable[[np.ndarray, np.ndarray], np.ndarray],
        latency_of: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ) -> np.ndarray:
        """Per-cell λ* solving ``rate(λ) · T(λ) = 1`` for one source queue.

        ``rate`` is the queue's arrival rate (linear in ``λ_g``, shared
        with the evaluation path) and ``T`` the monotone non-decreasing
        latency of the queue's own journey set, so the root is unique and
        bounded above by the linearised ``1 / (rate'(0) · T(0))``.  Each
        refinement round evaluates one 33-point grid of the queue's own
        journey recursion (not the whole model) per cell, down to 1e-13
        relative width.  Excluded cells and zero-rate queues (which can
        never saturate) get ``inf``.  ``rate_of``/``latency_of`` take
        ``(rows, loads)`` with *rows* indexing the group's cells.
        """
        out = np.full(size, np.inf)
        rows_all = np.flatnonzero(include)
        if rows_all.size == 0:
            return out
        slope = rate_of(rows_all, np.ones((rows_all.size, 1)))[:, 0]
        inc = slope > 0.0
        rows = rows_all[inc]
        if rows.size == 0:
            return out
        slope = slope[inc]
        zero_latency = latency_of(rows, np.zeros((rows.size, 1)))[:, 0]
        require(
            bool(np.all(np.isfinite(zero_latency) & (zero_latency > 0.0))),
            "zero-load pipeline latency must be positive",
        )

        def crossed(sub: np.ndarray, grid: np.ndarray) -> np.ndarray:
            sub_rows = rows[sub]
            t = latency_of(sub_rows, grid)
            with np.errstate(invalid="ignore", over="ignore"):
                rho = np.where(np.isfinite(t), rate_of(sub_rows, grid) * t, np.inf)
            return rho >= 1.0

        # Same tiny headroom as the scalar path: ρ(hi) >= 1 even when the
        # pipeline latency is load-independent and the bound is the root.
        upper = (1.0 / (slope * zero_latency)) * (1.0 + 1e-9)
        _, hi = _refine_rows(
            np.zeros(rows.size), upper, crossed, rel_tol=1e-13, points=33
        )
        out[rows] = hi
        return out

    def _group_saturation(self, group: _CellGroup) -> tuple[list[str], np.ndarray]:
        """Per-resource λ* planes, resources in the scalar insertion order."""
        size = group.size
        names: list[str] = []
        values: list[np.ndarray] = []
        include_all = np.ones(size, dtype=bool)
        for i, name in enumerate(group.class_names):
            def intra_rate(rows: np.ndarray, loads: np.ndarray, *, _i: int = i) -> np.ndarray:
                lambda_i1, _ = self._intra_rates(group, _i, rows, loads)
                return self._intra_source_rate(group, _i, rows, loads, lambda_i1)

            def intra_latency(rows: np.ndarray, loads: np.ndarray, *, _i: int = i) -> np.ndarray:
                _, eta_i1 = self._intra_rates(group, _i, rows, loads)
                return self._intra_latency(group, _i, rows, eta_i1)

            names.append(f"{name}:icn1-source-queue")
            values.append(
                self._source_queue_saturation_rows(
                    size, include_all, intra_rate, intra_latency
                )
            )
            if group.single_cluster:
                continue
            class_active = group.intra[i].u > 0.0
            for j, dst_name in enumerate(group.class_names):
                plan = group.pairs[i][j]
                pair_include = class_active & (plan.weight > 0.0)
                pair_name = f"{name}->{dst_name}"

                def pair_rate(
                    rows: np.ndarray, loads: np.ndarray, *, _i: int = i, _j: int = j
                ) -> np.ndarray:
                    external = _take(group.pairs[_i][_j].external, rows)
                    return self._pair_source_rate(
                        group, _i, rows, loads, loads * external[:, None]
                    )

                def pair_latency(
                    rows: np.ndarray, loads: np.ndarray, *, _i: int = i, _j: int = j
                ) -> np.ndarray:
                    _, _, eta_e1, _, eta_i2_eff = self._pair_rates(
                        group, _i, _j, rows, loads
                    )
                    return self._pair_latency(group, _i, _j, rows, eta_e1, eta_i2_eff)

                names.append(f"{pair_name}:ecn1-source-queue")
                values.append(
                    self._source_queue_saturation_rows(
                        size, pair_include, pair_rate, pair_latency
                    )
                )
                # Constant service time ⇒ closed form, as in the scalar path.
                ones = np.ones((size, 1))
                conc_slope = self._concentrator_rate(
                    group, i, j, None, ones, ones * plan.external[:, None]
                )[:, 0]
                conc = np.full(size, np.inf)
                inc = pair_include & (conc_slope > 0.0)
                conc[inc] = 1.0 / (conc_slope[inc] * plan.conc_service[inc])
                names.append(f"{pair_name}:concentrator")
                values.append(conc)
        return names, np.stack(values, axis=0)

    def saturation_loads(self) -> list[dict[str, float]]:
        """Per-cell ``{resource: λ*}`` maps, keyed like ``ModelResult.saturated_resources``.

        Concentrator entries are the exact closed forms, source-queue
        entries the per-resource inversion (see the module docstring).
        Only resources that can saturate the cell are listed: zero-rate
        queues, zero-weight pairs and ``U_i == 0`` classes are omitted,
        mirroring the saturation scope of ``AnalyticalModel.evaluate``.
        """
        if self._saturation is None:
            per_cell: list[dict[str, float]] = [dict() for _ in range(self.cells)]
            binding: list[str] = [""] * self.cells
            for group in self.plan.groups:
                names, values = self._group_saturation(group)
                finite = np.isfinite(values)
                with np.errstate(invalid="ignore"):
                    argmin = np.argmin(values, axis=0)
                for c, pos in enumerate(group.indices):
                    cell_map = {
                        names[r]: float(values[r, c])
                        for r in range(len(names))
                        if finite[r, c]
                    }
                    per_cell[pos] = cell_map
                    if cell_map:
                        binding[pos] = names[int(argmin[c])]
            self._saturation = per_cell
            self._binding = binding
        return [dict(m) for m in self._saturation]

    def saturation_load(self) -> np.ndarray:
        """Per-cell smallest saturating load, shape ``(cells,)``."""
        table = self.saturation_loads()
        out = np.empty(self.cells)
        for idx, cell_map in enumerate(table):
            lam = min(cell_map.values(), default=float("inf"))
            require(
                np.isfinite(lam),
                "could not find a saturating load (system unsaturable?)",
            )
            out[idx] = lam
        return out

    def binding_resources(self) -> list[str]:
        """Per-cell binding resource names (first minimum, scalar order)."""
        self.saturation_loads()
        assert self._binding is not None
        require("" not in self._binding, "no saturable resources in this system")
        return list(self._binding)

    # -- knee and capacity searches ---------------------------------------------

    def knee_loads(self, knee_threshold_factor: float) -> np.ndarray:
        """Per-cell load where latency reaches ``factor ×`` its floor.

        Mirrors the per-cell knee reference of ``tests/test_stacked.py``
        (``model_knee``): the same bracket ``[0, λ*·(1 − 1e-9)]``,
        threshold test and 1e-6 relative refinement.
        """
        lam_star = self.saturation_load()
        zero = self.zero_load_latencies()
        threshold = knee_threshold_factor * zero
        out = np.empty(self.cells)
        for group in self.plan.groups:
            idx = group.indices
            thr = threshold[idx]

            def beyond(sub: np.ndarray, grid: np.ndarray) -> np.ndarray:
                latencies = self._group_latencies(group, sub, grid)
                return ~(np.isfinite(latencies) & (latencies < thr[sub][:, None]))

            lo, _ = _refine_rows(
                np.zeros(group.size),
                lam_star[idx] * (1.0 - 1e-9),
                beyond,
                rel_tol=1e-6,
            )
            out[idx] = lo
        return out

    def loads_at_budget(self, budgets: np.ndarray) -> np.ndarray:
        """Per-cell ``max_load_for_latency(...).achieved``; NaN budgets pass through.

        Mirrors :func:`repro.analysis.capacity.max_load_for_latency` with
        its default ``rel_tol=1e-4``: infeasible budgets (below the
        zero-load floor) achieve 0, budgets met at ``0.9999 λ*`` achieve
        that bound, the rest refine the budget crossing.
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
        lam_star = self.saturation_load()
        zero = self.zero_load_latencies()
        infeasible = has_budget & (budgets < zero)
        out[infeasible] = 0.0
        hi = lam_star * 0.9999
        hi_lat = self.evaluate_latencies(hi[:, None])[:, 0]
        met = has_budget & ~infeasible & np.isfinite(hi_lat) & (hi_lat <= budgets)
        out[met] = hi[met]
        search = has_budget & ~infeasible & ~met
        for group in self.plan.groups:
            idx = group.indices
            rows = np.flatnonzero(search[idx])
            if rows.size == 0:
                continue
            limits = budgets[idx]

            def beyond(sub: np.ndarray, grid: np.ndarray) -> np.ndarray:
                sub_rows = rows[sub]
                latencies = self._group_latencies(group, sub_rows, grid)
                return ~(
                    np.isfinite(latencies) & (latencies <= limits[sub_rows][:, None])
                )

            lo, _ = _refine_rows(
                np.zeros(rows.size), hi[idx][rows], beyond, rel_tol=1e-4
            )
            out[idx[rows]] = lo
        return out

    def auto_load_grids(
        self,
        *,
        points: int = 12,
        fraction_of_saturation: float = 0.95,
        include_zero: bool = False,
    ) -> np.ndarray:
        """Per-cell :func:`repro.core.sweep.auto_load_grid` rows, ``(cells, points)``."""
        require(points >= 2, "points must be >= 2")
        require(
            0.0 < fraction_of_saturation < 1.0, "fraction_of_saturation must be in (0, 1)"
        )
        lam_star = self.saturation_load()
        top = fraction_of_saturation * lam_star
        start = np.zeros(self.cells) if include_zero else top / points
        return _linspace_rows(start, top, points)
