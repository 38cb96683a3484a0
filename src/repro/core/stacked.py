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
  arity, class decomposition, ICN2 depth), so within a group every cell
  has the same classes in the same order.  The Eq. 1/3/35/38 folds run
  per group, over batches of source classes; the searches run per stack,
  each one refinement over the searched rows of every group, whose probe
  evaluates each group's live rows in turn;
* **blocks** — journey depth is per-row data.  The rows of the whole
  stack live in journey families: one intra block for every class of
  every depth, and one pair block per ICN2 depth ``n_c`` for every ordered
  class pair, each the concatenation, shape by shape, of its journey
  shapes' rows (an intra shape is a ``(switch_ports, tree_depth)``, a pair
  shape a ``(switch_ports, d_src, d_dst, n_c)``; within a shape, group by
  group, a group's pairs member-major: row ``first + p · C + c`` is member
  ``p`` in cell ``c``).  Each row carries its depths, pmf weights and mean
  journey links, so one solver call prices rows of several depths and
  shapes: it pads its suffix chains to its own deepest ``d_src``,
  ``d_dst`` and tree depth and sets every padded term to exactly 0.0
  before the fold — never multiplying it by its zero weight, since ``0 ·
  inf`` is NaN — so each valid lane keeps its scalar float sequence
  (``x + 0.0 = x``).  One chunk rule (:func:`_solve_calls`) cuts a call's
  rows, in evaluations and searches and for both families alike: rows of
  several shapes share a call only while its padded scratch stays within
  :data:`_SOLVE_ELEMENTS`, the engine's one working-set budget, and a
  shape that alone exceeds it is cut into calls of as many rows as the
  budget holds (at least one).  A one-cell evaluation or saturation probe
  of ``544`` makes one intra and one pair call, a large cell group a call
  or two per shape;
* **shared suffix chains** — journeys end in shared trailing stages, so
  the backward Eq. 13/14 recursion collapses to suffix chains
  (destination → ICN2 → source segments) touching each distinct column
  state once, with temporaries shaped ``(cells, loads)`` instead of
  ``(cells, journeys, loads)``: common-subexpression elimination of the
  scalar per-journey recursion, not a reformulation;
* **masks** — per-cell *control flow* of the scalar code (option
  branches, ``U_i == 0`` and zero-weight skips) becomes ``np.where``
  masks selecting between fully-evaluated branches;
* **predicted probes** — the bracket refinements (saturation inversion,
  knee and budget searches) run per-cell brackets with per-cell
  round/termination state (:func:`_refine_rows`), so a cell's bracket
  never depends on when its neighbours converge.  Each round keeps the
  cell of the row's 33-point grid that holds its first crossed load.
  After its first whole grid, a row predicts its crossing from scores in
  which the paper's poles are linear and evaluates, besides its current
  round (the whole grid, or in refinements of at least
  :data:`_WINDOW_MIN_ROWS` rows a window), only the pair of loads around
  the predicted crossing in each later round.  A predicted round counts
  only when it reads not crossed, then crossed, at grid indices ``k − 1,
  k``: ``k`` is then the round's first crossed index, so the round update
  is the full grid's, and one probe call decides several rounds.  That
  needs the verdict to be weakly monotone in the load *in floating
  point*, and it is: every step from load to verdict is a correctly
  rounded ``+``, ``×`` or ``÷`` on non-negative operands that grow with
  the load — the rates, linear in ``λ_g``; the Eq. 13/14 recursion; the
  Eq. 15 wait, whose ``1 − ρ`` shrinks; the Eq. 36-38 concentrator terms
  — the relaxing factor ``δ`` is a constant multiplier, every clamp goes
  to ``inf``, and :func:`_linspace_rows` is non-decreasing in its index.
  The scalar one-bracket loop the refinement replicates decision for
  decision is kept as a test oracle (``tests/test_stacked.py``), as is
  :func:`numpy.linspace`, whose internal ``step == 0`` branch
  :func:`_linspace_rows` reproduces per row.  A refinement may also start
  from a *prior*: samples of its rows from earlier evaluations, such as
  each cell's floor at load 0 and the latencies an earlier knee or
  budget search on the same stack evaluated, judged against this
  search's own limit.  A row they give an estimate opens with a
  predicted plan instead of a whole grid, so the budget search after the
  knee evaluates only the loads that verify it.  A row with no sample
  inside its bracket that did not cross opens, in refinements of at
  least :data:`_WINDOW_MIN_ROWS` rows, with a *pole window*: the top of
  its first grid, from a bound below which the mean latency's pole at λ*
  keeps it under its limit, so the knee no longer evaluates whole first
  grids.  Prior and bound only choose which loads a probe evaluates: a
  round counts only on the verdicts the probe itself returns, by the
  argument above, so neither can move a bracket;
* **fold order** — every accumulation that the scalar code runs as a
  Python-order fold (journey-weight sums, destination-weight averages, the
  Eq. 3 class combination) stays an explicit fold over the same index
  order, never an ``np.sum`` reduction with a different association.  The
  Eq. 35/38 fold over destinations is one elementwise step per ``j``, in
  the scalar ``j`` order, over a batch of source classes: as many classes
  as fit :data:`_SOLVE_ELEMENTS` pair row-loads (at least one), so a group
  never holds more pair planes at once than one batch.

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
from dataclasses import dataclass
from typing import Any, NamedTuple

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


def _grid_points(
    start: np.ndarray, stop: np.ndarray, index: np.ndarray, num: int
) -> np.ndarray:
    """Points ``index`` of ``np.linspace(start, stop, num)``, elementwise, bit for bit.

    ``index · step + start``, or ``(index / (num − 1)) · delta + start``
    where ``step`` is 0 (numpy's denormal branch, gh-5437), and ``stop``
    at the last index; the arguments broadcast against each other.
    ``np.linspace`` with *array* endpoints would take its ``step == 0``
    branch for **all** rows whenever any one row's step is zero, diverging
    from the scalar call of a row refined alone; here each element takes
    its own row's branch.
    """
    div = num - 1
    delta = stop - start
    step = delta / div
    base = np.asarray(index, dtype=np.float64)
    value = base * step
    if np.count_nonzero(step) < step.size:
        value = np.where(step == 0.0, (base / div) * delta, value)
    value += start
    np.copyto(value, stop, where=index == div)
    return value


def _linspace_rows(start: np.ndarray, stop: np.ndarray, num: int) -> np.ndarray:
    """Row-wise ``np.linspace(start[r], stop[r], num)`` — bit-identical."""
    return _grid_points(start[:, None], stop[:, None], np.arange(num), num)


#: Refinements of at least this many rows open a predicted plan with a
#: window of :data:`_WINDOW` grid indices around the estimate; smaller ones
#: open it with the round's whole grid, which decides that round whatever
#: the estimate, so their misses never cost a call.  A probe call of a few
#: rows costs its call overhead at any width, while a large one pays per
#: row-load: on a 2-core host a one-row latency evaluation of ``544`` took
#: 2.4-3.7 ms at 1 load and at 33 alike, a 90-row one 2.5 ms at 1 load and
#: 10.1 ms at 33.  The count is the refinement's rows, whatever cell groups
#: they sit in, while a knee or budget probe call over rows of G groups
#: costs G group evaluations.
_WINDOW_MIN_ROWS = 16

#: Grid indices the first round of a windowed plan evaluates around the
#: estimate's cell; every later round evaluates its straddling pair.
_WINDOW = 4


def _first_at_or_above(
    start: np.ndarray, stop: np.ndarray, guess: np.ndarray, num: int
) -> tuple[np.ndarray, np.ndarray]:
    """First grid index at or above *guess* per row, with the cell it closes.

    The grid is ``_linspace_rows(start, stop, num)``, which is
    non-decreasing along each row, and ``start < guess <= stop``.  The
    index is first estimated by division, then stepped until grid point
    ``first − 1`` is below *guess* and grid point ``first`` is not.
    Returns ``first`` and the grid points ``[first − 1, first]``, shaped
    ``(2, rows)`` — :func:`_grid_points`' arithmetic, inlined.
    """
    div = num - 1
    delta = stop - start
    step = delta / div
    first = np.ceil((guess - start) / delta * div)
    np.minimum(np.maximum(first, 1.0, out=first), div, out=first)
    denormal = np.count_nonzero(step) < step.size
    while True:
        index = np.stack((first - 1.0, first))
        cell = index * step
        if denormal:
            cell = np.where(step == 0.0, (index / div) * delta, cell)
        cell += start
        np.copyto(cell[1], stop, where=first == div)
        down = cell[0] >= guess
        up = cell[1] < guess
        if not np.count_nonzero(down | up):
            return first.astype(np.int64), cell
        first = first - down + (up & ~down)  # a row only ever steps one way


def _pole_window(
    lo: np.ndarray, hi: np.ndarray, bottom: np.ndarray, top: np.ndarray, points: int
) -> tuple[int, np.ndarray]:
    """The pole windows of rows: one width and each row's first grid index.

    A row's window holds the grid indices of ``_linspace_rows(lo, hi,
    points)`` from the last below *bottom* (0 where *bottom* is at or
    below ``lo`` or NaN; ``points − 1``, ``hi`` itself, where it is above
    ``hi``) to the first at or above *top* (``hi`` where *top* is above
    it).  The rows share the widest such window, each moved down from its
    own start only as far as the grid's end makes it.
    """
    inside = (bottom > lo) & (bottom <= hi)
    first, _ = _first_at_or_above(lo, hi, np.where(inside, bottom, hi), points)
    start = np.where(inside, first - 1, np.where(bottom > hi, points - 1, 0))
    end, _ = _first_at_or_above(lo, hi, np.minimum(np.maximum(top, np.nextafter(lo, np.inf)), hi), points)
    window = int(np.max(end - start, initial=0)) + 1
    return window, np.minimum(start, points - window)


def _predicted_plan(
    lo: np.ndarray,
    hi: np.ndarray,
    guess: np.ndarray,
    rounds_left: np.ndarray,
    *,
    rel_tol: float,
    points: int,
    window: int,
    start: "np.ndarray | None" = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The loads each row's next rounds evaluate if its condition first holds at *guess*.

    Walks the round update from ``(lo, hi)`` with each round's first
    crossed index taken as the first grid point at or above *guess*
    (``lo < guess <= hi``), until the update would stop the row: no
    progress, the relative width test, or *rounds_left* rounds.
    Returns ``(loads, start, length)``: per row, the loads to evaluate
    (the first round's *window* grid points from index ``start`` — the
    whole grid when *window* is *points* — then each later round's pair
    at grid indices ``first − 1, first``) and the number of rounds
    walked.  The window is centred on the first round's predicted index
    unless *start* is given.  A row whose walk has ended keeps its
    bracket, so its later columns hold valid loads that no round reads.
    """
    first, cell = _first_at_or_above(lo, hi, guess, points)
    if start is None:
        start = np.minimum(np.maximum(first - window // 2, 0), points - window)
    columns = [_grid_points(lo, hi, start + np.arange(window)[:, None], points)]
    lo, hi = lo.copy(), hi.copy()
    length = np.ones(lo.size, dtype=np.int64)
    walking = np.ones(lo.size, dtype=bool)
    for walked in range(1, int(rounds_left.max()) + 1):
        walking &= (cell[0] > lo) | (cell[1] < hi)  # else no progress: the row stops
        np.copyto(lo, cell[0], where=walking)
        np.copyto(hi, cell[1], where=walking)
        walking &= (hi - lo > rel_tol * hi) & (rounds_left > walked)
        if not np.count_nonzero(walking):
            break
        _, cell = _first_at_or_above(lo, hi, guess, points)
        columns.append(cell)
        length += walking
    return np.concatenate(columns).T, start, length


def _estimate(near: np.ndarray, score: np.ndarray) -> np.ndarray:
    """Each row's estimate of its crossing from samples ``b2 <= b1 < a1 <= a2``.

    *near* holds the loads as columns, *score* their scores.  The
    estimate is the inverse quadratic interpolation of the score's zero
    through ``b1``, ``a1`` and the nearer of ``b2`` and ``a2``; where that
    falls outside ``(b1, a1]`` or the third sample is missing, it is
    regula falsi between ``b1`` and ``a1``.  It is not finite where either
    of those is missing.  With regula falsi alone, the 256-queue saturation
    searches of ``544-hotspot`` and ``544-local`` took 7 probe calls
    instead of 6, and the knee searches of seven registry scenarios 4
    instead of 3.
    """
    b2, b1, a1, a2 = near.T
    f_b2, f_b1, f_a1, f_a2 = score.T
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        from_below = b1 - b2 <= a2 - a1
        x2 = np.where(from_below, b2, a2)
        f2 = np.where(from_below, f_b2, f_a2)
        d01, d02, d12 = f_b1 - f_a1, f_b1 - f2, f_a1 - f2
        quadratic = (
            b1 * f_a1 * f2 / (d01 * d02)
            - a1 * f_b1 * f2 / (d01 * d12)
            + x2 * f_b1 * f_a1 / (d02 * d12)
        )
        secant = b1 + (a1 - b1) * (f_b1 / d01)
    return np.where((quadratic > b1) & (quadratic <= a1), quadratic, secant)


class _Plan(NamedTuple):
    """One probe call's loads for the rows whose plans open with the same window."""

    rows: np.ndarray
    window: int
    loads: np.ndarray
    start: np.ndarray
    length: np.ndarray


class _Ceiling(NamedTuple):
    """A bounded search's per-cell ceilings, as one refinement reads and lowers them."""

    bound: np.ndarray  # per cell: at least the least value the cell's rows report
    cell: np.ndarray  # per refined row: its cell


def _refine_rows(
    lo: np.ndarray,
    hi: np.ndarray,
    probe: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    *,
    rel_tol: float,
    points: int = 33,
    max_rounds: int = 100,
    ceiling: "_Ceiling | None" = None,
    prior: "tuple[np.ndarray, np.ndarray, np.ndarray] | None" = None,
    pole_bound: "np.ndarray | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Narrow each row's ``[lo, hi]`` to the cell where a monotone condition flips.

    ``probe(rows, loads)`` evaluates the condition for the given rows
    (which may repeat) over per-row loads shaped ``(len(rows), width)``
    and returns ``(crossed, score)``: the verdicts, and a score that falls
    through 0 where the condition flips, used only to predict the
    crossing.  The bracket invariant is ``not crossed(lo)`` and
    ``crossed(hi)``; a row whose first grid crosses nowhere, not even at
    ``hi``, stops with ``lo = hi``.  Each round keeps the cell of the
    row's *points*-point grid ``_linspace_rows(lo, hi, points)`` that holds
    its first ``True``, shrinking the bracket by ``points - 1``.  A row
    stops when ``hi - lo <= rel_tol * hi``, when its first probe is
    already crossed, when the bracket stops making progress at float64
    resolution, or after *max_rounds* rounds (the relative test alone
    cannot terminate when the crossing sits at ``lo == 0`` exactly, where
    the bracket can only shrink toward a denormal ``hi``).

    Every iteration makes one probe call, in which each live row evaluates
    its own plan (:func:`_predicted_plan`).  A row's first plan is its
    whole first grid, unless a prior or a pole bound (below) opens it
    otherwise.  From then on it estimates its crossing from its tightest
    sampled loads of finite score (:func:`_estimate`), and its plan adds
    each later round's straddling pair around that estimate.  In a
    refinement of fewer than :data:`_WINDOW_MIN_ROWS` rows every plan
    opens with the round's whole grid, which decides that round.  In a
    larger one a plan opens with the :data:`_WINDOW` grid indices around
    the estimate; a row whose window misses evaluates its whole grid
    alone in its next call, then predicts again.  A window counts when
    its first ``True`` follows a ``False`` (or sits at grid index 0), and
    a later round when the first counted and it reads ``False`` then
    ``True`` at grid indices ``first − 1, first``: by monotonicity,
    ``first`` is then the round's first crossed index, and the round
    update runs as for a whole grid.  Rows drop out independently, so
    each row's final ``(lo, hi)`` equals the one-row loop's bit for bit
    (the scalar oracle in ``tests/test_stacked.py``).

    With a *ceiling* the refinement is bounded: only rows that can still
    report their cell's least ``hi`` run to the end.  Before its first
    grid, a row whose ``hi`` is above its cell's bound is probed once at
    the bound, in one call for all such rows, and stops if not crossed
    there; later, a row stops as soon as its ``lo`` is strictly above the
    bound.  Every probe call lowers each cell's bound to its rows' ``hi``.
    A refinement reports ``hi`` either as its first upper end or as a
    crossed load, so by monotonicity the ``hi`` a stopped row would have
    reported, and its current one, which is no lower, are strictly above
    the bound, which is at least the cell's least reported ``hi``.  Rows
    that report that least value, ties included, run to the end with
    their one-row ``(lo, hi)``.

    A *prior* is ``(loads, crossed, score)``, each shaped ``(rows,
    samples)``: each row's samples from earlier evaluations, padded with
    NaN scores.  The refinement observes them before its first plan, so a
    row they give an estimate opens with a predicted plan instead of a
    whole grid: a window at and above :data:`_WINDOW_MIN_ROWS` rows, the
    whole grid below, each followed by its later rounds' pairs.  A first
    window through ``hi`` that reads no crossing ends its row as a whole
    grid crossed nowhere would: by monotonicity nothing below ``hi``
    crossed either.  A prior only chooses which loads a probe evaluates.
    Every round still counts on the probe's own verdicts, by the rules
    above, so no prior, not even one whose verdicts contradict the probe,
    can move a bracket; a row without an estimate runs as without a prior.

    A *pole_bound* gives each row a load at or above which its crossing
    is expected (the latency searches' bound from the pole at λ*).  In a
    refinement of at least :data:`_WINDOW_MIN_ROWS` rows, a row whose
    samples hold no load inside its bracket that did not cross, and so
    give it no estimate or only one extrapolated from its low end, opens
    with a *pole window* instead: the grid points from the last below the
    bound, or below its tightest sample that did not cross where that is
    higher, to the first at or above its tightest crossed sample (``hi``
    without one); a bound at or above that sample is refuted and not
    used.  Rows opening so in one call share the widest such window, and
    a row with an estimate adds its later rounds' pairs.  A pole window
    is a window like any other: one through ``hi`` that reads no crossing
    ends its row, and one that misses sends its row to its whole grid in
    the next call.
    """
    lo = np.array(lo, dtype=np.float64)
    hi = np.array(hi, dtype=np.float64)
    size = lo.size
    alive = np.ones(size, dtype=bool)
    rounds = np.zeros(size, dtype=np.int64)
    if ceiling is not None:
        bound = ceiling.bound[ceiling.cell]
        test = np.flatnonzero(bound < hi)
        if test.size:
            crossed, _ = probe(test, bound[test, None])
            alive[test[~crossed[:, 0]]] = False
    windowed = size >= _WINDOW_MIN_ROWS
    # Rows whose next plan opens with the whole grid; a row without an
    # estimate opens with it anyway.
    whole = np.full(size, not windowed)
    # Each row's two tightest distinct sampled loads of finite score on
    # either side, b2 <= b1 (not crossed) < a1 <= a2 (crossed), and their scores.
    near = np.tile([-np.inf, -np.inf, np.inf, np.inf], (size, 1))
    near_score = np.full((size, 4), np.nan)
    near_crossed = np.array([False, False, True, True])

    def observe(rows: np.ndarray, loads: np.ndarray, crossed: np.ndarray, score: np.ndarray) -> None:
        take = np.arange(rows.size)
        x = np.concatenate([near[rows], loads], axis=1)
        f = np.concatenate([near_score[rows], score], axis=1)
        c = np.concatenate([np.broadcast_to(near_crossed, (rows.size, 4)), crossed], axis=1)
        finite = np.isfinite(f)
        low = np.where(~c & finite, x, -np.inf)
        high = np.where(c & finite, x, np.inf)
        b1, a1 = np.argmax(low, axis=1), np.argmin(high, axis=1)
        b1_load, a1_load = low[take, b1], high[take, a1]
        low[low == b1_load[:, None]] = -np.inf
        high[high == a1_load[:, None]] = np.inf
        b2, a2 = np.argmax(low, axis=1), np.argmin(high, axis=1)
        near[rows] = np.stack([low[take, b2], b1_load, a1_load, high[take, a2]], axis=1)
        near_score[rows] = np.stack([f[take, b2], f[take, b1], f[take, a1], f[take, a2]], axis=1)

    if prior is not None:
        observe(np.arange(size), *prior)

    def advance(rows: np.ndarray, new_lo: np.ndarray, new_hi: np.ndarray) -> None:
        # The round update for rows whose first crossed index is >= 1.
        rounds[rows] += 1
        stalled = (new_lo <= lo[rows]) & (new_hi >= hi[rows])  # float64 floor
        alive[rows[stalled]] = False
        moved = ~stalled
        lo[rows[moved]] = new_lo[moved]
        hi[rows[moved]] = new_hi[moved]

    def decide(plan: _Plan, crossed: np.ndarray, score: np.ndarray) -> None:
        rows, window, loads, start, length = plan
        observe(rows, loads, crossed, score)
        # The first round.  A whole grid's first True decides it; a window
        # decides it when its first True follows a False (or sits at grid
        # index 0), and otherwise missed.
        head = crossed[:, :window]
        hit = np.argmax(head, axis=1)
        seen = head[np.arange(rows.size), hit]
        if window == points:
            never = rows[~seen]  # crossed nowhere up to hi
            whole[rows] = not windowed
        else:
            never = rows[~seen & (start == points - window)]  # a window through hi
            seen &= (hit > 0) | (start == 0)
            whole[rows[~seen]] = True
        lo[never] = hi[never]
        alive[never] = False
        first = start + hit
        alive[rows[seen & (first == 0)]] = False  # bracket degenerated
        sel = np.flatnonzero(seen & (first != 0))
        advance(rows[sel], loads[sel, hit[sel] - 1], loads[sel, hit[sel]])
        # A later round counts when it reads False, True at its pair and
        # every earlier round counted: its loads lie in the cell the walk
        # predicted for each earlier round, so by monotonicity that cell
        # held the crossing and the row's bracket is the one the walk
        # planned the round from.  The walk stopped where the update would
        # stop.  (A pole window need not hold the first round's predicted
        # cell, so the first round must have counted on its own.)
        pairs = crossed[:, window:]
        kept = np.zeros((rows.size, pairs.shape[1] // 2 + 1), dtype=bool)
        kept[:, :-1] = ~pairs[:, 0::2] & pairs[:, 1::2] & seen[:, None]
        kept[:, :-1] &= np.arange(1, kept.shape[1]) < length[:, None]
        count = np.argmin(kept, axis=1)  # the leading run of kept rounds
        sel = np.flatnonzero(count)
        if not sel.size:
            return
        col = window + 2 * (count[sel] - 1)
        # Every kept round before the last moved the bracket: a stall ends a walk.
        moved = count[sel] > 1
        lo[rows[sel[moved]]] = loads[sel[moved], col[moved] - 2]
        hi[rows[sel[moved]]] = loads[sel[moved], col[moved] - 1]
        rounds[rows[sel]] += count[sel] - 1
        advance(rows[sel], loads[sel, col], loads[sel, col + 1])

    while True:
        if ceiling is not None:
            np.minimum.at(ceiling.bound, ceiling.cell, hi)
            alive &= ~(lo > ceiling.bound[ceiling.cell])
        alive &= ~(hi - lo <= rel_tol * hi) & (rounds < max_rounds)
        rows = np.flatnonzero(alive)
        if not rows.size:
            break
        row_lo, row_hi = lo[rows], hi[rows]
        guess = _estimate(near[rows], near_score[rows])
        known = np.isfinite(guess)
        guess = np.where(known, np.minimum(np.maximum(guess, np.nextafter(row_lo, np.inf)), row_hi), row_hi)
        b1, a1 = near[rows, 1], near[rows, 2]
        # In the first call, a row opens at its pole unless a sampled load
        # inside its bracket, not crossed, gives it an estimate.
        at_pole = (~known | (b1 <= row_lo)) & (windowed and pole_bound is not None)
        opens_whole = (whole[rows] | ~known) & ~at_pole
        # A row without an estimate plans one round, and so does a whole
        # grid where plans open with windows.
        rounds_left = np.where(known & ~(windowed & opens_whole), max_rounds - rounds[rows], 1)
        # Each opening: its window, its rows' first grid index (None: the
        # window centred on the estimate's cell) and its rows.
        openings: list[tuple[int, "np.ndarray | None", np.ndarray]] = [
            (points, None, opens_whole),
            (_WINDOW, None, ~(opens_whole | at_pole)),
        ]
        if np.count_nonzero(at_pole):
            # From the pole bound, or the tightest load sampled not crossed
            # above it, to the tightest sampled crossed (a bound at or above
            # that is refuted).
            assert pole_bound is not None
            bound, below, above = pole_bound[rows[at_pole]], b1[at_pole], a1[at_pole]
            bottom = np.where(bound < above, np.maximum(bound, below), below)
            openings.append((*_pole_window(row_lo[at_pole], row_hi[at_pole], bottom, above, points), at_pole))
        pole_bound = None
        plans = [
            _Plan(
                rows[sel],
                window,
                *_predicted_plan(
                    row_lo[sel],
                    row_hi[sel],
                    guess[sel],
                    rounds_left[sel],
                    rel_tol=rel_tol,
                    points=points,
                    window=window,
                    start=start,
                ),
            )
            for window, start, sel in openings
            if np.count_nonzero(sel)
        ]
        # One rectangle as wide as the narrowest plan; a wider plan takes
        # as many of its rows as it needs, padded with its last load.
        width = min(plan.loads.shape[1] for plan in plans)
        reps = [-(-plan.loads.shape[1] // width) for plan in plans]
        packed = []
        for plan, rep in zip(plans, reps):
            length = plan.loads.shape[1]
            loads = np.empty((plan.rows.size, rep * width))
            loads[:, :length] = plan.loads
            loads[:, length:] = plan.loads[:, -1:]
            packed.append(loads.reshape(-1, width))
        crossed, score = probe(
            np.concatenate([np.repeat(plan.rows, rep) for plan, rep in zip(plans, reps)]),
            np.concatenate(packed),
        )
        end = 0
        for plan, rep in zip(plans, reps):
            count, length = plan.loads.shape
            cut = slice(end, end + count * rep)
            end = cut.stop
            decide(
                plan,
                crossed[cut].reshape(count, -1)[:, :length],
                score[cut].reshape(count, -1)[:, :length],
            )
    return lo, hi


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


#: The engine's one working-set budget, in elements.  It bounds three
#: things: a solver call's padded scratch, ``(n_c, d_dst, rows, loads)``
#: for a pair solve and ``(depth, rows, loads)`` for an intra solve at the
#: call's deepest row (:func:`_solve_calls`); an evaluation's batch of
#: source classes, as pair row-loads (:meth:`_CellGroup.batches`); and a
#: saturation run's first round, as row-loads
#: (:meth:`StackedModel._source_queue_saturation_rows`).  Each derived
#: size is at least one row or class.  A row count alone does not bound a
#: solve: with solves of up to 256 rows at any probe width, the saturation
#: peak of a 90-cell ``544-hotspot`` explore grid rose from 6.7 to 11.7 MB
#: (traced, 2-core host); a budget of 8,192 elements made explore no
#: faster.
_SOLVE_ELEMENTS = 32_768


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


# ---------------------------------------------------------------------------
# group-constant journey structure (shapes shared by every cell of a group)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Structure:
    """A journey layout: shared by every plan of the process, so its arrays are read-only."""

    def __post_init__(self) -> None:
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False


@dataclass(frozen=True)
class _IntraStructure(_Structure):
    """Journey layout of one class's intra-cluster model (cell-independent)."""

    pmf: np.ndarray  # (depth,) journey pmf
    two_h_minus_1: np.ndarray  # (depth,) = 2·(h − 1), the tail-time slopes
    mean_links: float
    tree_depth: int


@dataclass(frozen=True)
class _PairStructure(_Structure):
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


#: Distinct journey structures a process keeps; the registry's 16 scenarios
#: derive 60.
_STRUCTURES = 256


@functools.lru_cache(maxsize=_STRUCTURES)
def _intra_structure(switch_ports: int, depth: int) -> _IntraStructure:
    h_values = np.arange(1, depth + 1, dtype=np.float64)
    return _IntraStructure(
        pmf=journey_length_pmf(switch_ports, depth),
        two_h_minus_1=2.0 * (h_values - 1.0),
        mean_links=mean_journey_links(switch_ports, depth),
        tree_depth=depth,
    )


@functools.lru_cache(maxsize=_STRUCTURES)
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
# stacked parameter planes: stack-wide journey families, addressed by cell groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _IntraBlock:
    """The intra-cluster rows of every class in the stack: one journey family.

    One row per cell of every class, shape by shape (a shape is a
    ``(switch_ports, tree_depth)``, in order of first appearance), then
    group-major, class order, cell.  Each row carries its shape — and
    through it its depth and pmf weights — and its mean journey links, so
    one solve prices rows of several depths.  The per-cell group flags
    (``m_flits``, ``var_paper``, ``sqr_per_node``) are tiled the same way.
    """

    structures: tuple[_IntraStructure, ...]  # per shape
    depths: np.ndarray  # per shape: tree depth
    weights: np.ndarray  # per shape: journey pmf, zero past its depth
    scratch: np.ndarray  # per shape: solver scratch elements per row and load
    shape: np.ndarray  # per row: its shape
    mean_links: np.ndarray
    m_flits: np.ndarray
    var_paper: np.ndarray  # variance_approximation == "paper"
    sqr_per_node: np.ndarray  # source_queue_rate == "per_node"
    t_cs: np.ndarray  # ICN1 switch-stage channel time
    t_cn: np.ndarray  # ICN1 final-stage channel time
    nodes: np.ndarray  # N_i (float64, exact)
    u: np.ndarray  # U_i
    count: np.ndarray
    intra_fraction: np.ndarray  # 1 − U_i
    eta_divisor: np.ndarray  # 4 n_i N_i
    tail_time: np.ndarray  # E_in (Eq. 19)
    min_service: np.ndarray  # M t_cn

    @property
    def size(self) -> int:
        return int(self.t_cs.size)


@dataclass(frozen=True)
class _PairBlock:
    """The ordered class pairs of one ICN2 depth ``n_c`` across the stack: one journey family.

    One row per cell of every ordered class pair whose system has that
    ICN2 depth, shape by shape (a shape is a ``(switch_ports, d_src,
    d_dst, n_c)``, in order of first appearance), then group-major, then
    member-major (a group's members of a shape are its ``(i, j)`` pairs of
    that shape in row-major order), then cell.  Each row carries its shape
    — and through it its depths and pmf weights — and its mean ECN1 and
    ICN2 journey links, so one solve prices rows of several shapes.  The
    per-cell group flags are tiled the same way.
    """

    structures: tuple[_PairStructure, ...]  # per shape
    n_c: int
    depths: np.ndarray  # per shape: (d_src, d_dst)
    weights: np.ndarray  # per shape: (d_src, d_dst, n_c) pmf products, zero past its depths
    scratch: np.ndarray  # per shape: solver scratch elements per row and load
    shape: np.ndarray  # per row: its shape
    d_e1: np.ndarray  # mean ECN1 journey links of the source depth
    d_i2: np.ndarray  # mean ICN2 journey links
    m_flits: np.ndarray
    var_paper: np.ndarray  # variance_approximation == "paper"
    sqr_aggregate: np.ndarray  # source_queue_rate == "aggregate_pair"
    conc_outgoing: np.ndarray  # concentrator_rate == "source_outgoing"
    src_cs: np.ndarray  # source ECN1 switch-stage channel time
    i2_cs: np.ndarray  # ICN2 switch-stage channel time
    dst_cs: np.ndarray  # destination ECN1 switch-stage channel time
    dst_cn: np.ndarray  # destination ECN1 final-stage channel time
    external: np.ndarray  # N_i U_i + N_j U_j (Eq. 22 slope)
    src_nodes: np.ndarray
    src_u: np.ndarray
    eta_e1_divisor: np.ndarray
    delta: np.ndarray  # Eq. 28 relaxing factor
    tail_time: np.ndarray  # E_ex (Eq. 33)
    min_service: np.ndarray  # M t_cn^{E1(i)}
    conc_service: np.ndarray  # M t_cs^{I2}
    conc_variance: np.ndarray  # Eq. 36 variance
    weight: np.ndarray  # destination weight of j in the Eq. 35/38 averages

    @property
    def size(self) -> int:
        return int(self.weight.size)

    @property
    def eta_i2_divisor(self) -> float:
        return 4.0 * self.n_c

    def outward(self) -> np.ndarray:
        """Rows whose queues can saturate: the source class sends outward to a positive weight."""
        return (self.src_u > 0.0) & (self.weight > 0.0)


def _solve_calls(
    block: "_IntraBlock | _PairBlock", rows: np.ndarray, width: int
) -> list["np.ndarray | slice"]:
    """The solver calls over block *rows* at *width* loads each: the chunk rule.

    One rule for intra and pair families, in evaluations and searches
    alike.  A call's padded scratch is its largest row scratch (a pair
    row's ``n_c · d_dst``, an intra row's depth) × its rows × *width*.
    All rows are one call when that stays within :data:`_SOLVE_ELEMENTS`.
    Otherwise the rows are taken shape by shape (in row order within a
    shape), and consecutive shapes share a call only while its padded
    scratch stays within the budget.  A shape that alone exceeds it is cut
    into calls of its own, of as many rows as the budget holds at that
    shape's scratch (at least one).  Returns each call's positions in
    *rows* (``slice(None)`` for a single call).
    """
    shape = block.shape[rows]
    scratch = block.scratch[shape]
    if int(scratch.max()) * rows.size * width <= _SOLVE_ELEMENTS:
        return [slice(None)]
    order = np.argsort(shape, kind="stable")
    ends = [*(np.flatnonzero(np.diff(shape[order])) + 1).tolist(), rows.size]
    calls: list["np.ndarray | slice"] = []
    begin = start = widest = 0
    for stop in ends:
        own = int(scratch[order[start]])
        if own * (stop - start) * width > _SOLVE_ELEMENTS:
            if begin < start:
                calls.append(order[begin:start])
            step = max(1, _SOLVE_ELEMENTS // (own * width))
            calls += [order[first : min(first + step, stop)] for first in range(start, stop, step)]
            begin, widest = stop, 0
        elif max(widest, own) * (stop - begin) * width > _SOLVE_ELEMENTS:
            calls.append(order[begin:start])
            begin, widest = start, own
        else:
            widest = max(widest, own)
        start = stop
    if begin < rows.size:
        calls.append(order[begin:])
    return calls if len(calls) > 1 else [slice(None)]


@dataclass(frozen=True)
class _CellGroup:
    """All cells sharing one structure signature: class order and family rows.

    Class ``i`` of cell ``c`` is intra row ``intra[i] + c``; the ordered
    pair ``(i, j)`` of cell ``c`` is row ``pairs[i, j] + c`` of pair block
    ``family``.
    """

    indices: np.ndarray  # positions in the original cell list
    single_cluster: bool
    class_names: tuple[str, ...]
    total_nodes: np.ndarray  # (C,)
    intra: np.ndarray  # (classes,) first intra row of each class
    family: int  # its pair block; -1 when single_cluster
    pairs: np.ndarray  # (classes, classes) first pair row of each ordered pair

    @property
    def size(self) -> int:
        return int(self.indices.size)

    def batches(self, cells: int, width: int) -> Iterator[slice]:
        """Consecutive source classes per evaluation batch over *cells* cells at *width* loads.

        As many classes as fit :data:`_SOLVE_ELEMENTS` pair row-loads (a
        class holds ``classes · cells`` pair rows of *width* loads each),
        at least one; every class of a single-cluster group, which has no
        pairs.
        """
        count = len(self.class_names)
        per = count if self.single_cluster else max(1, _SOLVE_ELEMENTS // (count * cells * width))
        for first in range(0, count, per):
            yield slice(first, min(first + per, count))


def _group_signature(model: AnalyticalModel) -> tuple:
    """Cells with equal signatures share every journey-plane shape."""
    classes = model.cluster_classes
    return (
        model.system.switch_ports,
        model.system.num_clusters == 1,
        model.system.icn2_tree_depth,
        tuple((cls.tree_depth, cls.name) for cls in classes),
    )


def _journey_shape(shapes: dict, key: tuple, derive: Callable[..., Any]) -> Any:
    """The journey structure of shape *key* in *shapes*, ``derive(*key)`` on its first use."""
    if key not in shapes:
        shapes[key] = (derive(*key), [])
    return shapes[key][0]


def _add_part(shapes: dict, key: tuple, part: dict[str, np.ndarray]) -> tuple:
    """Append one group's rows *part* to shape *key* of *shapes*.

    Returns ``(key, first)``: the shape and the part's first row in it.
    """
    parts = shapes[key][1]
    first = sum(p["m_flits"].size for p in parts)
    parts.append(part)
    return key, first


def _family(shapes: dict) -> tuple[dict[str, Any], dict[tuple, int]]:
    """Concatenate *shapes* (key → (structure, parts)) in order into one family's planes.

    Returns the planes, with ``structures`` and the per-row ``shape``, and
    each shape's first row in the family.
    """
    structures = tuple(structure for structure, _ in shapes.values())
    parts = [part for _, shape_parts in shapes.values() for part in shape_parts]
    sizes = [sum(part["m_flits"].size for part in shape_parts) for _, shape_parts in shapes.values()]
    offsets = dict(zip(shapes, np.cumsum([0, *sizes[:-1]]).tolist()))
    planes: dict[str, Any] = {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}
    planes["structures"] = structures
    planes["shape"] = np.repeat(np.arange(len(structures)), sizes)
    return planes, offsets


def _intra_block(shapes: dict) -> tuple[_IntraBlock, dict[tuple, int]]:
    planes, offsets = _family(shapes)
    structures = planes["structures"]
    depths = np.array([s.tree_depth for s in structures])
    weights = np.zeros((len(structures), int(depths.max())))
    for k, structure in enumerate(structures):
        weights[k, : structure.tree_depth] = structure.pmf
    mean_links = np.array([s.mean_links for s in structures])[planes["shape"]]
    block = _IntraBlock(
        depths=depths, weights=weights, scratch=depths, mean_links=mean_links, **planes
    )
    return block, offsets


def _pair_block(shapes: dict) -> tuple[_PairBlock, dict[tuple, int]]:
    planes, offsets = _family(shapes)
    structures = planes["structures"]
    n_c = structures[0].n_c
    depths = np.array([(s.d_src, s.d_dst) for s in structures])
    weights = np.zeros((len(structures), int(depths[:, 0].max()), int(depths[:, 1].max()), n_c))
    for k, s in enumerate(structures):
        weights[k, : s.d_src, : s.d_dst] = s.weights.reshape(s.d_src, s.d_dst, n_c)
    block = _PairBlock(
        n_c=n_c,
        depths=depths,
        weights=weights,
        scratch=n_c * depths[:, 1],
        d_e1=np.array([s.d_e1 for s in structures])[planes["shape"]],
        d_i2=np.array([s.d_i2 for s in structures])[planes["shape"]],
        **planes,
    )
    return block, offsets


class ParameterPlan:
    """Packed parameters of a cell list: stack-wide journey families, addressed by cell groups.

    Packing builds one scalar :class:`AnalyticalModel` per cell (only
    the cheap class decomposition and destination weighting) and groups
    the cells by structure signature, so cells whose class decompositions
    differ land in different groups.  Each group's per-cell parameter
    planes are packed into stack-wide journey families: one
    :class:`_IntraBlock` for every class of every depth, and one
    :class:`_PairBlock` per ICN2 depth ``n_c``, each holding its journey
    shapes' rows of every group, shape by shape.  A journey structure is
    derived once per process, whatever plan and group it sits in, and
    shared read-only.  The blocks are the only
    copy of a per-row plane; a group keeps its class order and addresses
    its rows by first row per class and per ordered class pair.
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
        intra: dict[tuple, tuple[_IntraStructure, list[dict[str, np.ndarray]]]] = {}
        pairs: dict[tuple, tuple[_PairStructure, list[dict[str, np.ndarray]]]] = {}
        packed = [self._pack_group(positions, intra, pairs) for positions in by_sig.values()]
        self.intra, intra_first = _intra_block(intra)
        families: dict[int, dict[tuple, Any]] = {}
        for key, entry in pairs.items():  # key = (switch_ports, d_src, d_dst, n_c)
            families.setdefault(key[3], {})[key] = entry
        blocks = [_pair_block(shapes) for shapes in families.values()]
        self.pair_blocks: tuple[_PairBlock, ...] = tuple(block for block, _ in blocks)
        pair_first = {
            key: (family, first) for family, (_, firsts) in enumerate(blocks) for key, first in firsts.items()
        }
        groups = []
        for positions, single, names, total_nodes, class_parts, pair_parts in packed:
            family, pair_rows = -1, np.zeros((0, 0), dtype=np.intp)
            if pair_parts:
                family = pair_first[pair_parts[0][0]][0]
                pair_rows = np.array(
                    [pair_first[key][1] + first for key, first in pair_parts], dtype=np.intp
                ).reshape(len(names), len(names))
            groups.append(
                _CellGroup(
                    indices=np.asarray(positions, dtype=np.intp),
                    single_cluster=single,
                    class_names=names,
                    total_nodes=total_nodes,
                    intra=np.array([intra_first[key] + first for key, first in class_parts], dtype=np.intp),
                    family=family,
                    pairs=pair_rows,
                )
            )
        self.groups: tuple[_CellGroup, ...] = tuple(groups)
        # Each cell's group and its position in the group.
        self.cell_group = np.empty(self.cells, dtype=np.intp)
        self.cell_position = np.empty(self.cells, dtype=np.intp)
        for g, group in enumerate(self.groups):
            self.cell_group[group.indices] = g
            self.cell_position[group.indices] = np.arange(group.size)

    @property
    def cells(self) -> int:
        return len(self.models)

    # -- packing ---------------------------------------------------------------

    def _pack_group(self, positions: list[int], intra_shapes: dict, pair_shapes: dict) -> tuple:
        """Pack one group's cells into the journey shapes.

        Returns the group's positions, single-cluster flag, class names and
        total nodes, each class's ``(shape, first row)`` and each ordered
        pair's ``(shape, first row)``, its member's first row in the shape.
        """
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

        class_parts: list[tuple] = []
        class_planes: list[tuple[np.ndarray, ...]] = []  # per class: (e_cs, e_cn, nodes, u)
        for i in range(n_cls):
            key = (ports, classes0[i].tree_depth)
            structure = _journey_shape(intra_shapes, key, _intra_structure)
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
            class_planes.append((e_cs, e_cn, nodes, u))
            terms = structure.pmf[None, :] * (
                structure.two_h_minus_1[None, :] * t_cs[:, None] + t_cn[:, None]
            )
            part = {
                "m_flits": m_flits,
                "var_paper": var_paper,
                "sqr_per_node": sqr_per_node,
                "t_cs": t_cs,
                "t_cn": t_cn,
                "nodes": nodes,
                "u": u,
                "count": counts,
                "intra_fraction": 1.0 - u,
                "eta_divisor": 4.0 * structure.tree_depth * nodes,
                "tail_time": np.sum(terms, axis=1),
                "min_service": m_flits * t_cn,
            }
            class_parts.append(_add_part(intra_shapes, key, part))

        slots: dict[tuple[int, int], tuple] = {}
        if not single:
            sqr_aggregate = np.array(
                [m.options.source_queue_rate == "aggregate_pair" for m in models], dtype=bool
            )
            conc_outgoing = np.array(
                [m.options.concentrator_rate == "source_outgoing" for m in models], dtype=bool
            )
            i2_cs = np.array(
                [
                    ServiceTimes.for_network(m.system.icn2, m.message, m.options).t_cs
                    for m in models
                ]
            )
            relax = np.array([m.options.relaxing_factor for m in models], dtype=bool)
            i2_beta = np.array([m.system.icn2.beta for m in models])
            src_beta = np.array(
                [[m.cluster_classes[i].ecn1.beta for m in models] for i in range(n_cls)]
            )
            with np.errstate(divide="ignore", invalid="ignore"):
                delta = np.where(relax, i2_beta / src_beta, 1.0)  # (classes, C)
            dest_weights = np.empty((n_cls, n_cls, len(models)))
            for c, model in enumerate(models):
                for i in range(n_cls):
                    row = model._destination_weights(i)
                    if model.cluster_classes[i].u > 0.0:
                        require(sum(row) > 0, "destination weights must not all be zero")
                    dest_weights[i, :, c] = [float(w) for w in row]
            # Per-class planes, (classes, C); a shape gathers its members' rows.
            e_cs, e_cn, nodes, u = (np.array(planes) for planes in zip(*class_planes))
            by_shape: dict[tuple[int, int], list[tuple[int, int]]] = {}
            for i in range(n_cls):
                for j in range(n_cls):
                    key = (classes0[i].tree_depth, classes0[j].tree_depth)
                    by_shape.setdefault(key, []).append((i, j))
            for (d_src, d_dst), members in by_shape.items():
                src = [i for i, _ in members]
                dst = [j for _, j in members]
                key = (ports, d_src, d_dst, n_c)
                structure = _journey_shape(pair_shapes, key, _pair_structure)
                flits = np.tile(m_flits, len(members))
                paper = np.tile(var_paper, len(members))
                src_cs = e_cs[src].ravel()
                dst_cs = e_cs[dst].ravel()
                dst_cn = e_cn[dst].ravel()
                src_nodes = nodes[src].ravel()
                src_u = u[src].ravel()
                i2 = np.tile(i2_cs, len(members))
                tails = (
                    structure.r_minus_1[None, :] * src_cs[:, None]
                    + structure.v_minus_1[None, :] * dst_cs[:, None]
                    + structure.two_l[None, :] * i2[:, None]
                ) + dst_cn[:, None]
                # The journey-weight sum as a left fold in journey order.
                tail_time = np.add.accumulate(structure.weights * tails, axis=1)[:, -1]
                conc_service = flits * i2
                part = {
                    "m_flits": flits,
                    "var_paper": paper,
                    "sqr_aggregate": np.tile(sqr_aggregate, len(members)),
                    "conc_outgoing": np.tile(conc_outgoing, len(members)),
                    "src_cs": src_cs,
                    "i2_cs": i2,
                    "dst_cs": dst_cs,
                    "dst_cn": dst_cn,
                    "external": src_nodes * src_u + nodes[dst].ravel() * u[dst].ravel(),
                    "src_nodes": src_nodes,
                    "src_u": src_u,
                    "eta_e1_divisor": 4.0 * d_src * src_nodes,
                    "delta": delta[src].ravel(),
                    "tail_time": tail_time,
                    "min_service": flits * e_cn[src].ravel(),
                    "conc_service": conc_service,
                    "conc_variance": np.where(
                        paper,
                        (conc_service - flits * src_cs) ** 2,  # Eq. 36
                        conc_service**2,
                    ),
                    "weight": dest_weights[src, dst].ravel(),
                }
                _, first = _add_part(pair_shapes, key, part)
                for p, pair in enumerate(members):
                    slots[pair] = (key, first + p * len(models))

        names = tuple(cls.name for cls in classes0)
        pair_parts = [slots[i, j] for i in range(n_cls) for j in range(n_cls)] if slots else []
        return positions, single, names, total_nodes, class_parts, pair_parts


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
        return lambda_i2, (lambda_i2 * block.d_i2[rows][:, None]) / block.eta_i2_divisor

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
        """The journey latency a source queue serves over block rows, in one solver call."""
        if isinstance(block, _IntraBlock):
            _, eta_i1 = self._intra_rates(block, rows, loads)
            return {"latency": self._intra_latency(block, rows, eta_i1)}
        _, eta_e1, eta_i2_eff = self._pair_rates(block, rows, loads)
        return {"latency": self._pair_latency(block, rows, eta_e1, eta_i2_eff)}

    def _queue_latency(
        self, block: "_IntraBlock | _PairBlock", rows: np.ndarray, loads: np.ndarray
    ) -> np.ndarray:
        """The latency a source queue serves over block rows: its own journey set.

        Solved in the calls of the chunk rule (:func:`_solve_calls`).
        """
        return self._solved(self._network, block, rows, loads)["latency"]

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
                t = self._queue_latency(block, block_rows, block_loads)
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
            zero_latency = self._queue_latency(block, searched, np.zeros((searched.size, 1)))[:, 0]
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
        length = max(1, _SOLVE_ELEMENTS // points)
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
        require(points >= 2, "points must be >= 2")
        require(
            0.0 < fraction_of_saturation < 1.0, "fraction_of_saturation must be in (0, 1)"
        )
        lam_star = self.saturation_load()
        top = fraction_of_saturation * lam_star
        start = np.zeros(self.cells) if include_zero else top / points
        return _linspace_rows(start, top, points)
