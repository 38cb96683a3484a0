"""The row-refinement kernel: many brackets narrowed at once to where a verdict flips.

:func:`_refine_rows` refines independent rows, each a bracket ``[lo,
hi]`` with ``not crossed(lo)`` and ``crossed(hi)``, making one probe call
per iteration for every live row.  It knows nothing of the model: its
caller passes ``probe(rows, loads) -> (crossed, score)``.  The engine's
three searches, the saturation inversion, the knee and the latency
budget, are its callers in :mod:`repro.core.stacked`.  The module imports
numpy and the standard library only.

Each round keeps the cell of the row's 33-point grid that holds its
first crossed load.  :func:`_linspace_rows` is that grid: row by row
:func:`numpy.linspace` bit for bit, including its ``step == 0`` branch,
and non-decreasing in its index.  Rows keep their own round and
termination state, so each row ends on the bracket of the scalar
one-bracket loop, the oracle of ``tests/test_refine.py``, whatever else
shares the refinement.

A probe call may decide several rounds of a row.  From a row's second
call on, :func:`_estimate` predicts its crossing from its tightest
samples, and :func:`_predicted_plan` evaluates the current round plus
the straddling pair of each later round the prediction walks.  A
predicted round counts only when its pair reads not crossed, then
crossed, at grid indices ``k − 1, k``, so ``k`` is the round's first
crossed index.  That holds only if the verdict is weakly monotone in the
load in floating point, which every caller guarantees.  Refinements of
at least :data:`_WINDOW_MIN_ROWS` rows open a plan with a window of grid
indices instead of the whole grid.  A refinement may start from a prior
(samples from earlier evaluations), open rows at a pole bound
(:func:`_pole_window`) or stop rows above a per-cell ceiling
(:class:`_Ceiling`).  Each only chooses which loads a probe evaluates,
or stops a row that cannot report its cell's least ``hi``: every round
counts on the probe's own verdicts, so none moves a bracket.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

import numpy as np


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
    ``(2, rows)``.
    """
    first = np.ceil((guess - start) / (stop - start) * (num - 1))
    np.minimum(np.maximum(first, 1.0, out=first), num - 1, out=first)
    while True:
        cell = _grid_points(start, stop, np.stack((first - 1.0, first)), num)
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
    (the scalar oracle in ``tests/test_refine.py``).

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
