"""The row-refinement kernel (core.refine) against its scalar oracles.

:func:`refine_monotone_crossing` is the one-bracket loop that every row
of ``_refine_rows`` replicates decision for decision, whatever its
neighbours, its prior, its pole bound or its window; ``numpy.linspace``
is the oracle of ``_linspace_rows`` and ``_grid_points``.  The probes
here are plain functions of the load, so the kernel is checked without
the model: ``tests/test_stacked.py`` runs the same oracle on the
engine's searches.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.refine import _grid_points, _linspace_rows, _refine_rows


def refine_monotone_crossing(lo, hi, crossed, *, rel_tol, points=33, max_rounds=100):
    """Scalar bracket refinement: the one-row loop ``_refine_rows`` replicates.

    ``crossed(grid) -> bool array`` is monotone with ``not crossed(lo)``
    and ``crossed(hi)``.  Each round probes *points* evenly spaced loads
    and keeps the cell containing the first ``True``, until ``hi - lo <=
    rel_tol * hi``, the first probe is already crossed, the bracket stops
    shrinking at float64 resolution, or *max_rounds* rounds have run.  A
    grid crossed nowhere, not even at ``hi``, stops with ``lo = hi``.
    """
    for _ in range(max_rounds):
        if hi - lo <= rel_tol * hi:
            break
        grid = np.linspace(lo, hi, points)
        above = crossed(grid)
        if not above.any():
            lo = hi
            break
        first = int(np.argmax(above))
        if first == 0:
            break
        new_lo, new_hi = float(grid[first - 1]), float(grid[first])
        if new_lo <= lo and new_hi >= hi:
            break
        lo, hi = new_lo, new_hi
    return lo, hi


def row_probe(conditions):
    """Probe over per-row ``(crossed, score)`` functions of the load; rows may repeat."""

    def probe(rows: np.ndarray, loads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        crossed = np.stack([conditions[r][0](loads[k]) for k, r in enumerate(rows)])
        score = np.stack([conditions[r][1](loads[k]) for k, r in enumerate(rows)])
        return crossed, score

    return probe


def at_least(threshold, power=1.0, zero=None):
    """``load >= threshold``, scored ``±|zero − load|**power``.

    The score falls through 0 at *zero*, which defaults to the threshold;
    elsewhere it misleads the prediction, which may cost probes but never
    change a bracket.
    """
    zero = threshold if zero is None else zero
    return (lambda g: g >= threshold, lambda g: np.sign(zero - g) * np.abs(zero - g) ** power)


def assert_rows_match_oracle(lo0, hi0, conditions, **kwargs):
    lo, hi = _refine_rows(np.array(lo0), np.array(hi0), row_probe(conditions), **kwargs)
    for row, (crossed, _) in enumerate(conditions):
        assert (lo[row], hi[row]) == refine_monotone_crossing(lo0[row], hi0[row], crossed, **kwargs), row


class TestRowKernels:
    """``_refine_rows`` and ``_linspace_rows`` against their scalar oracles."""

    def test_rows_stop_in_different_rounds_and_match_the_oracle(self):
        # Row 0 converges in a few rounds, which its exact score predicts
        # from its second call on.  Row 1's crossing sits at lo == 0 and
        # its score is NaN, so it has no estimate: it evaluates one whole
        # grid per call, shrinking toward a denormal hi until max_rounds,
        # long after row 0 stops.
        conditions = [at_least(0.3), (lambda g: g > 0, lambda g: np.full(g.shape, np.nan))]
        live = []
        probe = row_probe(conditions)

        def recording(rows: np.ndarray, grid: np.ndarray):
            live.append(rows.tolist())
            return probe(rows, grid)

        lo, hi = _refine_rows(np.zeros(2), np.ones(2), recording, rel_tol=1e-4)
        last_call = [max(k for k, rows in enumerate(live) if row in rows) for row in (0, 1)]
        assert live[0] == [0, 1] and last_call[0] < last_call[1]
        for row, (condition, _) in enumerate(conditions):
            assert (lo[row], hi[row]) == refine_monotone_crossing(
                0.0, 1.0, condition, rel_tol=1e-4
            )

    #: Edge rows ``(lo, hi, condition)``: a crossing at lo == 0 that shrinks
    #: toward a denormal hi until it stalls, one at lo == 0 that stops at
    #: max_rounds, a start == stop row, a row crossed at its first probe
    #: and a row crossed nowhere, not even at hi.
    EDGE_ROWS = [
        (0.0, 1e-300, (lambda g: g > 0, lambda g: -g)),
        (0.0, 1.0, (lambda g: g > 0, lambda g: -g)),
        (0.5, 0.5, at_least(0.5)),
        (0.2, 0.9, at_least(0.1)),
        (0.0, 0.9, at_least(2.0)),
    ]

    @pytest.mark.parametrize("rel_tol", [1e-13, 1e-6, 1e-4])
    def test_predicted_refinement_edge_rows_match_the_oracle(self, rel_tol):
        # 21 rows, so plans open with windows: the edge rows next to 16
        # ordinary rows with curved scores.
        rng = np.random.default_rng(22)
        conditions = [at_least(t, p) for t, p in zip(rng.uniform(0, 1, 16), rng.uniform(0.3, 3, 16))]
        conditions += [condition for _, _, condition in self.EDGE_ROWS]
        lo0 = [0.0] * 16 + [lo for lo, _, _ in self.EDGE_ROWS]
        hi0 = [1.0] * 16 + [hi for _, hi, _ in self.EDGE_ROWS]
        assert_rows_match_oracle(lo0, hi0, conditions, rel_tol=rel_tol)

    @pytest.mark.parametrize("rel_tol", [1e-13, 1e-6, 1e-4])
    @pytest.mark.parametrize("edge", range(len(EDGE_ROWS)))
    def test_one_row_refinement_edge_rows_match_the_oracle(self, edge, rel_tol):
        # Refined alone, each plan opens with the row's whole grid.
        lo, hi, condition = self.EDGE_ROWS[edge]
        assert_rows_match_oracle([lo], [hi], [condition], rel_tol=rel_tol)

    def test_rows_stopped_by_max_rounds_match_the_oracle(self):
        # Every row needs about nine rounds at 1e-13; six are allowed.
        rng = np.random.default_rng(23)
        conditions = [at_least(t, 2.0) for t in rng.uniform(0.01, 1, 18)]
        assert_rows_match_oracle([0.0] * 18, [1.0] * 18, conditions, rel_tol=1e-13, max_rounds=6)

    @settings(max_examples=40)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 1.0),
                st.floats(1e-6, 10.0),
                st.one_of(st.sampled_from([0.0, 1 / 32, 0.5, 1.0]), st.floats(0.0, 1.0)),
                st.floats(0.25, 4.0),
                st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
            ),
            min_size=1,
            max_size=32,
        ),
        st.sampled_from([1e-13, 1e-6, 1e-4]),
    )
    def test_predicted_refinement_equals_the_plain_loop(self, rows, rel_tol):
        # Random brackets (lo, lo + width), thresholds at a fraction of the
        # bracket (its ends and a grid point included), score curvatures,
        # and scores whose zero is shifted off the threshold by up to a
        # bracket, so windows and pairs miss on either side.  Fewer than 16
        # rows open every plan with the whole grid, more open it with a
        # window.
        lo0 = [lo for lo, _, _, _, _ in rows]
        hi0 = [lo + width for lo, width, _, _, _ in rows]
        conditions = [
            at_least(lo + at * width, power, lo + (at + shift) * width)
            for lo, width, at, power, shift in rows
        ]
        assert_rows_match_oracle(lo0, hi0, conditions, rel_tol=rel_tol)

    @settings(max_examples=60)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 1.0),
                st.floats(1e-6, 10.0),
                st.one_of(st.sampled_from([0.0, 1 / 32, 0.5, 1.0, 1.5]), st.floats(0.0, 1.0)),
                st.lists(
                    st.tuples(
                        st.floats(-0.5, 1.5),
                        st.one_of(
                            st.none(),
                            st.floats(-2.0, 2.0),
                            st.sampled_from([np.nan, np.inf, -np.inf]),
                        ),
                        st.booleans(),
                    ),
                    max_size=8,
                ),
            ),
            min_size=1,
            max_size=32,
        ),
        st.sampled_from([1e-13, 1e-6, 1e-4]),
    )
    def test_priors_never_move_a_bracket(self, rows, rel_tol):
        # Each row's prior samples sit inside and outside its bracket, at a
        # bracket fraction in [-0.5, 1.5]; each is scored as the probe would
        # (None), with a misleading finite score, or NaN or ±inf, and its
        # verdict is the condition's or its contradiction.  A threshold at
        # 1.5 brackets is crossed nowhere, so an exact prior leads a window
        # through hi.  Rows are padded with NaN scores, which carry no sample.
        lo0 = [lo for lo, _, _, _ in rows]
        hi0 = [lo + width for lo, width, _, _ in rows]
        conditions = [at_least(lo + at * width) for lo, width, at, _ in rows]
        width = max(len(samples) for _, _, _, samples in rows)
        loads = np.zeros((len(rows), width))
        crossed = np.zeros((len(rows), width), dtype=bool)
        score = np.full((len(rows), width), np.nan)
        for r, ((lo, span, _, samples), (condition, exact)) in enumerate(zip(rows, conditions)):
            for k, (at, given, contradict) in enumerate(samples):
                load = np.array([lo + at * span])
                loads[r, k] = load[0]
                crossed[r, k] = bool(condition(load)[0]) != contradict
                score[r, k] = exact(load)[0] if given is None else given
        out = _refine_rows(
            np.array(lo0), np.array(hi0), row_probe(conditions), rel_tol=rel_tol, prior=(loads, crossed, score)
        )
        for row, (condition, _) in enumerate(conditions):
            expected = refine_monotone_crossing(lo0[row], hi0[row], condition, rel_tol=rel_tol)
            assert (out[0][row], out[1][row]) == expected, row

    @settings(max_examples=60)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 1.0),
                st.floats(1e-6, 10.0),
                st.one_of(st.sampled_from([0.0, 1 / 32, 0.5, 1.0, 1.5]), st.floats(0.0, 1.0)),
                st.one_of(st.floats(-0.5, 1.5), st.sampled_from([np.nan, np.inf, -np.inf])),
                st.lists(st.tuples(st.floats(0.0, 1.5), st.booleans()), max_size=4),
            ),
            min_size=16,
            max_size=24,
        ),
        st.sampled_from([1e-13, 1e-6, 1e-4]),
    )
    def test_pole_windows_never_move_a_bracket(self, rows, rel_tol):
        # 16 rows and more, so rows open with windows.  Each row's pole
        # bound sits at a bracket fraction in [-0.5, 1.5] or is NaN or
        # ±inf: below its threshold its window holds the crossing, above it
        # the window misses.  Each row's prior holds a sample at lo, as the
        # latency searches pass, and up to four more, some contradicting the
        # condition, so some rows open with estimates extrapolated from lo
        # and some with windows cut at a sampled crossed load.
        lo0 = [lo for lo, *_ in rows]
        hi0 = [lo + width for lo, width, *_ in rows]
        conditions = [at_least(lo + at * width) for lo, width, at, _, _ in rows]
        bound = np.array([lo + at * width for lo, width, _, at, _ in rows])
        width = 1 + max(len(samples) for *_, samples in rows)
        loads = np.zeros((len(rows), width))
        crossed = np.zeros((len(rows), width), dtype=bool)
        score = np.full((len(rows), width), np.nan)
        for r, ((lo, span, _, _, samples), (condition, exact)) in enumerate(zip(rows, conditions)):
            for k, (at, contradict) in enumerate([(0.0, False), *samples]):
                load = np.array([lo + at * span])
                loads[r, k] = load[0]
                crossed[r, k] = bool(condition(load)[0]) != contradict
                score[r, k] = exact(load)[0]
        out = _refine_rows(
            np.array(lo0),
            np.array(hi0),
            row_probe(conditions),
            rel_tol=rel_tol,
            prior=(loads, crossed, score),
            pole_bound=bound,
        )
        for row, (condition, _) in enumerate(conditions):
            expected = refine_monotone_crossing(lo0[row], hi0[row], condition, rel_tol=rel_tol)
            assert (out[0][row], out[1][row]) == expected, row

    def test_pole_windows_open_at_the_bound_and_a_miss_takes_the_whole_grid(self):
        # 16 rows over [0, 1] with pole bound 0.5: 12 cross at 0.7, inside
        # their windows (grid points 15/32 to 1), and 4 at 0.3, whose windows
        # read crossed at their first load and miss, so each evaluates its
        # whole grid in the second call.  No row has a prior.
        thresholds = [0.7] * 12 + [0.3] * 4
        conditions = [at_least(t) for t in thresholds]
        probe = row_probe(conditions)
        calls = []

        def recording(rows, loads):
            calls.append((rows, loads))
            return probe(rows, loads)

        lo, hi = _refine_rows(np.zeros(16), np.ones(16), recording, rel_tol=1e-6, pole_bound=np.full(16, 0.5))
        grid = np.linspace(0.0, 1.0, 33)
        rows, loads = calls[0]
        assert rows.tolist() == list(range(16)) and np.array_equal(loads, np.tile(grid[15:], (16, 1)))
        rows, loads = calls[1]
        for row in range(12, 16):
            assert set(grid) <= set(loads[rows == row].ravel())
        assert all(loads[rows < 12].min(initial=np.inf) >= grid[15] for rows, loads in calls)
        for row, condition in enumerate(conditions):
            assert (lo[row], hi[row]) == refine_monotone_crossing(0.0, 1.0, condition[0], rel_tol=1e-6)

    @pytest.mark.parametrize("max_rounds", [2, 3])
    def test_a_missed_pole_window_counts_no_later_round(self, max_rounds):
        # Each row's exact prior puts its estimate at its crossing, 0.3, so
        # the later rounds' pairs read not crossed, then crossed, while its
        # pole window (from 0.5) misses.  The round the window did not
        # decide must not be skipped: counting those pairs ran one round
        # past max_rounds.
        conditions = [at_least(0.3)] * 16
        prior = (np.tile([0.0, 0.8], (16, 1)), np.tile([False, True], (16, 1)), np.tile([0.3, -0.5], (16, 1)))
        lo, hi = _refine_rows(
            np.zeros(16),
            np.ones(16),
            row_probe(conditions),
            rel_tol=1e-13,
            max_rounds=max_rounds,
            prior=prior,
            pole_bound=np.full(16, 0.5),
        )
        expected = refine_monotone_crossing(0.0, 1.0, conditions[0][0], rel_tol=1e-13, max_rounds=max_rounds)
        assert all((a, b) == expected for a, b in zip(lo, hi))

    @pytest.mark.parametrize("num", [2, 12, 33])
    def test_linspace_rows_equal_numpy_per_row(self, num):
        # Normal rows next to a start == stop row and denormal-width rows,
        # which take numpy's step == 0 branch.  The walk of a predicted
        # plan reads single grid points, one index per row.
        start = np.array([1.25e-4, 3.0e-4, 0.0, 0.0, 0.1])
        stop = np.array([9.5e-4, 3.0e-4, 5e-324, 1e-322, 0.1 + 2**-50])
        grid = _linspace_rows(start, stop, num)
        expected = np.stack([np.linspace(a, b, num) for a, b in zip(start, stop)])
        assert np.array_equal(grid, expected)
        for index in range(num):
            points = _grid_points(start, stop, np.full(start.size, index), num)
            assert np.array_equal(points, expected[:, index])


class TestRefineMonotoneCrossing:
    """The bracket refinement, one row at a time."""

    def test_converges_to_known_crossing(self):
        lo, hi = _refine_rows(
            np.zeros(1), np.ones(1), lambda rows, grid: (grid >= 0.3, 0.3 - grid), rel_tol=1e-10
        )
        assert lo[0] < 0.3 <= hi[0]
        assert hi[0] - lo[0] <= 1e-10 * hi[0]

    def test_terminates_when_crossing_sits_at_zero(self):
        """Regression: a crossing at exactly lo == 0 used to spin forever
        (hi - lo > rel_tol * hi never fails while lo == 0 and rel_tol * hi
        underflows for denormal hi)."""
        lo, hi = _refine_rows(
            np.zeros(1), np.ones(1), lambda rows, grid: (grid > 0, -grid), rel_tol=1e-4
        )
        assert lo[0] == 0.0
        assert 0.0 < hi[0] < 1e-60  # driven to (effectively) the crossing
