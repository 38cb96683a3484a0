"""Flit-accurate wormhole simulator (the reference for the drain model).

Simulates every flit crossing of every channel under single-flit-buffer
wormhole switching (paper assumption 6).  Within a segment the start time
of flit ``f`` on channel ``k`` obeys the three physical constraints:

* **arrival** — it must have finished crossing channel ``k-1``;
* **serialisation** — the previous flit must have finished crossing ``k``
  (a channel moves one flit per flit-time);
* **buffer** — the previous flit must have *started* crossing ``k+1``
  (each channel output holds a single flit; the worm stretches at most one
  flit per stage).  The segment sink consumes flits immediately.

Headers additionally acquire channels FIFO, and a channel stays held from
its header grant until its tail flit leaves — so a blocked header idles its
whole trail exactly as in the message-level engine, but here the drain is
*computed*, not approximated.  The drain-model ablation bench compares the
two engines.

Segment transitions follow the message-level engine's concentrator
semantics (see :mod:`repro.simulation.wormhole`): the header cuts through
the concentrator and the next segment's flit supply is decoupled (each
``(message, segment)`` has independent state, so a message can have
several segments in flight), and the links into a concentrator buffer
never queue (:attr:`ResolvedFabric.uncontended`).

This engine is O(M·L) events per message and is intended for small/medium
systems (tests, ablations); the paper-scale sweeps use the message-level
engine.
"""

from __future__ import annotations

import time as _time
from collections import deque
from heapq import heappop, heappush

from repro._util import require
from repro.simulation.fabric import GROUPS, ResolvedFabric
from repro.simulation.metrics import LatencyCollector, MeasurementWindow
from repro.simulation.rng import SimulationStreams
from repro.simulation.traffic import PoissonArrivals, SimTrafficPattern, UniformDestinations
from repro.simulation.wormhole import RawRunResult

__all__ = ["FlitLevelSimulator"]

_GEN, _FINISH, _REL = 0, 1, 2
_UNKNOWN = -1.0


class _Journey:
    """Whole-message bookkeeping shared by its segments."""

    __slots__ = ("seq", "source", "destination", "path", "gen_time", "measured")

    def __init__(self, seq, source, destination, path, gen_time, measured):
        self.seq = seq
        self.source = source
        self.destination = destination
        self.path = path
        self.gen_time = gen_time
        self.measured = measured


class _SegState:
    """Flit schedule of one (message, segment) pair.

    Owns its own start/finish grids so that, under cut-through concentrator
    semantics, pending events of an earlier segment can never alias the
    state of a later one.
    """

    __slots__ = ("journey", "seg_index", "cids", "starts", "finishes", "grant_time", "request_time")

    def __init__(self, journey: _Journey, seg_index: int, m_flits: int, request_time: float):
        self.journey = journey
        self.seg_index = seg_index
        self.cids = journey.path[seg_index].channel_ids
        length = len(self.cids)
        self.starts = [[_UNKNOWN] * length for _ in range(m_flits)]
        self.finishes = [[_UNKNOWN] * length for _ in range(m_flits)]
        self.grant_time: dict[int, float] = {}
        self.request_time = request_time

    @property
    def is_final(self) -> bool:
        return self.seg_index + 1 >= len(self.journey.path)


class FlitLevelSimulator:
    """Flit-granularity wormhole simulator (same interface as message-level)."""

    def __init__(
        self,
        fabric: ResolvedFabric,
        window: MeasurementWindow,
        generation_rate: float,
        streams: SimulationStreams,
        pattern: SimTrafficPattern | None = None,
    ) -> None:
        require(fabric.system.total_nodes >= 2, "simulation needs at least two nodes")
        self.fabric = fabric
        self.window = window
        self.pattern = pattern or UniformDestinations()
        self.streams = streams
        self.arrivals = PoissonArrivals(generation_rate, streams.arrivals)
        self.m_flits = fabric.message.length_flits

        n_ch = fabric.num_channels
        self._flit_time = fabric.flit_time.tolist()
        self._uncontended = fabric.uncontended.tolist()
        self._holder = [-1] * n_ch
        self._waiters: list[deque] = [deque() for _ in range(n_ch)]
        self._last_grant = [0.0] * n_ch
        self._busy = [0.0] * len(GROUPS)
        self._group = fabric.group.tolist()

        self.collector = LatencyCollector(window)
        self._heap: list = []
        self._eseq = 0
        self._states: dict[int, _SegState] = {}
        self._next_sid = 0
        self._generated = 0
        self._events = 0
        self._now = 0.0
        self._source_wait_sum = 0.0
        self._source_wait_n = 0
        self._cd_wait_sum = 0.0
        self._cd_wait_n = 0
        self._last_result: RawRunResult | None = None

    # -- plumbing ------------------------------------------------------------------

    def _push(self, t: float, kind: int, a: int, f: int = 0, k: int = 0) -> None:
        self._eseq += 1
        heappush(self._heap, (t, self._eseq, kind, a, f, k))

    def run(self, *, max_events: int = 500_000_000) -> RawRunResult:
        wall_start = _time.perf_counter()
        for node in self.fabric.system.global_ids():
            self._push(self.arrivals.first_arrival(), _GEN, node)
        completed = False
        heap = self._heap
        while heap:
            t, _, kind, a, f, k = heappop(heap)
            self._now = t
            self._events += 1
            if kind == _FINISH:
                self._on_finish(t, a, f, k)
                if self.collector.all_measured_delivered:
                    completed = True
                    break
            elif kind == _REL:
                self._on_release(t, a)
            else:
                self._on_generate(t, a)
            if self._events >= max_events:
                break
        wall = _time.perf_counter() - wall_start
        busy = {name: self._busy[i] for i, name in enumerate(GROUPS)}
        result = RawRunResult(
            stats=self.collector.stats(),
            per_cluster_means=self.collector.per_cluster_means(),
            duration=self._now,
            events=self._events,
            completed=completed,
            generated=self._generated,
            source_wait_mean=self._source_wait_sum / self._source_wait_n if self._source_wait_n else float("nan"),
            concentrator_wait_mean=self._cd_wait_sum / self._cd_wait_n if self._cd_wait_n else float("nan"),
            busy_time_by_group=busy,
            wall_seconds=wall,
        )
        self._last_result = result
        return result

    def trajectory(self):
        """The :class:`~repro.simulation.eventcore.Trajectory` of the last
        completed :meth:`run` (same surface as the message-level engines)."""
        require(self._last_result is not None, "run() must complete before trajectory()")
        from repro.simulation.eventcore import build_trajectory

        return build_trajectory(self.collector, self._last_result)

    # -- generation --------------------------------------------------------------------

    def _on_generate(self, t: float, node: int) -> None:
        if self._generated >= self.window.total:
            return
        seq = self._generated
        self._generated += 1
        destination = self.pattern.sample_destination(self.streams.destinations, self.fabric.system, node)
        path = self.fabric.resolve(node, destination)
        journey = _Journey(seq, node, destination, path, t, self.window.is_measured(seq))
        self._start_segment(journey, 0, t)
        self._push(self.arrivals.next_arrival(t), _GEN, node)

    def _start_segment(self, journey: _Journey, seg_index: int, t: float) -> None:
        state = _SegState(journey, seg_index, self.m_flits, t)
        sid = self._next_sid
        self._next_sid += 1
        self._states[sid] = state
        self._request(state.cids[0], sid, 0, t)

    # -- channel acquisition ----------------------------------------------------------------

    def _request(self, cid: int, sid: int, k: int, t: float) -> None:
        if self._uncontended[cid]:
            self._grant(cid, sid, k, t, contended=False)
        elif self._holder[cid] < 0 and not self._waiters[cid]:
            self._grant(cid, sid, k, t, contended=True)
        else:
            self._waiters[cid].append((sid, k))

    def _grant(self, cid: int, sid: int, k: int, t: float, *, contended: bool) -> None:
        state = self._states[sid]
        if k == 0 and state.journey.measured:  # queue-wait statistics
            wait = t - state.request_time
            if state.seg_index == 0:
                self._source_wait_sum += wait
                self._source_wait_n += 1
            else:
                self._cd_wait_sum += wait
                self._cd_wait_n += 1
        if contended:
            self._holder[cid] = sid
            self._last_grant[cid] = t
        state.grant_time[k] = t
        self._attempt(sid, state, 0, k)

    def _on_release(self, t: float, cid: int) -> None:
        self._busy[self._group[cid]] += t - self._last_grant[cid]
        waiters = self._waiters[cid]
        if waiters:
            nxt_sid, nxt_k = waiters.popleft()
            self._holder[cid] = -1
            self._grant(cid, nxt_sid, nxt_k, t, contended=True)
        else:
            self._holder[cid] = -1

    # -- the flit grid -----------------------------------------------------------------------

    def _attempt(self, sid: int, state: _SegState, f: int, k: int) -> None:
        """Start flit ``f`` on channel ``k`` once all preconditions are known."""
        starts = state.starts
        if starts[f][k] != _UNKNOWN:
            return
        length = len(state.cids)
        t = 0.0
        if f == 0:
            grant = state.grant_time.get(k)
            if grant is None:
                return
            t = grant
            if k > 0:
                arrive = state.finishes[0][k - 1]
                if arrive == _UNKNOWN:
                    return
                if arrive > t:
                    t = arrive
        else:
            if k > 0:
                arrive = state.finishes[f][k - 1]
                if arrive == _UNKNOWN:
                    return
                if arrive > t:
                    t = arrive
            serial = state.finishes[f - 1][k]
            if serial == _UNKNOWN:
                return
            if serial > t:
                t = serial
            if k + 1 < length:
                buffer_free = starts[f - 1][k + 1]
                if buffer_free == _UNKNOWN:
                    return
                if buffer_free > t:
                    t = buffer_free
        starts[f][k] = t
        self._push(t + self._flit_time[state.cids[k]], _FINISH, sid, f, k)
        # A newly known start frees the buffer behind it.
        if k > 0 and f + 1 < self.m_flits:
            self._attempt(sid, state, f + 1, k - 1)

    def _on_finish(self, t: float, sid: int, f: int, k: int) -> None:
        state = self._states[sid]
        cids = state.cids
        length = len(cids)
        state.finishes[f][k] = t
        if f == 0:
            if k + 1 < length:
                self._request(cids[k + 1], sid, k + 1, t)
            elif not state.is_final:
                # Cut-through: the header entered the concentrator; launch
                # the next segment while this one keeps draining.
                self._start_segment(state.journey, state.seg_index + 1, t)
        if f + 1 < self.m_flits:
            self._attempt(sid, state, f + 1, k)
        if k + 1 < length and f > 0:
            self._attempt(sid, state, f, k + 1)
        if f == self.m_flits - 1:
            cid = cids[k]
            if not self._uncontended[cid]:
                self._push(t, _REL, cid)
            if k == length - 1:
                self._segment_tail_done(t, sid, state)

    # -- segment lifecycle ----------------------------------------------------------------------

    def _segment_tail_done(self, t: float, sid: int, state: _SegState) -> None:
        """Tail left the segment's last channel: full delivery at sink/CD."""
        del self._states[sid]
        if not state.is_final:
            return  # the next segment started when the header cut through
        journey = state.journey
        source_cluster = self.fabric.system.cluster_of(journey.source).index
        self.collector.record(
            journey.seq,
            t - journey.gen_time,
            inter_cluster=len(journey.path) > 1,
            source_cluster=source_cluster,
        )
