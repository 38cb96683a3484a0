"""Message-level discrete-event wormhole simulator.

Events are channel acquisitions and releases rather than flit hops — the
defining wormhole property is preserved exactly (a message holds every
channel of a segment from its header's acquisition until tail drain, so a
blocked header idles its whole trail and contention couples across the
fabric), while the in-message flit pipeline is computed analytically at
delivery time:

* header crossing channel ``k`` takes that channel's flit time;
* once the header reaches the segment sink at ``t``, the remaining
  ``M - 1`` flits stream at the bottleneck rate: delivery at
  ``t + (M-1)·τ*`` with ``τ* = max flit time on the segment``;
* channel ``k`` releases at ``max(grant_k + M·τ_k, t_del − (L−1−k)·τ*)``
  (lock-step forward drain).

The flit-accurate :mod:`repro.simulation.flitsim` certifies this
approximation in the drain-model ablation bench.

Inter-cluster journeys consist of three such segments glued by
cut-through concentrator/dispatcher buffers, the simulator counterpart of
the model's "merge unit" (Eq. 20) whose buffer is always able to receive
(Eq. 29): the header enters the buffer and at once requests the next
segment's injection channel, whose FIFO is exactly the Eq. 37 queue,
while the finished segment drains behind it.  The links into a buffer
never queue (:attr:`ResolvedFabric.uncontended`); the final ejection
links are physical and do.

Hot-path design
---------------
A run that names no engine dispatches to the compiled array core
(:mod:`repro.simulation.eventcore`); the loop below is its executable
specification, the oracle the differential tests and the golden corpus
compare it with, and its fallback when the kernel is unavailable.  It is
written for CPython throughput rather than for symmetry with the flit
engine:

* one monolithic :meth:`~MessageLevelWormholeSimulator.run` loop with
  every piece of mutable state bound to locals (heap ops included) and
  the request/grant logic inlined at each call site.  That state — the
  per-channel occupancy, waiter deques, last grants and busy sums, the
  heap, and list views of the fabric's tables and of the drawn streams —
  is built inside :meth:`~MessageLevelWormholeSimulator.run`, so the
  constructor keeps only what both engines read and an array-engine run
  pays for none of it;
* events are plain ``(time, tag, payload)`` tuples — the kind lives in the
  low bits of the monotone tie-break tag — and in-flight messages are plain
  list records (list indexing beats both ``__slots__`` attribute access and
  dict lookups by message id — the message object itself rides in the event
  tuple, so there is no id table at all);
* paths come from :meth:`ResolvedFabric.hot_resolver` as tuples of the
  fabric's per-leg records ``(channel_ids, hold_times, τ*, drain, last,
  rel_items)`` with the ``M·τ_k`` / ``(M−1)·τ*`` products folded in when
  the leg is first resolved;
* arrival gaps and uniform destination draws are pre-generated in one
  batched numpy call each (bit-identical to the historical scalar draws,
  because numpy's ``Generator`` streams the same values either way).

Every optimisation preserves the event order (same push sequence, same
tie-break counter) and the RNG consumption order, so results are
bit-identical to the pre-optimisation engine for any seed.
"""

from __future__ import annotations

import time as _time
import warnings
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush, heapreplace

from repro._util import require, require_positive
from repro.simulation.fabric import GROUPS, ResolvedFabric
from repro.simulation.metrics import LatencyCollector, LatencyStats, MeasurementWindow
from repro.simulation.rng import SimulationStreams
from repro.simulation.traffic import SimTrafficPattern, UniformDestinations

__all__ = ["RawRunResult", "MessageLevelWormholeSimulator"]

_GEN, _HDR, _REL, _DEL = 0, 1, 2, 3

# In-flight message record layout (plain list, see module docstring).
_SEQ, _SRC, _PATH, _NSEG, _SEG, _CUR, _K, _GRANTS, _GEN_T, _REQ_T, _MEAS = range(11)


@dataclass(frozen=True)
class RawRunResult:
    """Raw outcome of one simulator run (either granularity)."""

    stats: LatencyStats
    per_cluster_means: dict[int, float]
    duration: float  # simulated time at termination
    events: int
    completed: bool  # all measured messages delivered within the event budget
    generated: int
    source_wait_mean: float
    concentrator_wait_mean: float
    busy_time_by_group: dict[str, float]
    wall_seconds: float
    extra: dict = field(default_factory=dict)


class MessageLevelWormholeSimulator:
    """Channel-acquisition-granularity wormhole simulator.

    Parameters
    ----------
    fabric:
        the resolved fabric (system × message spec).
    window:
        measurement protocol (warmup / measured / drain counts).
    generation_rate:
        per-node Poisson rate ``λ_g``.
    streams:
        deterministic RNG streams.
    pattern:
        destination sampler (defaults to uniform — paper assumption 2).
    engine:
        ``"array"`` (default) dispatches to the compiled array-based event
        core (:mod:`repro.simulation.eventcore`), which reproduces the
        reference trajectory bit for bit; when the kernel cannot be built
        or loaded it runs the reference loop with a :class:`RuntimeWarning`
        naming the reason.  ``"reference"`` runs the CPython event loop
        below, the oracle the array core is tested against.
    """

    def __init__(
        self,
        fabric: ResolvedFabric,
        window: MeasurementWindow,
        generation_rate: float,
        streams: SimulationStreams,
        pattern: SimTrafficPattern | None = None,
        *,
        engine: str = "array",
    ) -> None:
        require(engine in ("reference", "array"), f"unknown engine {engine!r}")
        self.engine = engine
        require(fabric.system.total_nodes >= 2, "simulation needs at least two nodes")
        require_positive(generation_rate, "generation_rate")
        self.fabric = fabric
        self.window = window
        self.pattern = pattern or UniformDestinations()
        self.streams = streams
        self.generation_rate = generation_rate

        self.collector = LatencyCollector(window)

        # Pre-generated stochastic streams (see module docstring), the only
        # state both engines read.  Arrival draw i is consumed exactly where
        # the scalar engine drew it: the first N entries seed each node's
        # first arrival, entry N+s is the gap scheduled by generation s.
        # Destination draw s belongs to generation s.
        n_nodes = fabric.system.total_nodes
        unit = streams.arrivals.standard_exponential(n_nodes + window.total)
        self._arrival_gaps_array = unit * (1.0 / generation_rate)
        self._dest_draws_array = None
        if type(self.pattern) is UniformDestinations:
            self._dest_draws_array = streams.destinations.integers(0, n_nodes - 1, size=window.total)
        self._last_result: RawRunResult | None = None

    # -- run loop -------------------------------------------------------------------

    def run(self, *, max_events: int = 500_000_000, trace: "list | None" = None) -> RawRunResult:
        """Run until every measured message is delivered (or event budget).

        When *trace* is a list, every processed event is appended to it as
        ``(time, kind, id)`` — kind is ``_GEN``/``_HDR``/``_REL``/``_DEL``
        and id is the message sequence number (negative ``-(node+1)`` for
        post-budget arrivals, the channel id for releases).  Both engines
        emit the identical stream; the differential suite compares them
        element for element.  A simulator runs once: its collector holds
        that run's messages, so a second call raises :class:`ValueError`.
        """
        require(
            self._last_result is None, "a simulator runs once; build a new one for another run"
        )
        if self.engine == "array":
            from repro.simulation import eventcore

            if eventcore.kernel_available():
                result = eventcore.array_run(self, max_events=max_events, trace=trace)
                self._last_result = result
                return result
            # The reference loop below is the bit-identical fallback.
            warnings.warn(
                f"engine='array' is running the reference loop: {eventcore._KERNEL_REASON}",
                RuntimeWarning,
                stacklevel=2,
            )
        wall_start = _time.perf_counter()

        window = self.window
        total_budget = window.total
        warmup = window.warmup
        measured_end = warmup + window.measured
        measured_target = window.measured

        # The loop's state, bound to locals: per-channel lists (occupancy is
        # holder (0/1) + queued waiters, one int so the request fast path
        # reads a single list cell), the event heap, and Python lists of
        # the fabric's tables and the drawn streams, so the heap holds
        # plain floats.
        fabric = self.fabric
        n_ch = fabric.num_channels
        heap: list = []
        push = heappush
        pop = heappop
        flit_time = fabric.flit_time.tolist()
        uncontended = fabric.uncontended.tolist()
        occupancy = [0] * n_ch
        waiters = [deque() for _ in range(n_ch)]
        last_grant = [0.0] * n_ch
        busy = [0.0] * len(GROUPS)
        group = fabric.group.tolist()
        cluster_index = fabric.cluster_index
        paths = fabric.hot_resolver()
        collector = self.collector
        lat_append = collector._latencies.append
        inter_append = collector._is_inter.append
        src_append = collector._src_clusters.append
        arr = self._arrival_gaps_array.tolist()
        dest_draws = None if self._dest_draws_array is None else self._dest_draws_array.tolist()
        system = fabric.system
        n_nodes = system.total_nodes
        arr_gen = arr[n_nodes:]  # gap i belongs to generation i
        pattern_sample = None if dest_draws is not None else self.pattern.sample_destination
        dest_rng = self.streams.destinations
        trace_append = trace.append if trace is not None else None

        # Events are 3-tuples ``(time, tag, payload)`` with the kind packed
        # into the low bits of the tie-break tag (eseq advances in steps of
        # 4, so ``tag = eseq | kind`` stays monotone in push order and
        # same-time events resolve exactly as they were scheduled).
        #
        # Two heaps: arrival (_GEN) events — one permanently pending per
        # node — live in their own heap, keeping the main heap shallow for
        # the ~95% of events that are channel traffic; the strict
        # lexicographic merge of the two heads reproduces the single-heap
        # pop order bit for bit, and a generation replaces its own arrival
        # in place (one sift instead of a pop + push).
        eseq = 0
        events = 0
        generated = 0
        t = 0.0
        delivered = 0
        completed = False
        source_wait_sum = 0.0
        source_wait_n = 0
        cd_wait_sum = 0.0
        cd_wait_n = 0

        arr_heap: list = []
        for node in system.global_ids():
            eseq += 4
            arr_heap.append((arr[node], eseq, node))
        arr_heap.sort()  # already heap-shaped either way; sort is cheap and exact

        while True:
            if arr_heap:
                head = arr_heap[0]
                if heap and heap[0] < head:
                    t, tag, payload = pop(heap)
                    is_arrival = False
                else:
                    t, tag, payload = head
                    is_arrival = True
            elif heap:
                t, tag, payload = pop(heap)
                is_arrival = False
            else:
                break
            events += 1
            if trace_append is not None:
                if is_arrival:
                    trace_append((t, _GEN, generated if generated < total_budget else -(payload + 1)))
                else:
                    k = tag & 3
                    trace_append((t, k, payload if k == _REL else payload[_SEQ]))
            if is_arrival:
                if generated < total_budget:
                    seq = generated
                    generated += 1
                    node = payload
                    if dest_draws is not None:
                        draw = dest_draws[seq]
                        destination = draw + 1 if draw >= node else draw
                    else:
                        destination = pattern_sample(dest_rng, system, node)
                    path = paths(node, destination)
                    measured = warmup <= seq < measured_end
                    grants = []
                    seg = path[0]
                    msg = [seq, node, path, len(path), 0, seg, 0, grants, t, t, measured]
                    cid = seg[0][0]
                    if uncontended[cid]:
                        if measured:
                            source_wait_n += 1  # zero wait on the source queue
                        grants.append(t)
                        eseq += 4
                        push(heap, (t + flit_time[cid], eseq | _HDR, msg))
                    elif not occupancy[cid]:
                        if measured:
                            source_wait_n += 1
                        grants.append(t)
                        occupancy[cid] = 1
                        last_grant[cid] = t
                        eseq += 4
                        push(heap, (t + flit_time[cid], eseq | _HDR, msg))
                    else:
                        waiters[cid].append(msg)
                        occupancy[cid] += 1
                    eseq += 4
                    heapreplace(arr_heap, (t + arr_gen[seq], eseq, node))
                else:
                    # Budget exhausted: no new traffic, no rescheduling.
                    pop(arr_heap)
                if events >= max_events:
                    break
                continue
            kind = tag & 3
            if kind == _HDR:
                msg = payload
                seg = msg[_CUR]
                k = msg[_K]
                if k < seg[4]:
                    k += 1
                    msg[_K] = k
                    cid = seg[0][k]
                    # Mid-segment advance: grants is never empty here, so no
                    # queue-wait statistics at this site.
                    if uncontended[cid]:
                        msg[_GRANTS].append(t)
                        eseq += 4
                        push(heap, (t + flit_time[cid], eseq | _HDR, msg))
                    elif not occupancy[cid]:
                        msg[_GRANTS].append(t)
                        occupancy[cid] = 1
                        last_grant[cid] = t
                        eseq += 4
                        push(heap, (t + flit_time[cid], eseq | _HDR, msg))
                    else:
                        waiters[cid].append(msg)
                        occupancy[cid] += 1
                else:
                    # Header reached the segment sink: schedule drain/releases
                    # for the contended channels (rel_items pre-folds the
                    # release arithmetic and skips uncontended links).
                    grants = msg[_GRANTS]
                    t_del = t + seg[3]
                    for kk, cid, hold_kk, off in seg[5]:
                        release = grants[kk] + hold_kk
                        drain = t_del - off
                        eseq += 4
                        push(heap, (release if release > drain else drain, eseq | _REL, cid))
                    seg_i = msg[_SEG]
                    if seg_i + 1 < msg[_NSEG]:
                        # Cut-through: the header enters the concentrator/
                        # dispatcher and immediately requests the next
                        # segment's injection channel; the segment just
                        # finished drains independently behind it.
                        seg = msg[_PATH][seg_i + 1]
                        msg[_SEG] = seg_i + 1
                        msg[_CUR] = seg
                        msg[_K] = 0
                        msg[_GRANTS] = grants = []
                        msg[_REQ_T] = t
                        cid = seg[0][0]
                        if uncontended[cid]:
                            if msg[_MEAS]:
                                cd_wait_n += 1  # zero wait on the c/d queue
                            grants.append(t)
                            eseq += 4
                            push(heap, (t + flit_time[cid], eseq | _HDR, msg))
                        elif not occupancy[cid]:
                            if msg[_MEAS]:
                                cd_wait_n += 1
                            grants.append(t)
                            occupancy[cid] = 1
                            last_grant[cid] = t
                            eseq += 4
                            push(heap, (t + flit_time[cid], eseq | _HDR, msg))
                        else:
                            waiters[cid].append(msg)
                            occupancy[cid] += 1
                    else:
                        eseq += 4
                        push(heap, (t_del, eseq | _DEL, msg))
            elif kind == _REL:
                cid = payload
                busy[group[cid]] += t - last_grant[cid]
                remaining = occupancy[cid] - 1
                occupancy[cid] = remaining
                if remaining:
                    msg = waiters[cid].popleft()
                    last_grant[cid] = t
                    grants = msg[_GRANTS]
                    if not grants and msg[_MEAS]:
                        # First channel of a segment: queue-wait statistics.
                        wait = t - msg[_REQ_T]
                        if msg[_SEG] == 0:
                            source_wait_sum += wait
                            source_wait_n += 1
                        else:
                            cd_wait_sum += wait
                            cd_wait_n += 1
                    grants.append(t)
                    eseq += 4
                    push(heap, (t + flit_time[cid], eseq | _HDR, msg))
            elif payload[_MEAS]:
                # _DEL (only a journey's last segment schedules one): the
                # measured delivery, on the LatencyCollector.record fast
                # path — the window check is the _MEAS flag itself.
                msg = payload
                lat_append(t - msg[_GEN_T])
                inter_append(msg[_NSEG] > 1)
                src_append(cluster_index[msg[_SRC]])
                delivered += 1
                if delivered >= measured_target:
                    completed = True
                    break
            if events >= max_events:
                break

        collector.delivered_measured = delivered

        wall = _time.perf_counter() - wall_start
        stats = self.collector.stats()
        busy_by_group = {name: busy[i] for i, name in enumerate(GROUPS)}
        result = RawRunResult(
            stats=stats,
            per_cluster_means=self.collector.per_cluster_means(),
            duration=t,
            events=events,
            completed=completed,
            generated=generated,
            source_wait_mean=source_wait_sum / source_wait_n if source_wait_n else float("nan"),
            concentrator_wait_mean=cd_wait_sum / cd_wait_n if cd_wait_n else float("nan"),
            busy_time_by_group=busy_by_group,
            wall_seconds=wall,
        )
        self._last_result = result
        return result

    def trajectory(self):
        """The engine-invariant :class:`~repro.simulation.eventcore.Trajectory`
        of the last completed :meth:`run` — the public surface the
        differential and golden-corpus tests compare engines on."""
        require(self._last_result is not None, "run() must complete before trajectory()")
        from repro.simulation.eventcore import build_trajectory

        return build_trajectory(self.collector, self._last_result)
