"""Array-based event core for the message-level wormhole simulator.

The reference engine (:mod:`repro.simulation.wormhole`) is a locals-bound
CPython loop; this module is the ``engine="array"`` core, the default of
every message-level run, which runs the *same* event loop over flat
arrays:

* the event heap is three parallel columns ``(time, tie-break tag,
  payload)`` that the compiled kernel sifts by the strict ``(time, tag)``
  order of the reference loop's :mod:`heapq` tuples — trajectory
  equality with the reference loop is what proves that order;
* the stochastic streams are consumed as batched slices: the arrival race
  is pre-resolved into a *generation schedule* (which node generates
  message ``s``, and when) by :func:`generation_schedule` /
  ``eventcore_prepass``, and uniform destinations are adjusted in one
  vectorized expression;
* each message's path is its row of leg ids, built for the whole run at
  once by the fabric's batched closed-form legs (``fabric.leg_rows``),
  and the segment tables (channel ids, ``M·τ_k`` holds, drains and
  release offsets as contiguous arrays) are derived with numpy from the
  fabric's flat leg table and shared across runs of a session, so a
  segment id is a leg id;
* the per-channel tables (flit times, groups, uncontended flags) are the
  fabric's own arrays, filled from the system's channel blocks, read
  without a copy.

The hot loop itself lives in ``_eventcore.c``, compiled on demand with
the system C compiler and loaded through :mod:`ctypes` — no third-party
dependency, no CPython API.  The compiled library is cached in a
directory private to the user (``$TMPDIR/repro-eventcore-<uid>``, or
``REPRO_EVENTCORE_CACHE``), and a cache directory or library that another
user owns or can write is refused rather than loaded.  When the kernel
cannot be built or loaded (no compiler, a compile or load error, an ABI
mismatch, an untrusted cache, or ``REPRO_SIM_KERNEL=0``),
``engine="array"`` runs the reference loop and says so with a
:class:`RuntimeWarning` naming the reason, so results never depend on the
toolchain.

Bit-identical-trajectory contract
---------------------------------
For any (spec, seed, window) the array engine reproduces the reference
engine's trajectory exactly — event order, per-message grant times, float
accumulation order of busy/wait sums, latency records — not just
statistically.  ``tests/test_eventcore.py`` enforces this differentially
across registry scenarios × seeds, and the golden-trajectory corpus
(``tests/goldens/trajectories.json``) pins digests of
:func:`trajectory_digest` so either engine drifting fails CI by name.
"""

from __future__ import annotations

import ctypes
import hashlib
import heapq
import json
import os
import shutil
import stat
import subprocess
import sys
import tempfile
import time as _time
import weakref
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro._util import require
from repro.simulation.fabric import GROUPS

__all__ = [
    "Trajectory",
    "array_run",
    "build_trajectory",
    "canonical_trajectory",
    "generation_schedule",
    "kernel_available",
    "kernel_prepass",
    "trajectory_digest",
]

# ---------------------------------------------------------------------------
# generation schedule (the arrival-race pre-pass)
# ---------------------------------------------------------------------------


def generation_schedule(
    gaps: np.ndarray, n_nodes: int, total: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Resolve the per-node Poisson arrival race into a flat schedule.

    Which node generates message ``s`` (and when) depends only on the
    arrival gaps, never on network state, so the reference engine's
    arrival heap can be raced ahead of time.  Mirrors the reference
    exactly: node ``i``'s first arrival is ``gaps[i]`` with a tie-break
    tag monotone in node order, generation ``s`` reschedules its node at
    ``t + gaps[n_nodes + s]`` with the next monotone tag.  Returns
    ``(g_time, g_node, dead_time, dead_node)`` — the ``n_nodes`` arrivals
    left pending after the budget ("dead": popped as events but
    generating nothing) drain in pop order, all at or after the last
    generation.  This is the pure-Python specification of the kernel's
    ``eventcore_prepass``; both are differentially tested.
    """
    gaps = np.asarray(gaps, dtype=np.float64)
    require(gaps.size >= n_nodes + total, "gaps must cover n_nodes + total draws")
    heap = [(float(gaps[i]), i, i) for i in range(n_nodes)]
    heapq.heapify(heap)
    g_time = np.empty(total, dtype=np.float64)
    g_node = np.empty(total, dtype=np.int32)
    next_tag = n_nodes
    for s in range(total):
        t, _, node = heap[0]
        g_time[s] = t
        g_node[s] = node
        heapq.heapreplace(heap, (t + float(gaps[n_nodes + s]), next_tag, node))
        next_tag += 1
    dead_time = np.empty(n_nodes, dtype=np.float64)
    dead_node = np.empty(n_nodes, dtype=np.int32)
    for i in range(n_nodes):
        t, _, node = heapq.heappop(heap)
        dead_time[i] = t
        dead_node[i] = node
    return g_time, g_node, dead_time, dead_node


# ---------------------------------------------------------------------------
# compiled kernel: build, load, call
# ---------------------------------------------------------------------------

_C_SOURCE = Path(__file__).with_name("_eventcore.c")
_KERNEL_ABI = 2
#: Contraction must stay off: fusing a*b+c into FMA would change results
#: relative to CPython's one-operation-at-a-time float semantics.
_KERNEL_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-unsafe-math-optimizations")

_KERNEL_UNSET = object()
_KERNEL: object = _KERNEL_UNSET
#: Why the kernel is unavailable when ``_KERNEL`` is None: the engine
#: fallback names it.
_KERNEL_REASON = "the compiled event kernel is not loaded"


class _KernelUnavailable(Exception):
    """One reason the compiled kernel cannot be built or loaded."""


class _StateStruct(ctypes.Structure):
    """ctypes mirror of ``EventCoreState`` — field order must match the C struct."""

    _fields_ = [
        (name, ctypes.c_int64)
        for name in (
            "n_channels", "n_nodes", "total", "n_dead", "warmup", "measured_end",
            "measured_target", "max_events", "grants_stride",
            "heap_cap", "trace_cap", "eseq0",
        )
    ] + [
        (name, ctypes.c_void_p)
        for name in (
            "flit_time", "uncontended", "group", "cluster_index",
            "g_time", "g_node", "dead_time", "dead_node",
            "m_path", "p_off", "p_segs", "s_cid_off", "s_cids", "s_hold",
            "s_drain", "s_rel_off", "r_kk", "r_cid", "r_hold", "r_off",
            "heap_time", "heap_tag", "heap_payload", "node_tag",
            "m_seg", "m_k", "m_gc", "m_qnext", "m_reqt", "grants",
            "occupancy", "last_grant", "q_head", "q_tail", "busy",
            "lat", "inter", "src_cluster",
            "trace_time", "trace_kind", "trace_id",
            "out_i", "out_f", "out_w",
        )
    ]


def _require_private(path: Path, is_kind, kind: str) -> None:
    """Refuse ``path`` unless it is a ``kind`` (not a symlink) that this
    user owns and that neither its group nor other users can write.

    The loaded library runs in this process, and the default cache path
    under the shared temporary directory is predictable, so a directory
    or kernel file another user could have planted is never trusted.
    """
    info = os.lstat(path)
    if not is_kind(info.st_mode):
        raise _KernelUnavailable(f"the kernel cache {path} is not a {kind}")
    if hasattr(os, "getuid") and info.st_uid != os.getuid():
        raise _KernelUnavailable(
            f"the kernel cache {path} is owned by uid {info.st_uid}, not this user"
        )
    if info.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        raise _KernelUnavailable(f"the kernel cache {path} is writable by its group or others")


def _cache_dir() -> Path:
    """The private (mode 0o700) directory of compiled kernels, checked by
    :func:`_require_private`."""
    override = os.environ.get("REPRO_EVENTCORE_CACHE")
    uid = os.getuid() if hasattr(os, "getuid") else 0
    path = Path(override) if override else Path(tempfile.gettempdir()) / f"repro-eventcore-{uid}"
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
    except OSError as exc:
        raise _KernelUnavailable(f"cannot create the kernel cache {path}: {exc}") from exc
    _require_private(path, stat.S_ISDIR, "directory")
    return path


def _build_kernel() -> ctypes.CDLL:
    """Compile (once, cached by source digest) and load the kernel.

    Raises :class:`_KernelUnavailable` naming the reason it cannot.
    """
    switch = os.environ.get("REPRO_SIM_KERNEL", "")
    if switch.lower() in ("0", "off", "reference"):
        raise _KernelUnavailable(f"REPRO_SIM_KERNEL={switch} turns the kernel off")
    try:
        source = _C_SOURCE.read_bytes()
    except OSError as exc:
        raise _KernelUnavailable(f"cannot read the kernel source: {exc}") from exc
    tag = hashlib.sha256(
        source + " ".join(_KERNEL_FLAGS).encode() + sys.platform.encode()
    ).hexdigest()[:16]
    so_path = _cache_dir() / f"_eventcore-{tag}.so"
    if so_path.exists():
        _require_private(so_path, stat.S_ISREG, "regular file")
    else:
        cc = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
        if cc is None:
            raise _KernelUnavailable("no C compiler (cc, gcc or clang) on PATH")
        try:
            tmp = so_path.with_suffix(f".{os.getpid()}.tmp")
            subprocess.run(
                [cc, *_KERNEL_FLAGS, str(_C_SOURCE), "-o", str(tmp)],
                check=True, capture_output=True, timeout=120,
            )
            os.chmod(tmp, 0o755)  # whatever the umask, the next load's check passes
            os.replace(tmp, so_path)
        except (OSError, subprocess.SubprocessError) as exc:
            raise _KernelUnavailable(f"compiling the kernel with {cc} failed: {exc}") from exc
    try:
        lib = ctypes.CDLL(str(so_path))
    except OSError as exc:
        raise _KernelUnavailable(f"cannot load {so_path}: {exc}") from exc
    lib.eventcore_abi.restype = ctypes.c_int64
    lib.eventcore_abi.argtypes = []
    abi = lib.eventcore_abi()
    if abi != _KERNEL_ABI:
        raise _KernelUnavailable(f"kernel ABI {abi} does not match the expected {_KERNEL_ABI}")
    lib.eventcore_run.restype = ctypes.c_int64
    lib.eventcore_run.argtypes = [ctypes.POINTER(_StateStruct)]
    lib.eventcore_prepass.restype = ctypes.c_int64
    lib.eventcore_prepass.argtypes = [ctypes.c_int64, ctypes.c_int64] + [ctypes.c_void_p] * 8
    return lib


def _kernel() -> "ctypes.CDLL | None":
    global _KERNEL, _KERNEL_REASON
    if _KERNEL is _KERNEL_UNSET:
        try:
            _KERNEL = _build_kernel()
        except _KernelUnavailable as exc:
            _KERNEL = None
            _KERNEL_REASON = str(exc)
    return _KERNEL  # type: ignore[return-value]


def kernel_available() -> bool:
    """True if the compiled event kernel built (or was cached) and loaded."""
    return _kernel() is not None


def kernel_prepass(
    gaps: np.ndarray, n_nodes: int, total: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The compiled counterpart of :func:`generation_schedule`."""
    lib = _kernel()
    require(lib is not None, "compiled event kernel unavailable")
    gaps = np.ascontiguousarray(gaps, dtype=np.float64)
    require(gaps.size >= n_nodes + total, "gaps must cover n_nodes + total draws")
    g_time = np.empty(total, dtype=np.float64)
    g_node = np.empty(total, dtype=np.int32)
    dead_time = np.empty(n_nodes, dtype=np.float64)
    dead_node = np.empty(n_nodes, dtype=np.int32)
    ht = np.empty(n_nodes, dtype=np.float64)
    hg = np.empty(n_nodes, dtype=np.int64)
    hp = np.empty(n_nodes, dtype=np.int32)
    rc = lib.eventcore_prepass(
        n_nodes, total,
        gaps.ctypes.data, ht.ctypes.data, hg.ctypes.data, hp.ctypes.data,
        g_time.ctypes.data, g_node.ctypes.data,
        dead_time.ctypes.data, dead_node.ctypes.data,
    )
    require(rc == 0, f"eventcore_prepass failed with status {rc}")
    return g_time, g_node, dead_time, dead_node


# ---------------------------------------------------------------------------
# flat leg tables (cached per fabric)
# ---------------------------------------------------------------------------

#: fabric -> _EventCoreContext.  Weak on the fabric, and no context refers
#: back to it, so a discarded session releases its tables.
_CONTEXTS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


class _EventCoreContext:
    """Flat leg tables for one fabric.

    The kernel's segment tables are derived with numpy from the fabric's
    leg table (``fabric.leg_table``) — so a segment id is a leg id — and
    rebuilt only when the table grew; a session reuses them across load
    points and seeds.  The context holds no reference to its fabric:
    callers pass it to :meth:`paths_for` and :meth:`arrays`.
    """

    def __init__(self, fabric) -> None:
        # The fabric's per-channel tables are already contiguous in the
        # kernel's dtypes; the context references them.
        self.flit_time = fabric.flit_time
        self.uncontended = fabric.uncontended
        self.group = fabric.group
        self.cluster_index = np.asarray(fabric.cluster_index, dtype=np.int32)
        self.n_channels = fabric.num_channels
        self._arrays: "dict[str, np.ndarray] | None" = None
        self._tabled = 0  # legs in self._arrays

    def paths_for(
        self, fabric, g_node: np.ndarray, g_dest: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One row of leg ids per message, as ``(p_off, p_segs)``; the
        fabric builds the run's absent legs in batches."""
        return fabric.leg_rows(g_node, g_dest)

    def arrays(self, fabric) -> dict:
        """Contiguous segment tables of every leg (rebuilt when the table grew).

        The same float operations as ``fabric.hot_records``, elementwise:
        ``s_hold = M·τ_c`` per channel, ``s_drain = (M−1)·τ*`` per leg, and
        for each contended channel ``k`` of a leg the release item ``(k,
        cid, M·τ_k, (last−k)·τ*)``.
        """
        if self._arrays is None or fabric.num_legs != self._tabled:
            offsets, cids, tau = fabric.leg_table()
            m = fabric.message.length_flits
            lengths = np.diff(offsets)
            leg = np.repeat(np.arange(tau.size), lengths)
            kk = np.arange(cids.size) - offsets[:-1][leg]
            hold = m * self.flit_time[cids]
            contended = self.uncontended[cids] == 0
            rel = np.flatnonzero(contended)
            rel_leg = leg[rel]
            self._arrays = {
                "s_cid_off": offsets.astype(np.int32),
                "s_cids": cids,
                "s_hold": hold,
                "s_drain": (m - 1) * tau,
                "s_rel_off": np.concatenate(([0], np.cumsum(contended)))[offsets].astype(np.int32),
                "r_kk": kk[rel].astype(np.int32),
                "r_cid": cids[rel],
                "r_hold": hold[rel],
                "r_off": (lengths[rel_leg] - 1 - kk[rel]) * tau[rel_leg],
            }
            self._tabled = tau.size
        return self._arrays


def _context_for(fabric) -> _EventCoreContext:
    ctx = _CONTEXTS.get(fabric)
    if ctx is None:
        ctx = _CONTEXTS[fabric] = _EventCoreContext(fabric)
    return ctx


# ---------------------------------------------------------------------------
# the array-engine run
# ---------------------------------------------------------------------------


def array_run(sim, *, max_events: int = 500_000_000, trace: "list | None" = None):
    """Run *sim* (a :class:`MessageLevelWormholeSimulator`) on the kernel.

    Returns the same :class:`~repro.simulation.wormhole.RawRunResult` the
    reference loop would, fills ``sim.collector`` identically, and (when
    *trace* is given) appends the same ``(time, kind, id)`` event stream
    the reference loop traces.
    """
    lib = _kernel()
    require(
        lib is not None,
        f"compiled event kernel unavailable ({_KERNEL_REASON}); use engine='reference'",
    )
    wall_start = _time.perf_counter()

    window = sim.window
    total = window.total
    system = sim.fabric.system
    n_nodes = system.total_nodes
    ctx = _context_for(sim.fabric)

    gaps = sim._arrival_gaps_array
    g_time, g_node, dead_time, dead_node = kernel_prepass(gaps, n_nodes, total)

    if sim._dest_draws_array is not None:
        draws = sim._dest_draws_array
        # draw >= node maps [0, N-1) onto [0, N) minus the source — the
        # same adjustment the reference applies per generation.
        g_dest = draws + (draws >= g_node)
    else:
        sample = sim.pattern.sample_destination
        dest_rng = sim.streams.destinations
        g_dest = np.fromiter(
            (sample(dest_rng, system, int(node)) for node in g_node),
            dtype=np.int64,
            count=total,
        )
    # A message's path id is its sequence number: row s of (p_off, p_segs)
    # holds message s's leg ids, which are its segment ids.
    p_off, p_segs = ctx.paths_for(sim.fabric, g_node, g_dest)
    tables = ctx.arrays(sim.fabric)
    m_path = np.arange(total, dtype=np.int32)
    hops = np.diff(tables["s_cid_off"])[p_segs]
    gstride = int(hops.max())

    measured_target = window.measured
    heap_cap = total + ctx.n_channels + 8
    trace_cap = 0
    if trace is not None:
        max_hops = int(np.add.reduceat(hops, p_off[:-1]).max())
        bound = total * (2 * max_hops + 4) + 2 * n_nodes + 16
        trace_cap = min(bound, max_events + 4)

    heap_time = np.empty(heap_cap, dtype=np.float64)
    heap_tag = np.empty(heap_cap, dtype=np.int64)
    heap_payload = np.empty(heap_cap, dtype=np.int32)
    node_tag = (np.arange(n_nodes, dtype=np.int64) + 1) * 4
    m_seg = np.zeros(total, dtype=np.int32)
    m_k = np.zeros(total, dtype=np.int32)
    m_gc = np.zeros(total, dtype=np.int32)
    m_qnext = np.empty(total, dtype=np.int32)
    m_reqt = np.zeros(total, dtype=np.float64)
    grants = np.zeros(total * gstride, dtype=np.float64)
    occupancy = np.zeros(ctx.n_channels, dtype=np.int32)
    last_grant = np.zeros(ctx.n_channels, dtype=np.float64)
    q_head = np.full(ctx.n_channels, -1, dtype=np.int32)
    q_tail = np.full(ctx.n_channels, -1, dtype=np.int32)
    busy = np.zeros(len(GROUPS), dtype=np.float64)
    lat = np.empty(measured_target, dtype=np.float64)
    inter = np.empty(measured_target, dtype=np.int8)
    src_cluster = np.empty(measured_target, dtype=np.int32)
    trace_time = np.empty(trace_cap, dtype=np.float64)
    trace_kind = np.empty(trace_cap, dtype=np.int8)
    trace_id = np.empty(trace_cap, dtype=np.int32)
    out_i = np.zeros(8, dtype=np.int64)
    out_f = np.zeros(4, dtype=np.float64)
    out_w = np.zeros(2, dtype=np.int64)

    state = _StateStruct(
        n_channels=ctx.n_channels,
        n_nodes=n_nodes,
        total=total,
        n_dead=n_nodes,
        warmup=window.warmup,
        measured_end=window.warmup + window.measured,
        measured_target=measured_target,
        max_events=max_events,
        grants_stride=gstride,
        heap_cap=heap_cap,
        trace_cap=trace_cap,
        eseq0=4 * n_nodes,
        flit_time=ctx.flit_time.ctypes.data,
        uncontended=ctx.uncontended.ctypes.data,
        group=ctx.group.ctypes.data,
        cluster_index=ctx.cluster_index.ctypes.data,
        g_time=g_time.ctypes.data,
        g_node=g_node.ctypes.data,
        dead_time=dead_time.ctypes.data,
        dead_node=dead_node.ctypes.data,
        m_path=m_path.ctypes.data,
        p_off=p_off.ctypes.data,
        p_segs=p_segs.ctypes.data,
        s_cid_off=tables["s_cid_off"].ctypes.data,
        s_cids=tables["s_cids"].ctypes.data,
        s_hold=tables["s_hold"].ctypes.data,
        s_drain=tables["s_drain"].ctypes.data,
        s_rel_off=tables["s_rel_off"].ctypes.data,
        r_kk=tables["r_kk"].ctypes.data,
        r_cid=tables["r_cid"].ctypes.data,
        r_hold=tables["r_hold"].ctypes.data,
        r_off=tables["r_off"].ctypes.data,
        heap_time=heap_time.ctypes.data,
        heap_tag=heap_tag.ctypes.data,
        heap_payload=heap_payload.ctypes.data,
        node_tag=node_tag.ctypes.data,
        m_seg=m_seg.ctypes.data,
        m_k=m_k.ctypes.data,
        m_gc=m_gc.ctypes.data,
        m_qnext=m_qnext.ctypes.data,
        m_reqt=m_reqt.ctypes.data,
        grants=grants.ctypes.data,
        occupancy=occupancy.ctypes.data,
        last_grant=last_grant.ctypes.data,
        q_head=q_head.ctypes.data,
        q_tail=q_tail.ctypes.data,
        busy=busy.ctypes.data,
        lat=lat.ctypes.data,
        inter=inter.ctypes.data,
        src_cluster=src_cluster.ctypes.data,
        trace_time=trace_time.ctypes.data,
        trace_kind=trace_kind.ctypes.data,
        trace_id=trace_id.ctypes.data,
        out_i=out_i.ctypes.data,
        out_f=out_f.ctypes.data,
        out_w=out_w.ctypes.data,
    )
    rc = lib.eventcore_run(ctypes.byref(state))
    require(rc == 0, f"eventcore_run failed with status {rc}")

    events = int(out_i[0])
    generated = int(out_i[1])
    delivered = int(out_i[2])
    completed = bool(out_i[3])
    now = float(out_f[0])
    source_wait_sum = float(out_f[1])
    cd_wait_sum = float(out_f[2])
    source_wait_n = int(out_w[0])
    cd_wait_n = int(out_w[1])

    if trace is not None:
        tlen = int(out_i[4])
        trace.extend(
            zip(
                trace_time[:tlen].tolist(),
                trace_kind[:tlen].tolist(),
                trace_id[:tlen].tolist(),
            )
        )

    collector = sim.collector
    collector._latencies = lat[:delivered].tolist()
    collector._is_inter = inter[:delivered].astype(bool).tolist()
    collector._src_clusters = src_cluster[:delivered].tolist()
    collector.delivered_measured = delivered

    from repro.simulation.wormhole import RawRunResult

    wall = _time.perf_counter() - wall_start
    stats = collector.stats()
    busy_by_group = {name: float(busy[i]) for i, name in enumerate(GROUPS)}
    return RawRunResult(
        stats=stats,
        per_cluster_means=collector.per_cluster_means(),
        duration=now,
        events=events,
        completed=completed,
        generated=generated,
        source_wait_mean=source_wait_sum / source_wait_n if source_wait_n else float("nan"),
        concentrator_wait_mean=cd_wait_sum / cd_wait_n if cd_wait_n else float("nan"),
        busy_time_by_group=busy_by_group,
        wall_seconds=wall,
    )


# ---------------------------------------------------------------------------
# trajectories: the shared engine-comparison surface
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Trajectory:
    """The engine-invariant outcome of one simulator run.

    Everything here must be bit-identical between the reference and array
    engines (and across the kernel/fallback paths) for a fixed (spec,
    seed, window, granularity); the golden corpus pins
    :func:`trajectory_digest` of these fields.  Wall-clock time is
    deliberately excluded.

    Equality compares digests, so two trajectories are ``==`` exactly
    when their canonical (hex-float) outcomes match — including NaN wait
    means from runs truncated before any measured delivery, which plain
    field equality would spuriously report as different.
    """

    version: str
    events: int
    generated: int
    duration: float
    completed: bool
    latencies: tuple
    inter_cluster: tuple
    source_clusters: tuple
    busy_time_by_group: tuple
    source_wait_mean: float
    concentrator_wait_mean: float

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return trajectory_digest(self) == trajectory_digest(other)


def build_trajectory(collector, raw) -> Trajectory:
    """The :class:`Trajectory` of a finished run (collector + raw result)."""
    from repro.simulation.runner import TRAJECTORY_VERSION

    return Trajectory(
        version=TRAJECTORY_VERSION,
        events=raw.events,
        generated=raw.generated,
        duration=raw.duration,
        completed=raw.completed,
        latencies=tuple(collector._latencies),
        inter_cluster=tuple(bool(b) for b in collector._is_inter),
        source_clusters=tuple(int(c) for c in collector._src_clusters),
        busy_time_by_group=tuple(raw.busy_time_by_group.items()),
        source_wait_mean=raw.source_wait_mean,
        concentrator_wait_mean=raw.concentrator_wait_mean,
    )


def canonical_trajectory(trajectory: Trajectory) -> dict:
    """A JSON-stable dict with every float hex-encoded (bit-exact)."""

    def fx(value: float) -> str:
        return float(value).hex()

    return {
        "version": trajectory.version,
        "events": int(trajectory.events),
        "generated": int(trajectory.generated),
        "completed": bool(trajectory.completed),
        "duration": fx(trajectory.duration),
        "latencies": [fx(v) for v in trajectory.latencies],
        "inter_cluster": [int(b) for b in trajectory.inter_cluster],
        "source_clusters": [int(c) for c in trajectory.source_clusters],
        "busy_time_by_group": {g: fx(v) for g, v in trajectory.busy_time_by_group},
        "source_wait_mean": fx(trajectory.source_wait_mean),
        "concentrator_wait_mean": fx(trajectory.concentrator_wait_mean),
    }


def trajectory_digest(trajectory: Trajectory) -> str:
    """sha256 of the canonical trajectory — the golden-corpus currency.

    The digest leaves ``version`` out on purpose, as the model corpus
    leaves ``ENGINE_VERSION`` out: a refactor that bumps
    ``TRAJECTORY_VERSION`` without moving a trajectory keeps every digest.
    """
    canon = canonical_trajectory(trajectory)
    del canon["version"]
    payload = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
