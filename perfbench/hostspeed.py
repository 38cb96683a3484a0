"""Host-speed probe: a background thread timing a fixed pure-Python loop.

On a shared 2-core virtual machine the same code runs at different speeds
in phases that last several seconds: a pure-Python loop sampled once a
second reads ±10 % around its usual rate, with bursts to +45 %.  A 20 s
body cannot average such phases out, so the worker scales each pass's
duration by the probe's speed during that pass relative to
:data:`REFERENCE_SPEED`: a throughput then reads as it would on a host
running the probe at the reference speed.

The probe times its loop in thread CPU time, so time spent waiting for
the interpreter lock or for a core does not read as a slow host; only
the speed of the core while it runs does.  The two cores of such a host
change speed separately, so before each sample the probe moves to the
core the work runs on: the core the main thread last ran on or, while
the process has child processes (a worker pool, whose work runs on every
core), each core in turn.  On that host the same-core probe tracked the
speed of ``validate_cold`` and ``explore_stacked`` passes (r = 0.83 and
0.85 over 9 and 60 passes) far better than a probe left to run on either
core (r = 0.59 and 0.50).  The probe holds the interpreter lock for about
2 ms every 50 ms, the same share in every run.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from pathlib import Path

#: Probe loop iterations per CPU second that a scaled throughput refers to
#: (close to what the 2-core host the benchmark was tuned on reads).
REFERENCE_SPEED = 1.0e7

_LOOP = 20_000
_PERIOD_S = 0.05


class HostSpeed:
    """Samples the host's speed in a daemon thread while in a ``with`` block."""

    def __init__(self) -> None:
        # (perf_counter at the end of a sample, loop iterations per CPU second)
        self._samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="host-speed", daemon=True)
        self._main_stat = f"/proc/self/task/{threading.get_native_id()}/stat"
        self._visits = 0
        try:
            self._cores = sorted(os.sched_getaffinity(0))
        except AttributeError:  # no affinity control: the probe runs where it runs
            self._cores = []

    def __enter__(self) -> "HostSpeed":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        start = time.thread_time()
        total = 0
        for i in range(_LOOP):
            total += i * i % 7
        cpu = time.thread_time() - start
        if cpu > 0:
            self._samples.append((time.perf_counter(), _LOOP / cpu))

    def _follow_work(self) -> None:
        """Pin this thread to the core the work runs on (see the module notes)."""
        if not self._cores:
            return
        try:
            tasks = os.listdir("/proc/self/task")
            if any(Path(f"/proc/self/task/{t}/children").read_bytes().strip() for t in tasks):
                core = self._cores[self._visits % len(self._cores)]
                self._visits += 1
            else:
                with open(self._main_stat, "rb") as stat:
                    # Field 39, "processor", counted after the parenthesised name.
                    core = int(stat.read().rsplit(b")", 1)[1].split()[36])
            os.sched_setaffinity(0, {core})
        except (OSError, IndexError, ValueError):
            pass

    def _run(self) -> None:
        while not self._stop.wait(_PERIOD_S):
            self._follow_work()
            self._sample()

    def scale(self, begin: float, end: float) -> float:
        """Median probe speed over ``[begin, end]`` relative to the reference.

        A window too short to hold a sample takes the sample closest to it.
        """
        inside = [speed for at, speed in self._samples if begin <= at <= end]
        if not inside:
            inside = [min(self._samples, key=lambda s: abs(s[0] - end))[1]]
        return statistics.median(inside) / REFERENCE_SPEED
