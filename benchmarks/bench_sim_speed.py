"""Performance — simulator throughput (events/second) at both granularities.

Quantifies the cost of validation runs: the message-level reference loop
and its speedup under the compiled array core (the default engine) on a
paper system, the flit-level engine on the small reference system, and
the process-pool replication fan-out (serial vs ``jobs=auto`` wall-clock
and the bit-equality of their results).
"""

import os

import pytest

from repro.cluster import homogeneous_system
from repro.core import MessageSpec, paper_system_544
from repro.simulation import MeasurementWindow, SimulationSession, replicate

from benchmarks.conftest import emit


@pytest.mark.benchmark(group="performance")
def test_message_level_throughput_paper_system(benchmark, sessions, out_dir):
    """Events/s of the reference loop, the figure of its single-core
    overhaul; the array core's figure is ``sim_events_per_second.json``."""
    session = sessions.get(paper_system_544(), MessageSpec(32, 256.0))
    window = MeasurementWindow(500, 5000, 500)

    result = benchmark.pedantic(
        lambda: session.run(3e-4, seed=0, window=window, engine="reference"),
        rounds=2,
        iterations=1,
    )
    rate = result.events / result.wall_seconds
    assert result.completed
    emit(
        out_dir,
        "sim_speed_message_level",
        f"message-level reference engine, N=544 @ λ=3e-4: {result.events} events, "
        f"{result.wall_seconds:.2f}s -> {rate:,.0f} events/s",
        payload={"events": result.events, "events_per_second": rate},
    )


@pytest.mark.benchmark(group="performance")
def test_array_engine_speedup(benchmark, sessions, out_dir):
    """Reference loop vs compiled array core at the same operating point.

    Records events/s for both engines (``sim_events_per_second.json``) and
    asserts the results agree modulo wall-clock — the bit-exactness proof
    lives in tests/test_eventcore.py; this is the throughput figure.  On a
    host without a C compiler the array engine falls back to the reference
    loop and the recorded speedup is honestly ~1x.
    """
    from dataclasses import replace

    from repro.simulation import kernel_available

    session = sessions.get(paper_system_544(), MessageSpec(32, 256.0))
    window = MeasurementWindow(500, 5000, 500)

    reference = session.run(3e-4, seed=0, window=window, engine="reference")
    array = benchmark.pedantic(
        lambda: session.run(3e-4, seed=0, window=window, engine="array"),
        rounds=2,
        iterations=1,
    )
    assert replace(array, wall_seconds=0.0) == replace(reference, wall_seconds=0.0)
    ref_rate = reference.events / reference.wall_seconds
    arr_rate = array.events / array.wall_seconds
    speedup = arr_rate / ref_rate
    emit(
        out_dir,
        "sim_events_per_second",
        f"message-level engines, N=544 @ λ=3e-4, {array.events} events "
        f"(kernel {'available' if kernel_available() else 'UNAVAILABLE - fallback'}): "
        f"reference {ref_rate:,.0f} events/s vs array {arr_rate:,.0f} events/s "
        f"-> {speedup:.2f}x (results identical modulo wall-clock)",
        payload={
            "events": array.events,
            "kernel_available": kernel_available(),
            "reference": {"events_per_second": ref_rate, "wall_seconds": reference.wall_seconds},
            "array": {"events_per_second": arr_rate, "wall_seconds": array.wall_seconds},
            "speedup": speedup,
        },
    )


@pytest.mark.benchmark(group="performance")
def test_parallel_replication_speedup(benchmark, sessions, out_dir):
    """Serial vs process-pool replication: speedup figure + bit-equality.

    On a single-core runner the pool costs more than it saves (the figure
    records that honestly); the invariant asserted either way is that the
    parallel path reproduces the serial replicas bit for bit.
    """
    session = sessions.get(paper_system_544(), MessageSpec(32, 256.0))
    window = MeasurementWindow(200, 2000, 200)
    replicas = 4

    serial = replicate(session, 3e-4, replicas=replicas, base_seed=0, window=window)
    parallel = benchmark.pedantic(
        lambda: replicate(session, 3e-4, replicas=replicas, base_seed=0, window=window, jobs=0),
        rounds=1,
        iterations=1,
    )
    assert [r.mean_latency for r in parallel.replicas] == [
        r.mean_latency for r in serial.replicas
    ]
    speedup = serial.elapsed_seconds / parallel.elapsed_seconds
    emit(
        out_dir,
        "sim_speed_parallel_replication",
        f"replication, N=544 @ λ=3e-4, {replicas} replicas: serial "
        f"{serial.elapsed_seconds:.2f}s vs jobs={parallel.jobs} "
        f"{parallel.elapsed_seconds:.2f}s -> {speedup:.2f}x "
        f"({parallel.events_per_second:,.0f} effective events/s, "
        f"{os.cpu_count()} CPUs, results bit-identical)",
        payload={
            "replicas": replicas,
            "jobs": parallel.jobs,
            "cpus": os.cpu_count(),
            "serial_seconds": serial.elapsed_seconds,
            "parallel_seconds": parallel.elapsed_seconds,
            "speedup": speedup,
            "events": parallel.events,
            "effective_events_per_second": parallel.events_per_second,
        },
    )


@pytest.mark.benchmark(group="performance")
def test_flit_level_throughput_small_system(benchmark, sessions, out_dir):
    session = sessions.get(homogeneous_system(switch_ports=4, tree_depth=2, num_clusters=4), MessageSpec(16, 256.0))
    window = MeasurementWindow(200, 1500, 200)

    result = benchmark.pedantic(
        lambda: session.run(1e-3, seed=0, window=window, granularity="flit"), rounds=2, iterations=1
    )
    rate = result.events / result.wall_seconds
    assert result.completed
    emit(
        out_dir,
        "sim_speed_flit_level",
        f"flit-level engine, 32 nodes @ λ=1e-3: {result.events} events, "
        f"{result.wall_seconds:.2f}s -> {rate:,.0f} events/s",
        payload={"events": result.events, "events_per_second": rate},
    )
