"""Performance — the analytical model as a "practical evaluation tool".

The paper's selling point over simulation is evaluation cost.  This bench
times a full model evaluation for both Table 1 systems, measures the
class-aggregation speedup (DESIGN.md §3), the batched-engine speedup over
a load grid (docs/batched_engine.md) and reports the model-vs-simulation
wall-time ratio for one figure point.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    AnalyticalModel,
    BatchedModel,
    MessageSpec,
    paper_system_544,
    paper_system_1120,
)
from repro.analysis import render_table

from benchmarks.conftest import emit

MESSAGE = MessageSpec(32, 256.0)
GRID_POINTS = 64


def exploded(system):
    """Force one singleton class per cluster via negligible bandwidth offsets."""
    clusters = tuple(
        replace(spec, icn1=replace(spec.icn1, bandwidth=spec.icn1.bandwidth + 1e-9 * (i + 1)))
        for i, spec in enumerate(system.clusters)
    )
    return replace(system, clusters=clusters)


@pytest.mark.benchmark(group="performance")
def test_model_speed_n1120(benchmark):
    model = AnalyticalModel(paper_system_1120(), MESSAGE)
    result = benchmark(model.evaluate, 3e-4)
    assert result.latency > 0


@pytest.mark.benchmark(group="performance")
def test_model_speed_n544(benchmark):
    model = AnalyticalModel(paper_system_544(), MESSAGE)
    result = benchmark(model.evaluate, 5e-4)
    assert result.latency > 0


@pytest.mark.benchmark(group="performance")
def test_batched_grid_speedup(benchmark, out_dir):
    """The headline claim: evaluate_many over a 64-point grid is >= 10x
    faster than 64 scalar evaluate() calls, and the scalar model's own
    saturation test flips within λ*·(1 ± 1e-4) of the closed-form load."""
    rows = []
    payload = {}
    for system in (paper_system_1120(), paper_system_544()):
        model = AnalyticalModel(system, MESSAGE)
        engine = BatchedModel(system, MESSAGE)
        lam_star = engine.saturation_load()
        grid = np.linspace(0.95 * lam_star / GRID_POINTS, 0.95 * lam_star, GRID_POINTS)

        def wall(fn, repeats=3):
            fn()  # warm-up: first-call allocator/ufunc setup stays out of the timing
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                fn()
                best = min(best, time.perf_counter() - start)
            return best

        t_scalar = wall(lambda: [model.evaluate(float(lam)) for lam in grid])
        t_batched = wall(lambda: engine.evaluate_many(grid))
        t_lat_only = wall(lambda: engine.evaluate_many(grid, with_results=False))
        speedup = t_scalar / t_batched
        assert speedup > 10, f"batched speedup x{speedup:.1f} below the 10x floor ({system.name})"

        assert not model.is_saturated(lam_star * (1 - 1e-4))
        assert model.is_saturated(lam_star * (1 + 1e-4))
        rows.append([system.name, GRID_POINTS, t_scalar, t_batched, t_lat_only, f"x{speedup:.1f}"])
        payload[system.name] = {
            "grid_points": GRID_POINTS,
            "scalar_seconds": t_scalar,
            "batched_seconds": t_batched,
            "latency_only_seconds": t_lat_only,
            "speedup": speedup,
            "saturation_closed_form": lam_star,
        }

    benchmark(lambda: BatchedModel(paper_system_1120(), MESSAGE).evaluate_many(
        np.linspace(1e-5, 4.5e-4, GRID_POINTS)
    ))
    text = render_table(
        ["system", "points", "64x scalar (s)", "batched (s)", "latency-only (s)", "speedup"],
        rows,
        title="Batched load-grid engine vs scalar reference",
    )
    emit(out_dir, "model_speed_batched", text, payload=payload)


@pytest.mark.benchmark(group="performance")
def test_model_speed_without_class_aggregation(benchmark, out_dir):
    aggregated = AnalyticalModel(paper_system_1120(), MESSAGE)
    exploded_model = AnalyticalModel(exploded(paper_system_1120()), MESSAGE)
    benchmark(exploded_model.evaluate, 3e-4)

    def wall(model, repeats=3):
        start = time.perf_counter()
        for _ in range(repeats):
            model.evaluate(3e-4)
        return (time.perf_counter() - start) / repeats

    t_agg = wall(aggregated)
    t_exp = wall(exploded_model)
    speedup = t_exp / t_agg
    assert speedup > 5  # 3 classes vs 32 singleton classes

    text = render_table(
        ["variant", "classes", "seconds/eval"],
        [
            ["class-aggregated", len(aggregated.cluster_classes), t_agg],
            ["per-cluster (exploded)", len(exploded_model.cluster_classes), t_exp],
        ],
        title=f"Class aggregation speedup: x{speedup:.1f} (N=1120)",
    )
    emit(out_dir, "model_speed", text, payload={"speedup": speedup})
