"""Performance — design-space exploration throughput (cells/second).

The exploration subsystem's value proposition is that a grid cell — one
full closed-form characterisation of a design (λ*, knee, binding
resource) — costs milliseconds, so design studies scale to thousands of
points.  This bench records the stacked engine's cells/s on a 500-cell
grid together with its speedup over the per-cell serial path *and* over
the recorded PR 4 baseline, so the perf trajectory is self-describing,
the same grid's ``jobs=2`` rate (one stacked shard per worker), plus the
fan-out and cache-hit replay rates of a 24-cell grid.

The figures are recorded, not asserted: wall-clock ratios swing with the
host (a shared 2-core runner moves them by tens of percent), and the
per-cell reference itself runs on the same vectorised engine as the
stacked path, so its rate moves whenever that engine does.
"""

import time

import pytest

from repro.experiments import explore_grid
from repro.experiments.explore import _price_cells
from repro.scenarios import AxisSpec, DesignGrid, get_scenario

from benchmarks.conftest import emit

#: cells/s recorded by this bench when the per-cell engine landed (PR 4),
#: before cross-cell stacking existed — the fixed reference every later
#: run reports its speedup against.
PR4_BASELINE_CELLS_PER_SECOND = 10.0


def study_grid() -> DesignGrid:
    """3 axes, 24 cells on the Table 1 N=544 organisation."""
    return DesignGrid(
        base=get_scenario("544"),
        axes=(
            AxisSpec("system.icn2.bandwidth", (250.0, 375.0, 500.0, 625.0)),
            AxisSpec("message.length_flits", (16, 32, 64)),
            AxisSpec("message.flit_bytes", (128.0, 256.0)),
        ),
    )


def large_grid() -> DesignGrid:
    """3 axes, 500 cells: the stacked engine's acceptance scale."""
    return DesignGrid(
        base=get_scenario("544"),
        axes=(
            AxisSpec(
                "system.icn2.bandwidth", tuple(250.0 + 31.25 * i for i in range(25))
            ),
            AxisSpec("message.length_flits", (16, 24, 32, 48)),
            AxisSpec("message.flit_bytes", (64.0, 128.0, 256.0, 512.0, 1024.0)),
        ),
    )


@pytest.mark.benchmark(group="performance")
def test_explore_cells_per_second(benchmark, out_dir):
    """Stacked cells/s on a 500-cell grid vs the per-cell serial path."""
    grid = large_grid()
    assert grid.size == 500

    # Per-cell serial reference: what one supervised item does per cell
    # (a one-cell stack), timed over a 20-cell sample spread across the grid.
    sample = grid.cells()[:: grid.size // 20][:20]
    t0 = time.perf_counter()
    for cell in sample:
        _price_cells([cell.spec], 4.0)
    per_cell_rate = len(sample) / (time.perf_counter() - t0)

    result = benchmark.pedantic(lambda: explore_grid(grid), rounds=2, iterations=1)
    assert result.data["stacked"] is True
    cells = len(result.data["columns"]["cell"])
    assert cells == grid.size
    seconds = benchmark.stats.stats.min
    rate = cells / seconds
    speedup_per_cell = rate / per_cell_rate
    speedup_pr4 = rate / PR4_BASELINE_CELLS_PER_SECOND

    # The same grid as one stacked shard per worker (recorded, not asserted).
    t0 = time.perf_counter()
    explore_grid(grid, jobs=2)
    sharded_rate = cells / (time.perf_counter() - t0)
    emit(
        out_dir,
        "explore_cells_per_second",
        (
            f"explore, N=544, {cells} cells (3 axes), stacked serial: "
            f"{seconds:.2f}s -> {rate:,.1f} cells/s "
            f"(x{speedup_per_cell:.1f} vs per-cell serial at "
            f"{per_cell_rate:,.1f} cells/s, "
            f"x{speedup_pr4:.1f} vs the PR 4 baseline of "
            f"{PR4_BASELINE_CELLS_PER_SECOND:,.1f} cells/s)"
            f"; stacked shards jobs=2: {sharded_rate:,.1f} cells/s"
        ),
        payload={
            "cells": cells,
            "seconds": seconds,
            "cells_per_second": rate,
            "sharded_jobs2_cells_per_second": sharded_rate,
            "per_cell_serial_cells_per_second": per_cell_rate,
            "speedup_vs_per_cell_serial": speedup_per_cell,
            "pr4_baseline_cells_per_second": PR4_BASELINE_CELLS_PER_SECOND,
            "speedup_vs_pr4_baseline": speedup_pr4,
        },
    )


@pytest.mark.benchmark(group="performance")
def test_explore_parallel_and_cached_replay(benchmark, out_dir, tmp_path_factory):
    """Stacked serial vs jobs=auto stacked shards (same table
    bit-for-bit) and the cache-served replay rate of a warmed grid."""
    grid = study_grid()
    cache = tmp_path_factory.mktemp("explore-cache")

    t0 = time.perf_counter()
    serial = explore_grid(grid)
    serial_s = time.perf_counter() - t0
    assert serial.data["stacked"] is True

    parallel = benchmark.pedantic(
        lambda: explore_grid(grid, jobs=0, cache=cache), rounds=1, iterations=1
    )
    parallel_s = benchmark.stats.stats.min
    assert parallel.data["stacked"] is True
    assert parallel.data["columns"]["saturation_load"] == serial.data["columns"]["saturation_load"]

    t0 = time.perf_counter()
    cached = explore_grid(grid, cache=cache)
    cached_s = time.perf_counter() - t0
    assert cached.data["evaluated"] == 0 and cached.data["cache_hits"] == grid.size
    assert cached.data["columns"]["saturation_load"] == serial.data["columns"]["saturation_load"]

    cells = grid.size
    emit(
        out_dir,
        "explore_parallel_and_cached",
        (
            f"explore, N=544, {cells} cells: stacked serial {cells / serial_s:,.1f} cells/s, "
            f"stacked shards jobs=auto {cells / parallel_s:,.1f} cells/s, "
            f"cache replay {cells / cached_s:,.1f} cells/s"
        ),
        payload={
            "cells": cells,
            "serial_cells_per_second": cells / serial_s,
            "parallel_cells_per_second": cells / parallel_s,
            "parallel_speedup": serial_s / parallel_s,
            "cached_cells_per_second": cells / cached_s,
        },
    )
