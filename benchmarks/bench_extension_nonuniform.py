"""Extension — non-uniform traffic (the paper's §5 future-work item).

Validates the generalised model (pattern-aware U_i and destination
weights) against the simulator under a locality pattern, and charts how
the saturation load responds to locality — the analysis the paper says it
intends to do next.  The timed core is the generalised model evaluation.
"""

import pytest

from repro.analysis import render_table
from repro.cluster import homogeneous_system
from repro.core import AnalyticalModel, MessageSpec
from repro.core.sweep import find_saturation_load
from repro.simulation import MeasurementWindow, SimulationSession
from repro.workloads import LocalityTraffic

from benchmarks.conftest import bench_messages, emit

SYSTEM = homogeneous_system(switch_ports=8, tree_depth=2, num_clusters=8)  # 256 nodes
MESSAGE = MessageSpec(32, 256.0)


@pytest.mark.benchmark(group="extensions")
def test_extension_nonuniform(benchmark, out_dir):
    model_mid = AnalyticalModel(SYSTEM, MESSAGE, pattern=LocalityTraffic(0.5))
    benchmark(model_mid.evaluate, 3e-4)

    window = MeasurementWindow.scaled_paper(max(4000, bench_messages() // 4))
    rows = []
    for locality in (0.2, 0.5, 0.8):
        pattern = LocalityTraffic(locality)
        model = AnalyticalModel(SYSTEM, MESSAGE, pattern=pattern)
        lam = 0.2 * find_saturation_load(model)
        predicted = model.evaluate(lam).latency
        session = SimulationSession(SYSTEM, MESSAGE, pattern=pattern)
        sim = session.run(lam, seed=5, window=window)
        err = (predicted - sim.mean_latency) / sim.mean_latency
        rows.append(
            [locality, lam, predicted, sim.mean_latency, err,
             sim.stats.count_intra / sim.stats.count, find_saturation_load(model)]
        )
        assert abs(err) < 0.15
        # The measured intra share realises the pattern's declared locality.
        assert sim.stats.count_intra / sim.stats.count == pytest.approx(locality, abs=0.03)

    text = render_table(
        ["locality", "lambda_g", "model", "simulation", "rel_err", "sim intra share", "λ*"],
        rows,
        title="Non-uniform traffic extension: generalised model vs simulator",
    )
    emit(out_dir, "extension_nonuniform", text, payload={"rows": rows})
