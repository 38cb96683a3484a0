"""Ablation — concentrator arrival rate: paper pair-mean vs physical load.

The paper's Eq. 23 feeds the concentrator M/G/1 with the *pair mean*
λ_g(N_i U_i + N_j U_j)/2, which dilutes the hottest concentrator when most
destination clusters are small; the physical queue load is the source
cluster's own outgoing rate λ_g N_i U_i.  Both saturate the biggest cluster
at the same λ*, but the physical reading tracks the simulator better at mid
loads — a beyond-paper correction quantified here.
"""

import pytest

from repro.analysis import render_table
from repro.core import AnalyticalModel, MessageSpec, ModelOptions, paper_system_1120
from repro.core.sweep import find_saturation_load
from repro.simulation import MeasurementWindow

from benchmarks.conftest import SessionCache, bench_messages, emit


@pytest.mark.benchmark(group="ablations")
def test_ablation_concentrator_rate(benchmark, sessions: SessionCache, out_dir):
    system = paper_system_1120()
    message = MessageSpec(32, 256.0)
    paper_model = AnalyticalModel(system, message)
    physical_model = AnalyticalModel(system, message, ModelOptions(concentrator_rate="source_outgoing"))

    # Each round promotes both scalar models to fresh one-cell views, so
    # it times two full saturation searches.
    knees = benchmark(
        lambda: (find_saturation_load(paper_model), find_saturation_load(physical_model))
    )
    # Same binding constraint: the hottest pair's mean equals the hottest
    # cluster's own rate, so both knees coincide.
    assert knees[0] == pytest.approx(knees[1], rel=1e-3)

    window = MeasurementWindow.scaled_paper(max(4000, bench_messages() // 4))
    session = sessions.get(system, message)
    rows = []
    improvements = []
    for fraction in (0.3, 0.5, 0.7):
        lam = fraction * knees[0]
        paper_lat = paper_model.evaluate(lam).latency
        phys_lat = physical_model.evaluate(lam).latency
        sim = session.run(lam, seed=4, window=window).mean_latency
        err_paper = (paper_lat - sim) / sim
        err_phys = (phys_lat - sim) / sim
        rows.append([lam, paper_lat, phys_lat, sim, err_paper, err_phys])
        improvements.append(abs(err_phys) <= abs(err_paper))

    # The physical rate should not be worse on the majority of mid loads.
    assert sum(improvements) >= 2

    text = render_table(
        ["lambda_g", "pair_mean (paper)", "source_outgoing", "simulation", "err paper", "err physical"],
        rows,
        title="Concentrator-rate ablation, N=1120, M=32, Lm=256",
    )
    emit(out_dir, "ablation_concentrator_rate", text, payload={"rows": rows})
