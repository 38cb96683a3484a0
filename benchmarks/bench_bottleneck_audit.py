"""Paper §4 bottleneck claim — "the inter-cluster networks, especially
ICN2, are the bottlenecks of the system".

Cross-checks the model's ranked queue/channel utilisations against the
simulator's measured per-group channel utilisations at a mid load for both
Table 1 systems.  The timed core is the model-side audit.
"""

import pytest

from repro.analysis import model_bottlenecks, render_table, sim_bottlenecks
from repro.core import AnalyticalModel, MessageSpec, find_saturation_load
from repro.core.stacked import StackedModel
from repro.cluster import paper_organizations

from benchmarks.conftest import SessionCache, bench_window, emit


@pytest.mark.benchmark(group="claims")
def test_bottleneck_audit(benchmark, sessions: SessionCache, out_dir):
    message = MessageSpec(32, 256.0)
    systems = paper_organizations()

    report = benchmark(
        lambda: model_bottlenecks(StackedModel([(systems[0], message, None, None)]), 3e-4)
    )
    assert report.binding.kind == "concentrator"

    blocks = []
    payload = {}
    for system in systems:
        lam = 0.5 * find_saturation_load(AnalyticalModel(system, message))
        model_view = model_bottlenecks(StackedModel([(system, message, None, None)]), lam)
        sim = sessions.get(system, message).run(lam, seed=0, window=bench_window())
        sim_view = sim_bottlenecks(sim)

        # Model: the binding resource is a concentrator of the largest class.
        assert model_view.binding.kind == "concentrator"
        # Simulator: the concentrate/ICN2 groups out-utilise ICN1/ECN1.
        sim_util = dict(sim.network_utilization)
        assert sim_util["cd-concentrate"] > sim_util["icn1"]
        assert sim_util["cd-concentrate"] > sim_util["ecn1"]

        model_rows = [[r.resource, r.kind, r.utilization] for r in model_view.top(6)]
        sim_rows = [[r.resource, r.kind, r.utilization] for r in sim_view]
        blocks.append(
            render_table(
                ["resource", "kind", "utilization"],
                model_rows,
                title=f"{system.name} @ λ={lam:.2e} — model view (λ*={model_view.saturation_load:.2e})",
            )
            + "\n\n"
            + render_table(
                ["channel group", "kind", "mean utilization"],
                sim_rows,
                title=f"{system.name} — simulator view",
            )
        )
        payload[system.name] = {
            "model": model_rows,
            "sim": sim_rows,
            "load": lam,
        }
    emit(out_dir, "bottleneck_audit", "\n\n".join(blocks), payload=payload)
