"""Paper §4 accuracy claim — "at light traffic the model differs from
simulation by about 4 to 8 percent".

Measures the model-vs-simulation relative error at 20 % of the saturation
load for every Fig. 3-6 configuration and reports the error table.  The
timed core is one full light-load validation point at paper scale
(model + simulation), i.e. the unit of work behind every figure point.
"""

import numpy as np
import pytest

from repro.analysis import render_table
from repro.validation import all_latency_figures, light_load_point

from benchmarks.conftest import SessionCache, bench_window, emit


@pytest.mark.benchmark(group="claims")
def test_accuracy_lightload(benchmark, sessions: SessionCache, out_dir):
    window = bench_window()
    figures = all_latency_figures()

    def one_point():
        fig = figures[0]
        msg = fig.messages[0]
        return light_load_point(sessions.get(fig.system, msg), window=window)

    benchmark.pedantic(one_point, rounds=1, iterations=1)

    rows = []
    errors = []
    for fig in figures:
        for msg in fig.messages:
            point = light_load_point(sessions.get(fig.system, msg), window=window)
            rows.append(
                [
                    fig.figure,
                    fig.system.total_nodes,
                    msg.length_flits,
                    msg.flit_bytes,
                    point.load,
                    point.model_latency,
                    point.sim_latency,
                    point.relative_error,
                ]
            )
            errors.append(abs(point.relative_error))
            assert point.sim_completed

    mean_err = float(np.mean(errors))
    max_err = float(np.max(errors))
    # Paper band is 4-8 %; we accept anything comfortably inside ~12 % to
    # absorb simulator-semantics differences documented in DESIGN.md.
    assert max_err < 0.12, f"light-load error {max_err:.1%} outside band"

    text = render_table(
        ["figure", "N", "M", "Lm", "lambda_g", "model", "sim", "rel_err"],
        rows,
        title="Light-load model accuracy (paper claim: ~4-8%)",
    )
    text += f"\n\nmean |error| = {mean_err:.1%}, max |error| = {max_err:.1%}"
    emit(out_dir, "accuracy_lightload", text, payload={"rows": rows, "mean": mean_err, "max": max_err})
