"""Every analysis, validation and simulation entry point names its design once.

Model queries take the engine they price and validation takes the session
it simulates; the system, message, options and traffic pattern are read
from that handle.  A query that took them a second time, beside the
handle, could compare a model of one design with a simulation of another
— the duplication these tests keep out of the public API.
"""

import inspect

import repro.analysis
import repro.simulation
import repro.validation

#: The handle parameters of each module's public callables.  In
#: ``repro.simulation`` a parameter named ``engine`` names the event engine
#: (``"array"``/``"reference"``), not a model, so only ``session`` is a
#: handle there.
HANDLES = {
    repro.analysis: {"engine", "session"},
    repro.validation: {"engine", "session"},
    repro.simulation: {"session"},
}
DESIGN = {"system", "message", "options", "pattern"}


def _public_callables():
    for module, handles in HANDLES.items():
        for name in module.__all__:
            obj = getattr(module, name)
            if callable(obj):
                yield f"{module.__name__}.{name}", handles, inspect.signature(obj).parameters


def test_no_public_callable_takes_the_design_beside_its_handle():
    offenders = [
        f"{name}{sorted(DESIGN & set(params))}"
        for name, handles, params in _public_callables()
        if handles & set(params) and DESIGN & set(params)
    ]
    assert offenders == []


def test_queries_take_their_handle_first():
    params = {name: params for name, _, params in _public_callables()}
    for name, handle in (
        ("repro.analysis.max_load_for_latency", "engine"),
        ("repro.analysis.required_upgrade_factor", "engine"),
        ("repro.analysis.model_bottlenecks", "engine"),
        ("repro.validation.run_validation", "session"),
        ("repro.validation.light_load_point", "session"),
        ("repro.analysis.estimate_sim_knee", "session"),
        ("repro.simulation.replicate", "session"),
    ):
        assert next(iter(params[name])) == handle, name
    assert "headroom_report" not in repro.analysis.__all__
