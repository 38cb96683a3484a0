"""Unit tests for repro._util helpers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro._util import (
    format_float,
    integer_log,
    is_real,
    require,
    require_int,
    require_nonnegative,
    require_positive,
)
from repro.analysis import pareto_frontier_cells
from repro.core import MessageSpec, NetworkCharacteristics, paper_system_544
from repro.exec import FaultSpec, RunPolicy
from repro.performability import FailureMode, two_state_availability
from repro.scenarios import LoadGridPolicy, ScenarioSpec
from repro.workloads import HotspotTraffic, LocalityTraffic


class TestRequire:
    def test_passes_on_true(self):
        require(True, "never raised")

    def test_raises_with_message(self):
        with pytest.raises(ValueError, match="broken invariant"):
            require(False, "broken invariant")


class TestRequirePositive:
    def test_accepts_positive(self):
        require_positive(0.5, "x")
        require_positive(3, "x")

    @pytest.mark.parametrize("bad", [0, -1, float("nan"), float("inf"), "1"])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValueError):
            require_positive(bad, "x")


class TestIsReal:
    @pytest.mark.parametrize(
        "value",
        [0, 3, -2.5, float("inf"), float("nan"), np.int64(500), np.int32(2), np.float64(0.5), np.float32(1.5)],
    )
    def test_real_numbers(self, value):
        assert is_real(value)

    @pytest.mark.parametrize(
        "value", [True, False, np.bool_(True), "0.01", None, 1j, [1.0], np.array([1.0])]
    )
    def test_not_real_numbers(self, value):
        assert not is_real(value)


def _network(**fields):
    return NetworkCharacteristics(**{"bandwidth": 500.0, "network_latency": 0.01, "switch_latency": 0.02, **fields})


def _scenario(latency_budget):
    return ScenarioSpec(
        name="x", system=paper_system_544(), message=MessageSpec(32, 256.0), latency_budget=latency_budget
    )


def _failure(**fields):
    return FailureMode(**{"kind": "node", "failure_rate": 0.1, "repair_rate": 1.0, **fields})


def _frontier_metric(value):
    return pareto_frontier_cells([{"metrics": {"cost_proxy": value, "saturation_load": 1e-3}}])


#: Every hand-rolled number check: (builder, NumPy values it accepts).
NUMBER_FIELDS = {
    "bandwidth": (lambda v: _network(bandwidth=v), [np.int64(500), np.float64(500.0)]),
    "network_latency": (lambda v: _network(network_latency=v), [np.int64(0), np.float64(0.01)]),
    "switch_latency": (lambda v: _network(switch_latency=v), [np.int64(1), np.float64(0.02)]),
    "require_positive": (lambda v: require_positive(v, "x"), [np.int64(2), np.float64(0.5)]),
    "require_nonnegative": (lambda v: require_nonnegative(v, "x"), [np.int64(0), np.float64(0.5)]),
    "fraction_of_saturation": (lambda v: LoadGridPolicy(fraction_of_saturation=v), [np.float64(0.9)]),
    "latency_budget": (_scenario, [np.int64(200), np.float64(200.0)]),
    "timeout": (lambda v: RunPolicy(timeout=v), [np.int64(5), np.float64(2.5)]),
    "fault seconds": (lambda v: FaultSpec(op="hang", index=0, seconds=v), [np.int64(1), np.float64(0.5)]),
    "failure_rate": (lambda v: _failure(failure_rate=v), [np.int64(1), np.float64(0.5)]),
    "repair_rate": (lambda v: _failure(repair_rate=v), [np.int64(2), np.float64(0.5)]),
    "ports fraction": (lambda v: _failure(kind="ports", role="icn2", fraction=v), [np.float64(0.25)]),
    "mtbf": (lambda v: two_state_availability(v, 1.0), [np.int64(100), np.float64(2.5)]),
    "mttr": (lambda v: two_state_availability(100.0, v), [np.int64(3), np.float64(2.5)]),
    "locality": (LocalityTraffic, [np.int64(1), np.float64(0.6)]),
    "hot_fraction": (lambda v: HotspotTraffic(0, v), [np.int64(0), np.float64(0.3)]),
    "frontier metric": (_frontier_metric, [np.int64(3), np.float64(0.5)]),
}


class TestOneNumberRule:
    """Every numeric field shares :func:`is_real`: NumPy scalars pass, bools do not."""

    @pytest.mark.parametrize("field", sorted(NUMBER_FIELDS))
    def test_accepts_numpy_scalars(self, field):
        build, values = NUMBER_FIELDS[field]
        for value in values:
            build(value)

    @pytest.mark.parametrize("field", sorted(NUMBER_FIELDS))
    def test_refuses_bools(self, field):
        build, _ = NUMBER_FIELDS[field]
        for value in (True, np.bool_(True)):
            with pytest.raises(ValueError):
                build(value)


class TestRequireInt:
    def test_accepts_python_int(self):
        require_int(3, "x")
        require_int(0, "x", minimum=0)

    def test_accepts_numpy_integers(self):
        """Regression: np.int64 grid indices used to be rejected."""
        import numpy as np

        require_int(np.int64(5), "x")
        require_int(np.int32(2), "x", minimum=1)
        require_int(np.arange(4)[2], "x")

    @pytest.mark.parametrize("bad", [True, False, 1.0, "3", None])
    def test_rejects_non_integers(self, bad):
        with pytest.raises(ValueError):
            require_int(bad, "x")

    def test_rejects_numpy_bool(self):
        import numpy as np

        with pytest.raises(ValueError):
            require_int(np.bool_(True), "x")

    def test_minimum_enforced_for_numpy_values(self):
        import numpy as np

        with pytest.raises(ValueError, match=">= 2"):
            require_int(np.int64(1), "x", minimum=2)

    def test_accepts_int(self):
        require_int(4, "x", minimum=4)

    def test_rejects_bool(self):
        with pytest.raises(ValueError):
            require_int(True, "x")

    def test_rejects_below_minimum(self):
        with pytest.raises(ValueError, match=">= 2"):
            require_int(1, "x", minimum=2)

    def test_rejects_float(self):
        with pytest.raises(ValueError):
            require_int(2.0, "x")


class TestRequireNonnegative:
    def test_accepts_zero(self):
        require_nonnegative(0.0, "x")

    @pytest.mark.parametrize("bad", [-0.1, float("nan"), float("-inf")])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            require_nonnegative(bad, "x")


class TestPowers:
    @given(st.integers(2, 6), st.integers(0, 10))
    def test_integer_log_roundtrip(self, base, exponent):
        assert integer_log(base**exponent, base) == exponent

    def test_integer_log_rejects_non_power(self):
        with pytest.raises(ValueError):
            integer_log(12, 5)


class TestFormatFloat:
    @pytest.mark.parametrize(
        "value,expected",
        [(float("nan"), "nan"), (float("inf"), "inf"), (float("-inf"), "-inf"), (0.0, "0")],
    )
    def test_specials(self, value, expected):
        assert format_float(value) == expected

    def test_scientific_for_small(self):
        assert "e" in format_float(3.2e-7)

    def test_plain_for_moderate(self):
        assert format_float(12.5) == "12.5"
