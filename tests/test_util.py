"""Unit tests for repro._util helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro._util import (
    format_float,
    integer_log,
    require,
    require_int,
    require_nonnegative,
    require_positive,
)


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
