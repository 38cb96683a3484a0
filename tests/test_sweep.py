"""Load-sweep and saturation-search tests (core.sweep)."""

import numpy as np
import pytest

from repro.core import (
    AnalyticalModel,
    MessageSpec,
    auto_load_grid,
    find_saturation_load,
    sweep_load,
)

MSG = MessageSpec(16, 256.0)


@pytest.fixture(scope="module")
def model(request):
    from repro.core import paper_system_544

    return AnalyticalModel(paper_system_544(), MSG)


class TestFindSaturation:
    def test_bracketing_consistency(self, model):
        lam_star = find_saturation_load(model)
        assert model.is_saturated(lam_star * 1.001)
        assert not model.is_saturated(lam_star * 0.999)


class TestSweep:
    def test_sweep_shapes(self, model):
        grid = np.linspace(1e-5, 1e-3, 6)
        sweep = sweep_load(model, grid)
        assert sweep.loads.shape == (6,)
        assert sweep.latencies.shape == (6,)
        assert len(sweep.results) == 6

    def test_finite_mask_marks_saturated_points(self, model):
        lam_star = find_saturation_load(model)
        sweep = sweep_load(model, [0.5 * lam_star, 2 * lam_star])
        assert list(sweep.finite_mask()) == [True, False]

    def test_rows_roundtrip(self, model):
        sweep = sweep_load(model, [1e-5, 2e-5])
        rows = sweep.as_rows()
        assert rows[0][0] == pytest.approx(1e-5)
        assert rows[1][1] == pytest.approx(sweep.latencies[1])

    def test_rejects_negative_loads(self, model):
        with pytest.raises(ValueError):
            sweep_load(model, [-1e-5])

    def test_rejects_empty(self, model):
        with pytest.raises(ValueError):
            sweep_load(model, [])


class TestAutoGrid:
    def test_grid_below_saturation(self, model):
        grid = auto_load_grid(model, points=8, fraction_of_saturation=0.9)
        lam_star = find_saturation_load(model)
        assert grid.max() <= 0.9 * lam_star * (1 + 1e-9)
        assert len(grid) == 8
        assert all(not model.is_saturated(x) for x in grid)

    def test_include_zero(self, model):
        grid = auto_load_grid(model, points=5, include_zero=True)
        assert grid[0] == 0.0

    def test_rejects_bad_fraction(self, model):
        with pytest.raises(ValueError):
            auto_load_grid(model, fraction_of_saturation=1.5)
