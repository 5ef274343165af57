import numpy as np
import pytest

from spaceform_lab.errors import GridTooCoarse, InvalidParams
from spaceform_lab.grid import (
    ParameterGrid,
    induced_metric_tensor,
    partial_derivative,
    second_derivative,
    stencil_halo,
)
from spaceform_lab.report import ResidualReport

from conftest import grid_partials


class TestParameterGrid:
    def test_spacing_and_axes(self):
        g = ParameterGrid((-1, -1, -1), (1, 1, 1), (21, 11, 5))
        assert g.spacing == (0.1, 0.2, 0.5)
        assert g.axis(0)[0] == -1.0 and g.axis(0)[-1] == 1.0

    def test_centered_base_is_middle_node(self):
        g = ParameterGrid.centered(1.0, 21)
        assert g.base == (10, 10, 10)
        assert np.allclose(g.base_point, 0.0)

    def test_validation(self):
        with pytest.raises(InvalidParams):
            ParameterGrid((0, 0, 0), (1, 1, 1), (1, 5, 5))
        with pytest.raises(InvalidParams):
            ParameterGrid((0, 0, 0), (0, 1, 1), (5, 5, 5))
        with pytest.raises(InvalidParams):
            ParameterGrid((0, 0, 0), (1, 1, 1), (5, 5, 5), base=(5, 0, 0))

    @pytest.mark.parametrize("lo, hi", [
        ((np.nan, 0, 0), (1, 1, 1)),
        ((0, -np.inf, 0), (1, 1, 1)),
        ((0, 0, np.inf), (1, 1, 1)),
        ((0, 0, 0), (np.nan, 1, 1)),
        ((0, 0, 0), (1, np.inf, 1)),
        ((0, 0, 0), (1, 1, -np.inf)),
    ])
    def test_non_finite_bounds_rejected(self, lo, hi):
        # nan and -inf in lo or +inf in hi pass the lo < hi check
        with pytest.raises(InvalidParams, match="finite"):
            ParameterGrid(lo, hi, (3, 3, 3))

    def test_require_resolution(self):
        g = ParameterGrid((0, 0, 0), (1, 1, 1), (4, 5, 5))
        with pytest.raises(GridTooCoarse):
            g.require_resolution(5)


class TestStencils:
    def test_first_derivative_exact_on_quadratics(self):
        x = np.linspace(0, 1, 11)
        f = 3 * x**2 - 2 * x + 1
        df = partial_derivative(f, 0, x[1] - x[0])
        assert np.allclose(df, 6 * x - 2, atol=1e-12)

    def test_second_derivative_exact_on_quadratics(self):
        x = np.linspace(0, 1, 11)
        f = 3 * x**2 - 2 * x + 1
        d2 = second_derivative(f, 0, x[1] - x[0])
        assert np.allclose(d2, 6.0, atol=1e-10)

    def test_order_two_convergence(self):
        errs = []
        for n in (21, 41):
            x = np.linspace(0, 1, n)
            h = x[1] - x[0]
            d2 = second_derivative(np.sin(x), 0, h)
            errs.append(np.abs(d2 + np.sin(x)).max())
        # halving h divides the error by about 4
        assert errs[0] / errs[1] > 3.0

    @staticmethod
    def _slice_formula(values, axis, h):
        """The stencils of the module docstring as whole-slice expressions."""
        f = np.moveaxis(values, axis, 0)
        out = np.empty_like(f)
        h2 = h * h
        out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / h2
        out[0] = (2 * f[0] - 5 * f[1] + 4 * f[2] - f[3]) / h2
        out[-1] = (2 * f[-1] - 5 * f[-2] + 4 * f[-3] - f[-4]) / h2
        return np.moveaxis(out, 0, axis)

    @pytest.mark.parametrize("shape, axis", [
        ((4,), 0), ((9,), 0), ((4, 6, 5), 0), ((7, 6, 5), 1), ((7, 6, 4), 2),
        ((5, 11, 9, 4), 1), ((5, 11, 9, 4), 3),
    ])
    def test_second_derivative_matches_slice_formula(self, shape, axis):
        rng = np.random.default_rng(len(shape) * 10 + axis)
        special = np.array([0.0, -0.0, 5e-324, -5e-324, -1e-310, 1e300, -1e300, np.nan])
        for _ in range(20):
            x = rng.normal(size=shape) * 10.0 ** rng.integers(-320, 300, size=shape)
            use = rng.uniform(size=shape) < 0.3
            x[use] = special[rng.integers(0, len(special), size=shape)][use]
            h = float(rng.uniform(1e-3, 2.0))
            with np.errstate(all="ignore"):
                got = second_derivative(x, axis, h)
                expect = self._slice_formula(x, axis, h)
            # bytes equal except NaN payloads, which numpy picks by SIMD lane
            nan = np.isnan(expect)
            assert np.array_equal(np.isnan(got), nan)
            assert got[~nan].tobytes() == expect[~nan].tobytes()

    def test_induced_metric_both_layouts(self):
        grid = ParameterGrid.centered(0.5, (6, 7, 5))
        pos = np.random.default_rng(4).normal(size=grid.n + (5,))
        sig = np.array([1.0, 1.0, 1.0, -1.0, -1.0])
        trailing = induced_metric_tensor(grid_partials(pos, grid), sig)
        planes = np.moveaxis(pos, -1, 0).copy()
        df = [partial_derivative(planes, a + 1, grid.spacing[a]) for a in range(3)]
        assert induced_metric_tensor(df, sig, axis=0).tobytes() == trailing.tobytes()

    def test_second_derivative_needs_four_nodes(self):
        with pytest.raises(GridTooCoarse):
            second_derivative(np.zeros(3), 0, 0.1)



def _dilation_halo(mask):
    """The 7x7x7 box halo by ``scipy.ndimage.binary_dilation``."""
    from scipy import ndimage

    return ndimage.binary_dilation(mask, structure=np.ones((7, 7, 7), dtype=bool))


class TestStencilHalo:
    @pytest.mark.parametrize("shape", [(9, 10, 11), (2, 3, 4), (6, 7, 8), (13, 2, 5)])
    @pytest.mark.parametrize("density", [0.01, 0.05, 0.3])
    def test_random_masks(self, shape, density):
        rng = np.random.default_rng(int(density * 100) + sum(shape))
        for _ in range(5):
            mask = rng.uniform(size=shape) < density
            got = stencil_halo(mask)
            assert got.dtype == bool
            assert np.array_equal(got, _dilation_halo(mask))

    @pytest.mark.parametrize("node", [(0, 0, 0), (8, 9, 10), (0, 9, 0), (4, 0, 10),
                                      (0, 5, 5), (4, 9, 5), (4, 5, 6), (3, 3, 3)])
    def test_single_face_and_corner_nodes(self, node):
        mask = np.zeros((9, 10, 11), dtype=bool)
        mask[node] = True
        got = stencil_halo(mask)
        assert np.array_equal(got, _dilation_halo(mask))
        box = tuple(slice(max(i - 3, 0), i + 4) for i in node)
        assert got[box].all() and got.sum() == got[box].size

    @pytest.mark.parametrize("shape", [(9, 10, 11), (2, 2, 2), (3, 5, 6)])
    @pytest.mark.parametrize("fill", [False, True])
    def test_constant_masks(self, shape, fill):
        mask = np.full(shape, fill)
        got = stencil_halo(mask)
        assert np.array_equal(got, mask)
        assert np.array_equal(got, _dilation_halo(mask))

    def test_input_not_modified(self):
        mask = np.zeros((8, 8, 8), dtype=bool)
        mask[4, 4, 4] = True
        stencil_halo(mask)
        assert mask.sum() == 1

class TestResidualReport:
    def test_max_mean_argmax(self):
        rep = ResidualReport()
        vals = np.array([[0.0, -2.0], [1.0, 0.5]])
        rep.add("r", vals)
        assert rep["r"].max == 2.0
        assert rep["r"].mean == pytest.approx(0.875)
        assert rep["r"].argmax == (0, 1)
        assert rep["r"].max >= rep["r"].mean >= 0.0

    def test_mask_restricts(self):
        rep = ResidualReport()
        vals = np.array([1.0, 100.0])
        rep.add("r", vals, mask=np.array([True, False]))
        assert rep["r"].max == 1.0

    def test_fully_masked_entry(self):
        rep = ResidualReport()
        rep.add("r", np.array([1.0]), mask=np.array([False]))
        assert rep["r"].max == 0.0

    def test_overall_and_ok(self):
        rep = ResidualReport()
        rep.add("a", np.array([1e-9]))
        rep.add("b", np.array([1e-7]))
        assert rep.overall_max == 1e-7
        assert rep.ok(1e-6) and not rep.ok(1e-8)

    @pytest.mark.parametrize("values", [(0.0, np.nan), (np.nan, 0.0)])
    def test_nan_entry_fails_in_either_order(self, values):
        rep = ResidualReport()
        for name, value in zip("ab", values):
            rep.add(name, np.array([value]))
        assert np.isnan(rep.overall_max)
        assert not rep.ok(1.0)

    def test_round_trip_dict(self):
        rep = ResidualReport(metadata={"scheme": "rk4"})
        rep.add("a", np.array([0.5]))
        d = rep.as_dict()
        assert d["entries"]["a"]["max"] == 0.5
        assert d["metadata"]["scheme"] == "rk4"
