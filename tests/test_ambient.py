import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spaceform_lab.ambient import (
    SignedSpace,
    SpaceFormSpec,
    UmbilicalSlice,
    geodesic,
    inner,
    on_space_form,
    sig_inner,
)
from spaceform_lab.errors import DimensionError, InvalidParams, InvalidTangent

E4 = np.eye(4)
E5 = np.eye(5)


class TestInner:
    def test_euclidean_unit(self):
        sp = SignedSpace((1, 1, 1, 1))
        assert inner(sp, E4[0], E4[0]) == 1.0

    def test_lorentz_null_vector(self):
        sp = SignedSpace((-1, 1, 1, 1, 1))
        x = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
        assert inner(sp, x, x) == 0.0

    def test_mixed_signature_arithmetic(self):
        sp = SignedSpace((1, -1, 1))
        assert inner(sp, [1, 2, 3], [4, 5, 6]) == 4 - 10 + 18

    def test_dimension_mismatch(self):
        sp = SignedSpace((1, 1, 1, 1))
        with pytest.raises(DimensionError):
            inner(sp, [1, 2, 3], [1, 2, 3, 4])

    def test_signature_entries_checked(self):
        with pytest.raises(InvalidParams):
            SignedSpace((1, 2, 1))

    @given(st.lists(st.floats(-10, 10), min_size=3, max_size=3),
           st.lists(st.floats(-10, 10), min_size=3, max_size=3),
           st.lists(st.floats(-10, 10), min_size=3, max_size=3),
           st.floats(-5, 5), st.floats(-5, 5))
    @settings(max_examples=200, deadline=None)
    def test_symmetric_bilinear(self, x, y, z, a, b):
        sp = SignedSpace((1, -1, 1))
        x, y, z = np.array(x), np.array(y), np.array(z)
        assert inner(sp, x, y) == pytest.approx(inner(sp, y, x), abs=1e-9)
        lhs = inner(sp, a * x + b * y, z)
        rhs = a * inner(sp, x, z) + b * inner(sp, y, z)
        assert lhs == pytest.approx(rhs, abs=1e-7 * (1 + abs(lhs)))


class TestSigInner:
    """``sig_inner`` must give the bytes of ``np.sum(x * y * sig, axis=-1)``.
    It adds whole components in order from +0.0, which is what numpy's
    reduction does over a short trailing axis; these cases guard that."""

    SPECIAL = (1e16, -1e16, 1.0, -1.0, -0.0, 0.0, math.inf, -math.inf, math.nan, 3e-17)

    def _data(self, shape, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 17, size=shape)
        flat = x.reshape(-1)
        picks = rng.integers(0, len(self.SPECIAL), size=flat.size)
        use = rng.uniform(size=flat.size) < 0.5
        flat[use] = np.asarray(self.SPECIAL)[picks[use]]
        return x

    @staticmethod
    def _assert_same(x, y, sig):
        with np.errstate(invalid="ignore", over="ignore"):
            expect = np.sum(x * y * sig, axis=-1)
            got = sig_inner(x, y, sig)
        assert np.shape(got) == np.shape(expect)
        assert np.asarray(got).tobytes() == np.asarray(expect).tobytes()

    @pytest.mark.parametrize("dim", [3, 4, 5])
    @pytest.mark.parametrize("lead", [(), (7,), (5, 6, 7)])
    def test_bytes_equal_trailing_sum(self, dim, lead):
        sig = np.where(np.arange(dim) % 2, -1.0, 1.0)
        for seed in range(40):
            x = self._data(lead + (dim,), seed)
            y = self._data(lead + (dim,), seed + 1000)
            self._assert_same(x, y, sig)
            self._assert_same(x[..., ::-1], y[..., ::-1], sig)

    @pytest.mark.parametrize("row", [
        (1e16, 1.0, -1e16, 1.0),            # in order: ((1e16 + 1) - 1e16) + 1 = 1
        (1.0, 1e16, -1e16, -1.0),
        (-0.0, -0.0, -0.0, -0.0),           # +0.0 start: the sum is +0.0
        (math.inf, -math.inf, math.nan, 1.0),   # which NaN wins depends on order
        (math.nan, math.inf, -math.inf, -0.0),
    ])
    @pytest.mark.parametrize("lead", [(), (7,), (5, 6, 7)])
    def test_edge_rows(self, row, lead):
        x = np.broadcast_to(np.asarray(row), lead + (4,)).copy()
        self._assert_same(x, np.ones(4), np.ones(4))

    def test_inner_uses_ordered_sum(self):
        x = np.array([1e16, 1.0, -1e16, 1.0])
        assert inner(SignedSpace((1, 1, 1, 1)), x, np.ones(4)) == 1.0


class TestSigInnerLayouts:
    """``sig_inner`` on trailing components and on contiguous component planes
    (``axis=0``) must both give the bytes of the trailing-axis ``np.sum``, on
    data full of +-0.0, +-inf, NaN of both signs and subnormals.

    numpy's contiguous loops pick between two NaN operands by SIMD lane, so
    its axis-0 reduction is a reference only where the sum is not NaN, and a
    product of two NaN with different bits has no layout-free value: the
    cases keep one NaN payload per product."""

    SPECIAL = (0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
               -1e-310, 2.2250738585072014e-308, 1e16, -1e16, 1.0, -1.0)

    def _data(self, shape, seed):
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=(2,) + shape) * 10.0 ** rng.integers(-320, 300, (2,) + shape)
        for a in (x, y):
            use = rng.uniform(size=shape) < 0.6
            a[use] = np.asarray(self.SPECIAL)[rng.integers(0, len(self.SPECIAL), shape)][use]
        both = np.isnan(x) & np.isnan(y)
        y[both] = x[both]
        return x, y

    @pytest.mark.parametrize("lead, dim, seeds", [
        ((), 4, 200), ((), 5, 200), ((1,), 4, 200), ((1,), 5, 200), ((41, 41, 41), 5, 3),
    ])
    def test_both_layouts(self, lead, dim, seeds):
        sig = np.where(np.arange(dim) == dim - 1, -1.0, 1.0)
        nan_sums = 0
        for seed in range(seeds):
            x, y = self._data(lead + (dim,), seed)
            xp, yp = (np.moveaxis(a, -1, 0).copy() for a in (x, y))
            with np.errstate(invalid="ignore", over="ignore", under="ignore"):
                expect = np.sum(x * y * sig, axis=-1)
                planes = np.sum(xp * yp * sig.reshape((dim,) + (1,) * len(lead)), axis=0)
                got = sig_inner(x, y, sig)
                got_planes = sig_inner(xp, yp, sig, axis=0)
            assert np.shape(got) == np.shape(got_planes) == lead
            assert np.asarray(got).tobytes() == expect.tobytes()
            assert np.asarray(got_planes).tobytes() == expect.tobytes()
            num = ~np.isnan(expect)
            assert np.asarray(got_planes)[num].tobytes() == np.asarray(planes)[num].tobytes()
            nan_sums += int((~num).sum())
        assert nan_sums > 0

    def test_no_whole_array_products(self):
        import tracemalloc

        x, y = np.random.default_rng(0).normal(size=(2, 5, 41, 41, 41))
        sig = np.array([1.0, 1.0, 1.0, -1.0, 1.0])
        plane = 41 ** 3 * 8
        tracemalloc.start()
        try:
            sig_inner(x, y, sig, axis=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the sum and one scratch plane; x * y * sig alone would be 5 planes
        assert peak < 2.5 * plane


class TestSpaceFormSpec:
    def test_flat_model(self):
        spec = SpaceFormSpec(0.0, 1)
        assert spec.eps == -1
        assert spec.eps0 is None
        assert spec.ambient.dim == 4
        assert spec.ambient.index == 1

    @pytest.mark.parametrize("c,s,dim,index", [
        (1.0, 0, 5, 0),
        (1.0, 1, 5, 1),
        (-1.0, 0, 5, 1),
        (-1.0, 1, 5, 2),
    ])
    def test_curved_models_index(self, c, s, dim, index):
        spec = SpaceFormSpec(c, s)
        assert spec.ambient.dim == dim
        assert spec.ambient.index == s + spec.eps0
        assert spec.ambient.index == index

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_non_finite_curvature_rejected(self, c):
        with pytest.raises(InvalidParams, match="finite"):
            SpaceFormSpec(c, 0)

    def test_base_point_on_form(self):
        for c in (1.0, -1.0, 0.25, -2.0):
            spec = SpaceFormSpec(c, 0)
            assert on_space_form(spec, spec.base_point(), 1e-12)


class TestOnSpaceForm:
    def test_unit_sphere_point(self):
        spec = SpaceFormSpec(1.0, 0)
        assert on_space_form(spec, E5[4], 1e-12)

    def test_wrong_norm(self):
        spec = SpaceFormSpec(1.0, 0)
        assert not on_space_form(spec, 2 * E5[4], 1e-12)

    def test_hyperbolic_point(self):
        spec = SpaceFormSpec(-1.0, 0)
        assert spec.ambient.signature == (1, 1, 1, 1, -1)
        assert on_space_form(spec, E5[4], 1e-12)

    def test_flat_always_true(self):
        spec = SpaceFormSpec(0.0, 0)
        assert on_space_form(spec, [3.0, 1.0, 4.0, 1.0])


class TestGeodesic:
    def test_straight_line(self):
        spec = SpaceFormSpec(0.0, 0)
        out = geodesic(spec, np.zeros(4), E4[0], 2.0)
        assert np.allclose(out, [2, 0, 0, 0])

    def test_quarter_great_circle(self):
        spec = SpaceFormSpec(1.0, 0)
        out = geodesic(spec, E5[4], E5[0], math.pi / 2)
        assert np.allclose(out, E5[0], atol=1e-15)

    @pytest.mark.parametrize("c", [1.0, -1.0, 0.5, 0.0])
    def test_t_zero_is_identity(self, c):
        spec = SpaceFormSpec(c, 0)
        p = spec.base_point()
        w = np.zeros(spec.dim)
        w[0] = 1.0
        assert np.allclose(geodesic(spec, p, w, 0.0), p)

    @pytest.mark.parametrize("c", [1.0, -1.0, 2.0, -0.5])
    def test_stays_on_space_form(self, c):
        spec = SpaceFormSpec(c, 0)
        p = spec.base_point()
        w = np.zeros(spec.dim)
        w[0] = 1.0
        for t in np.linspace(-5, 5, 41):
            q = geodesic(spec, p, w, t)
            ip = inner(spec.ambient, q, q)
            assert abs(ip - 1.0 / c) <= 1e-10

    def test_flat_restart_translation(self):
        spec = SpaceFormSpec(0.0, 0)
        p = np.array([0.5, -0.25, 1.0, 0.0])
        w = np.array([0.0, 0.6, 0.8, 0.0])
        t, s = 0.7, 1.3
        direct = geodesic(spec, p, w, t + s)
        mid = geodesic(spec, p, w, t)
        restarted = geodesic(spec, mid, w, s)
        assert np.array_equal(direct, restarted)

    def test_rejects_nonunit_direction(self):
        spec = SpaceFormSpec(0.0, 0)
        with pytest.raises(InvalidTangent):
            geodesic(spec, np.zeros(4), 2 * E4[0], 1.0)

    def test_rejects_nontangent(self):
        spec = SpaceFormSpec(1.0, 0)
        with pytest.raises(InvalidTangent):
            geodesic(spec, E5[4], E5[4], 1.0)


class TestUmbilicalSlice:
    def test_flat_sphere_slice_rulings(self):
        spec = SpaceFormSpec(0.0, 0)
        sl = UmbilicalSlice(spec, 4.0)          # sphere of radius 1/2
        p = np.array([0.5, 0.0, 0.0, 0.0])
        assert sl.contains(p)
        xi = sl.normal(p)
        assert np.allclose(xi, [1, 0, 0, 0])
        assert np.allclose(geodesic(spec, p, xi, 0.3), p + 0.3 * xi)

    def test_sphere_slice_normal_is_tangent_unit(self):
        spec = SpaceFormSpec(1.0, 0)
        sl = UmbilicalSlice(spec, 2.0)
        d = sl.height
        q = np.array([math.sqrt(1 - d * d), 0.0, 0.0, 0.0, d])
        assert sl.contains(q)
        xi = sl.normal(q)
        assert abs(inner(spec.ambient, xi, xi) - 1) < 1e-12
        assert abs(inner(spec.ambient, xi, q)) < 1e-12

    def test_cbar_below_c_rejected(self):
        with pytest.raises(InvalidParams):
            UmbilicalSlice(SpaceFormSpec(1.0, 0), 0.5)
