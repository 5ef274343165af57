import gc
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from spaceform_lab import verify as verify_module
from spaceform_lab.ambient import SpaceFormSpec
from spaceform_lab.errors import (
    DegenerateMetric,
    DegenerateTriple,
    EmptyDomain,
    GridMismatch,
    NonHolonomicSample,
)
from spaceform_lab.gallery import PhiFamily, closed_form_transform, phi_state
from spaceform_lab.grid import (
    ParameterGrid,
    induced_metric_tensor,
    partial_derivative,
    second_derivative,
    stencil_halo,
)
from spaceform_lab.report import ResidualReport
from spaceform_lab.ribaucour import integrate_ribaucour, transformed_triple
from spaceform_lab.triples import TripleField
from spaceform_lab.verify import (
    ImmersionSample,
    companion_curvatures,
    fundamental_forms,
    gauss_codazzi_residual,
    hj_relation_residual,
    holonomic_data,
    isometry_check,
    pair_gauss_relation,
    principal_curvature_fields,
    schouten_codazzi_residual,
)

from conftest import grid_partials, permute_triple

FLAT = SpaceFormSpec(0.0, 0)


def sphere_patch_sample(radius=2.0, half=0.004, n=9, center=(0.3, 0.2, 0.1)):
    """3-sphere patch of radius r in R^4 as a graph over a small box."""
    grid = ParameterGrid.centered(half, n, center)
    X1, X2, X3 = grid.meshes()
    X4 = np.sqrt(radius**2 - X1**2 - X2**2 - X3**2)
    pos = np.stack([X1, X2, X3, X4], axis=-1)
    return ImmersionSample(grid, pos, FLAT)


def flat_plane_sample(n=9):
    grid = ParameterGrid.centered(0.5, n)
    X1, X2, X3 = grid.meshes()
    pos = np.stack([X1, X2, X3, 0.2 + 0 * X1], axis=-1)
    return ImmersionSample(grid, pos, FLAT)


class TestFundamentalForms:
    def test_umbilic_sphere_patch(self):
        s = sphere_patch_sample()
        forms = fundamental_forms(s)
        lam = principal_curvature_fields(s, forms)
        # umbilic: II = I / r up to sign, i.e. all eigenvalues +-1/r
        assert np.abs(np.abs(lam) - 0.5).max() < 1e-6
        ratio = forms.II / forms.I[..., :, :]
        # compare where I is well separated from zero
        mask = np.abs(forms.I) > 0.5
        dev = np.abs(np.abs(ratio[mask]) - 0.5)
        assert dev.max() < 1e-6

    def test_flat_plane_vanishing_II(self):
        forms = fundamental_forms(flat_plane_sample())
        assert np.abs(forms.II).max() < 1e-12

    @pytest.mark.parametrize("case", ["constant", "independent_of_u3"])
    def test_singular_metric_everywhere_raises(self, case):
        grid = ParameterGrid.centered(0.5, 7)
        X1, X2, _ = grid.meshes()
        if case == "constant":
            pos = np.broadcast_to([0.1, 0.2, 0.3, 0.4], tuple(grid.n) + (4,)).copy()
        else:
            pos = np.stack([X1, X2, X1 * X2, 0.2 + 0 * X1], axis=-1)
        with pytest.raises(DegenerateMetric):
            fundamental_forms(ImmersionSample(grid, pos, FLAT))

    def test_normal_continuity(self):
        s = sphere_patch_sample()
        forms = fundamental_forms(s)
        sig = s.spec.ambient.sig_array
        N = forms.N
        for axis in range(3):
            a = np.take(N, np.arange(0, s.grid.n[axis] - 1), axis=axis)
            b = np.take(N, np.arange(1, s.grid.n[axis]), axis=axis)
            dots = np.sum(a * b * sig, axis=-1)
            assert (dots > 0).all()

    def test_pipeline_metric_is_diag_vprime(self, fam62):
        grid = ParameterGrid.centered(0.005, 21, (0.1, 0.4, 0.2))
        pts = grid.points()
        fp = closed_form_transform(fam62)(pts)
        sample = ImmersionSample(grid, fp, fam62.spec)
        forms = fundamental_forms(sample)
        _, vp, _, _, _ = fam62.state_arrays(pts)
        vp = np.moveaxis(vp, -1, 0)
        dev = max(np.abs(forms.I[i, i] - vp[i] ** 2).max() for i in range(3))
        assert dev < 1e-6


class TestGaussCodazzi:
    def test_exact_cflat_surface(self, famcf):
        # spacing at the truncation/roundoff crossover of the extraction chain
        grid = ParameterGrid.centered(0.006, 21, (0.1, 0.4, 0.2))
        pos = closed_form_transform(famcf)(grid.points())
        rep = gauss_codazzi_residual(ImmersionSample(grid, pos, famcf.spec))
        assert rep.overall_max <= 1e-5

    @pytest.mark.parametrize("masked", [False, True])
    def test_passed_forms_are_not_recomputed(self, famcf, monkeypatch, masked):
        grid = ParameterGrid.centered(0.006, 21, (0.1, 0.4, 0.2))
        pos = closed_form_transform(famcf)(grid.points())
        mask = None
        if masked:
            mask = np.zeros(grid.n, dtype=bool)
            mask[2, 17, 5] = True
        sample = ImmersionSample(grid, pos, famcf.spec, mask)
        forms = fundamental_forms(sample)
        expect = gauss_codazzi_residual(sample)
        calls = []

        def counted(*args, _inner=verify_module.fundamental_forms, **kwargs):
            calls.append(args)
            return _inner(*args, **kwargs)

        monkeypatch.setattr(verify_module, "fundamental_forms", counted)
        got = gauss_codazzi_residual(sample, forms)
        assert calls == []
        assert json.dumps(got.as_dict()) == json.dumps(expect.as_dict())
        gauss_codazzi_residual(sample)
        assert len(calls) == 1

    def test_random_smooth_non_solution(self):
        grid = ParameterGrid.centered(0.5, 9)
        X1, X2, X3 = grid.meshes()
        pos = np.stack([X1, X2, X3, X1**2 - 0.7 * X2**2 + 0.4 * X3**2], axis=-1)
        rep = gauss_codazzi_residual(ImmersionSample(grid, pos, FLAT),
                                     offdiag_tol=1.0)
        assert rep.overall_max > 0.05

    def test_flat_plane_zero(self):
        rep = gauss_codazzi_residual(flat_plane_sample())
        assert rep.overall_max < 1e-10

    def test_non_holonomic_sample_rejected(self):
        grid = ParameterGrid.centered(0.3, 9)
        X1, X2, X3 = grid.meshes()
        # shear the coordinates: metric acquires O(1) off-diagonals
        pos = np.stack([X1 + 0.5 * X2, X2, X3, 0 * X1], axis=-1)
        with pytest.raises(NonHolonomicSample):
            gauss_codazzi_residual(ImmersionSample(grid, pos, FLAT))


class TestPairGauss:
    def test_same_immersion_zero(self):
        lam = np.random.default_rng(0).normal(size=(3, 4, 4, 4))
        rep = pair_gauss_relation(lam, lam, 1.0, 1.0, 1, 1)
        assert rep.report.overall_max < 1e-14

    def test_residual_matrix_symmetric(self):
        rng = np.random.default_rng(1)
        lam, mu = rng.normal(size=(2, 3, 4, 4, 4))
        rep = pair_gauss_relation(lam, mu, 0.0, 1.0, 1, 1)
        assert np.array_equal(rep.residual, np.swapaxes(rep.residual, 0, 1))

    def test_cone_reduction(self):
        # lambda_3 = 0: relations collapse to the two printed ones
        lam = np.array([0.7, -1.3, 0.0]).reshape(3, 1, 1, 1)
        c, ct, eps, epst = 0.0, -1.0, 1, 1
        mu = companion_curvatures(lam, c, ct, eps, epst)
        assert np.abs(mu[0] - mu[1]).max() < 1e-14
        e1 = c - ct + eps * lam[0] * lam[1] - epst * mu[0] * mu[1]
        e2 = c - ct - epst * mu[0] * mu[2]
        assert np.abs(e1).max() < 1e-14 and np.abs(e2).max() < 1e-14

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatch):
            pair_gauss_relation(np.zeros((3, 2, 2, 2)), np.zeros((3, 2, 2, 3)),
                                0, 1, 1, 1)


class TestSchoutenCodazzi:
    def test_cflat_transform_satisfies(self, famcf):
        grid = ParameterGrid.centered(0.001, 21, (0.1, 0.4, 0.2))
        t = famcf.seed_triple(grid)
        rf = integrate_ribaucour(t, phi_state(famcf, grid.base_point), grid,
                                 K2target=0.0)
        tt = transformed_triple(t, rf)
        assert schouten_codazzi_residual(tt).overall_max <= 1e-6

    def test_problem_star_transform_fails(self, fam62):
        grid = ParameterGrid.centered(0.01, 11, (0.1, 0.4, 0.2))
        t = fam62.seed_triple(grid)
        rf = integrate_ribaucour(t, phi_state(fam62, grid.base_point), grid,
                                 K2target=1.0)
        tt = transformed_triple(t, rf)
        assert schouten_codazzi_residual(tt).overall_max > 1.0

    def test_constant_distinct_lambdas_zero(self):
        grid = ParameterGrid.centered(0.5, 9)
        t = TripleField.constant(grid, (1, -1, 1), FLAT, v=(1, 1, 1), V=(1, 2, 3))
        assert schouten_codazzi_residual(t).overall_max < 1e-13

    def test_degenerate_v_rejected(self):
        grid = ParameterGrid.centered(0.5, 9)
        t = TripleField.constant(grid, (1, -1, 1), FLAT, v=(0, 1, 1), V=(1, 0, 0))
        with pytest.raises(DegenerateTriple):
            schouten_codazzi_residual(t)

    def test_relabeling_invariance(self, famcf):
        grid = ParameterGrid.centered(0.01, 9, (0.1, 0.4, 0.2))
        t = famcf.seed_triple(grid)
        rf = integrate_ribaucour(t, phi_state(famcf, grid.base_point), grid,
                                 K2target=0.0)
        tt = transformed_triple(t, rf)
        base = schouten_codazzi_residual(tt).overall_max
        for perm in itertools.permutations(range(3)):
            permuted = schouten_codazzi_residual(permute_triple(tt, perm)).overall_max
            assert permuted == pytest.approx(base, rel=1e-9)


class TestHJRelation:
    def test_cflat_seed_zero(self, famcf, grid21):
        assert hj_relation_residual(famcf.seed_triple(grid21)) == 0.0

    def test_62_seed_one(self, fam62, grid21):
        assert hj_relation_residual(fam62.seed_triple(grid21)) == 1.0

    def test_pythagorean_triple(self, grid21):
        t = TripleField.constant(grid21, (1, -1, 1), FLAT, v=(3, 5, 4), V=(0, 0, 0))
        assert hj_relation_residual(t) == 0.0

    def test_fully_masked_raises(self, grid21):
        # no valid node leaves no residual to report, not a bare ValueError
        t = TripleField.constant(grid21, (1, -1, 1), FLAT, v=(3, 5, 4), V=(0, 0, 0))
        t.masked = np.ones(grid21.n, dtype=bool)
        with pytest.raises(EmptyDomain, match="every node"):
            hj_relation_residual(t)


class TestOnFormResidual:
    GRID = ParameterGrid.centered(0.5, 5)

    def _sphere_sample(self, masked=None):
        X1, X2, X3 = self.GRID.meshes()
        pos = np.stack([X1, X2, X3, np.ones(self.GRID.n), 0.5 * np.ones(self.GRID.n)], -1)
        pos /= np.linalg.norm(pos, axis=-1, keepdims=True)
        return ImmersionSample(self.GRID, pos, SpaceFormSpec(1.0, 0), masked)

    def test_unit_sphere(self):
        assert self._sphere_sample().on_form_residual() <= 1e-15

    def test_fully_masked_raises(self):
        sample = self._sphere_sample(np.ones(self.GRID.n, dtype=bool))
        with pytest.raises(EmptyDomain, match="every node"):
            sample.on_form_residual()
        sample = self._sphere_sample()
        sample.positions[...] = math.nan
        with pytest.raises(EmptyDomain, match="every node"):
            sample.on_form_residual()

    def test_flat_ambient_has_no_form(self):
        grid = self.GRID
        sample = ImmersionSample(grid, np.full(grid.n + (4,), math.nan), FLAT)
        assert sample.on_form_residual() == 0.0


class TestIsometryCheck:
    def test_identical_samples(self):
        s = sphere_patch_sample()
        assert isometry_check(s, s).overall_max == 0.0

    def test_wrong_radius_order_one(self):
        a = sphere_patch_sample(radius=2.0)
        b = ImmersionSample(a.grid, 1.5 * a.positions, a.spec)
        assert isometry_check(a, b).overall_max > 0.5

    def test_grid_mismatch(self):
        a = sphere_patch_sample(n=9)
        b = sphere_patch_sample(n=11)
        with pytest.raises(GridMismatch):
            isometry_check(a, b)


class TestMaskedSamples:
    def test_fundamental_forms_tolerate_masked_nodes(self):
        s = sphere_patch_sample(half=0.04, n=11)
        pos = s.positions.copy()
        pos[0, 0, 0] = np.nan
        masked = np.zeros(s.grid.n, dtype=bool)
        masked[0, 0, 0] = True
        sm = ImmersionSample(s.grid, pos, s.spec, masked)
        forms = fundamental_forms(sm)
        assert not forms.valid[0, 0, 0]
        lam = principal_curvature_fields(sm, forms)
        dev = np.abs(np.abs(lam) - 0.5)
        assert dev[:, forms.valid].max() < 1e-3


class TestMaskedPairCheck:
    """The pair-check chain on the pair62 box at 21^3, R4 sample against its S4
    partner, with one NaN node in the R4 sample."""

    GRID = ParameterGrid.centered(0.004, 21, (0.1, 0.4, 0.2))
    NODE = (3, 5, 7)

    @pytest.fixture(scope="class")
    def pair(self, fam62, fam_s4):
        pos = closed_form_transform(fam62)(self.GRID.points())
        clean = ImmersionSample(self.GRID, pos.copy(), fam62.spec)
        pos[self.NODE] = np.nan
        fr = ImmersionSample(self.GRID, pos, fam62.spec)
        fs = ImmersionSample(self.GRID, closed_form_transform(fam_s4)(self.GRID.points()),
                             fam_s4.spec)
        return clean, fr, fs

    def test_isometry_skips_masked_node_and_halo(self, pair):
        clean, fr, fs = pair
        rep = isometry_check(fr, fs)
        # a NaN node used to spread to its stencil neighbours and the max read nan
        assert math.isfinite(rep.overall_max)
        assert rep.overall_max <= 1e-6              # the pair-check gate
        halo = stencil_halo(~fr.valid_mask())
        assert halo.sum() == 7 ** 3
        assert not halo[rep["metric_difference"].argmax[1:]]
        # outside the halo the metric difference keeps the clean sample's bytes
        Ia, Ib = (induced_metric_tensor(grid_partials(x.positions, self.GRID),
                                        x.spec.ambient.sig_array) for x in (clean, fs))
        diffs = np.stack([Ia[i, j] - Ib[i, j] for i, j in
                          itertools.combinations_with_replacement(range(3), 2)])
        expect = ResidualReport().add("metric_difference", diffs,
                                      np.broadcast_to(~halo, diffs.shape))
        assert rep.entries == expect.entries

    def test_pair_gauss_drops_invalid_nodes(self, pair):
        _, fr, fs = pair
        forms_r, forms_s = fundamental_forms(fr), fundamental_forms(fs)
        lam_r = holonomic_data(fr, forms_r)[3]
        lam_s = holonomic_data(fs, forms_s)[3]
        args = (lam_r, lam_s, 0.0, 1.0, 1, 1)
        assert pair_gauss_relation(*args).report.overall_max > 1e10
        valid = forms_r.valid & forms_s.valid
        assert not valid[self.NODE]
        rep = pair_gauss_relation(*args, valid=valid)
        assert rep.report.overall_max <= 1e-5       # the pair-check gate
        entry = rep.report["pair_gauss"]
        assert valid[entry.argmax[1:]]
        # the residual array keeps every node
        assert rep.residual.tobytes() == pair_gauss_relation(*args).residual.tobytes()

    def test_pair_gauss_valid_shape_checked(self):
        lam = np.ones((3, 4, 4, 4))
        with pytest.raises(GridMismatch):
            pair_gauss_relation(lam, lam, 0.0, 0.0, 1, 1, valid=np.ones((4, 4, 5), bool))

    def test_pair_gauss_all_valid_same_report(self):
        rng = np.random.default_rng(3)
        lam, mu = rng.normal(size=(2, 3, 6, 5, 4))
        plain = pair_gauss_relation(lam, mu, 0.0, 1.0, 1, 1)
        kept = pair_gauss_relation(lam, mu, 0.0, 1.0, 1, 1, np.ones((6, 5, 4), bool))
        assert kept.report.entries == plain.report.entries
        assert kept.residual.tobytes() == plain.residual.tobytes()


def _svd_forms(sample):
    """``fundamental_forms`` with np.linalg.det for det I and the normal taken
    as the last right singular vector of (df_1, df_2, df_3[, f]) * sig.

    Same zero-filling, causal test, base sign and sweep-order alignment.
    """
    grid, spec = sample.grid, sample.spec
    sig = spec.ambient.sig_array
    finite = sample.valid_mask()
    pos = np.where(finite[..., None], sample.positions, 0.0)
    df = grid_partials(pos, grid)
    I = induced_metric_tensor(df, sig)
    detI = np.abs(np.linalg.det(np.moveaxis(I, (0, 1), (-2, -1))))
    valid = (detI / np.maximum(np.abs(I).max(axis=(0, 1)) ** 3, 1e-300) > 1e-12) & finite
    valid &= ~stencil_halo(~finite)
    rows = [d * sig for d in df] + ([pos * sig] if spec.c != 0 else [])
    n0 = np.linalg.svd(np.stack(rows, axis=-2))[2][..., -1, :]
    nn = np.sum(n0 * n0 * sig, axis=-1)
    valid &= np.abs(nn) >= 1e-14
    N = n0 / np.sqrt(np.abs(np.where(np.abs(nn) < 1e-14, 1.0, nn)))[..., None]
    base = grid.base
    if N[base][np.argmax(np.abs(N[base]))] < 0:
        N[base] = -N[base]
    for axis in range(3):
        # the base line, then its sheets, then the volume, outward from the base
        at = tuple(base[a] if a > axis else slice(None) for a in range(3))
        for step in (1, -1):
            for i in range(base[axis] + step, grid.n[axis] if step > 0 else -1, step):
                nxt = at[:axis] + (i,) + at[axis + 1:]
                prev = at[:axis] + (i - step,) + at[axis + 1:]
                flip = spec.eps * np.sum(N[prev] * N[nxt] * sig, axis=-1) < 0
                N[nxt] = np.where(flip[..., None], -N[nxt], N[nxt])
    II = np.empty((3, 3) + tuple(grid.n))
    h = grid.spacing
    for i, j in itertools.combinations_with_replacement(range(3), 2):
        d2 = (second_derivative(pos, i, h[i]) if i == j
              else partial_derivative(df[i], j, h[j]))
        II[i, j] = II[j, i] = np.sum(d2 * N * sig, axis=-1)
    return I, II, N, valid


class TestCrossProductNormal:
    """The cofactor normal and det I of ``fundamental_forms`` against an SVD
    null vector and np.linalg.det."""

    GRID = ParameterGrid.centered(0.004, 21, (0.1, 0.4, 0.2))
    NAN_NODES = ((2, 5, 7), (15, 6, 17), (10, 10, 1), (19, 19, 19), (5, 16, 10))
    FAMILIES = {
        "r4": dict(kind="problemstar", K=1.0, a=1.0, c=0.0, eps=1),
        "s4": dict(kind="problemstar_sphere", K=-2.0, c=1.0, eps=1),
        "lorentz": dict(kind="problemstar", K=2.0, a=1.0, c=0.0, eps=-1),
    }

    def _sample(self, family, nan_nodes):
        fam = PhiFamily(rho=1.0, theta=0.5, **self.FAMILIES[family])
        pos = closed_form_transform(fam)(self.GRID.points())
        if nan_nodes:
            for node in self.NAN_NODES:
                pos[node] = np.nan
        return ImmersionSample(self.GRID, pos, fam.spec)

    @pytest.mark.parametrize("nan_nodes", [False, True])
    @pytest.mark.parametrize("family", ["r4", "s4", "lorentz"])
    def test_matches_svd_reference(self, family, nan_nodes):
        sample = self._sample(family, nan_nodes)
        forms = fundamental_forms(sample)
        I_ref, II_ref, N_ref, valid_ref = _svd_forms(sample)
        assert np.array_equal(forms.I, I_ref)
        assert np.array_equal(forms.valid, valid_ref)
        assert bool(forms.valid.all()) == (not nan_nodes)
        assert np.isfinite(forms.N).all()
        ok = forms.valid
        np.testing.assert_allclose(forms.N[ok], N_ref[ok], rtol=0, atol=1e-13)
        II, II_ref = forms.II[:, :, ok], II_ref[:, :, ok]
        np.testing.assert_allclose(II, II_ref, rtol=0, atol=1e-12 * np.abs(II_ref).max())

    def test_holds_no_memory_after_return(self):
        sample = self._sample("s4", nan_nodes=True)
        fundamental_forms(sample)
        gc.disable()
        try:
            tracemalloc.start()
            before = tracemalloc.get_traced_memory()[0]
            forms = fundamental_forms(sample)
            del forms
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            gc.enable()
        # a quarter of one grid-sized float array: no minors outlive the call
        assert retained < 2 * int(np.prod(self.GRID.n))


def _trailing_sig_sum(x, y, sig):
    """The signature inner product over the trailing axis, as whole-array
    products and in-order adds from +0.0."""
    p = x * y * sig
    out = np.zeros(p.shape[:-1])
    for k in range(p.shape[-1]):
        out = out + p[..., k]
    return out


def _trailing_metric(sample):
    """Zero-filled ``grid.n + (dim,)`` positions, their partials, the metric
    and the kept nodes (finite, outside the stencil halo)."""
    finite = sample.valid_mask()
    pos = np.where(finite[..., None], sample.positions, 0.0)
    df = grid_partials(pos, sample.grid)
    sig = sample.spec.ambient.sig_array
    I = np.empty((3, 3) + tuple(sample.grid.n))
    for i, j in itertools.combinations_with_replacement(range(3), 2):
        I[i, j] = I[j, i] = _trailing_sig_sum(df[i], df[j], sig)
    return pos, df, I, finite & ~stencil_halo(~finite)


def _trailing_align(N, grid, sig, eps):
    """Sign of ``grid.n + (dim,)`` normals fixed at the base, then one node
    slice at a time against its already aligned neighbour, in sweep order."""
    base = grid.base
    nb = N[base]
    if nb[int(np.argmax(np.abs(nb)))] < 0:
        N[base] = -nb
    for axis in range(3):
        at = tuple(base[a] if a > axis else slice(None) for a in range(3))
        for step in (1, -1):
            for i in range(base[axis] + step, grid.n[axis] if step > 0 else -1, step):
                nxt = at[:axis] + (i,) + at[axis + 1:]
                prev = at[:axis] + (i - step,) + at[axis + 1:]
                dot = _trailing_sig_sum(N[prev], N[nxt], sig) * eps
                N[nxt] = np.where((dot < 0)[..., None], -N[nxt], N[nxt])


def _trailing_forms(sample):
    """``fundamental_forms`` in the trailing layout, with the normal aligned
    one node slice at a time against its already aligned neighbour."""
    grid, spec = sample.grid, sample.spec
    sig = spec.ambient.sig_array
    pos, df, I, kept = _trailing_metric(sample)
    detI = np.abs(sum(a * b for a, b in zip(I[0], verify_module._cofactor_vector(I[1:]))))
    scale = np.maximum(np.abs(I).max(axis=(0, 1)) ** 3, 1e-300)
    valid = ((detI / scale) > verify_module.DET_TOL) & kept
    rows = list(df) + ([pos] if spec.c != 0 else [])
    cross = verify_module._cofactor_vector([np.moveaxis(r, -1, 0) for r in rows])
    norm = np.sqrt(sum(x * x for x in cross))
    degenerate = norm == 0
    n0 = np.stack(cross, axis=-1) * (sig / np.where(degenerate, 1.0, norm)[..., None])
    n0[degenerate] = np.eye(spec.dim)[-1]
    nn = _trailing_sig_sum(n0, n0, sig)
    bad_causal = np.abs(nn) < 1e-14
    valid &= ~bad_causal
    N = n0 / np.sqrt(np.abs(np.where(bad_causal, 1.0, nn)))[..., None]
    _trailing_align(N, grid, sig, spec.eps)
    II = np.empty((3, 3) + tuple(grid.n))
    h = grid.spacing
    for i, j in itertools.combinations_with_replacement(range(3), 2):
        d2 = (second_derivative(pos, i, h[i]) if i == j
              else partial_derivative(df[i], j, h[j]))
        II[i, j] = II[j, i] = _trailing_sig_sum(d2, N, sig)
    return I, II, N, valid


class TestComponentPlaneReference:
    """``fundamental_forms`` and ``isometry_check`` run on contiguous component
    planes with batched normal alignment; here they must give the bytes of the
    trailing-layout code with per-slice alignment, kept above."""

    FAMILIES = TestCrossProductNormal.FAMILIES
    GRIDS = {
        "pair62_21": TestCrossProductNormal.GRID,
        # off-centre base, so both directions of every sweep phase run; the
        # S4 partner is degenerate on its u2 = 0 plane here
        "unit_box": ParameterGrid((-1, -1, -1), (1, 1, 1), (11, 13, 9), (2, 7, 4)),
    }

    def _sample(self, family, grid, masked):
        fam = PhiFamily(rho=1.0, theta=0.5, **self.FAMILIES[family])
        g = self.GRIDS[grid]
        pos = closed_form_transform(fam)(g.points())
        flags = None
        if masked:
            pos[2, 5, 7] = np.nan
            pos[-1, 0, 3] = -np.inf
            flags = np.zeros(g.n, dtype=bool)
            flags[6, 6, 1] = True
        return ImmersionSample(g, pos, fam.spec, flags)

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize("family", ["r4", "s4", "lorentz"])
    def test_forms_bytes(self, family, grid, masked):
        sample = self._sample(family, grid, masked)
        forms = fundamental_forms(sample)
        I, II, N, valid = _trailing_forms(sample)
        assert forms.N.shape == tuple(sample.grid.n) + (sample.spec.dim,)
        for got, expect in ((forms.I, I), (forms.II, II), (forms.N, N),
                            (forms.valid, valid)):
            assert got.shape == expect.shape
            assert got.tobytes() == expect.tobytes()
        assert bool(valid.all()) == (not masked and (family, grid) != ("s4", "unit_box"))

    @pytest.mark.parametrize("eps", [1, -1])
    @pytest.mark.parametrize("base", [(0, 0, 0), (3, 6, 2), (6, 8, 4)])
    def test_alignment_rule(self, base, eps):
        # random raw normals: dots of both signs, exact zeros (orthogonal
        # neighbours), NaN and signed zeros, so every branch of the rule runs
        grid = ParameterGrid((0, 0, 0), (1, 1, 1), (7, 9, 5), base)
        sig = np.array([1.0, 1.0, 1.0, -1.0, 1.0])
        rng = np.random.default_rng(sum(base) + 10 * (eps > 0))
        for _ in range(20):
            N = rng.normal(size=grid.n + (5,))
            ortho = rng.uniform(size=grid.n) < 0.15
            N[ortho] = np.eye(5)[rng.integers(0, 2, size=grid.n)][ortho] * \
                np.where(rng.uniform(size=grid.n) < 0.5, -1.0, 1.0)[ortho][:, None]
            N[rng.uniform(size=grid.n) < 0.03] = np.nan
            N[rng.uniform(size=grid.n) < 0.03] = -0.0
            expect = N.copy()
            _trailing_align(expect, grid, sig, eps)
            planes = np.moveaxis(N, -1, 0).copy()
            verify_module._align_normal(planes, grid, sig, eps)
            assert np.moveaxis(planes, 0, -1).tobytes() == expect.tobytes()

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize("pair", [("r4", "s4"), ("lorentz", "r4")])
    def test_isometry_entries(self, pair, grid, masked):
        a = self._sample(pair[0], grid, masked)
        b = self._sample(pair[1], grid, False)
        *_, Ia, kept_a = _trailing_metric(a)
        *_, Ib, kept_b = _trailing_metric(b)
        diffs = np.stack([Ia[i, j] - Ib[i, j] for i, j in
                          itertools.combinations_with_replacement(range(3), 2)])
        ok = kept_a & kept_b
        expect = ResidualReport().add("metric_difference", diffs,
                                      np.broadcast_to(ok, diffs.shape))
        got = isometry_check(a, b)
        assert got.entries == expect.entries
        assert got.metadata == {"spacing": list(a.grid.spacing)}

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize("pair", [("r4", "s4"), ("lorentz", "r4")])
    def test_isometry_from_forms(self, pair, grid, masked):
        # the forms' metric and kept nodes, not their ``valid`` nodes: the S4
        # sample's singular u2 = 0 plane on the unit box still counts
        a = self._sample(pair[0], grid, masked)
        b = self._sample(pair[1], grid, False)
        forms_a, forms_b = fundamental_forms(a), fundamental_forms(b)
        got = isometry_check(a, b, forms_a, forms_b)
        expect = isometry_check(a, b)
        assert got.entries == expect.entries
        assert got.metadata == expect.metadata
        assert isometry_check(a, b, forms_a).entries == expect.entries
