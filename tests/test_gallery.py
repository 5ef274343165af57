import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spaceform_lab.ambient import SpaceFormSpec
from spaceform_lab.errors import (
    InvalidParams,
    SingularDenominator,
    SingularOrbit,
    SingularPsi,
)
from spaceform_lab.frames import FrameField, frame_gram_residual
from spaceform_lab.gallery import (
    PhiFamily,
    closed_form_frame,
    closed_form_transform,
    explicit_fprime,
    generalized_cone,
    height_ode_residual,
    helix,
    latitude_circle,
    parabolic_gram,
    parabolic_to_orthonormal,
    phi_state,
    rotation_hypersurface,
    seed_frame_state,
    signed_component_match,
    trivial_seed,
)
from spaceform_lab.grid import ParameterGrid
from spaceform_lab.triples import classify, first_integrals, triple_residuals

THETA = math.pi / 4


class TestTrivialSeeds:
    @pytest.mark.parametrize("kind,C,v,V,delta", [
        ("problemstar_e1_Cneg", -1.0, (1, 0, 0), (0, 1, 0), (1, -1, 1)),
        ("problemstar_e1_Cpos", 4.0, (1, 0, 0), (0, 0, 2), (1, -1, 1)),
        ("problemstar_em1_Cpos", 1.0, (0, 1, 0), (0, 0, 1), (1, -1, 1)),
        ("problemstar_em1_Cneg", -1.0, (0, 0, 1), (1, 0, 0), (-1, -1, -1)),
    ])
    def test_menu(self, kind, C, v, V, delta, grid21):
        t = trivial_seed(kind, grid21, c=0.0, s=0, C=C)
        v0, h0, V0 = t.at(grid21.base)
        assert tuple(v0) == v and tuple(V0) == V
        assert t.delta == delta
        assert np.abs(h0).max() == 0.0
        assert triple_residuals(t).overall_max == 0.0
        assert classify(t).kind == "ProblemStar"

    def test_cflat_seed(self, grid21):
        t = trivial_seed("cflat", grid21, c=0.0, s=0)
        v0, _, V0 = t.at(grid21.base)
        assert tuple(v0) == (0, 1, 1) and tuple(V0) == (1, 0, 0)
        assert classify(t).kind == "ConformallyFlat"

    def test_wrong_C_sign_rejected(self, grid21):
        with pytest.raises(InvalidParams):
            trivial_seed("problemstar_e1_Cneg", grid21, C=1.0)
        with pytest.raises(InvalidParams):
            trivial_seed("problemstar_em1_Cpos", grid21, C=-1.0)

    @pytest.mark.parametrize("kind", ["problemstar_e1_Cneg", "problemstar_em1_Cpos"])
    def test_nan_C_rejected(self, kind, grid21):
        # C * sign <= 0 is false for NaN: the check must read "not > 0"
        with pytest.raises(InvalidParams):
            trivial_seed(kind, grid21, C=math.nan)
        with pytest.raises(InvalidParams):
            closed_form_frame(kind, SpaceFormSpec(0.0, 0), C=math.nan)

    @pytest.mark.parametrize("C", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("kind", ["problemstar_e1_Cneg", "problemstar_e1_Cpos"])
    def test_non_finite_C_rejected(self, kind, C, grid21):
        with pytest.raises(InvalidParams, match="finite C"):
            trivial_seed(kind, grid21, C=C)
        with pytest.raises(InvalidParams, match="finite C"):
            closed_form_frame(kind, SpaceFormSpec(1.0, 0), C=C)

    def test_cflat_needs_flat_ambient(self, grid21):
        with pytest.raises(InvalidParams):
            trivial_seed("cflat", grid21, c=1.0, s=0)

    def test_cflat_takes_no_C(self, grid21):
        with pytest.raises(InvalidParams, match="takes no C"):
            trivial_seed("cflat", grid21, c=0.0, s=0, C=7.0)

    def test_unknown_kind(self, grid21):
        with pytest.raises(InvalidParams):
            trivial_seed("moebius", grid21)

    def test_unknown_kind_named_by_both(self, grid21):
        # trivial_seed and closed_form_frame share one kind check
        message = r"unknown seed kind 'moebius'; choose from \('problemstar_e1_Cneg'"
        with pytest.raises(InvalidParams, match=message):
            trivial_seed("moebius", grid21, C=1.0)
        with pytest.raises(InvalidParams, match=message):
            closed_form_frame("moebius", SpaceFormSpec(0.0, 0), C=1.0)

    def test_seeds_valid_for_any_c(self):
        grid = ParameterGrid.centered(0.5, 7)
        for c in (1.0, -1.0, 0.5):
            t = trivial_seed("problemstar_em1_Cpos", grid, c=c, s=0, C=2.0)
            assert triple_residuals(t).overall_max == 0.0


class TestClosedFormFrames:
    @pytest.mark.parametrize("kind,c,s,C", [
        ("problemstar_e1_Cneg", 0.0, 0, -1.0),
        ("problemstar_e1_Cneg", 1.0, 0, -1.0),
        ("problemstar_e1_Cneg", -1.0, 0, -1.0),
        ("problemstar_e1_Cneg", 0.0, 1, -1.0),
        ("problemstar_e1_Cpos", 1.0, 0, 1.0),
        ("problemstar_em1_Cpos", 0.0, 0, 2.0),
        ("problemstar_em1_Cneg", 0.0, 0, -1.0),
        ("cflat", 0.0, 0, None),
        ("cflat", 0.0, 1, None),
    ])
    def test_solves_frame_system(self, kind, c, s, C):
        """Divided differences of the closed form reproduce the system RHS."""
        spec = SpaceFormSpec(c, s)
        grid = ParameterGrid.centered(0.4, 9)
        t = trivial_seed(kind, grid, c=c, s=s, C=C)
        frame = closed_form_frame(kind, spec, C)
        pts = grid.points()
        states = frame(pts)
        assert np.array_equal(states[grid.base],
                              seed_frame_state(kind, spec).as_array())
        eps = spec.eps
        h_step = 1e-6
        v0, _, V0 = t.at(grid.base)
        worst = 0.0
        for a in range(3):
            dp = pts.copy()
            dp[..., a] += h_step
            dm = pts.copy()
            dm[..., a] -= h_step
            dS = (frame(dp) - frame(dm)) / (2 * h_step)
            f = states[..., 0, :]
            X = states[..., 1:4, :]
            N = states[..., 4, :]
            rhs = np.empty_like(dS)
            rhs[..., 0, :] = v0[a] * X[..., a, :]
            acc = eps * V0[a] * N - c * v0[a] * f
            for i in range(3):
                if i != a:
                    rhs[..., 1 + i, :] = 0.0
            rhs[..., 1 + a, :] = acc
            rhs[..., 4, :] = -V0[a] * X[..., a, :]
            worst = max(worst, np.abs(dS - rhs).max())
        assert worst < 1e-9

    def test_gram_is_exact(self):
        spec = SpaceFormSpec(1.0, 0)
        grid = ParameterGrid.centered(1.0, 7)
        t = trivial_seed("problemstar_e1_Cpos", grid, c=1.0, s=0, C=1.0)
        states = closed_form_frame("problemstar_e1_Cpos", spec, 1.0)(grid.points())
        ff = FrameField(grid, states, t)
        assert frame_gram_residual(ff).overall_max < 1e-14


class TestPhiFamilies:
    @pytest.mark.parametrize("fam_kw", [
        dict(kind="problemstar", K=1.0, a=1.0, c=0.0, eps=1),
        dict(kind="problemstar", K=1.5, a=0.8, c=0.4, eps=1),
        dict(kind="problemstar", K=2.0, a=1.0, c=0.0, eps=-1),
        dict(kind="problemstar_sphere", K=-2.0, c=1.0, eps=1),
        dict(kind="problemstar_sphere", K=-3.0, c=1.0, eps=1),
        dict(kind="cflat", K=-1.0, c=0.0, eps=1),
        dict(kind="cflat", K=-0.5, c=0.0, eps=1),
    ])
    def test_brackets_constant_and_sum_zero(self, fam_kw):
        fam = PhiFamily(rho=1.3, theta=0.9, **fam_kw)
        ref = fam.brackets((0.0, 0.0, 0.0))
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = rng.uniform(-1, 1, size=3)
            b = fam.brackets(tuple(x))
            assert np.allclose(b, ref, atol=1e-12)
        assert abs(sum(ref)) <= 1e-10

    def test_invalid_branches_rejected(self):
        with pytest.raises(InvalidParams):
            PhiFamily("problemstar", K=0.5, a=1.0, c=1.0, eps=1)   # Ka - c < 0
        with pytest.raises(InvalidParams):
            PhiFamily("problemstar_sphere", K=-0.5, c=1.0, eps=1)
        with pytest.raises(InvalidParams):
            PhiFamily("cflat", K=0.5, c=0.0, eps=1)
        with pytest.raises(InvalidParams):
            PhiFamily("cflat", K=-1.0, c=1.0, eps=1)

    @pytest.mark.parametrize("fam_kw", [
        dict(kind="problemstar_sphere", K=-2.0, c=1.0, eps=1, a=1.0),
        dict(kind="cflat", K=-1.0, c=0.0, eps=1, a=5.0),
    ])
    def test_a_only_for_problemstar(self, fam_kw):
        with pytest.raises(InvalidParams, match="takes no a"):
            PhiFamily(**fam_kw)
        assert PhiFamily("problemstar", K=1.0).a == 1.0

    @pytest.mark.parametrize("fam_kw", [
        dict(kind="problemstar", K=math.nan, c=0.0, eps=1),
        dict(kind="problemstar", K=1.0, a=math.nan, c=0.0, eps=1),
        dict(kind="problemstar_sphere", K=math.nan, c=1.0, eps=1),
        dict(kind="cflat", K=math.nan, c=0.0, eps=1),
    ])
    def test_nan_parameters_rejected(self, fam_kw):
        # every branch condition is false for NaN, so each kind used to accept it
        with pytest.raises(InvalidParams):
            PhiFamily(**fam_kw)

    def test_phi_odes_satisfied(self):
        fam = PhiFamily("problemstar", K=1.2, a=0.9, c=0.3, eps=1, rho=0.7,
                        theta=0.5, phases=(0.1, -0.2, 0.3))
        ks = fam.ode_coefficients()
        h = 1e-5
        for i in range(3):
            for x in (-0.5, 0.2, 0.9):
                d2 = (fam.phi(i, x + h) - 2 * fam.phi(i, x) + fam.phi(i, x - h)) / h**2
                assert d2 == pytest.approx(ks[i] * fam.phi(i, x), rel=1e-4, abs=1e-6)

    def test_state_satisfies_system_62(self, fam62):
        _assert_state_solves_system(fam62)

    def test_state_satisfies_system_cflat(self, famcf):
        _assert_state_solves_system(famcf)

    def test_state_satisfies_system_sphere(self, fam_s4):
        _assert_state_solves_system(fam_s4)

    def test_phi_state_62_origin(self, fam62):
        st = phi_state(fam62, (0.0, 0.0, 0.0))
        assert st.psi == pytest.approx(1.0)
        assert np.allclose(st.vprime, (0.0, 0.0, -1.0), atol=1e-15)

    def test_phi_state_cflat_beta_zero_branch(self):
        # theta = pi/2 kills phi_1, hence beta; the state is singular at u=0
        fam = PhiFamily("cflat", K=-1.0, c=0.0, eps=1, rho=1.0, theta=math.pi / 2)
        st = phi_state(fam, (0.3, 0.5, 0.2))
        assert abs(st.beta) < 1e-15          # cos(pi/2) rounds to ~6e-17
        with pytest.raises(SingularPsi):
            phi_state(fam, (0.0, 0.0, 0.0))

    @given(st.floats(0.3, 1.2), st.floats(0.5, 1.8))
    @settings(max_examples=15, deadline=None)
    def test_seed_constraints_always_hold(self, theta, rho):
        fam = PhiFamily("problemstar", K=1.0, a=1.0, c=0.0, eps=1, rho=rho,
                        theta=theta)
        st = phi_state(fam, (0.0, 0.0, 0.0))
        g = np.array(st.gamma)
        K1 = float(np.sum(g**2)) - 2 * st.phi * st.psi
        d = np.array([1.0, -1.0, 1.0])
        K2 = float(np.sum(d * np.array(st.vprime) ** 2))
        assert abs(K1) < 1e-12 and abs(K2 - 1.0) < 1e-12


def _assert_state_solves_system(fam):
    """Plug the closed-form state into the transformation system by divided
    differences and check every equation, including the added one."""
    grid = ParameterGrid.centered(0.3, 5, (0.05, -0.1, 0.2))
    t = fam.seed_triple(grid)
    eps, c = t.spec.eps, t.spec.c
    delta = np.asarray(t.delta, dtype=float)
    pts = grid.points()
    g, vp, phi, psi, beta = fam.state_arrays(pts)
    v0, _, V0 = t.at(grid.base)
    hs = 1e-6
    worst = 0.0
    for a in range(3):
        dp = pts.copy()
        dp[..., a] += hs
        dm = pts.copy()
        dm[..., a] -= hs
        gp, vpp, phip, psip, betap = fam.state_arrays(dp)
        gm, vpm, phim, psim, betam = fam.state_arrays(dm)
        dgam = (gp - gm) / (2 * hs)
        dvp = (vpp - vpm) / (2 * hs)
        dphi = (phip - phim) / (2 * hs)
        dpsi = (psip - psim) / (2 * hs)
        dbeta = (betap - betam) / (2 * hs)
        # (i), (iv), (v)
        worst = max(worst, np.abs(dphi - v0[a] * g[..., a]).max())
        worst = max(worst, np.abs(eps * dbeta + V0[a] * g[..., a]).max())
        worst = max(worst, np.abs(dpsi + g[..., a] * vp[..., a] * psi / phi).max())
        # (ii) with h = 0, (iii)
        for j in range(3):
            if j == a:
                continue
            worst = max(worst, np.abs(dgam[..., j]).max())
        rhs = (v0[a] - vp[..., a]) * psi + beta * V0[a] - c * phi * v0[a]
        worst = max(worst, np.abs(dgam[..., a] - rhs).max())
        # (vi) and (vii) with h'_aj = (v'_j - v_j) gamma_a / phi
        hp = (vp - v0) * (g[..., a] / phi)[..., None]
        for j in range(3):
            if j == a:
                continue
            worst = max(worst, np.abs(dvp[..., j] - hp[..., j] * vp[..., a]).max())
        acc = sum(delta[j] * hp[..., j] * vp[..., j] for j in range(3) if j != a)
        worst = max(worst, np.abs(delta[a] * dvp[..., a] + acc).max())
    assert worst < 1e-6


class TestClosedFormTransform:
    def test_matches_pipeline_62(self, pipeline62, grid21, fam62):
        _, _, _, fprime = pipeline62
        oracle = closed_form_transform(fam62)(grid21.points())
        assert np.abs(fprime.positions - oracle).max() < 1e-8

    def test_matches_pipeline_s4(self, pipeline_s4, grid21, fam_s4):
        _, _, _, fprime = pipeline_s4
        oracle = closed_form_transform(fam_s4)(grid21.points())
        assert np.abs(fprime.positions - oracle).max() < 1e-8

    def test_matches_pipeline_cflat(self, pipelinecf, grid21, famcf):
        _, _, _, fprime = pipelinecf
        oracle = closed_form_transform(famcf)(grid21.points())
        assert np.abs(fprime.positions - oracle).max() < 1e-8


class TestExplicitFprime:
    def test_r4_origin(self):
        for theta in (0.3, THETA, 1.2):
            out = explicit_fprime("r4_pair", theta, np.zeros(3))
            assert np.allclose(out, [0.0, 2 * math.cos(theta), 0.0, 0.0])

    def test_r4_matches_closed_form_transform(self, fam62, grid21):
        printed = explicit_fprime("r4_pair", THETA, grid21.points())
        oracle = closed_form_transform(fam62)(grid21.points())
        assert np.abs(printed - oracle).max() < 1e-12

    def test_r4_degenerate_theta(self):
        u = np.array([0.7, -0.3, 0.4])
        out = explicit_fprime("r4_pair", math.pi / 2, u)
        assert np.allclose(out, [u[0], 0.0, 0.0, 0.0])

    def test_cflat_origin_all_zero(self):
        out = explicit_fprime("cflat_K_minus1", THETA, np.zeros(3))
        assert np.allclose(out, 0.0)

    def test_cflat_printed_denominator_sign(self):
        # printed h^{-1} is negative near the origin: -cos^2(theta) at u = 0
        u = np.zeros(3)
        theta = 0.7
        g = math.cosh(0) - math.sin(theta) * math.cos(0)
        hinv = (math.cos(theta) ** 2 - 2.0 + 2.0 * math.sin(theta) ** 2)
        assert hinv == pytest.approx(-math.cos(theta) ** 2)
        assert hinv < 0

    def test_cflat_printed_vs_pipeline_mismatch_documented(self, famcf, grid21):
        # components 2 and 3 of the printed list agree with the pipeline;
        # 1 and 4 carry misprints (reference only, never corrected silently)
        printed = explicit_fprime("cflat_K_minus1", THETA, grid21.points())
        oracle = closed_form_transform(famcf)(grid21.points())
        match = signed_component_match(oracle, printed)
        assert match[1]["max_abs_diff"] < 1e-12
        assert match[2]["max_abs_diff"] < 1e-12
        assert match[0]["max_abs_diff"] > 0.1
        assert match[3]["max_abs_diff"] > 0.1

    def test_transformed_cflat_surface_classifies_from_samples(self, famcf):
        # extract (v, h, V) from position samples of the transformed
        # conformally flat surface and classify the result
        from spaceform_lab.triples import TripleField, classify
        from spaceform_lab.verify import ImmersionSample, holonomic_data

        grid = ParameterGrid.centered(0.0005, 11, (0.1, 0.4, 0.2))
        pos = closed_form_transform(famcf)(grid.points())
        v, h, V, _ = holonomic_data(ImmersionSample(grid, pos, famcf.spec))
        t = TripleField.from_samples(grid, (1, -1, 1), famcf.spec, v, h, V)
        cls = classify(t, tol=1e-5)
        assert cls.kind == "ConformallyFlat"

    def test_s4_printed_is_reference_up_to_sign(self, fam_s4, grid21):
        # the printed sphere-target list fails the quadric constraint at u=0
        # (squared norm 1 + 4 cos^2 theta), the pipeline satisfies it
        theta = 0.7
        printed0 = explicit_fprime("s4_pair", theta, np.zeros(3))
        norm = float(np.sum(printed0**2))
        assert norm == pytest.approx(1 + 4 * math.cos(theta) ** 2)
        fam = PhiFamily("problemstar_sphere", K=-2.0, c=1.0, eps=1, rho=1.0,
                        theta=theta)
        pipeline0 = closed_form_transform(fam)(np.zeros(3))
        assert float(np.sum(pipeline0**2)) == pytest.approx(1.0)
        ct, st_ = math.cos(theta), math.sin(theta)
        assert np.allclose(pipeline0, [0.0, ct, 0.0, st_ * ct, st_**2])

    def test_singular_denominator(self):
        with pytest.raises(SingularDenominator):
            explicit_fprime("cflat_K_minus1", math.pi / 2, np.zeros(3))

    def test_unknown_name(self):
        with pytest.raises(InvalidParams):
            explicit_fprime("moebius", 0.3, np.zeros(3))


class TestHelix:
    def test_flat_oscillator_affine_height(self):
        s = np.linspace(0, 1.0, 201)
        prof = helix(0.0, 1.0, s, amplitude=0.2, slope=0.3)
        rep = height_ode_residual(prof)
        assert rep["closed_form"].max < 1e-12
        gv = prof.height_samples()
        assert np.allclose(gv, 0.2 + 0.3 * s)

    def test_harmonic_height(self):
        s = np.linspace(0.1, 0.9, 201)
        prof = helix(2.0, 1.0, s, amplitude=0.6)
        rep = height_ode_residual(prof)
        assert rep["closed_form"].max <= 1e-8
        assert rep["unit_speed"].max < 1e-4  # divided-difference limited
        # curve stays on the model sphere
        assert np.abs(np.sum(prof.coords**2, axis=-1) - 1.0).max() < 1e-12

    def test_latitude_circle_constant_height(self):
        s = np.linspace(0, 2.0, 101)
        prof = latitude_circle(1.0, 0.5, s)
        assert np.ptp(prof.height_samples()) == 0.0
        rep = height_ode_residual(prof, c_h=2.0)
        # residual reports |c_h * gv| for the constant-height circle
        assert rep["sampled_fd"].max == pytest.approx(1.0, abs=1e-10)

    def test_height_exceeding_radius_rejected(self):
        with pytest.raises(InvalidParams):
            helix(2.0, 1.0, np.linspace(0, 1, 11), amplitude=1.5)

    def test_height_reaching_radius_at_a_sample_rejected(self):
        # amplitude 1 reaches the radius at s = 0 only, a sample and no
        # quadrature node
        with pytest.raises(InvalidParams, match="radius"):
            helix(2.0, 1.0, np.linspace(0, 1, 11), amplitude=1.0)

    def test_unit_speed_failure_rejected(self):
        # |gv'| = 1.5 > 1: no unit-speed curve has this height
        with pytest.raises(InvalidParams, match="unit-speed"):
            helix(0.0, 1.0, np.linspace(0, 0.2, 11), amplitude=0.2, slope=1.5)

    # the profiles of this module and of acceptance criterion 10, and a
    # hyperbolic one
    @pytest.mark.parametrize("c_h, s, kwargs", [
        (0.0, np.linspace(0, 1.0, 201), dict(amplitude=0.2, slope=0.3)),
        (2.0, np.linspace(0.1, 0.9, 201), dict(amplitude=0.6)),
        (2.0, np.linspace(0.1, 0.6, 11), dict(amplitude=0.6)),
        (2.0, np.linspace(0.2, 0.22, 21), dict(amplitude=0.6)),
        (-1.0, np.linspace(0.0, 0.5, 31), dict(amplitude=0.3, phase=0.2, alpha0=0.4)),
    ])
    def test_matches_dop853(self, c_h, s, kwargs):
        from scipy.integrate import solve_ivp

        prof = helix(c_h, 1.0, s, **kwargs)

        def alpha_rhs(t, _):
            g, dg = float(prof.gv(t)), float(prof.dgv(t))
            r2 = 1.0 - g * g
            dr = -g * dg / math.sqrt(r2)
            return [math.sqrt(1.0 - dg * dg - dr * dr) / math.sqrt(r2)]

        sol = solve_ivp(alpha_rhs, (s[0], s[-1]), [kwargs.get("alpha0", 0.0)], t_eval=s,
                        rtol=1e-12, atol=1e-12, method="DOP853")
        assert sol.success
        g = prof.gv(s)
        r = np.sqrt(1.0 - g * g)
        ref = np.stack([g, r * np.cos(sol.y[0]), r * np.sin(sol.y[0])], axis=-1)
        assert np.abs(prof.coords - ref).max() <= 1e-11


class TestRotationHypersurface:
    def _profile(self):
        s = np.linspace(0.1, 0.6, 11)
        return helix(2.0, 1.0, s, amplitude=0.6)

    def test_spherical_chart_basepoint(self):
        prof = self._profile()
        pos = rotation_hypersurface("spherical", prof, [0], [0.0], [0.0])
        g = prof.coords[0]
        assert np.allclose(pos[0, 0, 0], [g[0], 0.0, 0.0, g[1], g[2]])

    def test_parabolic_basepoint(self):
        prof = self._profile()
        pos = rotation_hypersurface("parabolic", prof, [0], [0.0], [0.0])
        g = prof.coords[0]
        assert np.allclose(pos[0, 0, 0], [g[0], 0.0, 0.0, g[1], g[2]])

    def test_singular_orbit_rejected(self):
        s = np.linspace(0, 1.0, 11)
        prof = latitude_circle(1.0, 0.0, s)        # height 0: meets the axis plane
        with pytest.raises(SingularOrbit):
            rotation_hypersurface("spherical", prof, [0], [0.1], [0.1])

    def test_parabolic_gram_and_orthonormal_change(self):
        G = parabolic_gram(1)
        assert G[0, 3] == 1.0 and G[0, 0] == 0.0 and G[4, 4] == 1.0
        coords = np.array([1.0, 0.5, -0.2, 2.0, 0.3])
        ortho = parabolic_to_orthonormal(coords)
        # <x, x> must agree in both descriptions (orthonormal signature +,-,... )
        lhs = coords @ G @ coords
        sig = np.array([1.0, 1.0, 1.0, -1.0, 1.0])
        rhs = float(np.sum(ortho * ortho * sig))
        assert lhs == pytest.approx(rhs)

    def test_unknown_type(self):
        with pytest.raises(InvalidParams):
            rotation_hypersurface("helicoid", self._profile(), [0], [0.1], [0.1])


class TestGeneralizedCone:
    def test_flat_rulings_are_straight(self):
        spec = SpaceFormSpec(0.0, 0)
        x = np.linspace(0, 0.5, 5)
        X1, X2 = np.meshgrid(x, x, indexing="ij")
        r = 1 / math.sqrt(2)
        surf = np.stack([r * np.cos(X1 / r), r * np.sin(X1 / r),
                         r * np.cos(X2 / r), r * np.sin(X2 / r)], axis=-1)
        tv = np.array([0.0, 0.2, 0.4])
        cone = generalized_cone(surf, spec, 1.0, tv)
        assert np.allclose(cone[..., 0, :], surf)
        xi = surf                                   # unit normal of S^3 is g itself
        assert np.allclose(cone[..., 1, :], surf + 0.2 * xi)
        assert np.allclose(cone[..., 2, :], surf + 0.4 * xi)

    def test_sphere_ambient_cone_stays_on_form(self):
        spec = SpaceFormSpec(1.0, 0)
        from spaceform_lab.ambient import UmbilicalSlice, on_space_form

        sl = UmbilicalSlice(spec, 2.0)
        d = sl.height
        r = math.sqrt(1 - d * d)
        x = np.linspace(0, 0.5, 5)
        X1, X2 = np.meshgrid(x, x, indexing="ij")
        surf = np.stack([r * np.cos(X1), r * np.sin(X1) * np.cos(X2),
                         r * np.sin(X1) * np.sin(X2), np.zeros_like(X1),
                         np.full_like(X1, d)], axis=-1)
        # points sit on the slice by construction
        cone = generalized_cone(surf, spec, 2.0, np.linspace(-0.3, 0.3, 4))
        assert np.all(on_space_form(spec, cone, 1e-10))
