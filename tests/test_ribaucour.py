import math

import numpy as np
import pytest

from spaceform_lab.ambient import SpaceFormSpec
from spaceform_lab.errors import (
    ConstraintUnsatisfiable,
    EmptyDomain,
    FlatAmbientUnsupported,
    GridMismatch,
    PreconditionFailed,
    SingularPhi,
    SingularPsi,
)
from spaceform_lab.frames import integrate_frame
from spaceform_lab.gallery import PhiFamily, phi_state, seed_frame_state, trivial_seed
from spaceform_lab.grid import ParameterGrid
from spaceform_lab.ribaucour import (
    InvariantDrift,
    RibaucourState,
    integrate_ribaucour,
    invariant_drift,
    invariant_fields,
    parallel_triple,
    seed_state,
    transform_immersion,
    transformed_triple,
)
from spaceform_lab.triples import TripleField, classify, first_integrals
from spaceform_lab.verify import fundamental_forms, ImmersionSample

FLAT = SpaceFormSpec(0.0, 0)
THETA = math.pi / 4


class TestSeedState:
    def test_phi_state_passes_verbatim(self, fam62, grid21):
        t = fam62.seed_triple(grid21)
        st = phi_state(fam62, grid21.base_point)
        out = seed_state(t, grid21.base, st, K2target=1.0)
        assert np.allclose(out.as_array(), st.as_array(), atol=1e-12)

    def test_phi_state_values_at_origin(self, fam62, grid21):
        # direct substitution of the family formulas at u = 0, theta = pi/4
        st = phi_state(fam62, (0.0, 0.0, 0.0))
        assert st.phi == pytest.approx(1.0)
        assert st.psi == pytest.approx(1.0)
        assert st.beta == pytest.approx(0.0)
        assert np.allclose(st.gamma, (0.0, -math.sqrt(2.0), 0.0))
        assert np.allclose(st.vprime, (0.0, 0.0, -1.0), atol=1e-15)

    def test_zero_quadratic_form_rejected(self, grid21):
        t = trivial_seed("problemstar_e1_Cneg", grid21, c=0.0, s=0, C=-1.0)
        req = RibaucourState((0, 0, 0), (1, 0, 0), phi=1.0, psi=0.0, beta=0.0)
        with pytest.raises(SingularPsi):
            seed_state(t, grid21.base, req, K2target=1.0)

    def test_zero_phi_rejected(self, grid21):
        t = trivial_seed("problemstar_e1_Cneg", grid21, c=0.0, s=0, C=-1.0)
        req = RibaucourState((1, 0, 0), (1, 0, 0), phi=0.0, psi=0.0, beta=0.0)
        with pytest.raises(SingularPhi):
            seed_state(t, grid21.base, req, K2target=1.0)

    def test_beta_zero_V_zero_accepts_any_quadric_point(self, grid21):
        # Omega vanishes identically; only the quadric constraint remains
        t = TripleField.constant(grid21, (1, -1, 1), FLAT, v=(1, 0, 0), V=(0, 0, 0))
        req = RibaucourState((1.0, 0.5, 0.0), (2.0, 0.0, 0.0), phi=0.5, psi=0.0,
                             beta=0.0)
        out = seed_state(t, grid21.base, req, K2target=1.0)
        d = np.array([1, -1, 1], dtype=float)
        assert float(np.sum(d * np.array(out.vprime) ** 2)) == pytest.approx(1.0)
        # rescaled along the request direction
        assert np.allclose(out.vprime, (1.0, 0.0, 0.0))

    def test_enforces_constraints_from_rough_request(self, fam62, grid21):
        t = fam62.seed_triple(grid21)
        st = phi_state(fam62, grid21.base_point)
        rough = RibaucourState(st.gamma, (0.3, 0.4, -2.0), st.phi, 0.0, st.beta)
        out = seed_state(t, grid21.base, rough, K2target=1.0)
        eps, c = t.spec.eps, t.spec.c
        g = np.array(out.gamma)
        K1 = float(np.sum(g**2) + eps * out.beta**2 + c * out.phi**2
                   - 2 * out.phi * out.psi)
        d = np.array([1, -1, 1], dtype=float)
        vp = np.array(out.vprime)
        v0, _, V0 = t.at(grid21.base)
        K2 = float(np.sum(d * vp**2))
        omega = out.phi * float(np.sum(d * vp * V0)) - eps * out.beta * (
            1.0 - float(np.sum(d * v0 * vp)))
        assert abs(K1) < 1e-12 and abs(K2 - 1.0) < 1e-12 and abs(omega) < 1e-12

    def test_infeasible_quadric_raises(self, grid21):
        t = TripleField.constant(grid21, (1, -1, 1), FLAT, v=(1, 0, 0), V=(0, 0, 0))
        req = RibaucourState((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), phi=0.5, psi=0.0,
                             beta=0.0)
        # request direction has delta-norm -1; the +1 quadric is unreachable
        with pytest.raises(ConstraintUnsatisfiable):
            seed_state(t, grid21.base, req, K2target=1.0)


class TestIntegration:
    def test_closed_form_match_62(self, fam62, grid21, pipeline62):
        _, _, rf, _ = pipeline62
        exact = np.concatenate(_family_state_arrays(fam62, grid21), axis=-1)
        assert np.abs(rf.states - exact).max() <= 1e-8

    def test_closed_form_match_cflat(self, famcf, grid21, pipelinecf):
        _, _, rf, _ = pipelinecf
        exact = np.concatenate(_family_state_arrays(famcf, grid21), axis=-1)
        assert np.abs(rf.states - exact).max() <= 1e-8

    def test_parallel_degenerate_constant_state(self, grid21):
        # gamma = 0 with the stationary v' = v + (beta V - c phi v)/psi and
        # psi from K1 = 0 stays constant over the whole box
        t = trivial_seed("problemstar_e1_Cneg", grid21, c=0.0, s=0, C=-1.0)
        beta, phi = 0.5, 1.0
        psi = (t.spec.eps * beta**2) / (2 * phi)
        v0, _, V0 = t.at(grid21.base)
        vprime = v0 + (beta * V0 - t.spec.c * phi * v0) / psi
        init = RibaucourState((0, 0, 0), tuple(vprime), phi, psi, beta)
        rf = integrate_ribaucour(t, init, grid21, K2target=None)
        assert np.abs(rf.gamma).max() < 1e-12
        assert np.abs(rf.phi - phi).max() < 1e-12
        assert np.abs(rf.psi - psi).max() < 1e-12
        assert np.abs(rf.beta - beta).max() < 1e-12
        assert np.abs(rf.vprime - vprime.reshape(3, 1, 1, 1)).max() < 1e-12

    def test_reproducible(self, fam62, grid21):
        t = fam62.seed_triple(grid21)
        st = phi_state(fam62, grid21.base_point)
        a = integrate_ribaucour(t, st, grid21, K2target=1.0)
        b = integrate_ribaucour(t, st, grid21, K2target=1.0)
        assert np.array_equal(a.states, b.states)


def _family_state_arrays(fam, grid):
    g, vp, phi, psi, beta = fam.state_arrays(grid.points())
    return g, vp, phi[..., None], psi[..., None], beta[..., None]


class TestInvariants:
    def test_62_drifts(self, pipeline62):
        _, _, rf, _ = pipeline62
        d = invariant_drift(rf)
        assert d.K1 <= 1e-8 and d.K2 <= 1e-8 and d.Omega <= 1e-8

    @pytest.mark.parametrize("drifts", [(math.nan, 0.0, 0.0), (0.0, math.nan, 0.0),
                                        (0.0, 0.0, math.nan)])
    def test_nan_drift_is_the_overall(self, drifts):
        assert math.isnan(InvariantDrift(*drifts).overall)

    def test_zero_field(self, grid21):
        t = trivial_seed("problemstar_e1_Cneg", grid21, c=0.0, s=0, C=-1.0)
        states = np.zeros(tuple(grid21.n) + (9,))
        from spaceform_lab.ribaucour import RibaucourField

        rf = RibaucourField(grid21, states, t, K2target=0.0, mask_tol=0.0)
        K1, K2, omega = invariant_fields(rf)
        assert np.abs(K1).max() == 0 and np.abs(K2).max() == 0
        assert np.abs(omega).max() == 0

    def test_nonzero_omega_never_crosses_zero(self, fam62, grid21):
        # Omega solves a linear first-order equation, so its sign propagates
        t = fam62.seed_triple(grid21)
        st = phi_state(fam62, grid21.base_point)
        bumped = RibaucourState(st.gamma, (0.0, 0.05, -1.0), st.phi, st.psi, st.beta)
        rf = integrate_ribaucour(t, bumped, grid21, K2target=1.0)
        _, _, omega = invariant_fields(rf)
        omega0 = omega[grid21.base]
        assert abs(omega0) > 1e-3
        assert np.all(np.sign(omega) == np.sign(omega0))

    def test_omega_matches_its_ode_along_a_line(self, fam62, grid21):
        t = fam62.seed_triple(grid21)
        st = phi_state(fam62, grid21.base_point)
        bumped = RibaucourState(st.gamma, (0.0, 0.05, -1.0), st.phi, st.psi, st.beta)
        rf = integrate_ribaucour(t, bumped, grid21, K2target=1.0)
        _, _, omega = invariant_fields(rf)
        i0, j0, k0 = grid21.base
        line = omega[:, j0, k0]
        # predicted growth factor exp(int (gamma_1/phi)(v_1 + v'_1))
        u1 = grid21.axis(0)
        g1 = rf.gamma[0][:, j0, k0]
        phi = rf.phi[:, j0, k0]
        v = t.v[0][:, j0, k0]
        vp = rf.vprime[0][:, j0, k0]
        integrand = g1 / phi * (v + vp)
        from scipy.integrate import cumulative_trapezoid

        integral = cumulative_trapezoid(integrand, u1, initial=0.0)
        predicted = line[i0] * np.exp(integral - integral[i0])
        assert np.abs(predicted - line).max() < 5e-3 * np.abs(line).max()


class TestTransform:
    def test_62_origin_value(self, pipeline62, grid21):
        _, _, _, fprime = pipeline62
        expect = np.array([0.0, 2.0 * math.cos(THETA), 0.0, 0.0])
        assert np.allclose(fprime.positions[grid21.base], expect, atol=1e-9)

    def test_grid_mismatch(self, pipeline62, fam62):
        triple, ff, rf, _ = pipeline62
        other = ParameterGrid.centered(0.5, 5)
        t2 = fam62.seed_triple(other)
        ff2 = integrate_frame(t2, fam62.frame_init(), other)
        with pytest.raises(GridMismatch):
            transform_immersion(ff2, rf)

    def test_homothety_degenerate_case(self):
        # gamma = beta = 0, c != 0, v' = (1 - c phi/psi) v: F' = (1 - c phi/psi) F
        grid = ParameterGrid.centered(0.4, 7)
        spec = SpaceFormSpec(1.0, 0)
        t = trivial_seed("problemstar_e1_Cneg", grid, c=1.0, s=0, C=-1.0)
        phi, psi = 0.5, 1.0
        factor = 1.0 - spec.c * phi / psi
        v0, _, _ = t.at(grid.base)
        init = RibaucourState((0, 0, 0), tuple(factor * v0), phi, psi, 0.0)
        rf = integrate_ribaucour(t, init, grid, K2target=None)
        ff = integrate_frame(t, seed_frame_state("problemstar_e1_Cneg", spec), grid)
        fp = transform_immersion(ff, rf)
        assert np.abs(fp.positions - factor * ff.f).max() < 1e-9

    def test_sphere_constraint(self, pipeline_s4):
        _, _, _, fprime = pipeline_s4
        assert fprime.on_form_residual() <= 1e-8

    def test_metric_is_diag_vprime_squared(self, fam62):
        grid = ParameterGrid.centered(0.005, 21, (0.1, 0.4, 0.2))
        t = fam62.seed_triple(grid)
        st = phi_state(fam62, grid.base_point)
        rf = integrate_ribaucour(t, st, grid, K2target=1.0)
        ff = integrate_frame(t, fam62.frame_init(), grid)
        fp = transform_immersion(ff, rf)
        forms = fundamental_forms(fp)
        vp = rf.vprime
        dev = max(np.abs(forms.I[i, i] - vp[i] ** 2).max() for i in range(3))
        off = max(np.abs(forms.I[i, j]).max() for i in range(3) for j in range(3)
                  if i != j)
        assert dev < 1e-6 and off < 1e-6


class TestTransformedTriple:
    def test_62_reclassifies(self, pipeline62):
        triple, _, rf, _ = pipeline62
        tt = transformed_triple(triple, rf)
        cls = classify(tt)
        assert cls.kind == "ProblemStar" and cls.eps_hat == 1
        assert cls.C == pytest.approx(-1.0, abs=1e-8)

    def test_cflat_reclassifies(self, pipelinecf):
        triple, _, rf, _ = pipelinecf
        assert classify(transformed_triple(triple, rf)).kind == "ConformallyFlat"

    def test_beta_zero_keeps_V(self, grid21):
        t = TripleField.constant(grid21, (1, -1, 1), FLAT, v=(1, 0, 0), V=(0, 0, 0))
        req = RibaucourState((1.0, 0.0, 0.0), (1.0, 0.0, 0.0), phi=0.5, psi=0.0,
                             beta=0.0)
        init = seed_state(t, grid21.base, req, K2target=1.0)
        rf = integrate_ribaucour(t, init, grid21, K2target=1.0)
        tt = transformed_triple(t, rf)
        ok = rf.valid_mask()
        assert np.abs((tt.V - t.V)[:, ok]).max() < 1e-12


class TestMasking:
    def _masked_run(self, grid):
        t = trivial_seed("problemstar_e1_Cneg", grid, c=0.0, s=0, C=-1.0)
        # phi(u1) = 0.2 + u1 crosses zero inside the box
        req = RibaucourState((1.0, 0.0, 0.0), (1.0, 0.1, 0.0), phi=0.2, psi=0.0,
                             beta=0.3)
        init = seed_state(t, grid.base, req, K2target=1.0)
        return t, integrate_ribaucour(t, init, grid, K2target=1.0)

    def test_singular_nodes_masked_and_contained(self):
        grid = ParameterGrid.centered(1.0, 21)
        t, rf = self._masked_run(grid)
        assert rf.masked is not None and rf.masked.any()
        assert not rf.masked.all()
        # masked set hugs the phi = 0 wall: everything on the far side too
        ok = rf.valid_mask()
        assert np.isfinite(rf.states[ok]).all()
        d = invariant_drift(rf)
        assert d.K1 < 1e-6 and d.K2 < 1e-6

    def test_transform_skips_masked(self, fam62):
        grid = ParameterGrid.centered(1.0, 21)
        t, rf = self._masked_run(grid)
        ff = integrate_frame(t, seed_frame_state("problemstar_e1_Cneg", t.spec), grid)
        fp = transform_immersion(ff, rf)
        assert np.isnan(fp.positions[rf.masked]).all()
        assert np.isfinite(fp.positions[rf.valid_mask()]).all()

    def test_retransform_of_masked_triple_raises(self):
        # NaN samples at masked nodes would spread through the spline along
        # the grid lines through them; both sweeps refuse such a triple and
        # say how many nodes
        grid = ParameterGrid.centered(1.0, 11)
        t, rf = self._masked_run(grid)
        tt = transformed_triple(t, rf)
        count = f"at {int(tt.masked.sum())} nodes"
        with pytest.raises(PreconditionFailed, match=count):
            integrate_ribaucour(tt, rf.state_at(grid.base), grid, K2target=1.0)
        with pytest.raises(PreconditionFailed, match=count):
            integrate_frame(tt, seed_frame_state("problemstar_e1_Cneg", t.spec), grid,
                            integrability_tol=None)

    def test_empty_domain_raises(self):
        grid = ParameterGrid.centered(1.0, 5)
        t, rf = self._masked_run(grid)
        rf.masked = np.ones(grid.n, dtype=bool)
        with pytest.raises(EmptyDomain):
            transformed_triple(t, rf)


@pytest.mark.parametrize("v, V", [((math.nan, 0, 0), (0, 1, 0)), ((1, 0, 0), (0, math.inf, 0))])
def test_non_finite_constant_triple_refused(v, V):
    # refused before any step, with no residual gate to catch it
    t = TripleField.constant(ParameterGrid.centered(1.0, 5), (1, -1, 1), FLAT, v=v, V=V)
    with pytest.raises(PreconditionFailed, match="constant triple is not finite"):
        integrate_frame(t, seed_frame_state("problemstar_e1_Cneg", FLAT),
                        integrability_tol=None)
    init = RibaucourState((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), 1.0, 0.5, 0.0)
    with pytest.raises(PreconditionFailed, match="constant triple is not finite"):
        integrate_ribaucour(t, init, integrability_tol=None)


class TestParallelTriple:
    def _ps_triple(self, c, grid):
        C = 1.0 * (1 if c > 0 else -1)
        kind = "problemstar_e1_Cpos" if C > 0 else "problemstar_e1_Cneg"
        return trivial_seed(kind, grid, c=c, s=0, C=C)

    def test_tau_zero_identity(self, grid21):
        t = self._ps_triple(1.0, grid21)
        t0 = parallel_triple(t, 0.0)
        assert np.allclose(t0.v, t.v) and np.allclose(t0.V, t.V)

    def test_quarter_turn_swaps(self, grid21):
        t = self._ps_triple(1.0, grid21)
        tq = parallel_triple(t, math.pi / 2)
        assert np.allclose(tq.v, -t.V, atol=1e-15)
        assert np.allclose(tq.V, t.v, atol=1e-15)

    @pytest.mark.parametrize("c", [1.0, -1.0])
    def test_problem_star_preserved_flat_target(self, c, grid21):
        # c~ = 0 target: conditions survive every parallel displacement
        t = self._ps_triple(c, grid21)
        K0 = first_integrals(t, grid21.base).as_tuple()
        for k in range(1, 11):
            tau = 0.1 * k
            tt = parallel_triple(t, tau)
            K = first_integrals(tt, grid21.base).as_tuple()
            assert abs(K[0] - K0[0]) < 1e-12
            assert abs(K[1] - K0[1]) < 1e-12
            assert abs(K[2] - K0[2]) < 1e-12
            assert classify(tt).kind == "ProblemStar"

    def test_composition_law(self, grid21):
        t = self._ps_triple(1.0, grid21)
        a = parallel_triple(parallel_triple(t, 0.3), 0.45)
        b = parallel_triple(t, 0.75)
        assert np.abs(a.v - b.v).max() < 1e-12
        assert np.abs(a.V - b.V).max() < 1e-12

    def test_h_unchanged(self, pipeline62):
        triple, _, rf, _ = pipeline62
        tt = transformed_triple(triple, rf)
        tt_sphere = TripleField.from_samples(tt.grid, tt.delta, SpaceFormSpec(1.0, 0),
                                             tt.v, tt.h, tt.V)
        tp = parallel_triple(tt_sphere, 0.2)
        assert np.array_equal(tp.h, tt_sphere.h)

    @pytest.mark.parametrize("spec", [SpaceFormSpec(2.0, 0), SpaceFormSpec(-0.5, 0),
                                      SpaceFormSpec(0.5, 1)], ids=["rotation", "boost",
                                                                    "lorentz"])
    def test_constant_matches_sampled(self, spec):
        """A constant triple's parallel triple is constant, with the bytes of
        the parallel triple of its sampled copy at every node."""
        grid = ParameterGrid.centered(1.0, (5, 6, 7))
        t = TripleField.constant(grid, (1, -1, 1), spec, v=(0.3, -1.2, 0.0),
                                 V=(2.0, 0.7, -0.4))
        ts = TripleField.from_samples(grid, t.delta, spec, t.v, t.h, t.V)
        nodes = grid.points()
        for tau in (0.0, 0.37, -1.3):
            tc, tp = parallel_triple(t, tau), parallel_triple(ts, tau)
            assert tc.closed_form and not tp.closed_form
            for got, ref in ((tc.v, tp.v), (tc.h, tp.h), (tc.V, tp.V)):
                assert got.tobytes() == ref.tobytes()
            v, h, V = tc.eval_at(nodes)
            assert v.tobytes() == np.moveaxis(tp.v, 0, -1).tobytes()
            assert V.tobytes() == np.moveaxis(tp.V, 0, -1).tobytes()
            assert h.tobytes() == np.moveaxis(tp.h, (0, 1), (-2, -1)).tobytes()

    def test_flat_ambient_rejected(self, grid21):
        t = trivial_seed("problemstar_e1_Cneg", grid21, c=0.0, s=0, C=-1.0)
        with pytest.raises(FlatAmbientUnsupported):
            parallel_triple(t, 0.1)


class TestSweepGrid:
    """A sweep runs on its triple's own grid; any other box is refused."""

    BOX_A = ParameterGrid.centered(0.4, 9)
    BOX_B = ParameterGrid.centered(0.4, 9, (0.1, 0.0, 0.0))   # same n, other nodes

    def _sweeps(self, t, fam, grid):
        with pytest.raises(GridMismatch):
            integrate_ribaucour(t, phi_state(fam, grid.base_point), grid, K2target=1.0)
        with pytest.raises(GridMismatch):
            integrate_frame(t, fam.frame_init(), grid, integrability_tol=None)

    def test_sampled_triple_on_another_box(self, fam62):
        t = fam62.seed_triple(self.BOX_A)
        rf = integrate_ribaucour(t, phi_state(fam62, self.BOX_A.base_point), K2target=1.0)
        tt = transformed_triple(t, rf)
        assert not tt.closed_form and tt.masked is None
        self._sweeps(tt, fam62, self.BOX_B)

    def test_closed_form_triple_on_another_box(self, fam62):
        self._sweeps(fam62.seed_triple(self.BOX_A), fam62, self.BOX_B)

    def test_equal_grid_accepted(self, fam62):
        t = fam62.seed_triple(self.BOX_A)
        grid = ParameterGrid.centered(0.4, 9)
        assert grid is not t.grid
        rf = integrate_ribaucour(t, phi_state(fam62, grid.base_point), grid, K2target=1.0)
        ff = integrate_frame(t, fam62.frame_init(), grid)
        assert ff.grid is grid and rf.grid is grid
