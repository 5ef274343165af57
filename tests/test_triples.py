import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import make_interp_spline

from spaceform_lab import triples
from spaceform_lab._sweep import node_intervals
from spaceform_lab.ambient import SpaceFormSpec
from spaceform_lab.errors import (
    BranchViolation,
    DegenerateTriple,
    GridTooCoarse,
    InvalidParams,
    NotAFirstIntegralSolution,
    PreconditionFailed,
    UmbilicSetError,
)
from spaceform_lab.gallery import SEED_KINDS, PhiFamily, phi_state, trivial_seed
from spaceform_lab.grid import ParameterGrid
from spaceform_lab.ribaucour import integrate_ribaucour, transformed_triple
from spaceform_lab.triples import (
    TripleField,
    _largest_residual,
    check_sweep_input,
    classify,
    companion_V,
    delta_inner,
    first_integral_fields,
    first_integrals,
    principal_curvatures,
    triple_from_curvatures,
    triple_residuals,
)

from conftest import permute_triple

FLAT = SpaceFormSpec(0.0, 0)


def grid9():
    return ParameterGrid.centered(1.0, 9)


def seed62(grid, C=-1.0):
    return trivial_seed("problemstar_e1_Cneg", grid, c=0.0, s=0, C=C)


def seedcf(grid):
    return trivial_seed("cflat", grid, c=0.0, s=0)


def nan_c_seed(grid):
    """seed62 in a space form whose c is NaN.  SpaceFormSpec refuses such a c,
    so it is set past the check: a triple handed one must still fail the
    sweep gate."""
    t = seed62(grid)
    spec = SpaceFormSpec(0.0, 0)
    object.__setattr__(spec, "c", math.nan)
    t.spec = spec
    return t


class TestTripleResiduals:
    def test_seed62_exact(self):
        rep = triple_residuals(seed62(grid9()))
        assert rep.overall_max == 0.0

    def test_seedcf_exact(self):
        rep = triple_residuals(seedcf(grid9()))
        assert rep.overall_max == 0.0

    def test_nan_curvature_fails_the_sweep_precondition(self):
        # c = NaN makes only 3.iii NaN, behind finite entries
        g = grid9()
        t = nan_c_seed(g)
        assert math.isnan(triple_residuals(t)["3.iii"].max)
        with pytest.raises(PreconditionFailed):
            check_sweep_input(t, g, 1e-8)

    def test_perturbed_h12_hits_the_stencil(self):
        # bump h_12 by +0.1 at one interior node of the conformally flat seed
        g = grid9()
        t = seedcf(g)
        v, h, V = t.v.copy(), t.h.copy(), t.V.copy()
        node = (4, 4, 4)
        h[(0, 1) + node] += 0.1
        tp = TripleField.from_samples(g, t.delta, t.spec, v, h, V)
        rep = triple_residuals(tp)
        spacing = g.spacing[0]
        # (3.iv): the term h_12 V_1 fires at the node itself
        assert rep["3.iv"].max == pytest.approx(0.1, abs=1e-12)
        assert rep["3.iv"].argmax[1:] == node
        # (3.ii)/(3.iii): central difference of the bump at the axis neighbours
        expected = 0.1 / (2 * spacing)
        assert expected > 0.05
        assert rep["3.ii"].max == pytest.approx(expected, abs=1e-12)
        assert rep["3.iii"].max == pytest.approx(expected, abs=1e-12)
        # v_1 = 0 keeps equation family (3.i) blind to this bump
        assert rep["3.i"].max == 0.0

    def test_transformed_triple_residuals_shrink_like_h2(self, famcf):
        # exact solution sampled on two spacings: only stencil error remains
        from spaceform_lab.gallery import phi_state
        from spaceform_lab.ribaucour import integrate_ribaucour

        maxima = []
        for half in (0.2, 0.1):
            grid = ParameterGrid.centered(half, 9, (0.1, 0.4, 0.2))
            t = famcf.seed_triple(grid)
            rf = integrate_ribaucour(t, phi_state(famcf, grid.base_point), grid,
                                     K2target=0.0)
            rep = triple_residuals(transformed_triple(t, rf))
            maxima.append(rep.overall_max)
        assert maxima[0] / maxima[1] > 3.0
        assert maxima[1] < 2e-2


def _bits(x):
    return np.float64(x).tobytes()


class TestSweepGate:
    """The gate of ``check_sweep_input`` reads ``triple_residuals(t).overall_max``
    bit for bit, one residual row at a time; a constant triple's gate reads
    the rows' exact values, within rounding of the report's stencils."""

    def _assert_gate_is_report_max(self, t):
        worst = triple_residuals(t).overall_max
        assert _bits(_largest_residual(t)) == _bits(worst)
        if worst > 0:
            check_sweep_input(t, t.grid, worst)
            message = re.escape(f"seed residual {worst:.3e} exceeds")
            with pytest.raises(PreconditionFailed, match=message):
                check_sweep_input(t, t.grid, np.nextafter(worst, 0.0))
        return worst

    @pytest.mark.parametrize("n", [11, 21])
    @pytest.mark.parametrize("kind", SEED_KINDS)
    def test_gallery_seeds(self, kind, n):
        C = None if kind == "cflat" else (-1.0 if kind.endswith("Cneg") else 2.0)
        t = trivial_seed(kind, ParameterGrid.centered(1.0, n), C=C)
        assert self._assert_gate_is_report_max(t) == 0.0
        check_sweep_input(t, t.grid, 0.0)

    def test_injected_violation(self):
        t = TripleField.constant(grid9(), (1, -1, 1), FLAT, v=(0, 1, 1), V=(1, 0.5, 0.2))
        assert self._assert_gate_is_report_max(t) == 0.5
        with pytest.raises(PreconditionFailed, match="seed residual 5.000e-01 exceeds 1.0e-08"):
            check_sweep_input(t, t.grid, 1e-8)

    def test_transformed_triple(self, famcf):
        grid = ParameterGrid.centered(0.2, 9, (0.1, 0.4, 0.2))
        t = famcf.seed_triple(grid)
        rf = integrate_ribaucour(t, phi_state(famcf, grid.base_point), grid, K2target=0.0)
        tt = transformed_triple(t, rf)
        assert not tt.closed_form
        assert self._assert_gate_is_report_max(tt) > 0

    @pytest.mark.parametrize("block", [np.s_[2:4, 3:6, 1:3], np.s_[:, :, :]])
    def test_masked_block(self, block):
        # a partial mask keeps the nodes whose stencils avoid it; a full one
        # keeps none, and every entry reads 0
        g = ParameterGrid.centered(1.0, 11)
        rng = np.random.default_rng(5)
        masked = np.zeros(g.n, dtype=bool)
        masked[block] = True
        t = TripleField.from_samples(g, (1, -1, 1), SpaceFormSpec(0.5, 1),
                                     rng.normal(size=(3,) + g.n),
                                     rng.normal(size=(3, 3) + g.n),
                                     rng.normal(size=(3,) + g.n), masked=masked)
        worst = self._assert_gate_is_report_max(t)
        assert (worst > 0) == (not masked.all())

    def test_nan_curvature(self):
        t = nan_c_seed(grid9())
        worst = _largest_residual(t)
        assert math.isnan(worst) and _bits(worst) == _bits(triple_residuals(t).overall_max)
        with pytest.raises(PreconditionFailed, match="seed residual nan exceeds"):
            check_sweep_input(t, t.grid, 1e-8)

    @pytest.mark.parametrize("n", [(5, 6, 41), (41, 41, 41)])
    def test_constant_one_sided_rounding(self, n):
        # -1.5 x + 2 x - 0.5 x rounds to nonzero for these values, so only the
        # report's one-sided face stencils carry a residual; the gate reads
        # the rows with exact derivatives, 0, and passes a zero tolerance
        grid = ParameterGrid((-1.0, -0.3, 0.0), (1.0, 0.7, 2.5), n)
        t = TripleField.constant(grid, (1, -1, 1), FLAT, v=(0.1, 0.3, 0.7), V=(0.0, 0.7, 0.0))
        report = triple_residuals(t)
        argmax = [e.argmax[1:] for e in report.entries.values() if e.max > 0]
        assert argmax and all(any(i in (0, m - 1) for i, m in zip(idx, n)) for idx in argmax)
        assert 0 < report.overall_max <= 1e-14 and _largest_residual(t) == 0.0
        check_sweep_input(t, t.grid, 0.0)

    # every gallery seed in every ambient it admits, and the (3.iii) = 0.5
    # triple of tests/test_io_cli.py
    CONSTANT = [(kind, c, s) for kind in SEED_KINDS for c in (-1.0, 0.0, 1.0) for s in (0, 1)
                if kind != "cflat" or c == 0] + [("violation", 0.0, 0)]

    @pytest.mark.parametrize("kind,c,s", CONSTANT)
    def test_constant_gate_is_exact(self, kind, c, s):
        # the gate's number is the exact max |eps V_i V_j + c v_i v_j| (every
        # other row of a constant triple is 0), within 1e-14 of the report's
        # stencils, and its verdict at the default 1e-8 is the stencils' one
        grid = ParameterGrid((-1.0, -0.3, 0.0), (1.0, 0.7, 2.5), (5, 6, 41))
        if kind == "violation":
            t = TripleField.constant(grid, (1, -1, 1), FLAT, v=(0, 1, 1), V=(1, 0.5, 0.2))
        elif kind == "cflat":
            t = trivial_seed(kind, grid, c=c, s=s)
        else:
            t = trivial_seed(kind, grid, c=c, s=s, C=-1.0 if kind.endswith("Cneg") else 1.0)
        (v, V), eps = t.constant_values, t.spec.eps
        exact = max(abs(eps * V[i] * V[j] + t.spec.c * v[i] * v[j])
                    for i, j in itertools.combinations(range(3), 2))
        worst = triple_residuals(t).overall_max
        assert _largest_residual(t) == exact and abs(exact - worst) <= 1e-14
        if kind == "violation":
            assert exact == 0.5
            with pytest.raises(PreconditionFailed,
                               match="^seed residual 5.000e-01 exceeds 1.0e-08$"):
                check_sweep_input(t, grid, 1e-8)
        else:
            assert exact == 0.0 and worst <= 1e-8
            check_sweep_input(t, grid, 1e-8)

    def test_gate_holds_few_grid_planes(self):
        import tracemalloc

        t = seed62(ParameterGrid.centered(1.0, 21))
        t.v, t.h, t.V                                    # sample before measuring
        check_sweep_input(t, t.grid, 1e-8)
        plane = np.prod(t.grid.n) * 8
        tracemalloc.start()
        try:
            check_sweep_input(t, t.grid, 1e-8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * plane, peak / plane


class TestConstantTriple:
    @pytest.mark.parametrize("bad", [(1.0, 2.0), (1.0, 2.0, 3.0, 4.0)])
    def test_wrong_lengths_are_typed(self, bad):
        with pytest.raises(InvalidParams, match="3 values"):
            TripleField.constant(grid9(), (1, -1, 1), FLAT, v=bad, V=(0, 1, 0))
        with pytest.raises(InvalidParams, match="3 values"):
            TripleField.constant(grid9(), (1, -1, 1), FLAT, v=(0, 1, 0), V=bad)

    def test_same_shape_values_are_shared_and_read_only(self):
        v, V = (1.0, -0.5, 2.0), (0.0, 3.0, -1.0)
        t = TripleField.constant(grid9(), (1, -1, 1), FLAT, v=v, V=V)
        pts = np.random.default_rng(3).uniform(-1, 1, size=(41, 3))
        first = t.eval_at(pts)
        for got in (t.eval_at(pts.copy()), t.eval_at(pts + 0.5)):
            for a, b in zip(first, got):
                assert np.shares_memory(a, b) and not b.flags.writeable
        for a in first:
            with pytest.raises(ValueError):
                a[...] = 0.0
        # every shape broadcasts the same two 3-vectors and h = 0
        for shape in ((7, 3), (41, 3)):
            got_v, got_h, got_V = t.eval_at(np.zeros(shape))
            lead = shape[:-1]
            assert np.array_equal(got_v, np.broadcast_to(v, lead + (3,)))
            assert np.array_equal(got_V, np.broadcast_to(V, lead + (3,)))
            assert np.array_equal(got_h, np.zeros(lead + (3, 3)))


class TestFirstIntegrals:
    def test_seed62_values(self):
        t = seed62(grid9())
        K = first_integrals(t, t.grid.base)
        assert K.as_tuple() == (1.0, 0.0, -1.0)

    def test_seedcf_values(self):
        t = seedcf(grid9())
        assert first_integrals(t, t.grid.base).as_tuple() == (0.0, 0.0, 1.0)

    def test_zero_data(self):
        t = TripleField.constant(grid9(), (1, -1, 1), FLAT, v=(0, 0, 0), V=(0, 0, 0))
        assert first_integrals(t, t.grid.base).as_tuple() == (0.0, 0.0, 0.0)


class TestClassify:
    def test_seed62_problem_star_branches(self):
        cls = classify(seed62(grid9()))
        assert cls.kind == "ProblemStar"
        assert cls.eps_hat == 1 and cls.C == -1.0
        by_eps = {b.eps_tilde: b.c_tilde for b in cls.branches}
        assert by_eps[1] == pytest.approx(1.0)       # c~ = c - C
        assert by_eps[-1] == pytest.approx(-1.0)

    def test_seedcf_conformally_flat(self):
        assert classify(seedcf(grid9())).kind == "ConformallyFlat"

    def test_neither(self):
        t = TripleField.constant(grid9(), (1, -1, 1), FLAT, v=(2, 0, 0), V=(0, 0, 0))
        assert classify(t).kind == "Neither"

    def test_eps_hat_minus_one_needs_matching_delta(self):
        g = grid9()
        ok = trivial_seed("problemstar_em1_Cneg", g, C=-1.0)
        assert classify(ok).kind == "ProblemStar"
        assert classify(ok).eps_hat == -1
        # same sums with the canonical delta pattern are not a valid case
        bad = TripleField.constant(g, (1, -1, 1), FLAT, v=(0, 1, 0), V=(1, 0, 0))
        assert first_integrals(bad, g.base).as_tuple() == (-1.0, 0.0, 1.0 * 1)
        # K3 = +1 > 0 here, so this one IS the valid em1_Cpos pattern
        assert classify(bad).kind == "ProblemStar"

    def test_drifting_sums_raise(self):
        g = grid9()
        U1 = g.meshes()[0]
        v = np.stack([1.0 + U1**2, np.zeros(g.n), np.zeros(g.n)])
        h = np.zeros((3, 3) + g.n)
        V = np.zeros((3,) + g.n)
        t = TripleField.from_samples(g, (1, -1, 1), FLAT, v, h, V)
        with pytest.raises(NotAFirstIntegralSolution):
            classify(t)

    @pytest.mark.parametrize("v, V", [((math.nan, 0, 0), (0, 0, 0)),
                                      ((1, 0, 0), (0, math.nan, 0)),
                                      ((1, 0, 0), (0, 1e200, 0))],
                             ids=["nan_v", "nan_V", "K3_overflows"])
    def test_non_finite_first_integrals_raise(self, v, V):
        t = TripleField.constant(grid9(), (1, -1, 1), FLAT, v=v, V=V)
        with pytest.raises(NotAFirstIntegralSolution, match="K = .* not finite"):
            classify(t)

    def test_nan_off_the_base_node_is_drift(self):
        g = grid9()
        v = np.zeros((3,) + g.n)
        v[0] = 1.0
        v[0, 0, 0, 0] = math.nan
        t = TripleField.from_samples(g, (1, -1, 1), FLAT, v, np.zeros((3, 3) + g.n),
                                     np.zeros((3,) + g.n))
        with pytest.raises(NotAFirstIntegralSolution, match="drift by nan"):
            classify(t)

    def test_overflowing_target_curvature_raises(self):
        # K = (1, 0, 1e308) with c = 1e308: c + K3 overflows on the eps_tilde = -1 branch
        t = TripleField.constant(grid9(), (1, -1, 1), SpaceFormSpec(1e308, 0), v=(1, 0, 0),
                                 V=(0, 0, 1e154))
        with pytest.raises(NotAFirstIntegralSolution, match="target curvature"):
            classify(t)

    def test_permuted_delta_classifies_identically(self):
        t = seedcf(grid9())
        t_s = TripleField.from_samples(t.grid, t.delta, t.spec, t.v, t.h, t.V)
        for perm in itertools.permutations(range(3)):
            cls = classify(permute_triple(t_s, perm))
            assert cls.kind == "ConformallyFlat"
            assert cls.permutation is not None


class TestPrincipalCurvatures:
    def test_componentwise_quotient(self):
        t = TripleField.constant(grid9(), (1, -1, 1), FLAT, v=(1, 2, 4), V=(3, 2, 2))
        assert principal_curvatures(t, t.grid.base) == (3.0, 1.0, 0.5)

    def test_degenerate_seed_raises(self):
        with pytest.raises(DegenerateTriple):
            principal_curvatures(seedcf(grid9()), (0, 0, 0))

    def test_umbilic_case(self):
        t = TripleField.constant(grid9(), (1, -1, 1), FLAT, v=(1, 2, 3),
                                 V=(0.5, 1.0, 1.5))
        assert principal_curvatures(t, t.grid.base) == (0.5, 0.5, 0.5)


class TestCompanionV:
    def test_seed62_closed_formula(self):
        a = math.sqrt(2.0)
        t = seed62(grid9(), C=-2.0)
        Vt = companion_V(t)
        assert np.allclose(Vt[0], 0) and np.allclose(Vt[1], 0)
        assert np.allclose(Vt[2], a)

    def test_wrong_classification_rejected(self):
        with pytest.raises(PreconditionFailed):
            companion_V(seedcf(grid9()))

    def test_delta_gram_on_closed_form_seed(self):
        # constant seed: the Gram identity holds to 1e-10 entrywise
        t = seed62(grid9(), C=-1.0)
        Vt = companion_V(t)
        D = np.stack([t.v, t.V, Vt], axis=1)        # |C| = 1
        d = np.asarray(t.delta, dtype=float)
        gram = np.einsum("ia...,i,ib...->ab...", D, d, D)
        target = np.diag([1.0, -1.0, 1.0]).reshape(3, 3, 1, 1, 1)
        assert np.abs(gram - target).max() <= 1e-10

    def test_delta_gram_property(self, pipeline62):
        triple, _, rf, _ = pipeline62
        tt = transformed_triple(triple, rf)
        cls = classify(tt)
        C = cls.C
        Vt = companion_V(tt)
        D = np.stack([tt.v, tt.V / math.sqrt(abs(C)), Vt / math.sqrt(abs(C))], axis=1)
        target = np.diag([cls.eps_hat, math.copysign(1, C),
                          -cls.eps_hat * math.copysign(1, C)])
        d = np.asarray(tt.delta, dtype=float)
        gram = np.einsum("ia...,i,ib...->ab...", D, d, D)
        dev = np.abs(gram - target.reshape(3, 3, 1, 1, 1))
        assert dev.max() < 1e-8

    def test_companion_gauss_identity(self, pipeline62):
        # c v_i v_j + eps V_i V_j = c~ v_i v_j + eps~ Vt_i Vt_j on the branch
        # eps~ = eps_hat * eps fixed by the construction
        triple, _, rf, _ = pipeline62
        tt = transformed_triple(triple, rf)
        cls = classify(tt)
        eps = tt.spec.eps
        eps_tilde = cls.eps_hat * eps
        c_tilde = {b.eps_tilde: b.c_tilde for b in cls.branches}[eps_tilde]
        Vt = companion_V(tt)
        v, V = tt.v, tt.V
        for i, j in itertools.combinations(range(3), 2):
            lhs = tt.spec.c * v[i] * v[j] + eps * V[i] * V[j]
            rhs = c_tilde * v[i] * v[j] + eps_tilde * Vt[i] * Vt[j]
            assert np.abs(lhs - rhs).max() < 1e-8

    def test_companion_codazzi_relation(self, fam62):
        # d(Vt_j)/du_i = h_ij Vt_i, finite-difference limited
        from spaceform_lab.gallery import phi_state
        from spaceform_lab.grid import partial_derivative
        from spaceform_lab.ribaucour import integrate_ribaucour

        grid = ParameterGrid.centered(0.005, 9, (0.1, 0.4, 0.2))
        t = fam62.seed_triple(grid)
        rf = integrate_ribaucour(t, phi_state(fam62, grid.base_point), grid,
                                 K2target=1.0)
        tt = transformed_triple(t, rf)
        Vt = companion_V(tt)
        h = tt.h
        sp = grid.spacing
        worst = 0.0
        for i, j in itertools.permutations(range(3), 2):
            res = partial_derivative(Vt[j], i, sp[i]) - h[i, j] * Vt[i]
            worst = max(worst, np.abs(res).max())
        assert worst < 1e-5

    def test_zero_V_gives_zero_companion(self):
        # alternating bilinear form vanishes when V = 0; bypass classification
        g = grid9()
        t = TripleField.constant(g, (1, -1, 1), FLAT, v=(1, 0, 0), V=(0, 0, 0))
        v, V = t.v, t.V
        out = []
        for j in range(3):
            i, k = [a for a in range(3) if a != j]
            out.append(((-1.0) ** j) * t.delta[j] * (v[i] * V[k] - v[k] * V[i]))
        assert np.allclose(np.stack(out), 0.0)


class TestTripleFromCurvatures:
    def test_conformally_flat_pattern(self):
        g = grid9()
        lam = np.broadcast_to(np.array([-1.0, 0.0, 1.0]).reshape(3, 1, 1, 1),
                              (3,) + g.n).copy()
        t = triple_from_curvatures(lam, (1, -1, 1), FLAT, g)
        v0 = t.v[:, 4, 4, 4]
        assert v0 == pytest.approx([1 / math.sqrt(2), 1.0, 1 / math.sqrt(2)])
        assert delta_inner(t.delta, t.v, t.v)[4, 4, 4] == pytest.approx(0.0)
        assert classify(t).kind == "ConformallyFlat"

    def test_constant_lambdas_give_h_zero(self):
        g = grid9()
        lam = np.broadcast_to(np.array([1.0, 2.0, 3.0]).reshape(3, 1, 1, 1),
                              (3,) + g.n).copy()
        t = triple_from_curvatures(lam, (1, -1, 1), FLAT, g)
        # face stencil coefficients leave 1-ulp noise on constants
        assert np.abs(t.h).max() < 1e-14

    def test_problem_star_branch_sign_check(self):
        g = grid9()
        lam = np.broadcast_to(np.array([1.0, 2.0, 3.0]).reshape(3, 1, 1, 1),
                              (3,) + g.n).copy()
        # radicands delta_j/prod positive for this pattern (direct arithmetic)
        t = triple_from_curvatures(lam, (1, -1, 1), FLAT, g)
        assert np.isfinite(t.v).all()

    def test_round_trip_identity_on_lambda(self):
        g = grid9()
        U1, U2, U3 = g.meshes()
        lam = np.stack([-1.0 + 0.05 * U1, 0.1 * U2, 1.0 + 0.05 * U3])
        t = triple_from_curvatures(lam, (1, -1, 1), FLAT, g)
        back = t.V / t.v
        assert np.abs(back - lam).max() < 1e-12

    def test_problem_star_recovers_transformed_triple(self, fam62):
        # lambda' = V'/v' of a transformed Problem-* triple on the pair62 box;
        # the branch takes the positive root, so it must give |v'|
        from spaceform_lab.gallery import phi_state
        from spaceform_lab.ribaucour import integrate_ribaucour

        grid = ParameterGrid.centered(0.004, 11, (0.1, 0.4, 0.2))
        t = fam62.seed_triple(grid)
        rf = integrate_ribaucour(t, phi_state(fam62, grid.base_point), grid,
                                 K2target=1.0)
        tt = transformed_triple(t, rf)
        cls = classify(tt)
        assert cls.kind == "ProblemStar" and cls.eps_hat == 1
        assert cls.C == pytest.approx(-1.0, abs=1e-8)
        assert (tt.v < 0).all()
        back = triple_from_curvatures(tt.V / tt.v, tt.delta, tt.spec, grid,
                                      problem_star=(cls.eps_hat, cls.C))
        assert np.abs(back.v - np.abs(tt.v)).max() < 1e-12
        K = first_integrals(back, grid.base).as_tuple()
        assert K == pytest.approx((1.0, 0.0, -1.0), abs=1e-8)
        assert classify(back).kind == "ProblemStar"     # constant over the box

    def test_branch_violation(self):
        g = grid9()
        lam = np.broadcast_to(np.array([-1.0, 0.0, 1.0]).reshape(3, 1, 1, 1),
                              (3,) + g.n).copy()
        with pytest.raises(BranchViolation):
            triple_from_curvatures(lam, (1, 1, 1), FLAT, g)

    def test_umbilic_rejected(self):
        g = grid9()
        lam = np.broadcast_to(np.array([1.0, 1.0, 2.0]).reshape(3, 1, 1, 1),
                              (3,) + g.n).copy()
        with pytest.raises(UmbilicSetError):
            triple_from_curvatures(lam, (1, -1, 1), FLAT, g)


class TestFirstIntegralDriftBound:
    def test_exact_seeds_have_zero_drift(self):
        for t in (seed62(grid9()), seedcf(grid9())):
            K1, K2, K3 = first_integral_fields(t)
            for f in (K1, K2, K3):
                assert np.abs(f - f[t.grid.base]).max() == 0.0

    @given(st.floats(0.3, 1.1), st.floats(0.5, 2.0), st.floats(-0.8, 0.8))
    @settings(max_examples=10, deadline=None)
    def test_bound_on_family_transforms(self, theta, rho, k_shift):
        from spaceform_lab.gallery import phi_state
        from spaceform_lab.ribaucour import integrate_ribaucour

        fam = PhiFamily("problemstar", K=1.0 + k_shift, a=1.0, c=0.0, eps=1,
                        rho=rho, theta=theta)
        grid = ParameterGrid.centered(0.5, 7)
        t = fam.seed_triple(grid)
        rf = integrate_ribaucour(t, phi_state(fam, grid.base_point), grid,
                                 K2target=1.0)
        tt = transformed_triple(t, rf)
        res = triple_residuals(tt).overall_max
        K1, K2, K3 = first_integral_fields(tt)
        drift = max(np.abs(f - f[grid.base]).max() for f in (K1, K2, K3))
        assert drift <= 10.0 * max(res, 1e-15) * grid.diameter


class TestSampledEvaluation:
    @staticmethod
    def _exact(u1, u2, u3):
        """A smooth (v, h, V), components first, at broadcastable coordinates."""
        shape = np.broadcast(u1, u2, u3).shape
        v = np.stack([1.0 + 0.2 * np.sin(u1), np.cosh(0.3 * u2), 1.0 + 0.1 * u3**2])
        V = np.stack([0.5 * np.cos(u1), 0.2 * u2 + 0 * u1, np.sin(0.4 * u3)])
        h = np.zeros((3, 3) + shape)
        h[0, 1] = 0.3 * np.cos(u1) * np.ones(shape)
        h[2, 0] = 0.1 * u3 * np.ones(shape)
        return v, h, V

    def _exact_at(self, points):
        """``_exact`` at points (..., 3), components last."""
        v, h, V = self._exact(points[..., 0], points[..., 1], points[..., 2])
        return np.moveaxis(v, 0, -1), np.moveaxis(h, (0, 1), (-2, -1)), np.moveaxis(V, 0, -1)

    def _smooth_triple(self, n=21):
        """``_exact`` sampled on the nodes of an n^3 grid."""
        grid = ParameterGrid.centered(1.0, n)
        return TripleField.from_samples(grid, (1, -1, 1), FLAT, *self._exact(*grid.meshes()))

    def test_cubic_interpolation_matches_callables(self):
        ts = self._smooth_triple()
        rng = np.random.default_rng(5)

        def check(reach, tol):
            # on grid lines along each axis: node values (the grid is a cube)
            # within reach off the axis, a uniform coordinate along it
            nodes = ts.grid.axis(0)
            nodes = nodes[np.abs(nodes) <= reach]
            for axis in range(3):
                pts = rng.choice(nodes, size=(40, 3))
                pts[:, axis] = rng.uniform(-reach, reach, size=40)
                for got, ref in zip(ts.eval_at(pts), self._exact_at(pts)):
                    assert np.abs(got - ref).max() < tol

        # the not-a-knot end pieces keep the edge layer at the interior's h^4
        check(0.95, 5e-6)
        check(0.5, 1e-5)

    def test_midpoint_error_is_fourth_order(self):
        """At the midpoints of every cell of every grid line, end cells
        included, the spline error falls like h^4 under refinement."""
        errors = []
        for n in (11, 21, 41):
            ts = self._smooth_triple(n=n)
            error = 0.0
            for axis in range(3):
                coords = [ts.grid.axis(a) for a in range(3)]
                coords[axis] = 0.5 * (coords[axis][:-1] + coords[axis][1:])
                pts = np.stack(np.meshgrid(*coords, indexing="ij"), axis=-1).reshape(-1, 3)
                error = max(error, np.abs(_rows(ts.eval_at(pts), pts)
                                          - _rows(self._exact_at(pts), pts)).max())
            errors.append(error)
        orders = np.log2(np.array(errors[:-1]) / errors[1:])
        assert (orders >= 3.5).all(), (errors, orders)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_three_node_axis_is_too_coarse(self, axis):
        n = [5, 5, 5]
        n[axis] = 3
        grid = ParameterGrid((-1.0,) * 3, (1.0,) * 3, tuple(n))
        ones = np.ones((3,) + grid.n)
        t = TripleField.from_samples(grid, (1, -1, 1), FLAT, ones, np.zeros((3, 3) + grid.n),
                                     ones)
        with pytest.raises(GridTooCoarse):
            t.eval_at(np.zeros((1, 3)))

    @pytest.mark.parametrize("u", [
        (0.5, -0.25, 1.0),
        (np.linspace(0, 1, 4), 0.5, np.zeros(4)),
        (np.zeros((2, 1)), np.ones((1, 5)), 0.0),
        (np.array([0.123]), np.array([-0.456]), np.array([0.789])),
        tuple(np.random.default_rng(2).uniform(-1, 1, size=(3, 4, 5))),
    ])
    def test_constant_triple_bytes(self, u):
        """``eval_at`` at points of shape lead + (3,) gives v and V repeated
        over lead, components last, and h = 0, as read-only broadcasts."""
        v, V = np.array([1.0, -0.0, 2.5]), np.array([np.sqrt(2.0), 0.0, -3.0])
        t = TripleField.constant(grid9(), (1, -1, 1), FLAT, v=v, V=V)
        pts = np.stack(np.broadcast_arrays(*u), axis=-1)
        lead = pts.shape[:-1]
        got_v, got_h, got_V = t.eval_at(pts)
        for got, ref in ((got_v, v), (got_V, V)):
            want = np.broadcast_to(ref, lead + (3,)).copy()
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert not got.flags.writeable and got.base is not None
        assert got_h.shape == lead + (3, 3)
        assert got_h.tobytes() == np.zeros(lead + (3, 3)).tobytes()

    def test_constant_grid_arrays(self):
        """The grid arrays of a constant triple hold its values at every node."""
        t = TripleField.constant(grid9(), (1, -1, 1), FLAT, v=(1.0, -0.0, 2.5),
                                 V=(0.5, 0.0, -3.0))
        n = t.grid.n
        for got, ref in ((t.v, (1.0, -0.0, 2.5)), (t.V, (0.5, 0.0, -3.0))):
            want = np.broadcast_to(np.reshape(ref, (3, 1, 1, 1)), (3,) + n).copy()
            assert got.tobytes() == want.tobytes()
        assert t.h.tobytes() == np.zeros((3, 3) + n).tobytes()


def _components(t):
    """The 15 sampled components of (v, h, V) as one (15,) + grid.n stack."""
    n = t.grid.n
    return np.concatenate([t.v.reshape((3,) + n), t.h.reshape((9,) + n),
                           t.V.reshape((3,) + n)])


def _split(out, points):
    """A (points, 15) array as (v, h, V), components last."""
    lead = points.shape[:-1]
    return (out[:, :3].reshape(lead + (3,)), out[:, 3:12].reshape(lead + (3, 3)),
            out[:, 12:].reshape(lead + (3,)))


def _nodal(grid, p):
    """Which points (P, 3) sit on a node of ``grid``."""
    return np.all([np.isin(p[:, a], grid.axis(a)) for a in range(3)], axis=0)


def _line_axes(grid, p, axis):
    """The axis of the line each point is evaluated along: ``axis``, or 0
    for a point on a node."""
    return np.where(_nodal(grid, p), 0, axis)


def _not_a_knot_eval(t, points, axis):
    """Reference (v, h, V), components last, at points on grid lines along
    ``axis``: scipy's not-a-knot interpolant (``make_interp_spline(k=3)``) of
    each point's line samples, which extends its end pieces outside the box.
    A point on a node takes its line along axis 0, as the spline does.

    The interpolant is linear in the samples, so its value is the line's
    samples contracted with the 1-D interpolants of the unit vectors."""
    p = points.reshape(-1, 3)
    along = _line_axes(t.grid, p, axis)
    out = np.empty((len(p), 15))
    for a in set(along.tolist()):
        out[along == a] = _rows(_along_line(t, p[along == a], a), p[along == a])
    return _split(out, points)


def _along_line(t, p, axis):
    """``_not_a_knot_eval`` at points (P, 3) on grid lines along ``axis``."""
    g = t.grid
    index = []                      # each point's node on the two other axes
    for b in range(3):
        if b != axis:
            i = np.argmin(np.abs(g.axis(b)[:, None] - p[:, b]), axis=0)
            assert np.array_equal(g.axis(b)[i], p[:, b]), "a point is off the grid lines"
            index.append(i)
    lines = np.moveaxis(_components(t), 1 + axis, -1)[(slice(None), *index)]  # (15, points, n_a)
    w = make_interp_spline(g.axis(axis), np.eye(g.n[axis]), k=3)(p[:, axis])
    return _split(np.einsum("pi,cpi->pc", w, lines), p)


def _tensor_eval(t, points):
    """Reference (v, h, V), components last: the tensor-product not-a-knot
    spline of the whole box, as scipy's interpolant on each axis contracted
    with the samples (finite samples only: it spreads a NaN everywhere)."""
    p = points.reshape(-1, 3)
    w = [make_interp_spline(t.grid.axis(a), np.eye(t.grid.n[a]), k=3)(p[:, a])
         for a in range(3)]
    return _split(np.einsum("pi,pj,pk,cijk->pc", *w, _components(t)), points)


def _rows(vhV, points):
    """(v, h, V) at points as one (points, 15) array."""
    count = int(np.prod(points.shape[:-1], dtype=int))
    return np.concatenate([c.reshape(count, -1) for c in vhV], axis=1)


def _assert_close(got, ref):
    """Rows are points: NaN where the reference is NaN, else within 1e-13 of
    it relative to the largest component of its own point (far outside the
    box the extended end pieces reach 1e14, which must not set the scale of
    the points inside)."""
    assert np.array_equal(np.isnan(got), np.isnan(ref))
    scale = np.fmax.reduce(np.abs(ref), axis=1, keepdims=True)
    # |got - ref| <= 1e-13 |ref| + 1e-13 scale, row by row
    np.testing.assert_allclose(got / scale, ref / scale, rtol=1e-13, atol=1e-13)


def _line_points(grid, axis, swept):
    """Every grid line along ``axis``, sampled at the ``swept`` coordinates."""
    coords = [grid.axis(a) for a in range(3)]
    coords[axis] = np.asarray(swept, dtype=float)
    return np.array(list(itertools.product(*coords)))


class TestFusedSplineEquivalence:
    """The fused 15-component spline against scipy's not-a-knot interpolant of
    each grid line's samples."""

    GRID = ParameterGrid((-1.0, -0.5, 0.2), (1.0, 0.7, 0.9), (7, 9, 11), (3, 4, 5))
    NAN_COMPONENT = (1, 2)          # h[1, 2] has one NaN node
    NAN_NODE = (2, 5, 7)

    @classmethod
    def _triple(cls, nan=True):
        rng = np.random.default_rng(17)
        n = cls.GRID.n
        v = 1.0 + rng.normal(size=(3,) + n)
        h = rng.normal(size=(3, 3) + n)
        V = 3.0 * rng.normal(size=(3,) + n)
        if nan:
            h[cls.NAN_COMPONENT + cls.NAN_NODE] = np.nan
        return TripleField.from_samples(cls.GRID, (1, -1, 1), FLAT, v, h, V)

    @classmethod
    def _swept(cls, axis):
        """Swept coordinates along ``axis``: the nodes (the faces among them),
        midpoints, each node nudged by one ulp either way, and points far
        outside the box."""
        nodes = cls.GRID.axis(axis)
        lo, hi = nodes[0], nodes[-1]
        span = hi - lo
        return np.concatenate([
            nodes,
            0.5 * (nodes[:-1] + nodes[1:]),
            np.nextafter(nodes, -np.inf),
            np.nextafter(nodes, np.inf),
            [lo - 3.0, lo - 0.3 * span, hi + 0.1 * span, hi + 5.0, 4.0 * hi, -6.0 * hi],
        ])

    @classmethod
    def _points(cls, axis):
        return _line_points(cls.GRID, axis, cls._swept(axis))

    def _assert_matches(self, t, pts, axis):
        got = t.eval_at(pts)
        ref = _not_a_knot_eval(t, pts, axis)
        for g, r in zip(got, ref):
            assert g.shape == r.shape
        _assert_close(_rows(got, pts), _rows(ref, pts))

    def test_interior_faces_corners_outside_and_nan(self):
        t = self._triple()
        for axis in range(3):
            nan = self._points(axis)[:1].copy()
            nan[0, axis] = np.nan
            self._assert_matches(t, np.concatenate([self._points(axis), nan]), axis)

    @pytest.mark.parametrize("shape", [(3,), (1, 3), (4, 5, 3)])
    def test_input_shapes(self, shape):
        count = int(np.prod(shape[:-1], dtype=int))
        pts = self._points(1)[::7][:count].reshape(shape)
        self._assert_matches(self._triple(), pts, 1)

    def test_nan_stays_in_its_component(self):
        t = self._triple()
        for axis in range(3):
            _assert_nan_on_lines_through(self, t, self._points(axis), axis)


def _assert_nan_on_lines_through(cls, t, pts, axis):
    """The NaN sample of ``cls`` is NaN on the lines along ``axis`` through its
    node (along axis 0 for a point on a node), in its component only, and
    every other value is finite."""
    vhV = _rows(t.eval_at(pts), pts)
    node = np.array([cls.GRID.axis(a)[i] for a, i in enumerate(cls.NAN_NODE)])
    along = _line_axes(cls.GRID, pts, axis)
    through = np.zeros(len(pts), dtype=bool)
    for a in (0, axis):
        others = [b for b in range(3) if b != a]
        through |= (along == a) & (pts[:, others] == node[others]).all(axis=1)
    assert through.any() and not through.all()
    column = 3 + 3 * cls.NAN_COMPONENT[0] + cls.NAN_COMPONENT[1]
    nan = np.isnan(vhV)
    assert nan[through, column].all()
    nan[through, column] = False
    assert not nan.any()


class TestLinePath:
    """Each grid line's 1-D not-a-knot spline is the tensor-product not-a-knot
    spline of the whole box restricted to that line, and a call whose points
    leave the grid lines raises."""

    GRID = TestFusedSplineEquivalence.GRID
    OFF_GRID = [[0.1, 0.05, 0.5]]

    @classmethod
    def _line_points(cls, axis, where):
        """Every grid line along ``axis``, sampled at nodes, at midpoints, or
        outside the box below or above."""
        g = cls.GRID
        nodes = g.axis(axis)
        span = g.hi[axis] - g.lo[axis]
        swept = {
            "nodes": nodes,
            "midpoints": 0.5 * (nodes[:-1] + nodes[1:]),
            "below": g.lo[axis] - span * np.array([1e-3, 0.1, 0.3, 2.0]),
            "above": g.hi[axis] + span * np.array([1e-3, 0.1, 0.3, 2.0]),
        }[where]
        return _line_points(g, axis, swept)

    @staticmethod
    def _values(t, pts):
        return _rows(t.eval_at(pts), pts)

    @pytest.mark.parametrize("where", ["nodes", "midpoints", "below", "above"])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_matches_tensor_path(self, axis, where):
        t = TestFusedSplineEquivalence._triple(nan=False)
        pts = self._line_points(axis, where)
        _assert_close(self._values(t, pts), _rows(_tensor_eval(t, pts), pts))

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_nan_stays_in_its_component(self, axis):
        _assert_nan_on_lines_through(TestFusedSplineEquivalence,
                                     TestFusedSplineEquivalence._triple(),
                                     self._line_points(axis, "midpoints"), axis)

    def test_nan_off_axis_coordinate_raises(self):
        t = TestFusedSplineEquivalence._triple()
        pts = self._line_points(0, "midpoints")
        pts[3, 2] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionFailed, match="grid lines"):
                t.eval_at(pts)
            with pytest.raises(PreconditionFailed, match="grid lines"):
                t.eval_at(np.concatenate([self._line_points(0, "midpoints"), self.OFF_GRID]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinates_raise_no_warning(self, bad):
        t = TestFusedSplineEquivalence._triple()
        pts = self._line_points(1, "midpoints")[:5]
        swept, off_axis = pts.copy(), pts.copy()
        swept[2, 1] = bad
        off_axis[2, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            line = self._values(t, swept)
            for points in (off_axis, np.full((1, 3), bad)):
                with pytest.raises(PreconditionFailed, match="grid lines"):
                    t.eval_at(points)
        assert np.isnan(line[2]).all()
        keep = [0, 1, 3, 4]
        _assert_close(line[keep], self._values(t, pts)[keep])


class TestCallsIndependentOfEarlierCalls:
    """Once a call has primed the spline's line path on the lines along an
    axis a > 0, every later call gives the bytes it gives on a fresh spline,
    or raises as it does there."""

    GRID = TestFusedSplineEquivalence.GRID

    @classmethod
    def _primed(cls, axis, points=None):
        """A triple whose last call was on every line along ``axis`` (or at
        ``points``) at one coordinate between two nodes."""
        t = TestFusedSplineEquivalence._triple(nan=False)
        t.eval_at(cls._lines(axis, 2.5) if points is None else points)
        return t

    @classmethod
    def _lines(cls, axis, k):
        """Every grid line along ``axis`` at the coordinate of node k (k may
        be fractional: linear between the nodes, or outside the box)."""
        nodes = cls.GRID.axis(axis)
        lo, step = nodes[0], nodes[1] - nodes[0]
        u = nodes[k] if isinstance(k, int) else lo + k * step
        return _line_points(cls.GRID, axis, [u])

    @staticmethod
    def _assert_fresh(t, pts):
        got = t.eval_at(pts)
        ref = TestFusedSplineEquivalence._triple(nan=False).eval_at(pts)
        for g, r in zip(got, ref):
            assert g.shape == r.shape and g.tobytes() == r.tobytes()
        return got

    @pytest.mark.parametrize("k", [2.5, 0.25, 5.75, -3.0, 14.0])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_same_lines_at_another_coordinate(self, axis, k):
        self._assert_fresh(self._primed(axis), self._lines(axis, k))

    @pytest.mark.parametrize("k", [0, 3, 6])
    @pytest.mark.parametrize("axis", [1, 2])
    def test_nodal_batch(self, axis, k):
        # every point is a node, so the batch is evaluated along axis 0
        self._assert_fresh(self._primed(axis), self._lines(axis, k))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("every_point", [True, False], ids=["all", "one"])
    @pytest.mark.parametrize("axis", [1, 2])
    def test_non_finite_free_coordinate(self, axis, bad, every_point):
        pts = self._lines(axis, 2.5)
        pts[slice(None) if every_point else slice(1), axis] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = self._assert_fresh(self._primed(axis), pts)
        nan = np.isnan(_rows(got, pts)).all(axis=1)
        assert nan.all() if every_point else nan.tolist() == [True] + [False] * (len(pts) - 1)

    @pytest.mark.parametrize("axis", [1, 2])
    def test_non_uniform_batch(self, axis):
        pts = self._lines(axis, 2.5)
        pts[:, axis] += np.random.default_rng(3).uniform(-0.2, 0.2, len(pts))
        self._assert_fresh(self._primed(axis), pts)

    @pytest.mark.parametrize("axis", [1, 2])
    def test_empty_batch(self, axis):
        v, h, V = self._assert_fresh(self._primed(axis), np.empty((0, 3)))
        assert (v.shape, h.shape, V.shape) == ((0, 3), (0, 3, 3), (0, 3))

    @pytest.mark.parametrize("axis", [1, 2])
    def test_single_point(self, axis):
        line = self._lines(axis, 2.5)[:1]
        t = self._primed(axis, line)
        point = self._lines(axis, 4.5)[0]
        v, h, V = self._assert_fresh(t, point)
        assert (v.shape, h.shape, V.shape) == ((3,), (3, 3), (3,))

    @pytest.mark.parametrize("axis", [1, 2])
    def test_two_axes_off_the_nodes_raise(self, axis):
        t = self._primed(axis)
        other = 2 if axis == 1 else 0
        pts = self._lines(axis, 3.5)
        pts[1, other] += 0.01
        with pytest.raises(PreconditionFailed, match="grid lines"):
            t.eval_at(pts)
        pts = self._lines(axis, 3.5)
        pts[:, other] += 0.01
        with pytest.raises(PreconditionFailed, match="grid lines"):
            t.eval_at(pts)
        self._assert_fresh(t, self._lines(axis, 4.5))


class TestRecentCalls:
    """``eval_at`` keeps no call: every call of a sampled triple reaches the
    spline, and its read-only values depend on its own points only."""

    GRID = TestFusedSplineEquivalence.GRID

    @pytest.fixture
    def spline_calls(self, monkeypatch):
        """The points of every call that reaches a ``_CubicSpline``."""
        calls = []
        real_call = triples._CubicSpline.__call__

        def call(spline, points):
            calls.append(points.copy())
            return real_call(spline, points)

        monkeypatch.setattr(triples._CubicSpline, "__call__", call)
        return calls

    @classmethod
    def _lines(cls, u, axis=1):
        return _line_points(cls.GRID, axis, [u])

    @staticmethod
    def _triple():
        return TestFusedSplineEquivalence._triple(nan=False)

    def test_repeat_computed_again(self, spline_calls):
        # a repeat is computed again, into new read-only arrays of the same bytes
        t = self._triple()
        pts = self._lines(0.123)
        first = t.eval_at(pts)
        again = t.eval_at(pts.copy())
        assert len(spline_calls) == 2
        fresh = self._triple().eval_at(pts)
        for a, b, ref in zip(first, again, fresh):
            assert a is not b and not a.flags.writeable and not b.flags.writeable
            assert a.shape == ref.shape and a.tobytes() == b.tobytes() == ref.tobytes()
            with pytest.raises(ValueError):
                a[...] = 0.0

    def test_bits_not_values(self, spline_calls):
        t = self._triple()
        # 0.0 lies between two nodes of axis 1: -0.0 is the same point
        plus, minus = self._lines(0.0), self._lines(-0.0)
        assert np.array_equal(plus, minus) and plus.tobytes() != minus.tobytes()
        assert t.eval_at(plus)[0].tobytes() == t.eval_at(minus)[0].tobytes()
        assert len(spline_calls) == 2
        # two NaN payloads: NaN everywhere, without a warning
        quiet, payload = self._lines(np.nan), self._lines(np.nan)
        payload[:, 1] = np.frombuffer(np.uint64(0x7FF8000000000001).tobytes(), dtype=float)[0]
        assert payload.tobytes() != quiet.tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nan_v = t.eval_at(quiet)[0]
            other = t.eval_at(payload)[0]
        assert len(spline_calls) == 4 and np.isnan(nan_v).all() and np.isnan(other).all()

    def test_points_changed_in_place_are_computed(self, spline_calls):
        t = self._triple()
        pts = self._lines(0.123)
        first = t.eval_at(pts)
        pts[:, 1] = 0.321
        got = t.eval_at(pts)
        assert len(spline_calls) == 2 and got[0] is not first[0]
        for g, ref in zip(got, self._triple().eval_at(self._lines(0.321))):
            assert g.tobytes() == ref.tobytes()

    def test_no_call_kept(self, spline_calls):
        # none is kept: a call repeating one before it is computed again
        t = self._triple()
        a, b, c = (self._lines(u) for u in (0.1, 0.2, 0.3))
        for pts in (a, b, c, a, c):
            t.eval_at(pts)
        assert [p[0, 1] for p in spline_calls] == [0.1, 0.2, 0.3, 0.1, 0.3]
        assert not hasattr(t, "_recent")

    def test_batched_lanes_match_stage_calls(self, spline_calls):
        # two lanes of a phase: each lane's stages of two substeps, at u,
        # u + dt/2 and u + dt per substep, are one call of 5 copies of its
        # lines, with the bytes of one call per stage
        t = self._triple()
        for start, dt in ((0.1, 0.05), (0.4, -0.05)):
            coords = [start, start + dt / 2, start + dt, start + dt + dt / 2, start + dt + dt]
            batch = np.concatenate([self._lines(u) for u in coords])
            got = _rows(t.eval_at(batch), batch)
            stages = [_rows(t.eval_at(self._lines(u)), self._lines(u)) for u in coords]
            assert got.tobytes() == np.concatenate(stages).tobytes()
        assert [len(p) for p in spline_calls] == [5 * len(self._lines(0.1))] + [len(
            self._lines(0.1))] * 5 + [5 * len(self._lines(0.1))] + [len(self._lines(0.1))] * 5

    def test_constant_triple_broadcasts(self):
        # a constant triple allocates nothing per call: every shape is a
        # read-only broadcast of its two 3-vectors and of h = 0
        t = TripleField.constant(grid9(), (1, -1, 1), FLAT, v=(1.0, -0.5, 2.0), V=(0, 3, -1))
        small, wide = t.eval_at(np.zeros((7, 3))), t.eval_at(np.ones((41, 3)))
        for _ in range(2):
            for got in (t.eval_at(np.full((7, 3), 0.5)), t.eval_at(np.full((41, 3), 0.5))):
                for x, y, z in zip(got, small, wide):
                    assert np.shares_memory(x, y) and np.shares_memory(x, z)
                    assert not x.flags.writeable and x.strides[0] == 0


class TestBatchedStages:
    """One ``eval_at`` call of a sweep batch, K copies of a lane's lines at
    the batch's stage coordinates (K B points), returns bit for bit what one
    call per stage coordinate returns, on the same triple and on a fresh one."""

    GRID = TestFusedSplineEquivalence.GRID         # 7 x 9 x 11, base (3, 4, 5)

    @classmethod
    def _stages(cls, ax_vals, i0, step, max_step):
        """One lane's batches, one per node interval: its stage coordinates
        as the march computes them, u, u + dt/2, ..., u + dt."""
        for _, u, dt, nsub in node_intervals(ax_vals, i0, step, max_step):
            coords = [u]
            for _ in range(nsub):
                coords.append(u + 0.5 * dt)
                u += dt
                coords.append(u)
            yield coords

    @classmethod
    def _lines(cls, axis):
        """The lines of one phase along ``axis``, through the base node's
        layer, as (B, 3) start points."""
        starts = _line_points(cls.GRID, axis, [cls.GRID.base_point[axis]])
        return starts if axis == 0 else starts[::3]

    def _assert_batches(self, axis, ax_vals, i0, max_step):
        t = TestFusedSplineEquivalence._triple(nan=False)
        lines = self._lines(axis)
        counts = {+1: [], -1: []}           # stage coordinates per batch
        for step in counts:
            for coords in self._stages(ax_vals, i0, step, max_step):
                batch = np.repeat(lines[None], len(coords), axis=0)
                batch[:, :, axis] = np.array(coords)[:, None]
                got = t.eval_at(batch.reshape(-1, 3))
                for k, u in enumerate(coords):
                    stage = batch[k]
                    for ref in (t.eval_at(stage), self._fresh().eval_at(stage)):
                        for g, r in zip(got, ref):
                            B = len(lines)
                            assert g[k * B:(k + 1) * B].tobytes() == r.tobytes(), (step, u)
                counts[step].append(len(coords))
        return counts

    @staticmethod
    def _fresh():
        return TestFusedSplineEquivalence._triple(nan=False)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_lines_along_each_axis(self, axis):
        # every batch starts on a node: off axis 0 that copy takes the point path
        g = self.GRID
        counts = self._assert_batches(axis, g.axis(axis), g.base[axis], 0.07)
        assert len(counts[+1]) + len(counts[-1]) == g.n[axis] - 1

    @pytest.mark.parametrize("axis", [1, 2])
    def test_unequal_lanes(self, axis):
        # from a base next to a face the + lane has many node intervals and
        # the - lane one, so their substep counts differ
        nodes = self.GRID.axis(axis)
        counts = self._assert_batches(axis, nodes, 1, 0.031)
        assert (len(counts[+1]), len(counts[-1])) == (len(nodes) - 2, 1)
        assert sum(counts[+1]) > 5 * sum(counts[-1])

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_outside_the_box(self, axis):
        # lanes that run on past both faces evaluate the extended end pieces
        g = self.GRID
        nodes = g.axis(axis)
        span = nodes[-1] - nodes[0]
        ax_vals = np.concatenate([[nodes[0] - 0.4 * span], nodes, [nodes[-1] + 0.3 * span]])
        counts = self._assert_batches(axis, ax_vals, g.base[axis] + 1, 0.05)
        assert len(counts[+1]) + len(counts[-1]) == len(ax_vals) - 1
