import numpy as np
import pytest

from spaceform_lab.ambient import SpaceFormSpec
from spaceform_lab.errors import NonFiniteState, PreconditionFailed
from spaceform_lab.frames import (
    FrameField,
    FrameState,
    frame_gram_residual,
    induced_metric,
    integrate_frame,
    path_independence_residual,
    standard_frame_state,
)
from spaceform_lab.gallery import (
    closed_form_frame,
    seed_frame_state,
    trivial_seed,
)
from spaceform_lab.grid import ParameterGrid
from spaceform_lab.triples import TripleField

FLAT = SpaceFormSpec(0.0, 0)


def seed62(grid, c=0.0):
    return trivial_seed("problemstar_e1_Cneg", grid, c=c, s=0, C=-1.0)


def seedcf(grid):
    return trivial_seed("cflat", grid, c=0.0, s=0)


class TestIntegrateFrame:
    def test_flat_seed_matches_closed_form(self, grid21):
        t = seed62(grid21)
        init = seed_frame_state("problemstar_e1_Cneg", t.spec)
        ff = integrate_frame(t, init)
        exact = closed_form_frame("problemstar_e1_Cneg", t.spec, -1.0)(grid21.points())
        assert np.abs(ff.states - exact).max() < 1e-8

    def test_sphere_seed_matches_closed_form(self, grid21):
        t = seed62(grid21, c=1.0)
        init = seed_frame_state("problemstar_e1_Cneg", t.spec)
        ff = integrate_frame(t, init)
        exact = closed_form_frame("problemstar_e1_Cneg", t.spec, -1.0)(grid21.points())
        assert np.abs(ff.states - exact).max() < 1e-8

    def test_cflat_seed_matches_closed_form(self, grid21):
        t = seedcf(grid21)
        init = seed_frame_state("cflat", t.spec)
        ff = integrate_frame(t, init)
        exact = closed_form_frame("cflat", t.spec)(grid21.points())
        assert np.abs(ff.states - exact).max() < 1e-8

    def test_lorentz_branch_matches_closed_form(self):
        grid = ParameterGrid.centered(1.0, 11)
        t = trivial_seed("problemstar_e1_Cneg", grid, c=0.0, s=1, C=-1.0)
        init = seed_frame_state("problemstar_e1_Cneg", t.spec)
        ff = integrate_frame(t, init)
        exact = closed_form_frame("problemstar_e1_Cneg", t.spec, -1.0)(grid.points())
        assert np.abs(ff.states - exact).max() < 1e-8

    def test_base_node_is_init(self, grid21):
        t = seedcf(grid21)
        init = seed_frame_state("cflat", t.spec)
        ff = integrate_frame(t, init)
        assert np.array_equal(ff.states[grid21.base], init.as_array())

    def test_bad_seed_precondition(self, grid21):
        bad = TripleField.constant(grid21, (1, -1, 1), FLAT, v=(0, 1, 1),
                                   V=(1, 0.5, 0.2))
        with pytest.raises(PreconditionFailed):
            integrate_frame(bad, standard_frame_state(FLAT))

    def test_linearity_in_the_frame_part(self):
        grid = ParameterGrid.centered(0.5, 7)
        t = seedcf(grid)
        init = seed_frame_state("cflat", t.spec)
        ff1 = integrate_frame(t, init)
        ff2 = integrate_frame(t, init.scaled_frame(2.0))
        # c = 0: the frame block (X, N) is linear, f is affine with f(0) fixed
        assert np.allclose(2.0 * ff1.states[..., 1:, :], ff2.states[..., 1:, :],
                           atol=1e-13)
        f0 = init.f
        assert np.allclose(2.0 * (ff1.f - f0), ff2.f - f0, atol=1e-13)

    def test_nonfinite_state_raises(self):
        grid = ParameterGrid((0, 0, 0), (60.0, 1, 1), (31, 5, 5))
        # exponential blow-up along u1 overflows on a long line
        t = TripleField.constant(grid, (1, -1, 1), SpaceFormSpec(0.0, 1),
                                 v=(0, 1, 1), V=(30.0, 0, 0))
        init = standard_frame_state(t.spec)
        with pytest.raises(NonFiniteState):
            integrate_frame(t, init, integrability_tol=None)


class TestFrameGram:
    def test_exact_closed_form_is_machine_zero(self, grid21):
        t = seed62(grid21)
        states = closed_form_frame("problemstar_e1_Cneg", t.spec, -1.0)(grid21.points())
        ff = FrameField(grid21, states, t)
        assert frame_gram_residual(ff).overall_max < 1e-14

    def test_integrated_seed_drift(self, grid21):
        t = seed62(grid21)
        ff = integrate_frame(t, seed_frame_state("problemstar_e1_Cneg", t.spec))
        assert frame_gram_residual(ff).overall_max <= 1e-8

    def test_defective_init_shows_up(self, grid21):
        t = seed62(grid21)
        init = seed_frame_state("problemstar_e1_Cneg", t.spec).scaled_frame(1.1)
        ff = integrate_frame(t, init)
        defect = abs(1.1**2 - 1.0)
        assert frame_gram_residual(ff).overall_max >= defect - 1e-9


class TestPathIndependence:
    def test_seed62(self, grid21):
        t = seed62(grid21)
        ff = integrate_frame(t, seed_frame_state("problemstar_e1_Cneg", t.spec))
        rep = path_independence_residual(ff)
        assert rep["grid"].max <= 1e-8
        assert rep["far_corner"].max <= rep["grid"].max

    def test_seedcf(self, grid21):
        t = seedcf(grid21)
        ff = integrate_frame(t, seed_frame_state("cflat", t.spec))
        rep = path_independence_residual(ff)
        assert rep["grid"].max <= 1e-8

    def test_injected_violation_detected(self, grid21):
        # V = (1, 0.5, 0.2) puts +0.1 into compatibility equation (3.iii)
        bad = TripleField.constant(grid21, (1, -1, 1), FLAT, v=(0, 1, 1),
                                   V=(1, 0.5, 0.2))
        ff = integrate_frame(bad, seed_frame_state("cflat", FLAT), integrability_tol=None)
        rep = path_independence_residual(ff)
        assert rep["far_corner"].max > 1e-3

    def test_minimal_grid(self):
        grid = ParameterGrid((0, 0, 0), (1e-6, 1e-6, 1e-6), (2, 2, 2))
        t = seedcf(grid)
        ff = integrate_frame(t, seed_frame_state("cflat", t.spec), integrability_tol=None)
        rep = path_independence_residual(ff)
        assert rep["grid"].max < 1e-15


class TestInducedMetric:
    def test_degenerate_seed62(self, grid21):
        t = seed62(grid21)
        ff = integrate_frame(t, seed_frame_state("problemstar_e1_Cneg", t.spec))
        g, rep = induced_metric(ff)
        # v = (1, 0, 0): the map is not an immersion, g = diag(1, 0, 0)
        assert np.abs(g[0, 0] - 1.0).max() < 1e-8
        assert np.abs(g[1, 1]).max() < 1e-8
        assert np.abs(g[2, 2]).max() < 1e-8
        assert rep["diag_vs_v2"].max < 1e-8
        assert rep["offdiag"].max < 1e-8

    def test_constant_position_zero_metric(self, grid21):
        t = seedcf(grid21)
        states = np.zeros(tuple(grid21.n) + (5, 4))
        states[..., 0, :] = np.array([1.0, 2.0, 3.0, 4.0])
        ff = FrameField(grid21, states, t)
        g, _ = induced_metric(ff)
        assert np.abs(g).max() == 0.0

    def test_nondegenerate_metric_matches_v2(self, famcf):
        # transformed immersion has metric diag(v'^2); checked elsewhere --
        # here: the exact cflat frame has metric diag(v^2) = diag(0, 1, 1)
        grid = ParameterGrid.centered(0.5, 9)
        t = seedcf(grid)
        states = closed_form_frame("cflat", t.spec)(grid.points())
        ff = FrameField(grid, states, t)
        _, rep = induced_metric(ff)
        assert rep["diag_vs_v2"].max < 1e-10


class TestReproducibility:
    def test_byte_identical_reruns(self, grid21):
        t = seed62(grid21)
        init = seed_frame_state("problemstar_e1_Cneg", t.spec)
        a = integrate_frame(t, init)
        b = integrate_frame(t, init)
        assert np.array_equal(a.states, b.states)
