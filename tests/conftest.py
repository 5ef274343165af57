import math

import numpy as np
import pytest

from spaceform_lab.frames import integrate_frame
from spaceform_lab.gallery import PhiFamily, phi_state
from spaceform_lab.grid import ParameterGrid, partial_derivative
from spaceform_lab.ribaucour import integrate_ribaucour, transform_immersion

THETA = math.pi / 4


@pytest.fixture(scope="session")
def grid21():
    return ParameterGrid.centered(1.0, 21)


@pytest.fixture(scope="session")
def fam62():
    return PhiFamily("problemstar", K=1.0, a=1.0, c=0.0, eps=1, rho=1.0, theta=THETA)


@pytest.fixture(scope="session")
def fam_s4():
    return PhiFamily("problemstar_sphere", K=-2.0, c=1.0, eps=1, rho=1.0, theta=THETA)


@pytest.fixture(scope="session")
def famcf():
    return PhiFamily("cflat", K=-1.0, c=0.0, eps=1, rho=1.0, theta=THETA)


def run_pipeline(fam, grid, max_step=1e-2):
    """Seed triple -> frame + transformation sweep -> transformed immersion."""
    triple = fam.seed_triple(grid)
    init = phi_state(fam, grid.base_point)
    ff = integrate_frame(triple, fam.frame_init(), grid, max_step=max_step)
    rf = integrate_ribaucour(triple, init, grid, max_step=max_step,
                             K2target=fam.K2target)
    fprime = transform_immersion(ff, rf)
    return triple, ff, rf, fprime


@pytest.fixture(scope="session")
def pipeline62(fam62, grid21):
    return run_pipeline(fam62, grid21)


@pytest.fixture(scope="session")
def pipeline_s4(fam_s4, grid21):
    return run_pipeline(fam_s4, grid21)


@pytest.fixture(scope="session")
def pipelinecf(famcf, grid21):
    return run_pipeline(famcf, grid21)


def grid_partials(field, grid):
    """Reference first derivatives of a grid.n + trailing field along the
    three grid axes, the trailing axes kept last."""
    return [partial_derivative(field, a, grid.spacing[a]) for a in range(3)]


# small boxes for the finite-difference-limited comparisons
SMALL_CENTER = (0.1, 0.4, 0.2)


@pytest.fixture(scope="session")
def small_grid():
    return ParameterGrid.centered(0.005, 21, SMALL_CENTER)
