import math

import numpy as np
import pytest

from spaceform_lab.errors import InvalidParams, IoError
from spaceform_lab.frames import integrate_frame
from spaceform_lab.gallery import HelixProfile, PhiFamily, phi_state
from spaceform_lab.grid import ParameterGrid, partial_derivative
from spaceform_lab.ribaucour import integrate_ribaucour, transform_immersion
from spaceform_lab.triples import TripleField

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


def sampled_copy(t):
    """``t`` as a sampled triple: the same values, swept with RK4.  A constant
    triple is always propagated, so tests that march it, or march an init
    off its K2 = kappa, use this copy."""
    return TripleField.from_samples(t.grid, t.delta, t.spec, t.v, t.h, t.V)


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


# reference helpers: relabelled triples, the inline config form and the
# profiles and charts of the rotation-hypersurface tests


def permute_triple(t: TripleField, perm) -> TripleField:
    """Relabel coordinates, components, and delta by one permutation.

    ``perm[a]`` is the old index that becomes new index a.
    """
    perm = tuple(perm)
    v, h, V = t.v, t.h, t.V
    axes = tuple(perm)
    v_new = np.transpose(v[list(perm)], (0,) + tuple(1 + p for p in perm))
    V_new = np.transpose(V[list(perm)], (0,) + tuple(1 + p for p in perm))
    h_new = h[np.ix_(list(perm), list(perm))]
    h_new = np.transpose(h_new, (0, 1) + tuple(2 + p for p in perm))
    grid = ParameterGrid(
        tuple(t.grid.lo[p] for p in perm),
        tuple(t.grid.hi[p] for p in perm),
        tuple(t.grid.n[p] for p in perm),
        tuple(t.grid.base[p] for p in perm),
    )
    delta = tuple(t.delta[p] for p in perm)
    masked = None
    if t.masked is not None:
        masked = np.transpose(t.masked, axes)
    return TripleField.from_samples(grid, delta, t.spec, v_new, h_new, V_new, masked)


def triple_to_config(t) -> dict:
    """Inline-seed form of a constant triple (the config format's "triple" object)."""
    v, h, V = t.at(t.grid.base)
    if (np.abs(t.v - v.reshape(3, 1, 1, 1)).max() > 0
            or np.abs(t.V - V.reshape(3, 1, 1, 1)).max() > 0
            or np.abs(t.h).max() > 0):
        raise IoError("only constant triples fit the inline config form")
    return {
        "seed": {"triple": {"v": list(v), "V": list(V), "delta": list(t.delta)}},
        "ambient": {"c": t.spec.c, "s": t.spec.s},
        "grid": {"lo": list(t.grid.lo), "hi": list(t.grid.hi),
                 "n": list(t.grid.n), "base": list(t.grid.base)},
    }


def latitude_circle(c_model, height, s_samples) -> HelixProfile:
    """Constant-height circle on the round model (geodesic circle about the axis)."""
    R2 = 1.0 / c_model
    r2 = R2 - height * height
    if r2 <= 0:
        raise InvalidParams("height exceeds the model radius")
    r = math.sqrt(r2)
    s_samples = np.asarray(s_samples, dtype=float)
    coords = np.stack([
        np.full_like(s_samples, height),
        r * np.cos(s_samples / r),
        r * np.sin(s_samples / r),
    ], axis=-1)
    return HelixProfile(0.0, c_model, s_samples, coords)


def parabolic_gram(s_plus_eps0):
    """Gram matrix of the pseudo-orthonormal basis of the parabolic chart."""
    G = np.zeros((5, 5))
    G[0, 3] = G[3, 0] = 1.0
    G[1, 1] = G[2, 2] = 1.0
    G[4, 4] = -2.0 * s_plus_eps0 + 3.0
    return G


def parabolic_to_orthonormal(coords):
    """Rewrite parabolic-chart coordinates in an orthonormal basis.

    e1 -> (e+ + e-)/sqrt2, e4 -> (e+ - e-)/sqrt2 with <e+,e+> = 1, <e-,e-> = -1.
    """
    coords = np.asarray(coords, dtype=float)
    out = coords.copy()
    r2 = math.sqrt(2.0)
    out[..., 0] = (coords[..., 0] + coords[..., 3]) / r2
    out[..., 3] = (coords[..., 0] - coords[..., 3]) / r2
    return out


def jsonschema_errors(schema, doc):
    """jsonschema's Draft 2020-12 errors of ``doc`` in the order it yields them,
    in ``io._errors``' form: (path, message, context) with absolute paths."""
    import jsonschema

    def flat(errors):
        return [(tuple(e.absolute_path), e.message, flat(e.context)) for e in errors]

    return flat(jsonschema.Draft202012Validator(schema).iter_errors(doc))


def jsonschema_first_error(schema, doc):
    """(message, pointer) of the error jsonschema's validator reports first
    under the config rule: errors sorted by path, stably, and for a failed
    oneOf its deepest branch error; None for a valid ``doc``."""
    import jsonschema

    validator = jsonschema.Draft202012Validator(schema)
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    err = errors[0]
    if err.context:
        err = max(err.context, key=lambda e: len(list(e.absolute_path)))
    return err.message, "/" + "/".join(str(p) for p in err.absolute_path)
