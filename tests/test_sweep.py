"""The lattice sweep engine against its batch-first reference, bit for bit, the
number of triple evaluations a sweep makes, and the spline path those
evaluations take on sampled data.

The reference below is the engine as it was before sweep states were carried
batch-last: lines march as (B,) + state_shape arrays, every RK4 stage is a
fresh array, and the two right-hand sides slice per-line columns.  The
batch-last engine performs the same floating-point operations in the same
order, so its marched states must match the reference's byte for byte.  The
reference masks the Ribaucour field while it marches and freezes a masked
line; the engine marches every line and the field is masked after the
sweep, so the masks must be equal and the bytes equal at unmasked nodes.  A
constant triple's frame is not marched but propagated exactly: it is checked
against ``exact_frame``, composed from scipy's ``expm``, to 1e-14 relative.
So is its Ribaucour system from an init on K2 = kappa, in its linear form:
it is checked against ``exact_ribaucour`` to 1e-13 relative, with the same
mask.
"""

import copy
import itertools
import math

import numpy as np
import pytest

from spaceform_lab import _sweep, triples
from spaceform_lab._sweep import (
    node_intervals,
    propagators,
    rk4_march,
    sweep_descendants,
    sweep_integrate,
)
from spaceform_lab.ambient import SpaceFormSpec
from spaceform_lab.errors import (
    ConstraintUnsatisfiable,
    DimensionError,
    GridMismatch,
    InvalidParams,
    NonFiniteState,
    PreconditionFailed,
    SingularPhi,
)
from spaceform_lab.frames import (
    DEFAULT_MAX_STEP,
    FrameState,
    _frame_body,
    frame_gram_residual,
    integrate_frame,
    path_independence_residual,
    standard_frame_state,
)
from spaceform_lab.gallery import (
    SEED_KINDS,
    PhiFamily,
    closed_form_frame,
    closed_form_transform,
    phi_state,
    seed_frame_state,
    trivial_seed,
)
from spaceform_lab.grid import ParameterGrid
from spaceform_lab.ribaucour import (
    RibaucourState,
    _linear_init,
    _recover,
    _ribaucour_body,
    default_mask_tol,
    integrate_ribaucour,
    invariant_drift,
    kappa,
    seed_state,
    transform_immersion,
    transformed_triple,
)
from spaceform_lab.triples import TripleField, _CubicSpline

from conftest import sampled_copy

# ---------------------------------------------------------------------------
# batch-first reference engine
# ---------------------------------------------------------------------------


def _ref_rk4_march(rhs, pts, axis, u_from, u_to, y, max_step, frozen):
    span = u_to - u_from
    nsub = max(1, math.ceil(abs(span) / max_step))
    dt = span / nsub
    u = u_from
    for _ in range(nsub):
        p0 = pts.copy()
        p0[:, axis] = u
        pm = pts.copy()
        pm[:, axis] = u + 0.5 * dt
        p1 = pts.copy()
        p1[:, axis] = u + dt
        k1 = rhs(p0, y)
        k2 = rhs(pm, y + 0.5 * dt * k1)
        k3 = rhs(pm, y + 0.5 * dt * k2)
        k4 = rhs(p1, y + dt * k3)
        y_new = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if frozen is not None and frozen.any():
            y_new[frozen] = y[frozen]
        y = y_new
        u += dt
    return y


def _ref_sweep(grid, order, y0, rhs, max_step, node_check=None, on_nonfinite="raise"):
    n = grid.n
    y0 = np.asarray(y0, dtype=float)
    states = np.full(tuple(n) + y0.shape, np.nan)
    states[grid.base] = y0
    masked = np.zeros(n, dtype=bool)
    if node_check is not None and node_check(y0[None])[0]:
        masked[grid.base] = True
    done = []
    for axis in order:
        ranges = [range(n[a]) if a in done else [grid.base[a]] for a in range(3)]
        starts = np.array(list(itertools.product(*ranges)), dtype=int)
        B = len(starts)
        y_start = states[tuple(starts.T)]
        bad_start = masked[tuple(starts.T)]
        pts_start = np.stack([grid.axis(a)[starts[:, a]] for a in range(3)], axis=-1)
        ax_vals = grid.axis(axis)
        for direction in (+1, -1):
            y = y_start.copy()
            bad = bad_start.copy()
            idx = grid.base[axis]
            while 0 <= idx + direction < n[axis]:
                nxt = idx + direction
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    y = _ref_rk4_march(lambda p, s: rhs(p, s, axis), pts_start, axis,
                                       ax_vals[idx], ax_vals[nxt], y, max_step, bad)
                nonfinite = ~np.isfinite(y.reshape(B, -1)).all(axis=1)
                if nonfinite.any() and not bad[nonfinite].all():
                    if on_nonfinite == "raise":
                        raise NonFiniteState(
                            f"state overflowed along axis {axis} at node {nxt}")
                    bad |= nonfinite
                if node_check is not None:
                    bad |= node_check(y)
                write = starts.copy()
                write[:, axis] = nxt
                states[tuple(write.T)] = y
                masked[tuple(write.T)] |= bad
                idx = nxt
        done.append(axis)
    return states, masked


def _ref_frame_rhs(triple):
    eps = float(triple.spec.eps)
    c = float(triple.spec.c)

    def rhs(pts, Y, axis):
        v, h, V = triple.eval_at(pts)
        f, X, N, a = Y[:, 0], Y[:, 1:4], Y[:, 4], axis
        Xa = X[:, a]
        dY = np.empty_like(Y)
        dY[:, 0] = v[:, a, None] * Xa
        dXa = eps * V[:, a, None] * N - c * v[:, a, None] * f
        for i in range(3):
            if i == a:
                continue
            dY[:, 1 + i] = h[:, i, a, None] * Xa
            dXa = dXa - h[:, i, a, None] * X[:, i]
        dY[:, 1 + a] = dXa
        dY[:, 4] = -V[:, a, None] * Xa
        return dY

    return rhs


def _ref_ribaucour_rhs(triple):
    eps = float(triple.spec.eps)
    c = float(triple.spec.c)
    delta = np.asarray(triple.delta, dtype=float)

    def rhs(pts, Y, axis):
        v, h, V = triple.eval_at(pts)
        g, vp, phi, psi, beta, a = Y[:, 0:3], Y[:, 3:6], Y[:, 6], Y[:, 7], Y[:, 8], axis
        dY = np.empty_like(Y)
        ga = g[:, a]
        vpa = vp[:, a]
        inv_phi = 1.0 / phi
        hp = h[:, a, :] + (vp - v) * (ga * inv_phi)[:, None]
        dga = (v[:, a] - vpa) * psi + beta * V[:, a] - c * phi * v[:, a]
        for j in range(3):
            if j == a:
                continue
            dY[:, j] = h[:, j, a] * ga
            dga = dga - h[:, j, a] * g[:, j]
        dY[:, a] = dga
        dvp = np.empty_like(vp)
        acc = np.zeros(len(Y))
        for j in range(3):
            if j == a:
                continue
            dvp[:, j] = hp[:, j] * vpa
            acc = acc + delta[j] * hp[:, j] * vp[:, j]
        dvp[:, a] = -delta[a] * acc
        dY[:, 3:6] = dvp
        dY[:, 6] = v[:, a] * ga
        dY[:, 7] = -ga * vpa * psi * inv_phi
        dY[:, 8] = -eps * V[:, a] * ga
        return dY

    return rhs


def ref_frame(triple, init, sweep_order=(0, 1, 2), max_step=DEFAULT_MAX_STEP):
    return _ref_sweep(triple.grid, sweep_order, init.as_array(), _ref_frame_rhs(triple),
                      max_step)


def ref_ribaucour(triple, init, mask_tol=None, sweep_order=(0, 1, 2)):
    grid = triple.grid
    tol = mask_tol if mask_tol is not None else default_mask_tol(grid)

    def node_check(Y):
        return (np.abs(Y[..., 6]) < tol) | (np.abs(Y[..., 7]) < tol)

    return _ref_sweep(grid, sweep_order, init.as_array(), _ref_ribaucour_rhs(triple),
                      DEFAULT_MAX_STEP, node_check, "mask")


# ---------------------------------------------------------------------------
# exact reference of a constant triple's frame
# ---------------------------------------------------------------------------


def frame_generators(triple):
    """The constant generators M_a of a constant triple's frame system on the
    rows (f, X1, X2, X3, N), from its equations (``frames`` module docstring)."""
    v, V = triple.constant_values
    c, eps = float(triple.spec.c), float(triple.spec.eps)
    M = np.zeros((3, 5, 5))
    for a in range(3):
        M[a, 0, 1 + a] = v[a]
        M[a, 1 + a, 0] = -c * v[a]
        M[a, 1 + a, 4] = eps * V[a]
        M[a, 4, 1 + a] = -V[a]
    return M


def exact_frame(triple, init, sweep_order=(0, 1, 2)):
    """The frame of a constant triple at every node, composed from scipy's
    ``expm`` in the sweep order (a, b, c): exp(M_c t_c) exp(M_b t_b)
    exp(M_a t_a) Y0, t being the node's offsets from the base node."""
    from scipy.linalg import expm

    grid = triple.grid
    M = frame_generators(triple)
    Y = np.broadcast_to(init.as_array(), tuple(grid.n) + init.as_array().shape)
    with np.errstate(all="ignore"):
        for a in sweep_order:
            u = grid.axis(a)
            E = np.stack([expm(M[a] * (x - u[grid.base[a]])) for x in u])
            Y = np.einsum(f"{'ijk'[a]}rs,ijksd->ijkrd", E, Y)
    return Y


def ribaucour_generators(triple, lam):
    """The constant generators M_a of a constant triple's Ribaucour system in
    its linear form on the rows (gamma, rho, phi, psi, beta), rho = psi (v - v'),
    with the first integral lambda (``ribaucour`` module docstring)."""
    v, V = triple.constant_values
    c, eps = float(triple.spec.c), float(triple.spec.eps)
    M = np.zeros((3, 9, 9))
    for a in range(3):
        M[a, a, 3 + a] = 1.0                        # dgamma_a = rho_a + V_a beta - c v_a phi
        M[a, a, 8] = V[a]
        M[a, a, 6] = -c * v[a]
        M[a, 3 + a, a] = lam * triple.delta[a]      # drho_a = lambda delta_a gamma_a
        M[a, 6, a] = v[a]                           # dphi = v_a gamma_a
        M[a, 8, a] = -eps * V[a]                    # dbeta = -eps V_a gamma_a
    return M


def exact_ribaucour(triple, init, mask_tol=None):
    """(states, masked) of a constant triple's Ribaucour field from an init on
    K2 = kappa: the linear form composed from scipy's ``expm`` along axes 0,
    1 and 2, psi from K1 and v' = v - rho / psi, the base node the init.  A
    node is masked where |phi| or |psi| < mask_tol or a value is not finite,
    where 2^-53 (|gamma|^2 + beta^2 + |c| phi^2 + |K1|) exceeds 1e-8 |2 phi psi|
    (psi may have lost its accuracy to cancellation), or where one such node
    is on its sweep path from the base."""
    from scipy.linalg import expm

    grid = triple.grid
    tol = mask_tol if mask_tol is not None else default_mask_tol(grid)
    v, _ = triple.constant_values
    d = np.asarray(triple.delta, dtype=float)
    y = init.as_array()
    rho = y[7] * (v - y[3:6])
    lam = float(np.sum(d * v * rho)) / y[6]
    M = ribaucour_generators(triple, lam)
    Y = np.broadcast_to(np.concatenate([y[:3], rho, y[6:]]), tuple(grid.n) + (9,))
    for a in range(3):
        u = grid.axis(a)
        E = np.stack([expm(M[a] * (x - u[grid.base[a]])) for x in u])
        Y = np.einsum(f"{'ijk'[a]}rs,ijks->ijkr", E, Y)
    eps, c = float(triple.spec.eps), float(triple.spec.c)
    K1 = np.sum(y[:3] ** 2) + eps * y[8] ** 2 + c * y[6] ** 2 - 2.0 * y[6] * y[7]
    states = Y.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        gg, bb, pp = np.sum(Y[..., :3] ** 2, axis=-1), Y[..., 8] ** 2, Y[..., 6] ** 2
        gap = gg + eps * bb + c * pp - K1
        states[..., 7] = gap / (2.0 * Y[..., 6])
        states[..., 3:6] = v - Y[..., 3:6] / states[..., 7:8]
        lossy = 2.0**-53 * (gg + bb + abs(c) * pp + abs(K1)) > 1e-8 * np.abs(gap)
    states[grid.base] = y
    lossy[grid.base] = False
    flagged = ((np.abs(states[..., 6]) < tol) | (np.abs(states[..., 7]) < tol)
               | ~np.isfinite(states).all(axis=-1) | lossy)
    return states, path_masked(flagged, grid.base)


def mp_ribaucour_psi(triple, init, nodes, dps=300):
    """psi of a constant triple's Ribaucour field at ``nodes`` in ``dps``-digit
    arithmetic: ``exact_ribaucour``'s linear form, composed from mpmath's
    ``expm``, and psi from K1, as floats."""
    import mpmath

    grid = triple.grid
    v, _ = triple.constant_values
    d = np.asarray(triple.delta, dtype=float)
    y = init.as_array()
    rho = y[7] * (v - y[3:6])
    M = ribaucour_generators(triple, float(np.sum(d * v * rho)) / y[6])
    eps, c = float(triple.spec.eps), float(triple.spec.c)

    def quad(Y):                                # |gamma|^2 + eps beta^2 + c phi^2
        return sum(Y[i] ** 2 for i in range(3)) + eps * Y[8] ** 2 + c * Y[6] ** 2

    with mpmath.workdps(dps):
        y0 = mpmath.matrix(np.concatenate([y[:3], rho, y[6:]]).tolist())
        K1 = quad(y0) - 2 * y0[6] * mpmath.mpf(y[7])
        E = {}
        psi = []
        for node in nodes:
            Y = y0
            for a in range(3):
                if (a, node[a]) not in E:
                    u = grid.axis(a)
                    t = mpmath.mpf(float(u[node[a]])) - mpmath.mpf(float(u[grid.base[a]]))
                    E[a, node[a]] = mpmath.expm(mpmath.matrix(M[a].tolist()) * t)
                Y = E[a, node[a]] * Y
            psi.append(float((quad(Y) - K1) / (2 * Y[6])))
    return np.array(psi)


def path_masked(flagged, base, order=(0, 1, 2)):
    """The nodes with a flagged node on their sweep path: from ``base`` along
    each axis of ``order`` in turn to the node's index on that axis."""
    masked = np.zeros(flagged.shape, dtype=bool)
    for node in itertools.product(*map(range, flagged.shape)):
        at, path = list(base), []
        for a in order:
            for i in range(min(base[a], node[a]), max(base[a], node[a]) + 1):
                at[a] = i
                path.append(tuple(at))
            at[a] = node[a]
        masked[node] = any(flagged[p] for p in path)
    return masked


def assert_exact(states, ref, tol=1e-14):
    """``states`` within ``tol`` of ``ref``, relative to ref's largest entry."""
    assert states.shape == ref.shape
    assert np.abs(states - ref).max() <= tol * np.abs(ref).max()


def exact_overflow_message(triple, init, sweep_order=(0, 1, 2)):
    """The NonFiniteState message of a sweep whose exact frame overflows: the
    first phase with a non-finite node, at its first such node in the +
    direction, else at its first in the - direction."""
    grid = triple.grid
    finite = np.isfinite(exact_frame(triple, init, sweep_order)).all(axis=(-2, -1))
    for k, axis in enumerate(sweep_order):
        index = [slice(None) if a in sweep_order[:k + 1] else grid.base[a] for a in range(3)]
        rest = [a for a in range(3) if a in sweep_order[:k + 1] and a != axis]
        ok = np.moveaxis(finite[tuple(index)], sum(a < axis for a in rest), 0)
        ok = ok.reshape(len(ok), -1).all(axis=1)
        i0 = grid.base[axis]
        for node in [*range(i0 + 1, grid.n[axis]), *range(i0 - 1, -1, -1)]:
            if not ok[node]:
                return f"state overflowed along axis {axis} at node {node}"
    raise AssertionError("the exact frame is finite at every node")


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------

THETA = math.pi / 4
FAMILIES = {
    "r4_problemstar": PhiFamily("problemstar", K=1.0, a=1.0, c=0.0, eps=1, theta=THETA),
    "s4_problemstar_sphere": PhiFamily("problemstar_sphere", K=-2.0, c=1.0, eps=1,
                                       theta=THETA),
    "r4_cflat": PhiFamily("cflat", K=-1.0, c=0.0, eps=1, theta=THETA),
}


def _assert_same(states_masked, ref):
    """The same mask, and the same bytes at every unmasked node."""
    states, masked = states_masked
    ref_states, ref_masked = ref
    assert states.shape == ref_states.shape
    assert np.array_equal(masked, ref_masked)
    assert states[~masked].tobytes() == ref_states[~masked].tobytes()


def _negative_zero(values):
    values = np.asarray(values)
    return bool((np.signbit(values) & (values == 0)).any())


def _frame_result(ff):
    return ff.states, np.zeros(ff.grid.n, dtype=bool)


def _assert_frame(ff, t, init, order=(0, 1, 2)):
    """A constant triple's frame against its exact reference, a sampled
    triple's against the bytes of the RK4 reference."""
    if t.closed_form:
        assert_exact(ff.states, exact_frame(t, init, order))
    else:
        _assert_same(_frame_result(ff), ref_frame(t, init, order))


def _ribaucour_result(rf):
    return rf.states, rf.masked if rf.masked is not None else np.zeros(rf.grid.n, bool)


def _assert_ribaucour(rf, t, init, mask_tol=None, tol=1e-13):
    """A constant triple's Ribaucour field from an init on K2 = kappa against
    its exact reference on the unmasked nodes, with the same mask; a sampled
    triple's against the bytes of the RK4 reference."""
    if not t.closed_form:
        assert rf.scheme == "RK4 sweep"
        _assert_same(_ribaucour_result(rf), ref_ribaucour(t, init, mask_tol))
        return
    assert rf.scheme == "exact propagator"
    states, masked = _ribaucour_result(rf)
    ref, ref_masked = exact_ribaucour(t, init, mask_tol)
    assert np.array_equal(masked, ref_masked)
    ok = ~masked
    assert np.abs(states[ok] - ref[ok]).max() <= tol * np.abs(ref[ok]).max()


def _closed_form_case(name):
    fam = FAMILIES[name]
    grid = ParameterGrid.centered(1.0, 9)
    return fam, fam.seed_triple(grid), phi_state(fam, grid.base_point)


def _layer_case(name, where, sampled):
    """A family's triple and Ribaucour seed on the non-cubic ``TestEvalCount.GRID``
    (base (2, 3, 1)) or on the same box with its base on two faces (0, 3, 5),
    where one direction of axes 0 and 2 is empty.  The sampled triple is the
    family's transformed triple, so h != 0 there."""
    grid = TestEvalCount.GRID
    if where == "face":
        grid = ParameterGrid(grid.lo, grid.hi, grid.n, (0, 3, 5))
    return _family_case(name, grid, sampled)


def _family_case(name, grid, sampled):
    """A family's triple on ``grid`` and its Ribaucour seed at the base; the
    sampled triple is the family's transformed triple, so h != 0 there."""
    fam = FAMILIES[name]
    t = fam.seed_triple(grid)
    init = phi_state(fam, grid.base_point)
    if sampled:
        rf = integrate_ribaucour(t, init, K2target=fam.K2target)
        t = transformed_triple(t, rf)
        assert t.masked is None and np.abs(t.h).max() > 0
        init = rf.state_at(grid.base)
    return fam, t, init


class TestBitIdentity:
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_closed_form_seeds(self, name):
        fam, t, init = _closed_form_case(name)
        _assert_frame(integrate_frame(t, fam.frame_init()), t, fam.frame_init())
        rf = integrate_ribaucour(t, init, K2target=fam.K2target)
        _assert_ribaucour(rf, t, init)

    def test_reversed_sweep_order(self):
        fam, t, _ = _closed_form_case("s4_problemstar_sphere")
        ff = integrate_frame(t, fam.frame_init(), sweep_order=(2, 1, 0))
        _assert_frame(ff, t, fam.frame_init(), (2, 1, 0))

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_transformed_triple(self, name):
        # sampled data with h != 0 (every term of both right-hand sides is live);
        # the S^4 and cflat re-transforms also mask lines where phi or psi vanish
        fam, t, init = _closed_form_case(name)
        rf = integrate_ribaucour(t, init, K2target=fam.K2target)
        tt = transformed_triple(t, rf)
        assert not tt.closed_form and np.abs(tt.h).max() > 0.1
        ff = integrate_frame(tt, fam.frame_init(), integrability_tol=None)
        _assert_same(_frame_result(ff), ref_frame(tt, fam.frame_init()))
        init2 = rf.state_at(tt.grid.base)
        rf2 = integrate_ribaucour(tt, init2, K2target=fam.K2target)
        _assert_same(_ribaucour_result(rf2), ref_ribaucour(tt, init2))

    def test_mask_tol_masks_lines(self):
        # marched with RK4 on a sampled copy: the constant seed is propagated
        grid = ParameterGrid.centered(1.0, 9)
        t = sampled_copy(trivial_seed("problemstar_e1_Cneg", grid, c=0.0, s=0, C=-1.0))
        req = RibaucourState((1.0, 0.0, 0.0), (1.0, 0.1, 0.0), phi=0.2, psi=0.0, beta=0.3)
        init = seed_state(t, grid.base, req, K2target=1.0)
        rf = integrate_ribaucour(t, init, mask_tol=0.05, K2target=1.0)
        assert rf.masked is not None and rf.masked.any() and not rf.masked.all()
        _assert_same(_ribaucour_result(rf), ref_ribaucour(t, init, mask_tol=0.05))

    def _overflowing_triple(self):
        # exponential growth along u1 overflows on a long line
        grid = ParameterGrid((0, 0, 0), (60.0, 1, 1), (31, 5, 5))
        return TripleField.constant(grid, (1, -1, 1), SpaceFormSpec(0.0, 1),
                                    v=(0, 1, 1), V=(30.0, 0, 0))

    def test_nonfinite_lines_masked(self):
        # K2 = 0.99 is off kappa = 0: the init is marched on a sampled copy
        t = sampled_copy(self._overflowing_triple())
        init = RibaucourState((1.0, 0.0, 0.0), (1.0, 0.1, 0.0), phi=0.2, psi=0.3, beta=0.3)
        rf = integrate_ribaucour(t, init, K2target=1.0)
        assert rf.masked is not None and rf.masked.any()
        assert not np.isfinite(rf.states[rf.masked]).all()
        _assert_same(_ribaucour_result(rf), ref_ribaucour(t, init))

    def test_nonfinite_state_raises(self):
        t = self._overflowing_triple()
        init = standard_frame_state(t.spec)
        with pytest.raises(NonFiniteState) as err:
            integrate_frame(t, init, integrability_tol=None)
        assert str(err.value) == exact_overflow_message(t, init)
        # marched with RK4, the sampled copy overflows at the reference's node
        with pytest.raises(NonFiniteState) as ref_err:
            ref_frame(sampled_copy(t), init)
        with pytest.raises(NonFiniteState) as err:
            integrate_frame(sampled_copy(t), init, integrability_tol=None)
        assert str(err.value) == str(ref_err.value)

    # node layers are written through basic-index views of the state array:
    # axes done out of order, done axes of unequal length, empty directions
    @pytest.mark.parametrize("sampled", [False, True], ids=["closed", "sampled"])
    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 0, 1)])
    @pytest.mark.parametrize("where", ["off_centre", "face"])
    def test_layer_write_frame(self, where, order, sampled):
        fam, t, _ = _layer_case("r4_problemstar", where, sampled)
        ff = integrate_frame(t, fam.frame_init(), sweep_order=order, integrability_tol=None)
        _assert_frame(ff, t, fam.frame_init(), order)

    @pytest.mark.parametrize("sampled", [False, True], ids=["closed", "sampled"])
    @pytest.mark.parametrize("where", ["off_centre", "face"])
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_layer_write_ribaucour(self, name, where, sampled):
        fam, t, init = _layer_case(name, where, sampled)
        rf = integrate_ribaucour(t, init, K2target=fam.K2target)
        _assert_ribaucour(rf, t, init)


class TestInputsUntouched:
    """``rk4_march`` and a marched body only read the state they are given;
    the body, on stage values laid out as the march lays them out (read-only,
    components first), writes dY bit for bit as the batch-first reference,
    also where the state holds -0.0, inf and NaN."""

    B = 24

    def _case(self):
        fam, t, init = _closed_form_case("s4_problemstar_sphere")
        tt = transformed_triple(t, integrate_ribaucour(t, init, K2target=fam.K2target))
        rng = np.random.default_rng(5)
        pts = np.stack([rng.choice(tt.grid.axis(a), self.B) for a in range(3)], axis=-1)
        return tt, pts, rng

    @staticmethod
    def _state(rng, shape):
        Y = rng.normal(size=shape)
        Y[..., 0] = -0.0
        Y[..., 1] = np.inf
        Y.reshape(-1, Y.shape[-1])[1::2, 2] = np.nan
        return Y

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("engine", ["frame", "ribaucour"])
    def test_rhs(self, engine, axis):
        t, pts, rng = self._case()
        make_body, ref_rhs, shape = {
            "frame": (_frame_body, _ref_frame_rhs(t), (5, t.spec.dim)),
            "ribaucour": (_ribaucour_body, _ref_ribaucour_rhs(t), (9,))}[engine]
        body = make_body(t, np.zeros(shape))
        state = self._state(rng, shape + (self.B,))
        if engine == "ribaucour":
            # v' = -0.0 makes the (vii) sum a sum of signed zeros: it must
            # start from +0.0 as the reference's does
            state[3:6, 3:15] = -0.0
        Y = state.reshape(-1, self.B)
        before = Y.tobytes()
        v, h, V = t.eval_at(pts)
        slot = np.concatenate([v.T, h.reshape(-1, 9).T, V.T])      # (15, B)
        dY = np.empty(Y.shape)
        with np.errstate(all="ignore"):
            body(*_sweep._stage_values(slot), Y, dY, axis)
            ref = ref_rhs(pts, np.moveaxis(state, -1, 0), axis)
        assert Y.tobytes() == before
        assert dY.shape == Y.shape == (math.prod(shape), self.B)
        assert dY.tobytes() == np.moveaxis(ref, 0, -1).tobytes()

    def test_rk4_march(self):
        t, pts, rng = self._case()
        shape = (5, t.spec.dim)
        body = _frame_body(t, np.zeros(shape))
        Y = rng.normal(size=(math.prod(shape), self.B))
        before = Y.tobytes()
        u = t.grid.axis(1)
        [(_, _, y)] = rk4_march(t, body, [(pts, Y, node_intervals(u[4:6], 0, 1, 0.02))], 1)
        assert Y.tobytes() == before
        assert not np.shares_memory(y, Y)
        assert (y != Y).any(axis=0).all()


class TestMaxStep:
    @pytest.mark.parametrize("max_step", [0.0, -0.5, math.nan, math.inf])
    def test_invalid_max_step_raises(self, max_step):
        fam, t, init = _closed_form_case("r4_problemstar")
        with pytest.raises(InvalidParams, match="max_step"):
            integrate_frame(t, fam.frame_init(), max_step=max_step)
        with pytest.raises(InvalidParams, match="max_step"):
            integrate_ribaucour(t, init, max_step=max_step, K2target=fam.K2target)


# ---------------------------------------------------------------------------
# triple evaluations per sweep
# ---------------------------------------------------------------------------


def _eval_counts(grid, order, max_step):
    """The ``eval_at`` calls and points of one marched sweep.  Per phase of B
    lines: one call per live direction per batch, a batch ending at either
    direction's node arrival or after ``cap`` substeps, the most whose
    2 cap + 1 stage coordinates stay within ``_sweep._BATCH_POINTS`` points
    (at least one); and B (2 nsub + 1) points per node interval of nsub
    substeps, each distinct stage point once."""
    calls = points = 0
    for k, axis in enumerate(order):
        lines = math.prod(grid.n[a] for a in order[:k])
        cap = max(1, (_sweep._BATCH_POINTS // lines - 1) // 2)
        schedules = [s for s in _schedules(grid, axis, max_step) if s]
        points += lines * sum(2 * nsub + 1 for s in schedules for nsub in s)
        while schedules:
            steps = min(s[0] for s in schedules)       # up to the next arrival
            calls += len(schedules) * -(-steps // cap)
            schedules = [[s[0] - steps] + s[1:] if s[0] > steps else s[1:] for s in schedules]
            schedules = [s for s in schedules if s]
    return calls, points


def _count_eval_at(triple):
    """Wrap the instance's ``eval_at`` with call and point counters."""
    counts = {"calls": 0, "points": 0}
    inner = triple.eval_at

    def eval_at(points):
        counts["calls"] += 1
        counts["points"] += len(points)
        return inner(points)

    triple.eval_at = eval_at
    return counts


class TestEvalCount:
    """A marched sweep evaluates the triple once per live direction per batch
    of RK4 substeps, for all lines of the axis phase at once, at each
    distinct stage point once (``_eval_counts``).  A constant triple's frame,
    and its Ribaucour system from a phi-state, are propagated exactly and
    evaluate it never."""

    GRID = ParameterGrid((-0.2, -0.25, -0.15), (0.2, 0.15, 0.25), (5, 7, 6), (2, 3, 1))
    STEP = 0.03

    def _expected(self, order):
        return _eval_counts(self.GRID, order, self.STEP)

    def _counted_triple(self, fam, sampled):
        t = fam.seed_triple(self.GRID)
        if sampled:
            t = TripleField.from_samples(t.grid, t.delta, t.spec, t.v, t.h, t.V)
        return t, _count_eval_at(t)

    @pytest.mark.parametrize("sampled", [False, True])
    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 0, 1)])
    def test_frame_sweep(self, order, sampled):
        fam = FAMILIES["r4_problemstar"]
        t, counts = self._counted_triple(fam, sampled)
        integrate_frame(t, fam.frame_init(), sweep_order=order, max_step=self.STEP)
        calls, points = self._expected(order) if sampled else (0, 0)
        assert (counts["calls"], counts["points"]) == (calls, points)

    @pytest.mark.parametrize("sampled", [False, True])
    def test_ribaucour_sweep(self, sampled):
        fam = FAMILIES["s4_problemstar_sphere"]
        t, counts = self._counted_triple(fam, sampled)
        integrate_ribaucour(t, phi_state(fam, self.GRID.base_point), max_step=self.STEP,
                            K2target=fam.K2target)
        calls, points = self._expected((0, 1, 2)) if sampled else (0, 0)
        assert (counts["calls"], counts["points"]) == (calls, points)

    @pytest.mark.parametrize("sweep, order", [("frame", (0, 1, 2)), ("frame", (2, 0, 1)),
                                              ("ribaucour", (0, 1, 2))])
    def test_spline_evaluated_once_per_distinct_points(self, sweep, order, monkeypatch):
        """Every ``eval_at`` call of a sampled sweep reaches the spline once,
        with the batch's distinct stage points: RK4's second midpoint stage
        and the first stage of a substep inside a node interval, which
        repeat the bits of a stage before them, are not in it again.  The
        reference evaluates four stages per substep."""
        fam = FAMILIES["r4_problemstar" if sweep == "frame" else "s4_problemstar_sphere"]
        t, counts = self._counted_triple(fam, True)
        spline = []
        real_call = triples._CubicSpline.__call__
        monkeypatch.setattr(triples._CubicSpline, "__call__",
                            lambda self, points: spline.append(len(points))
                            or real_call(self, points))
        if sweep == "frame":
            integrate_frame(t, fam.frame_init(), sweep_order=order, max_step=self.STEP)
        else:
            integrate_ribaucour(t, phi_state(fam, self.GRID.base_point), max_step=self.STEP,
                                K2target=fam.K2target)
        calls, points = self._expected(order)
        assert (len(spline), sum(spline)) == (counts["calls"], counts["points"]) == (calls,
                                                                                     points)
        substeps = sum(math.prod(self.GRID.n[a] for a in order[:k]) * sum(map(sum, _schedules(
            self.GRID, axis, self.STEP))) for k, axis in enumerate(order))
        # a little over half the reference's 4 points per substep and line
        assert 2 * substeps < points < 4 * substeps * 5 // 8


class TestSampledSweepsOnLines:
    """A sweep evaluates a sampled triple only on grid lines: the spline
    raises PreconditionFailed for any call that leaves them."""

    GRID = TestEvalCount.GRID           # base (2, 3, 1): both directions on every axis

    def _sampled(self, fam):
        t = fam.seed_triple(self.GRID)
        return TripleField.from_samples(t.grid, t.delta, t.spec, t.v, t.h, t.V)

    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 0, 1)])
    def test_frame_sweep(self, order):
        fam = FAMILIES["r4_problemstar"]
        ff = integrate_frame(self._sampled(fam), fam.frame_init(), sweep_order=order,
                             max_step=TestEvalCount.STEP)
        assert np.isfinite(ff.states).all()

    def test_ribaucour_sweep(self):
        fam = FAMILIES["s4_problemstar_sphere"]
        rf = integrate_ribaucour(self._sampled(fam), phi_state(fam, self.GRID.base_point),
                                 max_step=TestEvalCount.STEP, K2target=fam.K2target)
        assert np.isfinite(rf.states).all()


class TestSplineLinePath:
    """A sampled sweep's calls between node arrivals take the spline's line
    path, and every call's bytes depend on its own points only."""

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_every_call_matches_a_fresh_spline(self, name):
        fam, t, init = _closed_form_case(name)
        rf = integrate_ribaucour(t, init, K2target=fam.K2target)
        tt = transformed_triple(t, rf)
        fresh = _CubicSpline(tt.v, tt.h, tt.V, tt.grid)     # never called: copied per call
        calls, differ = [], []
        inner = tt.eval_at

        def eval_at(points):
            out = inner(points)
            got = np.concatenate([x.reshape(len(points), -1) for x in out], axis=1)
            calls.append(len(points))
            if got.tobytes() != copy.copy(fresh)(points).tobytes():
                differ.append(points.copy())
            return out

        tt.eval_at = eval_at
        integrate_frame(tt, fam.frame_init(), integrability_tol=None)
        integrate_ribaucour(tt, rf.state_at(tt.grid.base), K2target=fam.K2target)
        assert len(calls) == 2 * _eval_counts(tt.grid, (0, 1, 2), DEFAULT_MAX_STEP)[0]
        assert not differ, f"{len(differ)} of {len(calls)} calls differ"

    @pytest.mark.parametrize("sweep, order", [("frame", (0, 1, 2)), ("frame", (2, 0, 1)),
                                              ("ribaucour", None)])
    def test_point_path_only_at_node_arrivals(self, sweep, order, monkeypatch):
        """The point path, which gathers each point's own rows, runs only for
        points that sit on nodes, the first stage coordinate of each node
        interval off axis 0, and evaluates them along axis 0; every other
        stage point takes the line path."""
        fam = FAMILIES["r4_problemstar" if sweep == "frame" else "s4_problemstar_sphere"]
        grid = TestEvalCount.GRID
        t = fam.seed_triple(grid)
        t = TripleField.from_samples(grid, t.delta, t.spec, t.v, t.h, t.V)
        point_path = []             # (axis, coordinates in node units) per gather
        real_along = triples._CubicSpline._along
        monkeypatch.setattr(triples._CubicSpline, "_along", lambda self, a, x, node: (
            point_path.append((a, x.copy())) or real_along(self, a, x, node)))
        nodal = []                  # per call, its points on nodes if it marches off axis 0
        inner = t.eval_at

        def eval_at(points):
            on = np.stack([np.isin(points[:, a], grid.axis(a)) for a in range(3)], axis=1)
            nodal.append(on.all(axis=1).sum() if on[:, 0].all() else 0)
            return inner(points)

        t.eval_at = eval_at
        if sweep == "ribaucour":
            integrate_ribaucour(t, phi_state(fam, grid.base_point), max_step=TestEvalCount.STEP,
                                K2target=fam.K2target)
        else:
            integrate_frame(t, fam.frame_init(), sweep_order=order, max_step=TestEvalCount.STEP)
        assert point_path
        for a, x in point_path:
            assert a == 0 and np.abs(x - np.rint(x)).max() < 1e-12
        # at least the first copy of each node interval off axis 0
        lines = [math.prod(grid.n[b] for b in (order or (0, 1, 2))[:k]) for k in range(3)]
        intervals = [len(grid.axis(a)) - 1 for a in (order or (0, 1, 2))]
        firsts = sum(b * m for b, m, a in zip(lines, intervals, order or (0, 1, 2)) if a)
        assert sum(len(x) for _, x in point_path) == sum(nodal) >= firsts


# ---------------------------------------------------------------------------
# the Ribaucour field and the frame of one seed, one sweep each
# ---------------------------------------------------------------------------


class TestStackedSweep:
    """The Ribaucour field and the frame of one seed, swept one after the
    other as the CLI sweeps them for F' (the frame with no second check of
    the seed): masking covers the Ribaucour field only, a frame overflow
    raises, and each sweep checks its triple before its state."""

    FAMILIES = dict(FAMILIES, r4_problemstar_eps_minus1=PhiFamily(
        "problemstar", K=2.0, a=1.0, c=0.0, eps=-1, theta=THETA))

    @staticmethod
    def _both(t, init, frame_init, **kw):
        rf = integrate_ribaucour(t, init, **kw)
        return rf, integrate_frame(t, frame_init, integrability_tol=None)

    def test_sampled_retransform_with_masked_lines(self):
        # the S^4 re-transform masks lines where phi or psi vanish
        fam, t, init = _closed_form_case("s4_problemstar_sphere")
        rf = integrate_ribaucour(t, init, K2target=fam.K2target)
        tt = transformed_triple(t, rf)
        rf2, _ = self._both(tt, rf.state_at(tt.grid.base), fam.frame_init(),
                            K2target=fam.K2target)
        assert rf2.masked is not None and rf2.masked.any()

    def test_masked_nodes_keep_integrating_the_frame(self):
        # marched with RK4 on a sampled copy: the constant seed is propagated
        grid = ParameterGrid.centered(1.0, 9)
        t = sampled_copy(trivial_seed("problemstar_e1_Cneg", grid, c=0.0, s=0, C=-1.0))
        req = RibaucourState((1.0, 0.0, 0.0), (1.0, 0.1, 0.0), phi=0.2, psi=0.0, beta=0.3)
        init = seed_state(t, grid.base, req, K2target=1.0)
        rf, ff = self._both(t, init, standard_frame_state(t.spec), mask_tol=0.05,
                            K2target=1.0)
        masked = rf.masked
        assert masked is not None and masked.any() and not masked.all()
        # the axis-1 line from a masked node of the base line: its Ribaucour
        # nodes are masked, its frame rows turn (V_2 = 1)
        i = int(np.argmax(masked[:, 4, 4]))
        line = (i, slice(4, None), 4)
        assert masked[line].all()
        assert np.isfinite(ff.states[line]).all()
        assert len(np.unique(ff.N[line], axis=0)) == len(ff.N[line])

    def test_frame_overflow_raises(self):
        # on a sampled copy, as K2 = 0.99 is off kappa = 0: the marched
        # Ribaucour rows overflow and are masked, and the marched frame raises
        # at the RK4 reference's node
        t = sampled_copy(TestBitIdentity()._overflowing_triple())
        init = RibaucourState((1.0, 0.0, 0.0), (1.0, 0.1, 0.0), phi=0.2, psi=0.3, beta=0.3)
        frame_init = standard_frame_state(t.spec)
        with pytest.raises(NonFiniteState) as err:
            self._both(t, init, frame_init, K2target=1.0)
        rf = integrate_ribaucour(t, init, K2target=1.0)
        assert rf.scheme == "RK4 sweep" and not np.isfinite(rf.states).all()
        assert rf.masked[~np.isfinite(rf.states).all(axis=-1)].all()
        with pytest.raises(NonFiniteState) as ref_err:
            ref_frame(t, frame_init)
        assert str(err.value) == str(ref_err.value)

    def test_frame_of_another_dimension_raises(self):
        fam, t, init = _closed_form_case("s4_problemstar_sphere")
        r4_frame = FAMILIES["r4_problemstar"].frame_init()
        with pytest.raises(DimensionError, match=r"\(5, 5\)"):
            self._both(t, init, r4_frame, K2target=fam.K2target)
        with pytest.raises(DimensionError, match=r"\(5, 5\)"):
            integrate_frame(t, r4_frame)

    def test_triple_checked_before_frame_dimension(self):
        # each sweep checks its triple before its system sees its state
        fam, t, init = _closed_form_case("s4_problemstar_sphere")
        r4_frame = FAMILIES["r4_problemstar"].frame_init()
        with pytest.raises(GridMismatch):
            integrate_frame(t, r4_frame, ParameterGrid.centered(1.0, 7))
        # V = (1, 0.5, 0.2) leaves 0.5 in equation (3.iii)
        bad = TripleField.constant(t.grid, (1, -1, 1), SpaceFormSpec(0.0, 0),
                                   v=(0, 1, 1), V=(1, 0.5, 0.2))
        with pytest.raises(PreconditionFailed):
            integrate_ribaucour(bad, init, K2target=1.0, integrability_tol=1e-8)
        with pytest.raises(PreconditionFailed):
            integrate_frame(bad, fam.frame_init(), integrability_tol=1e-8)


# ---------------------------------------------------------------------------
# the two directions of a phase marched as one batch
# ---------------------------------------------------------------------------


def _engine_ribaucour(t, init, order):
    """``integrate_ribaucour``'s sweep and mask in any axis order (it sweeps
    (0, 1, 2)): nodes where |phi| or |psi| < mask_tol or a value is not
    finite, and the nodes the sweep reaches through them."""
    tol = default_mask_tol(t.grid)
    states = sweep_integrate(t, t.grid, order, _ribaucour_body, init.as_array(),
                             DEFAULT_MAX_STEP, None, masked=True)
    flagged = ((np.abs(states[..., 6]) < tol) | (np.abs(states[..., 7]) < tol)
               | ~np.isfinite(states).all(axis=-1))
    return states, sweep_descendants(flagged, t.grid.base, order)


def _schedules(grid, axis, max_step=DEFAULT_MAX_STEP):
    """Substeps per node interval of the + and the - direction along ``axis``."""
    return [[nsub for *_, nsub in node_intervals(grid.axis(axis), grid.base[axis], step,
                                                 max_step)]
            for step in (+1, -1)]


class TestSweepDescendants:
    """``sweep_descendants`` flags the nodes with a flagged node on their
    sweep path, in any axis order and from any base."""

    @pytest.mark.parametrize("base", [(2, 3, 1), (0, 3, 5), (4, 0, 0)])
    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 0, 1), (1, 2, 0)])
    def test_against_paths(self, order, base):
        rng = np.random.default_rng(7)
        for density in (0.01, 0.05, 0.2):
            flagged = rng.random((5, 7, 6)) < density
            ref = path_masked(flagged, base, order)
            assert np.array_equal(sweep_descendants(flagged.copy(), base, order), ref)

    def test_flagged_base_flags_every_node(self):
        flagged = np.zeros((5, 7, 6), dtype=bool)
        flagged[2, 3, 1] = True
        assert sweep_descendants(flagged, (2, 3, 1), (1, 0, 2)).all()


class TestLockstep:
    """Every axis phase marches its + and - directions as one batch, each on
    its own substep schedule; states, masks and errors are bit for bit
    those of the batch-first reference, which marches + and then -."""

    # max_step 0.01 splits the intervals of the 41-node axis on [-1, 1] into 5
    # or 6 substeps (spacings 0.05 and 0.050000000000000044)
    BOX = ((-1.0, -0.1, -0.15), (1.0, 0.1, 0.15), (41, 5, 4))
    BASES = {"asymmetric": (7, 1, 2),       # + and - differ in length and schedule
             "axis41": (20, 2, 1),          # centred: mixed 5- and 6-substep intervals
             "face": (0, 2, 3),             # + of axis 0 and - of axis 2 are empty
             "plus_first": (33, 2, 1)}      # + of axis 0 ends inside a node interval of -

    @classmethod
    def grid(cls, where):
        return ParameterGrid(*cls.BOX, cls.BASES[where])

    def test_schedules(self):
        plus, minus = _schedules(self.grid("asymmetric"), 0)
        assert (len(plus), len(minus)) == (33, 7)
        assert plus[:7] != minus and set(plus) == set(minus) == {5, 6}
        plus, minus = _schedules(self.grid("axis41"), 0)
        assert len(plus) == len(minus) and sum(plus) != sum(minus)
        face = self.grid("face")
        assert _schedules(face, 0)[1] == [] and _schedules(face, 2)[0] == []
        plus, minus = _schedules(self.grid("plus_first"), 0)
        assert sum(plus) < sum(minus) and sum(plus) not in itertools.accumulate(minus)

    def test_tiny_max_step_streams(self):
        # 1e-300 asks for about 5e298 substeps per interval: the march starts
        # at once, with nothing listed ahead
        grid = self.grid("axis41")
        ((_, _, _, nsub),) = itertools.islice(node_intervals(grid.axis(0), 20, 1, 1e-300), 1)
        assert nsub > 1e298
        t = sampled_copy(FAMILIES["r4_problemstar"].seed_triple(grid))
        y0 = np.zeros((5, t.spec.dim))
        body = _frame_body(t, y0)
        calls = []

        class Enough(Exception):
            pass

        inner = t.eval_at

        def eval_at(points):
            calls.append(len(points))
            if len(calls) == 4:
                raise Enough
            return inner(points)

        t.eval_at = eval_at
        pts = np.array([grid.base_point])
        y = np.zeros((y0.size, 1))
        lanes = [(pts, y, node_intervals(grid.axis(0), 20, step, 1e-300)) for step in (+1, -1)]
        with pytest.raises(Enough):
            next(rk4_march(t, body, lanes, 0))
        # two lanes of one line each, batches of the most substeps whose
        # stage points fit _BATCH_POINTS, the first stage of the second
        # batch carried over from the first
        cap = (_sweep._BATCH_POINTS - 1) // 2
        assert calls == [2 * cap + 1] * 2 + [2 * cap] * 2

    @pytest.mark.parametrize("sampled", [False, True], ids=["closed", "sampled"])
    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 0, 1)])
    @pytest.mark.parametrize("where", sorted(BASES))
    def test_frame(self, where, order, sampled):
        fam, t, _ = _family_case("r4_problemstar", self.grid(where), sampled)
        ff = integrate_frame(t, fam.frame_init(), sweep_order=order, integrability_tol=None)
        _assert_frame(ff, t, fam.frame_init(), order)

    @pytest.mark.parametrize("sampled", [False, True], ids=["closed", "sampled"])
    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 0, 1)])
    @pytest.mark.parametrize("where", sorted(BASES))
    def test_ribaucour(self, where, order, sampled):
        _, t, init = _family_case("s4_problemstar_sphere", self.grid(where), sampled)
        _assert_same(_engine_ribaucour(t, init, order),
                     ref_ribaucour(t, init, sweep_order=order))

    @staticmethod
    def _growing_triple(lo, hi, n, base):
        """Frame rows grow like exp(int V_1 du_1) along axis 0 (eps = -1), with
        V_1 = 60 - u_1: faster below u_1 = 0 than above."""
        grid = ParameterGrid((lo, 0, 0), (hi, 1, 1), (n, 4, 4), (base, 1, 1))
        u = np.broadcast_to(grid.axis(0)[:, None, None], grid.n)
        zero, one = np.zeros(grid.n), np.ones(grid.n)
        return TripleField.from_samples(grid, (1, -1, 1), SpaceFormSpec(0.0, 1),
                                        np.stack([zero, one, one]),
                                        np.zeros((3, 3) + grid.n),
                                        np.stack([60.0 - u, zero, zero]))

    @staticmethod
    def _overflow_message(t, max_step):
        """The sweep's overflow message, checked against the exact frame's for
        a constant triple and against the RK4 reference's otherwise."""
        init = standard_frame_state(t.spec)
        with pytest.raises(NonFiniteState) as err:
            integrate_frame(t, init, max_step=max_step, integrability_tol=None)
        if t.closed_form:
            assert str(err.value) == exact_overflow_message(t, init)
            return str(err.value)
        with pytest.raises(NonFiniteState) as ref_err:
            ref_frame(t, init, max_step=max_step)
        assert str(err.value) == str(ref_err.value)
        return str(err.value)

    def test_overflow_in_both_directions_names_the_plus_node(self):
        # alone, - overflows 16 nodes from the base and + 20 nodes: marched
        # together, - overflows first and its error waits for + to raise
        assert self._overflow_message(self._growing_triple(-40.0, 0.0, 21, 20),
                                      0.5).endswith("axis 0 at node 4")
        assert self._overflow_message(self._growing_triple(0.0, 40.0, 21, 0),
                                      0.5).endswith("axis 0 at node 20")
        assert self._overflow_message(self._growing_triple(-40.0, 40.0, 41, 20),
                                      0.5).endswith("axis 0 at node 40")

    def test_overflow_in_minus_direction_names_its_node(self):
        # + ends two nodes from the base, before anything overflows
        t = TestBitIdentity()._overflowing_triple()
        t = TripleField.constant(ParameterGrid(t.grid.lo, t.grid.hi, t.grid.n, (28, 2, 2)),
                                 t.delta, t.spec, *t.constant_values)
        message = self._overflow_message(t, DEFAULT_MAX_STEP)
        assert message.startswith("state overflowed along axis 0 at node ")
        assert int(message.rsplit(" ", 1)[1]) < 28

    def test_masked_direction_leaves_the_other_integrating(self):
        # along the base line phi falls from 0.3 to 0.05 < mask_tol one node
        # into the - direction, which is masked from there, and rises in the +
        # direction (marched with RK4 on a sampled copy: the constant seed is
        # propagated)
        grid = ParameterGrid.centered(1.0, 9)
        t = sampled_copy(trivial_seed("problemstar_e1_Cneg", grid, c=0.0, s=0, C=-1.0))
        req = RibaucourState((1.0, 0.0, 0.0), (1.0, 0.1, 0.0), phi=0.3, psi=0.0, beta=0.3)
        init = seed_state(t, grid.base, req, K2target=1.0)
        rf = integrate_ribaucour(t, init, mask_tol=0.1, K2target=1.0)
        line = rf.masked[:, 4, 4]
        assert line[:4].all() and not line[4:].any()
        plus = rf.states[4:, 4, 4]
        assert np.isfinite(plus).all() and len({row.tobytes() for row in plus}) == len(plus)
        _assert_same(_ribaucour_result(rf), ref_ribaucour(t, init, mask_tol=0.1))


class TestEvalAtPerDirection:
    """``eval_at`` never sees a merged batch: each call carries K copies of
    the B lines of one direction, copy k at one coordinate on its side of the
    base along the phase axis, and in every batch + is evaluated before -.
    Taken one direction at a time and split into its copies, the calls are
    the reference's distinct stage points, bit for bit: the reference, which
    marches + and then -, evaluates u, u + dt/2 twice and u + dt per
    substep, and inside a node interval a substep's u is the last one's
    u + dt."""

    @pytest.mark.parametrize("sampled", [False, True], ids=["closed", "sampled"])
    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 0, 1)])
    @pytest.mark.parametrize("where", ["asymmetric", "face"])
    def test_one_direction_per_call(self, where, order, sampled):
        # the phases have 1, 41, 205 and 1, 4, 164 lines
        self._check(where, order, sampled)

    @pytest.mark.parametrize("sampled", [False, True], ids=["closed", "sampled"])
    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 0, 1)])
    @pytest.mark.parametrize("lane_lines", [0, 40, 41, 164])
    def test_either_side_of_the_lane_rule(self, lane_lines, order, sampled):
        # A lane rule at lane_lines lines per direction would march every
        # wider phase + and then -: 0 every phase, 40 and 41 either side of
        # the 41-line phase, 164 the 205-line phase of (0, 1, 2) but not the
        # 164-line one of (2, 0, 1).  No phase is split: the wider ones
        # interleave + and - as the others do, and the engine's stage points
        # regrouped + and then - per phase are the reference's, bit for bit.
        grid = TestLockstep.grid("asymmetric")
        phases = self._check("asymmetric", order, sampled)
        fam, t = self._triple("asymmetric", sampled)
        ref_calls = self._calls(t)
        if sampled:
            ref_frame(t, fam.frame_init(), order)
        else:
            ref_ribaucour(t, phi_state(fam, grid.base_point), sweep_order=order)
        for (signs, stages), ref in zip(phases, self._distinct(ref_calls, grid, order)):
            if 1 in signs and -1 in signs and len(stages[1][0]) > lane_lines:
                assert signs[:2] == [1, -1]
            for sign in (1, -1):
                assert [p.tobytes() for p in stages[sign]] == [p.tobytes() for p in ref[sign]]

    @staticmethod
    def _triple(where, sampled):
        grid = TestLockstep.grid(where)
        fam = FAMILIES["r4_problemstar"]
        t = fam.seed_triple(grid)
        return fam, sampled_copy(t) if sampled else t

    @staticmethod
    def _calls(t):
        """The points of every ``eval_at`` call made on ``t`` from now on."""
        calls = []
        inner = t.eval_at

        def eval_at(points):
            calls.append(np.array(points))
            return inner(points)

        t.eval_at = eval_at
        return calls

    @staticmethod
    def _distinct(ref_calls, grid, order):
        """The reference's calls per phase and direction, each stage point
        once: per node interval u, then u + dt/2 and u + dt of each substep."""
        phases, pos = [], 0
        for axis in order:
            phase = {}
            for sign, schedule in zip((1, -1), _schedules(grid, axis)):
                phase[sign] = []
                for nsub in schedule:
                    block, pos = ref_calls[pos:pos + 4 * nsub], pos + 4 * nsub
                    assert all(block[k + 1].tobytes() == block[k + 2].tobytes()
                               for k in range(0, 4 * nsub, 4))
                    assert all(block[k + 3].tobytes() == block[k + 4].tobytes()
                               for k in range(0, 4 * nsub - 4, 4))
                    phase[sign] += [block[0]] + [block[k] for j in range(nsub)
                                                 for k in (4 * j + 1, 4 * j + 3)]
            phases.append(phase)
        assert pos == len(ref_calls)
        return phases

    @classmethod
    def _check(cls, where, order, sampled):
        """The calls of the frame sweep of a sampled triple, of the Ribaucour
        sweep of a constant one (whose frame sweep makes none), per phase:
        the direction of each call in turn, and each direction's stage
        points, one (B, 3) array per stage coordinate."""
        grid = TestLockstep.grid(where)
        fam, t = cls._triple(where, sampled)
        calls = cls._calls(t)
        integrate_frame(t, fam.frame_init(), sweep_order=order, integrability_tol=None)
        if not sampled:
            assert calls == []
            _engine_ribaucour(t, phi_state(fam, grid.base_point), order)

        phases, pos = [], 0
        for axis in order:
            done = order[:order.index(axis)]
            starts = np.array(list(itertools.product(
                *[grid.axis(a) if a in done else [grid.base_point[a]] for a in range(3)])))
            others = [a for a in range(3) if a != axis]
            u0 = grid.base_point[axis]
            # 2 nsub + 1 stage coordinates per node interval
            want = {sign: sum(2 * nsub + 1 for nsub in schedule)
                    for sign, schedule in zip((1, -1), _schedules(grid, axis))}
            signs, stages = [], {1: [], -1: []}
            while any(len(stages[sign]) < want[sign] for sign in stages):
                points, pos = calls[pos], pos + 1
                copies = points.reshape(-1, len(starts), 3)
                assert copies.shape[0] * len(starts) == len(points) and len(copies) > 1
                assert (copies[:, :, others] == starts[:, others]).all()
                u = copies[:, :, axis]
                assert (u == u[:, :1]).all()
                sign = 1 if u[-1, 0] > u0 else -1
                assert (sign * (u[:, 0] - u0) >= 0).all()
                signs.append(sign)
                stages[sign] += list(copies)
            assert {sign: len(stages[sign]) for sign in stages} == want
            # one call per live direction per batch, + first
            i = 0
            while signs[i:i + 2] == [1, -1]:
                i += 2
            assert len(set(signs[i:])) <= 1
            phases.append((signs, stages))
        assert pos == len(calls)
        return phases


class TestLaneRule:
    """Every phase marches both directions as one batch, the widest too; its
    states, masks and errors are those of the reference, which marches + and
    then -."""

    def test_rule(self, monkeypatch):
        # a 41 x 5 x 4 box: (0, 1, 2) has phases of 1, 41 and 205 lines
        grid = TestLockstep.grid("asymmetric")
        fam = FAMILIES["r4_problemstar"]
        t = fam.seed_triple(grid)
        init = phi_state(fam, grid.base_point)
        widths = []
        real_march = _sweep.rk4_march

        def march(triple, body, lanes, *args):
            widths.append([len(lane[0]) for lane in lanes])
            return real_march(triple, body, lanes, *args)

        monkeypatch.setattr(_sweep, "rk4_march", march)
        states = _engine_ribaucour(t, init, (0, 1, 2))
        assert widths == [[1, 1], [41, 41], [205, 205]]
        _assert_same(states, ref_ribaucour(t, init))

    @pytest.mark.parametrize("sampled", [False, True], ids=["closed", "sampled"])
    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 0, 1)])
    def test_frame(self, order, sampled):
        fam, t, _ = _layer_case("r4_problemstar", "off_centre", sampled)
        ff = integrate_frame(t, fam.frame_init(), sweep_order=order, integrability_tol=None)
        _assert_frame(ff, t, fam.frame_init(), order)

    @pytest.mark.parametrize("sampled", [False, True], ids=["closed", "sampled"])
    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 0, 1)])
    def test_ribaucour(self, order, sampled):
        _, t, init = _layer_case("s4_problemstar_sphere", "off_centre", sampled)
        _assert_same(_engine_ribaucour(t, init, order),
                     ref_ribaucour(t, init, sweep_order=order))

    def test_masked_line(self):
        # the - direction of the base line is masked from one node from the base
        # (TestLockstep.test_masked_direction_leaves_the_other_integrating),
        # and the lines started from its nodes stay masked (marched with RK4
        # on a sampled copy: the constant seed is propagated)
        grid = ParameterGrid.centered(1.0, 9)
        t = sampled_copy(trivial_seed("problemstar_e1_Cneg", grid, c=0.0, s=0, C=-1.0))
        req = RibaucourState((1.0, 0.0, 0.0), (1.0, 0.1, 0.0), phi=0.3, psi=0.0, beta=0.3)
        init = seed_state(t, grid.base, req, K2target=1.0)
        rf = integrate_ribaucour(t, init, mask_tol=0.1, K2target=1.0)
        _assert_same(_ribaucour_result(rf), ref_ribaucour(t, init, mask_tol=0.1))
        assert rf.masked[:4].all() and not rf.masked[4:].any()

    @pytest.mark.parametrize("order", [(0, 1, 2), (1, 2, 0)])
    def test_overflow_in_both_directions_names_the_plus_node(self, order):
        # the frame rows overflow both ways along axis 0, in the first phase
        # of (0, 1, 2) and in the 16-line last phase of (1, 2, 0)
        t = TestLockstep._growing_triple(-40.0, 40.0, 41, 20)
        init = standard_frame_state(t.spec)
        with pytest.raises(NonFiniteState) as err:
            integrate_frame(t, init, sweep_order=order, max_step=0.5, integrability_tol=None)
        with pytest.raises(NonFiniteState) as ref_err:
            ref_frame(t, init, order, max_step=0.5)
        assert str(err.value) == str(ref_err.value) == "state overflowed along axis 0 at node 40"


# ---------------------------------------------------------------------------
# marched bodies keep every term
# ---------------------------------------------------------------------------


class TestBodiesBuiltForInputs:
    """Both RK4 bodies keep every term, c terms included when c = 0.  Their
    marched states must be the bytes of the expression-form references on
    every gallery seed and family, and from inits whose -0.0 entries meet a
    -0.0 term, where -0.0 - (-0.0) = +0.0 tells a kept term from a dropped
    one.  A constant triple's frame, and its Ribaucour system from an init on
    K2 = kappa, are propagated exactly and checked against their exact
    references."""

    GRID = TestEvalCount.GRID           # base (2, 3, 1): both directions on every axis
    # the conformally flat seed requires c = 0
    SEEDS = [(kind, c, s) for kind in SEED_KINDS for c in (-1.0, 0.0, 1.0) for s in (0, 1)
             if kind != "cflat" or c == 0]

    @staticmethod
    def _seed(kind, c, s, grid):
        if kind == "cflat":
            return trivial_seed(kind, grid, c=c, s=s)
        return trivial_seed(kind, grid, c=c, s=s, C=-1.0 if kind.endswith("Cneg") else 1.0)

    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 0, 1)])
    @pytest.mark.parametrize("kind,c,s", SEEDS)
    def test_frame_over_seeds(self, kind, c, s, order):
        t = self._seed(kind, c, s, self.GRID)
        init = seed_frame_state(kind, t.spec)
        ff = integrate_frame(t, init, sweep_order=order, integrability_tol=None)
        assert_exact(ff.states, exact_frame(t, init, order))

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_ribaucour_over_families(self, name):
        fam, t, init = _family_case(name, self.GRID, False)
        rf = integrate_ribaucour(t, init, K2target=fam.K2target)
        _assert_ribaucour(rf, t, init)

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_with_frame_over_families(self, name):
        fam, t, init = _family_case(name, self.GRID, False)
        rf, ff = TestStackedSweep._both(t, init, fam.frame_init(), K2target=fam.K2target)
        _assert_ribaucour(rf, t, init)
        _assert_frame(ff, t, fam.frame_init())

    @pytest.mark.parametrize("c", [0.0, 1.0])
    def test_every_gamma_nonzero(self, c):
        # K2 = 0.5 is off kappa = 1: marched on a sampled copy of the seed
        t = sampled_copy(self._seed("problemstar_e1_Cneg", c, 0, self.GRID))
        req = RibaucourState((0.3, -0.2, 0.1), (1.0, 0.1, 0.0), phi=0.8, psi=0.0, beta=0.3)
        init = seed_state(t, self.GRID.base, req, K2target=0.5)
        assert all(init.gamma)
        rf, ff = TestStackedSweep._both(t, init, standard_frame_state(t.spec), K2target=0.5)
        assert rf.scheme == "RK4 sweep"
        _assert_same(_ribaucour_result(rf), ref_ribaucour(t, init))
        _assert_frame(ff, t, standard_frame_state(t.spec))

    def test_cflat_phi_state_negative_gamma(self):
        # the -0.0 gamma_1 meets the c term of a c = 0 family (marched with
        # RK4 on a sampled copy: the constant seed is propagated)
        fam, t, init = _family_case("r4_cflat", self.GRID, False)
        t = sampled_copy(t)
        assert fam.spec.c == 0
        assert math.copysign(1.0, init.gamma[0]) < 0 and init.gamma[0] == 0
        rf = integrate_ribaucour(t, init, K2target=fam.K2target)
        _assert_same(_ribaucour_result(rf), ref_ribaucour(t, init))

    # On the seed v = (1, 0, 0), V = (0, 1, 0) with psi, beta < 0, the state
    # makes dgamma_1 = (v_1 - v'_1) psi + beta V_1 - c phi v_1 = -0.0 along
    # u_1 with gamma_1 = -0.0, where the body then subtracts the c term
    # -0.0, and -0.0 - (-0.0) = +0.0.  K2 = 0.99 is off kappa = 1, so it is
    # marched on a sampled copy of the seed.
    NEGATIVE_GAMMA = {
        # c phi v_1 with c = 0, phi < 0, along u_1
        "c_term": (0.0, RibaucourState((-0.0, 1.0, 0.5), (1.0, 0.1, 0.0), phi=-0.5,
                                       psi=-0.8, beta=-0.3)),
    }

    @pytest.mark.parametrize("case", sorted(NEGATIVE_GAMMA))
    def test_hand_built_negative_gamma(self, case):
        c, init = self.NEGATIVE_GAMMA[case]
        t = sampled_copy(self._seed("problemstar_e1_Cneg", c, 1, self.GRID))
        rf, ff = TestStackedSweep._both(t, init, standard_frame_state(t.spec), K2target=1.0)
        _assert_same(_ribaucour_result(rf), ref_ribaucour(t, init))
        _assert_frame(ff, t, standard_frame_state(t.spec))

    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 0, 1)])
    @pytest.mark.parametrize("c", [0.0, 1.0])
    def test_reflected_frame(self, c, order):
        # X_i = -E_i holds -0.0 in every X row: the constant triple's frame is
        # exact, and its sampled copy is marched with RK4
        t = self._seed("problemstar_e1_Cneg", c, 1, self.GRID)
        init = seed_frame_state("problemstar_e1_Cneg", t.spec).scaled_frame(-1.0)
        assert _negative_zero(init.as_array()[1:4])
        for triple in (t, sampled_copy(t)):
            ff = integrate_frame(triple, init, sweep_order=order, integrability_tol=None)
            _assert_frame(ff, triple, init, order)

    @pytest.mark.parametrize("term", ["c", "h"])
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_one_negative_zero_in_an_x_row(self, r, term):
        # X_r holds one -0.0, in component k: along axis r, dX_r,k =
        # eps V_r N_k = -0.0 (eps = -1, N = E4), and the full body subtracts
        # c v_r f_k = -0.0 (c = 0, f_k < 0) or h_kr X_k,k = -0.0 (X_k = E_k
        # reflected, +0.0 elsewhere).  The constant triple's frame is exact,
        # and its sampled copy is marched with RK4
        t = self._seed("problemstar_e1_Cneg", 0.0, 1, self.GRID)
        k = (r + 1) % 3
        f, X = np.zeros(4), np.eye(4)[:3]
        if term == "c":
            f[k] = -2.0
        else:
            X[k, k] = -1.0
        X[r, k] = -0.0
        init = FrameState(f, *X, np.eye(4)[3])
        assert [_negative_zero(row) for row in X] == [i == r for i in range(3)]
        for triple in (t, sampled_copy(t)):
            ff = integrate_frame(triple, init, integrability_tol=None)
            _assert_frame(ff, triple, init)


# ---------------------------------------------------------------------------
# states stored as component planes
# ---------------------------------------------------------------------------


class TestPlaneLayout:
    """Every sweep's states are grid.n + y0.shape views of one contiguous
    y0.shape + grid.n block of component planes: moved to component-first
    order they are C-contiguous, and they hold no second copy of the states."""

    @staticmethod
    def _states(kind, t, init, fam, order):
        """(states, component axes) of each sweep a ``kind`` run makes, the
        Ribaucour sweep before the frame's; the Ribaucour sweeps run
        ``order`` through ``sweep_integrate`` when it is not the (0, 1, 2)
        of ``integrate_ribaucour``."""
        frame_init = fam.frame_init()
        results = []
        if kind != "frame":
            if order != (0, 1, 2):
                states = sweep_integrate(t, t.grid, order, _ribaucour_body, init.as_array(),
                                         DEFAULT_MAX_STEP, None)
            else:
                states = integrate_ribaucour(t, init, K2target=fam.K2target).states
            results.append((states, 1))
        if kind != "ribaucour":
            ff = integrate_frame(t, frame_init, sweep_order=order, integrability_tol=None)
            results.append((ff.states, 2))
        return results

    @pytest.mark.parametrize("sampled", [False, True], ids=["closed", "sampled"])
    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0)])
    @pytest.mark.parametrize("kind", ["frame", "ribaucour", "with_frame"])
    def test_component_planes(self, kind, order, sampled):
        fam, t, init = _layer_case("r4_problemstar", "off_centre", sampled)
        results = self._states(kind, t, init, fam, order)
        for states, comps in results:
            assert states.shape[:3] == t.grid.n
            planes = np.moveaxis(states, tuple(range(3, 3 + comps)), tuple(range(comps)))
            assert planes.flags.c_contiguous
            assert planes.shape == states.shape[3:] + t.grid.n
            assert states.base is not None and states.base.flags.owndata
            assert states.base.nbytes == states.nbytes
        if len(results) == 2:
            assert not np.shares_memory(results[0][0], results[1][0])


# ---------------------------------------------------------------------------
# a constant triple's frame, propagated with no row marched
# ---------------------------------------------------------------------------


class TestCarriedRows:
    """A constant triple's frame is propagated exactly, with no row marched:
    its states are within rounding of the expm-composed reference, and an
    overflow names the node where the exact frame overflows.  A sampled
    triple's frame marches every row, bit for bit the RK4 reference.  The
    sweep's inputs are checked before anything is swept."""

    GRIDS = {"off_centre": TestEvalCount.GRID,
             "face": ParameterGrid(TestEvalCount.GRID.lo, TestEvalCount.GRID.hi,
                                   TestEvalCount.GRID.n, (0, 3, 5))}
    ORDERS = [(0, 1, 2), (2, 1, 0), (2, 0, 1)]

    @pytest.mark.parametrize("where", sorted(GRIDS))
    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("kind,c,s", TestBodiesBuiltForInputs.SEEDS)
    def test_frame_over_seeds(self, kind, c, s, order, where):
        t = TestBodiesBuiltForInputs._seed(kind, c, s, self.GRIDS[where])
        init = seed_frame_state(kind, t.spec)
        ff = integrate_frame(t, init, sweep_order=order, integrability_tol=None)
        assert_exact(ff.states, exact_frame(t, init, order))

    @pytest.mark.parametrize("where", sorted(GRIDS))
    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("kind,c,s", TestBodiesBuiltForInputs.SEEDS)
    def test_sampled_frame_over_seeds(self, kind, c, s, order, where):
        t = sampled_copy(TestBodiesBuiltForInputs._seed(kind, c, s, self.GRIDS[where]))
        init = seed_frame_state(kind, t.spec)
        ff = integrate_frame(t, init, sweep_order=order, integrability_tol=None)
        _assert_same(_frame_result(ff), ref_frame(t, init, order))

    @pytest.mark.parametrize("where", sorted(GRIDS))
    @pytest.mark.parametrize("name", sorted(TestStackedSweep.FAMILIES))
    def test_with_frame_equals_separate_sweeps(self, name, where):
        # the CLI's pair of sweeps for F': the frame swept after the
        # Ribaucour field on the same triple, with no second seed check, has
        # the bytes of a frame swept on its own
        fam = TestStackedSweep.FAMILIES[name]
        grid = self.GRIDS[where]
        t = fam.seed_triple(grid)
        init = phi_state(fam, grid.base_point)
        rf, ff = TestStackedSweep._both(t, init, fam.frame_init(), K2target=fam.K2target)
        alone = integrate_frame(fam.seed_triple(grid), fam.frame_init())
        _assert_same(_frame_result(ff), _frame_result(alone))
        _assert_ribaucour(rf, t, init)
        assert_exact(ff.states, exact_frame(t, fam.frame_init()))

    @staticmethod
    def _marched_rows(monkeypatch, sweep):
        """The state rows of each lane of every ``rk4_march`` call ``sweep()`` makes."""
        rows = []
        real_march = _sweep.rk4_march

        def march(triple, body, lanes, *args):
            rows.append({len(lane[1]) for lane in lanes})
            return real_march(triple, body, lanes, *args)

        monkeypatch.setattr(_sweep, "rk4_march", march)
        sweep()
        return rows

    @pytest.mark.parametrize("case", ["constant", "sampled", "reflected"])
    def test_marched_rows(self, case, monkeypatch):
        fam, t, init = _layer_case("r4_problemstar", "off_centre", case == "sampled")
        frame_init = fam.frame_init()
        if case == "reflected":
            frame_init = frame_init.scaled_frame(-1.0)
            assert _negative_zero(frame_init.as_array()[1:4])
        # a sampled triple's frame marches its 5 dim rows in three merged
        # phases (1, 5 and 35 lines); a constant triple's marches none
        frame_rows = 5 * t.spec.dim if case == "sampled" else 0
        assert self._marched_rows(monkeypatch, lambda: integrate_frame(
            t, frame_init, integrability_tol=None)) == ([{frame_rows}] * 3 if frame_rows else [])
        # the Ribaucour rows: a sampled triple marches them whole, a constant
        # triple propagates them from its phi-state
        assert self._marched_rows(monkeypatch, lambda: integrate_ribaucour(
            t, init, K2target=fam.K2target)) == ([{9}] * 3 if frame_rows else [])

    @pytest.mark.parametrize("base", [(2, 2, 2), (0, 0, 0)])
    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("axis", [0, 2])
    def test_overflow_names_the_reference_node(self, axis, order, base):
        # on 5^3 nodes, the frame rows grow like exp(30 u_a) (eps = -1) along
        # u_a in [0, 60]: both directions overflow from the centre, + from the corner
        hi, v, V = [1.0] * 3, [1.0] * 3, [0.0] * 3
        hi[axis], v[axis], V[axis] = 60.0, 0.0, 30.0
        grid = ParameterGrid((0.0,) * 3, tuple(hi), (5, 5, 5), base)
        t = TripleField.constant(grid, (1, -1, 1), SpaceFormSpec(0.0, 1), v=tuple(v),
                                 V=tuple(V))
        init = standard_frame_state(t.spec)
        with pytest.raises(NonFiniteState) as err:
            integrate_frame(t, init, sweep_order=order, max_step=0.1, integrability_tol=None)
        assert str(err.value) == exact_overflow_message(t, init, order)
        assert str(err.value).startswith(f"state overflowed along axis {axis} at node ")

    # -- the sweep's inputs, checked before any march ------------------------

    @staticmethod
    def _uncalled(t):
        """``t`` with an ``eval_at`` that fails the test if a sweep calls it."""
        def eval_at(points):
            raise AssertionError("the sweep marched")

        t.eval_at = eval_at
        return t

    @pytest.mark.parametrize("order", [(0, 1), (0, 0, 2), (0, 1, 3), (2.0, 1, 0),
                                       (0, 1, -1), (0, 1, 2, 0), "012", 3, None])
    def test_invalid_sweep_order(self, order):
        fam, t, _ = _closed_form_case("r4_problemstar")
        t = self._uncalled(t)
        with pytest.raises(InvalidParams, match=r"permutation of \(0, 1, 2\)"):
            sweep_integrate(t, t.grid, order, _frame_body, fam.frame_init().as_array(),
                            DEFAULT_MAX_STEP, None)
        if isinstance(order, tuple):
            with pytest.raises(InvalidParams, match="permutation"):
                integrate_frame(t, fam.frame_init(), sweep_order=order)

    def test_sweep_order_of_numpy_integers(self):
        fam, t, _ = _closed_form_case("r4_problemstar")
        ff = integrate_frame(t, fam.frame_init(), sweep_order=np.array([2, 1, 0]))
        _assert_same(_frame_result(ff), _frame_result(integrate_frame(
            t, fam.frame_init(), sweep_order=(2, 1, 0))))
        _assert_frame(ff, t, fam.frame_init(), (2, 1, 0))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_frame_init(self, value):
        # a value in X_2 (row 2, component 2) of the frame on a 5^3 seed
        grid = ParameterGrid.centered(1.0, 5)
        t = self._uncalled(trivial_seed("problemstar_e1_Cneg", grid, c=0.0, s=0, C=-1.0))
        X = np.eye(4)[:3]
        X[1, 2] = value
        init = FrameState(np.zeros(4), *X, np.eye(4)[3])
        with pytest.raises(InvalidParams, match=rf"^_frame_body: y0\[2, 2\] = {value};"):
            integrate_frame(t, init)

    def test_nonfinite_ribaucour_init(self):
        # a NaN v'_2 (row 4) masked every node but the base, which kept the
        # NaN; in the linear form row 4 is rho_2 = psi (v_2 - v'_2), and on a
        # sampled copy the marched state's v'_2
        grid = ParameterGrid.centered(1.0, 5)
        t = self._uncalled(trivial_seed("problemstar_e1_Cneg", grid, c=0.0, s=0, C=-1.0))
        init = RibaucourState((0.1,) * 3, (0.5, math.nan, 0.5), 2.0, 0.3, 0.1)
        for triple, system in ((t, "_ribaucour_generators"),
                               (self._uncalled(sampled_copy(t)), "_ribaucour_body")):
            with pytest.raises(InvalidParams, match=rf"^{system}: y0\[4\] = nan;"):
                integrate_ribaucour(triple, init, K2target=1.0)


# ---------------------------------------------------------------------------
# exact steps for a constant triple's frame
# ---------------------------------------------------------------------------


class TestPropagators:
    """``propagators`` is exp(M t) for the frame generators, and a constant
    triple's frame sweep is exact to rounding, byte-identical on a rerun and
    evaluates nothing."""

    GRID = ParameterGrid.centered(1.0, 5)
    # (v_a, V_a): each sign of w^2 = c v_a^2 + eps V_a^2 where (c, eps) allows
    # it, w = 0 with M != 0, and |w t| about 1e-9 (the last three pairs)
    PAIRS = [(1.3, 0.4), (0.4, 1.3), (0.7, 0.7), (0.9, 0.0), (0.0, 0.8),
             (1e-9, 0.0), (0.0, 2e-9), (1.0, 1.0 - 2.0**-52)]
    TIMES = np.array([-0.8, -0.3, 0.05, 0.45, 0.7])

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("s", [0, 1])
    @pytest.mark.parametrize("c", [-1.0, 0.0, 1.0])
    def test_against_expm(self, c, s, axis):
        from scipy.linalg import expm

        signs, small = set(), []
        for va, Va in self.PAIRS:
            v, V = [0.3, -0.2, 0.5], [-0.4, 0.6, 0.1]
            v[axis], V[axis] = va, Va
            t = TripleField.constant(self.GRID, (1, 1, 1), SpaceFormSpec(c, s), v, V)
            M = frame_generators(t)[axis]
            assert np.array_equal(_frame_body(t, np.zeros((5, t.spec.dim)))[axis], M)
            w2 = c * va * va + t.spec.eps * Va * Va
            signs.add(np.sign(w2) if M.any() else None)
            small += [abs(w2) ** 0.5 * abs(x) for x in self.TIMES if 0 < abs(w2) < 1e-14]
            P = propagators(M, self.TIMES)
            for k, x in enumerate(self.TIMES):
                E = expm(M * x)
                assert np.abs(P[:, :, k] - E).max() <= 1e-15 * max(1.0, np.abs(E).max())
        possible = {1.0} if c > 0 or s == 0 else set()
        possible |= {-1.0} if c < 0 or s == 1 else set()
        possible |= {0.0} if c * (1 - 2 * s) <= 0 else set()
        assert possible <= signs
        assert min(small) <= 1.1e-9

    @pytest.mark.parametrize("kind,c,s", TestBodiesBuiltForInputs.SEEDS)
    def test_exact_at_41(self, kind, c, s):
        grid = ParameterGrid.centered(1.0, 41)
        t = TestBodiesBuiltForInputs._seed(kind, c, s, grid)
        init = seed_frame_state(kind, t.spec)
        ff = integrate_frame(t, init, integrability_tol=None)
        C = None if kind == "cflat" else (-1.0 if kind.endswith("Cneg") else 1.0)
        exact = closed_form_frame(kind, t.spec, C)(grid.points())
        assert np.abs(ff.states - exact).max() <= 1e-14 * np.abs(exact).max()
        gram = frame_gram_residual(ff)
        assert gram.overall_max <= 1e-14
        assert gram.metadata["scheme"] == "exact propagator" == ff.scheme
        again = integrate_frame(t, init, integrability_tol=None)
        assert again.states.tobytes() == ff.states.tobytes()

    def test_sampled_frame_reports_rk4(self):
        fam = FAMILIES["r4_problemstar"]
        t = sampled_copy(fam.seed_triple(self.GRID))
        ff = integrate_frame(t, fam.frame_init(), integrability_tol=None)
        assert ff.scheme == "RK4 sweep"
        assert frame_gram_residual(ff).metadata["scheme"] == "RK4 sweep"
        assert path_independence_residual(ff).metadata["scheme"] == "RK4 sweep"

    def test_broken_seed_path_dependence(self):
        # demos/01: V = (1, 0.5, 0.2) leaves 0.5 in equation (3.iii), so the
        # generators do not commute and the two sweep orders part
        grid = ParameterGrid.centered(1.0, 21)
        broken = TripleField.constant(grid, (1, -1, 1), SpaceFormSpec(0.0, 0),
                                      v=(0, 1, 1), V=(1, 0.5, 0.2))
        init = seed_frame_state("cflat", broken.spec)
        rep = path_independence_residual(integrate_frame(broken, init, integrability_tol=None))
        assert rep.metadata["scheme"] == "exact propagator"
        diff = np.abs(exact_frame(broken, init, (0, 1, 2))[..., 0, :]
                      - exact_frame(broken, init, (2, 1, 0))[..., 0, :])
        assert abs(rep["grid"].max - diff.max()) <= 1e-12
        assert abs(rep["far_corner"].max - diff[grid.far_corner].max()) <= 1e-12
        seed = trivial_seed("problemstar_e1_Cneg", grid, c=0.0, s=0, C=-1.0)
        integrable = path_independence_residual(integrate_frame(
            seed, seed_frame_state("problemstar_e1_Cneg", seed.spec)))
        assert rep["grid"].max > 1e-2 > 1e10 * integrable["grid"].max

    def test_no_evaluation(self):
        t = FAMILIES["s4_problemstar_sphere"].seed_triple(TestEvalCount.GRID)
        counts = _count_eval_at(t)
        marched = []
        real_march = _sweep.rk4_march
        _sweep.rk4_march = lambda *args: marched.append(1) or real_march(*args)
        try:
            integrate_frame(t, FAMILIES["s4_problemstar_sphere"].frame_init())
            path_independence_residual(integrate_frame(
                t, FAMILIES["s4_problemstar_sphere"].frame_init()))
        finally:
            _sweep.rk4_march = real_march
        assert counts == {"calls": 0, "points": 0} and not marched

    def test_zero_times_an_overflowed_entry(self):
        # along u_1, exp(M t) overflows (eps = -1, V_1 = 30 on [0, 60]); X_1
        # and N start at 0, so their exact values stay 0 at every node
        t = TestBitIdentity()._overflowing_triple()
        zero, E = np.zeros(4), np.eye(4)
        ff = integrate_frame(t, FrameState(zero, zero, E[1], E[2], zero),
                             integrability_tol=None)
        assert not ff.X[..., 0, :].any() and not ff.N.any()
        assert np.isfinite(ff.states).all()


# ---------------------------------------------------------------------------
# exact steps for a constant triple's Ribaucour system
# ---------------------------------------------------------------------------


class TestRibaucourPropagators:
    """A constant triple's Ribaucour system from an init on K2 = kappa is
    propagated in its linear form: exact to rounding against the families'
    closed forms and against the expm-composed reference, byte-identical on a
    rerun, and free of triple evaluations.  An init off kappa raises; only a
    sampled triple is marched with RK4."""

    # each family kind with every (c, s) it admits: with K = 2 and a = 1,
    # problemstar's branch signs hold in every ambient
    FAMILY_CASES = [("problemstar", c, s) for c in (-1.0, 0.0, 1.0) for s in (0, 1)] + [
        ("problemstar_sphere", 1.0, 0), ("cflat", 0.0, 0)]
    FAMILY_K = {"problemstar": 2.0, "problemstar_sphere": -2.0, "cflat": -1.0}

    @pytest.mark.parametrize("kind,c,s", FAMILY_CASES)
    def test_family_against_closed_form(self, kind, c, s):
        # on the 11^3 unit box: the Lorentzian problemstar's psi comes within
        # 4e-3 of 0 there, and v' grows to 1e2
        fam = PhiFamily(kind, K=self.FAMILY_K[kind], c=c, eps=1 - 2 * s, theta=THETA)
        grid = ParameterGrid.centered(1.0, 11)
        t = fam.seed_triple(grid)
        rf, ff = TestStackedSweep._both(t, phi_state(fam, grid.base_point), fam.frame_init(),
                                        K2target=fam.K2target)
        assert rf.scheme == "exact propagator" and rf.masked is None
        gamma, vprime, phi, psi, beta = fam.state_arrays(grid.points())
        assert_exact(rf.states, np.concatenate(
            [gamma, vprime, np.stack([phi, psi, beta], axis=-1)], axis=-1), 1e-13)
        assert_exact(transform_immersion(ff, rf).positions,
                     closed_form_transform(fam)(grid.points()), 1e-13)

    @staticmethod
    def _seed_init(kind, c, s, grid):
        """A seed triple and a ``seed_state`` init on its K2 = kappa."""
        t = TestBodiesBuiltForInputs._seed(kind, c, s, grid)
        v, _ = t.constant_values
        kappa = float(np.sum(np.asarray(t.delta) * v * v))
        vprime = 1.2 * v + (0.1, -0.1, 0.2)
        if kind == "cflat":
            # on kappa = 0 seed_state takes a request to v' = 0, which
            # integrate_ribaucour refuses, unless its projection onto the
            # Omega = 0 plane is null: this one is, for this phi, beta and seed
            vprime = (0.3, 0.45625 * t.spec.eps, -0.34375 * t.spec.eps)
        req = RibaucourState((0.3, -0.2, 0.1), tuple(vprime), phi=0.8, psi=0.0, beta=0.3)
        return t, seed_state(t, grid.base, req, K2target=kappa), kappa

    @pytest.mark.parametrize("kind,c,s", TestBodiesBuiltForInputs.SEEDS)
    def test_seed_against_expm(self, kind, c, s):
        t, init, kappa = self._seed_init(kind, c, s, TestEvalCount.GRID)
        rf = integrate_ribaucour(t, init, K2target=kappa)
        _assert_ribaucour(rf, t, init)
        again = integrate_ribaucour(t, init, K2target=kappa)
        _assert_same(_ribaucour_result(again), _ribaucour_result(rf))
        assert again.scheme == rf.scheme == "exact propagator"

    @pytest.mark.parametrize("mask_tol", [None, 0.05])
    def test_phi_wall_masks_as_rk4(self, mask_tol):
        # phi(u1) = 0.2 + u1 vanishes at the node u1 = -0.2 (``TestMasking``)
        grid = ParameterGrid.centered(1.0, 21)
        t = trivial_seed("problemstar_e1_Cneg", grid, c=0.0, s=0, C=-1.0)
        req = RibaucourState((1.0, 0.0, 0.0), (1.0, 0.1, 0.0), phi=0.2, psi=0.0, beta=0.3)
        init = seed_state(t, grid.base, req, K2target=1.0)
        rf = integrate_ribaucour(t, init, mask_tol=mask_tol, K2target=1.0)
        _assert_ribaucour(rf, t, init, mask_tol)
        rk4 = integrate_ribaucour(sampled_copy(t), init, mask_tol=mask_tol, K2target=1.0)
        assert rk4.scheme == "RK4 sweep"
        assert np.array_equal(rf.masked, rk4.masked)
        assert rf.masked.sum() == (3969 if mask_tol is None else rk4.masked.sum())

    def test_no_evaluation(self, monkeypatch):
        fam = FAMILIES["s4_problemstar_sphere"]
        t = fam.seed_triple(TestEvalCount.GRID)
        counts = _count_eval_at(t)
        marched = []
        real_march = _sweep.rk4_march
        monkeypatch.setattr(_sweep, "rk4_march",
                            lambda *args: marched.append(1) or real_march(*args))
        init = phi_state(fam, t.grid.base_point)
        integrate_ribaucour(t, init, K2target=fam.K2target)
        integrate_frame(t, fam.frame_init())
        assert counts == {"calls": 0, "points": 0} and not marched

    # kappa = 1 on the seed v = (1, 0, 0), delta = (1, -1, 1); the rounding
    # bound is 1e-13 (|v'|^2 + |v|^2) = 2.5e-13 for v' about (1, 0.5, 0.5).  A
    # constant triple is always propagated: an init off kappa is not a
    # Ribaucour transform, and phi_0 = 0 has no lambda, so both raise a typed
    # error, never a drift verdict.  A sampled copy marches the first and
    # refuses phi_0 = 0 too.
    ROUTES = {
        "on_quadric": ((1.0, 0.5, 0.5), 0.8, False, "exact propagator"),
        "one_ulp_off": ((1.0 + 2.0**-52, 0.5, 0.5), 0.8, False, "exact propagator"),
        "off_quadric": ((1.0 + 1e-12, 0.5, 0.5), 0.8, False, ConstraintUnsatisfiable),
        "sampled": ((1.0, 0.5, 0.5), 0.8, True, "RK4 sweep"),
        "phi_zero": ((1.0, 0.5, 0.5), 0.0, False, SingularPhi),
    }
    MESSAGES = {ConstraintUnsatisfiable: r"^the init's K2 = .* is off kappa = .* = 1\.0: "
                                          r"the init is not a Ribaucour transform",
                SingularPhi: "^phi must be nonzero at the base node$"}

    @pytest.mark.parametrize("case", sorted(ROUTES))
    def test_route(self, case):
        vprime, phi, sampled, outcome = self.ROUTES[case]
        t = trivial_seed("problemstar_e1_Cneg", TestEvalCount.GRID, c=0.0, s=0, C=-1.0)
        init = RibaucourState((0.3, -0.2, 0.1), vprime, phi=phi, psi=0.7, beta=0.3)
        if outcome is SingularPhi:
            for triple in (t, sampled_copy(t)):
                with pytest.raises(SingularPhi, match=self.MESSAGES[SingularPhi]):
                    integrate_ribaucour(triple, init, K2target=1.0)
            return
        if outcome is ConstraintUnsatisfiable:
            with pytest.raises(outcome, match=self.MESSAGES[outcome]):
                integrate_ribaucour(t, init, K2target=1.0)
            sampled, outcome = True, "RK4 sweep"
        t = sampled_copy(t) if sampled else t
        rf = integrate_ribaucour(t, init, K2target=1.0)
        assert rf.scheme == outcome
        if outcome == "RK4 sweep":
            _assert_same(_ribaucour_result(rf), ref_ribaucour(t, init))

    @pytest.mark.parametrize("kind,c,s", FAMILY_CASES)
    def test_family_K2target_is_kappa(self, kind, c, s):
        # each family's K2target is kappa of its seed, and its run with no
        # K2target takes the exact route with the same target; a K2target off
        # kappa is refused
        fam = PhiFamily(kind, K=self.FAMILY_K[kind], c=c, eps=1 - 2 * s, theta=THETA)
        grid = ParameterGrid.centered(0.3, 5)
        t = fam.seed_triple(grid)
        v, _ = t.constant_values
        assert fam.K2target == kappa(t) == float(np.sum(np.asarray(t.delta) * v * v))
        init = phi_state(fam, grid.base_point)
        rf = integrate_ribaucour(t, init)
        assert rf.scheme == "exact propagator" and rf.K2target == fam.K2target
        with pytest.raises(ConstraintUnsatisfiable, match="^K2target 0.5 is off kappa"):
            integrate_ribaucour(t, init, K2target=0.5)

    OVERFLOW_INIT = RibaucourState((1.0, 0.0, 0.0), (0.0, 0.5, 0.5), phi=0.2, psi=0.3,
                                   beta=0.3)

    def test_overflow_masks(self):
        # on K2 = kappa = 0, the exact values along u_1 overflow (eps = -1,
        # V_1 = 30 on [0, 60]): the system stays on the exact route, masking
        # the nodes whose recovered values are not finite (625 with their
        # sweep descendants).  The slabs u_1 index 1 to 5 stay finite, but
        # there psi is recovered from K1 by cancelling squares of 5e51 and
        # more against K1_0 = 0.79 and has no correct digit: those nodes and
        # their descendants are masked too, and the slab u_1 = 0 is kept
        t = TestBitIdentity()._overflowing_triple()
        init = self.OVERFLOW_INIT
        rf = integrate_ribaucour(t, init, K2target=0.0)
        assert rf.scheme == "exact propagator"
        assert (int(rf.masked.sum()), rf.masked.size) == (750, 775)
        assert not rf.masked[0].any() and rf.masked[1:].all()
        with np.errstate(all="ignore"):
            _, ref_masked = exact_ribaucour(t, init)
        assert np.array_equal(rf.masked, ref_masked)
        non_finite = sweep_descendants(~np.isfinite(rf.states).all(axis=-1), t.grid.base,
                                       (0, 1, 2))
        assert non_finite.sum() == 625 and not (non_finite & ~rf.masked).any()
        # every kept psi is accurate to 1e-8 against 300 digits; the masked
        # finite psi are not
        kept = [tuple(node) for node in np.argwhere(~rf.masked)]
        assert np.allclose(rf.psi[~rf.masked], mp_ribaucour_psi(t, init, kept),
                           rtol=1e-8, atol=0.0)
        lossy = [(1, 0, 0), (3, 2, 2), (5, 4, 4)]
        ref = mp_ribaucour_psi(t, init, lossy)
        psi = np.array([rf.psi[node] for node in lossy])
        assert np.isfinite(psi).all() and (np.abs(psi - ref) > np.abs(ref)).all()
        K1 = (np.sum(np.square(init.gamma)) + t.spec.eps * init.beta**2 + t.spec.c * init.phi**2
              - 2.0 * init.phi * init.psi)
        drift = invariant_drift(rf)
        assert abs(drift.K1 - abs(K1)) <= 1e-12 and abs(K1 - 0.79) <= 1e-15

    @pytest.mark.parametrize("m, lossy", [(2.5e7, False), (3.6e8, True)])
    def test_psi_accuracy_bound(self, m, lossy):
        # gamma_1 = m + 1 and beta = m with eps = -1, c = 0 leave
        # gap = 2m + 1 - K1_0 from squares near m^2: the rounding bound
        # 2^-53 (2 m^2 + ...) / (2m) is about 2.8e-9 at m = 2.5e7 and 4.0e-8
        # at m = 3.6e8, either side of 1e-8
        t = TestBitIdentity()._overflowing_triple()
        linear = _linear_init(t, self.OVERFLOW_INIT.as_array())
        planes = np.broadcast_to(linear[:, None, None, None], (9,) + t.grid.n).copy()
        node = (3, 2, 1)
        planes[(0,) + node], planes[(8,) + node] = m + 1.0, m
        flagged = np.zeros(t.grid.n, dtype=bool)
        flagged[node] = lossy
        assert np.array_equal(_recover(planes, t, linear), flagged)

    def test_frame_overflow_is_not_masked(self):
        # the Ribaucour rows of the case above are masked; the frame, also
        # propagated, overflows and raises at the exact frame's node
        t = TestBitIdentity()._overflowing_triple()
        frame_init = standard_frame_state(t.spec)
        with pytest.raises(NonFiniteState) as err:
            TestStackedSweep._both(t, self.OVERFLOW_INIT, frame_init, K2target=0.0)
        assert str(err.value) == exact_overflow_message(t, frame_init)
