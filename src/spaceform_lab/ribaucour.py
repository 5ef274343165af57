"""The Ribaucour transformation engine.

Integrates the completely integrable linear system for
(gamma_1..3, v'_1..3, phi, psi, beta) over the grid, monitors its first
integrals K1, K2 and the bilinear obstruction Omega, applies the rational
point transform to the frame field, and emits the transformed holonomic pair.

psi is evolved in the algebraically equivalent non-log form
d(psi)/du_i = -gamma_i v'_i psi / phi so signed psi is allowed; nodes where
|phi| or |psi| fall under the mask tolerance are excluded rather than
extrapolated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._sweep import sweep_integrate, vanishing_terms
from .errors import (
    ConstraintUnsatisfiable,
    EmptyDomain,
    FlatAmbientUnsupported,
    GridMismatch,
    SingularPhi,
    SingularPsi,
)
from .frames import DEFAULT_MAX_STEP, FrameField, FrameState, _frame_body
from .grid import ParameterGrid
from .triples import TripleField, delta_inner
from .verify import ImmersionSample

# state layout: [gamma1, gamma2, gamma3, v'1, v'2, v'3, phi, psi, beta]
_G, _VP, _PHI, _PSI, _BETA = slice(0, 3), slice(3, 6), 6, 7, 8


@dataclass(frozen=True)
class RibaucourState:
    gamma: tuple
    vprime: tuple
    phi: float
    psi: float
    beta: float

    def as_array(self) -> np.ndarray:
        return np.array(list(self.gamma) + list(self.vprime)
                        + [self.phi, self.psi, self.beta], dtype=float)

    @classmethod
    def from_array(cls, y):
        y = np.asarray(y, dtype=float)
        return cls(tuple(y[_G]), tuple(y[_VP]), float(y[_PHI]), float(y[_PSI]),
                   float(y[_BETA]))


def default_mask_tol(grid: ParameterGrid) -> float:
    return 1e-6 * max(1.0, grid.diameter)


@dataclass
class RibaucourField:
    """Grid-sampled solution of the transformation system."""

    grid: ParameterGrid
    states: np.ndarray              # grid.n + (9,), a view of (9,) + grid.n planes
    source: TripleField
    K2target: float
    mask_tol: float
    masked: np.ndarray = None       # True = singular / contaminated

    @property
    def gamma(self) -> np.ndarray:
        return np.moveaxis(self.states[..., _G], -1, 0)

    @property
    def vprime(self) -> np.ndarray:
        return np.moveaxis(self.states[..., _VP], -1, 0)

    @property
    def phi(self) -> np.ndarray:
        return self.states[..., _PHI]

    @property
    def psi(self) -> np.ndarray:
        return self.states[..., _PSI]

    @property
    def beta(self) -> np.ndarray:
        return self.states[..., _BETA]

    def valid_mask(self) -> np.ndarray:
        ok = np.isfinite(self.states).all(axis=-1)
        if self.masked is not None:
            ok &= ~self.masked
        return ok

    def state_at(self, idx) -> RibaucourState:
        return RibaucourState.from_array(self.states[tuple(idx)])


def seed_state(triple: TripleField, base_idx, request: RibaucourState,
               K2target) -> RibaucourState:
    """Complete a partial state at the base node so that K1 = 0, K2 = K2target
    and Omega = 0.

    gamma, beta, phi are taken from the request; psi is forced by K1 = 0;
    the requested v' is projected onto the Omega = 0 hyperplane and then
    rescaled inside it onto the K2 quadric (least change wins).
    """
    eps, c = triple.spec.eps, triple.spec.c
    delta = np.asarray(triple.delta, dtype=float)
    v, _, V = triple.at(base_idx)
    gamma = np.asarray(request.gamma, dtype=float)
    beta = float(request.beta)
    phi = float(request.phi)
    if phi == 0.0:
        raise SingularPhi("phi must be nonzero at the base node")

    quad = float(np.sum(gamma**2) + eps * beta**2 + c * phi**2)
    psi = quad / (2.0 * phi)
    if abs(psi) <= 1e-15 * max(1.0, abs(quad)):
        raise SingularPsi("K1 = 0 forces psi = 0; the point transform is undefined")

    # Omega(v') = <w, v'>_E - rho0  with  w_j = delta_j (phi V_j + eps beta v_j)
    w = delta * (phi * V + eps * beta * v)
    rho0 = eps * beta * K2target
    r = np.asarray(request.vprime, dtype=float)
    wn2 = float(np.sum(w * w))

    if wn2 < 1e-30:
        if abs(rho0) > 1e-14 * max(1.0, abs(K2target)):
            raise ConstraintUnsatisfiable("Omega is constant nonzero for this request")
        x_c = np.zeros(3)
        y = r
    else:
        x_c = (rho0 / wn2) * w
        p = r - ((float(np.sum(w * r)) - rho0) / wn2) * w
        y = p - x_c

    # scale within the hyperplane: <x_c + t y, x_c + t y>_delta = K2target
    A = float(np.sum(delta * y * y))
    B = float(np.sum(delta * x_c * y))
    C0 = float(np.sum(delta * x_c * x_c)) - float(K2target)
    scale = max(1.0, abs(A), abs(B), abs(C0))
    if abs(A) < 1e-14 * scale:
        if abs(B) < 1e-14 * scale:
            if abs(C0) < 1e-12 * scale:
                t = 1.0
            else:
                raise ConstraintUnsatisfiable(
                    "the Omega hyperplane misses the K2 quadric for this request"
                )
        else:
            t = -C0 / (2.0 * B)
    else:
        disc = B * B - A * C0
        if disc < 0:
            raise ConstraintUnsatisfiable(
                "the Omega hyperplane misses the K2 quadric branch"
            )
        roots = [(-B + math.sqrt(disc)) / A, (-B - math.sqrt(disc)) / A]
        t = min(roots, key=lambda s: abs(s - 1.0))
    vprime = x_c + t * y
    return RibaucourState(tuple(gamma), tuple(vprime), phi, psi, beta)


def _ribaucour_body(triple: TripleField, y0):
    """In-place Ribaucour body on (9, B) rows (``_sweep`` module docstring);
    y0 is any RibaucourState's 9 values, so it needs no check.

    The body is built for its inputs (``_sweep`` module docstring, "In-place
    bodies").  Its droppable terms all land in dgamma_a: the h_ja gamma_j of
    a constant triple, whose h is +0.0, and the c phi v_a when c = 0.  With
    finite operands each is +-0, so dropping it changes dgamma_a at most in
    the sign of a zero, and a vanished dgamma_j = h_ja gamma_a (j != a) is
    written as the exact 0.0 gamma_a.  The gamma rows take that zero in only
    through y + (+-0), which is y unless y = -0.0, and a gamma row that does
    not start at -0.0 never becomes -0.0.  So the terms are dropped only when
    y0's gamma rows hold no -0.0; otherwise every term is kept.  The cflat
    family's phi-state has gamma_1 = -0.0 and gets the full body.

    The h_aj of h'_aj = h_aj + (v'_j - v_j) gamma_a / phi is not dropped: it
    reaches the v' rows, and the phi-states of both problemstar families have
    v'_2 = -0.0 at u = 0.  The add is kept as 0.0 + h', which turns a -0.0 h'
    into +0.0 as h_aj + h' does.  Where a dropped term would have been
    0 * inf = NaN, at a non-finite stage value, a value may differ from the
    full body's (``_sweep`` module docstring).
    """
    eps = float(triple.spec.eps)
    c = float(triple.spec.c)
    delta = np.asarray(triple.delta, dtype=float)
    h_vanishes, c_vanishes = vanishing_terms(triple, y0[_G])

    def body(v, h, V, Y, dY, axis):
        g = Y[_G]
        vp = Y[_VP]
        phi = Y[_PHI]
        psi = Y[_PSI]
        beta = Y[_BETA]
        a = axis
        ga = g[a]
        vpa = vp[a]
        va = v[:, a]
        Va = V[:, a]
        dvp = dY[_VP]
        dga = dY[a]
        acc = dvp[a]
        # dphi, dpsi and dbeta are written last: until then their rows hold
        # inv_phi, ratio and the scratch products
        inv_phi = np.divide(1.0, phi, out=dY[_PSI])
        ratio = np.multiply(ga, inv_phi, out=dY[_PHI])
        tmp = dY[_BETA]

        np.multiply(np.subtract(va, vpa, out=dga), psi, out=dga)
        np.add(dga, np.multiply(beta, Va, out=tmp), out=dga)
        if not c_vanishes:
            np.subtract(dga, np.multiply(np.multiply(c, phi, out=tmp), va, out=tmp),
                        out=dga)
        acc.fill(0.0)
        for j in range(3):
            if j == a:
                continue
            if h_vanishes:
                np.multiply(0.0, ga, out=dY[j])
            else:
                hja = h[:, j, a]
                np.multiply(hja, ga, out=dY[j])                      # (ii) with i = j, j = a
                np.subtract(dga, np.multiply(hja, g[j], out=tmp), out=dga)
            hp = dvp[j]                                              # h'_aj
            np.multiply(np.subtract(vp[j], v[:, j], out=hp), ratio, out=hp)
            np.add(0.0 if h_vanishes else h[:, a, j], hp, out=hp)
            np.multiply(np.multiply(delta[j], hp, out=tmp), vp[j], out=tmp)
            np.add(acc, tmp, out=acc)
            np.multiply(hp, vpa, out=hp)                             # (vi)
        np.multiply(-delta[a], acc, out=acc)                         # (vii)

        np.multiply(va, ga, out=dY[_PHI])                            # (i)
        np.multiply(np.multiply(np.negative(ga, out=tmp), vpa, out=tmp), psi, out=tmp)
        np.multiply(tmp, inv_phi, out=dY[_PSI])                      # (v), non-log form
        np.multiply(-eps * Va, ga, out=dY[_BETA])                    # (iv)

    return body


def _ribaucour_sweep(triple, init, grid, max_step, mask_tol, K2target,
                     integrability_tol, *others):
    """The Ribaucour field of ``triple`` and the states of the ``others``
    systems (``_sweep`` module docstring), stacked after its rows in one sweep."""
    grid = grid or triple.grid
    mask_tol = mask_tol if mask_tol is not None else default_mask_tol(grid)
    if K2target is None:
        K2target = float(delta_inner(triple.delta, np.asarray(init.vprime),
                                     np.asarray(init.vprime)))

    def node_check(Y):
        return (np.abs(Y[_PHI]) < mask_tol) | (np.abs(Y[_PSI]) < mask_tol)

    (states, *other_states), masked = sweep_integrate(
        triple, grid, (0, 1, 2), [(_ribaucour_body, init.as_array()), *others],
        max_step, integrability_tol, node_check)
    rf = RibaucourField(grid, states, triple, float(K2target), mask_tol,
                        masked if masked.any() else None)
    return rf, other_states


def integrate_ribaucour(triple: TripleField, init: RibaucourState,
                        grid: ParameterGrid = None, max_step=DEFAULT_MAX_STEP,
                        mask_tol=None, K2target=None,
                        integrability_tol=None) -> RibaucourField:
    """Sweep-integrate the transformation system from the base node.

    ``grid`` defaults to ``triple.grid``; any other grid raises GridMismatch.
    Nodes where |phi| or |psi| falls below ``mask_tol`` are masked and their
    sweep descendants with them; integration continues on the other lines.
    """
    rf, _ = _ribaucour_sweep(triple, init, grid, max_step, mask_tol, K2target,
                             integrability_tol)
    return rf


def integrate_with_frame(triple: TripleField, init: RibaucourState,
                         frame_init: FrameState, grid: ParameterGrid = None,
                         max_step=DEFAULT_MAX_STEP, mask_tol=None, K2target=None,
                         integrability_tol=None):
    """The Ribaucour field and the moving frame of ``triple`` from one sweep.

    Returns (RibaucourField, FrameField): bit for bit what
    ``integrate_ribaucour(triple, init, ...)`` and ``integrate_frame(triple,
    frame_init, sweep_order=(0, 1, 2), max_step=max_step)`` return, from one
    evaluation of the triple per RK stage.  The seed is checked once.  Masked
    Ribaucour lines freeze the Ribaucour rows only: the frame is integrated
    at every node, and a frame overflow raises NonFiniteState.
    """
    rf, (frame_states,) = _ribaucour_sweep(triple, init, grid, max_step, mask_tol,
                                           K2target, integrability_tol,
                                           (_frame_body, frame_init.as_array()))
    return rf, FrameField(rf.grid, frame_states, triple, (0, 1, 2), max_step)


@dataclass(frozen=True)
class InvariantDrift:
    K1: float
    K2: float
    Omega: float

    @property
    def overall(self) -> float:
        """The largest drift, NaN if any is NaN."""
        return float(np.max((self.K1, self.K2, self.Omega)))


def invariant_fields(rf: RibaucourField):
    """K1, K2, Omega evaluated at every node."""
    t = rf.source
    eps, c = t.spec.eps, t.spec.c
    v, _, V = t.grid_values()
    g, vp = rf.gamma, rf.vprime
    phi, psi, beta = rf.phi, rf.psi, rf.beta
    with np.errstate(invalid="ignore", over="ignore"):
        K1 = np.sum(g * g, axis=0) + eps * beta**2 + c * phi**2 - 2.0 * phi * psi
        K2 = delta_inner(t.delta, vp, vp)
        omega = phi * delta_inner(t.delta, vp, V) - eps * beta * (
            rf.K2target - delta_inner(t.delta, v, vp)
        )
    return K1, K2, omega


def invariant_drift(rf: RibaucourField) -> InvariantDrift:
    """Max deviation of K1, K2, Omega from their targets over unmasked nodes.

    The K1 target is 0: ``seed_state`` forces it.  A field with no unmasked
    node has no drift to report and raises EmptyDomain.
    """
    ok = rf.valid_mask()
    if not ok.any():
        raise EmptyDomain("every node of the transformation field is masked")
    K1, K2, omega = invariant_fields(rf)
    return InvariantDrift(
        float(np.abs(K1[ok]).max()),
        float(np.abs(K2[ok] - rf.K2target).max()),
        float(np.abs(omega[ok]).max()),
    )


def _point_transform(f, X, N, gamma, phi, psi, beta, c):
    """F' = f - (sum_i gamma_i X_i + beta N + c phi f) / psi, nodewise: positions
    f, N (..., dim), directions X (..., 3, dim), gamma (..., 3), scalars (...)."""
    correction = np.einsum("...i,...id->...d", gamma, X)
    correction += beta[..., None] * N
    if c != 0:
        correction += c * phi[..., None] * f
    return f - correction / psi[..., None]


def transform_immersion(ff: FrameField, rf: RibaucourField) -> ImmersionSample:
    """Apply F' = F - (1/psi)(sum_i gamma_i X_i + beta N + c phi F) nodewise."""
    if not ff.grid.same_as(rf.grid):
        raise GridMismatch("frame and transformation fields live on different grids")
    spec = ff.triple.spec
    fprime = _point_transform(ff.f, ff.X, ff.N, rf.states[..., _G], rf.phi, rf.psi,
                              rf.beta, spec.c)
    masked = rf.masked
    if masked is not None:
        fprime = np.where(masked[..., None], np.nan, fprime)
    return ImmersionSample(rf.grid, fprime, spec, masked)


def transformed_triple(t: TripleField, rf: RibaucourField) -> TripleField:
    """Holonomic data (v', h', V') of the transformed hypersurface.

    V'_i = V_i + (v_i - v'_i) eps beta / phi;
    h'_ij = h_ij + (v'_j - v_j) gamma_i / phi.  Same delta and ambient.
    """
    ok = rf.valid_mask()
    if not ok.any():
        raise EmptyDomain("every node of the transformation field is masked")
    eps = t.spec.eps
    v, h, V = t.grid_values()
    vp = rf.vprime
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = eps * rf.beta / rf.phi
        Vp = V + (v - vp) * ratio
        hp = np.empty(h.shape)
        for i in range(3):
            for j in range(3):
                hp[i, j] = h[i, j] + (vp[j] - v[j]) * rf.gamma[i] / rf.phi
    masked = None if ok.all() else ~ok
    if masked is not None:
        vp = np.where(masked, np.nan, vp)
        Vp = np.where(masked, np.nan, Vp)
        hp = np.where(masked, np.nan, hp)
    return TripleField.from_samples(rf.grid, t.delta, t.spec, vp, hp, Vp, masked)


def parallel_triple(t: TripleField, tau) -> TripleField:
    """Holonomic pair of the parallel hypersurface at signed distance tau.

    (v, V) maps by the rotation/boost with rate sqrt|c|, h is unchanged, and
    a constant triple gives a constant triple; requires nonzero ambient
    curvature.
    """
    if t.spec.c == 0:
        raise FlatAmbientUnsupported("parallel families need c != 0 in this model")
    root = math.sqrt(abs(t.spec.c))
    check = t.spec.eps * (1 if t.spec.c > 0 else -1)
    if check == 1:
        cp, sp = math.cos(root * tau), math.sin(root * tau)
    else:
        cp, sp = math.cosh(root * tau), math.sinh(root * tau)

    v, V = t.constant_values if t.closed_form else (t.v, t.V)
    v_new = cp * v - (sp / root) * V
    V_new = check * root * sp * v + cp * V
    if t.closed_form:
        return TripleField.constant(t.grid, t.delta, t.spec, v_new, V_new)
    return TripleField.from_samples(t.grid, t.delta, t.spec, v_new, t.h.copy(), V_new,
                                    t.masked)
