"""The Ribaucour transformation engine.

Integrates the transformation system for (gamma_1..3, v'_1..3, phi, psi, beta)
over the grid, monitors its first integrals K1, K2 and the bilinear
obstruction Omega, applies the rational point transform to the frame field,
and emits the transformed holonomic pair.

In these variables the system is not linear.  Along u_a, with
h'_aj = h_aj + (v'_j - v_j) gamma_a / phi,

    dgamma_a = (v_a - v'_a) psi + V_a beta - c v_a phi - sum_{j != a} h_ja gamma_j
    dgamma_j = h_ja gamma_a                                         (j != a)
    dv'_j    = h'_aj v'_a                                           (j != a)
    dv'_a    = -delta_a sum_{j != a} delta_j h'_aj v'_j
    dphi     = v_a gamma_a
    dpsi     = -gamma_a v'_a psi / phi
    dbeta    = -eps V_a gamma_a

and v', psi take products of state rows over phi.  psi is evolved in this
non-log form, so signed psi is allowed.  Along every line,
K1 = |gamma|^2 + eps beta^2 + c phi^2 - 2 phi psi and K2 = <v', v'>_delta are
first integrals; ``seed_state`` starts at K1 = 0 and at
Omega = phi <v', V>_delta - eps beta (K2 - <v, v'>_delta) = 0.  A sampled
triple's system is marched with RK4, a constant triple's propagated.

Why K2 = kappa.  For a constant triple (h = 0, v and V constant: every seed
of the gallery and the CLI) and kappa = <v, v>_delta, the rows above give

    dOmega = (gamma_a / phi) ((v_a + v'_a) Omega
                              + v'_a (eps beta (K2 - kappa) - phi <v, V>_delta))

along u_a (expand with phi h'_aj = (v'_j - v_j) gamma_a: the terms
V_a gamma_a (K2 - <v, v'>_delta) and those in delta_a cancel).  Every
gallery seed has <v, V>_delta = 0, so Omega stays 0 only where
eps beta gamma_a v'_a (K2 - kappa) = 0: for a general init, on K2 = kappa
(a stationary gamma = 0, a parallel or homothetic image, would keep it at
any K2).  As measured (ROADMAP "Measured"), off-kappa inits drifted in
Omega by 1.5e-3 to 1.5e47, flat from 11^3 to 41^3, and their transformed
triples' residuals did not fall under refinement.  So a constant triple's
K2 is ``kappa``: an explicit K2target or an init off it by more than
``_K2_ROUNDING`` (|v'_0|^2 + |v|^2) raises ConstraintUnsatisfiable.  With
<v, V>_delta != 0 (beyond ``_K2_ROUNDING`` (|v|^2 + |V|^2)) Omega leaves 0
on every K2, and ``integrate_ribaucour`` raises ConstraintUnsatisfiable
too, as it does for v'_0 = 0, where the transformed metric diag(v'^2) is
degenerate at the base node.  K1 = 0
and Omega = 0 are not checked: a raw init off them is an initial value
problem, and ``invariant_drift`` reports it.

The linear form of a constant triple.  With rho = psi (v - v'),
drho_j = 0 for j != a and drho_a = delta_a gamma_a psi (K2 - <v, v'>_delta) / phi.
On K2 = kappa, psi (K2 - <v, v'>_delta) = <v, rho>_delta,
lambda = <v, rho>_delta / phi is a first integral, and the system on
(gamma, rho, phi, beta) is linear, with the constant generator M_a:

    dgamma_a = rho_a + V_a beta - c v_a phi
    drho_a   = lambda delta_a gamma_a
    dphi     = v_a gamma_a
    dbeta    = -eps V_a gamma_a

and every other row 0.  M_a^3 = (lambda delta_a - eps V_a^2 - c v_a^2) M_a,
so the sweep propagates it exactly (``_sweep`` module docstring, "Propagated
systems"); [M_a, M_b] is proportional to eps V_a V_b + c v_a v_b, which the
seed's compatibility makes 0.  The sweep carries rho in the v' rows and psi_0
in the psi row, a zero row of M.  Afterwards psi is recovered node by node
from K1, psi = (|gamma|^2 + eps beta^2 + c phi^2 - K1_0) / (2 phi), and
v' = v - rho / psi; the base node keeps the init.  phi_0 = 0 raises
SingularPhi; exact values that overflow a double are masked.

Masking.  Both routes sweep every node and mask after the sweep, with one
function (``_mask``): a node is masked where |phi| or |psi| falls under the
mask tolerance or a value is not finite, and every node the sweep reaches
through it is masked with it.  On the exact route a node is also masked
where the recovered psi may have lost its accuracy.  psi = gap / (2 phi),
gap = |gamma|^2 + eps beta^2 + c phi^2 - K1_0, cancels once the terms of gap
are large against gap.  A node is masked where the rounding bound
2^-53 (|gamma|^2 + beta^2 + |c| phi^2 + |K1_0|), the unit roundoff times the
terms' magnitudes, exceeds ``_PSI_ACCURACY`` = 1e-8 times |gap|, so that psi
may have fewer than 8 correct digits.  The drift of K1 cannot show this,
since psi is solved from K1.  The values at masked nodes are whatever the
sweep left there, and no consumer reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._sweep import sweep_descendants, sweep_integrate
from .errors import (
    ConstraintUnsatisfiable,
    EmptyDomain,
    FlatAmbientUnsupported,
    GridMismatch,
    InvalidParams,
    SingularPhi,
    SingularPsi,
)
from .frames import DEFAULT_MAX_STEP, FrameField
from .grid import ParameterGrid
from .triples import TripleField, delta_inner
from .verify import ImmersionSample

# state layout: [gamma1, gamma2, gamma3, v'1, v'2, v'3, phi, psi, beta]; the
# linear form carries rho = psi (v - v') in the v' rows
_G, _VP, _PHI, _PSI, _BETA = slice(0, 3), slice(3, 6), 6, 7, 8

# |K2 - kappa| / (|v'_0|^2 + |v|^2) up to which a constant triple's K2 target
# or init is on kappa, else ConstraintUnsatisfiable (module docstring, "Why
# K2 = kappa"): a few hundred units of rounding of a delta-product
_K2_ROUNDING = 1e-13

# relative accuracy a psi recovered from K1 must have by its rounding bound,
# else its node is masked (module docstring, "Masking")
_PSI_ACCURACY = 1e-8


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
    def scheme(self) -> str:
        """How the sweep solved this triple's system (module docstring)."""
        return "exact propagator" if self.source.closed_form else "RK4 sweep"

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


def kappa(triple: TripleField) -> float:
    """<v, v>_delta of a constant triple, its transforms' one K2 (module docstring)."""
    v, _ = triple.constant_values
    return float(delta_inner(triple.delta, v, v))


def _on_kappa(triple: TripleField, K2, size, what="K2target"):
    """A constant triple's ``K2``, ``kappa`` if None; ConstraintUnsatisfiable
    naming ``what`` if off kappa by more than ``_K2_ROUNDING`` (size + |v|^2)."""
    v, _ = triple.constant_values
    k = kappa(triple)
    if K2 is not None and not abs(K2 - k) <= _K2_ROUNDING * (size + float(v @ v)):
        raise ConstraintUnsatisfiable(
            f"{what} {K2!r} is off kappa = <v, v>_delta = {k!r}: the init is not a "
            f"Ribaucour transform (module docstring, \"Why K2 = kappa\")")
    return k if K2 is None else float(K2)


def seed_state(triple: TripleField, base_idx, request: RibaucourState,
               K2target=None) -> RibaucourState:
    """Complete a partial state at the base node so that K1 = 0, K2 = K2target
    and Omega = 0.

    A constant triple's K2target is ``kappa`` (module docstring); a sampled
    triple's must be given.  gamma, beta, phi are taken from the request; psi
    is forced by K1 = 0; the requested v' is projected onto the Omega = 0
    hyperplane and then rescaled inside it onto the K2 quadric (least change
    wins).  On K2 = 0 the hyperplane passes through 0, and a request whose
    projection onto it is not null is taken to v' = 0, which
    ``integrate_ribaucour`` refuses.
    """
    if triple.closed_form:
        K2target = _on_kappa(triple, K2target, abs(K2target or 0.0))
    elif K2target is None:
        raise InvalidParams("a sampled triple's K2target must be given")
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
    """In-place Ribaucour body of a sampled triple on (9, B) rows (``_sweep``
    module docstring, "In-place bodies"); y0 is any RibaucourState's 9
    values."""
    eps = float(triple.spec.eps)
    c = float(triple.spec.c)
    delta = np.asarray(triple.delta, dtype=float)

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
        np.subtract(dga, np.multiply(np.multiply(c, phi, out=tmp), va, out=tmp), out=dga)
        acc.fill(0.0)
        for j in range(3):
            if j == a:
                continue
            hja = h[:, j, a]
            np.multiply(hja, ga, out=dY[j])                          # (ii) with i = j, j = a
            np.subtract(dga, np.multiply(hja, g[j], out=tmp), out=dga)
            hp = dvp[j]                                              # h'_aj
            np.multiply(np.subtract(vp[j], v[:, j], out=hp), ratio, out=hp)
            np.add(h[:, a, j], hp, out=hp)
            np.multiply(np.multiply(delta[j], hp, out=tmp), vp[j], out=tmp)
            np.add(acc, tmp, out=acc)
            np.multiply(hp, vpa, out=hp)                             # (vi)
        np.multiply(-delta[a], acc, out=acc)                         # (vii)

        np.multiply(va, ga, out=dY[_PHI])                            # (i)
        np.multiply(np.multiply(np.negative(ga, out=tmp), vpa, out=tmp), psi, out=tmp)
        np.multiply(tmp, inv_phi, out=dY[_PSI])                      # (v), non-log form
        np.multiply(-eps * Va, ga, out=dY[_BETA])                    # (iv)

    return body


def _linear_init(triple: TripleField, y):
    """A constant triple's init ``y`` in the linear form, rho = psi (v - v')
    in the v' rows (module docstring)."""
    v, _ = triple.constant_values
    linear = y.copy()
    with np.errstate(all="ignore"):
        linear[_VP] = y[_PSI] * (v - y[_VP])
    return linear


def _ribaucour_generators(triple: TripleField, y0):
    """The three constant generators M_a of a constant triple's Ribaucour
    system in its linear form, on the 9 rows of ``_linear_init`` (module
    docstring); the psi row is a zero row."""
    v, V = triple.constant_values
    delta = np.asarray(triple.delta, dtype=float)
    eps, c = float(triple.spec.eps), float(triple.spec.c)
    lam = float(delta_inner(delta, v, y0[_VP])) / y0[_PHI]
    M = np.zeros((3, 9, 9))
    for a in range(3):
        rho_a = _VP.start + a
        M[a, a, rho_a] = 1.0
        M[a, a, _BETA] = V[a]
        M[a, a, _PHI] = -c * v[a]
        M[a, rho_a, a] = lam * delta[a]
        M[a, _PHI, a] = v[a]
        M[a, _BETA, a] = -eps * V[a]
    return M


def _recover(planes, triple: TripleField, linear):
    """Turn the linear form's (9,) + grid.n ``planes``, swept from the init
    ``linear``, back into the state in place: psi from K1, v' = v - rho / psi
    (module docstring).  Returns the nodes whose psi is not accurate to
    ``_PSI_ACCURACY`` by its rounding bound (module docstring, "Masking")."""
    eps, c = float(triple.spec.eps), float(triple.spec.c)
    v, _ = triple.constant_values

    def squares(g, phi, beta):                  # |gamma|^2, beta^2, phi^2
        return np.sum(g * g, axis=0), beta**2, phi**2

    gg, bb, pp = squares(linear[_G], linear[_PHI], linear[_BETA])
    K1 = gg + eps * bb + c * pp - 2.0 * linear[_PHI] * linear[_PSI]
    g, rho, phi, psi = planes[_G], planes[_VP], planes[_PHI], planes[_PSI]
    gg, bb, pp = squares(g, phi, planes[_BETA])
    gap = gg + eps * bb + c * pp - K1           # 2 phi psi
    # 2^-53 (gg + bb + |c| pp + |K1|) > _PSI_ACCURACY |gap|, in place
    size = np.add(gg, bb, out=gg)
    size += np.multiply(abs(c), pp, out=pp)
    size += abs(K1)
    lossy = size > np.multiply(_PSI_ACCURACY * 2.0**53, np.abs(gap, out=bb), out=bb)
    np.divide(gap, 2.0 * phi, out=psi)
    for j in range(3):
        np.subtract(v[j], np.divide(rho[j], psi, out=rho[j]), out=rho[j])
    return lossy


def _mask(planes, base, mask_tol, lossy=None):
    """The nodes of a swept field to mask: where |phi| or |psi| is under
    ``mask_tol``, a value is not finite or ``lossy`` (``_recover``) is set,
    and every node the (0, 1, 2) sweep from ``base`` reaches through one
    (``sweep_descendants``)."""
    flagged = ((np.abs(planes[_PHI]) < mask_tol) | (np.abs(planes[_PSI]) < mask_tol)
               | ~np.isfinite(planes).all(axis=0))
    if lossy is not None:
        flagged |= lossy
    return sweep_descendants(flagged, base, (0, 1, 2))


def integrate_ribaucour(triple: TripleField, init: RibaucourState,
                        grid: ParameterGrid = None, max_step=DEFAULT_MAX_STEP,
                        mask_tol=None, K2target=None,
                        integrability_tol=None) -> RibaucourField:
    """Sweep-integrate the transformation system from the base node.

    ``grid`` defaults to ``triple.grid``; any other grid raises GridMismatch.
    phi_0 = 0 raises SingularPhi.  A constant triple is propagated exactly,
    its K2target ``kappa``: once the sweep has checked the triple, a triple
    with <v, V>_delta != 0, or an init or K2target off kappa, raises
    ConstraintUnsatisfiable (module docstring).  So does v'_0 = 0 on either
    route.  A sampled triple is marched with RK4, its K2target the init's K2
    by default.  After the sweep, nodes where |phi| or |psi| falls below
    ``mask_tol``, a value is not finite or, on the exact route, psi recovered
    from K1 may have lost its accuracy are masked, and their sweep
    descendants with them (module docstring, "Masking"); the unmasked nodes'
    values do not depend on the masked ones.
    """
    grid = grid or triple.grid
    mask_tol = mask_tol if mask_tol is not None else default_mask_tol(grid)
    y0 = init.as_array()
    if y0[_PHI] == 0.0:
        raise SingularPhi("phi must be nonzero at the base node")
    system = ((_ribaucour_generators, _linear_init(triple, y0)) if triple.closed_form
              else (_ribaucour_body, y0))
    states = sweep_integrate(triple, grid, (0, 1, 2), *system, max_step, integrability_tol,
                             masked=True)
    planes = np.moveaxis(states, -1, 0)
    vp = y0[_VP]
    if not vp.any():
        raise ConstraintUnsatisfiable(
            "v'_0 = 0: the transformed metric diag(v'^2) is degenerate at the base node")
    K2_0 = float(delta_inner(triple.delta, vp, vp))
    lossy = None
    if triple.closed_form:
        # after the sweep has checked the triple: a failing one has no kappa
        v, V = triple.constant_values
        vV = float(delta_inner(triple.delta, v, V))
        if not abs(vV) <= _K2_ROUNDING * float(v @ v + V @ V):
            raise ConstraintUnsatisfiable(
                f"<v, V>_delta = {vV!r} is not 0: no Ribaucour transform of this "
                f"constant triple keeps Omega = 0 (module docstring, \"Why K2 = kappa\")")
        _on_kappa(triple, K2_0, vp @ vp, "the init's K2 = <v'_0, v'_0>_delta =")
        K2target = _on_kappa(triple, K2target, vp @ vp)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lossy = _recover(planes, triple, system[1])
        planes[(slice(None),) + grid.base] = y0
        lossy[grid.base] = False
    elif K2target is None:
        K2target = K2_0
    masked = _mask(planes, grid.base, mask_tol, lossy)
    return RibaucourField(grid, states, triple, float(K2target), mask_tol,
                          masked if masked.any() else None)


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
