"""Explicit constructions: trivial seeds, the phi-ODE transformation families
with their closed-form states, frames and transformed hypersurfaces, printed
coordinate lists, helices, rotation hypersurfaces, and generalized cones.

The literature's printed coordinate lists are evaluated verbatim (one stray
factor in the flat-target list is dropped, see ``explicit_fprime``); the
pipeline-consistent closed forms live in ``closed_form_transform`` and are
always derived from the family's frame and state, never from the printed
text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .ambient import SpaceFormSpec, UmbilicalSlice, geodesic
from .errors import (
    InvalidParams,
    SingularDenominator,
    SingularOrbit,
    SingularPsi,
)
from .frames import FrameState, standard_frame_state
from .grid import ParameterGrid
from .report import ResidualReport
from .ribaucour import RibaucourState, _point_transform, kappa
from .triples import TripleField

_PSI_TOL = 1e-12        # |psi| under which phi_state raises SingularPsi
_DENOM_TOL = 1e-12      # |denominator| under which a printed list raises SingularDenominator
_ORBIT_TOL = 1e-12      # |g1| under which a rotation orbit degenerates (SingularOrbit)

# (v slot, V slot, delta, sign of C); slots are 0-based
_SEED_TABLE = {
    "problemstar_e1_Cneg": (0, 1, (1, -1, 1), -1),
    "problemstar_e1_Cpos": (0, 2, (1, -1, 1), +1),
    "problemstar_em1_Cpos": (1, 2, (1, -1, 1), +1),
    "problemstar_em1_Cneg": (2, 0, (-1, -1, -1), -1),
    "cflat": (None, None, (1, -1, 1), None),
}
SEED_KINDS = tuple(_SEED_TABLE)

# one line per gallery item (seed kinds, then printed lists), for ``gallery list``
DESCRIPTIONS = {
    "problemstar_e1_Cneg": "trivial seed v=(1,0,0), V=sqrt(-C)(0,1,0), delta=(1,-1,1)",
    "problemstar_e1_Cpos": "trivial seed v=(1,0,0), V=sqrt(C)(0,0,1), delta=(1,-1,1)",
    "problemstar_em1_Cpos": "trivial seed v=(0,1,0), V=sqrt(C)(0,0,1), delta=(1,-1,1)",
    "problemstar_em1_Cneg": "trivial seed v=(0,0,1), V=sqrt(-C)(1,0,0), delta=(-1,-1,-1)",
    "cflat": "trivial seed v=(0,1,1), V=(1,0,0), delta=(1,-1,1) (c=0)",
    "r4_pair": "printed flat-target transformed hypersurface (theta parameter)",
    "s4_pair": "printed sphere-target transformed hypersurface (reference up to signs)",
    "cflat_K_minus1": "printed conformally flat hypersurface, K=-1 branch",
}


def _seed_C(kind, C):
    """C of a problem-star seed kind: a finite number of the kind's sign
    (else InvalidParams)."""
    c_sign = _SEED_TABLE[kind][3]
    if C is None or not (math.isfinite(C) and C * c_sign > 0):
        raise InvalidParams(f"seed {kind} needs a finite C with sign {c_sign:+d}, got {C}")
    return C


def _check_seed_kind(kind):
    """Raise InvalidParams naming SEED_KINDS unless ``kind`` is one of them."""
    if kind not in _SEED_TABLE:
        raise InvalidParams(f"unknown seed kind {kind!r}; choose from {SEED_KINDS}")


def trivial_seed(kind, grid: ParameterGrid, c=0.0, s=0, C=None) -> TripleField:
    """Constant solution with h = 0 from the menu of known starting data."""
    _check_seed_kind(kind)
    spec = SpaceFormSpec(c, s)
    if kind == "cflat":
        if c != 0:
            raise InvalidParams("the conformally flat seed requires c = 0")
        if C is not None:
            raise InvalidParams("the conformally flat seed takes no C")
        return TripleField.constant(grid, (1, -1, 1), spec, v=(0, 1, 1), V=(1, 0, 0))
    p, q, delta, _ = _SEED_TABLE[kind]
    v = np.zeros(3)
    v[p] = 1.0
    V = np.zeros(3)
    V[q] = math.sqrt(abs(_seed_C(kind, C)))
    return TripleField.constant(grid, delta, spec, v=v, V=V)


def seed_frame_state(kind, spec: SpaceFormSpec) -> FrameState:
    """The canonical initial frame for each trivial seed.

    Problem-star seeds take N(0) = eps E4; the conformally flat seed takes
    N(0) = E4."""
    return standard_frame_state(spec, 1 if kind == "cflat" else spec.eps)


def closed_form_frame(kind, spec: SpaceFormSpec, C=None):
    """Exact solution (f, X1, X2, X3, N) of the frame system for a trivial seed.

    Returns a callable mapping points (..., 3) to states (..., 5, dim).
    The hyperbolic branches use the integration-consistent signs (the
    literature's flat conformally-flat boost branch carries an inconsistent
    sign; the returned frames always solve the system).
    """
    _check_seed_kind(kind)
    if kind == "cflat":
        if spec.c != 0:
            raise InvalidParams("the conformally flat seed requires c = 0")
        eps = spec.eps

        def frame(points):
            points = np.asarray(points, dtype=float)
            u1, u2, u3 = points[..., 0], points[..., 1], points[..., 2]
            shape = u1.shape
            out = np.zeros(shape + (5, 4))
            out[..., 0, 1] = u2
            out[..., 0, 2] = u3
            out[..., 2, 1] = 1.0
            out[..., 3, 2] = 1.0
            if eps == 1:
                out[..., 1, 0] = np.cos(u1)
                out[..., 1, 3] = np.sin(u1)
                out[..., 4, 0] = -np.sin(u1)
                out[..., 4, 3] = np.cos(u1)
            else:
                out[..., 1, 0] = np.cosh(u1)
                out[..., 1, 3] = -np.sinh(u1)
                out[..., 4, 0] = -np.sinh(u1)
                out[..., 4, 3] = np.cosh(u1)
            return out

        return frame

    p, q, _, _ = _SEED_TABLE[kind]
    b = math.sqrt(abs(_seed_C(kind, C)))
    eps = spec.eps
    c = spec.c
    dim = spec.dim

    def frame(points):
        points = np.asarray(points, dtype=float)
        up = points[..., p]
        uq = points[..., q]
        shape = up.shape
        out = np.zeros(shape + (5, dim))
        # position and the driving direction X_p
        if c == 0:
            out[..., 0, p] = up
            out[..., 1 + p, p] = 1.0
        else:
            r = math.sqrt(abs(c))
            if c > 0:
                out[..., 0, 4] = np.cos(r * up) / r
                out[..., 0, p] = np.sin(r * up) / r
                out[..., 1 + p, 4] = -np.sin(r * up)
                out[..., 1 + p, p] = np.cos(r * up)
            else:
                out[..., 0, 4] = np.cosh(r * up) / r
                out[..., 0, p] = np.sinh(r * up) / r
                out[..., 1 + p, 4] = np.sinh(r * up)
                out[..., 1 + p, p] = np.cosh(r * up)
        # the rotating / boosting pair (E_q, E_4), init N = eps E4
        if eps == 1:
            out[..., 1 + q, q] = np.cos(b * uq)
            out[..., 1 + q, 3] = np.sin(b * uq)
            out[..., 4, q] = -np.sin(b * uq)
            out[..., 4, 3] = np.cos(b * uq)
        else:
            out[..., 1 + q, q] = np.cosh(b * uq)
            out[..., 1 + q, 3] = np.sinh(b * uq)
            out[..., 4, q] = -np.sinh(b * uq)
            out[..., 4, 3] = -np.cosh(b * uq)
        # the remaining direction is constant
        r_idx = 3 - p - q
        out[..., 1 + r_idx, r_idx] = 1.0
        return out

    return frame


# ---------------------------------------------------------------------------
# phi-ODE families
# ---------------------------------------------------------------------------

# (phi_i shape, its derivative) of one axis: cosh for k_i > 0, sin or cos for k_i < 0
_COSH = (np.cosh, np.sinh)
_SIN = (np.sin, np.cos)
_COS = (np.cos, lambda t: -np.sin(t))


class _FamilyKind(NamedTuple):
    seed_kind: str
    ks: Callable            # family -> (k1, k2, k3) of phi_i'' = k_i phi_i
    signs: tuple            # the sign each k_i must have
    axes: tuple             # (shape, derivative) of each phi_i
    ambient: tuple          # the fixed (c, eps), or None
    default_a: float        # a when none is given; None: the kind takes no a
    C: Callable             # family -> the seed's C (None: the seed has no C)


_FAMILY_TABLE = {
    "problemstar": _FamilyKind(
        "problemstar_e1_Cneg",
        lambda f: (f.K * f.a - f.c, -(f.eps * f.a**2 + f.K * f.a), f.K * f.a),
        (1, -1, 1), (_COSH, _SIN, _COSH), None, 1.0, lambda f: -f.a**2),
    "problemstar_sphere": _FamilyKind(
        "problemstar_e1_Cpos",
        lambda f: (-(1.0 + f.K), f.K, -(1.0 + f.K)),
        (1, -1, 1), (_COSH, _SIN, _COSH), (1.0, 1), None, lambda f: 1.0),
    "cflat": _FamilyKind(
        "cflat",
        lambda f: (f.K - f.eps, -f.K, f.K),
        (-1, 1, -1), (_COS, _COSH, _COS), (0.0, 1), None, lambda f: None),
}
FAMILY_KINDS = tuple(_FAMILY_TABLE)


@dataclass(frozen=True)
class PhiFamily:
    """One-parameter-per-axis solutions feeding the transformation system.

    problemstar:        seed v=(1,0,0), V=a(0,1,0) in Q^4(c), C = -a^2.
    problemstar_sphere: seed v=(1,0,0), V=(0,0,1) in S^4 (c=1, eps=1).
    cflat:              seed v=(0,1,1), V=(1,0,0) in R^4 (c=0, eps=1).

    The branch rule is the signs of the k_i in phi_i'' = k_i phi_i
    (``ode_coefficients``): (+, -, +) for both Problem-* kinds, (-, +, -) for
    cflat.  Only problemstar takes ``a`` (a > 0, default 1).  rho scales all
    amplitudes, theta splits them; phases shift each phi_i.
    """

    kind: str
    K: float
    rho: float = 1.0
    theta: float = math.pi / 4
    a: float = None
    c: float = 0.0
    eps: int = 1
    phases: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        row = _FAMILY_TABLE.get(self.kind)
        if row is None:
            raise InvalidParams(f"unknown family kind {self.kind!r}")
        if not self.rho > 0:
            raise InvalidParams("rho must be positive")
        if self.a is None:
            object.__setattr__(self, "a", row.default_a)
        elif row.default_a is None:
            raise InvalidParams(f"the {self.kind} family takes no a")
        elif not self.a > 0:
            raise InvalidParams(f"a = sqrt(-C) must be positive, got {self.a}")
        if row.ambient is not None and (self.c, self.eps) != row.ambient:
            raise InvalidParams(f"the {self.kind} family is built in (c, eps) = {row.ambient}")
        for i, (k, sign) in enumerate(zip(self.ode_coefficients(), row.signs)):
            if not k * sign > 0:         # NaN fails too
                raise InvalidParams(f"the {self.kind} family branch needs "
                                    f"k{i + 1} {'>' if sign > 0 else '<'} 0, got {k}")

    @property
    def _row(self) -> _FamilyKind:
        return _FAMILY_TABLE[self.kind]

    # -- oscillator data ----------------------------------------------------

    @property
    def omegas(self):
        """Frequencies (w1, w2, w3) = sqrt|k_i| of the three phi ODEs."""
        return tuple(math.sqrt(abs(k)) for k in self.ode_coefficients())

    @property
    def amplitudes(self):
        w1, w2, w3 = self.omegas
        return (self.rho * (w2 / w1) * math.cos(self.theta),
                self.rho,
                self.rho * (w2 / w3) * math.sin(self.theta))

    def phi(self, i, x):
        """phi_i(x) (0-based component index)."""
        shape, _ = self._row.axes[i]
        arg = np.asarray(x, dtype=float) * self.omegas[i] + self.phases[i]
        return self.amplitudes[i] * shape(arg)

    def dphi(self, i, x):
        _, d = self._row.axes[i]
        w = self.omegas[i]
        arg = np.asarray(x, dtype=float) * w + self.phases[i]
        return self.amplitudes[i] * w * d(arg)

    def ode_coefficients(self):
        """k_i in phi_i'' = k_i phi_i."""
        return self._row.ks(self)

    def brackets(self, x=(0.0, 0.0, 0.0)):
        """The three conserved bracket values phi_i'^2 - k_i phi_i^2."""
        ks = self.ode_coefficients()
        return tuple(
            float(self.dphi(i, x[i]) ** 2 - ks[i] * self.phi(i, x[i]) ** 2)
            for i in range(3)
        )

    # -- seed data ------------------------------------------------------------

    @property
    def seed_kind(self) -> str:
        return self._row.seed_kind

    @property
    def C(self):
        return self._row.C(self)

    @property
    def spec(self) -> SpaceFormSpec:
        return SpaceFormSpec(self.c, (1 - self.eps) // 2)

    @property
    def K2target(self) -> float:
        """kappa of the seed, its transforms' one K2 (``ribaucour.kappa``)."""
        return kappa(self.seed_triple(ParameterGrid.centered(1.0, 2)))

    def seed_triple(self, grid: ParameterGrid) -> TripleField:
        return trivial_seed(self.seed_kind, grid, c=self.c,
                            s=(1 - self.eps) // 2, C=self.C)

    def frame_init(self) -> FrameState:
        return seed_frame_state(self.seed_kind, self.spec)

    def frame_closed_form(self):
        return closed_form_frame(self.seed_kind, self.spec, self.C)

    # -- transformation state ------------------------------------------------

    def state_arrays(self, points):
        """(gamma (...,3), vprime (...,3), phi, psi, beta) at points (..., 3)."""
        points = np.asarray(points, dtype=float)
        u = [points[..., i] for i in range(3)]
        p = [self.phi(i, u[i]) for i in range(3)]
        dp = [self.dphi(i, u[i]) for i in range(3)]
        if self.kind == "cflat":
            phi = (p[2] - p[1]) / self.K
            beta = (self.eps / self.K) * p[0]
            gamma = np.stack([-dp[0] / self.K, -dp[1] / self.K, dp[2] / self.K],
                             axis=-1)
            psi = (p[0] ** 2 - p[1] ** 2 + p[2] ** 2) / (2.0 * (p[2] - p[1]))
            vprime = np.stack([p[0] / psi, 1.0 - p[1] / psi, 1.0 - p[2] / psi],
                              axis=-1)
            return gamma, vprime, phi, psi, beta
        # both Problem-* kinds: phi = p1 / d and gamma = (dp1, -dp2, dp3) / d
        sphere = self.kind == "problemstar_sphere"
        d = -self.K if sphere else self.K * self.a
        phi = p[0] / d
        beta = p[2] / self.K if sphere else (self.eps / self.K) * p[1]
        gamma = np.stack([dp[0] / d, -dp[1] / d, dp[2] / d], axis=-1)
        psi = (p[0] ** 2 - p[1] ** 2 + p[2] ** 2) / (2.0 * p[0])
        vprime = np.stack([1.0 - p[0] / psi, -p[1] / psi, -p[2] / psi], axis=-1)
        return gamma, vprime, phi, psi, beta


def phi_state(fam: PhiFamily, u) -> RibaucourState:
    """The closed-form transformation state of a family at one point."""
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma, vprime, phi, psi, beta = fam.state_arrays(np.asarray(u, dtype=float))
    if not np.isfinite(psi) or abs(float(psi)) < _PSI_TOL:
        raise SingularPsi(f"psi is singular at u = {tuple(np.asarray(u))}")
    return RibaucourState(tuple(np.atleast_1d(gamma.squeeze())),
                          tuple(np.atleast_1d(vprime.squeeze())),
                          float(phi), float(psi), float(beta))


def closed_form_transform(fam: PhiFamily):
    """Exact transformed immersion F' of a family (independent of the integrators):
    the point transform of ``ribaucour.transform_immersion`` applied to the
    family's closed-form frame and state.

    Returns a callable mapping points (..., 3) to ambient vectors.
    """
    frame = fam.frame_closed_form()
    c = fam.c

    def fprime(points):
        points = np.asarray(points, dtype=float)
        states = frame(points)
        f = states[..., 0, :]
        X = states[..., 1:4, :]
        N = states[..., 4, :]
        gamma, _, phi, psi, beta = fam.state_arrays(points)
        return _point_transform(f, X, N, gamma, phi, psi, beta, c)

    return fprime


def signed_component_match(sample_a, sample_b):
    """Best per-component sign match of two position arrays.

    Returns a list of dicts {component, sign, max_abs_diff}; the sign is the
    +-1 minimizing the maximum deviation.  Nothing is ever corrected
    silently; this is a reporting tool.
    """
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    out = []
    for i in range(a.shape[-1]):
        plus = float(np.nanmax(np.abs(a[..., i] - b[..., i])))
        minus = float(np.nanmax(np.abs(a[..., i] + b[..., i])))
        sign = 1 if plus <= minus else -1
        out.append({"component": i + 1, "sign": sign,
                    "max_abs_diff": min(plus, minus)})
    return out


# ---------------------------------------------------------------------------
# printed coordinate lists
# ---------------------------------------------------------------------------

EXPLICIT_NAMES = ("r4_pair", "s4_pair", "cflat_K_minus1")


def explicit_fprime(which, theta, points):
    """Literal evaluation of the printed coordinate functions.

    r4_pair drops one stray amplitude factor from its fourth component (an
    evident misprint; with it the list cannot match any transformed
    immersion).  s4_pair and cflat_K_minus1 are evaluated verbatim and are
    reference-only: both disagree with the pipeline beyond signs, see
    ``signed_component_match``.
    """
    points = np.asarray(points, dtype=float)
    u1, u2, u3 = points[..., 0], points[..., 1], points[..., 2]
    ct, st = math.cos(theta), math.sin(theta)
    r2 = math.sqrt(2.0)

    if which == "r4_pair":
        g = 2.0 * ct * np.cosh(u1)
        hinv = (2.0 * ct**2 * np.cosh(u1) ** 2 - np.sin(r2 * u2) ** 2
                + 2.0 * st**2 * np.cosh(u3) ** 2)
        _check_denom(hinv)
        gh = g / hinv
        return np.stack([
            u1 - 2.0 * gh * ct * np.sinh(u1),
            gh * (2.0 * np.cos(r2 * u2) * np.cos(u2)
                  + r2 * np.sin(r2 * u2) * np.sin(u2)),
            -2.0 * gh * st * np.sinh(u3),
            gh * (2.0 * np.cos(r2 * u2) * np.sin(u2)
                  - r2 * np.sin(r2 * u2) * np.cos(u2)),
        ], axis=-1)

    if which == "s4_pair":
        g = 2.0 * ct * np.cosh(u1)
        hinv = (2.0 * ct**2 * np.cos(u1) ** 2 - np.sin(r2 * u2) ** 2
                + 2.0 * st**2 * np.cosh(u3) ** 2)
        _check_denom(hinv)
        gh = g / hinv
        return np.stack([
            np.sin(u1) + gh * ct * (np.cos(u1) * np.sinh(u1)
                                    + np.sin(u1) * np.cosh(u1)),
            -gh * np.cos(r2 * u2),
            gh * st * (np.cos(u3) * np.sinh(u3) - np.sin(u3) * np.cosh(u3)),
            gh * st * (np.sin(u3) * np.sinh(u3) + np.cos(u3) * np.cosh(u3)),
            np.cos(u1) + gh * ct * (np.cos(u1) * np.cosh(u1)
                                    - np.sin(u1) * np.sinh(u1)),
        ], axis=-1)

    if which == "cflat_K_minus1":
        g = np.cosh(u2) - st * np.cos(u3)
        hinv = (ct**2 * np.cos(r2 * u1) ** 2 - 2.0 * np.cosh(u2) ** 2
                + 2.0 * st**2 * np.cos(u3) ** 2)
        _check_denom(hinv)
        gh = g / hinv
        return np.stack([
            2.0 * ct * gh * (r2 * np.cos(r2 * u1) * np.sin(u1)
                             - np.sin(r2 * u1) * np.cos(u1)),
            u2 + 4.0 * np.sinh(u2) * gh,
            u3 + 4.0 * st * np.sin(u3) * gh,
            -2.0 * ct * (np.sin(r2 * u1) * np.sin(u1)
                         + np.cos(r2 * u1) * np.sin(u1)) * gh,
        ], axis=-1)

    raise InvalidParams(f"unknown printed surface {which!r}; choose from {EXPLICIT_NAMES}")


def _check_denom(hinv):
    if np.any(np.abs(hinv) < _DENOM_TOL):
        raise SingularDenominator("printed denominator vanishes on the requested points")


# ---------------------------------------------------------------------------
# helices, rotation hypersurfaces, generalized cones
# ---------------------------------------------------------------------------


@dataclass
class HelixProfile:
    """Unit-speed curve in a 2-dimensional model Q^2(c_model) in R^3 whose
    height function along the first axis solves gv'' + c_h gv = 0."""

    c_h: float
    c_model: float
    s: np.ndarray                   # parameter samples
    coords: np.ndarray              # (m, 3) as (gamma_1, gamma_4, gamma_5)
    gv: callable = None             # closed-form height, optional
    dgv: callable = None
    d2gv: callable = None

    def height_samples(self) -> np.ndarray:
        return self.coords[:, 0]


def helix(c_h, c_model, s_samples, amplitude, phase=0.0, slope=0.0,
          alpha0=0.0) -> HelixProfile:
    """Construct a c_h-helix on the round model Q^2(c_model), c_model > 0.

    The height function is the oscillator solution with the given amplitude
    and phase (affine ``amplitude + slope*s`` when c_h = 0); the remaining
    two coordinates come from the unit-speed condition.  The azimuth alpha,
    alpha0 at the first sample, has a derivative that depends on s alone, so
    it is a quadrature: 10-point Gauss-Legendre on each sample interval and a
    cumulative sum.
    """
    if c_model <= 0:
        raise InvalidParams("helix construction implemented on round models only")
    R2 = 1.0 / c_model
    s_samples = np.asarray(s_samples, dtype=float)

    if c_h > 0:
        w = math.sqrt(c_h)
        gv = lambda t: amplitude * np.cos(w * np.asarray(t) + phase)
        dgv = lambda t: -amplitude * w * np.sin(w * np.asarray(t) + phase)
        d2gv = lambda t: -amplitude * w**2 * np.cos(w * np.asarray(t) + phase)
    elif c_h == 0:
        gv = lambda t: amplitude + slope * np.asarray(t, dtype=float)
        dgv = lambda t: slope * np.ones_like(np.asarray(t, dtype=float))
        d2gv = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    else:
        w = math.sqrt(-c_h)
        gv = lambda t: amplitude * np.cosh(w * np.asarray(t) + phase)
        dgv = lambda t: amplitude * w * np.sinh(w * np.asarray(t) + phase)
        d2gv = lambda t: amplitude * w**2 * np.cosh(w * np.asarray(t) + phase)

    x, weights = np.polynomial.legendre.leggauss(10)
    half = 0.5 * np.diff(s_samples)[:, None]
    nodes = 0.5 * (s_samples[:-1] + s_samples[1:])[:, None] + half * x
    # the checks also read the samples, where the quadrature nodes never fall
    t = np.concatenate([nodes.ravel(), s_samples])
    g, dg = gv(t), dgv(t)
    r2 = R2 - g * g
    if np.any(r2 <= 0):
        raise InvalidParams("height exceeds the model radius on the range")
    dr = -g * dg / np.sqrt(r2)
    rad = 1.0 - dg * dg - dr * dr
    if np.any(rad < 0):
        raise InvalidParams("unit-speed condition fails on the range")
    dalpha = (np.sqrt(rad) / np.sqrt(r2))[:nodes.size].reshape(nodes.shape)
    alpha = alpha0 + np.concatenate([[0.0], np.cumsum(half[:, 0] * (dalpha @ weights))])
    g = g[nodes.size:]
    r = np.sqrt(r2[nodes.size:])
    coords = np.stack([g, r * np.cos(alpha), r * np.sin(alpha)], axis=-1)
    return HelixProfile(c_h, c_model, s_samples, coords, gv, dgv, d2gv)


def height_ode_residual(profile: HelixProfile, c_h=None) -> ResidualReport:
    """Residual of gv'' + c_h gv along the profile.

    Closed-form profiles get an exact entry; a finite-difference entry on the
    samples is always included (interior nodes, order h^2).
    """
    c_h = profile.c_h if c_h is None else c_h
    report = ResidualReport()
    s = profile.s
    gv = profile.height_samples()
    if profile.d2gv is not None:
        exact = profile.d2gv(s) + c_h * profile.gv(s)
        report.add("closed_form", exact)
    hstep = s[1] - s[0]
    fd = (gv[2:] - 2 * gv[1:-1] + gv[:-2]) / hstep**2 + c_h * gv[1:-1]
    report.add("sampled_fd", fd)
    report.metadata["spacing"] = float(hstep)
    # unit-speed defect of the sampled curve (central differences)
    d = np.gradient(profile.coords, hstep, axis=0, edge_order=2)
    speed = np.sqrt(np.sum(d * d, axis=-1))
    report.add("unit_speed", speed - 1.0)
    return report


ROTATION_TYPES = ("spherical", "hyperbolic", "parabolic")


def rotation_hypersurface(rtype, profile: HelixProfile, s_idx, u1, u2):
    """Rotation hypersurface through a profile curve in span{e1, e4, e5}.

    spherical:  f = (g1 p1(u), g1 p2(u), g1 p3(u), g4, g5), p the standard
                orthogonal chart of S^2;
    hyperbolic: same with the H^2 chart (first basis vector timelike);
    parabolic:  the printed pseudo-orthonormal-basis parametrization.

    Returns positions of shape (len(s_idx), len(u1), len(u2), 5).
    """
    if rtype not in ROTATION_TYPES:
        raise InvalidParams(f"unknown rotation type {rtype!r}")
    gamma = profile.coords[np.asarray(s_idx, dtype=int)]
    g1, g4, g5 = gamma[:, 0], gamma[:, 1], gamma[:, 2]
    if np.any(np.abs(g1) < _ORBIT_TOL):
        raise SingularOrbit("profile meets the fixed plane of the rotation")
    U1, U2 = np.meshgrid(np.asarray(u1, dtype=float), np.asarray(u2, dtype=float),
                         indexing="ij")
    m, n1, n2 = len(g1), U1.shape[0], U1.shape[1]
    out = np.zeros((m, n1, n2, 5))
    if rtype == "spherical":
        p = np.stack([np.cos(U1), np.sin(U1) * np.cos(U2), np.sin(U1) * np.sin(U2)])
    elif rtype == "hyperbolic":
        p = np.stack([np.cosh(U1), np.sinh(U1) * np.cos(U2), np.sinh(U1) * np.sin(U2)])
    else:
        for k in range(m):
            out[k, ..., 0] = g1[k]
            out[k, ..., 1] = g1[k] * U1
            out[k, ..., 2] = g1[k] * U2
            out[k, ..., 3] = g4[k] - 0.5 * g1[k] * (U1**2 + U2**2)
            out[k, ..., 4] = g5[k]
        return out
    for k in range(m):
        out[k, ..., 0] = g1[k] * p[0]
        out[k, ..., 1] = g1[k] * p[1]
        out[k, ..., 2] = g1[k] * p[2]
        out[k, ..., 3] = g4[k]
        out[k, ..., 4] = g5[k]
    return out


def generalized_cone(surface, spec: SpaceFormSpec, cbar, t_values):
    """Union of ambient geodesics leaving the surface along the umbilical normal.

    ``surface``: positions (m1, m2, dim) inside the standard Q^3(cbar) slice.
    Returns positions of shape (m1, m2, len(t_values), dim).
    """
    surface = np.asarray(surface, dtype=float)
    g_slice = UmbilicalSlice(spec, cbar)
    xi = g_slice.normal(surface)
    t_values = np.asarray(t_values, dtype=float)
    out = np.empty(surface.shape[:-1] + (len(t_values), surface.shape[-1]))
    for k, t in enumerate(t_values):
        out[..., k, :] = geodesic(spec, surface, xi, t)
    return out
