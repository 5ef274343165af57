"""Moving-frame reconstruction: integrate the linear frame system over the grid.

Along the u_a line the state (f, X1, X2, X3, N) evolves by

    df/du_a   = v_a X_a
    dX_i/du_a = h_ia X_a                                   (i != a)
    dX_a/du_a = -sum_{k != a} h_ka X_k + eps V_a N - c v_a f
    dN/du_a   = -V_a X_a

Exact steps for a constant triple.  When h = 0 and v, V are constant (every
seed of the gallery and the CLI), the system along u_a is dY = M_a Y with a
constant 5 x 5 generator on the rows (f, X1, X2, X3, N): M[f, X_a] = v_a,
M[X_a, f] = -c v_a, M[X_a, N] = eps V_a, M[N, X_a] = -V_a, every other entry
0.  Then M^3 = -w^2 M with w^2 = c v_a^2 + eps V_a^2, and the sweep
propagates the frame exactly, Y(u_a + t) = exp(M_a t) Y(u_a) with

    exp(M t) = I + (sin w t / w) M + (2 sin^2(w t / 2) / w^2) M^2,

sinh in place of sin when w^2 < 0 (w = sqrt(-w^2) there) and
I + t M + (t^2 / 2) M^2 when w = 0.  The half-angle form keeps the M^2
coefficient accurate to rounding for small w t, where (1 - cos w t) / w^2
cancels.  Each node's frame is its phase start's frame times one such
exponential (``_sweep`` module docstring, "Propagated systems"): no RK4
error, no right-hand side evaluation.  A sampled triple's frame is marched
with RK4 (``FrameField.scheme`` says which).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._sweep import sweep_integrate
from .ambient import SpaceFormSpec, sig_inner
from .errors import DimensionError
from .grid import ParameterGrid, induced_metric_tensor, partial_derivative
from .report import ResidualReport
from .triples import TripleField

DEFAULT_MAX_STEP = 1e-2
DEFAULT_INTEGRABILITY_TOL = 1e-8


@dataclass(frozen=True)
class FrameState:
    """Position, principal directions, and unit normal at one point."""

    f: np.ndarray
    X1: np.ndarray
    X2: np.ndarray
    X3: np.ndarray
    N: np.ndarray

    def as_array(self) -> np.ndarray:
        return np.stack([self.f, self.X1, self.X2, self.X3, self.N]).astype(float)

    @classmethod
    def from_array(cls, arr):
        return cls(*[np.array(arr[i], dtype=float) for i in range(5)])

    def scaled_frame(self, factor) -> "FrameState":
        """Scale the frame part (X, N) only; position unchanged."""
        return FrameState(self.f, factor * self.X1, factor * self.X2,
                          factor * self.X3, factor * self.N)


def standard_frame_state(spec: SpaceFormSpec, normal_sign=1) -> FrameState:
    """The coordinate-basis initial frame: X_i = E_i, N = sign * E4, f the model point."""
    dim = spec.dim
    E = np.eye(dim)
    return FrameState(spec.base_point(), E[0], E[1], E[2], normal_sign * E[3])


@dataclass
class FrameField:
    """Grid-sampled moving frame together with its source data and scheme metadata."""

    grid: ParameterGrid
    states: np.ndarray                  # grid.n + (5, dim), a view of (5, dim) + grid.n planes
    triple: TripleField
    sweep_order: tuple = (0, 1, 2)
    max_step: float = DEFAULT_MAX_STEP

    @property
    def f(self) -> np.ndarray:
        return self.states[..., 0, :]

    @property
    def X(self) -> np.ndarray:
        """Shape grid.n + (3, dim)."""
        return self.states[..., 1:4, :]

    @property
    def N(self) -> np.ndarray:
        return self.states[..., 4, :]

    def state_at(self, idx) -> FrameState:
        return FrameState.from_array(self.states[tuple(idx)])

    @property
    def scheme(self) -> str:
        """How the sweep builds this triple's frame (module docstring)."""
        return "exact propagator" if self.triple.closed_form else "RK4 sweep"


def _frame_body(triple: TripleField, y0):
    """The frame system on the rows of f, X1, X2, X3, N, dim rows each
    (``_sweep`` module docstring); a y0 of another shape than (5, dim) raises
    DimensionError.

    For a constant triple it returns the three generators M_a, propagated
    exactly (module docstring).  Otherwise it returns the in-place RK4 body
    (``_sweep`` module docstring, "In-place bodies").
    """
    dim = triple.spec.dim
    if y0.shape != (5, dim):
        raise DimensionError(f"frame state has shape {y0.shape}; the triple's "
                             f"space form needs {(5, dim)}")
    eps = float(triple.spec.eps)
    c = float(triple.spec.c)
    if triple.closed_form:
        v, V = triple.constant_values
        M = np.zeros((3, 5, 5))
        for a in range(3):
            M[a, 0, 1 + a] = v[a]
            M[a, 1 + a, 0] = -c * v[a]
            M[a, 1 + a, 4] = eps * V[a]
            M[a, 4, 1 + a] = -V[a]
        return M
    f, X1, X2, X3, N = (slice(k * dim, (k + 1) * dim) for k in range(5))
    X = (X1, X2, X3)

    def body(v, h, V, Y, dY, axis):
        a = axis
        va = v[:, a]
        Va = V[:, a]
        Xa = Y[X[a]]
        dXa = dY[X[a]]
        tmp = dY[N]                      # scratch until dN is written last
        np.multiply(va, Xa, out=dY[f])
        np.multiply(eps * Va, Y[N], out=dXa)
        np.subtract(dXa, np.multiply(c * va, Y[f], out=tmp), out=dXa)
        for i in range(3):
            if i != a:
                hia = h[:, i, a]
                np.multiply(hia, Xa, out=dY[X[i]])
                np.subtract(dXa, np.multiply(hia, Y[X[i]], out=tmp), out=dXa)
        np.multiply(-Va, Xa, out=dY[N])

    return body


def integrate_frame(triple: TripleField, init: FrameState, grid: ParameterGrid = None,
                    sweep_order=(0, 1, 2), max_step=DEFAULT_MAX_STEP,
                    integrability_tol=DEFAULT_INTEGRABILITY_TOL) -> FrameField:
    """Sweep-integrate the frame system from the base node over the triple's grid.

    ``grid`` defaults to ``triple.grid``; any other grid raises GridMismatch.
    ``integrability_tol=None`` skips the seed-residual precondition (used by
    the diagnostics that deliberately integrate non-solutions).  A frame of
    another dimension than the triple's space form raises DimensionError.
    """
    grid = grid or triple.grid
    states = sweep_integrate(triple, grid, tuple(sweep_order), _frame_body, init.as_array(),
                             max_step, integrability_tol)
    return FrameField(grid, states, triple, tuple(sweep_order), max_step)


def frame_gram_residual(ff: FrameField) -> ResidualReport:
    """Deviation of the moving frame's Gram matrix from its orthonormal target."""
    spec = ff.triple.spec
    sig = spec.ambient.sig_array
    planes = np.moveaxis(ff.states, (-2, -1), (0, 1))      # (5, dim) + grid.n
    vectors = list(planes[1:])
    target = [1.0, 1.0, 1.0, float(spec.eps)]
    if spec.c != 0:
        vectors.append(math.sqrt(abs(spec.c)) * planes[0])
        target.append(math.copysign(1.0, spec.c))
    m = len(vectors)
    dev = np.zeros((m, m) + tuple(ff.grid.n))
    for a in range(m):
        for b in range(a, m):
            g = sig_inner(vectors[a], vectors[b], sig, axis=0)
            t = target[a] if a == b else 0.0
            dev[a, b] = dev[b, a] = g - t
    report = ResidualReport(metadata={"max_step": ff.max_step, "scheme": ff.scheme})
    report.add("gram", dev)
    return report


def path_independence_residual(ff: FrameField) -> ResidualReport:
    """Integrate ``ff``'s triple in the reversed sweep order and compare positions.

    The reversed sweep starts from ``ff``'s state at the base node with the
    same step bound and no integrability precondition.  Complete
    integrability makes the sweep order irrelevant up to scheme error; a
    violated compatibility equation shows up here as a bulk difference.
    """
    grid = ff.grid
    rev = integrate_frame(ff.triple, ff.state_at(grid.base), grid,
                          tuple(reversed(ff.sweep_order)), ff.max_step, None)
    diff = np.abs(ff.f - rev.f)
    report = ResidualReport(metadata={"max_step": ff.max_step, "scheme": ff.scheme})
    report.add("far_corner", diff[grid.far_corner])
    report.add("grid", diff)
    return report


def induced_metric(ff: FrameField):
    """g_ij = <df/du_i, df/du_j> by central differences, plus a diag(v^2) comparison.

    Returns (g, report) with g of shape (3, 3) + grid.n.
    """
    grid = ff.grid
    grid.require_resolution(5)
    f = np.moveaxis(ff.f, -1, 0)                              # (dim,) + grid.n
    df = [partial_derivative(f, a + 1, grid.spacing[a]) for a in range(3)]
    g = induced_metric_tensor(df, ff.triple.spec.ambient.sig_array, axis=0)
    v = ff.triple.v
    report = ResidualReport(metadata={"stencil": "order-2 central/one-sided"})
    off = np.stack([g[i, j] for i in range(3) for j in range(3) if i != j])
    diag = np.stack([g[i, i] - v[i] ** 2 for i in range(3)])
    report.add("offdiag", off)
    report.add("diag_vs_v2", diag)
    return g, report
