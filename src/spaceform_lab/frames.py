"""Moving-frame reconstruction: integrate the linear frame system over the grid.

Along the u_a line the state (f, X1, X2, X3, N) evolves by

    df/du_a   = v_a X_a
    dX_i/du_a = h_ia X_a                                   (i != a)
    dX_a/du_a = -sum_{k != a} h_ka X_k + eps V_a N - c v_a f
    dN/du_a   = -V_a X_a
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._sweep import sweep_integrate, vanishing_terms
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


def _frame_body(triple: TripleField, y0):
    """In-place frame body on the rows of f, X1, X2, X3, N, dim rows each
    (``_sweep`` module docstring); a y0 of another shape than (5, dim) raises
    DimensionError.

    The body is built for its inputs (``_sweep`` module docstring, "In-place
    bodies").  Its droppable terms all land in dX_a: the h_ia X_i of a constant
    triple, whose h is +0.0, and the c v_a f when c = 0.  With finite operands
    each is +-0, so dropping it changes dX_a at most in the sign of a zero.
    Without its h terms, dX_i = h_ia X_a (i != a) vanishes along u_a, so the
    body's moving rows along u_a are f, X_a and N (3 dim rows, in that order)
    and the sweep carries X_i through that phase.  In the expression form the
    X_i take 0 X_a = +-0 in only through y + (+-0), which is y unless
    y = -0.0, and an X row that does not start at -0.0 never becomes -0.0.
    So the terms are dropped and the X_i carried only when y0's X rows hold
    no -0.0; otherwise every term is kept and every row moves.  The
    N = (-0, -0, -0, -1) of a Lorentzian standard frame does not matter: no
    dropped term reaches N.  Where a dropped term would have been
    0 * inf = NaN, at a non-finite stage value, a value may differ from the
    full body's (``_sweep`` module docstring).
    """
    dim = triple.spec.dim
    if y0.shape != (5, dim):
        raise DimensionError(f"frame state has shape {y0.shape}; the triple's "
                             f"space form needs {(5, dim)}")
    eps = float(triple.spec.eps)
    c = float(triple.spec.c)
    f, X1, X2, X3, N = (slice(k * dim, (k + 1) * dim) for k in range(5))
    X = (X1, X2, X3)
    h_vanishes, c_vanishes = vanishing_terms(triple, y0[1:4])
    # along axis a: the rows of f, X_a and N in Y, all 5 dim rows, or only
    # those 3 dim when the X_i (i != a) are carried
    if h_vanishes:
        rows = [(slice(0, dim), slice(dim, 2 * dim), slice(2 * dim, 3 * dim))] * 3
    else:
        rows = [(f, X[a], N) for a in range(3)]

    def body(v, h, V, Y, dY, axis):
        a = axis
        fr, Xr, Nr = rows[a]
        va = v[:, a]
        Va = V[:, a]
        Xa = Y[Xr]
        dXa = dY[Xr]
        tmp = dY[Nr]                     # scratch until dN is written last
        np.multiply(va, Xa, out=dY[fr])
        np.multiply(eps * Va, Y[Nr], out=dXa)
        if not c_vanishes:
            np.subtract(dXa, np.multiply(c * va, Y[fr], out=tmp), out=dXa)
        if not h_vanishes:
            for i in range(3):
                if i != a:
                    hia = h[:, i, a]
                    np.multiply(hia, Xa, out=dY[X[i]])
                    np.subtract(dXa, np.multiply(hia, Y[X[i]], out=tmp), out=dXa)
        np.multiply(-Va, Xa, out=dY[Nr])

    body.moving = [np.r_[f, X[a], N] for a in range(3)] if h_vanishes else None
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
    (states,), _ = sweep_integrate(triple, grid, tuple(sweep_order),
                                   [(_frame_body, init.as_array())], max_step,
                                   integrability_tol)
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
    report = ResidualReport(metadata={"max_step": ff.max_step, "scheme": "RK4 sweep"})
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
    report = ResidualReport(metadata={"max_step": ff.max_step})
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
