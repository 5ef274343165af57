"""Holonomic data (v, h, V): integrability residuals, first integrals,
classification, principal curvatures, and the companion second fundamental form.

Index convention throughout: h[i, j] = h_ij = (1/v_i) dv_j/du_i, so the first
index is the differentiation direction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .ambient import SpaceFormSpec
from .errors import (
    BranchViolation,
    DegenerateTriple,
    GridMismatch,
    GridTooCoarse,
    InvalidParams,
    NotAFirstIntegralSolution,
    PreconditionFailed,
    UmbilicSetError,
)
from .grid import ParameterGrid, partial_derivative, stencil_halo
from .report import ResidualReport

CANONICAL_DELTA = (1, -1, 1)
ALL_MINUS_DELTA = (-1, -1, -1)
DEFAULT_CLASSIFY_TOL = 1e-6
_DISTINCT_GAP = 1e-10   # principal-curvature gap under which triple_from_curvatures raises
_ZERO_H = np.zeros((3, 3))      # h of a constant triple, broadcast by eval_at
_ZERO_H.flags.writeable = False


def _check_delta(delta):
    delta = tuple(int(d) for d in delta)
    if any(d not in (-1, 1) for d in delta):
        raise InvalidParams(f"delta entries must be +-1, got {delta}")
    return delta


def delta_inner(delta, x, y, axis=0):
    """Sum_i delta_i x_i y_i with the component axis given explicitly."""
    d = np.asarray(delta, dtype=float)
    shape = [1] * np.ndim(x)
    shape[axis] = 3
    return np.sum(d.reshape(shape) * np.asarray(x) * np.asarray(y), axis=axis)


def _weights(t):
    """The cubic B-spline weights of the stencil nodes base - 1 .. base + 2 at
    the offset t = x - base, as Horner forms of the four cubics.

    One elementwise formula for a float and for an array of any shape, so a
    weight has the same bits whether it is computed once for many points or
    once per point."""
    s = 1.0 - t
    return (s * s * s / 6.0,
            (4.0 + t * t * (3.0 * t - 6.0)) / 6.0,
            (1.0 + t * (3.0 + t * (3.0 - 3.0 * t))) / 6.0,
            t * t * t / 6.0)


def _combine(w, rows, out=None):
    """sum_k w[k] rows[k] over the four stencil rows, in a fixed order, into
    ``out`` (a new array when None) with one temporary."""
    out = np.multiply(w[0], rows[0], out=out)
    tmp = np.multiply(w[1], rows[1])
    np.add(out, tmp, out=out)
    for k in (2, 3):
        np.add(out, np.multiply(w[k], rows[k], out=tmp), out=out)
    return out


class _CubicSpline:
    """Not-a-knot cubic spline of the 15 components of (v, h, V), evaluated on
    grid lines.

    A point is on a grid line along axis a when its two other coordinates
    equal node values of the grid exactly, as on every line a sweep marches
    along.  On such a line the spline is the 1-D not-a-knot cubic of that
    line's samples: a cubic B-spline with knots at the nodes and n + 2
    coefficients, n of them interpolating the samples and two making the
    third derivative continuous at the second and the second-to-last node,
    so the two end pieces are the cubics through the first four and the last
    four nodes.  It is also the tensor-product not-a-knot spline of the whole
    box restricted to that line.  Its error falls like h^4, end cells
    included.

    For each axis a the coefficients of every line are the samples contracted
    on axis a with the inverse of that system (``_not_a_knot``), stored as an
    (n_b, n_c, n_a + 2, 15) table (b < c the other axes) in the order v (3),
    h (9, row-major), V (3).  The tables hold 3 n^2 (n + 2) 15 doubles on an
    n^3 grid, about 26 MB at 41^3.

    A point's value is the 4-weight sum ``_combine`` of 4 adjacent
    coefficient rows of its line, along the axis where it leaves the nodes;
    a point on a node is evaluated along axis 0.  Two paths compute it:

    - Line path.  A call whose points are K copies of one set of B lines
      along one axis a, copy k at one coordinate u_k along a (points
      k B .. k B + B - 1), as a sweep's batch of RK4 stages is, gathers the
      lines' rows once, when a call first reaches them, into a
      (n_a + 2, B, 15) slab that the spline keeps for the calls after it;
      it keeps one such slab, the last one gathered, and no other state
      between calls.  It computes the 4 weights of each u_k, groups the
      coordinates by stencil cell, and contracts each cell's weights with
      the slab's 4 rows of that cell, with no per-point gather: about 20
      numpy calls per call and 8 per cell, whatever K and B are.  A
      coordinate on a node of an axis a > 0 takes the point path, so that
      its points are evaluated along axis 0.
    - Point path.  Every other call (points on nodes, on lines other than
      the copies of one set) locates each point and gathers its own 4 rows:
      about 30 numpy calls, each over every point.

    Both paths compute the weights with one elementwise formula
    (``_weights``) and contract them in one order, so a point's value
    depends on the point alone: not on the call's other points, nor on the
    calls before it.

    Outside the box the end pieces extend: the stencil's base index floor(x)
    is clamped to [0, n - 2], so a point below the box evaluates the first
    piece's cubic and a point above it the last one's.  A non-finite sample
    makes every value on the lines through its node NaN in its component.
    Every axis needs at least 4 nodes (else GridTooCoarse).  A call whose
    points leave the nodes on more than one axis, NaN and infinite
    coordinates included, raises PreconditionFailed: the spline has no value
    off the grid lines.
    """

    def __init__(self, v, h, V, grid):
        n = tuple(grid.n)
        if min(n) < 4:
            raise GridTooCoarse(f"a not-a-knot cubic spline needs at least 4 nodes per axis, "
                                f"have {n}")
        samples = np.concatenate([v.reshape((3,) + n), h.reshape((9,) + n),
                                  V.reshape((3,) + n)])
        self._lo = np.asarray(grid.lo, dtype=float)
        self._spacing = np.asarray(grid.spacing, dtype=float)
        self._n = np.asarray(n, dtype=float)
        self._axes = [grid.axis(a) for a in range(3)]
        self._nodes = np.concatenate(self._axes)
        self._offset = np.cumsum((0,) + n[:2])
        self._top = self._n - 1.0
        self._lines = []
        for a in range(3):
            # (15, b, c, a + 2) -> (b, c, a + 2, 15) with b < c
            line = np.moveaxis(np.tensordot(samples, _not_a_knot(n[a]), axes=(1 + a, 1)), 0, -1)
            stride = np.zeros(3, dtype=np.intp)         # row of node (j, k, 0) on axis a
            stride[[i for i in range(3) if i != a]] = (line.shape[1] * line.shape[2],
                                                       line.shape[2])
            self._lines.append((np.ascontiguousarray(line).reshape(-1, 15), stride))
        self._slab = None       # (a, lines' points (B, 3), coefficient rows (n_a + 2, B, 15))

    def __call__(self, points):
        """Values at points (..., 3) on grid lines along one axis, as a
        (points, 15) array."""
        p = points.reshape(-1, 3)
        if self._slab is not None:
            a, key, slab = self._slab
            u = _copies(p, a, key)
            if u is not None:
                return self._on_slab(p, u, a, slab)
        x, node, on = self._locate(p)
        off = [a for a in range(3) if not on[:, a].all()]
        if len(off) > 1:
            raise PreconditionFailed(
                f"points leave the grid nodes on axes {off}; a sampled triple is "
                "evaluated only on grid lines along one axis"
            )
        if not off:
            return self._at_points(x, node, 0)
        a = off[0]
        moved = np.flatnonzero(p[:, a] != p[0, a])      # the first copy ends there
        key = p[:moved[0] if len(moved) else len(p)]
        u = _copies(p, a, key)
        if u is None:
            return self._at_points(x, node, a, on[:, a])
        table, stride = self._lines[a]
        rows = node[:len(key)] @ stride + np.arange(len(self._axes[a]) + 2)[:, None]
        self._slab = (a, key.copy(), np.take(table, rows, axis=0))
        return self._on_slab(p, u, a, self._slab[2])

    def _locate(self, p):
        """Each point's coordinates x in node units, its nearest node and
        whether it sits on that node, per axis."""
        x = (p - self._lo) / self._spacing
        # clamped before the cast: a NaN or infinite coordinate gets some index,
        # then fails the node test
        node = np.fmin(np.fmax(np.rint(x), 0.0), self._top).astype(np.intp)
        return x, node, self._nodes[node + self._offset] == p

    def _at_points(self, x, node, a, nodal=None):
        """The point path (class docstring): the points at ``x`` evaluated
        along axis ``a``, those ``nodal`` (on a node) along axis 0."""
        if a and nodal.any():
            out = np.empty((len(x), 15))
            out[nodal] = self._along(0, x[nodal], node[nodal])
            out[~nodal] = self._along(a, x[~nodal], node[~nodal])
            return out
        return self._along(a, x, node)

    def _along(self, a, x, node):
        """The points at ``x`` evaluated along axis ``a``, each from its own 4 rows."""
        table, stride = self._lines[a]
        base, t = _stencil(x[:, a], self._n[a])
        rows = np.take(table, node @ stride + base + np.arange(4)[:, None], axis=0)   # (4, B, 15)
        return _combine(_weights(t[:, None]), rows)

    def _on_slab(self, p, u, a, slab):
        """The line path (class docstring): the values at ``p``, K copies of
        the lines whose coefficient rows along axis ``a`` are ``slab``, copy
        k at the coordinate ``u[k]``."""
        K, B = len(u), slab.shape[1]
        # the point path's x, base and t for one coordinate per copy, in the same operations
        x = (u - self._lo[a]) / self._spacing[a]
        base, t = _stencil(x, self._n[a])
        nodes = self._axes[a]
        own = np.ones(K, dtype=bool)
        if a:
            own = nodes[np.fmin(np.fmax(np.rint(x), 0.0), len(nodes) - 1.0).astype(np.intp)] != u
        w = _weights(t[:, None, None])
        out = np.empty((K, B, 15))
        cuts = np.flatnonzero((base[1:] != base[:-1]) | (own[1:] != own[:-1])) + 1
        bounds = [0, *cuts.tolist(), K] if K else []
        for k0, k1 in zip(bounds[:-1], bounds[1:]):
            if own[k0]:
                cell = base[k0]
                _combine([wk[k0:k1] for wk in w], slab[cell:cell + 4], out=out[k0:k1])
            else:                       # on a node: along axis 0
                x0, node0, _ = self._locate(p[k0 * B:k1 * B])
                out[k0:k1] = self._along(0, x0, node0).reshape(k1 - k0, B, 15)
        return out.reshape(K * B, 15)


def _copies(p, a, key):
    """The coordinates u_k along axis ``a`` when the points ``p`` are K copies
    of the B points ``key``, copy k at u_k along ``a`` (points k B .. k B +
    B - 1); else None."""
    B = len(key)
    if not B or len(p) % B:
        return None
    q = p.reshape(-1, B, 3)
    same = q == key
    same[:, :, a] = q[:, :, a] == q[:, :1, a]
    return q[:, 0, a] if same.all() else None


def _not_a_knot(n):
    """The (n + 2, n) matrix from samples at n >= 4 nodes to the coefficients
    of their not-a-knot cubic B-spline interpolant.

    It is the inverse of the system whose rows 1..n interpolate the samples
    (the weights at t = 0, [1, 4, 1]/6, on coefficients i .. i + 2) and whose
    rows 0 and n + 1 make the third-derivative jump at the nodes 1 and n - 2
    vanish ([1, -4, 6, -4, 1] on coefficients 0 .. 4 and n - 3 .. n + 1),
    restricted to its sample columns.
    """
    system = np.zeros((n + 2, n + 2))
    rows = np.arange(n)
    for k, w in enumerate(_weights(0.0)[:3]):
        system[rows + 1, rows + k] = w
    jump = [1.0, -4.0, 6.0, -4.0, 1.0]
    system[0, :5] = jump
    system[-1, -5:] = jump
    return np.linalg.solve(system, np.eye(n + 2)[:, 1:-1])


def _stencil(x, n):
    """Stencil base index floor(x), clamped to [0, n - 2], and the offset
    t = x - base of coordinates x in node units, one of each per point.

    Outside [0, n - 1], t leaves [0, 1] and the weights are the end piece's
    polynomial.  NaN and infinite coordinates get a valid base and t = NaN."""
    # fmax/fmin send a NaN coordinate to a valid stencil
    base = np.fmin(np.fmax(np.floor(x), 0.0), n - 2.0)
    t = x - base
    t[np.isinf(t)] = np.nan                      # inf weights would turn 0 * inf into warnings
    return base.astype(np.intp), t


@dataclass
class TripleField:
    """The holonomic data (v, h, V) on a 3-parameter box, in one of two
    representations.

    A sampled triple (``from_samples``) holds the arrays v (3,) + grid.n,
    h (3, 3) + grid.n and V (3,) + grid.n.  A constant triple (``constant``)
    holds only its two 3-vectors v and V, with h = 0; its grid arrays are
    filled from them on first use.  ``masked`` (optional, True = excluded)
    marks nodes of a sampled triple invalidated by singularities upstream.
    """

    grid: ParameterGrid
    delta: tuple
    spec: SpaceFormSpec
    _v: np.ndarray = field(default=None, repr=False)
    _h: np.ndarray = field(default=None, repr=False)
    _V: np.ndarray = field(default=None, repr=False)
    masked: np.ndarray = None
    _vV: tuple = field(default=None, repr=False)    # (v, V) of a constant triple

    def __post_init__(self):
        self.delta = _check_delta(self.delta)
        self._interp = None         # a sampled triple's spline

    # --- constructors ---------------------------------------------------

    @classmethod
    def from_samples(cls, grid, delta, spec, v, h, V, masked=None):
        v = np.asarray(v, dtype=float)
        h = np.asarray(h, dtype=float)
        V = np.asarray(V, dtype=float)
        expect = (3,) + tuple(grid.n)
        if v.shape != expect or V.shape != expect or h.shape != (3, 3) + tuple(grid.n):
            raise InvalidParams("sample arrays have wrong shapes")
        return cls(grid, delta, spec, _v=v, _h=h, _V=V, masked=masked)

    @classmethod
    def constant(cls, grid, delta, spec, v, V):
        """Constant triple with h = 0, stored as its two 3-vectors v and V."""
        v = np.array(v, dtype=float).ravel()
        V = np.array(V, dtype=float).ravel()
        if v.size != 3 or V.size != 3:
            raise InvalidParams(f"a constant triple needs 3 values of v and of V, "
                                f"got {v.size} and {V.size}")
        return cls(grid, delta, spec, _vV=(v, V))

    # --- sampled views ----------------------------------------------------

    @property
    def closed_form(self) -> bool:
        """True for a constant triple, the one closed form."""
        return self._vV is not None

    @property
    def constant_values(self):
        """(v, V) of a constant triple, two 3-vectors."""
        return self._vV

    def _sample(self):
        """Fill a constant triple's read-only grid arrays, components first."""
        if self._v is None:
            v, V = self._vV
            n = tuple(self.grid.n)
            out = np.empty((3,) + n), np.zeros((3, 3) + n), np.empty((3,) + n)
            out[0].reshape(3, -1)[...] = v[:, None]
            out[2].reshape(3, -1)[...] = V[:, None]
            for values in out:
                values.flags.writeable = False
            self._v, self._h, self._V = out

    @property
    def v(self) -> np.ndarray:
        self._sample()
        return self._v

    @property
    def h(self) -> np.ndarray:
        self._sample()
        return self._h

    @property
    def V(self) -> np.ndarray:
        self._sample()
        return self._V

    def grid_values(self):
        """(v, h, V) over the grid, components first, without filling a
        constant triple's arrays: for it, read-only broadcast views of its
        two 3-vectors and of h = 0."""
        if not self.closed_form:
            return self.v, self.h, self.V
        v, V = self._vV
        n = tuple(self.grid.n)
        return tuple(np.broadcast_to(x.reshape(x.shape + (1, 1, 1)), x.shape + n)
                     for x in (v, np.zeros((3, 3)), V))

    def at(self, idx):
        """(v, h, V) at one grid node."""
        i, j, k = idx
        v, h, V = self.grid_values()
        return v[:, i, j, k], h[:, :, i, j, k], V[:, i, j, k]

    def eval_at(self, points):
        """(v, h, V) at points, shape (..., 3) -> components last, as read-only
        arrays.

        A constant triple's are read-only broadcasts of its two 3-vectors and
        of h = 0.  A sampled triple is read through ``_CubicSpline``, built on
        the first call, whose docstring states where it can be evaluated and
        its accuracy.  Its costs: a call whose points are K copies of one set
        of grid lines, copy k at one coordinate along them, as a sweep's batch
        of RK4 stages is, takes about 20 numpy calls plus 8 per stencil cell
        the coordinates fall in, however many points it has, once the lines'
        coefficient rows are gathered on the first such call; every other
        call, and the coordinates on nodes of an axis other than 0, about 30
        over every point.  Either way a point's value depends on the point
        alone, not on the call's other points or the calls before it.  Between
        calls the spline keeps the coefficient rows of the last line set it
        gathered, at most one (n_a + 2, lines, 15) slab.
        """
        points = np.asarray(points, dtype=float)
        if self.closed_form:
            return self._constant_at(points.shape[:-1])
        return self._spline_at(points)

    def _constant_at(self, lead):
        """A constant triple's read-only (v, h, V) at ``lead`` points, components last."""
        v, V = self._vV
        return (np.broadcast_to(v, lead + (3,)), np.broadcast_to(_ZERO_H, lead + (3, 3)),
                np.broadcast_to(V, lead + (3,)))

    def _spline_at(self, points):
        """A sampled triple's read-only (v, h, V) at ``points``, components last."""
        if self._interp is None:
            self._sample()
            self._interp = _CubicSpline(self._v, self._h, self._V, self.grid)
        out = self._interp(points)
        out.flags.writeable = False
        lead = points.shape[:-1]
        return (out[:, :3].reshape(lead + (3,)), out[:, 3:12].reshape(lead + (3, 3)),
                out[:, 12:].reshape(lead + (3,)))

    def valid_mask(self) -> np.ndarray:
        if self.masked is None:
            return np.ones(self.grid.n, dtype=bool)
        return ~self.masked


def _stencil_safe_mask(t: TripleField) -> np.ndarray:
    """Valid nodes whose finite-difference stencils avoid masked nodes."""
    valid = t.valid_mask()
    if t.masked is None or not t.masked.any():
        return valid
    return valid & ~stencil_halo(t.masked)


def h_from_v(v, spacing):
    """h_ij = (1/v_i) dv_j/du_i by the module stencil, shape (3, 3) + grid.n."""
    h = np.empty((3, 3) + v.shape[1:])
    for i in range(3):
        for j in range(3):
            h[i, j] = partial_derivative(v[j], i, spacing[i]) / v[i]
    return h


def _along(spacing):
    """d(values, a): the module stencil's derivative along u_a."""
    return lambda values, a: partial_derivative(values, a, spacing[a])


def _compatibility_rows(v, h, V, d, eps, c):
    """Residual rows of the Gauss-Codazzi equations 3.ii (6), 3.iii (3) and
    3.iv (6) of (v, h, V) in a space form with (eps, c), one grid plane at a
    time, in that order; ``d(values, a)`` is the derivative along u_a.

    Only the derivatives the equations read are taken: 12 of the 27 dh_ij/du_a
    and the 6 off-diagonal dV_i/du_j.
    """
    for i, k in itertools.permutations(range(3), 2):
        j = 3 - i - k
        yield d(h[i, k], j) - h[i, j] * h[j, k]
    for i, j in itertools.combinations(range(3), 2):
        k = 3 - i - j
        yield (d(h[i, j], i) + d(h[j, i], j) + h[k, i] * h[k, j]
               + eps * V[i] * V[j] + c * v[i] * v[j])
    for i, j in itertools.permutations(range(3), 2):
        yield d(V[i], j) - h[j, i] * V[j]


def _stacks(rows, counts):
    """The next counts[0], counts[1], ... rows of ``rows``, one stack each."""
    return [np.stack(list(itertools.islice(rows, n))) for n in counts]


def compatibility_residuals(v, h, V, spacing, eps, c):
    """Residual stacks of the Gauss-Codazzi equations 3.ii (6), 3.iii (3) and
    3.iv (6) of sampled (v, h, V) in a space form with (eps, c)."""
    return tuple(_stacks(_compatibility_rows(v, h, V, _along(spacing), eps, c), (6, 3, 6)))


# the entries of triple_residuals and their row counts, in the order of _triple_rows
_TRIPLE_ENTRIES = (("3.i", 6), ("3.ii", 6), ("3.iii", 3), ("3.iv", 6), ("4", 3), ("5", 3))


def _triple_rows(t: TripleField, constant=False):
    """Residual rows of every equation of ``triple_residuals``, one grid plane
    at a time, in the order of ``_TRIPLE_ENTRIES``.

    With ``constant``, a constant triple's rows are evaluated on its two
    3-vectors and h = 0 with every derivative exactly 0, one number each.
    """
    t.grid.require_resolution(5)
    delta = t.delta
    if constant:
        (v, V), h, d = t.constant_values, _ZERO_H, lambda values, a: 0.0
    else:
        v, h, V, d = t.v, t.h, t.V, _along(t.grid.spacing)
    for i, j in itertools.permutations(range(3), 2):
        yield d(v[i], j) - h[j, i] * v[j]
    yield from _compatibility_rows(v, h, V, d, t.spec.eps, t.spec.c)
    for i in range(3):
        j, k = [a for a in range(3) if a != i]
        yield delta[i] * d(v[i], i) + delta[j] * h[i, j] * v[j] + delta[k] * h[i, k] * v[k]
    for i in range(3):
        j, k = [a for a in range(3) if a != i]
        yield delta[i] * d(V[i], i) + delta[j] * h[i, j] * V[j] + delta[k] * h[i, k] * V[k]


def triple_residuals(t: TripleField) -> ResidualReport:
    """Residuals of the integrability system plus the two added equations.

    Entries: '3.i', '3.ii', '3.iii', '3.iv', '4', '5'.  Derivatives follow
    the module stencil (central interior, one-sided faces, both order 2).
    """
    rows = _triple_rows(t)
    mask = _stencil_safe_mask(t)
    report = ResidualReport(metadata={"stencil": "order-2 central/one-sided",
                                      "spacing": list(t.grid.spacing)})
    names, counts = zip(*_TRIPLE_ENTRIES)
    for name, stack in zip(names, _stacks(rows, counts)):
        report.add(name, stack, np.broadcast_to(mask, stack.shape))
    return report


def _largest_residual(t: TripleField) -> float:
    """``triple_residuals(t).overall_max``, read one residual row at a time.

    A constant triple with no mask is read exactly, every derivative 0,
    where the report's stencils on constant planes add rounding.
    """
    if t.closed_form and t.masked is None:
        return float(np.max(np.abs(list(_triple_rows(t, constant=True)))))
    rows, keep = _triple_rows(t), _stencil_safe_mask(t)
    worst = 0.0
    for row in rows:
        # NaN propagates through np.maximum; no kept node leaves 0.0
        worst = np.maximum(worst, np.max(np.abs(row, out=row), where=keep, initial=0.0))
        del row                                     # hold one row while the next is made
    return float(worst)


def check_sweep_input(t: TripleField, grid: ParameterGrid, integrability_tol):
    """Raise unless ``t`` can drive a sweep over ``grid``.

    A sweep runs on the triple's own grid: any other grid raises
    GridMismatch, whether ``t`` is sampled or constant.  With
    ``integrability_tol`` set, the largest triple residual must not exceed it
    either (else PreconditionFailed).  That one number is
    ``triple_residuals(t).overall_max`` from the same residual rows, with no
    report built (``_largest_residual``).

    Sampled data must be finite at every node, and the two 3-vectors of a
    constant triple finite (else PreconditionFailed).  A sweep reads sampled
    data through ``_CubicSpline``, where a non-finite sample spreads along the
    grid lines through its node, and the sweep carries it on from there.
    """
    if not grid.same_as(t.grid):
        raise GridMismatch(
            f"sweep grid {grid.lo}..{grid.hi} x {grid.n} is not the triple's grid "
            f"{t.grid.lo}..{t.grid.hi} x {t.grid.n}"
        )
    if t.closed_form:
        v, V = t.constant_values
        if not (np.isfinite(v).all() and np.isfinite(V).all()):
            raise PreconditionFailed(
                f"constant triple is not finite: v = {v.tolist()}, V = {V.tolist()}"
            )
    else:
        finite = (np.isfinite(t.v).all(axis=0) & np.isfinite(t.h).all(axis=(0, 1))
                  & np.isfinite(t.V).all(axis=0))
        if not finite.all():
            raise PreconditionFailed(
                f"sampled triple is non-finite at {int((~finite).sum())} nodes; "
                "interpolating it would give NaN on every grid line through them"
            )
    if integrability_tol is not None:
        worst = _largest_residual(t)
        if not worst <= integrability_tol:               # NaN fails too
            raise PreconditionFailed(
                f"seed residual {worst:.3e} exceeds {integrability_tol:.1e}"
            )


@dataclass(frozen=True)
class FirstIntegralTriple:
    """Values of the three delta-weighted conserved sums."""

    K1: float
    K2: float
    K3: float

    def as_tuple(self):
        return (self.K1, self.K2, self.K3)


def first_integrals(t: TripleField, idx) -> FirstIntegralTriple:
    v, _, V = t.at(idx)
    d = np.asarray(t.delta, dtype=float)
    return FirstIntegralTriple(
        K1=float(np.sum(d * v * v)),
        K2=float(np.sum(d * v * V)),
        K3=float(np.sum(d * V * V)),
    )


def first_integral_fields(t: TripleField):
    """K1, K2, K3 evaluated at every node (arrays of shape grid.n)."""
    v, V = t.v, t.V
    return (
        delta_inner(t.delta, v, v),
        delta_inner(t.delta, v, V),
        delta_inner(t.delta, V, V),
    )


@dataclass(frozen=True)
class TildeBranch:
    """One resolution of C = eps_tilde (c - c_tilde)."""

    eps_tilde: int
    c_tilde: float
    spec: SpaceFormSpec


@dataclass(frozen=True)
class Classification:
    kind: str                      # "ProblemStar" | "ConformallyFlat" | "Neither"
    K: FirstIntegralTriple
    drift: float
    eps_hat: int = None
    C: float = None
    branches: tuple = ()
    permutation: tuple = None      # permutation carrying delta to (1, -1, 1)

    @property
    def is_problem_star(self):
        return self.kind == "ProblemStar"

    @property
    def is_conformally_flat(self):
        return self.kind == "ConformallyFlat"


def _delta_canonical_permutation(delta):
    """Lexicographically first permutation p with delta[p] == (1, -1, 1)."""
    for p in itertools.permutations(range(3)):
        if tuple(delta[i] for i in p) == CANONICAL_DELTA:
            return p
    return None


def classify(t: TripleField, tol=DEFAULT_CLASSIFY_TOL) -> Classification:
    """Match the first integrals against the two target patterns.

    ProblemStar: (K1, K2, K3) ~ (+-1, 0, C) with the delta-case rule; the
    target curvature is reported for both choices eps_tilde = +-1 through
    C = eps_tilde (c - c_tilde).  ConformallyFlat: ~ (0, 0, 1) with delta a
    permutation of (1, -1, 1).

    Raises NotAFirstIntegralSolution when the sums drift over the valid nodes
    by more than ``tol`` (relative), or when K at the base node, a drift or a
    target curvature c_tilde is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):    # non-finite sums raise below
        K1f, K2f, K3f = first_integral_fields(t)
    valid = t.valid_mask()
    base = t.grid.base
    if not valid[base]:
        raise PreconditionFailed("grid base node is masked")
    K = FirstIntegralTriple(float(K1f[base]), float(K2f[base]), float(K3f[base]))
    if not np.isfinite(K.as_tuple()).all():
        raise NotAFirstIntegralSolution(f"first integrals K = {K.as_tuple()} are not finite")
    drift = 0.0
    for f, b in ((K1f, K.K1), (K2f, K.K2), (K3f, K.K3)):
        dev = float(np.max(np.abs(f[valid] - b))) if valid.any() else 0.0
        scale = max(1.0, abs(b))
        if not dev <= tol * scale:                       # NaN fails too
            raise NotAFirstIntegralSolution(
                f"first integrals drift by {dev:.3e} (> {tol:.1e} relative)"
            )
        drift = max(drift, dev)

    perm = _delta_canonical_permutation(t.delta)
    abs_tol = tol * max(1.0, abs(K.K1), abs(K.K2), abs(K.K3))

    eps_hat = None
    if abs(K.K1 - 1.0) <= abs_tol:
        eps_hat = 1
    elif abs(K.K1 + 1.0) <= abs_tol:
        eps_hat = -1
    if eps_hat is not None and abs(K.K2) <= abs_tol:
        C = K.K3
        delta_ok = False
        if eps_hat == 1 and perm is not None:
            delta_ok = True
        elif eps_hat == -1 and C > abs_tol and perm is not None:
            delta_ok = True
        elif eps_hat == -1 and C < -abs_tol and t.delta == ALL_MINUS_DELTA:
            delta_ok = True
        if delta_ok:
            c_tilde = {e: t.spec.c - e * C for e in (1, -1)}
            if not np.isfinite(list(c_tilde.values())).all():
                raise NotAFirstIntegralSolution(
                    f"first integrals K = {K.as_tuple()} give a target curvature "
                    f"c - eps_tilde K3 that is not finite"
                )
            branches = tuple(TildeBranch(e, ct, SpaceFormSpec(ct, (1 - e) // 2))
                             for e, ct in c_tilde.items())
            return Classification("ProblemStar", K, drift, eps_hat=eps_hat, C=C,
                                  branches=branches, permutation=perm)

    if (abs(K.K1) <= abs_tol and abs(K.K2) <= abs_tol
            and abs(K.K3 - 1.0) <= abs_tol and perm is not None):
        return Classification("ConformallyFlat", K, drift, permutation=perm)

    return Classification("Neither", K, drift, permutation=perm)


def principal_curvatures(t: TripleField, idx):
    """lambda_i = V_i / v_i at one node; DegenerateTriple where some v_i = 0."""
    v, _, V = t.at(idx)
    if np.any(v == 0.0):
        raise DegenerateTriple(f"v = {tuple(v)} has a vanishing component at {tuple(idx)}")
    return tuple(V / v)


def companion_V(t: TripleField, tol=DEFAULT_CLASSIFY_TOL) -> np.ndarray:
    """Second fundamental form data of the companion immersion.

    Vtilde_j = (-1)^(j+1) delta_j (v_i V_k - v_k V_i) with (i, k) the
    complement of j in increasing order (1-based signs).  Requires a
    ProblemStar triple.
    """
    cls = classify(t, tol)
    if not cls.is_problem_star:
        raise PreconditionFailed(f"companion data needs a ProblemStar triple, got {cls.kind}")
    v, V = t.v, t.V
    out = np.empty_like(V)
    for j in range(3):
        i, k = [a for a in range(3) if a != j]
        sign = (-1.0) ** j                      # 1-based (-1)^(j+1)
        out[j] = sign * t.delta[j] * (v[i] * V[k] - v[k] * V[i])
    return out


def triple_from_curvatures(lams, delta, spec: SpaceFormSpec, grid: ParameterGrid,
                           problem_star=None) -> TripleField:
    """Recover the holonomic data from principal-curvature fields.

    Conformally flat branch (default): v_j = sqrt(delta_j / ((l_j - l_i)(l_j - l_k))).
    ProblemStar branch (problem_star = (eps_hat, C)):
    v_j = sqrt(delta_j (C + eps_hat l_i l_k) / ((l_j - l_i)(l_j - l_k))).
    V = lambda v; h from finite differences of v.
    """
    delta = _check_delta(delta)
    if callable(lams):
        lam = np.asarray(lams(*grid.meshes()), dtype=float)
    else:
        lam = np.asarray(lams, dtype=float)
    if lam.shape != (3,) + tuple(grid.n):
        raise InvalidParams("lambda fields must have shape (3,) + grid.n")

    for i, j in itertools.combinations(range(3), 2):
        gap = np.min(np.abs(lam[i] - lam[j]))
        if gap < _DISTINCT_GAP:
            raise UmbilicSetError(f"principal curvatures {i} and {j} coincide (gap {gap:.2e})")

    v = np.empty_like(lam)
    for j in range(3):
        i, k = [a for a in range(3) if a != j]
        numer = 1.0 if problem_star is None else (
            problem_star[1] + problem_star[0] * lam[i] * lam[k]
        )
        radicand = delta[j] * numer / ((lam[j] - lam[i]) * (lam[j] - lam[k]))
        if np.any(radicand <= 0):
            raise BranchViolation(f"nonpositive radicand for component {j}")
        v[j] = np.sqrt(radicand)

    V = lam * v
    return TripleField.from_samples(grid, delta, spec, v, h_from_v(v, grid.spacing), V)
