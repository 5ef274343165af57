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


# Cubic B-spline weights of the stencil nodes base - 1 .. base + 2 as
# polynomials in t = x - base: weights = [1, t, t^2, t^3] @ _BSPLINE.
_BSPLINE = np.array([[1.0, 4.0, 1.0, 0.0],
                     [-3.0, 0.0, 3.0, 0.0],
                     [3.0, -6.0, 3.0, 0.0],
                     [-1.0, 3.0, -3.0, 1.0]]) / 6.0


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
    h (9, row-major), V (3).  A point costs one gather of 4 adjacent rows and
    a 4-weight sum.  The tables hold 3 n^2 (n + 2) 15 doubles on an n^3 grid,
    about 26 MB at 41^3.

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
        self._nodes = np.concatenate([grid.axis(a) for a in range(3)])
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
        self._line_step = np.arange(4)

    def __call__(self, points):
        """Values at points (..., 3) on grid lines along one axis, as a
        (points, 15) array."""
        p = points.reshape(-1, 3)
        x = (p - self._lo) / self._spacing
        # clamped before the cast: a NaN or infinite coordinate gets some index,
        # then fails the node test
        node = np.fmin(np.fmax(np.rint(x), 0.0), self._top).astype(np.intp)
        on = (self._nodes[node + self._offset] == p).all(axis=0).tolist()
        off = [a for a in range(3) if not on[a]]
        if len(off) > 1:
            raise PreconditionFailed(
                f"points leave the grid nodes on axes {off}; a sampled triple is "
                "evaluated only on grid lines along one axis"
            )
        a = off[0] if off else 0
        table, stride = self._lines[a]
        base, w = _stencil(x[:, a], self._n[a])                           # w (B, 4)
        rows = np.take(table, (node @ stride + base)[:, None] + self._line_step, axis=0)
        return (w[:, None, :] @ rows)[:, 0, :]


def _not_a_knot(n):
    """The (n + 2, n) matrix from samples at n >= 4 nodes to the coefficients
    of their not-a-knot cubic B-spline interpolant.

    It is the inverse of the system whose rows 1..n interpolate the samples
    ([1, 4, 1]/6 on coefficients i .. i + 2) and whose rows 0 and n + 1 make
    the third-derivative jump at the nodes 1 and n - 2 vanish ([1, -4, 6, -4, 1]
    on coefficients 0 .. 4 and n - 3 .. n + 1), restricted to its sample columns.
    """
    system = np.zeros((n + 2, n + 2))
    rows = np.arange(n)
    for k, w in enumerate(_BSPLINE[0, :3]):
        system[rows + 1, rows + k] = w
    jump = [1.0, -4.0, 6.0, -4.0, 1.0]
    system[0, :5] = jump
    system[-1, -5:] = jump
    return np.linalg.solve(system, np.eye(n + 2)[:, 1:-1])


def _stencil(x, n):
    """Stencil base index floor(x), clamped to [0, n - 2], and the cubic
    B-spline weights (x.shape + (4,)) of coordinates x in node units.

    Outside [0, n - 1] the weights are the end piece's polynomial.  NaN and
    infinite coordinates get a valid base and NaN weights."""
    # fmax/fmin send a NaN coordinate to a valid stencil
    base = np.fmin(np.fmax(np.floor(x), 0.0), n - 2.0)
    t = x - base
    t[np.isinf(t)] = np.nan                      # inf weights would turn 0 * inf into warnings
    w = (t[..., None] ** np.arange(4)) @ _BSPLINE
    return base.astype(np.intp), w


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
        self._batch = None          # a constant triple's (shape, (v, h, V)) of its last batch

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

    def _filled(self, shape):
        """Read-only (v, h, V) of a constant triple at every point of ``shape``,
        components first."""
        v, V = self._vV
        out = np.empty((3,) + shape), np.zeros((3, 3) + shape), np.empty((3,) + shape)
        out[0].reshape(3, -1)[...] = v[:, None]
        out[2].reshape(3, -1)[...] = V[:, None]
        for values in out:
            values.flags.writeable = False
        return out

    def _sample(self):
        if self._v is None:
            self._v, self._h, self._V = self._filled(tuple(self.grid.n))

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

    def at(self, idx):
        """(v, h, V) at one grid node."""
        i, j, k = idx
        return self.v[:, i, j, k], self.h[:, :, i, j, k], self.V[:, i, j, k]

    def eval_at(self, points):
        """(v, h, V) at points, shape (..., 3) -> components last.

        A constant triple fills its values once per batch shape and hands
        the same read-only arrays out again while the shape repeats, as it
        does for every call of a sweep's axis phase.  A sampled triple is
        read through ``_CubicSpline``, built on the first call, whose
        docstring states where it can be evaluated, its accuracy and its
        costs.
        """
        points = np.asarray(points, dtype=float)
        lead = points.shape[:-1]
        if self.closed_form:
            if self._batch is None or self._batch[0] != lead:
                v, h, V = self._filled(lead)
                axes = tuple(range(1, len(lead) + 1))
                self._batch = lead, (v.transpose(axes + (0,)),
                                     h.transpose(tuple(a + 1 for a in axes) + (0, 1)),
                                     V.transpose(axes + (0,)))
            return self._batch[1]
        if self._interp is None:
            self._sample()
            self._interp = _CubicSpline(self._v, self._h, self._V, self.grid)
        out = self._interp(points)
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


def _compatibility_rows(v, h, V, spacing, eps, c):
    """Residual rows of the Gauss-Codazzi equations 3.ii (6), 3.iii (3) and
    3.iv (6) of sampled (v, h, V) in a space form with (eps, c), one grid
    plane at a time, in that order.

    Only the derivatives the equations read are taken: 12 of the 27 dh_ij/du_a
    and the 6 off-diagonal dV_i/du_j.
    """
    def d(values, a):
        return partial_derivative(values, a, spacing[a])

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
    return tuple(_stacks(_compatibility_rows(v, h, V, spacing, eps, c), (6, 3, 6)))


# the entries of triple_residuals and their row counts, in the order of _triple_rows
_TRIPLE_ENTRIES = (("3.i", 6), ("3.ii", 6), ("3.iii", 3), ("3.iv", 6), ("4", 3), ("5", 3))


def _triple_rows(t: TripleField, values=None):
    """Residual rows of every equation of ``triple_residuals``, one grid plane
    at a time, in the order of ``_TRIPLE_ENTRIES``.

    ``values`` replaces (t.v, t.h, t.V) by arrays of another shape; the
    derivatives still take the spacing of ``t.grid``.
    """
    t.grid.require_resolution(5)
    v, h, V = (t.v, t.h, t.V) if values is None else values
    delta = t.delta
    sp = t.grid.spacing

    def d(values, a):
        return partial_derivative(values, a, sp[a])

    for i, j in itertools.permutations(range(3), 2):
        yield d(v[i], j) - h[j, i] * v[j]
    yield from _compatibility_rows(v, h, V, sp, t.spec.eps, t.spec.c)
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

    A constant triple with no mask is read on a 5 x 5 x 5 stand-in of its
    values: the stencils are pointwise, so each residual row takes at a node
    the value fixed by the stencil on each axis (low face, interior, high
    face), and a 5-node axis has all three.
    """
    if t.closed_form and t.masked is None:
        rows, keep = _triple_rows(t, t._filled((5, 5, 5))), True
    else:
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
    ``triple_residuals(t).overall_max``, read from the same residual rows one
    grid plane at a time, with no report built.

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
