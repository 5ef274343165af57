"""3-parameter sampling boxes and the finite-difference stencils used everywhere.

Stencils (spacing h, index i along one axis):

  first derivative, interior:   (f[i+1] - f[i-1]) / (2 h)
  first derivative, faces:      (-3 f[0] + 4 f[1] - f[2]) / (2 h)   (mirrored at the top)
  second derivative, interior:  (f[i+1] - 2 f[i] + f[i-1]) / h^2
  second derivative, faces:     (2 f[0] - 5 f[1] + 4 f[2] - f[3]) / h^2

All are second order; every residual built on them scales with h^2.  Mixed
second derivatives compose two first-derivative passes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .ambient import sig_inner
from .errors import GridTooCoarse, InvalidParams


@dataclass(frozen=True)
class ParameterGrid:
    """Axis-aligned box [lo, hi] sampled with n nodes per axis.

    ``base`` is the index of the anchor node used as the starting point of
    sweep integrations and as the reference node of first-integral checks.
    """

    lo: tuple
    hi: tuple
    n: tuple
    base: tuple = None

    def __post_init__(self):
        lo = tuple(float(x) for x in self.lo)
        hi = tuple(float(x) for x in self.hi)
        n = tuple(int(k) for k in self.n)
        if len(lo) != 3 or len(hi) != 3 or len(n) != 3:
            raise InvalidParams("grid needs 3 components per field")
        if any(k < 2 for k in n):
            raise InvalidParams("need at least 2 samples per axis")
        if not all(math.isfinite(x) for x in lo + hi):
            raise InvalidParams(f"grid bounds must be finite, got lo={lo}, hi={hi}")
        if any(a >= b for a, b in zip(lo, hi)):
            raise InvalidParams("lo must be strictly below hi componentwise")
        base = self.base if self.base is not None else (0, 0, 0)
        base = tuple(int(i) for i in base)
        if any(not 0 <= i < k for i, k in zip(base, n)):
            raise InvalidParams("base index out of range")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "base", base)

    @classmethod
    def centered(cls, half, n, center=(0.0, 0.0, 0.0)):
        """Box center +- half per axis, with the base at the central node."""
        if np.isscalar(half):
            half = (half,) * 3
        if np.isscalar(n):
            n = (n,) * 3
        lo = tuple(c - h for c, h in zip(center, half))
        hi = tuple(c + h for c, h in zip(center, half))
        base = tuple((int(k) - 1) // 2 for k in n)
        return cls(lo, hi, n, base)

    @property
    def spacing(self) -> tuple:
        return tuple((b - a) / (k - 1) for a, b, k in zip(self.lo, self.hi, self.n))

    def axis(self, a) -> np.ndarray:
        return np.linspace(self.lo[a], self.hi[a], self.n[a])

    @property
    def shape(self) -> tuple:
        return self.n

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(np.subtract(self.hi, self.lo)))

    def meshes(self):
        """Coordinate arrays (U1, U2, U3), each of shape n."""
        return np.meshgrid(self.axis(0), self.axis(1), self.axis(2), indexing="ij")

    def points(self) -> np.ndarray:
        """All node coordinates, shape n + (3,)."""
        return np.stack(self.meshes(), axis=-1)

    def point(self, idx) -> np.ndarray:
        return np.array([self.axis(a)[idx[a]] for a in range(3)])

    @property
    def base_point(self) -> np.ndarray:
        return self.point(self.base)

    @property
    def far_corner(self) -> tuple:
        return tuple(k - 1 for k in self.n)

    def require_resolution(self, minimum=5):
        if any(k < minimum for k in self.n):
            raise GridTooCoarse(f"need at least {minimum} nodes per axis, have {self.n}")

    def same_as(self, other) -> bool:
        """Same nodes: equal n, lo and hi (the base may differ)."""
        return self.n == other.n and self.lo == other.lo and self.hi == other.hi


def partial_derivative(values, axis, spacing):
    """Second-order first derivative along one grid axis of ``values``
    (axes 0-2 in the trailing layout, 1-3 on component planes)."""
    return np.gradient(values, spacing, axis=axis, edge_order=2)


def second_derivative(values, axis, spacing):
    """Second-order pure second derivative along one axis.

    The interior is written into the output with ``out=``, no temporaries;
    every node sees the operations of the stencils in the module docstring,
    in that order.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[axis] < 4:
        raise GridTooCoarse("second derivative stencil needs 4 nodes per axis")
    out = np.empty_like(values)
    h2 = spacing * spacing
    f = np.moveaxis(values, axis, 0)
    d2 = np.moveaxis(out, axis, 0)

    mid = d2[1:-1]
    np.multiply(2.0, f[1:-1], out=mid)
    np.subtract(f[2:], mid, out=mid)
    np.add(mid, f[:-2], out=mid)
    np.divide(mid, h2, out=mid)

    d2[0] = (2 * f[0] - 5 * f[1] + 4 * f[2] - f[3]) / h2
    d2[-1] = (2 * f[-1] - 5 * f[-2] + 4 * f[-3] - f[-4]) / h2
    return out


def induced_metric_tensor(df, sig, axis=-1):
    """g_ij = sum over the component axis of df_i df_j sig, shape (3, 3) + grid.n.

    ``df`` holds the three first partials of a position field, each with its
    components on ``axis``: the trailing axis of ``partial_derivative`` on
    axes 0-2 of ``grid.n + (dim,)`` positions, or axis 0 of the partials on
    axes 1-3 of ``(dim,) + grid.n`` component planes.  Entries with i <= j
    are computed and mirrored, which is exact: products commute.
    """
    shape = list(df[0].shape)
    del shape[axis]
    g = np.empty((3, 3) + tuple(shape))
    for i, j in itertools.combinations_with_replacement(range(3), 2):
        g[i, j] = g[j, i] = sig_inner(df[i], df[j], sig, axis)
    return g


def stencil_halo(mask):
    """``mask`` grown by three nodes along every axis (the 7x7x7 box): the
    nodes that residuals composed from several stencils exclude around a
    masked node.  The box is separable: a max over seven nodes along each
    axis in turn."""
    grown = np.array(mask, dtype=bool)
    for axis in range(grown.ndim):
        src = np.moveaxis(grown.copy(), axis, 0)
        dst = np.moveaxis(grown, axis, 0)
        for s in range(1, 4):
            dst[s:] |= src[:-s]
            dst[:-s] |= src[s:]
    return grown
