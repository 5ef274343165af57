"""Signed inner-product spaces, space-form models, and ambient geodesics.

Every space form is realized as a flat model: curvature c = 0 lives in a
4-dimensional signed space, c != 0 as the quadric <p, p> = 1/c inside a
5-dimensional signed space.  Signatures are explicit diagonal +-1 vectors;
the basis convention places the timelike directions so that the standard
frame (X1, X2, X3, N[, sqrt|c| f]) = (E1, ..., E4[, E5]) is orthonormal with
<N, N> = eps and <f, f> = 1/c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidTangent, InvalidParams

DEFAULT_TANGENT_TOL = 1e-9


@dataclass(frozen=True)
class SignedSpace:
    """Flat pseudo-Euclidean space with an explicit diagonal signature."""

    signature: tuple

    def __post_init__(self):
        sig = tuple(int(s) for s in self.signature)
        if any(s not in (-1, 1) for s in sig):
            raise InvalidParams(f"signature entries must be +-1, got {sig}")
        object.__setattr__(self, "signature", sig)

    @property
    def dim(self) -> int:
        return len(self.signature)

    @property
    def index(self) -> int:
        """Number of -1 entries."""
        return sum(1 for s in self.signature if s == -1)

    @property
    def sig_array(self) -> np.ndarray:
        return np.asarray(self.signature, dtype=float)


def sig_inner(x, y, sig, axis=-1):
    """sum_i x_i y_i sig_i over the component axis ``axis``, one batched add
    per component.

    Two layouts meet here: trailing components, ``grid.n + (dim,)``, and
    contiguous component planes, ``(dim,) + grid.n`` with ``axis=0``.  The
    bytes, in either layout, equal those of the trailing-axis sum
    ``np.sum(x * y * sig, axis=-1)``, signed zeros and NaN signs included:
    for a short trailing axis numpy starts from +0.0 and adds the components
    in order, and the first NaN of that chain is the one it returns.

    Each product (x_i y_i) sig_i goes into one scratch plane, and the running
    sum starts from +0.0 and adds the planes in order.  No whole-array
    ``x * y * sig`` is formed, and adding whole planes avoids the reduction's
    per-node inner loop.  numpy's contiguous loops pick between two NaN
    operands by SIMD lane (the lanes past the last full vector return the
    second operand, and an in-place add on a tiny output returns the other
    one again), so nodes whose sum is NaN are summed again out of place in
    the strided order, where the running sum's NaN always wins.  Where x_i
    and y_i are both NaN with different bits, the product's NaN is whichever
    numpy's multiply returns at that position; no layout-free rule exists
    for it.
    """
    x, y = np.asarray(x), np.asarray(y)
    full = np.broadcast(x, y).shape
    shape = full[:axis] + (full[axis + 1:] if axis != -1 else ())
    at = (slice(None),) * axis if axis >= 0 else (Ellipsis,)
    rest = (slice(None),) * (-1 - axis) if axis < 0 else ()
    out, scratch = np.zeros(shape), np.empty(shape)
    for k in range(len(sig)):
        np.multiply(x[at + (k,) + rest], y[at + (k,) + rest], out=scratch)
        np.multiply(scratch, sig[k], out=scratch)
        np.add(out, scratch, out=out)
    nan = np.isnan(out)
    if nan.any():
        # (nodes, dim) rows in C order, so each component is a strided column
        x, y = (np.moveaxis(np.broadcast_to(a, full), axis, -1)[nan] for a in (x, y))
        p = x * y * sig
        redo = np.zeros(len(p))
        for k in range(len(sig)):
            redo = redo + p[:, k]
        out[nan] = redo
    return out


def inner(space: SignedSpace, x, y):
    """Signature inner product sum_i sig_i x_i y_i (vectorized on the last axis)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-1] != space.dim or y.shape[-1] != space.dim:
        raise DimensionError(
            f"expected vectors of length {space.dim}, got {x.shape[-1]} and {y.shape[-1]}"
        )
    prod = sig_inner(x, y, space.sig_array)
    return float(prod) if prod.ndim == 0 else prod


@dataclass(frozen=True)
class SpaceFormSpec:
    """Space form Q^4_s(c) together with its flat ambient model.

    eps = 1 - 2s; eps0 = 0 for c > 0, 1 for c < 0, absent for c = 0.
    Ambient: dim 5 with index s + eps0 when c != 0, dim 4 with index s
    when c = 0.
    """

    c: float
    s: int

    def __post_init__(self):
        if self.s not in (0, 1):
            raise InvalidParams(f"index s must be 0 or 1, got {self.s}")
        if not math.isfinite(self.c):
            raise InvalidParams(f"curvature c must be finite, got {self.c}")

    @property
    def eps(self) -> int:
        return 1 - 2 * self.s

    @property
    def eps0(self):
        if self.c == 0:
            return None
        return 0 if self.c > 0 else 1

    @property
    def ambient(self) -> SignedSpace:
        base = (1, 1, 1, self.eps)
        if self.c == 0:
            return SignedSpace(base)
        return SignedSpace(base + (1 if self.c > 0 else -1,))

    @property
    def dim(self) -> int:
        return 4 if self.c == 0 else 5

    def inner(self, x, y):
        return inner(self.ambient, x, y)

    def base_point(self) -> np.ndarray:
        """Model point carried by the standard frame: |c|^{-1/2} E5, or 0 for c = 0."""
        p = np.zeros(self.dim)
        if self.c != 0:
            p[4] = 1.0 / math.sqrt(abs(self.c))
        return p


def on_space_form(spec: SpaceFormSpec, p, tol=1e-9):
    """Whether p satisfies the quadric constraint <p, p> = 1/c (always true for c = 0)."""
    if spec.c == 0:
        p = np.asarray(p, dtype=float)
        if p.shape[-1] != spec.dim:
            raise DimensionError(f"expected length {spec.dim}")
        result = np.ones(p.shape[:-1], dtype=bool)
        return bool(result) if result.ndim == 0 else result
    dev = np.abs(inner(spec.ambient, p, p) - 1.0 / spec.c)
    result = dev <= tol
    return bool(result) if np.ndim(result) == 0 else result


def geodesic(spec: SpaceFormSpec, p, w, t, tol=DEFAULT_TANGENT_TOL):
    """Ambient geodesic through p with unit initial direction w.

    c = 0: straight line p + t w.  c > 0: cos(sqrt(c) t) p + sin(sqrt(c) t)/sqrt(c) w.
    c < 0: the hyperbolic analogue.  Broadcasts over leading axes of p, w, t.
    """
    p = np.asarray(p, dtype=float)
    w = np.asarray(w, dtype=float)
    ww = inner(spec.ambient, w, w)
    if np.any(np.abs(ww - 1.0) > tol):
        raise InvalidTangent("direction is not unit within tolerance")
    if spec.c != 0:
        pw = inner(spec.ambient, p, w)
        if np.any(np.abs(pw) > tol):
            raise InvalidTangent("direction is not tangent to the quadric")
    t = np.asarray(t, dtype=float)[..., None]
    if spec.c == 0:
        return p + t * w
    r = math.sqrt(abs(spec.c))
    if spec.c > 0:
        return np.cos(r * t) * p + np.sin(r * t) / r * w
    return np.cosh(r * t) * p + np.sinh(r * t) / r * w


@dataclass(frozen=True)
class UmbilicalSlice:
    """Totally umbilical Q^3(cbar) inside Q^4_s(c), realized as a model slice.

    For c = 0 and cbar > 0 the slice is the sphere of radius 1/sqrt(cbar)
    about the origin; for c != 0 it is the quadric section {x_5 = d} with d
    chosen so that the section has curvature cbar.  ``normal(p)`` is the unit
    normal of the inclusion at a slice point p, the ruling direction of
    generalized cones.
    """

    spec: SpaceFormSpec
    cbar: float

    def __post_init__(self):
        if self.cbar < self.spec.c:
            raise InvalidParams("slice curvature must satisfy cbar >= c")
        if self.spec.c == 0 and self.cbar <= 0:
            raise InvalidParams("flat ambient supports only cbar > 0 slices")
        if self.spec.c != 0 and self.cbar == self.spec.c:
            raise InvalidParams("cbar = c is the whole space, not a hypersurface")

    @property
    def height(self) -> float:
        """Last-coordinate value d of the slice (c != 0 only)."""
        if self.spec.c == 0:
            return 0.0
        sigma = self.spec.ambient.signature[4]
        d2 = (1.0 / self.spec.c - 1.0 / self.cbar) / sigma
        if d2 < 0:
            raise InvalidParams("requested slice curvature is not realizable")
        return math.sqrt(d2)

    def contains(self, p, tol=1e-9):
        p = np.asarray(p, dtype=float)
        if self.spec.c == 0:
            dev = np.abs(inner(self.spec.ambient, p, p) - 1.0 / self.cbar)
            return np.all(dev <= tol)
        ok_form = np.all(on_space_form(self.spec, p, tol))
        return bool(ok_form and np.all(np.abs(p[..., 4] - self.height) <= tol))

    def normal(self, p):
        """Unit normal of the inclusion Q^3(cbar) -> Q^4(c) at slice points p."""
        p = np.asarray(p, dtype=float)
        if self.spec.c == 0:
            return math.sqrt(self.cbar) * p
        sigma = self.spec.ambient.signature[4]
        d = self.height
        e_last = np.zeros(self.spec.dim)
        e_last[4] = 1.0
        raw = e_last - sigma * d * self.spec.c * p
        norm2 = sigma - d * d * self.spec.c
        if norm2 <= 0:
            raise InvalidParams("inclusion normal is not spacelike for this slice")
        return raw / math.sqrt(norm2)
