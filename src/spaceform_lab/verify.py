"""Independent geometric verification from position samples.

Everything here works from sampled immersions alone (no access to the
integrators), so it can serve as the second route of every dual-route check:
fundamental forms by divided differences, Gauss-Codazzi residuals, the paired
Gauss relation, the Schouten-Codazzi conformal-flatness criterion, and
isometry comparison.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .ambient import SpaceFormSpec, sig_inner
from .errors import (
    DegenerateMetric,
    DegenerateTriple,
    GridMismatch,
    NonHolonomicSample,
    UmbilicSetError,
)
from .grid import (
    ParameterGrid,
    grid_partials,
    induced_metric_tensor,
    partial_derivative,
    second_derivative,
    stencil_halo,
)
from .report import ResidualReport
from .triples import TripleField, compatibility_residuals, h_from_v

DISTINCT_GUARD = 1e-4
DET_TOL = 1e-12             # relative det(I) under which the metric counts as singular
INTERIOR_MARGIN = 3         # face layers left out of the Gauss-Codazzi aggregation


@dataclass
class ImmersionSample:
    """Positions of an immersion on a parameter grid."""

    grid: ParameterGrid
    positions: np.ndarray           # grid.n + (dim,)
    spec: SpaceFormSpec
    masked: np.ndarray = None

    def __post_init__(self):
        expect = tuple(self.grid.n) + (self.spec.dim,)
        if self.positions.shape != expect:
            raise GridMismatch(f"positions shape {self.positions.shape} != {expect}")

    def valid_mask(self) -> np.ndarray:
        ok = np.isfinite(self.positions).all(axis=-1)
        if self.masked is not None:
            ok &= ~self.masked
        return ok

    def on_form_residual(self) -> float:
        if self.spec.c == 0:
            return 0.0
        ip = sig_inner(self.positions, self.positions, self.spec.ambient.sig_array)
        dev = np.abs(ip - 1.0 / self.spec.c)
        return float(dev[self.valid_mask()].max())


@dataclass
class FundamentalForms:
    I: np.ndarray                   # (3, 3) + grid.n
    II: np.ndarray                  # (3, 3) + grid.n
    N: np.ndarray                   # grid.n + (dim,)
    valid: np.ndarray               # grid.n bool (metric nondegenerate)


def fundamental_forms(sample: ImmersionSample) -> FundamentalForms:
    """I by first differences; N from the orthogonality system with sign fixed
    by continuity from the base node; II from second differences.

    N comes from the generalized cross product (cofactor vector) of the
    dim - 1 rows df_1, df_2, df_3, and f when c != 0: times the signature it
    spans their signature-orthogonal complement.  It is scaled to Euclidean
    unit length for the causal-character test, then to unit signature norm.
    """
    grid = sample.grid
    grid.require_resolution(5)
    spec = sample.spec
    sig = spec.ambient.sig_array
    finite = sample.valid_mask()
    if not finite.all():
        # zero-fill masked positions so the dense linear algebra below stays
        # finite; every touched node is excluded through ``valid``
        sample = ImmersionSample(
            grid, np.where(finite[..., None], sample.positions, 0.0), spec,
            ~finite,
        )
    df = grid_partials(sample.positions, grid)
    I = induced_metric_tensor(df, sig)

    detI = np.abs(sum(a * b for a, b in zip(I[0], _cofactor_vector(I[1:]))))
    scale = np.maximum(np.abs(I).max(axis=(0, 1)) ** 3, 1e-300)
    valid = ((detI / scale) > DET_TOL) & sample.valid_mask()
    if not finite.all():
        valid &= ~stencil_halo(~finite)
    if not valid.any():
        raise DegenerateMetric("first fundamental form is singular at every node")

    # normal: signature-orthogonal complement of (df_1, df_2, df_3[, f]).
    # <row, n>_sig = row . (sig n), so sig n is the Euclidean cross product.
    rows = list(df)
    if spec.c != 0:
        rows.append(sample.positions)
    cross = _cofactor_vector([np.moveaxis(r, -1, 0) for r in rows])
    norm = np.sqrt(sum(x * x for x in cross))
    degenerate = norm == 0          # dependent rows, e.g. zero-filled masked nodes
    n0 = np.stack(cross, axis=-1) * (sig / np.where(degenerate, 1.0, norm)[..., None])
    n0[degenerate] = np.eye(spec.dim)[-1]             # finite; such nodes are invalid
    nn = sig_inner(n0, n0, sig)
    bad_causal = np.abs(nn) < 1e-14
    valid &= ~bad_causal
    denom = np.sqrt(np.abs(np.where(bad_causal, 1.0, nn)))
    N = n0 / denom[..., None]

    # deterministic sign at base, then continuity alignment in sweep order:
    # the base axis-0 line first, then axis-1 sheets, then the axis-2 volume,
    # so every node is aligned against exactly one already-fixed parent.
    base = grid.base
    nb = N[base]
    lead = int(np.argmax(np.abs(nb)))
    if nb[lead] < 0:
        N[base] = -nb
    eps = float(spec.eps)

    def _align(slice_next, slice_prev):
        prev = N[slice_prev]
        nxt = N[slice_next]
        dot = sig_inner(prev, nxt, sig) * eps
        N[slice_next] = np.where((dot < 0)[..., None], -nxt, nxt)

    for axis, frozen in ((0, {1: base[1], 2: base[2]}), (1, {2: base[2]}), (2, {})):
        for direction in (1, -1):
            i = base[axis]
            while 0 <= i + direction < grid.n[axis]:
                sl_prev = [slice(None)] * 3
                sl_next = [slice(None)] * 3
                for a, val in frozen.items():
                    sl_prev[a] = val
                    sl_next[a] = val
                sl_prev[axis] = i
                sl_next[axis] = i + direction
                _align(tuple(sl_next), tuple(sl_prev))
                i += direction

    II = np.empty((3, 3) + tuple(grid.n))
    sp = grid.spacing
    for i in range(3):
        d2 = second_derivative(sample.positions, i, sp[i])
        II[i, i] = sig_inner(d2, N, sig)
    for i, j in itertools.combinations(range(3), 2):
        dmix = partial_derivative(df[i], j, sp[j])
        II[i, j] = II[j, i] = sig_inner(dmix, N, sig)
    return FundamentalForms(I, II, N, valid)


def _cofactor_vector(rows):
    """Generalized cross product of k rows in R^(k+1), each a sequence of k+1
    component arrays: component j is (-1)^j times the minor without column j,
    Euclidean-orthogonal to every row and zero exactly when they are dependent.

    The minors are Laplace expansions along the rows from the last one up;
    each level reuses the minors of the level below.
    """
    dim = len(rows) + 1
    minors = {(j,): rows[-1][j] for j in range(dim)}
    for r, row in enumerate(reversed(rows[:-1]), start=2):
        minors = {cols: _expand_minor(row, cols, minors)
                  for cols in itertools.combinations(range(dim), r)}
    cross = []
    for j in range(dim):
        minor = minors[tuple(c for c in range(dim) if c != j)]
        cross.append(-minor if j % 2 else minor)
    return cross


def _expand_minor(row, cols, minors):
    """Laplace expansion of the minor on columns ``cols`` along ``row``."""
    total = row[cols[0]] * minors[cols[1:]]
    for a in range(1, len(cols)):
        term = row[cols[a]] * minors[cols[:a] + cols[a + 1:]]
        if a % 2:
            total -= term
        else:
            total += term
    return total


def holonomic_data(sample: ImmersionSample, forms: FundamentalForms = None,
                   offdiag_tol=1e-3):
    """Extract (v, h, V, lambda) assuming principal orthogonal coordinates.

    Requires the sampled metric to be diagonal within ``offdiag_tol``
    relative to its diagonal scale.
    """
    forms = forms or fundamental_forms(sample)
    I, II = forms.I, forms.II
    diag_scale = np.maximum(np.max(np.abs(np.stack([I[i, i] for i in range(3)])), axis=0),
                            1e-300)
    off = np.max(np.abs(np.stack([I[i, j] for i in range(3) for j in range(3) if i != j])),
                 axis=0)
    ok = forms.valid
    if np.any(off[ok] / diag_scale[ok] > offdiag_tol):
        worst = float(np.max(off[ok] / diag_scale[ok]))
        raise NonHolonomicSample(
            f"metric off-diagonal is {worst:.2e} of the diagonal scale"
        )
    diag = np.stack([I[i, i] for i in range(3)])
    if np.any(diag[:, ok] <= 0):
        raise DegenerateTriple("nonpositive metric diagonal on valid nodes")
    v = np.sqrt(np.where(diag > 0, diag, np.nan))
    lam = np.stack([II[i, i] for i in range(3)]) / diag
    V = lam * v
    return v, h_from_v(v, sample.grid.spacing), V, lam


def principal_curvature_fields(sample: ImmersionSample, forms: FundamentalForms = None):
    """Eigenvalues of the shape operator, ascending per node (generic samples)."""
    forms = forms or fundamental_forms(sample)
    I = np.moveaxis(forms.I.reshape(3, 3, -1), -1, 0)
    II = np.moveaxis(forms.II.reshape(3, 3, -1), -1, 0)
    # symmetric reduction I^{-1/2} II I^{-1/2} keeps eigh applicable
    w, Q = np.linalg.eigh(I)
    w = np.maximum(w, 1e-300)
    I_msqrt = np.einsum("nij,nj,nkj->nik", Q, 1.0 / np.sqrt(w), Q)
    S = I_msqrt @ II @ I_msqrt
    lam = np.linalg.eigvalsh(S)
    return np.moveaxis(lam, 0, -1).reshape((3,) + tuple(sample.grid.n))


def gauss_codazzi_residual(sample: ImmersionSample, forms: FundamentalForms = None,
                           offdiag_tol=1e-3) -> ResidualReport:
    """Residuals of the compatibility equations from extracted (v, h, V).

    The extraction chain composes stencils (positions -> metric -> h -> dh),
    whose truncation error jumps between the one-sided face formulas and the
    central interior ones; nodes within ``INTERIOR_MARGIN`` of a face are
    therefore excluded from the aggregation, keeping the reported residual
    h^2-scaled.
    """
    forms = forms or fundamental_forms(sample)
    v, h, V, _ = holonomic_data(sample, forms, offdiag_tol)
    sp = sample.grid.spacing
    res_ii, res_iii, res_iv = compatibility_residuals(v, h, V, sp, sample.spec.eps,
                                                      sample.spec.c)
    report = ResidualReport(metadata={"spacing": list(sp),
                                      "stencil": "order-2 central/one-sided"})
    m = INTERIOR_MARGIN
    ok = np.zeros_like(forms.valid)
    ok[m:-m, m:-m, m:-m] = forms.valid[m:-m, m:-m, m:-m]
    report.metadata["interior_margin"] = m
    report.add("3.ii", res_ii, np.broadcast_to(ok, (6,) + ok.shape))
    report.add("3.iii", res_iii, np.broadcast_to(ok, (3,) + ok.shape))
    report.add("3.iv", res_iv, np.broadcast_to(ok, (6,) + ok.shape))
    return report


@dataclass
class PairReport:
    """Companion principal curvatures and the paired Gauss-relation residuals."""

    lam: np.ndarray
    mu: np.ndarray
    residual: np.ndarray            # (3, 3) + grid shape, symmetric, zero diagonal
    report: ResidualReport


def pair_gauss_relation(lam, mu, c, c_tilde, eps, eps_tilde) -> PairReport:
    """Residual of c + eps l_i l_j = c~ + eps~ m_i m_j for every unordered pair."""
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if lam.shape != mu.shape:
        raise GridMismatch("curvature fields must share one grid")
    res = np.zeros((3, 3) + lam.shape[1:])
    for i, j in itertools.combinations(range(3), 2):
        r = c + eps * lam[i] * lam[j] - c_tilde - eps_tilde * mu[i] * mu[j]
        res[i, j] = r
        res[j, i] = r
    report = ResidualReport()
    report.add("pair_gauss", np.stack([res[i, j] for i, j in
                                       itertools.combinations(range(3), 2)]))
    return PairReport(lam, mu, res, report)


def companion_curvatures(lam, c, c_tilde, eps, eps_tilde):
    """Solve the paired Gauss relations for the companion curvatures.

    mu_i mu_j = C + eps_hat lam_i lam_j with C = eps~ (c - c~), eps_hat = eps eps~;
    mu_1 fixed positive, the rest by the pair products.
    """
    lam = np.asarray(lam, dtype=float)
    C = eps_tilde * (c - c_tilde)
    eps_hat = eps * eps_tilde
    P = {}
    for i, j in itertools.combinations(range(3), 2):
        P[(i, j)] = C + eps_hat * lam[i] * lam[j]
    mu1_sq = P[(0, 1)] * P[(0, 2)] / P[(1, 2)]
    if np.any(mu1_sq <= 0):
        raise DegenerateTriple("no real companion curvatures for these fields")
    mu = np.empty_like(lam)
    mu[0] = np.sqrt(mu1_sq)
    mu[1] = P[(0, 1)] / mu[0]
    mu[2] = P[(0, 2)] / mu[0]
    return mu


def schouten_codazzi_residual(t: TripleField, distinct_guard=DISTINCT_GUARD) -> ResidualReport:
    """Residual of the Codazzi property of the Schouten tensor.

    phi_j = v_j (l_i l_j + l_k l_j - l_i l_k); conformal flatness of the
    induced metric is equivalent to d(phi_j)/du_i = h_ij phi_i for i != j.
    Nodes with nearly coincident curvatures are excluded.
    """
    v, h, V = t.v, t.h, t.V
    if np.any(v[:, t.valid_mask()] == 0):
        raise DegenerateTriple("principal curvatures undefined where v_i = 0")
    lam = V / v
    lmax = np.maximum(np.max(np.abs(lam), axis=0), 1e-300)
    gap = np.min(np.stack([np.abs(lam[i] - lam[j]) for i, j in
                           itertools.combinations(range(3), 2)]), axis=0)
    keep = (gap >= distinct_guard * lmax) & t.valid_mask()
    if not keep.any():
        raise UmbilicSetError("no nodes with three distinct principal curvatures")

    phi = np.empty_like(v)
    for j in range(3):
        i, k = [a for a in range(3) if a != j]
        phi[j] = v[j] * (lam[i] * lam[j] + lam[k] * lam[j] - lam[i] * lam[k])
    sp = t.grid.spacing
    report = ResidualReport(metadata={"spacing": list(sp), "guard": distinct_guard})
    res = []
    for i, j in itertools.permutations(range(3), 2):
        res.append(partial_derivative(phi[j], i, sp[i]) - h[i, j] * phi[i])
    report.add("schouten_codazzi", np.stack(res), np.broadcast_to(keep, (6,) + keep.shape))
    return report


def hj_relation_residual(t: TripleField) -> float:
    """max |v_2^2 - v_1^2 - v_3^2| over the grid (the coordinate-cone condition)."""
    v = t.v
    dev = np.abs(v[1] ** 2 - v[0] ** 2 - v[2] ** 2)
    return float(dev[t.valid_mask()].max())


def isometry_check(a: ImmersionSample, b: ImmersionSample) -> ResidualReport:
    """Compare induced metrics of two immersions on one grid."""
    if not a.grid.same_as(b.grid):
        raise GridMismatch("samples live on different grids")
    Ia = induced_metric_tensor(grid_partials(a.positions, a.grid), a.spec.ambient.sig_array)
    Ib = induced_metric_tensor(grid_partials(b.positions, b.grid), b.spec.ambient.sig_array)
    pairs = itertools.combinations_with_replacement(range(3), 2)
    diffs = [Ia[i, j] - Ib[i, j] for i, j in pairs]
    ok = a.valid_mask() & b.valid_mask()
    report = ResidualReport(metadata={"spacing": list(a.grid.spacing)})
    report.add("metric_difference", np.stack(diffs),
               np.broadcast_to(ok, (len(diffs),) + ok.shape))
    return report
