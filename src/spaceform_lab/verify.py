"""Independent geometric verification from position samples.

Everything here works from sampled immersions alone (no access to the
integrators), so it can serve as the second route of every dual-route check:
fundamental forms by divided differences, Gauss-Codazzi residuals, the paired
Gauss relation, the Schouten-Codazzi conformal-flatness criterion, and
isometry comparison.

Layout.  ``fundamental_forms`` and ``isometry_check`` move each sample's
positions once to contiguous component planes, ``(dim,) + grid.n``, and take
the partials, the metric, II and <N, N> sums, the normal and its cofactor rows
on those planes.  Every signature sum is ``ambient.sig_inner(..., axis=0)``:
it adds the products (x_i y_i) sig_i from +0.0 in component order, so the
results have the bytes of the trailing-layout sums.  The normal's sign is
aligned one sweep phase at a time (``_align_normal``).  ``FundamentalForms.N``
is handed back as ``grid.n + (dim,)``.

Masking.  A node is kept where ``valid_mask()`` holds (finite positions, not
flagged) and no node outside it lies within three nodes along every axis
(``grid.stencil_halo``), the reach of the composed stencils.  Positions
outside ``valid_mask()`` are zero-filled before any stencil, so the dense
algebra stays finite and kept nodes keep their bytes.  ``fundamental_forms``
also drops nodes with a singular metric or a null normal from ``valid`` (the
nodes the masking rule keeps stay in ``kept``); ``isometry_check`` reports
the nodes both samples keep; ``pair_gauss_relation`` takes such a mask as
``valid``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .ambient import SpaceFormSpec, sig_inner
from .errors import (
    DegenerateMetric,
    DegenerateTriple,
    EmptyDomain,
    GridMismatch,
    NonHolonomicSample,
    UmbilicSetError,
)
from .grid import (
    ParameterGrid,
    induced_metric_tensor,
    partial_derivative,
    second_derivative,
    stencil_halo,
)
from .report import ResidualReport
from .triples import TripleField, compatibility_residuals, h_from_v

DISTINCT_GUARD = 1e-4      # relative curvature gap under which Schouten-Codazzi skips a node
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
        """max |<f, f> - 1/c| over valid nodes: 0 for c = 0, and EmptyDomain
        where no node is valid."""
        if self.spec.c == 0:
            return 0.0
        ok = self.valid_mask()
        if not ok.any():
            raise EmptyDomain("every node of the immersion sample is masked")
        ip = sig_inner(self.positions, self.positions, self.spec.ambient.sig_array)
        dev = np.abs(ip - 1.0 / self.spec.c)
        return float(dev[ok].max())


@dataclass
class FundamentalForms:
    I: np.ndarray                   # (3, 3) + grid.n
    II: np.ndarray                  # (3, 3) + grid.n
    N: np.ndarray                   # grid.n + (dim,)
    valid: np.ndarray               # grid.n bool (metric nondegenerate)
    kept: np.ndarray                # grid.n bool (masking rule, before det and causal tests)


def fundamental_forms(sample: ImmersionSample) -> FundamentalForms:
    """I by first differences; N from the orthogonality system with sign fixed
    by continuity from the base node; II from second differences.

    N comes from the generalized cross product (cofactor vector) of the
    dim - 1 rows df_1, df_2, df_3, and f when c != 0: times the signature it
    spans their signature-orthogonal complement.  It is scaled to Euclidean
    unit length for the causal-character test, then to unit signature norm.
    The work runs on component planes (module docstring); the returned N is
    a ``grid.n + (dim,)`` view of them.
    """
    grid = sample.grid
    grid.require_resolution(5)
    spec = sample.spec
    sig = spec.ambient.sig_array
    pos, df, I, ok = _metric(sample)

    detI = np.abs(sum(a * b for a, b in zip(I[0], _cofactor_vector(I[1:]))))
    scale = np.maximum(np.abs(I).max(axis=(0, 1)) ** 3, 1e-300)
    valid = ((detI / scale) > DET_TOL) & ok
    if not valid.any():
        raise DegenerateMetric("first fundamental form is singular at every node")

    # normal: signature-orthogonal complement of (df_1, df_2, df_3[, f]).
    # <row, n>_sig = row . (sig n), so sig n is the Euclidean cross product.
    rows = list(df)
    if spec.c != 0:
        rows.append(pos)
    cross = _cofactor_vector(rows)
    norm = np.sqrt(sum(x * x for x in cross))
    degenerate = norm == 0          # dependent rows, e.g. zero-filled masked nodes
    norm[degenerate] = 1.0
    N = np.empty_like(pos)
    for k in range(spec.dim):
        np.multiply(cross[k], sig[k] / norm, out=N[k])
    N[:, degenerate] = np.eye(spec.dim)[-1][:, None]  # finite; such nodes are invalid
    nn = sig_inner(N, N, sig, axis=0)
    bad_causal = np.abs(nn) < 1e-14
    valid &= ~bad_causal
    nn[bad_causal] = 1.0
    np.divide(N, np.sqrt(np.abs(nn)), out=N)
    _align_normal(N, grid, sig, spec.eps)

    II = np.empty((3, 3) + tuple(grid.n))
    sp = grid.spacing
    for i in range(3):
        II[i, i] = sig_inner(second_derivative(pos, i + 1, sp[i]), N, sig, axis=0)
    for i, j in itertools.combinations(range(3), 2):
        dmix = partial_derivative(df[i], j + 1, sp[j])
        II[i, j] = II[j, i] = sig_inner(dmix, N, sig, axis=0)
    return FundamentalForms(I, II, np.moveaxis(N, 0, -1), valid, ok)


def _metric(sample: ImmersionSample):
    """Positions as component planes, their first partials, the induced metric
    and the nodes the masking rule keeps (module docstring).

    The positions are moved to contiguous ``(dim,) + grid.n`` planes once and
    zero-filled outside ``valid_mask()``, so the dense algebra stays finite.
    """
    grid = sample.grid
    ok = sample.valid_mask()
    pos = np.moveaxis(sample.positions, -1, 0).copy()
    if not ok.all():
        pos[:, ~ok] = 0.0
        ok &= ~stencil_halo(~ok)
    df = [partial_derivative(pos, a + 1, grid.spacing[a]) for a in range(3)]
    return pos, df, induced_metric_tensor(df, sample.spec.ambient.sig_array, axis=0), ok


def _align_normal(N, grid: ParameterGrid, sig, eps):
    """Fix the sign of the unit normal planes ``N`` in place: deterministic at
    the base node, then by continuity in sweep order.

    The base axis-0 line is aligned first, then the axis-1 sheets from it,
    then the axis-2 volume from them; each node follows its neighbour one
    step nearer the base on its line.  A phase takes the dots
    eps <N_k, N_k+1> of all its links in one call and propagates the signs
    along the lines: a node keeps its neighbour's sign where the dot is > 0,
    takes the opposite where it is < 0, and restarts at +1 where it is 0 or
    NaN.  That is the rule of aligning one node at a time by
    ``where(dot < 0, -N, N)`` against the aligned neighbour, whose dot is
    the neighbour's sign times this one.
    """
    base = grid.base
    nb = N[(slice(None),) + base]
    if nb[int(np.argmax(np.abs(nb)))] < 0:
        np.negative(nb, out=nb)
    for axis in range(3):
        # the phase's lines: along ``axis``, at the base index of later axes
        at = (slice(None),) + tuple(base[a] if a > axis else slice(None) for a in range(3))
        phase = N[at]
        links = (slice(None),) * (axis + 1)
        dot = sig_inner(phase[links + (slice(None, -1),)], phase[links + (slice(1, None),)],
                        sig, axis=0)
        dot = np.moveaxis(dot * eps, axis, 0)
        b = base[axis]
        flip = np.zeros((grid.n[axis],) + dot.shape[1:], dtype=bool)
        flip[b + 1:] = _flips(dot[b:])
        flip[:b] = _flips(dot[:b][::-1])[::-1]
        np.negative(phase, out=phase, where=np.moveaxis(flip, 0, axis))


def _flips(dot):
    """Sign flips of the nodes one to len(dot) links away from an aligned node,
    ``dot[k]`` being the link into node k + 1 (rule of ``_align_normal``)."""
    neg = np.cumsum(dot < 0, axis=0)
    restart = ~((dot > 0) | (dot < 0))
    since = neg - np.maximum.accumulate(np.where(restart, neg, 0), axis=0)
    return (since & 1).astype(bool)


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


def pair_gauss_relation(lam, mu, c, c_tilde, eps, eps_tilde, valid=None) -> PairReport:
    """Residual of c + eps l_i l_j = c~ + eps~ m_i m_j for every unordered pair.

    ``valid`` (grid shape, True = keep), e.g. the ``valid`` of both samples'
    fundamental forms, restricts the report; the residual array keeps every
    node.
    """
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if lam.shape != mu.shape:
        raise GridMismatch("curvature fields must share one grid")
    if valid is not None and np.shape(valid) != lam.shape[1:]:
        raise GridMismatch(f"valid shape {np.shape(valid)} != grid shape {lam.shape[1:]}")
    res = np.zeros((3, 3) + lam.shape[1:])
    for i, j in itertools.combinations(range(3), 2):
        r = c + eps * lam[i] * lam[j] - c_tilde - eps_tilde * mu[i] * mu[j]
        res[i, j] = r
        res[j, i] = r
    pairs = np.stack([res[i, j] for i, j in itertools.combinations(range(3), 2)])
    report = ResidualReport()
    report.add("pair_gauss", pairs,
               None if valid is None else np.broadcast_to(valid, pairs.shape))
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


def schouten_codazzi_residual(t: TripleField) -> ResidualReport:
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
    keep = (gap >= DISTINCT_GUARD * lmax) & t.valid_mask()
    if not keep.any():
        raise UmbilicSetError("no nodes with three distinct principal curvatures")

    phi = np.empty_like(v)
    for j in range(3):
        i, k = [a for a in range(3) if a != j]
        phi[j] = v[j] * (lam[i] * lam[j] + lam[k] * lam[j] - lam[i] * lam[k])
    sp = t.grid.spacing
    report = ResidualReport(metadata={"spacing": list(sp), "guard": DISTINCT_GUARD})
    res = []
    for i, j in itertools.permutations(range(3), 2):
        res.append(partial_derivative(phi[j], i, sp[i]) - h[i, j] * phi[i])
    report.add("schouten_codazzi", np.stack(res), np.broadcast_to(keep, (6,) + keep.shape))
    return report


def hj_relation_residual(t: TripleField) -> float:
    """max |v_2^2 - v_1^2 - v_3^2| over the valid nodes (the coordinate-cone
    condition); EmptyDomain where no node is valid."""
    ok = t.valid_mask()
    if not ok.any():
        raise EmptyDomain("every node of the triple is masked")
    v = t.v
    dev = np.abs(v[1] ** 2 - v[0] ** 2 - v[2] ** 2)
    return float(dev[ok].max())


def isometry_check(a: ImmersionSample, b: ImmersionSample,
                   forms_a: FundamentalForms = None,
                   forms_b: FundamentalForms = None) -> ResidualReport:
    """Compare induced metrics of two immersions on one grid.

    The metrics come from ``fundamental_forms``' code, with its masking rule:
    a node counts where both samples keep it (module docstring).  A sample's
    forms, when given, supply its metric and kept nodes in place of computing
    them again.
    """
    if not a.grid.same_as(b.grid):
        raise GridMismatch("samples live on different grids")
    Ia, ok_a = (forms_a.I, forms_a.kept) if forms_a is not None else _metric(a)[2:]
    Ib, ok_b = (forms_b.I, forms_b.kept) if forms_b is not None else _metric(b)[2:]
    pairs = itertools.combinations_with_replacement(range(3), 2)
    diffs = [Ia[i, j] - Ib[i, j] for i, j in pairs]
    ok = ok_a & ok_b
    report = ResidualReport(metadata={"spacing": list(a.grid.spacing)})
    report.add("metric_difference", np.stack(diffs),
               np.broadcast_to(ok, (len(diffs),) + ok.shape))
    return report
