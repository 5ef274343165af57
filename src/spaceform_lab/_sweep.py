"""Deterministic lattice sweep integration: the one engine for every system a
triple drives.

March order.  A sweep integrates axis by axis in ``order``: along the first
axis from the base node (one line), then along the second axis from every
node of that line, then along the third from every node of that sheet.  Each
axis phase marches its lines in two directions from the same start nodes,
+ (increasing node index) and - (decreasing).  A marched system advances
node to node with classic 4th-order Runge-Kutta substeps: a node interval of
span s takes ``max(1, ceil(|s| / max_step))`` equal substeps.  A propagated
system takes the exact step from the phase's start nodes instead ("Propagated
systems").  The evaluation order is fixed, so outputs are byte-identical for
identical inputs.

Lanes.  The two directions of a phase never read each other, so every phase
marches them as one batch: ``rk4_march`` takes one or two lanes, a lane being
one direction's lines with its own substep schedule, and advances every live
lane by one of its own substeps per step.  The lanes' columns lie side by
side; the coefficients dt/2, dt and dt/6 are per column, the triple is
evaluated lane by lane ("Right-hand side"), and when a lane's schedule ends
the batch shrinks to the other lane.  Each column sees the same
floating-point operations as in a march of its direction alone, so states
are those of marching + and then -.

Systems.  ``sweep_integrate`` sweeps one system ``(make_body, y0)`` that the
triple drives, e.g. the moving frame or the Ribaucour system, both driven by
the holonomic data (v, h, V).  ``make_body(triple, y0)`` is called once per
sweep, after the triple is checked, and may reject y0.  It returns either an
in-place body, and the system is marched with RK4 substeps, or the three
constant generators of a linear system, and the system is propagated
exactly.  The states are stored as contiguous component planes, one array of
shape ``y0.shape + grid.n``, so every post-sweep step that reads one
component reads contiguous memory; they come back as a ``grid.n + y0.shape``
view, with the shape, values and ``tobytes()`` of a node-major array.  A
phase marches one batch state of shape (R, B), y0 flattened into R rows; the
batch axis is last, so every row a body reads or writes is a contiguous run
of B values.  On arrival at a node, the rows are written to the node layer
through a basic-index view of the planes, (R,) + the done axes.  Along axis
2, the last phase of a (0, 1, 2) sweep, such a layer is one value every n_2
doubles, so those writes scatter.

Propagated systems.  A linear system dY/du_a = M_a Y whose generators are
constant over the grid (the frame of a constant triple, ``frames`` module
docstring, and its Ribaucour system in the linear form, ``ribaucour`` module
docstring) is solved exactly: ``make_body`` returns the (3, k, k) array of
M_0, M_1 and M_2, acting on the first axis of y0.  Each M must satisfy
M^3 = -w^2 M with w^2 = -tr(M^2) / 2, so exp(M t) = I + s M + q M^2
(``propagators``).  Each phase writes every node layer of the phase from
the phase's start layer: Y_m = exp(M_a (u_m - u_start)) Y_start.  The
product runs with elementwise ufuncs in a fixed order, the terms by
increasing source row, leaving out the entries of exp(M t) that vanish for
every t and copying a row that exp(M t) keeps.  Each product is
written with ``out=`` into the planes, one component and one side of the
start node at a time, so no temporary exceeds one component plane, and a
node's bytes depend only on its own u_m - u_start and start values.  A
propagated sweep makes no ``eval_at`` call and takes no RK substep.

In-place bodies.  A marched system's ``body(v, h, V, Y, dY, axis)`` reads
the triple values (v, h, V) of the stage points and the rows Y along
``axis``, and writes every row of dY once, in place (a ufunc ``out=`` into a
row slice); scratch products live in rows that are not yet written.

Right-hand side.  The triple values a body reads at the stage points do
not depend on the state, so ``rk4_march`` evaluates them ahead, a batch of
substeps at a time.  A batch runs up to the next node arrival of either
lane, and holds at most ``_BATCH_POINTS`` stage points per lane.  A lane's
distinct stage coordinates in the batch are u, u + dt/2 and u + dt per
substep, computed with the march's own arithmetic (u + 0.5 dt, u += dt), and
they are one ``triple.eval_at`` call (looked up at call time) of K copies of
the lane's B lines, (K B, 3) points.  The values go components first and
side by side into one buffer per phase, a (15, columns) slot per
coordinate, reused from batch to batch; the body reads read-only views of a
slot, in which every column it reads (v[:, a], h[:, j, a], V[:, a]) is
contiguous.  RK4 reads the midpoint slot twice (k2 and k3), and inside a
node interval the first stage of a substep is the last slot of the substep
before; a batch that continues a node interval takes its first slot from
the batch before.  So every stage point is evaluated once: per lane, one
call per batch and B (2 nsub + 1) points per node interval of nsub
substeps.  Per RK stage the march allocates one dY and runs the body on Y
and dY; the body leaves Y unmodified, and the march reuses dY as an
accumulator.  A propagated sweep makes no ``eval_at`` call.

Masking.  A sweep writes every node and masks none.  A non-finite value in a
marched row on arrival at a node, or at a node a propagated phase writes,
raises NonFiniteState naming the axis and node; when both directions
overflow, the + direction's node is named, as if it had marched first.  With
``masked``, the values may go non-finite and nothing raises: the caller
builds the mask from the node values after the sweep, with
``sweep_descendants`` for the nodes the sweep reaches through a flagged one
(the Ribaucour field, ``ribaucour`` module docstring).  Every line is its
own column in each RK4 operation, so a line that goes non-finite leaves the
others' values as they would be without it.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

from .errors import InvalidParams, NonFiniteState
from .triples import check_sweep_input


def node_intervals(ax_vals, i0, step, max_step):
    """One direction's schedule from node ``i0`` along the axis values
    ``ax_vals``, one node interval at a time: (node reached, u_from, dt,
    substeps), the span split into ``max(1, ceil(|span| / max_step))``
    substeps of dt.  Nothing is listed ahead, so a tiny ``max_step`` costs
    time, not memory."""
    idx = i0
    while 0 <= idx + step < len(ax_vals):
        nxt = idx + step
        span = ax_vals[nxt] - ax_vals[idx]
        nsub = max(1, math.ceil(abs(span) / max_step))
        yield nxt, ax_vals[idx], span / nsub, nsub
        idx = nxt


# stage points per lane per batch, at least one substep's three (measured
# in CHANGES.md: larger batches cost resident memory for little time)
_BATCH_POINTS = 1024


class _Lane:
    """A lane of ``rk4_march``: its stage points, its columns and its place in
    its schedule."""

    __slots__ = ("k", "width", "intervals", "points", "cols", "node", "u", "dt", "left",
                 "fresh")

    def __init__(self, k, pts, intervals, slots):
        self.k, self.width, self.intervals = k, len(pts), intervals
        self.points = np.empty((slots,) + pts.shape)
        self.points[...] = pts
        self.left = 0

    def next_interval(self):
        """Start the next node interval; False when the schedule has ended."""
        for self.node, self.u, self.dt, self.left in self.intervals:
            self.fresh = True
            return True
        return False

    def evaluate(self, triple, axis, substeps, values):
        """Write the triple's values at the stage points of the lane's next
        ``substeps`` substeps into its columns of ``values``, slots 0 .. 2
        substeps, with one ``eval_at`` call; slot 0, the bits of the last
        stage before, is kept unless the batch starts a node interval."""
        first = 0 if self.fresh else 1
        u, dt = self.u, self.dt
        coords = [u]
        for _ in range(substeps):
            coords.append(u + 0.5 * dt)
            u += dt
            coords.append(u)
        self.u, self.fresh = u, False
        pts = self.points[first:2 * substeps + 1]
        pts[:, :, axis] = np.array(coords[first:])[:, None]
        v, h, V = triple.eval_at(pts.reshape(-1, 3))
        shape = (len(pts), self.width, -1)
        into = values[first:2 * substeps + 1, :, self.cols]
        into[:, :3] = v.reshape(shape).transpose(0, 2, 1)
        into[:, 3:12] = h.reshape(shape).transpose(0, 2, 1)
        into[:, 12:] = V.reshape(shape).transpose(0, 2, 1)


def _stage_values(slot):
    """Read-only (v, h, V) of one stage slot (15, B) of the values buffer,
    components last and stored components first."""
    B = slot.shape[1]
    out = slot[:3].T, slot[3:12].reshape(3, 3, B).transpose(2, 0, 1), slot[12:].T
    for x in out:
        x.flags.writeable = False
    return out


def rk4_march(triple, body, lanes, axis):
    """March one or two lanes of lines along ``axis`` as one batch state,
    every live lane one RK4 substep of its own schedule per step, and
    evaluate the triple that drives the in-place ``body`` once per lane per
    batch of substeps (module docstring, "Right-hand side").

    A lane is ``(pts, y, intervals)``: the (B, 3) start points of its lines,
    their (R, B) states (not modified) and its schedule from
    ``node_intervals``, R being y0's size (module docstring, "Systems").  The
    live lanes' columns lie side by side in lane order; dt/2, dt and dt/6 are
    per column.  A lane whose schedule has ended leaves the batch.  A batch
    of S substeps runs up to the next arrival of any lane, S at most the
    most substeps whose 2 S + 1 stage coordinates keep a lane's call within
    ``_BATCH_POINTS`` points (at least one).  A
    substep's stages are at u, u + dt/2 (twice, k2 and k3) and u + dt, u
    advancing by dt per substep and starting each node interval at the node,
    so inside an interval the first stage of a substep is at the bits of the
    last stage before it.  A lane's call holds K = 2 S + 1 copies of its
    lines in the first batch of a node interval and K = 2 S in the others,
    whose first slot is the last of the batch before.

    Yields ``(k, node, y)`` each time lane k arrives at a node, y being its
    (R, B) state there.  Between arrivals, the stages and the combine run in
    place in one ``stage`` buffer, and the k arrays are reused as
    accumulators, in the order y + (dt/2) k and
    y + (dt/6) (((k1 + 2 k2) + 2 k3) + k4).  Overflow inside a step is left
    to the caller's ``np.errstate`` and checked on node arrival.
    """
    lines = max([1] + [len(pts) for pts, _, _ in lanes])
    cap = max(1, (_BATCH_POINTS // lines - 1) // 2)         # substeps per batch
    live = [_Lane(k, pts, intervals, 2 * cap + 1) for k, (pts, _, intervals) in enumerate(lanes)]
    live = [lane for lane in live if lane.next_interval()]
    if not live:
        return
    y = np.concatenate([lanes[lane.k][1] for lane in live], axis=1)
    # one buffer per phase: a (15, B) slot of values per distinct stage point
    values = np.empty((2 * cap + 1, 15, y.shape[1]))
    stages = None           # read-only views of the slots, made as batches reach them

    def rhs(vhV, Y):
        dY = np.empty(Y.shape)
        body(*vhV, Y, dY, axis)
        return dY

    while live:
        if stages is None:
            lo = 0
            for lane in live:
                lane.cols = slice(lo, lo + lane.width)
                lo += lane.width
            width, stages = lo, []
        widths = [lane.width for lane in live]
        dt = np.repeat([lane.dt for lane in live], widths)
        half = np.repeat([0.5 * lane.dt for lane in live], widths)
        sixth = np.repeat([lane.dt / 6.0 for lane in live], widths)
        stage = np.empty_like(y)
        steps = min(lane.left for lane in live)     # up to the next arrival
        done = 0
        while done < steps:
            batch = min(cap, steps - done)
            stages += map(_stage_values, values[len(stages):2 * batch + 1, :, :width])
            for lane in live:
                lane.evaluate(triple, axis, batch, values)
            for i in range(0, 2 * batch, 2):
                v0, vm, v1 = stages[i:i + 3]
                k1 = rhs(v0, y)
                k2 = rhs(vm, np.add(y, np.multiply(half, k1, out=stage), out=stage))
                k3 = rhs(vm, np.add(y, np.multiply(half, k2, out=stage), out=stage))
                k4 = rhs(v1, np.add(y, np.multiply(dt, k3, out=stage), out=stage))
                k2 = np.add(k1, np.multiply(2.0, k2, out=k2), out=k2)
                k3 = np.add(k2, np.multiply(2.0, k3, out=k3), out=k3)
                k4 = np.add(k3, k4, out=k4)
                y = np.add(y, np.multiply(sixth, k4, out=k4), out=k4)
            values[0] = values[2 * batch]       # the next batch's first stage
            done += batch
        del k1, k2, k3, stage      # the caller's node work reuses this memory

        cols, lo = [], 0
        for lane in live:
            hi = lo + lane.width
            lane.left -= steps
            if not lane.left:
                yield lane.k, lane.node, y[:, lo:hi]
                lane.next_interval()
            if lane.left:
                cols.append(slice(lo, hi))
            lo = hi
        if len(cols) < len(live):
            live = [lane for lane in live if lane.left]
            if live:
                y = np.concatenate([y[:, c] for c in cols], axis=1)
                values[0, :, :y.shape[1]] = np.concatenate([values[0, :, c] for c in cols], axis=1)
                stages = None


def propagators(M, t):
    """exp(M t) at each time of ``t``, shape (k, k, len(t)), for a (k, k)
    generator with M^3 = -w^2 M, w^2 = -tr(M^2) / 2: (I + s M) + q M^2 with
    s = sin(w t) / w and q = 2 sin^2(w t / 2) / w^2, sinh for w^2 < 0, and
    s = t, q = t^2 / 2 for w = 0.  The half-angle q keeps its relative
    accuracy for small w t, which (1 - cos w t) / w^2 loses."""
    M = np.asarray(M, dtype=float)
    M2 = M @ M
    w2 = -0.5 * float(np.trace(M2))
    t = np.asarray(t, dtype=float)
    if w2:
        w, sin = math.sqrt(abs(w2)), np.sin if w2 > 0 else np.sinh
        s, q = sin(w * t) / w, 2.0 * np.square(sin(0.5 * w * t) / w)
    else:
        s, q = t, 0.5 * t * t
    # a zero entry of M or M^2 adds 0, also where s or q has overflowed
    with np.errstate(invalid="ignore"):
        Ms = np.where(M[..., None] != 0, M[..., None] * s, 0.0)
        M2q = np.where(M2[..., None] != 0, M2[..., None] * q, 0.0)
    return (np.eye(len(M))[..., None] + Ms) + M2q


def _term(c, y, out):
    """``c * y`` into ``out``, where 0 times an overflowed entry c = +-inf of
    exp(M t) is 0: the entry is a finite number too large for a double."""
    np.multiply(c, y, out=out)
    if not np.isfinite(c).all():
        np.copyto(out, 0.0, where=~np.isfinite(c) & (y == 0))
    return out


def _propagate(planes, M, at, axis, t, check):
    """Write every node layer of a propagated phase along ``axis`` from the
    phase's start layer (module docstring, "Propagated systems").

    ``planes`` holds the (rows,) + grid.n component planes, ``M`` the (k, k)
    generator along ``axis`` on k blocks of rows, ``at`` the start layer's
    index into grid.n (the done axes whole) and ``t`` the offsets
    u_m - u_start of every node m along ``axis``.  Returns the
    (n_axis,) bool nodes where a written value is not finite, all False
    unless ``check``."""
    k = len(M)
    pos = sum(isinstance(a, slice) for a in at[:axis])     # axis's place in a layer
    Y = planes.reshape((k, -1) + planes.shape[1:])
    i0 = at[axis]
    # the start layer is copied out, so no write reads what another wrote
    start = np.expand_dims(Y[(slice(None), slice(None)) + tuple(at)], 2 + pos).copy()
    P = propagators(M, t)
    M2 = M @ M
    trailing = (1,) * (start.ndim - 3 - pos)
    sides = [side for side in (slice(i0 + 1, len(t)), slice(0, i0)) if side.start < side.stop]
    bad = np.zeros(len(t), dtype=bool)
    line = list(at)
    for r in range(k):
        if not (M[r].any() or M2[r].any()):         # exp(M t) keeps row r
            line[axis] = slice(None)
            Y[(r, slice(None)) + tuple(line)] = start[r]
            continue
        terms = [j for j in range(k) if j == r or M[r, j] or M2[r, j]]
        for side in sides:
            line[axis] = side
            coef = [P[r, j, side].reshape((-1,) + trailing) for j in terms]
            tmp = None
            for comp in range(Y.shape[1]):
                out = _term(coef[0], start[terms[0], comp], Y[(r, comp) + tuple(line)])
                for c, j in zip(coef[1:], terms[1:]):
                    tmp = np.empty(out.shape) if tmp is None else tmp
                    np.add(out, _term(c, start[j, comp], tmp), out=out)
                if check:
                    others = tuple(a for a in range(out.ndim) if a != pos)
                    bad[side] |= ~np.isfinite(out).all(axis=others)
    return bad


def _check_order(order):
    """``order`` as a list of axes; InvalidParams unless it is a permutation
    of (0, 1, 2)."""
    try:
        axes = [operator.index(a) for a in order]
    except TypeError:
        axes = None
    if axes is None or sorted(axes) != [0, 1, 2]:
        raise InvalidParams(f"sweep order must be a permutation of (0, 1, 2), got {order!r}")
    return axes


def _check_finite(make_body, y0):
    """InvalidParams naming the system and the first row whose y0 is not finite."""
    if not np.isfinite(y0).all():
        row = tuple(int(i) for i in np.argwhere(~np.isfinite(y0))[0])
        raise InvalidParams(f"{make_body.__name__}: y0{list(row)} = {float(y0[row])}; "
                            f"a sweep starts from finite values")


def sweep_descendants(flagged, base, order):
    """``flagged``, a grid.n bool array, with every node that a sweep from
    ``base`` in ``order`` reaches through a flagged node flagged too (module
    docstring, "March order"): a line's flag carries on away from its start
    node, and a flagged start node flags its whole line in the next phase.
    Works in place and returns ``flagged``."""
    axes = _check_order(order)
    for phase, axis in enumerate(axes):
        done = axes[:phase + 1]
        layer = flagged[tuple(slice(None) if a in done else base[a] for a in range(3))]
        line = np.moveaxis(layer, sum(a < axis for a in done), 0)
        i0 = base[axis]
        line[i0:] = np.logical_or.accumulate(line[i0:], axis=0)
        line[i0::-1] = np.logical_or.accumulate(line[i0::-1], axis=0)
    return flagged


def sweep_integrate(triple, grid, order, make_body, y0, max_step, integrability_tol,
                    masked=False):
    """Integrate the system ``(make_body, y0)`` that ``triple`` drives over
    ``grid`` (module docstring, "Systems").

    The sweep starts at ``grid``'s base node and runs the axes in ``order``.
    The triple is checked first (``check_sweep_input``: GridMismatch,
    PreconditionFailed), then ``make_body`` sees y0, then ``max_step`` must
    be positive and finite, ``order`` a permutation of (0, 1, 2) and y0
    finite (InvalidParams, naming the system and the row).  A non-finite
    value raises NonFiniteState unless ``masked``: then the caller masks the
    nodes (module docstring, "Masking").  Returns a grid.n + y0.shape view of
    contiguous y0.shape + grid.n component planes (moving the component axes
    first gives the planes back).
    """
    check_sweep_input(triple, grid, integrability_tol)
    y0 = np.asarray(y0, dtype=float)
    body = make_body(triple, y0)
    if not (math.isfinite(max_step) and max_step > 0):
        raise InvalidParams(f"max_step must be positive and finite, got {max_step}")
    axes = _check_order(order)
    _check_finite(make_body, y0)
    n = grid.n
    # the states live in (rows,) + grid.n component planes; every node is
    # written by one of the phases
    planes = np.empty((y0.size,) + tuple(n))
    planes[(slice(None),) + grid.base] = y0.ravel()

    for phase, axis in enumerate(axes):
        done = axes[:phase]
        # a node layer of this phase is the basic-index view planes[:, at] of
        # shape (rows,) + done_shape; its lines are in C order over the done
        # axes, as in ``starts``
        at = [slice(None) if a in done else grid.base[a] for a in range(3)]
        ax_vals = grid.axis(axis)
        i0 = grid.base[axis]
        if not callable(body):
            with np.errstate(over="ignore", invalid="ignore"):
                overflow = _propagate(planes, body[axis], at, axis, ax_vals - ax_vals[i0],
                                      not masked)
            if overflow.any():
                plus, minus = np.flatnonzero(overflow[i0 + 1:]), np.flatnonzero(overflow[:i0])
                node = i0 + 1 + plus[0] if len(plus) else minus[-1]
                raise NonFiniteState(f"state overflowed along axis {axis} at node {int(node)}")
            continue
        done_shape = tuple(n[a] for a in sorted(done))
        ranges = [range(n[a]) if a in done else [grid.base[a]] for a in range(3)]
        starts = np.array(list(itertools.product(*ranges)), dtype=int)  # (B, 3)
        y_start = planes[(slice(None),) + tuple(at)].reshape(-1, len(starts))
        pts_start = np.stack([grid.axis(a)[starts[:, a]] for a in range(3)], axis=-1)
        plus_open = i0 < n[axis] - 1
        held = None         # a - direction overflow, raised once + has ended
        march = rk4_march(triple, body, [(pts_start, y_start,
                                          node_intervals(ax_vals, i0, step, max_step))
                                         for step in (+1, -1)], axis)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for k, nxt, y in march:
                if not (masked or np.isfinite(y).all()):
                    err = NonFiniteState(f"state overflowed along axis {axis} at node {nxt}")
                    if k == 0 or not plus_open:
                        raise err
                    held = held or err
                at[axis] = nxt
                planes[(slice(None),) + tuple(at)] = y.reshape((-1,) + done_shape)
                if k == 0 and nxt == n[axis] - 1:
                    plus_open = False
                    if held:
                        raise held
    k = y0.ndim
    return np.moveaxis(planes.reshape(y0.shape + tuple(n)), tuple(range(k)),
                       tuple(range(-k, 0)))
