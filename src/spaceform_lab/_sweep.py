"""Deterministic lattice sweep integration: the one engine for every system a
triple drives.

March order.  A sweep integrates axis by axis in ``order``: along the first
axis from the base node (one line), then along the second axis from every
node of that line, then along the third from every node of that sheet.  Each
axis phase marches its lines in two directions from the same start nodes,
+ (increasing node index) and - (decreasing).  A direction advances node to
node with classic 4th-order Runge-Kutta substeps: a node interval of span s
takes ``max(1, ceil(|s| / max_step))`` equal substeps.  The evaluation order
is fixed, so outputs are byte-identical for identical inputs.

Lanes.  The two directions of a phase never read each other, so they can
march as one batch: ``rk4_march`` takes one or two lanes, a lane being one
direction's lines with its own substep schedule, and advances every live
lane by one of its own substeps per step.  The lanes' columns lie side by
side; the coefficients dt/2, dt and dt/6 are per column, the triple is still
evaluated lane by lane, and when a lane's schedule ends the batch shrinks to
the other lane.  Each column sees the same floating-point operations as in
a march of its direction alone, so states do not depend on how directions
are grouped.  A phase of at most ``_LANE_LINES`` lines per direction marches
its two directions together, so every ufunc call serves both: such a phase
is dispatch-bound, a call of the right-hand side costing nearly as much for
one line as for many.  That is always the first two phases (1 and n_a
lines) and the last one (n_a n_b lines) up to 22 x 22 lines.  A wider phase
marches its directions one after the other: there a doubled batch no longer
fits in cache and marched slower.

Systems.  ``sweep_integrate`` takes the triple and an ordered list of systems
``(make_body, y0)``, e.g. the Ribaucour system and the moving frame, which
are driven by the same holonomic data (v, h, V).  Their states are stacked:
each y0 is flattened into a block of consecutive rows, in list order, so a
march carries one batch state of shape (R, B).  The batch axis is last, so
every row a body reads or writes is a contiguous run of B values.  Each
system's states are stored as contiguous component planes, one array of
shape ``y0.shape + grid.n``, so every post-sweep step that reads one
component reads contiguous memory.  On arrival at a node, each system's rows
are written to the node layer through a basic-index view of its planes,
(rows,) + the done axes.  Along axis 2, the last phase of a (0, 1, 2) sweep,
such a layer is one value every n_2 doubles, so those writes scatter.  The
planes come back as a ``grid.n + y0.shape`` view, with the shape, values and
``tobytes()`` of a node-major array.

In-place bodies.  ``make_body(triple, y0)`` is called once per sweep, after
the triple is checked, and returns the system's body (it may reject y0).
``body(v, h, V, Y, dY, axis)`` reads the triple values (v, h, V) of the stage
points and its own row block Y, and writes every row of its block dY once, in
place (a ufunc ``out=`` into a row slice); scratch products live in rows that
are not yet written.  A body is built for its inputs: it leaves out the terms
that are exactly zero at every stage of the sweep, the h terms of a constant
triple (h = +0.0) and the c terms when c = 0, and writes a derivative row that
has no other term as the exact 0.0 times its factor.  With finite operands a
dropped term is +0.0 or -0.0, and x - (+-0) or x + (+-0) is x unless x is a
zero, so a derivative changes at most in the sign of a zero.  A state row
takes it in only through y + (+-0) in the stages and the combine, which is y
unless y = -0.0; and a row that does not start at -0.0 never becomes -0.0,
since x + y is -0.0 only when x and y both are.  So a term is dropped only
when y0 has no -0.0 in the rows it reaches (``vanishing_terms``);
otherwise the body keeps it.  The states are then bit for bit those of the
expression form, which keeps every term, and a system's rows are bit for bit
those of a sweep of its own; dY may differ from the expression form's in the
signs of zeros.  The guarantee is weaker where a dropped term would have been
0 * inf or 0 * NaN = NaN.  That needs a non-finite stage value, so it happens
on a line whose state has gone non-finite, where the values frozen at the
masked nodes may differ (NaN in one form, +-inf or a number in the other) and
no output reads them, and on a line where an RK stage overflows while the
node values around it stay finite, which takes a state within a factor of
about two of the largest double.

Right-hand side.  ``stacked_rhs`` builds the one right-hand side.  Per RK
stage it evaluates the triple once per lane (``triple.eval_at``, looked up at
call time, with that lane's B points), allocates one dY and runs each body on
its row blocks of Y and dY.  Two lanes' values are laid side by side in new
read-only arrays, except when every lane hands back the same read-only
arrays as in the call before: then the last call's side-by-side arrays serve
again.  ``eval_at`` hands back the arrays of either of its last two calls
when the points repeat, as they do at the second midpoint stage (k3) and at
the first stage of a substep inside a node interval, and a constant triple
hands back the same arrays for every call of a batch shape.  It leaves Y
unmodified; the march reuses dY as an accumulator.  A sweep makes the same
``eval_at`` calls however many systems it carries and however its directions
are grouped: four per substep of each direction.

Masked rows.  With a ``node_check``, masking governs the first system's rows.
A ``node_check`` flag or a non-finite value in those rows masks the line: the
flag propagates along the sweep, and the line's masked rows freeze while its
other rows keep integrating, as they would in a sweep of their own.  A
non-finite value in any other row raises NonFiniteState naming the axis and
node; when both directions overflow, the + direction's node is named, as if
it had marched first.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

from .errors import InvalidParams, NonFiniteState
from .triples import check_sweep_input

# A phase of at most this many lines per direction marches both directions as
# one batch (module docstring, "Lanes").  Merged against split last phases on
# the sweep_closed inputs (scripts/sweep_ab.py, 12 interleaved rounds, median
# ratio of the phase's march time, one process on a shared 2-vCPU host):
#     lines      441 (21^3)  625 (25^3)  961 (31^3)  1681 (41^3)
#     frame      1.01        1.07        1.17        1.35
#     Ribaucour  0.74        0.69        0.84        0.93
# The frame sweep crosses over between 441 and 625 lines.
_LANE_LINES = 512


def vanishing_terms(triple, reached):
    """(h, c): whether a body may leave out its h terms and its c terms, whose
    values are exactly zero when the triple is constant (h = +0.0) and when
    c = 0, given the rows of y0 those terms reach.  Either may go only when
    ``reached`` holds no -0.0 (module docstring, "In-place bodies")."""
    reached = np.asarray(reached)
    exact = not (np.signbit(reached) & (reached == 0)).any()
    return triple.closed_form and exact, triple.spec.c == 0 and exact


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


class _Lane:
    """A lane of ``rk4_march``: its stage points and its place in its schedule."""

    __slots__ = ("k", "bad", "intervals", "p0", "pm", "p1", "node", "u", "dt", "left")

    def __init__(self, k, pts, bad, intervals):
        self.k, self.bad, self.intervals = k, bad, intervals
        self.p0, self.pm, self.p1 = pts.copy(), pts.copy(), pts.copy()
        self.left = 0

    def next_interval(self):
        """Start the next node interval; False when the schedule has ended."""
        for self.node, self.u, self.dt, self.left in self.intervals:
            return True
        return False


def rk4_march(rhs, lanes, axis, rows=None):
    """March one or two lanes of lines along ``axis`` as one batch state,
    every live lane one RK4 substep of its own schedule per step.

    A lane is ``(pts, y, bad, intervals)``: the (B, 3) start points of its
    lines, their (R, B) states (not modified), the (B,) bool lines that keep
    their first ``rows`` state rows (all rows when None), and its schedule
    from ``node_intervals``.  The live lanes' columns lie side by side in
    lane order; dt/2, dt and dt/6 are per column when two lanes are live,
    and ``rhs(points, Y, axis)`` gets the lanes' points as a list then, as
    one (B, 3) array otherwise.  It returns a fresh dY.  A lane whose
    schedule has ended leaves the batch.  A substep's stages are at u,
    u + dt/2 (twice, k2 and k3) and u + dt, u advancing by dt per substep
    and starting each node interval at the node, so inside an interval the
    first stage of a substep is at the bits of the last stage before it: a
    right-hand side that keeps its last calls computes each distinct point
    set once (``TripleField.eval_at``).

    Yields ``(k, node, y)`` each time lane k arrives at a node, y being its
    (R, B) state there; the caller may flag more of that lane's ``bad``
    before resuming.  Between arrivals, the stages and the combine run in
    place in one ``stage`` buffer, and the k arrays returned by ``rhs`` are
    reused as accumulators, in the order y + (dt/2) k and
    y + (dt/6) (((k1 + 2 k2) + 2 k3) + k4).  Overflow inside a step is left
    to the caller's ``np.errstate`` and checked on node arrival.
    """
    live = [_Lane(k, pts, bad, intervals) for k, (pts, _, bad, intervals) in enumerate(lanes)]
    live = [lane for lane in live if lane.next_interval()]
    y = np.concatenate([lanes[lane.k][1] for lane in live], axis=1) if live else None
    while live:
        if len(live) == 1:
            dt = live[0].dt
            half, sixth = 0.5 * dt, dt / 6.0
            p0, pm, p1 = live[0].p0, live[0].pm, live[0].p1
        else:
            widths = [len(lane.bad) for lane in live]
            dt = np.repeat([lane.dt for lane in live], widths)
            half = np.repeat([0.5 * lane.dt for lane in live], widths)
            sixth = np.repeat([lane.dt / 6.0 for lane in live], widths)
            p0, pm, p1 = ([lane.p0 for lane in live], [lane.pm for lane in live],
                          [lane.p1 for lane in live])
        frozen = np.concatenate([lane.bad for lane in live])
        hold = frozen.any()
        stage = np.empty_like(y)
        steps = min(lane.left for lane in live)     # up to the next arrival
        for _ in range(steps):
            for lane in live:
                lane.p0[:, axis] = lane.u
                lane.pm[:, axis] = lane.u + 0.5 * lane.dt
                lane.u += lane.dt
                lane.p1[:, axis] = lane.u
            k1 = rhs(p0, y, axis)
            k2 = rhs(pm, np.add(y, np.multiply(half, k1, out=stage), out=stage), axis)
            k3 = rhs(pm, np.add(y, np.multiply(half, k2, out=stage), out=stage), axis)
            k4 = rhs(p1, np.add(y, np.multiply(dt, k3, out=stage), out=stage), axis)
            k2 = np.add(k1, np.multiply(2.0, k2, out=k2), out=k2)
            k3 = np.add(k2, np.multiply(2.0, k3, out=k3), out=k3)
            k4 = np.add(k3, k4, out=k4)
            y_new = np.add(y, np.multiply(sixth, k4, out=k4), out=k4)
            if hold:
                y_new[:rows, frozen] = y[:rows, frozen]
            y = y_new
        del k1, k2, k3, stage      # the caller's node work reuses this memory

        cols, lo = [], 0
        for lane in live:
            hi = lo + len(lane.bad)
            lane.left -= steps
            if not lane.left:
                yield lane.k, lane.node, y[:, lo:hi]
                lane.next_interval()
            if lane.left:
                cols.append(slice(lo, hi))
            lo = hi
        if len(cols) < len(live):
            live = [lane for lane in live if lane.left]
            y = np.concatenate([y[:, c] for c in cols], axis=1) if live else None


def _lane_values(lanes):
    """The lanes' (v, h, V), one triple per lane, laid side by side as
    read-only arrays stored components first: every column a body reads
    (v[:, a], h[:, j, a], V[:, a]) is contiguous."""
    v, h, V = zip(*lanes)
    out = (np.concatenate([x.T for x in v], axis=1).T,
           np.concatenate([x.transpose(1, 2, 0) for x in h], axis=2).transpose(2, 0, 1),
           np.concatenate([x.T for x in V], axis=1).T)
    for x in out:
        x.flags.writeable = False
    return out


def stacked_rhs(triple, systems):
    """(rhs, y0, blocks) for ``systems`` stacked on one state: the right-hand
    side ``rhs(points, Y (R, B), axis) -> dY``, the stacked initial state (R,)
    and each system's row slice (module docstring).  ``points`` is one (B, 3)
    array, or a list of one per lane whose columns lie side by side in Y."""
    systems = [(make_body, np.asarray(y0, dtype=float)) for make_body, y0 in systems]
    parts, start = [], 0
    for make_body, y0 in systems:
        parts.append((make_body(triple, y0), slice(start, start + y0.size)))
        start += y0.size

    last = None     # the last two-lane call's arrays, all read-only, and their _lane_values

    def values(pts):
        nonlocal last
        if not isinstance(pts, list):
            return triple.eval_at(pts)
        lanes = [triple.eval_at(p) for p in pts]
        arrays = [x for lane in lanes for x in lane]
        if (last is not None and len(arrays) == len(last[0])
                and all(map(operator.is_, arrays, last[0]))):
            return last[1]
        out = _lane_values(lanes)
        last = None if any(x.flags.writeable for x in arrays) else (arrays, out)
        return out

    def rhs(pts, Y, axis):
        v, h, V = values(pts)
        dY = np.empty(Y.shape)
        for body, rows in parts:
            body(v, h, V, Y[rows], dY[rows], axis)
        return dY

    y0 = np.concatenate([y0.ravel() for _, y0 in systems])
    return rhs, y0, [rows for _, rows in parts]


def sweep_integrate(triple, grid, order, systems, max_step, integrability_tol,
                    node_check=None):
    """Integrate the ``systems`` that ``triple`` drives over ``grid`` in one sweep.

    ``systems`` is an ordered list of ``(make_body, y0)`` (module docstring);
    the sweep starts at ``grid``'s base node and runs the axes in ``order``.
    The triple is checked first (``check_sweep_input``: GridMismatch,
    PreconditionFailed), then each ``make_body`` sees its y0, then ``max_step``
    must be positive and finite (InvalidParams).
    ``node_check(Y (R, B)) -> (B,) bool`` flags lines to mask, evaluated on
    arrival; masking governs the first system's rows.  Without it, a
    non-finite value in any row raises NonFiniteState.
    Returns (states, masked): per system, in list order, a grid.n + y0.shape
    view of its own contiguous y0.shape + grid.n component planes (moving the
    component axes first gives the planes back); and the grid.n bool mask.
    """
    check_sweep_input(triple, grid, integrability_tol)
    rhs, y0, blocks = stacked_rhs(triple, systems)
    if not (math.isfinite(max_step) and max_step > 0):
        raise InvalidParams(f"max_step must be positive and finite, got {max_step}")
    mask_rows = blocks[0].stop if node_check is not None else 0
    n = grid.n
    R = len(y0)
    # each system's states live in their own (rows,) + grid.n component planes
    states = [np.full((rows.stop - rows.start,) + tuple(n), np.nan) for rows in blocks]
    for part, rows in zip(states, blocks):
        part[(slice(None),) + grid.base] = y0[rows]
    masked = np.zeros(n, dtype=bool)

    if node_check is not None and node_check(y0[:, None])[0]:
        masked[grid.base] = True

    done = []
    for axis in order:
        ranges = [range(n[a]) if a in done else [grid.base[a]] for a in range(3)]
        starts = np.array(list(itertools.product(*ranges)), dtype=int)  # (B, 3)
        B = len(starts)
        # a node layer of this phase is the basic-index view part[:, at] of
        # shape (rows,) + done_shape in each system's planes; its lines are in
        # C order over the done axes, as in ``starts``
        done_shape = tuple(n[a] for a in sorted(done))
        at = [slice(None) if a in done else grid.base[a] for a in range(3)]
        y_start = np.concatenate([part[(slice(None),) + tuple(at)].reshape(-1, B)
                                  for part in states])
        bad_start = masked[tuple(at)].reshape(B)
        pts_start = np.stack([grid.axis(a)[starts[:, a]] for a in range(3)], axis=-1)
        ax_vals = grid.axis(axis)
        i0 = grid.base[axis]
        lanes = [(+1, bad_start.copy()), (-1, bad_start.copy())]
        for group in [lanes] if B <= _LANE_LINES else [[lane] for lane in lanes]:
            plus_open = group[0][0] > 0 and i0 < n[axis] - 1
            held = None         # a - direction overflow, raised once + has ended
            march = rk4_march(rhs, [(pts_start, y_start, bad,
                                     node_intervals(ax_vals, i0, step, max_step))
                                    for step, bad in group], axis, mask_rows)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                for k, nxt, y in march:
                    step, bad = group[k]
                    if mask_rows < R and not np.isfinite(y[mask_rows:]).all():
                        err = NonFiniteState(
                            f"state overflowed along axis {axis} at node {nxt}")
                        if step > 0 or not plus_open:
                            raise err
                        held = held or err
                    if mask_rows:
                        bad |= ~np.isfinite(y[:mask_rows]).all(axis=0)
                    if node_check is not None:
                        bad |= node_check(y)
                    at[axis] = nxt
                    for part, rows in zip(states, blocks):
                        part[(slice(None),) + tuple(at)] = y[rows].reshape((-1,) + done_shape)
                    masked[tuple(at)] |= bad.reshape(done_shape)
                    if step > 0 and nxt == n[axis] - 1:
                        plus_open = False
                        if held:
                            raise held
        done.append(axis)
    views = []
    for part, (_, y0) in zip(states, systems):
        k = np.ndim(y0)
        views.append(np.moveaxis(part.reshape(np.shape(y0) + tuple(n)), tuple(range(k)),
                                 tuple(range(-k, 0))))
    return views, masked
