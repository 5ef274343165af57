"""Deterministic lattice sweep integration: the one engine for every system a
triple drives.

A sweep integrates axis by axis: along the first axis from the base node,
then along the second axis from every node of the first line, then along the
third from every node of that sheet.  Lines advance node to node with classic
4th-order Runge-Kutta substeps so the effective step never exceeds
``max_step``.  Within each line the evaluation order is fixed, so outputs are
byte-identical for identical inputs.

Systems.  ``sweep_integrate`` takes the triple and an ordered list of systems
``(make_body, y0)``, e.g. the Ribaucour system and the moving frame, which
are driven by the same holonomic data (v, h, V).  Their states are stacked:
each y0 is flattened into a block of consecutive rows, in list order, so the
lines of one axis phase march together as one batch state of shape (R, B).
The batch axis is last, so every row a body reads or writes is a contiguous
run of B values.  On arrival at a node, each system's rows are written to the
node layer through a basic-index view of that system's own state array, which
comes back as a contiguous ``grid.n + y0.shape`` array.

In-place bodies.  ``make_body(triple, y0)`` is called once per sweep, after
the triple is checked, and returns the system's body (it may reject y0).
``body(v, h, V, Y, dY, axis)`` reads the triple values (v, h, V) of the stage
points and its own row block Y, and writes every row of its block dY once, in
place (a ufunc ``out=`` into a row slice); scratch products live in rows that
are not yet written.  A body does the same floating-point operations in the
same order as the expression form, so states are unchanged bit for bit, and a
system's rows are bit for bit those of a sweep of its own.

Right-hand side.  ``stacked_rhs`` builds the one right-hand side.  Per RK
stage it evaluates the triple once (``triple.eval_at``, looked up at call
time), allocates one dY and runs each body on its row blocks of Y and dY.  It
leaves Y unmodified; the march reuses dY as an accumulator.  A sweep makes
the same ``eval_at`` calls however many systems it carries.

Masked rows.  With a ``node_check``, masking governs the first system's rows.
A ``node_check`` flag or a non-finite value in those rows masks the line: the
flag propagates along the sweep, and the line's masked rows freeze while its
other rows keep integrating, as they would in a sweep of their own.  A
non-finite value in any other row raises NonFiniteState.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import InvalidParams, NonFiniteState
from .triples import check_sweep_input


def rk4_march(rhs, pts, axis, u_from, u_to, y, max_step, frozen, rows=None):
    """Advance the batch state y (R, B) from u_from to u_to along one axis;
    ``y`` itself is not modified.  ``rhs(points (B, 3), Y, axis)`` returns a
    fresh dY.  The lines flagged in ``frozen`` keep their first ``rows`` state
    rows (all rows when None).

    Stages and the combine run in place: one ``stage`` buffer per march, and
    the k arrays returned by ``rhs`` are reused as accumulators, in the order
    y + (dt/2) k and y + (dt/6) (((k1 + 2 k2) + 2 k3) + k4).  Overflow inside
    a step is tolerated here; callers detect non-finite states on node arrival.
    """
    span = u_to - u_from
    nsub = max(1, math.ceil(abs(span) / max_step))
    dt = span / nsub
    half = 0.5 * dt
    sixth = dt / 6.0
    hold = frozen is not None and frozen.any()
    stage = np.empty_like(y)
    u = u_from
    p0 = pts.copy()
    p0[:, axis] = u
    pm = pts.copy()
    p1 = pts.copy()
    for _ in range(nsub):
        pm[:, axis] = u + half
        p1[:, axis] = u + dt
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
        u += dt
        p0, p1 = p1, p0        # this substep's end points start the next one
    return y


def stacked_rhs(triple, systems):
    """(rhs, y0, blocks) for ``systems`` stacked on one state: the right-hand
    side ``rhs(points (B, 3), Y (R, B), axis) -> dY``, the stacked initial
    state (R,) and each system's row slice (module docstring)."""
    systems = [(make_body, np.asarray(y0, dtype=float)) for make_body, y0 in systems]
    parts, start = [], 0
    for make_body, y0 in systems:
        parts.append((make_body(triple, y0), slice(start, start + y0.size)))
        start += y0.size

    def rhs(pts, Y, axis):
        v, h, V = triple.eval_at(pts)
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
    Returns (states, masked): one contiguous grid.n + y0.shape array per
    system, in list order, and the grid.n bool mask.
    """
    check_sweep_input(triple, grid, integrability_tol)
    rhs, y0, blocks = stacked_rhs(triple, systems)
    if not (math.isfinite(max_step) and max_step > 0):
        raise InvalidParams(f"max_step must be positive and finite, got {max_step}")
    mask_rows = blocks[0].stop if node_check is not None else 0
    n = grid.n
    R = len(y0)
    # each system's states live in their own grid.n + (rows,) array
    states = [np.full(tuple(n) + (rows.stop - rows.start,), np.nan) for rows in blocks]
    for part, rows in zip(states, blocks):
        part[grid.base] = y0[rows]
    masked = np.zeros(n, dtype=bool)

    if node_check is not None and node_check(y0[:, None])[0]:
        masked[grid.base] = True

    done = []
    for axis in order:
        ranges = [range(n[a]) if a in done else [grid.base[a]] for a in range(3)]
        starts = np.array(list(itertools.product(*ranges)), dtype=int)  # (B, 3)
        B = len(starts)
        # a node layer of this phase is the basic-index view part[at] of
        # shape done_shape + (rows,) in each system's array; its lines are in
        # C order over the done axes, as in ``starts``
        done_shape = tuple(n[a] for a in sorted(done))
        lead = tuple(range(len(done)))
        trail = tuple(range(-len(done), 0))
        at = [slice(None) if a in done else grid.base[a] for a in range(3)]
        y_start = np.concatenate([np.moveaxis(part[tuple(at)], lead, trail).reshape(-1, B)
                                  for part in states])
        bad_start = masked[tuple(at)].reshape(B)
        pts_start = np.stack([grid.axis(a)[starts[:, a]] for a in range(3)], axis=-1)
        ax_vals = grid.axis(axis)
        i0 = grid.base[axis]

        for direction in (+1, -1):
            y = y_start.copy()
            bad = bad_start.copy()
            idx = i0
            while 0 <= idx + direction < n[axis]:
                nxt = idx + direction
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    y = rk4_march(rhs, pts_start, axis, ax_vals[idx], ax_vals[nxt],
                                  y, max_step, bad, mask_rows)
                if mask_rows < R and not np.isfinite(y[mask_rows:]).all():
                    raise NonFiniteState(
                        f"state overflowed along axis {axis} at node {nxt}"
                    )
                if mask_rows:
                    bad |= ~np.isfinite(y[:mask_rows]).all(axis=0)
                if node_check is not None:
                    bad |= node_check(y)
                at[axis] = nxt
                for part, rows in zip(states, blocks):
                    part[tuple(at)] = np.moveaxis(y[rows].reshape((-1,) + done_shape),
                                                  trail, lead)
                masked[tuple(at)] |= bad.reshape(done_shape)
                idx = nxt
        done.append(axis)
    return [part.reshape(tuple(n) + np.shape(y0))
            for part, (_, y0) in zip(states, systems)], masked
