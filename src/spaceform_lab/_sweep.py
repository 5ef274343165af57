"""Deterministic lattice sweep integration shared by the frame and Ribaucour engines.

A sweep integrates axis by axis: along the first axis from the base node,
then along the second axis from every node of the first line, then along the
third from every node of that sheet.  Lines advance node to node with classic
4th-order Runge-Kutta substeps so the effective step never exceeds
``max_step``.  Within each line the evaluation order is fixed, so outputs are
byte-identical for identical inputs.

The lines of one axis phase march together as one batch state of shape
``state_shape + (B,)``: the batch axis is last, so every state component the
right-hand sides read or write is a contiguous run of B values.  On arrival
at a node, the batch is written to the node layer through a basic-index view
of the state array.

Right-hand-side contract: ``rhs`` leaves its state argument Y unmodified and
returns dY as a fresh array of Y's shape, which the march then reuses as an
accumulator.

In-place bodies.  The frame and Ribaucour systems each have a body
``body(v, h, V, Y, dY, axis)`` that reads the triple values (v, h, V) of the
stage points and its own state rows Y, and writes every component of its
rows dY once, in place (a ufunc ``out=`` into its slice); scratch products
live in a component that is not yet written.  A body does the same
floating-point operations in the same order as the expression form, so
states are unchanged bit for bit.  A one-system right-hand side evaluates
the triple, allocates dY and runs its body.

Stacked states.  Systems driven by the same triple on the same grid march as
one state whose leading axis stacks their rows, e.g. the 9 Ribaucour rows
followed by the 5 dim frame rows.  Their right-hand side evaluates the
triple once per RK stage, allocates one dY and runs each body on row views
of Y and dY, so a stacked sweep makes the ``eval_at`` calls of one sweep and
its rows are bit for bit those of separate sweeps.

Masked rows.  ``mask_rows`` names the leading state rows that masking
governs.  A ``node_check`` flag or a non-finite value in those rows masks the
line: the flag propagates along the sweep, and the line's masked rows freeze
while its other rows keep integrating, as they would in a sweep of their own.
A non-finite value in any other row raises NonFiniteState.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import InvalidParams, NonFiniteState


def rk4_march(rhs, pts, axis, u_from, u_to, y, max_step, frozen, rows=None):
    """Advance the batch state y (state_shape + (B,)) from u_from to u_to
    along one axis; ``y`` itself is not modified.  The lines flagged in
    ``frozen`` keep their first ``rows`` state rows (all rows when None).

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
        k1 = rhs(p0, y)
        k2 = rhs(pm, np.add(y, np.multiply(half, k1, out=stage), out=stage))
        k3 = rhs(pm, np.add(y, np.multiply(half, k2, out=stage), out=stage))
        k4 = rhs(p1, np.add(y, np.multiply(dt, k3, out=stage), out=stage))
        k2 = np.add(k1, np.multiply(2.0, k2, out=k2), out=k2)
        k3 = np.add(k2, np.multiply(2.0, k3, out=k3), out=k3)
        k4 = np.add(k3, k4, out=k4)
        y_new = np.add(y, np.multiply(sixth, k4, out=k4), out=k4)
        if hold:
            y_new[:rows, ..., frozen] = y[:rows, ..., frozen]
        y = y_new
        u += dt
        p0, p1 = p1, p0        # this substep's end points start the next one
    return y


def sweep_integrate(grid, order, y0, rhs, max_step, node_check=None, mask_rows=0):
    """Integrate a pointwise ODE system over the whole grid.

    ``rhs(points (B, 3), Y state_shape + (B,), axis)`` returns dY as a fresh
    array of Y's shape (the march accumulates into it).
    ``node_check(Y state_shape + (B,)) -> (B,) bool`` flags nodes to mask
    (evaluated on arrival).  Masking governs the first ``mask_rows`` rows of
    the state's leading axis (module docstring); a non-finite value in the
    other rows raises NonFiniteState.  ``max_step`` must be positive and
    finite (InvalidParams).
    Returns (states grid.n + state_shape, masked bool array).
    """
    if not (math.isfinite(max_step) and max_step > 0):
        raise InvalidParams(f"max_step must be positive and finite, got {max_step}")
    n = grid.n
    y0 = np.asarray(y0, dtype=float)
    state_shape = y0.shape
    states = np.full(tuple(n) + state_shape, np.nan)
    states[grid.base] = y0
    masked = np.zeros(n, dtype=bool)

    if node_check is not None and node_check(y0[..., None])[0]:
        masked[grid.base] = True

    done = []
    for axis in order:
        ranges = [range(n[a]) if a in done else [grid.base[a]] for a in range(3)]
        starts = np.array(list(itertools.product(*ranges)), dtype=int)  # (B, 3)
        B = len(starts)
        # a node layer of this phase is the basic-index view states[at] of
        # shape done_shape + state_shape; its lines are in C order over the
        # done axes, as in ``starts``
        done_shape = tuple(n[a] for a in sorted(done))
        lead = tuple(range(len(done)))
        trail = tuple(range(-len(done), 0))
        at = [slice(None) if a in done else grid.base[a] for a in range(3)]
        y_start = np.moveaxis(states[tuple(at)], lead, trail).reshape(state_shape + (B,))
        bad_start = masked[tuple(at)].reshape(B)
        pts_start = np.stack([grid.axis(a)[starts[:, a]] for a in range(3)], axis=-1)
        ax_vals = grid.axis(axis)
        i0 = grid.base[axis]

        def _rhs(p, y):
            return rhs(p, y, axis)

        for direction in (+1, -1):
            y = y_start.copy()
            bad = bad_start.copy()
            idx = i0
            while 0 <= idx + direction < n[axis]:
                nxt = idx + direction
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    y = rk4_march(_rhs, pts_start, axis, ax_vals[idx], ax_vals[nxt],
                                  y, max_step, bad, mask_rows)
                if mask_rows < len(y) and not np.isfinite(y[mask_rows:]).all():
                    raise NonFiniteState(
                        f"state overflowed along axis {axis} at node {nxt}"
                    )
                if mask_rows:
                    bad |= ~np.isfinite(y[:mask_rows].reshape(-1, B)).all(axis=0)
                if node_check is not None:
                    bad |= node_check(y)
                at[axis] = nxt
                states[tuple(at)] = np.moveaxis(y.reshape(state_shape + done_shape),
                                                trail, lead)
                masked[tuple(at)] |= bad.reshape(done_shape)
                idx = nxt
        done.append(axis)
    return states, masked
