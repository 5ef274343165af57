"""Host speed, probed beside every timed pass so timings can be scaled to it.

On a shared host the same pass runs up to twice as slow for seconds to
minutes at a time, and neither process CPU time nor steal time shows it.
``probe`` times a fixed kernel of the kinds of work a pass does: an
interpreter loop, numpy calls on small arrays, an RK4 march of arrays the
size of a 41 x 41 sweep plane, batched 4 x 4 matrix products, and cubic
spline interpolation on an 11^3 grid.  It calls nothing of
``spaceform_lab``, so a change to the package cannot move it.

A timing is scaled by ``REFERENCE_PROBE_S`` over the mean of the probes
taken just before and just after it.  ``bench/README.md`` gives the spread
of scaled and unscaled timings between runs of the same code.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from scipy import ndimage

# Probe time on the reference host (2-vCPU Intel Xeon, Python 3.11, numpy 2.4)
# in its fast state; its slow state reads about 0.13 s.  Scaled timings are
# seconds on that host at full speed.
REFERENCE_PROBE_S = 0.067

_SMALL = np.linspace(0.0, 1.0, 60)
_PLANE = np.linspace(0.0, 1.0, 41 * 41 * 12).reshape(41, 41, 12)
_MATS = np.linspace(0.0, 1.0, 41 * 41 * 16).reshape(-1, 4, 4)
_COEFFS = ndimage.spline_filter(np.linspace(0.0, 1.0, 11 ** 3).reshape(11, 11, 11), order=3)
_COORDS = np.linspace(0.0, 10.0, 3 * 11 * 11 * 12).reshape(3, -1)


def _rhs(y):
    return 0.3 * np.sin(y) - 0.01 * np.einsum("...i,...i->...", y, y)[..., None]


def probe(min_s=0.0) -> float:
    """Mean wall time of the fixed reference kernel, in seconds, run at least
    once and until ``min_s`` has passed."""
    start = perf_counter()
    runs = 0
    while True:
        _kernel()
        runs += 1
        elapsed = perf_counter() - start
        if elapsed >= min_s:
            return elapsed / runs


def _kernel():
    acc = 0
    for i in range(200_000):
        acc += i * i
    x = _SMALL
    for _ in range(3000):
        x = np.sqrt(x * x + 1.0) - 0.5 * x
    y, h = _PLANE, 0.01
    for _ in range(30):
        k1 = _rhs(y)
        k2 = _rhs(y + 0.5 * h * k1)
        k3 = _rhs(y + 0.5 * h * k2)
        k4 = _rhs(y + h * k3)
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    a = _MATS
    for _ in range(50):
        a = np.matmul(a, a) * 0.2 + 0.1
    for _ in range(25):
        ndimage.map_coordinates(_COEFFS, _COORDS, order=3, prefilter=False, mode="nearest")


def scale(before, after) -> float:
    """Factor that brings a timing between two probes to the reference speed."""
    return 2.0 * REFERENCE_PROBE_S / (before + after)
