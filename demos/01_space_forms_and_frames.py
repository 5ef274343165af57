"""Space-form models and moving-frame reconstruction.

Builds the flat and spherical ambient models, integrates the frame system
for the simplest Problem-* starting solution, and compares against the
closed-form answer: position f = u1 E1 with the (X2, N) pair rotating at
unit rate, or the great-circle position when the ambient is the sphere.
"""

import numpy as np

from spaceform_lab import (
    ParameterGrid,
    SpaceFormSpec,
    geodesic,
    frame_gram_residual,
    integrate_frame,
    on_space_form,
    path_independence_residual,
)
from spaceform_lab.gallery import closed_form_frame, seed_frame_state, trivial_seed

# ambient geodesics stay on the quadric for every curvature
for c in (1.0, -1.0):
    spec = SpaceFormSpec(c, 0)
    p = spec.base_point()
    w = np.zeros(spec.dim)
    w[0] = 1.0
    pts = geodesic(spec, p, w, np.linspace(-3, 3, 13))
    assert np.all(on_space_form(spec, pts, 1e-10))
    print(f"c = {c:+.0f}: geodesic stays on the model quadric")

grid = ParameterGrid.centered(1.0, 21)

for c in (0.0, 1.0):
    spec = SpaceFormSpec(c, 0)
    seed = trivial_seed("problemstar_e1_Cneg", grid, c=c, s=0, C=-1.0)
    init = seed_frame_state("problemstar_e1_Cneg", spec)

    frame = integrate_frame(seed, init)
    exact = closed_form_frame("problemstar_e1_Cneg", spec, -1.0)(grid.points())
    err = np.abs(frame.states - exact).max()
    gram = frame_gram_residual(frame).overall_max
    path = path_independence_residual(frame)["grid"].max
    print(f"c = {c:+.0f}: closed-form error {err:.2e}, "
          f"orthonormality drift {gram:.2e}, sweep-order dependence {path:.2e}")

print("\nThe same integrator flags a non-solution immediately:")
from spaceform_lab.triples import TripleField

broken = TripleField.constant(grid, (1, -1, 1), SpaceFormSpec(0.0, 0),
                              v=(0, 1, 1), V=(1, 0.5, 0.2))
rep = path_independence_residual(
    integrate_frame(broken, seed_frame_state("cflat", broken.spec), integrability_tol=None))
print(f"injected compatibility violation 0.1 -> far-corner difference "
      f"{rep['far_corner'].max:.2e}")
