"""Numerical laboratory for holonomic hypersurfaces of 4-dimensional space forms.

Builds immersions from holonomic data by integrating the moving-frame system,
generates new solutions with the Ribaucour transformation, and verifies every
algebraic and geometric invariant of the constructions against independent
sample-based checks.
"""

from .ambient import SignedSpace, SpaceFormSpec, geodesic, inner, on_space_form
from .grid import ParameterGrid
from .report import ResidualReport
from .triples import (
    Classification,
    FirstIntegralTriple,
    TripleField,
    classify,
    companion_V,
    first_integrals,
    principal_curvatures,
    triple_from_curvatures,
    triple_residuals,
)
from .frames import (
    FrameField,
    FrameState,
    frame_gram_residual,
    induced_metric,
    integrate_frame,
    path_independence_residual,
    standard_frame_state,
)
from .ribaucour import (
    InvariantDrift,
    RibaucourField,
    RibaucourState,
    integrate_ribaucour,
    invariant_drift,
    parallel_triple,
    seed_state,
    transform_immersion,
    transformed_triple,
)
from .verify import (
    ImmersionSample,
    fundamental_forms,
    gauss_codazzi_residual,
    hj_relation_residual,
    isometry_check,
    pair_gauss_relation,
    schouten_codazzi_residual,
)
from .gallery import (
    HelixProfile,
    PhiFamily,
    closed_form_transform,
    explicit_fprime,
    generalized_cone,
    helix,
    phi_state,
    rotation_hypersurface,
    trivial_seed,
)

__version__ = "0.1.0"
