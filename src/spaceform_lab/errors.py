"""Exception taxonomy shared by every module of the package."""


class SpaceformLabError(Exception):
    """Base class for all package errors."""


# --- linear algebra / ambient models -----------------------------------

class DimensionError(SpaceformLabError):
    """Vector length does not match the declared ambient dimension."""


class InvalidTangent(SpaceformLabError):
    """Direction vector is not unit or not tangent to the space form."""


# --- grids and sampled fields -------------------------------------------

class GridTooCoarse(SpaceformLabError):
    """Grid resolution is below the minimum required by the stencil."""


class GridMismatch(SpaceformLabError):
    """Two fields were expected to share one parameter grid but do not."""


class EmptyDomain(SpaceformLabError):
    """Every node of the working grid is masked out."""


# --- holonomic triples ----------------------------------------------------

class DegenerateTriple(SpaceformLabError):
    """Some metric coefficient vanishes where it must not (no immersion)."""


class UmbilicSetError(SpaceformLabError):
    """Coincident principal curvatures where three distinct ones are needed."""


class BranchViolation(SpaceformLabError):
    """A square-root radicand left the branch the construction assumes."""


class NotAFirstIntegralSolution(SpaceformLabError):
    """The conserved sums drift across the grid beyond tolerance, or are not finite."""


class PreconditionFailed(SpaceformLabError):
    """A documented operation precondition does not hold."""


# --- integration ----------------------------------------------------------

class NonFiniteState(SpaceformLabError):
    """An integrated state overflowed or produced NaN."""


# --- Ribaucour engine -----------------------------------------------------

class ConstraintUnsatisfiable(SpaceformLabError):
    """No admissible initial state meets the requested constraints."""


class SingularPhi(SpaceformLabError):
    """The potential phi vanishes at the queried point."""


class SingularPsi(SpaceformLabError):
    """The denominator potential psi vanishes at the queried point."""


class FlatAmbientUnsupported(SpaceformLabError):
    """Operation requires nonzero ambient curvature."""


# --- gallery ----------------------------------------------------------------

class InvalidParams(SpaceformLabError):
    """Construction parameters are inconsistent with the requested item."""


class SingularDenominator(SpaceformLabError):
    """A printed closed form is evaluated where its denominator vanishes."""


class SingularOrbit(SpaceformLabError):
    """Rotation profile meets the fixed-point set of the orbit action."""


# --- verification -----------------------------------------------------------

class DegenerateMetric(SpaceformLabError):
    """Sampled first fundamental form is singular at the queried nodes."""


class NonHolonomicSample(SpaceformLabError):
    """Coordinate frame of a sample is too far from principal/orthogonal."""


# --- io / cli ---------------------------------------------------------------

class BadProjection(SpaceformLabError):
    """Chosen ambient coordinates for an export are not distinct."""


class IoError(SpaceformLabError):
    """File I/O failed."""


class SchemaError(SpaceformLabError):
    """Configuration document violates the schema.

    Carries a JSON-pointer to the offending key in ``pointer``.
    """

    def __init__(self, message, pointer="/"):
        super().__init__(f"{message} (at {pointer})")
        self.pointer = pointer
