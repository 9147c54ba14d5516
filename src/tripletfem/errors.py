"""Typed errors raised across the library.

Every error the library raises deliberately derives from TripletFemError so
callers (and the command line driver) can tell library failures from plain
programming mistakes.
"""


class TripletFemError(Exception):
    """Base class for all library errors."""


# ---------------------------------------------------------------- geometry

class DimensionMismatch(TripletFemError):
    """Operands live in different coordinate dimensions."""


class PointOutsideDomain(TripletFemError):
    """A chart was evaluated at a point outside its domain descriptor."""


class PointOutsideImage(TripletFemError):
    """A chart inverse was evaluated at a point outside the chart's image."""


class NotInvertible(TripletFemError):
    """A map was built from a singular linear part."""


# ----------------------------------------------------------------- triplet

class SingularJacobian(TripletFemError):
    """|det J| at or below the representable floor (1e-300)."""


class AsymmetricCoefficient(TripletFemError):
    """The effective coefficient eps * S^-1 is asymmetric beyond tolerance."""


class NonFiniteCoefficient(TripletFemError):
    """A material or metric evaluated to inf or NaN."""


# -------------------------------------------------------------------- mesh

class DegenerateShape(TripletFemError):
    """A requested shape has zero or negative extent, or a mesh node a
    non-finite coordinate."""


class DegenerateElement(TripletFemError):
    """An element has zero or negative volume, or a region collapsed."""


class InvalidFacet(TripletFemError, ValueError):
    """A declared boundary facet is not a face of exactly one element, or is
    declared twice."""


class MalformedFile(TripletFemError):
    """A mesh file could not be parsed; the message carries the line number."""


class UnsupportedVersion(TripletFemError):
    """A mesh file declares a format version or element type not handled."""


class LengthMismatch(TripletFemError):
    """Attached data does not match the node or element count."""


class UnknownTag(TripletFemError, ValueError):
    """A region or boundary tag is not present in the mesh or atlas, or a
    field has no entry for a region."""


# ------------------------------------------------------------------- atlas

class InterfaceMismatch(TripletFemError):
    """Interface nodes of two regions do not coincide in the universal chart."""


# ------------------------------------------------------------------ solver

class NotConverged(TripletFemError):
    """CG stopped above its residual target; carries the best iterate, its
    residual and the number of iterations done."""

    def __init__(self, message, best=None, residual=None, iterations=None):
        super().__init__(message)
        self.best = best
        self.residual = residual
        self.iterations = iterations


class MaxIterExceeded(NotConverged):
    """Iteration budget exhausted."""


class ToleranceUnreachable(NotConverged):
    """The CG recurrence underflowed to an exact zero above the target:
    the tolerance lies below what double precision reaches."""


class NotPositiveDefinite(TripletFemError):
    """The matrix exposed a direction of negative curvature."""


class ZeroDiagonal(TripletFemError):
    """Jacobi preconditioning requires a strictly nonzero diagonal."""


class BreakdownIC(TripletFemError):
    """Incomplete Cholesky hit a non-positive pivot."""


# ------------------------------------------------------------ applications

class RegionNotContained(TripletFemError):
    """The interior region does not fit inside the shell's inner sphere."""


class TopologyChange(TripletFemError):
    """A motion step folds or degenerates at least one element."""


# --------------------------------------------------------------------- cli

class ScenarioError(TripletFemError):
    """A scenario file failed validation; carries a field path if known."""

    def __init__(self, message, field=None, line=None):
        super().__init__(message)
        self.field = field
        self.line = line
