"""Exception hierarchy shared across the solver modules."""


class MpigaError(Exception):
    """Base class for all package errors."""


class ParameterError(MpigaError):
    """Invalid combination of user-supplied parameters."""


class DomainError(MpigaError):
    """Evaluation point outside the admissible domain."""


class GeometryError(MpigaError):
    """Degenerate or non-regular geometry (non-positive Jacobian, zero-speed edge)."""


class ConformityError(MpigaError):
    """Patch interfaces do not match C0 (partial overlap, mismatched meshes)."""


class NonManifoldError(ConformityError):
    """A patch edge matches more than one other edge."""


class IllConditionedInterfaceError(MpigaError):
    """Projected gluing data changes sign along an interface."""


class DegenerateVertexError(MpigaError):
    """Singular corner interpolation system."""

    def __init__(self, message, patch=None, vertex=None):
        super().__init__(message)
        self.patch = patch
        self.vertex = vertex


class IndefiniteSystemError(MpigaError):
    """A matrix expected to be SPD has a non-positive pivot in its symmetric
    factorization, or the factorization cannot witness definiteness.

    ``nonpositive_pivots`` is the number of non-positive pivots, i.e. of
    non-positive eigenvalues, when the factorization counted them.
    """

    def __init__(self, message, nonpositive_pivots=None):
        super().__init__(message)
        self.nonpositive_pivots = nonpositive_pivots


class NumericalError(MpigaError):
    """A computed result failed its own check: an SPD solve whose backward
    error exceeds the tolerance, or a convergence-study level whose free
    dof count disagrees with the block-sum accounting."""
