"""Exception types shared across the toolkit.

Every error that carries numerical evidence (a form defect, an eigenvalue
list, a failing pair) stores it on the exception instance so callers and
the CLI can report it without reparsing messages.  Each class also names
the CLI exit code it maps to: 2 input, 3 degenerate geometry, 4
constraint violation, 5 resource budget.
"""


class GeometryError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 4

    def json_fields(self):
        """Evidence fields for a JSON error report."""
        return {}


class DimensionError(GeometryError):
    """Vector or matrix shapes do not match the ambient dimension."""

    exit_code = 2


class InvalidPointError(GeometryError):
    """A projective point with a zero (or non-finite) lift."""

    exit_code = 2


class FormViolationError(GeometryError):
    """A matrix that does not preserve the Hermitian form.

    Attributes:
        defect: sup-norm of M* J M - J, scaled by the matrix size.
    """

    exit_code = 2

    def __init__(self, message, defect=None):
        super().__init__(message)
        self.defect = defect

    def json_fields(self):
        return {} if self.defect is None else {"defect": float(self.defect)}


class PointClassError(GeometryError):
    """An operation received a point of the wrong sign class."""

    exit_code = 3


class BorderlineClassError(GeometryError):
    """Classification is ambiguous at the working tolerance.

    Attributes:
        eigenvalues: the computed spectrum, for the caller to inspect.
    """

    exit_code = 3

    def __init__(self, message, eigenvalues=None):
        super().__init__(message)
        self.eigenvalues = eigenvalues


class DegenerateInputError(GeometryError):
    """Input degenerate for the requested operation (identity matrix,
    coincident points, a constant point cloud, ...)."""

    exit_code = 3


class PoleError(GeometryError):
    """The point is a pole of the map (inversion at its center)."""

    exit_code = 3


class PointAtInfinityError(GeometryError):
    """Horospherical coordinates requested for the distinguished point
    at infinity."""

    exit_code = 3


class InvalidPackingError(GeometryError):
    """Closed balls of a sphere packing are not pairwise disjoint."""

    exit_code = 4


class CertificateError(GeometryError):
    """A sampled discreteness certificate failed.

    Attributes:
        pair: the (i, j) index pair that failed, when applicable.
    """

    exit_code = 4

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair

    def json_fields(self):
        return {} if self.pair is None else {"pair": list(self.pair)}


class DegenerateCenterError(GeometryError):
    """A Dirichlet center fixed by a nontrivial group element."""

    exit_code = 3


class InvarianceError(GeometryError):
    """Generators do not preserve the requested invariant model."""

    exit_code = 4


class BranchBoundaryError(GeometryError):
    """Input sits on a branch boundary where the map is not smooth."""

    exit_code = 4


class BudgetExceededError(GeometryError):
    """An enumeration exceeded its memory or size budget.

    Attributes:
        completed_radius: last fully enumerated word length.
        partial: records produced before the budget was hit.
    """

    exit_code = 5

    def __init__(self, message, completed_radius=None, partial=None):
        super().__init__(message)
        self.completed_radius = completed_radius
        self.partial = partial

    def json_fields(self):
        return {"completed_radius": self.completed_radius}
