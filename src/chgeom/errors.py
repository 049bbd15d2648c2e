"""Exception types shared across the toolkit.

Every failure the toolkit raises is one of these classes.  Every error that
carries numerical evidence (a form defect, a completed radius) stores it on
the exception instance so callers and the CLI can report it without
reparsing messages.  Each class also names the CLI exit code it maps to:
2 input, 3 degenerate geometry, 4 constraint violation, 5 resource budget.
The CLI catches GeometryError alone, so any other exception, with its
traceback, is a bug.
"""


class GeometryError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 4

    def json_fields(self):
        """Evidence fields for a JSON error report."""
        return {}


class InputError(GeometryError):
    """A command-line configuration or input file that cannot be used."""

    exit_code = 2


class ParameterError(GeometryError, ValueError):
    """An argument outside the domain of the operation (an empty grid, an
    unknown model name, a nonpositive radius, ...).

    It is also a ValueError, so callers may catch it as one.
    """

    exit_code = 4


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
    """Classification that the rounding bounds cannot decide."""

    exit_code = 3


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
        completed_radius: last fully enumerated word length.  Rerunning
            with max_len = completed_radius gives the result up to there.
    """

    exit_code = 5

    def __init__(self, message, completed_radius=None):
        super().__init__(message)
        self.completed_radius = completed_radius

    def json_fields(self):
        return {"completed_radius": self.completed_radius}
