"""Exception types raised across the package."""


class SpringRodsError(Exception):
    """Base class for all package errors."""


class ValidationError(SpringRodsError, ValueError):
    """A value failed validation where it entered the package."""


class GeometryError(ValidationError):
    """Rod intervals or spring length are inconsistent."""


class SmallnessViolation(ValidationError):
    """Spring stiffness too large for the rod stiffnesses (uniqueness lost)."""


class ZeroElements(ValidationError):
    """A mesh was requested with a non-integer or fewer than one element on a rod."""


class NoConsistentRegime(SpringRodsError):
    """No finite equilibrium in the gap bounds (e.g. a NaN spring law, or loads
    so large that the condensed load or the solution overflows)."""


class NonPositiveLambda(ValidationError):
    """Penalty parameter must be positive and finite."""


class InfeasibleCandidate(SpringRodsError):
    """Candidate handed to the residual check violates the gap constraint."""


class EmptyFeasibleGrid(SpringRodsError):
    """Brute-force grid contains no feasible point."""


class ParseError(SpringRodsError):
    """Configuration file could not be parsed; message carries line and key."""
