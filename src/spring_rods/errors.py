"""Exception types raised across the package."""


class SpringRodsError(Exception):
    """Base class for all package errors."""


class GeometryError(SpringRodsError):
    """Rod intervals or spring length are inconsistent."""


class SmallnessViolation(SpringRodsError):
    """Spring stiffness too large for the rod stiffnesses (uniqueness lost)."""


class ZeroElements(SpringRodsError):
    """A mesh was requested with a non-integer or fewer than one element on a rod."""


class NoConsistentRegime(SpringRodsError):
    """No finite equilibrium in the gap bounds (e.g. a NaN spring law, or loads
    so large that the condensed load or the solution overflows)."""


class NonPositiveLambda(SpringRodsError):
    """Penalty parameter must be positive and finite."""


class ContractionFailure(SpringRodsError):
    """Fixed-point step norms grew for several consecutive iterations."""


class InfeasibleCandidate(SpringRodsError):
    """Candidate handed to the residual check violates the gap constraint."""


class EmptyFeasibleGrid(SpringRodsError):
    """Brute-force grid contains no feasible point."""


class ParseError(SpringRodsError):
    """Configuration file could not be parsed; message carries line and key."""


class ValidationError(SpringRodsError):
    """Configuration values failed model validation."""
