"""Domain types for the spring-rods system.

Two linear-elastic rods occupy [a, -l] and [l, b], fixed at the outer ends
and attached to a nonlinear spring of natural length 2l at the inner ends.
The spring pushes when compressed, pulls when extended, and the rod ends may
come into contact but never interpenetrate.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum

from .errors import GeometryError, SmallnessViolation, SpringRodsError, ValidationError


def _real(name: str, value, lo: float, hi: float, error: type[SpringRodsError]) -> float:
    """The float of value; raise `error` unless value is a real number (not a bool), finite,
    and lo < value < hi.  An int past the float range is not finite."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise error(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise error(f"{name} must be finite, got {value!r}")
    if not lo < x < hi:
        raise error(f"{name} must lie in ({lo}, {hi}), got {value!r}")
    return x


def _set_real(obj, attr: str, name: str, lo: float, hi: float,
              error: type[SpringRodsError] = ValidationError) -> None:
    """Check the field `attr` of the frozen `obj` with `_real` and store its float."""
    object.__setattr__(obj, attr, _real(name, getattr(obj, attr), lo, hi, error))


@dataclass(frozen=True)
class Geometry:
    """Rod intervals [a, -l] and [l, b]; l is the spring half-length.

    Derived lengths: L1 = -l - a, L2 = b - l, L = max(L1, L2).
    """

    a: float
    b: float
    l: float

    def __post_init__(self):
        _set_real(self, "l", "spring half-length l", 0.0, math.inf, GeometryError)
        _set_real(self, "a", "left end a", -math.inf, -self.l, GeometryError)
        _set_real(self, "b", "right end b", self.l, math.inf, GeometryError)

    @property
    def L1(self) -> float:
        return -self.l - self.a

    @property
    def L2(self) -> float:
        return self.b - self.l

    @property
    def L(self) -> float:
        return max(self.L1, self.L2)

    @property
    def natural_length(self) -> float:
        return 2.0 * self.l


@dataclass(frozen=True)
class Material:
    """Young moduli of the two rods."""

    E1: float
    E2: float

    def __post_init__(self):
        _set_real(self, "E1", "Young modulus E1", 0.0, math.inf)
        _set_real(self, "E2", "Young modulus E2", 0.0, math.inf)


@dataclass(frozen=True)
class SpringLaw:
    """Piecewise-linear spring response around the natural length.

    The force is -k1*(length - natural) in compression and -k2*(length -
    natural) in extension: positive (pushing) for short springs, negative
    (pulling) for long ones, zero at the natural length.  The Lipschitz
    constant of the response is max(k1, k2).
    """

    k1: float
    k2: float
    natural_length: float

    def __post_init__(self):
        _set_real(self, "k1", "stiffness k1", 0.0, math.inf)
        _set_real(self, "k2", "stiffness k2", 0.0, math.inf)
        _set_real(self, "natural_length", "natural length", 0.0, math.inf)

    @property
    def lipschitz(self) -> float:
        return max(self.k1, self.k2)

    def force(self, length: float) -> float:
        """Spring force at the given current length."""
        k = self.k1 if length < self.natural_length else self.k2
        return -k * (length - self.natural_length)

    def potential(self, length: float) -> float:
        """Convex stored energy; derivative equals minus the force; inf if it overflows."""
        k = self.k1 if length < self.natural_length else self.k2
        try:
            return 0.5 * k * (length - self.natural_length) ** 2
        except OverflowError:  # a float power raises where a product would round to inf
            return math.inf

    def potential_slope(self, length: float) -> float:
        """Derivative of the stored energy (continuous across the natural length)."""
        return -self.force(length)


class PenaltyVariant(Enum):
    """Which side of the natural length the penalty term stiffens."""

    COMPRESSION_ONLY = "compression"
    EXTENSION_ONLY = "extension"
    TWO_SIDED = "two-sided"

    @property
    def sides(self) -> tuple[bool, bool]:
        """Whether the penalty acts (below the natural length, at or above it)."""
        return (self is not PenaltyVariant.EXTENSION_ONLY,
                self is not PenaltyVariant.COMPRESSION_ONLY)


@dataclass(frozen=True)
class PenaltyLaw:
    """Unit-stiffness penalty response used to enforce rigid limits.

    All variants are non-increasing with Lipschitz constant 1, non-negative
    below the natural length and non-positive above it.  They differ in
    where they vanish: COMPRESSION_ONLY on lengths >= natural,
    EXTENSION_ONLY on lengths <= natural, TWO_SIDED only at the natural
    length.
    """

    variant: PenaltyVariant
    natural_length: float

    def __post_init__(self):
        _set_real(self, "natural_length", "natural length", 0.0, math.inf)

    @property
    def lipschitz(self) -> float:
        return 1.0

    def _acts(self, length: float) -> bool:
        below, above = self.variant.sides
        return below if length < self.natural_length else above

    def force(self, length: float) -> float:
        return self.natural_length - length if self._acts(length) else 0.0

    def potential(self, length: float) -> float:
        """Convex antiderivative with slope equal to minus the force."""
        d = length - self.natural_length
        return 0.5 * d * d if self._acts(length) else 0.0


@dataclass(frozen=True)
class BodyForce:
    """Constant line-force densities on the two rods."""

    f1: float
    f2: float

    def __post_init__(self):
        _set_real(self, "f1", "force density f1", -math.inf, math.inf)
        _set_real(self, "f2", "force density f2", -math.inf, math.inf)


class ConstraintVariant(Enum):
    """Admissible interval for the current spring length.

    NON_PENETRATION keeps only the contact bound (length >= 0); the rigid
    variants additionally pin the length at the natural value from one or
    both sides.
    """

    NON_PENETRATION = "non-penetration"
    RIGID_COMPRESSION = "rigid-compression"
    RIGID_EXTENSION = "rigid-extension"
    FULLY_RIGID = "fully-rigid"

    def bounds(self, l: float) -> tuple[float, float]:
        """Closed admissible interval (lo, hi) for the gap; hi may be inf."""
        n = 2.0 * l
        if self is ConstraintVariant.NON_PENETRATION:
            return (0.0, math.inf)
        if self is ConstraintVariant.RIGID_COMPRESSION:
            return (n, math.inf)
        if self is ConstraintVariant.RIGID_EXTENSION:
            return (0.0, n)
        return (n, n)


def _check_natural_length(name: str, length: float, geometry: Geometry) -> None:
    """Raise GeometryError unless `length` is the geometric gap 2l (to 1e-12)."""
    if not math.isclose(length, geometry.natural_length, rel_tol=0.0, abs_tol=1e-12):
        raise GeometryError(f"{name} natural length {length} does not match "
                            f"the geometric gap {geometry.natural_length}")


def spring_gap(l: float, g1: float, g2: float) -> float:
    """Current spring length 2l - g1 + g2 for inner-end displacements g1, g2."""
    return 2.0 * l - g1 + g2


def _check_smallness(geometry: Geometry, material: Material,
                     spring: SpringLaw) -> tuple[float, float]:
    """(E1 + E2, 2*max(k1,k2)*L); raises SmallnessViolation unless the first exceeds the second."""
    m = material.E1 + material.E2
    alpha = 2.0 * spring.lipschitz * geometry.L
    if not m > alpha:
        raise SmallnessViolation(f"need E1 + E2 > 2*max(k1,k2)*L, got {m} <= {alpha}")
    return m, alpha


@dataclass(frozen=True)
class ProblemSpec:
    """Validated equilibrium problem: geometry, materials, spring, loads, constraint.

    Construction enforces the uniqueness condition E1 + E2 > 2 * Lp * L
    (spring stiffness small against the rods), exposed through `stiffness_sum`
    and `coupling_bound`.
    """

    geometry: Geometry
    material: Material
    spring: SpringLaw
    forces: BodyForce
    variant: ConstraintVariant = ConstraintVariant.NON_PENETRATION
    stiffness_sum: float = field(init=False)
    coupling_bound: float = field(init=False)

    def __post_init__(self):
        _check_natural_length("spring", self.spring.natural_length, self.geometry)
        m, alpha = _check_smallness(self.geometry, self.material, self.spring)
        object.__setattr__(self, "stiffness_sum", m)
        object.__setattr__(self, "coupling_bound", alpha)

    @property
    def contraction_ratio(self) -> float:
        return self.coupling_bound / self.stiffness_sum

    def gap_bounds(self) -> tuple[float, float]:
        return self.variant.bounds(self.geometry.l)


#: Validating constructor: GeometryError for inconsistent intervals,
#: SmallnessViolation when the spring is too stiff relative to the rods.
make_problem = ProblemSpec
