"""Piecewise-affine finite elements on the two rods.

Each rod gets a uniform mesh; the outer ends carry homogeneous Dirichlet
conditions, so the free unknowns are all remaining nodal displacements.  On
a uniform mesh each rod's tridiagonal stiffness block is the scalar E/h times
a fixed stencil, so only that scalar is stored; the node coordinates and the
diagonals are built on demand for the callers that read them.  The loads are
the constant densities of a BodyForce, the one load model.  The whole
interface behaviour condenses exactly onto the two inner-end displacements
(g1, g2), in closed form: every interior-minimized field is the field pinned
at both rod ends plus g times the linear nodal ramp, so the condensed
stiffness is diag(E1/L1, E2/L2) on any uniform mesh and the condensed load is
the load dotted with the ramp, exactly f*L/2 per rod.  So the system keeps
the force, builds its load vectors only when they are read, and condenses in
O(1).  Field recovery writes each rod's field in place into one output array,
with one scratch array for both rods.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NoConsistentRegime, ZeroElements
from .model import BodyForce, Geometry, Material, _check_type

_HALF_MAX = 0.5 * sys.float_info.max
#: Entries per BLAS dot in `_dot`: OpenBLAS splits longer dots over its
#: threads, and the split moves the last bits with the thread count.
_DOT_CHUNK = 10_000
#: The most elements per rod: the n + 1 doubles of a rod's nodes then span at
#: most np.intp's largest value in bytes, the largest array numpy can address.
_MAX_ELEMENTS = np.iinfo(np.intp).max // 8 - 1


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b, with the same bits whatever the BLAS thread count.

    The dot runs in chunks of at most `_DOT_CHUNK` entries, each one
    single-threaded BLAS call, summed from the first chunk on; up to
    `_DOT_CHUNK` entries it is the one call `a @ b`.
    """
    total = float(a[:_DOT_CHUNK] @ b[:_DOT_CHUNK])
    for i in range(_DOT_CHUNK, a.size, _DOT_CHUNK):
        total += float(a[i:i + _DOT_CHUNK] @ b[i:i + _DOT_CHUNK])
    return total


@dataclass(frozen=True)
class Mesh:
    """Uniform meshes of [a, -l] (n1 elements) and [l, b] (n2 elements).

    The node coordinates are built on first access.
    """

    geometry: Geometry
    n1: int
    n2: int

    @cached_property
    def nodes1(self) -> np.ndarray:
        return np.linspace(self.geometry.a, -self.geometry.l, self.n1 + 1)

    @cached_property
    def nodes2(self) -> np.ndarray:
        return np.linspace(self.geometry.l, self.geometry.b, self.n2 + 1)

    @property
    def h1(self) -> float:
        return self.geometry.L1 / self.n1

    @property
    def h2(self) -> float:
        return self.geometry.L2 / self.n2


def build_mesh(geometry: Geometry, n1: int, n2: int) -> Mesh:
    """Partition both rods uniformly.

    Raises ZeroElements for a non-integer or empty count, or one above
    `_MAX_ELEMENTS`, whose arrays no np.intp index can address; a bool is not
    a count.
    """
    _check_type("geometry", geometry, Geometry)
    whole = all(isinstance(n, numbers.Integral) and not isinstance(n, bool) for n in (n1, n2))
    if whole and max(n1, n2) > _MAX_ELEMENTS:
        got = ("a count past the float range" if max(n1, n2) > sys.float_info.max
               else f"n1={n1}, n2={n2}")  # a count past the float range may be too long to print
        raise ZeroElements(f"need at most {_MAX_ELEMENTS} elements per rod, the most whose "
                           f"node arrays numpy can address, got {got}")
    if not (whole and min(n1, n2) >= 1):
        raise ZeroElements(f"need a whole number of at least one element per rod, "
                           f"got n1={n1}, n2={n2}")
    return Mesh(geometry, n1, n2)


@dataclass(frozen=True)
class DofVector:
    """Free nodal displacements: rod1 excludes x=a, rod2 excludes x=b.

    The inner-end values are g1 = rod1[-1] (at x=-l) and g2 = rod2[0]
    (at x=l); the clamped outer ends are implicitly zero.
    """

    rod1: np.ndarray
    rod2: np.ndarray

    @property
    def g1(self) -> float:
        return float(self.rod1[-1])

    @property
    def g2(self) -> float:
        return float(self.rod2[0])

    def __sub__(self, other: "DofVector") -> "DofVector":
        return DofVector(self.rod1 - other.rod1, self.rod2 - other.rod2)


def _constant_load(n: int, h: float, f: float, interface_last: bool) -> np.ndarray:
    """Consistent load for constant density: f*h inside, f*h/2 at the free end."""
    b = np.full(n, f * h)
    b[-1 if interface_last else 0] = 0.5 * f * h
    return b


class DiscreteSystem:
    """Stiffness and loads of both rods under a BodyForce.

    Each rod's stiffness block is its scalar E/h (`stiff1`, `stiff2`) times
    the stencil (-1, 2, -1), with 1 on the diagonal at the interface node;
    diag/off are the main and first off-diagonal of each SPD block, built on
    each access.  `b1` and `b2` are the consistent load vectors of `forces`,
    built on first read.  Any load but a BodyForce raises ValidationError.
    """

    def __init__(self, mesh: Mesh, material: Material, forces: BodyForce):
        _check_type("mesh", mesh, Mesh)
        _check_type("material", material, Material)
        _check_type("loads", forces, BodyForce)
        self.mesh, self.material, self.forces = mesh, material, forces
        self.stiff1, self.stiff2 = material.E1 / mesh.h1, material.E2 / mesh.h2

    @cached_property
    def b1(self) -> np.ndarray:
        return _constant_load(self.mesh.n1, self.mesh.h1, self.forces.f1, interface_last=True)

    @cached_property
    def b2(self) -> np.ndarray:
        return _constant_load(self.mesh.n2, self.mesh.h2, self.forces.f2, interface_last=False)

    @property
    def diag1(self) -> np.ndarray:
        return _diagonal(self.mesh.n1, self.stiff1, -1)

    @property
    def off1(self) -> np.ndarray:
        return np.full(self.mesh.n1 - 1, -self.stiff1)

    @property
    def diag2(self) -> np.ndarray:
        return _diagonal(self.mesh.n2, self.stiff2, 0)

    @property
    def off2(self) -> np.ndarray:
        return np.full(self.mesh.n2 - 1, -self.stiff2)

    def apply(self, dof: DofVector) -> DofVector:
        """Stiffness matvec (A1 u1, A2 u2)."""
        return DofVector(_rod_matvec(self.stiff1, dof.rod1, -1),
                         _rod_matvec(self.stiff2, dof.rod2, 0))

    def load_dot(self, dof: DofVector) -> float:
        return _dot(self.b1, dof.rod1) + _dot(self.b2, dof.rod2)

    def energy(self, dof: DofVector) -> float:
        """Quadratic part of the total energy: strain energy minus work."""
        au = self.apply(dof)
        return 0.5 * (_dot(dof.rod1, au.rod1) + _dot(dof.rod2, au.rod2)) - self.load_dot(dof)


def _diagonal(n: int, k: float, interface: int) -> np.ndarray:
    d = np.full(n, 2.0 * k)
    d[interface] = k
    return d


def _rod_matvec(k: float, u: np.ndarray, interface: int) -> np.ndarray:
    """k times the (-1, 2, -1) stencil applied to u, with 1 at the interface node."""
    out = (2.0 * k) * u
    out[interface] = k * u[interface]
    out[:-1] += -k * u[1:]
    out[1:] += -k * u[:-1]
    return out


def assemble(mesh: Mesh, material: Material, forces: BodyForce) -> DiscreteSystem:
    """Build the rod stiffnesses and the consistent loads of a BodyForce.

    The constant densities are integrated exactly; the system keeps the force
    and builds the load vectors on first read.  Any other load raises
    ValidationError.
    """
    return DiscreteSystem(mesh, material, forces)


def v_norm(mesh: Mesh, dof: DofVector) -> float:
    """Energy norm: sqrt of the integral of the squared displacement gradient."""

    def rod(values: np.ndarray, h: float, clamp_first: bool) -> float:
        pad = np.concatenate(([0.0], values)) if clamp_first else np.concatenate((values, [0.0]))
        return float(np.sum(np.diff(pad) ** 2) / h)

    return np.sqrt(rod(dof.rod1, mesh.h1, clamp_first=True)
                   + rod(dof.rod2, mesh.h2, clamp_first=False))


@dataclass(frozen=True)
class ReducedSystem:
    """Exact condensation of the quadratic energy onto (g1, g2).

    With the interior unknowns minimized out, the energy equals
    0.5*(s1*g1^2 + s2*g2^2) - (r1*g1 + r2*g2) + offset: the condensed
    stiffness is the diagonal S = (s1, s2) = (E1/L1, E2/L2) and the condensed
    load is r = (r1, r2), both pairs of floats.
    """

    system: DiscreteSystem
    S: tuple[float, float]
    r: tuple[float, float]

    @cached_property
    def _peak_bound(self) -> float:
        """A bound on every value that recovering the pinned field computes; inf past
        2**50 elements per rod or where it is not finite.

        A rod's n - 1 interior loads are the constant f*h, of magnitude M = |f*h|.
        Their running sums are at most (n - 1)*M, each minus their mean at most
        2(n - 1)*M, and the running sums of those at most 2(n - 1)^2*M, scaled by
        q = h/E.  So 2*n^2*M*max(1, q) bounds every value, rounded at most 3n + 8
        times on its way, a factor below exp(3/8) < 2 up to 2**50 elements: the half
        of DBL_MAX that `field_surely_finite` asks for leaves room for it.  A NaN (no
        load on a rod with an infinite q) is inf here, so it fails every bound.
        """
        mesh, mat, forces = self.system.mesh, self.system.material, self.system.forces
        if max(mesh.n1, mesh.n2) > 2 ** 50:
            return math.inf
        p1, p2 = (2.0 * float(n) * float(n) * abs(f * h) * max(1.0, h / E)
                  for n, f, h, E in ((mesh.n1, forces.f1, mesh.h1, mat.E1),
                                     (mesh.n2, forces.f2, mesh.h2, mat.E2)))
        return max(p1, p2) if math.isfinite(p1 + p2) else math.inf

    @cached_property
    def offset(self) -> float:
        """Energy of the pinned field; -inf or NaN, without a warning, if it overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            return -0.5 * self.system.load_dot(recover_full(self, 0.0, 0.0))

    def field_surely_finite(self, g1: float, g2: float) -> bool:
        """True if `recover_full(self, g1, g2)` is surely finite, known in O(1).

        Each recovered entry is a pinned entry plus g times a ramp value in
        [0, 1], each step rounded once, so its magnitude is at most
        `_peak_bound` + |g1| + |g2| up to rounding.  Below half of DBL_MAX that
        bound leaves no room for an overflow.  False means the bound fails, not
        that the field overflows.
        """
        return self._peak_bound + abs(g1) + abs(g2) < _HALF_MAX

    def energy(self, g) -> float:
        (g1, g2), (s1, s2), (r1, r2) = g, self.S, self.r
        return 0.5 * (g1 * s1 * g1 + g2 * s2 * g2) - (r1 * g1 + r2 * g2) + self.offset

    def interface_vnorm(self, dg) -> float:
        """Energy norm sqrt(dg1^2/L1 + dg2^2/L2) of the harmonic field with interface jump dg.

        A finite jump beyond 1e154 squares past DBL_MAX; it is then scaled by
        a power of two (exact) before squaring.
        """
        (dg1, dg2), geo = dg, self.system.mesh.geometry
        sq = dg1 * (1.0 / geo.L1) * dg1 + dg2 * (1.0 / geo.L2) * dg2
        if sq == math.inf and math.isfinite(dg1) and math.isfinite(dg2):
            e = math.frexp(max(abs(dg1), abs(dg2)))[1]
            dg1, dg2 = math.ldexp(dg1, -e), math.ldexp(dg2, -e)
            with np.errstate(over="ignore"):
                return float(np.ldexp(math.sqrt(dg1 * (1.0 / geo.L1) * dg1
                                                + dg2 * (1.0 / geo.L2) * dg2), e))
        return math.sqrt(sq)


def _pinned(load: float, h_over_E: float, carried: np.ndarray, out: np.ndarray) -> None:
    """Write the interior nodal values of a rod held at zero at both ends into out.

    Node equilibrium makes consecutive element stresses differ by the nodal
    load, so the stresses are a constant minus the running load sum; zero
    end values make the stresses sum to zero, which fixes the constant.
    `carried` (one entry more than out) receives the interior loads, each the
    constant `load`, and then in place their running sums.  The bare ufunc
    calls are what `mean` and `cumsum` run after their Python wrappers (the
    same pairwise sum, division and running sum), so the bits match.
    """
    carried[0] = 0.0
    tail = carried[1:]
    tail[:] = load
    np.add.accumulate(tail, out=tail)
    np.subtract(float(np.add.reduce(carried)) / carried.size, carried[:-1], out=out)
    np.add.accumulate(out, out=out)
    out *= h_over_E


#: The first counts 1, 2, ... that `_ramp` doubles from.
_COUNT_BLOCK = np.arange(1.0, 4097.0)


def _ramp(out: np.ndarray) -> np.ndarray:
    """Write the nodal ramp j/n, j = 1..n = out.size, into out and return it.

    The counts j are exact integers, doubled from `_COUNT_BLOCK`, so each j/n
    is one division.
    """
    n = out.size
    m = min(n, _COUNT_BLOCK.size)
    out[:m] = _COUNT_BLOCK[:m]
    while m < n:
        k = min(m, n - m)
        np.add(out[:k], m, out=out[m:m + k])
        m += k
    out /= n
    return out


def schur_reduce(system: DiscreteSystem) -> ReducedSystem:
    """Condense both rods onto (g1, g2); raises NoConsistentRegime if the load overflows.

    The ramp dot of each rod's consistent load is exactly f*L/2, rounded once here.
    """
    mat, forces, geo = system.material, system.forces, system.mesh.geometry
    r = ((0.5 * forces.f1) * geo.L1, (0.5 * forces.f2) * geo.L2)
    if not all(map(math.isfinite, r)):
        raise NoConsistentRegime(f"condensed load {r} is not finite: the loads are too large")
    return ReducedSystem(system, (mat.E1 / geo.L1, mat.E2 / geo.L2), r)


def recover_full(reduced: ReducedSystem, g1: float, g2: float) -> DofVector:
    """Interior argmin of the energy for prescribed interface values.

    Each rod's field is written into one output array; one scratch array
    holds first the running sums of the constant loads f*h and then g times
    the ramp, so the load vectors are not read.  Arrays that do not fit in
    memory raise ZeroElements.
    """
    mesh, mat, forces = reduced.system.mesh, reduced.system.material, reduced.system.forces
    n1, n2 = mesh.n1, mesh.n2
    try:
        scratch = np.empty(max(n1, n2))
        u1, u2 = np.empty(n1), np.empty(n2)
    except MemoryError as exc:
        raise ZeroElements(f"the arrays of n1={n1}, n2={n2} elements per rod do not fit "
                           f"in memory") from exc
    _pinned(forces.f1 * mesh.h1, mesh.h1 / mat.E1, scratch[:n1], u1[:-1])
    u1[-1] = 0.0
    _pinned(forces.f2 * mesh.h2, mesh.h2 / mat.E2, scratch[:n2], u2[1:])
    u2[0] = 0.0
    # rod 2's ramp falls from the interface: its reversed view rises as rod 1's does
    for u, g, n in ((u1, g1, n1), (u2[::-1], g2, n2)):
        ramp = _ramp(scratch[:n])
        ramp *= g
        u += ramp
    return DofVector(u1, u2)


def interface_stress(mesh: Mesh, dof: DofVector, material: Material,
                     forces: BodyForce) -> tuple[float, float]:
    """Stress traces at the inner rod ends, read from the two end elements.

    Each end element's stress E*(difference)/h is exact at its midpoint; extrapolating to
    the end with the balance equation (stress rate = -density) removes the half-element
    offset, so the traces are exact for the constant loads of a BodyForce, the only loads
    taken.  A one-element rod's outer neighbour is the clamp, 0.
    """
    _check_type("field", dof, DofVector)
    _check_type("loads", forces, BodyForce)
    u1_prev = float(dof.rod1[-2]) if mesh.n1 > 1 else 0.0
    u2_next = float(dof.rod2[1]) if mesh.n2 > 1 else 0.0
    return (material.E1 * (dof.g1 - u1_prev) / mesh.h1 - 0.5 * forces.f1 * mesh.h1,
            material.E2 * (u2_next - dof.g2) / mesh.h2 + 0.5 * forces.f2 * mesh.h2)
