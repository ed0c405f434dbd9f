"""Piecewise-affine finite elements on the two rods.

Each rod gets a uniform mesh; the outer ends carry homogeneous Dirichlet
conditions, so the free unknowns are all remaining nodal displacements.  The
stiffness blocks are tridiagonal and the whole interface behaviour condenses
exactly onto the two inner-end displacements (g1, g2), in closed form: every
interior-minimized field is the field pinned at both rod ends plus g times
the linear nodal ramp, so the condensed stiffness is diag(E1/L1, E2/L2) on
any uniform mesh and the condensed load is the load dotted with the ramp.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NoConsistentRegime, ZeroElements
from .model import BodyForce, Geometry, Material, spring_gap

_GAUSS2 = (-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0))


@dataclass(frozen=True)
class Mesh:
    """Uniform meshes of [a, -l] (n1 elements) and [l, b] (n2 elements)."""

    geometry: Geometry
    n1: int
    n2: int
    nodes1: np.ndarray
    nodes2: np.ndarray

    @property
    def h1(self) -> float:
        return self.geometry.L1 / self.n1

    @property
    def h2(self) -> float:
        return self.geometry.L2 / self.n2


def build_mesh(geometry: Geometry, n1: int, n2: int) -> Mesh:
    """Partition both rods uniformly; raises ZeroElements for a non-integer or empty count."""
    if not all(isinstance(n, numbers.Integral) and n >= 1 for n in (n1, n2)):
        raise ZeroElements(f"need a whole number of at least one element per rod, "
                           f"got n1={n1}, n2={n2}")
    nodes1 = np.linspace(geometry.a, -geometry.l, n1 + 1)
    nodes2 = np.linspace(geometry.l, geometry.b, n2 + 1)
    return Mesh(geometry, n1, n2, nodes1, nodes2)


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

    def __add__(self, other: "DofVector") -> "DofVector":
        return DofVector(self.rod1 + other.rod1, self.rod2 + other.rod2)


def zero_dofs(mesh: Mesh) -> DofVector:
    return DofVector(np.zeros(mesh.n1), np.zeros(mesh.n2))


def theta_of(dof: DofVector, l: float) -> float:
    """Current spring length for the discrete displacement field."""
    return spring_gap(l, dof.g1, dof.g2)


def _constant_load(n: int, h: float, f: float, interface_last: bool) -> np.ndarray:
    """Consistent load for constant density: f*h inside, f*h/2 at the free end."""
    b = np.full(n, f * h)
    b[-1 if interface_last else 0] = 0.5 * f * h
    return b


def _quadrature_load(nodes: np.ndarray, f, skip_first: bool) -> np.ndarray:
    """Two-point Gauss load for a callable density; drops the Dirichlet node."""
    n = len(nodes) - 1
    full = np.zeros(n + 1)
    for e in range(n):
        x0, x1 = nodes[e], nodes[e + 1]
        h = x1 - x0
        mid = 0.5 * (x0 + x1)
        for xi in _GAUSS2:
            x = mid + 0.5 * h * xi
            w = 0.5 * h
            full[e] += w * f(x) * (x1 - x) / h
            full[e + 1] += w * f(x) * (x - x0) / h
    return full[1:] if skip_first else full[:-1]


@dataclass(frozen=True)
class DiscreteSystem:
    """Assembled tridiagonal stiffness blocks and load vectors.

    diag/off arrays hold the main and first off-diagonal of each SPD block.
    """

    mesh: Mesh
    material: Material
    diag1: np.ndarray
    off1: np.ndarray
    diag2: np.ndarray
    off2: np.ndarray
    b1: np.ndarray
    b2: np.ndarray

    def apply(self, dof: DofVector) -> DofVector:
        """Stiffness matvec (A1 u1, A2 u2)."""
        return DofVector(_tri_matvec(self.diag1, self.off1, dof.rod1),
                         _tri_matvec(self.diag2, self.off2, dof.rod2))

    def load_dot(self, dof: DofVector) -> float:
        return float(self.b1 @ dof.rod1 + self.b2 @ dof.rod2)

    def energy(self, dof: DofVector) -> float:
        """Quadratic part of the total energy: strain energy minus work."""
        au = self.apply(dof)
        return 0.5 * float(dof.rod1 @ au.rod1 + dof.rod2 @ au.rod2) - self.load_dot(dof)


def _tri_matvec(d: np.ndarray, e: np.ndarray, u: np.ndarray) -> np.ndarray:
    out = d * u
    if len(e):
        out[:-1] += e * u[1:]
        out[1:] += e * u[:-1]
    return out


def _rod_blocks(n: int, h: float, E: float, interface_last: bool):
    d = np.full(n, 2.0 * E / h)
    d[-1 if interface_last else 0] = E / h
    e = np.full(n - 1, -E / h)
    return d, e


def assemble(mesh: Mesh, material: Material, forces) -> DiscreteSystem:
    """Build stiffness blocks and consistent loads.

    `forces` is either a BodyForce (constant densities, integrated exactly)
    or a pair of callables integrated with two-point Gauss per element.
    """
    d1, e1 = _rod_blocks(mesh.n1, mesh.h1, material.E1, interface_last=True)
    d2, e2 = _rod_blocks(mesh.n2, mesh.h2, material.E2, interface_last=False)
    if isinstance(forces, BodyForce):
        b1 = _constant_load(mesh.n1, mesh.h1, forces.f1, interface_last=True)
        b2 = _constant_load(mesh.n2, mesh.h2, forces.f2, interface_last=False)
    else:
        f1, f2 = forces
        b1 = _quadrature_load(mesh.nodes1, f1, skip_first=True)
        b2 = _quadrature_load(mesh.nodes2, f2, skip_first=False)
    return DiscreteSystem(mesh, material, d1, e1, d2, e2, b1, b2)


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
    def offset(self) -> float:
        """Energy of the field pinned at both rod ends (computed once, on demand)."""
        return -0.5 * self.system.load_dot(recover_full(self, 0.0, 0.0))

    def energy(self, g) -> float:
        (g1, g2), (s1, s2), (r1, r2) = g, self.S, self.r
        return 0.5 * (g1 * s1 * g1 + g2 * s2 * g2) - (r1 * g1 + r2 * g2) + self.offset

    def interface_vnorm(self, dg) -> float:
        """Energy norm sqrt(dg1^2/L1 + dg2^2/L2) of the harmonic field with interface jump dg."""
        (dg1, dg2), geo = dg, self.system.mesh.geometry
        return math.sqrt(dg1 * (1.0 / geo.L1) * dg1 + dg2 * (1.0 / geo.L2) * dg2)


def _ramp_weights(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """n times the nodal linear ramp on the free nodes of each rod.

    The ramp (0 at the clamped end, 1 at the interface) is the discrete
    harmonic extension of a unit interface value: its stiffness residual
    vanishes at every interior node.  Integer weights with one division
    after the dot product avoid rounding each j/n.
    """
    return np.arange(1.0, mesh.n1 + 1.0), np.arange(mesh.n2, 0.0, -1.0)


def _pinned(b: np.ndarray, h_over_E: float) -> np.ndarray:
    """Interior nodal values of a rod held at zero at both ends, left to right.

    Node equilibrium makes consecutive element stresses differ by the nodal
    load, so the stresses are a constant minus the running load sum; zero
    end values make the stresses sum to zero, which fixes the constant.
    """
    carried = np.concatenate(([0.0], np.cumsum(b)))
    sigma = carried.mean() - carried
    return h_over_E * np.cumsum(sigma)[:-1]


def schur_reduce(system: DiscreteSystem) -> ReducedSystem:
    """Condense both rods onto (g1, g2); raises NoConsistentRegime if the load overflows."""
    mesh, mat = system.mesh, system.material
    geo = mesh.geometry
    w1, w2 = _ramp_weights(mesh)
    r = (float(system.b1 @ w1) / mesh.n1, float(system.b2 @ w2) / mesh.n2)
    if not all(map(math.isfinite, r)):
        raise NoConsistentRegime(f"condensed load {r} is not finite: the loads are too large")
    return ReducedSystem(system, (mat.E1 / geo.L1, mat.E2 / geo.L2), r)


def recover_full(reduced: ReducedSystem, g1: float, g2: float) -> DofVector:
    """Interior argmin of the energy for prescribed interface values."""
    sys_ = reduced.system
    mesh, mat = sys_.mesh, sys_.material
    w1, w2 = _ramp_weights(mesh)
    pinned1 = np.append(_pinned(sys_.b1[:-1], mesh.h1 / mat.E1), 0.0)
    pinned2 = np.concatenate(([0.0], _pinned(sys_.b2[1:], mesh.h2 / mat.E2)))
    return DofVector(pinned1 + g1 * (w1 / mesh.n1), pinned2 + g2 * (w2 / mesh.n2))


def stress_field(mesh: Mesh, dof: DofVector, material: Material) -> tuple[np.ndarray, np.ndarray]:
    """Constant stress per element: E times the nodal difference over h."""
    u1 = np.concatenate(([0.0], dof.rod1))
    u2 = np.concatenate((dof.rod2, [0.0]))
    return (material.E1 * np.diff(u1) / mesh.h1,
            material.E2 * np.diff(u2) / mesh.h2)


def interface_stress(mesh: Mesh, dof: DofVector, material: Material,
                     forces: BodyForce) -> tuple[float, float]:
    """Stress traces at the inner rod ends.

    Element stresses are exact at midpoints; extrapolating to the end with
    the balance equation (stress rate = -density) removes the half-element
    offset, so for constant loads the traces are exact.
    """
    sig1, sig2 = stress_field(mesh, dof, material)
    return (float(sig1[-1]) - 0.5 * forces.f1 * mesh.h1,
            float(sig2[0]) + 0.5 * forces.f2 * mesh.h2)
