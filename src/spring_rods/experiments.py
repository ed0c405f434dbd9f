"""Stiffness sweeps, penalty-convergence studies and their CSV/SVG outputs."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from .errors import NoConsistentRegime, SpringRodsError, ValidationError, ZeroElements
from .fem import assemble, build_mesh, schur_reduce
from .model import (BodyForce, ConstraintVariant, PenaltyLaw, PenaltyVariant,
                    ProblemSpec, SpringLaw, _check_smallness)
from .solver import EquilibriumSolution, PenaltyProblem, _exact, _penalized, solve_exact

#: Limit problem enforced by each penalty variant as the parameter vanishes.
LIMIT_VARIANT = {
    PenaltyVariant.COMPRESSION_ONLY: ConstraintVariant.RIGID_COMPRESSION,
    PenaltyVariant.EXTENSION_ONLY: ConstraintVariant.RIGID_EXTENSION,
    PenaltyVariant.TWO_SIDED: ConstraintVariant.FULLY_RIGID,
}


@dataclass(frozen=True)
class SweepRecord:
    k: float
    g1: float
    g2: float
    theta: float
    s: float
    contact: bool
    energy: float


@dataclass(frozen=True)
class SweepResult:
    """One solve per stiffness value, plus monotonicity diagnostics."""

    records: tuple[SweepRecord, ...]
    variant: ConstraintVariant
    forces: BodyForce
    failures: tuple[tuple[float, str], ...] = ()

    @property
    def abs_g1_decreasing(self) -> bool:
        g = [abs(r.g1) for r in self.records]
        return all(b < a for a, b in zip(g, g[1:]))

    @property
    def abs_s_increasing(self) -> bool:
        s = [abs(r.s) for r in self.records]
        return all(b > a for a, b in zip(s, s[1:]))


@dataclass(frozen=True)
class ConvergenceRecord:
    n: int
    lam: float
    theta: float
    g1: float
    g2: float
    error: float


@dataclass(frozen=True)
class ConvergenceStudy:
    records: tuple[ConvergenceRecord, ...]
    limit_variant: ConstraintVariant
    limit: EquilibriumSolution
    non_convergence: bool


def run_stiffness_sweep(base: ProblemSpec, forces: BodyForce, grid: Sequence[float],
                        mesh: tuple[int, int] = (4, 4)) -> SweepResult:
    """Solve once per stiffness value k (k1 = k2 = k) over a fixed mesh.

    The assembled system is stiffness-independent, so assembly and
    condensation happen once, and each point solves for the interface state
    only: `_label` recovers no field that the O(1) bound proves finite.  A grid
    point the model rejects, or whose field or energy overflows, is recorded
    as a failure, not fatal; any other exception propagates, ZeroElements
    too: arrays that do not fit in memory fail alike at every k.
    """
    ks = list(grid)
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValidationError("stiffness grid must be strictly increasing")
    m = build_mesh(base.geometry, *mesh)
    reduced = schur_reduce(assemble(m, base.material, forces))
    l = base.geometry.l
    lo, hi = base.variant.bounds(l)

    records: list[SweepRecord] = []
    failures: list[tuple[float, str]] = []
    for k in ks:
        try:
            spring = SpringLaw(k, k, 2.0 * l)
            _check_smallness(base.geometry, base.material, spring)
            state = _exact(reduced, spring, lo, hi, l)
            (g1, g2), theta = state.g, state.theta
            energy = reduced.energy((g1, g2)) + spring.potential(theta)
            if not math.isfinite(energy):
                raise NoConsistentRegime(f"energy overflows: {energy} at g1={g1}, g2={g2}")
        except ZeroElements:
            raise
        except SpringRodsError as exc:
            failures.append((k, f"{type(exc).__name__}: {exc}"))
            continue
        records.append(SweepRecord(k, g1, g2, theta, state.s, state.label == "contact", energy))
    return SweepResult(tuple(records), base.variant, forces, tuple(failures))


def run_penalty_convergence(base: ProblemSpec, penalty_variant: PenaltyVariant,
                            n_range: Sequence[int] = range(1, 13),
                            mesh: tuple[int, int] = (4, 4)) -> ConvergenceStudy:
    """Solve the penalized problems along lambda_n = 2**(3-n) and the rigid limit.

    The error is the energy norm of the difference between each penalized
    field and the limit-problem field: both share the field pinned at the
    rod ends, so it is `interface_vnorm` of the interface jump.  A
    non-convergence flag is raised when the error stops decreasing over the
    last three records (which is expected when the load never activates the
    penalized side).
    """
    m = build_mesh(base.geometry, *mesh)
    reduced = schur_reduce(assemble(m, base.material, base.forces))
    l = base.geometry.l
    base_np = base if base.variant is ConstraintVariant.NON_PENETRATION else replace(
        base, variant=ConstraintVariant.NON_PENETRATION)
    law = PenaltyLaw(penalty_variant, 2.0 * l)
    limit_variant = LIMIT_VARIANT[penalty_variant]
    limit = solve_exact(reduced, base.spring, limit_variant, l)

    records = []
    for n in n_range:
        try:  # float() makes a numpy integer overflow raise, as a Python int does
            lam = 2.0 ** float(3 - n)
        except (OverflowError, TypeError) as exc:
            raise ValidationError(f"n must be a real number with 2**(3 - n) finite, "
                                  f"got {n!r}") from exc
        state = _exact(reduced, *_penalized(PenaltyProblem(base_np, law, lam)))
        (g1, g2), theta = state.g, state.theta
        err = reduced.interface_vnorm((g1 - limit.g1, g2 - limit.g2))
        records.append(ConvergenceRecord(n, lam, theta, g1, g2, err))

    errs = [r.error for r in records]
    stalled = len(errs) >= 3 and not any(
        b <= a - 1e-15 for a, b in zip(errs[-3:], errs[-2:]))
    return ConvergenceStudy(tuple(records), limit_variant, limit, stalled)


# ---------------------------------------------------------------------------
# tabular and graphical output

_SWEEP_HEADER = "k,g1,g2,theta,s,contact,energy"
_CONV_HEADER = "n,lambda,theta,g1,g2,error_vnorm"


def _fmt(x: float) -> str:
    return f"{x:.11e}"


def export_csv(result, path) -> Path:
    """Write a sweep or convergence table; 12 significant digits per value."""
    path = Path(path)
    if isinstance(result, SweepResult):
        if not result.records:
            raise ValidationError("refusing to write an empty sweep")
        lines = [_SWEEP_HEADER]
        for r in result.records:
            lines.append(",".join([_fmt(r.k), _fmt(r.g1), _fmt(r.g2), _fmt(r.theta),
                                   _fmt(r.s), "true" if r.contact else "false",
                                   _fmt(r.energy)]))
    elif isinstance(result, ConvergenceStudy):
        if not result.records:
            raise ValidationError("refusing to write an empty convergence study")
        lines = [_CONV_HEADER]
        for r in result.records:
            lines.append(",".join([str(r.n), _fmt(r.lam), _fmt(r.theta),
                                   _fmt(r.g1), _fmt(r.g2), _fmt(r.error)]))
    else:
        raise TypeError(f"cannot export {type(result).__name__}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return path


_SWEEP_PANELS = {
    "displacements": ("stiffness k", "end displacement",
                      [("g1", lambda r: r.g1), ("g2", lambda r: r.g2)]),
    "stress": ("stiffness k", "interface stress",
               [("s", lambda r: r.s)]),
    "gap": ("stiffness k", "spring length",
            [("theta", lambda r: r.theta)]),
}

_CONV_PANELS = {
    "error": ("n", "log10 error",
              [("log10(error_vnorm)", lambda r: math.log10(max(r.error, 1e-16)))]),
    "gap": ("n", "spring length", [("theta", lambda r: r.theta)]),
}


def export_svg(result, path, panel: str) -> Path:
    """Write one standalone SVG chart with a polyline per series."""
    path = Path(path)
    if isinstance(result, SweepResult):
        kind, panels, xs = "sweep", _SWEEP_PANELS, [r.k for r in result.records]
    elif isinstance(result, ConvergenceStudy):
        kind, panels, xs = "convergence", _CONV_PANELS, [float(r.n) for r in result.records]
    else:
        raise TypeError(f"cannot plot {type(result).__name__}")
    if not result.records:
        raise ValidationError(f"refusing to plot an empty {kind} result")
    if panel not in panels:
        raise ValidationError(f"unknown {kind} panel {panel!r}")
    xlabel, ylabel, series_spec = panels[panel]
    series = [(name, xs, [pick(r) for r in result.records]) for name, pick in series_spec]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_svg_chart(series, xlabel, ylabel), encoding="ascii")
    return path


_SVG_W, _SVG_H = 640, 480
_ML, _MR, _MT, _MB = 70, 110, 20, 50
_COLORS = ("#1f6fb4", "#c8452c", "#3a8c3f")


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _flat(lo: float, hi: float) -> bool:
    """True when [lo, hi] is a single value up to round-off."""
    return hi - lo <= 1e-12 * max(abs(lo), abs(hi))


def _axis_range(values) -> tuple[float, float]:
    """Range of `values`; a flat one is widened by 0.5 each way, or by half its
    magnitude where 0.5 is lost to round-off."""
    lo, hi = min(values), max(values)
    if not _flat(lo, hi):
        return lo, hi
    pad = 0.5 if (hi + 0.5) - (lo - 0.5) > hi - lo else 0.5 * max(abs(lo), abs(hi))
    return lo - pad, hi + pad


def _svg_chart(series, xlabel: str, ylabel: str) -> str:
    xmin, xmax = _axis_range([x for _, xs, _ in series for x in xs])
    ymin, ymax = _axis_range([y for _, _, ys in series for y in ys])

    def px(x: float) -> float:
        return _ML + (x - xmin) / (xmax - xmin) * (_SVG_W - _ML - _MR)

    def py(y: float) -> float:
        return _SVG_H - _MB - (y - ymin) / (ymax - ymin) * (_SVG_H - _MT - _MB)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SVG_W}" height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_SVG_H - _MB}" x2="{_SVG_W - _MR}" y2="{_SVG_H - _MB}" '
        'stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_SVG_H - _MB}" stroke="black"/>',
    ]
    for t in _ticks(xmin, xmax):
        out.append(f'<line x1="{px(t):.2f}" y1="{_SVG_H - _MB}" x2="{px(t):.2f}" '
                   f'y2="{_SVG_H - _MB + 5}" stroke="black"/>')
        out.append(f'<text x="{px(t):.2f}" y="{_SVG_H - _MB + 18}" font-size="11" '
                   f'text-anchor="middle">{t:.3g}</text>')
    for t in _ticks(ymin, ymax):
        out.append(f'<line x1="{_ML - 5}" y1="{py(t):.2f}" x2="{_ML}" y2="{py(t):.2f}" '
                   'stroke="black"/>')
        out.append(f'<text x="{_ML - 8}" y="{py(t):.2f}" font-size="11" '
                   f'text-anchor="end" dominant-baseline="middle">{t:.3g}</text>')
    out.append(f'<text x="{(_ML + _SVG_W - _MR) / 2:.2f}" y="{_SVG_H - 12}" '
               f'font-size="13" text-anchor="middle">{xlabel}</text>')
    out.append(f'<text x="16" y="{(_MT + _SVG_H - _MB) / 2:.2f}" font-size="13" '
               f'text-anchor="middle" transform="rotate(-90 16 '
               f'{(_MT + _SVG_H - _MB) / 2:.2f})">{ylabel}</text>')
    for i, (name, xs, ys) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                   f'points="{pts}"/>')
        out.append(f'<text x="{_SVG_W - _MR + 6}" y="{py(ys[-1]):.2f}" font-size="12" '
                   f'fill="{color}" dominant-baseline="middle">{name}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
