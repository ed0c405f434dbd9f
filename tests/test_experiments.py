import itertools
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from spring_rods import (BodyForce, ConstraintVariant, ConvergenceStudy, Geometry,
                         Material, NoConsistentRegime, NonPositiveLambda, PenaltyLaw,
                         PenaltyProblem, PenaltyVariant, SmallnessViolation, SpringLaw,
                         SweepResult, ValidationError, ZeroElements,
                         assemble, build_mesh, export_csv, export_svg, make_problem,
                         run_penalty_convergence, run_stiffness_sweep, schur_reduce,
                         solve_exact, solve_penalized)
import spring_rods.experiments as experiments_module
from spring_rods.experiments import LIMIT_VARIANT, SweepRecord

GEO = Geometry(-1.0, 1.0, 0.5)
MAT = Material(1.0, 1.0)
GRID = [round(0.1 * i, 10) for i in range(1, 20)]


def problem(f=(0.0, 0.0), k=1.0, variant=ConstraintVariant.NON_PENETRATION):
    return make_problem(GEO, MAT, SpringLaw(k, k, 1.0), BodyForce(*f), variant)


class TestStiffnessSweep:
    def test_compressive_monotonicity(self):
        result = run_stiffness_sweep(problem(), BodyForce(1.0, -1.0), GRID)
        assert len(result.records) == 19
        assert result.abs_g1_decreasing
        assert result.abs_s_increasing
        assert all(not r.contact for r in result.records)

    def test_extension_monotonicity(self):
        result = run_stiffness_sweep(problem(), BodyForce(-1.0, 1.0), GRID)
        assert result.abs_g1_decreasing
        assert result.abs_s_increasing

    def test_one_sided_load_monotonicity(self):
        result = run_stiffness_sweep(problem(), BodyForce(1.0, 0.0), GRID)
        assert result.abs_g1_decreasing
        assert result.abs_s_increasing

    def test_equal_forces_rigid_translation(self):
        result = run_stiffness_sweep(problem(), BodyForce(1.0, 1.0), GRID)
        for r in result.records:
            assert r.g1 == pytest.approx(r.g2, abs=1e-12)
            assert abs(r.s) <= 1e-10
            assert r.theta == pytest.approx(1.0, abs=1e-10)

    def test_contact_threshold_and_branch(self):
        result = run_stiffness_sweep(problem(), BodyForce(6.0, -6.0), GRID)
        for r in result.records:
            assert r.contact == (r.k <= 0.5)
            if r.contact:
                assert r.g1 == pytest.approx(0.5, abs=1e-8)
                assert r.g2 == pytest.approx(-0.5, abs=1e-8)

    def test_energy_decreases_with_stiffness_under_compression(self):
        result = run_stiffness_sweep(problem(), BodyForce(1.0, -1.0), GRID)
        energies = [r.energy for r in result.records]
        assert all(b > a for a, b in zip(energies, energies[1:]))

    def test_out_of_range_point_recorded_not_fatal(self):
        result = run_stiffness_sweep(problem(), BodyForce(1.0, -1.0), [0.5, 1.0, 2.5])
        assert len(result.records) == 2
        assert len(result.failures) == 1
        assert result.failures[0][0] == 2.5
        assert "Smallness" in result.failures[0][1]

    def test_inadmissible_points_keep_the_problem_spec_notes(self):
        # E1 + E2 = 0.1 against 2*k*L = k; each note is byte for byte the one a
        # ProblemSpec of that point raises, as it was when the sweep built one
        material = Material(0.05, 0.05)
        base = make_problem(GEO, material, SpringLaw(0.01, 0.01, 1.0), BodyForce(1.0, -1.0))
        result = run_stiffness_sweep(base, base.forces, [-1.0, 0.05, 0.1, 0.3])
        assert [r.k for r in result.records] == [0.05]
        assert result.failures == (
            (-1.0, "ValidationError: stiffness k1 must lie in (0.0, inf), got -1.0"),
            (0.1, "SmallnessViolation: need E1 + E2 > 2*max(k1,k2)*L, got 0.1 <= 0.1"),
            (0.3, "SmallnessViolation: need E1 + E2 > 2*max(k1,k2)*L, got 0.1 <= 0.3"))
        for k, note in result.failures[1:]:
            with pytest.raises(SmallnessViolation) as info:
                make_problem(GEO, material, SpringLaw(k, k, 1.0), base.forces)
            assert note == f"SmallnessViolation: {info.value}"

    def test_overflowing_spring_energy_is_a_failed_point(self):
        # theta ~ 1e200 under extension: the spring potential overflows
        result = run_stiffness_sweep(problem(), BodyForce(-1e200, 1e200), GRID)
        assert result.records == ()
        assert len(result.failures) == 19
        assert all("energy overflows" in message for _, message in result.failures)

    def test_plain_value_error_propagates(self, monkeypatch):
        # only package errors mark a grid point as failed; anything else is a bug
        def broken(*args):
            raise ValueError("not a model rejection")

        monkeypatch.setattr(experiments_module, "_exact", broken)
        with pytest.raises(ValueError, match="not a model rejection"):
            run_stiffness_sweep(problem(), BodyForce(1.0, -1.0), GRID)

    def test_arrays_past_the_memory_propagate_from_the_first_point(self, monkeypatch):
        # numpy refuses an 8-EiB array at once; the mesh fails alike at every k,
        # so the first point's ZeroElements ends the sweep
        calls = []
        original = experiments_module._exact

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(experiments_module, "_exact", counting)
        with pytest.raises(ZeroElements, match="do not fit in memory"):
            run_stiffness_sweep(problem(), BodyForce(1.0, -1.0), GRID, (2 ** 60 - 2, 4))
        assert len(calls) == 1

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            run_stiffness_sweep(problem(), BodyForce(1.0, -1.0), [0.5, 0.5])

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("broken solver")

        monkeypatch.setattr(experiments_module, "_exact", broken)
        with pytest.raises(TypeError, match="broken solver"):
            run_stiffness_sweep(problem(), BodyForce(1.0, -1.0), [0.5, 1.0])


class TestPenaltyConvergence:
    def test_compression_schedule(self):
        study = run_penalty_convergence(problem((1.0, -1.0)),
                                        PenaltyVariant.COMPRESSION_ONLY)
        assert [r.n for r in study.records] == list(range(1, 13))
        for r in study.records:
            assert r.lam == 2.0 ** (3 - r.n)
        # gap grows toward the natural length from below; n=3 value frozen
        thetas = [r.theta for r in study.records]
        assert all(b > a for a, b in zip(thetas, thetas[1:]))
        assert all(t < 1.0 for t in thetas)
        assert study.records[2].theta == pytest.approx(11.0 / 12.0, abs=1e-12)
        assert study.limit_variant is ConstraintVariant.RIGID_COMPRESSION
        assert study.limit.g1 == pytest.approx(0.0, abs=1e-12)
        assert study.limit.g2 == pytest.approx(0.0, abs=1e-12)
        errors = [r.error for r in study.records]
        assert all(b <= a for a, b in zip(errors[1:], errors[2:]))
        assert errors[-1] < 5e-3
        assert not study.non_convergence

    def test_extension_penalty_inactive_under_compression(self):
        # compressive load never triggers the extension penalty: constant error
        study = run_penalty_convergence(problem((1.0, -1.0)),
                                        PenaltyVariant.EXTENSION_ONLY)
        errors = [r.error for r in study.records]
        assert max(errors) == pytest.approx(min(errors), abs=1e-14)
        assert study.non_convergence

    def test_extension_penalty_under_extension_load(self):
        study = run_penalty_convergence(problem((-1.0, 1.0)),
                                        PenaltyVariant.EXTENSION_ONLY)
        errors = [r.error for r in study.records]
        assert errors[-1] < 5e-3
        assert all(b <= a + 1e-15 for a, b in zip(errors[1:], errors[2:]))
        assert study.limit_variant is ConstraintVariant.RIGID_EXTENSION
        assert not study.non_convergence

    def test_two_sided_penalty(self):
        study = run_penalty_convergence(problem((1.0, -1.0)), PenaltyVariant.TWO_SIDED)
        assert study.limit_variant is ConstraintVariant.FULLY_RIGID
        assert abs(study.records[-1].theta - 1.0) <= 1e-3
        assert study.records[-1].error < 5e-3

    @pytest.mark.parametrize("n", [-1030, np.int64(-1030), "a", None], ids=repr)
    def test_index_without_a_finite_lambda_is_refused(self, n):
        # 2**(3 - n) overflows, or n is not a number
        with pytest.raises(ValidationError, match="n must be a real number"):
            run_penalty_convergence(problem((1.0, -1.0)), PenaltyVariant.TWO_SIDED, [2, n])

    def test_underflowing_and_fractional_indices(self):
        with pytest.raises(NonPositiveLambda):
            run_penalty_convergence(problem((1.0, -1.0)), PenaltyVariant.TWO_SIDED, [1078])
        study = run_penalty_convergence(problem((1.0, -1.0)), PenaltyVariant.TWO_SIDED, [1.5])
        assert study.records[0].lam == 2.0 ** 1.5


def _bits(*values):
    """Exact float identity, telling -0.0 from 0.0."""
    return tuple(float(v).hex() for v in values)


class TestInterfaceOnlyStudies:
    """Studies skip field recovery; each record must still be the eager solve's."""

    OVERFLOWING_FIELD = make_problem(GEO, Material(1e-300, 1e-300),
                                     SpringLaw(1e-301, 1e-301, 1.0), BodyForce(1e10, -1e10),
                                     ConstraintVariant.NON_PENETRATION)

    def test_overflowing_field_fails_every_sweep_point(self):
        base = self.OVERFLOWING_FIELD
        result = run_stiffness_sweep(base, base.forces, [1e-302, 1e-301])
        assert result.records == ()
        assert [k for k, _ in result.failures] == [1e-302, 1e-301]
        assert all("overflows" in message for _, message in result.failures)

    def test_overflowing_field_refuses_the_study(self):
        with pytest.raises(NoConsistentRegime, match="overflows"):
            run_penalty_convergence(self.OVERFLOWING_FIELD, PenaltyVariant.COMPRESSION_ONLY)

    def test_unproven_bound_falls_back_to_the_field(self):
        # max|pinned| = 1.04e308 fails the bound's half of DBL_MAX, yet the
        # field is finite: the study must keep every point the eager solve keeps
        base = make_problem(GEO, Material(0.03, 0.03), SpringLaw(0.01, 0.01, 1.0),
                            BodyForce(1e308, -1e308), ConstraintVariant.NON_PENETRATION)
        reduced = schur_reduce(assemble(build_mesh(GEO, 4, 4), base.material, base.forces))
        law = PenaltyLaw(PenaltyVariant.COMPRESSION_ONLY, 1.0)
        study = run_penalty_convergence(base, PenaltyVariant.COMPRESSION_ONLY)
        assert len(study.records) == 12
        for record in study.records:
            sol = solve_penalized(reduced, PenaltyProblem(base, law, record.lam))
            assert not reduced.field_surely_finite(sol.g1, sol.g2)
            assert _bits(record.theta, record.g1, record.g2) == _bits(sol.theta, sol.g1, sol.g2)

    @pytest.mark.parametrize("seed", range(4))
    def test_records_are_the_eager_solves(self, seed):
        rng = np.random.default_rng(seed)
        for variant, penalty in itertools.product(ConstraintVariant, PenaltyVariant):
            l = rng.uniform(0.1, 0.8)
            L1, L2 = rng.uniform(0.25, 1.5, 2)
            E1, E2 = rng.uniform(0.5, 4.0, 2)
            k_max = (E1 + E2) / (2.0 * max(L1, L2))
            k1, k2 = rng.uniform(0.02, 0.98, 2) * k_max
            f1, f2 = rng.uniform(-1.0, 1.0, 2) * 10.0 ** rng.uniform(-3.0, 17.0)
            base = make_problem(Geometry(-l - L1, l + L2, l), Material(E1, E2),
                                SpringLaw(k1, k2, 2.0 * l), BodyForce(f1, f2), variant)
            mesh = tuple(int(n) for n in rng.integers(1, 65, 2))
            reduced = schur_reduce(assemble(build_mesh(base.geometry, *mesh),
                                            base.material, base.forces))
            l = base.geometry.l

            grid = np.sort(rng.uniform(0.0, 0.98, 5)) * k_max
            sweep = run_stiffness_sweep(base, base.forces, grid, mesh)
            assert len(sweep.records) == 5 and not sweep.failures
            for record in sweep.records:
                spring = SpringLaw(record.k, record.k, 2.0 * l)
                sol = solve_exact(reduced, spring, variant, l)
                energy = reduced.energy((sol.g1, sol.g2)) + spring.potential(sol.theta)
                assert _bits(record.g1, record.g2, record.theta, record.s, record.energy) == \
                    _bits(sol.g1, sol.g2, sol.theta, sol.s, energy)
                assert record.contact == sol.contact

            study = run_penalty_convergence(base, penalty, range(1, 13), mesh)
            limit = solve_exact(reduced, base.spring, LIMIT_VARIANT[penalty], l)
            assert _bits(study.limit.g1, study.limit.g2, study.limit.theta, study.limit.s) == \
                _bits(limit.g1, limit.g2, limit.theta, limit.s)
            law = PenaltyLaw(penalty, 2.0 * l)
            np_base = replace(base, variant=ConstraintVariant.NON_PENETRATION)
            for record in study.records:
                sol = solve_penalized(reduced, PenaltyProblem(np_base, law, record.lam))
                error = reduced.interface_vnorm((sol.g1 - limit.g1, sol.g2 - limit.g2))
                assert _bits(record.theta, record.g1, record.g2, record.error) == \
                    _bits(sol.theta, sol.g1, sol.g2, error)


class TestCsvExport:
    def test_sweep_schema(self, tmp_path):
        result = run_stiffness_sweep(problem(), BodyForce(1.0, -1.0), [0.5, 1.0, 1.5])
        path = export_csv(result, tmp_path / "sweep.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "k,g1,g2,theta,s,contact,energy"
        assert len(lines) == 4
        fields = lines[2].split(",")
        assert len(fields) == 7
        assert fields[5] in ("true", "false")
        assert float(fields[3]) == pytest.approx(0.875, abs=1e-10)

    def test_convergence_schema(self, tmp_path):
        study = run_penalty_convergence(problem((1.0, -1.0)),
                                        PenaltyVariant.COMPRESSION_ONLY, range(1, 4))
        path = export_csv(study, tmp_path / "conv.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "n,lambda,theta,g1,g2,error_vnorm"
        assert len(lines) == 4
        assert lines[1].split(",")[0] == "1"
        assert float(lines[3].split(",")[1]) == 1.0  # lambda_3 = 2**0

    def test_twelve_significant_digits(self, tmp_path):
        result = run_stiffness_sweep(problem(), BodyForce(1.0, -1.0), [1.0])
        path = export_csv(result, tmp_path / "s.csv")
        value = path.read_text().splitlines()[1].split(",")[3]
        assert value == "8.75000000000e-01"

    def test_empty_refused_and_no_file(self, tmp_path):
        empty = SweepResult((), ConstraintVariant.NON_PENETRATION, BodyForce(0.0, 0.0))
        target = tmp_path / "nothing.csv"
        with pytest.raises(ValueError):
            export_csv(empty, target)
        assert not target.exists()

    def test_byte_identical_reruns(self, tmp_path):
        blobs = []
        for i in range(2):
            result = run_stiffness_sweep(problem(), BodyForce(6.0, -6.0), GRID)
            path = export_csv(result, tmp_path / f"run{i}.csv")
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


class TestSvgExport:
    def test_sweep_panels_are_valid_svg(self, tmp_path):
        result = run_stiffness_sweep(problem(), BodyForce(1.0, -1.0), GRID)
        for panel in ("displacements", "stress", "gap"):
            path = export_svg(result, tmp_path / f"{panel}.svg", panel)
            root = ET.parse(path).getroot()
            assert root.tag.endswith("svg")
            polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
            assert len(polylines) == (2 if panel == "displacements" else 1)
            texts = [e.text for e in root.iter() if e.tag.endswith("text")]
            assert "stiffness k" in texts

    def test_error_panel_log_scale_non_increasing(self, tmp_path):
        study = run_penalty_convergence(problem((1.0, -1.0)),
                                        PenaltyVariant.COMPRESSION_ONLY)
        path = export_svg(study, tmp_path / "error.svg", "error")
        root = ET.parse(path).getroot()
        polyline = next(e for e in root.iter() if e.tag.endswith("polyline"))
        pts = [tuple(map(float, p.split(","))) for p in polyline.get("points").split()]
        ys = [y for _, y in pts]
        # svg y grows downward, so a falling error gives non-decreasing pixels
        assert all(b >= a for a, b in zip(ys, ys[1:]))

    def test_unknown_panel(self, tmp_path):
        result = run_stiffness_sweep(problem(), BodyForce(1.0, -1.0), [1.0, 1.5])
        with pytest.raises(ValueError):
            export_svg(result, tmp_path / "x.svg", "spectrogram")

    def test_empty_refused(self, tmp_path):
        empty = SweepResult((), ConstraintVariant.NON_PENETRATION, BodyForce(0.0, 0.0))
        with pytest.raises(ValueError):
            export_svg(empty, tmp_path / "x.svg", "gap")

    def test_round_off_range_gets_padded_axis(self, tmp_path):
        # g1 and g2 equal up to round-off: the axis is padded around their
        # common value instead of spanning the 1e-17 difference
        g1, g2 = 0.12499999999999988, 0.12499999999999989
        records = tuple(SweepRecord(k, g1, g2, 1.0, 0.0, False, 0.0) for k in (0.5, 1.0))
        result = SweepResult(records, ConstraintVariant.NON_PENETRATION, BodyForce(1.0, 1.0))
        root = ET.parse(export_svg(result, tmp_path / "d.svg", "displacements")).getroot()
        yticks = [e.text for e in root.iter()
                  if e.tag.endswith("text") and e.get("text-anchor") == "end"]
        assert yticks == ["-0.375", "-0.125", "0.125", "0.375", "0.625"]
        # both series sit mid-chart: the plot spans y = 20 .. 430 pixels
        for polyline in (e for e in root.iter() if e.tag.endswith("polyline")):
            ys = {p.split(",")[1] for p in polyline.get("points").split()}
            assert ys == {"225.00"}
