import hashlib
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import spring_rods.cli as cli_module
from spring_rods import PenaltyVariant, run_penalty_convergence, solve
from spring_rods.cli import RunConfig, build_parser, main, parse_config
from spring_rods.errors import ParseError
from spring_rods.fem import DofVector


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdout_value(out, name):
    match = re.search(rf"^{name} = (\S+)$", out, re.MULTILINE)
    assert match, f"{name} not found in output:\n{out}"
    return float(match.group(1))


#: A contact equilibrium of a soft left rod, with interface displacements of 6.3e6.
SOFT_ROD_IN_CONTACT = (
    "--a=-1.7559933639808407", "--b", "0.9336541472789581", "--l", "0.3013650612124187",
    "--e1", "0.018811451504598425", "--e2", "11.806396544155847",
    "--k1", "3.8576722781915715", "--k2", "3.033974192705237",
    "--f1", "664904701.773039", "--f2=-1154753447.8249147", "--n1", "58", "--n2", "42")


class TestParseConfig:
    def test_defaults_are_benchmark_data(self):
        config = parse_config(None)
        assert (config.a, config.b, config.l) == (-1.0, 1.0, 0.5)
        assert (config.e1, config.e2) == (1.0, 1.0)
        assert (config.k1, config.k2) == (1.0, 1.0)
        assert (config.f1, config.f2) == (0.0, 0.0)
        assert config.variant == "non-penetration"

    def test_empty_file_keeps_defaults(self, tmp_path):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("")
        config = parse_config(str(cfg))
        assert config == RunConfig()

    def test_file_values_and_comments(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# compression study\nspring.k1 = 0.7\nforce.f1 = 6\n"
                       "force.f2 = -6\nmesh.n1 = 8\n")
        config = parse_config(str(cfg))
        assert config.k1 == 0.7
        assert config.f1 == 6.0
        assert config.n1 == 8

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("force.f1 = 6\n")
        config = parse_config(str(cfg), {"f2": -6.0})
        assert (config.f1, config.f2) == (6.0, -6.0)

    def test_unknown_key_reports_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("spring.k1 = 1.0\nspring.k9 = 2.0\n")
        with pytest.raises(ParseError, match=r":2.*k9"):
            parse_config(str(cfg))

    def test_bad_value_reports_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("spring.k1 = soft\n")
        with pytest.raises(ParseError, match=":1"):
            parse_config(str(cfg))

    def test_bad_choice_reports_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("output.formats = pdf\n")
        with pytest.raises(ParseError, match=r":1: bad value 'pdf' for output.formats"):
            parse_config(str(cfg))
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg),
                               "--outdir", str(tmp_path / "out"))
        assert code == 1
        assert err.startswith("error:") and ":1:" in err
        assert not (tmp_path / "out").exists()

    def test_file_values_checked_like_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        for line in ("constraint.variant = rigid", "penalty.variant = both",
                     "solver.method = newton", "mesh.n1 = 2.5"):
            cfg.write_text(f"mesh.n2 = 3\n{line}\n")
            with pytest.raises(ParseError, match=":2: bad value"):
                parse_config(str(cfg))

    def test_missing_file(self):
        with pytest.raises(ParseError):
            parse_config("/nonexistent/run.cfg")

    def test_jobs_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mesh.n1 = 8\njobs = 2\n")
        with pytest.raises(ParseError, match=r":2: unknown key 'jobs'"):
            parse_config(str(cfg))

    def test_every_field_reachable_from_flags(self):
        parser = build_parser()
        args = parser.parse_args(["solve"])
        flag_dests = set(vars(args)) - {"command", "config"}
        assert flag_dests == set(vars(RunConfig()))


class TestSolveCommand:
    def test_benchmark_compression(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "solve", "--f1", "1", "--f2", "-1",
                               "--outdir", str(tmp_path))
        assert code == 0
        assert abs(stdout_value(out, "theta") - 0.875) <= 1e-8
        assert abs(stdout_value(out, "s") + 0.125) <= 1e-8

    def test_nodal_csv_written(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "solve", "--f1", "1", "--f2", "-1",
                               "--n1", "3", "--n2", "2", "--outdir", str(tmp_path))
        assert code == 0
        files = list(tmp_path.glob("solve-*/solution.csv"))
        assert len(files) == 1
        lines = files[0].read_text().splitlines()
        assert lines[0] == "rod,x,u"
        assert len(lines) == 1 + 4 + 3  # (n1+1) + (n2+1) nodes

    def test_penalized_solve(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "solve", "--f1", "1", "--f2", "-1",
                               "--penalty", "compression", "--lambda", "1",
                               "--format", "svg", "--outdir", str(tmp_path))
        assert code == 0
        assert abs(stdout_value(out, "theta") - 11.0 / 12.0) <= 1e-8

    def test_iterative_methods(self, capsys, tmp_path):
        for method in ("gradient", "fixed-point"):
            code, out, _ = run_cli(capsys, "solve", "--f1", "6", "--f2", "-6",
                                   "--k1", "0.25", "--k2", "0.25",
                                   "--method", method, "--format", "svg",
                                   "--outdir", str(tmp_path))
            assert code == 0
            assert abs(stdout_value(out, "theta")) <= 1e-8
            assert "contact = true" in out

    def test_smallness_violation_is_runtime_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "solve", "--k1", "2.5", "--outdir", str(tmp_path))
        assert code == 1
        assert "error" in err

    def test_config_file_merge(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("force.f1 = 6\nspring.k1 = 0.3\nspring.k2 = 0.3\n")
        code, out, _ = run_cli(capsys, "solve", "--config", str(cfg), "--f2", "-6",
                               "--format", "svg", "--outdir", str(tmp_path))
        assert code == 0
        assert abs(stdout_value(out, "theta")) <= 1e-9
        assert abs(stdout_value(out, "s") + 0.5) <= 1e-9


class TestSolveExitStatus:
    def test_count_past_the_float_range_is_an_error(self, capsys, tmp_path):
        # accepted, it printed an OverflowError traceback from the element length
        code, out, err = run_cli(capsys, "solve", "--n1", "1" + "0" * 400,
                                 "--outdir", str(tmp_path))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "past the float range" in err

    def test_count_past_the_addressable_arrays_is_an_error(self, capsys, tmp_path):
        # accepted, it printed numpy's "Maximum allowed dimension exceeded" traceback
        code, out, err = run_cli(capsys, "solve", "--n1", "100000000000000000000",
                                 "--outdir", str(tmp_path))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "elements per rod" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_count_past_the_memory_is_an_error(self, tmp_path, command):
        # numpy can address these 8-EiB arrays but refuses at once to allocate
        # them; that leaked from field recovery as an _ArrayMemoryError traceback
        import spring_rods

        src = str(Path(spring_rods.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-m", "spring_rods.cli", command,
                               "--n1", "1152921504606846974", "--outdir", str(tmp_path)],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
        assert (proc.returncode, proc.stdout) == (1, "")
        lines = proc.stderr.splitlines()
        # a sweep stops at its first point: no note per stiffness value
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
        assert "do not fit in memory" in lines[0]
        assert "Traceback" not in proc.stderr
        assert list(tmp_path.iterdir()) == []

    def test_infinite_tolerance_is_runtime_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "solve", "--method", "gradient", "--f1", "3",
                               "--f2=-1", "--k1", "0.5", "--tol", "inf",
                               "--outdir", str(tmp_path))
        assert code == 1
        assert err.startswith("error:") and "finite" in err

    def test_infinite_lambda_is_runtime_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "solve", "--lambda", "inf", "--outdir", str(tmp_path))
        assert code == 1
        assert err.startswith("error:") and "finite" in err
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_loads_are_runtime_error(self, capsys, tmp_path):
        # a rod of length 1e10 at 1e300: the condensed load f1*L1/2 overflows
        code, out, err = run_cli(capsys, "solve", "--a=-1e10", "--k1", "1e-11", "--k2", "1e-11",
                                 "--f1", "1e300", "--f2=-1e300",
                                 "--n1", "64", "--n2", "64", "--outdir", str(tmp_path))
        assert code == 1
        assert err.startswith("error:") and "not finite" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_gradient_keeps_contact_at_huge_loads(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--method", "gradient", "--f1", "1e17",
                               "--f2=-1e17", "--format", "svg")
        assert code == 0
        assert "regime = contact" in out
        assert stdout_value(out, "g1") == 0.5 and stdout_value(out, "theta") == 0.0

    @pytest.mark.parametrize("problem", [
        (),
        ("--a=-1.3", "--b", "0.9", "--l", "0.4", "--e1", "1.7", "--e2", "0.6",
         "--k1", "0.3", "--k2", "0.5"),
    ], ids=("symmetric", "asymmetric"))
    def test_fixed_point_keeps_contact_at_huge_loads(self, capsys, problem):
        # the asymmetric case printed regime = compression, theta = -0.2 and exited 0
        args = ("--f1", "1e17", "--f2=-1e17", *problem, "--format", "svg")
        code, out, _ = run_cli(capsys, "solve", "--method", "fixed-point", *args)
        assert code == 0
        assert "regime = contact" in out and stdout_value(out, "theta") == 0.0
        _, exact, _ = run_cli(capsys, "solve", "--method", "exact", *args)
        assert out.splitlines()[1:] == exact.splitlines()[1:]

    @pytest.mark.parametrize("method", ["exact", "gradient", "fixed-point"])
    def test_soft_rod_in_contact_is_contact_for_every_method(self, capsys, method):
        # fixed-point raised "step norms grew for 3 iterations" on rounding
        # noise, and gradient printed theta = -9.01e-10 as compression
        code, out, err = run_cli(capsys, "solve", "--method", method, *SOFT_ROD_IN_CONTACT,
                                 "--format", "svg")
        assert (code, err) == (0, "")
        assert "regime = contact" in out and "theta = 0.00000000000e+00" in out

    def test_nonfinite_modulus_is_runtime_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "solve", "--e1", "inf", "--outdir", str(tmp_path))
        assert code == 1
        assert err.startswith("error:") and "finite" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("method, spring", [
        ("gradient", ()),
        # k1 != k2 keeps the damping 1/(1 + Lp*C) from landing on the fixed point in one step
        ("fixed-point", ("--k1", "0.5", "--k2", "1.5")),
    ])
    def test_non_converged_solve_fails_but_keeps_output(self, capsys, tmp_path, method,
                                                        spring):
        code, out, err = run_cli(capsys, "solve", "--method", method, "--f1", "1",
                                 "--f2", "-0.5", *spring, "--tol", "1e-300",
                                 "--max-iter", "2", "--outdir", str(tmp_path))
        assert code == 1
        assert err == f"error: {method} did not converge in 2 iterations\n"
        assert "theta = " in out
        assert len(list(tmp_path.glob("solve-*/solution.csv"))) == 1


class TestSweepCommand:
    def test_artifacts_and_determinism(self, capsys, tmp_path):
        blobs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, "sweep", "--f1", "6", "--f2", "-6",
                                   "--outdir", str(tmp_path))
            assert code == 0
        csvs = sorted(tmp_path.glob("sweep-*/sweep.csv"))
        assert len(csvs) == 2
        assert csvs[0].read_bytes() == csvs[1].read_bytes()
        svgs = list(tmp_path.glob("sweep-*/displacements.svg"))
        assert len(svgs) == 2

    def test_csv_only_format(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "sweep", "--f1", "1", "--f2", "-1",
                             "--format", "csv", "--outdir", str(tmp_path))
        assert code == 0
        rundir = next(tmp_path.glob("sweep-*"))
        assert (rundir / "sweep.csv").exists()
        assert not list(rundir.glob("*.svg"))

    def test_flat_stress_at_huge_loads_still_plots(self, capsys, tmp_path):
        # s = -2.5e16 at every k: the flat stress range must still be widened
        code, out, err = run_cli(capsys, "sweep", "--f1", "1e17", "--f2=-1e17",
                                 "--outdir", str(tmp_path))
        assert (code, err) == (0, "")
        rundir = next(tmp_path.glob("sweep-*"))
        assert sorted(p.name for p in rundir.iterdir()) == [
            "displacements.svg", "gap.svg", "stress.svg", "sweep.csv"]
        assert out.count("wrote ") == 4

    def test_all_failed_sweep_says_why(self, capsys, tmp_path):
        # E1 + E2 = 0.1 admits the base k = 0.01 but no k of the grid: each
        # point's note comes before the refusal
        code, out, err = run_cli(capsys, "sweep", "--e1", "0.05", "--e2", "0.05",
                                 "--k1", "0.01", "--k2", "0.01", "--outdir", str(tmp_path))
        assert (code, out) == (1, "")
        notes = err.splitlines()
        assert notes[-1] == "error: refusing to write an empty sweep"
        assert len(notes) == 20
        for i, note in enumerate(notes[:-1], start=1):
            assert note.startswith(f"note: k={round(0.1 * i, 10)} failed: SmallnessViolation")

    @pytest.mark.parametrize("fmt, refusal", [
        ("both", "refusing to write an empty sweep"),
        ("csv", "refusing to write an empty sweep"),
        ("svg", "refusing to plot an empty sweep result")])
    def test_all_failed_sweep_leaves_no_run_directory(self, capsys, tmp_path, fmt, refusal):
        outdir = tmp_path / "runs"
        code, out, err = run_cli(capsys, "sweep", "--e1", "0.05", "--e2", "0.05",
                                 "--k1", "0.01", "--k2", "0.01", "--format", fmt,
                                 "--outdir", str(outdir))
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == f"error: {refusal}"
        assert len(err.splitlines()) == 20
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_energy_fails_every_point_without_a_warning(self, capsys, tmp_path):
        # the pinned field's energy f^2*L^3/E overflows, so no row may carry energy = -inf
        code, out, err = run_cli(capsys, "sweep", "--f1", "1e308", "--f2=-1e308",
                                 "--format", "csv", "--outdir", str(tmp_path))
        assert (code, out) == (1, "")
        notes = err.splitlines()
        assert notes[-1] == "error: refusing to write an empty sweep"
        assert len(notes) == 20
        assert all("NoConsistentRegime: energy overflows" in note for note in notes[:-1])


class TestConvergeCommand:
    def test_artifacts_and_determinism(self, capsys, tmp_path):
        for _ in range(2):
            code, out, _ = run_cli(capsys, "converge", "--f1", "1", "--f2", "-1",
                                   "--penalty", "compression", "--outdir", str(tmp_path))
            assert code == 0
            assert "final error" in out
        csvs = sorted(tmp_path.glob("converge-*/convergence.csv"))
        assert len(csvs) == 2
        assert csvs[0].read_bytes() == csvs[1].read_bytes()
        lines = csvs[0].read_text().splitlines()
        assert len(lines) == 13

    def test_n_max_flag(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "converge", "--f1", "1", "--f2", "-1",
                             "--n-max", "5", "--format", "csv",
                             "--outdir", str(tmp_path))
        assert code == 0
        lines = next(tmp_path.glob("converge-*/convergence.csv")).read_text().splitlines()
        assert len(lines) == 6

    def test_huge_errors_stay_finite(self, capsys, tmp_path):
        # every jump to the limit exceeds 1e154, whose square overflows; the norm does not
        code, out, err = run_cli(capsys, "converge", "--f1=-1e200", "--f2", "1e200",
                                 "--penalty", "extension", "--outdir", str(tmp_path))
        assert (code, err) == (0, "")
        assert "= inf" not in out and "nan" not in out
        rundir = next(tmp_path.glob("converge-*"))
        rows = (rundir / "convergence.csv").read_text().splitlines()[1:]
        errors = [float(row.split(",")[-1]) for row in rows]
        # the problem is linear in the load: the errors are 1e200 times those at unit load
        unit = run_penalty_convergence(
            RunConfig(f1=-1.0, f2=1.0).problem(), PenaltyVariant.EXTENSION_ONLY)
        assert errors == pytest.approx([1e200 * r.error for r in unit.records], rel=1e-10)
        assert '"nan"' not in (rundir / "error.svg").read_text()  # no y="nan" coordinate

    @pytest.mark.parametrize("n_max", ["0", "-3"])
    def test_empty_schedule_leaves_no_run_directory(self, capsys, tmp_path, n_max):
        code, out, err = run_cli(capsys, "converge", "--n-max", n_max,
                                 "--outdir", str(tmp_path))
        assert code == 1
        assert err == f"error: need --n-max of at least 1, got {n_max}\n"
        assert out == ""
        assert list(tmp_path.iterdir()) == []


class TestValidateCommand:
    def test_benchmark_passes(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--f1", "1", "--f2", "-1")
        assert code == 0
        assert "max pairwise deviation" in out

    def test_large_loads_on_rigid_compression(self, capsys):
        # a projected gradient that halved its step on round-off energy rises
        # stalled here at a deviation of 8.2e-6 while reporting convergence
        code, out, err = run_cli(
            capsys, "validate", "--a=-0.7919920658479289", "--b", "2.173948906448124",
            "--l", "0.43248452423501815", "--e1", "4.574338390602632",
            "--e2", "0.6991276097723774", "--k1", "0.7240822668619059",
            "--k2", "0.08192430271184413", "--f1=-36.32892729437734",
            "--f2", "79.52678469498397", "--variant", "rigid-compression")
        assert code == 0, err
        assert "FAIL" not in err

    def test_soft_rod_in_contact_passes(self, capsys):
        code, _, err = run_cli(capsys, "validate", *SOFT_ROD_IN_CONTACT)
        assert (code, err) == (0, "")

    def test_large_loads_pass_within_the_rounding_of_the_loads(self, capsys):
        # the condensed load is the exact f*L/2, so all three solvers give the
        # closed form's g1 = 0.5; the ramp dot it replaced rounded g1 to 1.5
        code, out, err = run_cli(capsys, "validate", "--f1", "1e17", "--f2=-1e17",
                                 "--n1", "3", "--n2", "7")
        assert (code, err) == (0, "")
        assert stdout_value(out, "max pairwise deviation") == 0.0

    def test_deviation_beyond_the_scaled_tolerance_fails(self, capsys, monkeypatch):
        # at 3+7 and 1e17 the displacement tolerance is 64*10*eps*5e16 = 7.1e3
        real = cli_module.solve

        def shifted(problem, mesh_sizes, method, *args):
            sol = real(problem, mesh_sizes, method, *args)
            return replace(sol, g1=sol.g1 + 1e4) if method == "fixed-point" else sol

        monkeypatch.setattr(cli_module, "solve", shifted)
        code, _, err = run_cli(capsys, "validate", "--f1", "1e17", "--f2=-1e17",
                               "--n1", "3", "--n2", "7")
        assert code == 1
        assert err.startswith("FAIL: g1 deviation 1.00000000000e+04 above 7.1")

    @pytest.mark.parametrize("n1, n2", [(64, 5), (1, 1)])
    def test_field_stress_traces_pass_on_both_end_element_branches(self, capsys, n1, n2):
        code, _, err = run_cli(capsys, "validate", "--a=-1.3", "--b", "0.9", "--l", "0.4",
                               "--e1", "1.7", "--e2", "0.6", "--k1", "0.3", "--k2", "0.5",
                               "--f1", "2.5", "--f2=-1.5", "--n1", str(n1), "--n2", str(n2))
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("rod, node", [("rod1", -2), ("rod2", 1)])
    def test_perturbed_field_fails_on_the_stress_trace(self, capsys, monkeypatch, rod, node):
        # the exact solve's interface values stay put: only its field moves,
        # so only the field traces sigma1(-l) and sigma2(l) leave s, by E*1e-3/h
        real = cli_module.solve

        def nudged(problem, mesh_sizes, method, *args):
            sol = real(problem, mesh_sizes, method, *args)
            if method != "exact":
                return sol
            u = DofVector(sol.u.rod1.copy(), sol.u.rod2.copy())
            getattr(u, rod)[node] += 1e-3
            return replace(sol, u=u)

        monkeypatch.setattr(cli_module, "solve", nudged)
        code, out, err = run_cli(capsys, "validate", "--f1", "6", "--f2=-6",
                                 "--k1", "0.3", "--k2", "0.3")
        assert code == 1
        assert err.startswith("FAIL: field stress trace deviation 8.00000000000e-03 above 1")
        assert err.count("FAIL") == 1
        assert "max pairwise deviation" in out

    def test_twenty_seeded_random_configs(self, capsys):
        rng = np.random.default_rng(20)
        variants = ["non-penetration", "rigid-compression", "rigid-extension",
                    "fully-rigid"]
        for i in range(20):
            k1, k2 = rng.uniform(0.05, 1.95, 2)
            f1, f2 = rng.uniform(-8.0, 8.0, 2)
            code, _, _ = run_cli(capsys, "validate",
                                 "--k1", str(k1), "--k2", str(k2),
                                 "--f1", str(f1), "--f2", str(f2),
                                 "--variant", variants[i % 4])
            assert code == 0


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_jobs_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_options_may_precede_the_command(self, capsys):
        before = run_cli(capsys, "--f1", "1", "--f2=-1", "--format", "svg", "solve")
        after = run_cli(capsys, "solve", "--f1", "1", "--f2=-1", "--format", "svg")
        assert before == after
        assert before[0] == 0

    def test_help_describes_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        # argparse may wrap the help text after a hyphen
        out = " ".join(capsys.readouterr().out.split()).replace("- ", "-")
        for text in ("solve: solve one equilibrium", "sweep: stiffness sweep",
                     "converge: penalty convergence study",
                     "validate: cross-check all solvers against the closed form"):
            assert text in out

    def test_help_lists_every_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--a", "--b", "--l", "--e1", "--e2", "--k1", "--k2", "--f1",
                     "--f2", "--variant", "--penalty", "--lambda", "--n-max", "--n1",
                     "--n2", "--method", "--tol", "--max-iter", "--outdir", "--format",
                     "--config"):
            assert flag in out


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_no_state_carries_over_between_calls(self, capsys, tmp_path):
        load = ("--f1", "6", "--f2=-6", "--k1", "0.3", "--k2", "0.3")
        code, out, _ = run_cli(capsys, "solve", *load, "--lambda", "0.25", "--method",
                               "gradient", "--format", "csv", "--outdir", str(tmp_path))
        assert code == 0 and "method = projected-gradient" in out
        penalized_g1 = stdout_value(out, "g1")
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--method", "newton"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "solve", *load, "--outdir", str(tmp_path))
        assert code == 0 and "method = exact" in out
        exact = solve(RunConfig(f1=6.0, f2=-6.0, k1=0.3, k2=0.3).problem(), (4, 4))
        assert stdout_value(out, "g1") == pytest.approx(exact.g1, abs=1e-12)
        assert abs(penalized_g1 - exact.g1) > 1e-3
        code, out, _ = run_cli(capsys, "sweep", *load, "--outdir", str(tmp_path))
        assert code == 0
        rundir = next(tmp_path.glob("sweep-*"))
        assert sorted(p.name for p in rundir.iterdir()) == [
            "displacements.svg", "gap.svg", "stress.svg", "sweep.csv"]


@pytest.mark.parametrize("unbuffered", [True, False], ids=("unbuffered", "buffered"))
def test_closed_stdout_exits_1_without_traceback(unbuffered):
    # the child reads stdin to its end before main writes, so closing stdout
    # and then stdin guarantees that every write meets a closed pipe
    import spring_rods

    src = str(Path(spring_rods.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    code = ("import sys; sys.stdin.read(); from spring_rods.cli import main; "
            "sys.exit(main(['solve', '--method', 'fixed-point', '--f1', '1e17', "
            "'--f2=-1e17', '--format', 'svg']))")
    proc = subprocess.Popen([sys.executable, "-c", code], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**env, "PYTHONPATH": src})
    proc.stdout.close()
    proc.stdin.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_import_loads_neither_scipy_nor_a_thread_pool():
    import spring_rods

    src = str(Path(spring_rods.__file__).resolve().parents[1])
    code = ("import sys, spring_rods; "
            "print(sorted(m for m in ('scipy', 'concurrent.futures') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("unbuffered", [True, False], ids=("unbuffered", "buffered"))
def test_help_on_closed_stdout_exits_1_without_traceback(unbuffered):
    # as above, the child reads stdin to its end before argparse writes the help
    import spring_rods

    src = str(Path(spring_rods.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    code = ("import sys; sys.stdin.read(); from spring_rods.cli import main; "
            "sys.exit(main(['--help']))")
    proc = subprocess.Popen([sys.executable, "-c", code], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**env, "PYTHONPATH": src})
    proc.stdout.close()
    proc.stdin.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_converge_stall_note_goes_to_stderr(capsys, tmp_path):
    # a compressive load never stretches the spring, so the extension penalty
    # never acts and the error cannot fall
    code, out, err = run_cli(capsys, "converge", "--f1", "1", "--f2=-1", "--penalty",
                             "extension", "--n-max", "4", "--format", "csv",
                             "--outdir", str(tmp_path))
    assert code == 0
    assert "final error" in out and "note:" not in out
    assert err == ("note: error stalled over the last records "
                   "(load may never activate the penalized side)\n")


class TestOptionTable:
    def test_every_key_at_its_default_parses_to_the_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "geometry.a = -1\ngeometry.b = 1\ngeometry.l = 0.5\n"
            "material.e1 = 1\nmaterial.e2 = 1\nspring.k1 = 1\nspring.k2 = 1\n"
            "force.f1 = 0\nforce.f2 = 0\nconstraint.variant = non-penetration\n"
            "penalty.variant = compression\npenalty.n_max = 12\n"
            "mesh.n1 = 4\nmesh.n2 = 4\nsolver.method = exact\n"
            "solver.tolerance = 1e-8\nsolver.max_iter = 100000\n"
            "output.dir = out\noutput.formats = both\n")
        assert parse_config(str(cfg)) == RunConfig()
        cfg.write_text("penalty.lambda = 0.25\n")
        assert parse_config(str(cfg)) == RunConfig(lam=0.25)

    def test_line_without_equals_reports_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mesh.n1 = 8\nmesh.n2 8\n")
        with pytest.raises(ParseError, match=r":2: expected 'key = value', got 'mesh.n2 8'"):
            parse_config(str(cfg))


#: The two configurations of the pinned outputs: the defaults (no load) and an
#: asymmetric geometry with unequal moduli, stiffnesses and loads.
PIN_CONFIGS = {
    "default": (),
    "asymmetric": ("--a=-1.3", "--b", "0.9", "--l", "0.4", "--e1", "1.7", "--e2", "0.6",
                   "--k1", "0.3", "--k2", "0.5", "--f1", "2.5", "--f2=-1.5"),
}
PIN_COMMANDS = {
    "solve-exact": ("solve",),
    "solve-gradient": ("solve", "--method", "gradient"),
    "solve-fixed-point": ("solve", "--method", "fixed-point"),
    "solve-lambda": ("solve", "--lambda", "0.25"),
    "sweep": ("sweep",),
    "converge": ("converge",),
    "validate": ("validate",),
}
#: First 64 bits of the sha256 of the exit status, stdout and stderr (run
#: directory stamps masked) and every written file's name and bytes, in path order.
PINNED_OUTPUTS = {
    ("default", "solve-exact"): "bf1fd73725ba5686",
    ("default", "solve-gradient"): "1c8e4caa9f80d0d3",
    ("default", "solve-fixed-point"): "6aefaff09bba3415",
    ("default", "solve-lambda"): "dc3dbc0da3eabe32",
    ("default", "sweep"): "3ae7d15efd698733",
    ("default", "converge"): "8a9cf7de41cc3b54",
    ("default", "validate"): "4e283b190bfb8f52",
    ("asymmetric", "solve-exact"): "2c8604bc45836640",
    ("asymmetric", "solve-gradient"): "4750153a8545508f",
    ("asymmetric", "solve-fixed-point"): "dfb4522103c18244",
    ("asymmetric", "solve-lambda"): "b30735518199a087",
    ("asymmetric", "sweep"): "38cb94d6e8815ced",
    ("asymmetric", "converge"): "cba196726ee27fc0",
    ("asymmetric", "validate"): "27e9121792433980",
}


@pytest.mark.parametrize("config, command", PINNED_OUTPUTS, ids="-".join)
def test_cli_outputs_are_byte_pinned(capsys, tmp_path, config, command):
    # every printed line and every CSV and SVG byte of the four subcommands
    code, out, err = run_cli(capsys, *PIN_COMMANDS[command], *PIN_CONFIGS[config],
                             "--outdir", str(tmp_path))
    stamp = re.compile(re.escape(str(tmp_path)) + r"/(\w+)-\d{8}-\d{6}-\d{6}")
    digest = hashlib.sha256(stamp.sub(r"\1", f"{code}\n{out}\n{err}").encode())
    for path in sorted(p for p in tmp_path.rglob("*") if p.is_file()):
        digest.update(path.name.encode() + b"\n" + path.read_bytes())
    assert digest.hexdigest()[:16] == PINNED_OUTPUTS[config, command]
