import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spring_rods.cli import RunConfig, build_parser, main, parse_config
from spring_rods.errors import ParseError


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdout_value(out, name):
    match = re.search(rf"^{name} = (\S+)$", out, re.MULTILINE)
    assert match, f"{name} not found in output:\n{out}"
    return float(match.group(1))


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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_loads_are_runtime_error(self, capsys, tmp_path):
        # at 8+8 elements the condensed load overflows (at 4+4 it is finite)
        code, out, err = run_cli(capsys, "solve", "--f1", "1e308", "--f2=-1e308",
                                 "--n1", "8", "--n2", "8", "--outdir", str(tmp_path))
        assert code == 1
        assert err.startswith("error:") and "not finite" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_nonfinite_modulus_is_runtime_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "solve", "--e1", "inf", "--outdir", str(tmp_path))
        assert code == 1
        assert err.startswith("error:") and "finite" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("method, spring", [
        ("gradient", ()),
        # k1 != k2 keeps the default damping from landing on the fixed point in one step
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


def test_import_loads_neither_scipy_nor_a_thread_pool():
    import spring_rods

    src = str(Path(spring_rods.__file__).resolve().parents[1])
    code = ("import sys, spring_rods; "
            "print(sorted(m for m in ('scipy', 'concurrent.futures') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.strip() == "[]"
