import csv
import io
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg

from conftest import newton_pairs
from hdgeig import cli
from hdgeig.cli import main, parse_levels, parse_modes, parse_tau
from hdgeig.eigensolve import _SPACE_MAX, solve_modes
from hdgeig.errors import ConfigError
from hdgeig.localsolve import TauSpec
from hdgeig.recovery import postprocess, recover_fields
from test_eigensolve import reference_surrogate_values


class TestParsers:
    def test_tau_spellings(self):
        assert parse_tau("one") == TauSpec.one()
        assert parse_tau("h") == TauSpec.global_h()
        assert parse_tau("invh") == TauSpec.inverse_global_h()
        assert parse_tau("zero") == TauSpec.zero() == parse_tau("const:0")
        assert parse_tau("const:2.5") == TauSpec.constant(2.5)
        with pytest.raises(ConfigError):
            parse_tau("mystery")
        with pytest.raises(ConfigError):
            parse_tau("const:abc")

    def test_levels(self):
        assert parse_levels("0:3") == (0, 1, 2, 3)
        assert parse_levels("2") == (2,)
        with pytest.raises(ConfigError):
            parse_levels("2:1")
        with pytest.raises(ConfigError):
            parse_levels("a:b")

    def test_modes(self):
        assert parse_modes("1,2,4,6") == (1, 2, 4, 6)
        with pytest.raises(ConfigError):
            parse_modes("1,x")


class TestSolveCommand:
    def test_square_four_modes(self, capsys):
        code = main(["solve", "--domain", "square", "--level", "2", "--k", "1",
                     "--modes", "4", "--format", "json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        lams = [r["lambda"] for r in rows]
        assert np.allclose(lams, [2, 5, 5, 8], atol=0.05)
        assert all(r["lambda_star"] is not None for r in rows)

    @pytest.mark.parametrize("domain,k,level,tau", [
        (domain, k, level, tau) for domain in ("square", "lshape") for k in range(4)
        for level in (0, 1) for tau in ("one", 0.1)
    ] + [
        # near the wall, where the surrogate run keeps the vector stop
        ("square", 1, 2, 0.01),
        ("lshape", 2, 2, "h"),
    ])
    def test_pipeline_matches_the_separate_routes(self, capsys, systems, domain, k, level,
                                                  tau):
        # lambda~ comes from the modes' Ritz block, within 1e-12 of a cold
        # Lanczos run on T0; lambda, lambda* and the counts are the modes run's.
        # Not through the eigenpairs cache: six modes there would replace the
        # one-mode pairs that other tests read
        spelling = tau if isinstance(tau, str) else "const:%r" % tau
        assert main(["solve", "--domain", domain, "--k", str(k), "--level", str(level),
                     "--tau", spelling, "--modes", "6", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        system = systems(domain, level, k, tau)
        lam_tildes, pairs = reference_surrogate_values(system, 6), solve_modes(system, 6)
        for row, lam_tilde, pair in zip(rows, lam_tildes, pairs, strict=True):
            assert row["lambda_tilde"] == pytest.approx(lam_tilde, rel=1e-12, abs=0)
            assert row["lambda"] == pair.value and row["iterations"] == pair.iterations
            fields = recover_fields(system, pair)
            assert row["lambda_star"] == postprocess(system, fields).value_star

    def test_recovery_runs_without_the_factorization(self, capsys, monkeypatch):
        recovered = []

        def recover(sys, pair):
            assert sys._splu is None
            recovered.append(pair.index)
            return recover_fields(sys, pair)

        monkeypatch.setattr("hdgeig.cli.recover_fields", recover)
        assert main(["solve", "--level", "1", "--modes", "3"]) == 0
        assert recovered == [1, 2, 3]

    def test_solvability_violation_exits_2(self, capsys):
        code = main(["solve", "--k", "0", "--tau", "zero", "--case", "equal"])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("tau", ["const:nan", "const:inf", "const:1e400"])
    def test_non_finite_tau_exits_2(self, capsys, tau):
        assert main(["solve", "--level", "0", "--modes", "1", "--tau", tau]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "Traceback" not in err

    def test_numerical_failure_exits_3(self, capsys):
        # more modes than the lowest-order trace space can resolve
        code = main(["solve", "--level", "0", "--k", "0", "--modes", "40"])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_negative_level_exits_2(self, capsys):
        assert main(["solve", "--level", "-1"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_zero_modes_exits_2(self, capsys):
        assert main(["solve", "--modes", "0"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_k4_postprocessing_refused_before_solving(self, capsys, monkeypatch):
        # the flux postprocessing space stops at k = 3
        monkeypatch.setattr("hdgeig.cli.assemble_condensed",
                            lambda *args: pytest.fail("assembled before the check"))
        assert main(["solve", "--k", "4", "--level", "0", "--modes", "1"]) == 2
        assert "flux postprocessing supports k <= 3" in capsys.readouterr().err

    def test_k4_without_postprocessing_runs(self, capsys):
        code = main(["solve", "--k", "4", "--level", "0", "--modes", "2",
                     "--no-postprocess", "--format", "json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["mode"] for r in rows] == [1, 2] and "lambda_star" not in rows[0]

    def test_lshape_first_mode(self, capsys):
        code = main(["solve", "--domain", "lshape", "--level", "1", "--k", "2",
                     "--modes", "1", "--format", "json", "--no-postprocess"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert abs(rows[0]["lambda"] - 9.6397) < 0.05

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "eigs.json"
        code = main(["solve", "--level", "0", "--k", "0", "--modes", "2",
                     "--format", "json", "--output", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        rows = json.loads(out.read_text())
        assert len(rows) == 2

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "eigs.md"
        code = main(["solve", "--level", "0", "--k", "0", "--modes", "2",
                     "--output", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "configuration error: cannot write %s" % out in captured.err

    @pytest.mark.parametrize("command,solver", [
        (["solve", "--level", "0", "--modes", "2"], "hdgeig.cli.solve_level"),
        (["study", "--levels", "0:1", "--modes", "1"], "hdgeig.cli.run_convergence_study"),
        (["oracle-check", "--level", "0", "--modes", "2"], "hdgeig.cli.solve_modes"),
    ])
    def test_missing_output_directory_refused_before_solving(self, tmp_path, capsys,
                                                             monkeypatch, command, solver):
        out = tmp_path / "missing" / "x.md"
        monkeypatch.setattr(solver, lambda *args, **kwargs: pytest.fail("solved first"))
        assert main(command + ["--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "configuration error: cannot write %s" % out in captured.err
        assert not out.parent.exists()


@pytest.mark.parametrize("command,lifts", [
    (["solve", "--level", "1", "--k", "2", "--modes", "6"], 6),
    (["study", "--k", "2", "--levels", "0:1", "--modes", "1,2,4,6"], 12),
])
def test_each_pair_is_lifted_once(capsys, monkeypatch, command, lifts):
    # the residual check lifts each pair's trace, and the recovery and the
    # next level's start read that field from the pair
    calls = []
    for module in [m for name, m in sys.modules.items() if name.startswith("hdgeig.")]:
        lift = getattr(module, "resolvent_lift", None)
        if lift is not None:
            monkeypatch.setattr(module, "resolvent_lift",
                                lambda *args, lift=lift: calls.append(1) or lift(*args))
    assert main(command) == 0
    assert len(calls) == lifts


class TestStudyCommand:
    def test_invalid_range_exits_2(self, capsys):
        assert main(["study", "--levels", "2:1"]) == 2

    def test_k4_postprocessing_refused_before_solving(self, capsys, monkeypatch):
        monkeypatch.setattr("hdgeig.study.assemble_condensed",
                            lambda *args: pytest.fail("assembled before the check"))
        assert main(["study", "--k", "4", "--levels", "0:1", "--modes", "1"]) == 2
        assert "flux postprocessing supports k <= 3" in capsys.readouterr().err

    def test_k4_without_postprocessing_runs(self, capsys):
        code = main(["study", "--k", "4", "--levels", "0:0", "--modes", "1",
                     "--no-postprocess", "--format", "json"])
        assert code == 0
        cell = json.loads(capsys.readouterr().out)["cells"][0]
        assert cell["lam"] == pytest.approx(2.0, rel=1e-3) and not cell["note"]

    def test_small_study_markdown(self, capsys):
        code = main(["study", "--domain", "square", "--k", "1", "--tau", "one",
                     "--levels", "0:1", "--modes", "1"])
        assert code == 0
        text = capsys.readouterr().out
        assert "mode 1 error | order" in text

    def test_bdm_variant_runs(self, capsys):
        code = main(["study", "--case", "case1", "--tau", "zero", "--k", "1",
                     "--levels", "0:1", "--modes", "1", "--format", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0][:3] == ["domain", "case", "tau"]
        assert rows[1][1] == "case1"

    def test_tau_zero_is_the_constant_zero(self, capsys):
        outputs = []
        for tau in ("zero", "const:0"):
            assert main(["study", "--case", "case1", "--tau", tau, "--k", "1",
                         "--levels", "0:1"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_verbose_study_names_each_eigensolve(self, capsys, caplog, systems):
        caplog.set_level("INFO", logger="hdgeig")
        assert main(["study", "--k", "1", "--levels", "0:1", "--modes", "1,2", "-v"]) == 0
        assert main(["study", "--k", "1", "--levels", "2:3", "--modes", "1,2", "-v"]) == 0
        lines = [r.getMessage() for r in caplog.records if "done in" in r.getMessage()]
        assert len(lines) == 4
        # the detail ends with the seconds of the level's stages, which fit
        # in its time
        detail = (r"done in (\d+\.\d\d)s.*modes \d+ operator applications in \d+ block "
                  r"solves \((%s)\), surrogate \d+ in \d+ \(block start, (values|vectors) stop, "
                  r"relative residual \d\.\de-\d\d\), seconds: assembly (\d+\.\d{3}), "
                  r"factorization (\d+\.\d{3}), eigensolves (\d+\.\d{3}), recovery "
                  r"(\d+\.\d{3}), error (\d+\.\d{3})$")
        # a first level above 0 names the coarse run that started it
        coarse = solve_modes(systems("square", 0, 1), 2)[0]
        from_level_0 = ("block start from level 0, %d operator applications in %d solves"
                        % (coarse.iterations, coarse.solves))
        for line, started in zip(lines, ["cold", "block start", from_level_0, "block start"]):
            match = re.search(detail % started, line)
            seconds = [float(match[i]) for i in (1, 4, 5, 6, 7, 8)]
            assert sum(seconds[1:]) <= seconds[0] + 0.01

    def test_verbosity_is_set_on_every_call(self, capsys):
        # logging.basicConfig configures the root logger once per process,
        # so a later call would keep the first call's level and stream
        argv = ["study", "--levels", "0:0", "--modes", "1"]
        outs, errs = [], []
        for flags in ([], ["-v"], [], ["-v"]):
            assert main(argv + flags) == 0
            out, err = capsys.readouterr()
            outs.append(out)
            errs.append(err)
        assert outs[1:] == outs[:1] * 3
        assert errs[0] == errs[2] == ""
        assert all(err.startswith("INFO level 0 done in ") and err.count("\n") == 1
                   for err in errs[1::2])

    def test_verbose_lines_report_peak_rss(self, capsys, caplog, systems):
        assert main(["solve", "--level", "0", "--modes", "2"]) == 0
        quiet = capsys.readouterr().out
        caplog.set_level("INFO", logger="hdgeig")
        assert main(["solve", "--level", "0", "--modes", "2", "-v"]) == 0
        assert capsys.readouterr().out == quiet
        # solve's surrogate run, in the words of the study's level line
        surrogate = [r.getMessage() for r in caplog.records
                     if r.getMessage().startswith("surrogate")]
        assert len(surrogate) == 1 and re.match(
            r"surrogate \d+ operator applications in \d+ block solves \(block start, "
            r"(values|vectors) stop, relative residual \d\.\de-\d\d\)$", surrogate[0])
        assert main(["study", "--levels", "0:0", "--modes", "1", "-v"]) == 0
        lines = [r.getMessage() for r in caplog.records if "peak RSS" in r.getMessage()]
        assert len(lines) == 3  # two solve modes, one study level
        peaks = [float(re.search(r"peak RSS (\d+) MB", line).group(1)) for line in lines]
        assert 0 < peaks[0] <= peaks[1] <= peaks[2]
        # beside it the nonzeros of the LU factors (SuperLU.nnz), of the
        # same square level-0, k = 1 system in all three lines
        nnz = [int(n) for line in lines for n in re.findall(r"MB\W+LU nnz (\d+)", line)]
        assert nnz == [systems("square", 0, 1).factorized().nnz] * 3

    def test_csv_study_parses(self, capsys):
        code = main(["study", "--k", "1", "--levels", "0:1", "--modes", "1,2",
                     "--format", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        idx = rows[0].index("lam_mode1_error")
        errs = [float(r[idx]) for r in rows[1:]]
        assert errs[1] < errs[0]


class TestOracleCommand:
    def test_level0_k0_passes(self, capsys):
        assert main(["oracle-check", "--level", "0", "--k", "0", "--modes", "6"]) == 0
        assert "rel diff" in capsys.readouterr().out

    def test_level2_k1_passes(self, capsys):
        # any level: the oracle applies the solution operator matrix-free
        assert main(["oracle-check", "--level", "2", "--k", "1"]) == 0
        assert "rel diff" in capsys.readouterr().out

    def test_csv_and_json_formats(self, capsys):
        assert main(["oracle-check", "--level", "0", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 6
        assert all(r["condensed"] == pytest.approx(r["oracle"], rel=1e-9) for r in rows)
        assert main(["oracle-check", "--level", "0", "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["mode", "condensed", "oracle", "rel diff"] and len(rows) == 7

    def test_negative_level_exits_2(self, capsys):
        assert main(["oracle-check", "--level", "-1"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_zero_modes_exits_2(self, capsys):
        assert main(["oracle-check", "--level", "0", "--modes", "0"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_verbose_logs_one_line_per_mode(self, capsys, caplog):
        argv = ["oracle-check", "--level", "1", "--k", "1", "--modes", "3"]
        assert main(argv) == 0
        quiet = capsys.readouterr().out
        caplog.set_level("INFO", logger="hdgeig")
        assert main(argv + ["-v"]) == 0
        assert capsys.readouterr().out == quiet
        line = (r"^mode (\d): lambda=(\S+) \((\d+) Newton iterations, search space (\d+), "
                r"(\d+) LU solves, residual (\S+)\), peak RSS (\d+) MB$")
        found = [re.match(line, r.getMessage()) for r in caplog.records]
        found = [m.groups() for m in found if m]
        assert [int(g[0]) for g in found] == [1, 2, 3]
        rows = quiet.splitlines()[2:]
        # the modes share one search space: 3 seeds and a generic direction,
        # then each mode's LU solves grow it, up to its bound, by a direction
        # each; a thick restart can shrink it in between
        before = 3 + 1
        for (index, lam, its, space, solves, residual, peak), row in zip(found, rows):
            assert float(lam) == pytest.approx(float(row.split("|")[2]), rel=1e-11)
            assert int(its) >= 1 and int(space) <= min(before + int(solves), _SPACE_MAX)
            assert 0 < float(residual) <= 1e-9 and int(peak) > 0
            before = int(space)
        assert int(found[0][3]) == 3 + 1 + int(found[0][4])

    def test_one_lanczos_run_gives_the_oracle_column(self, capsys, monkeypatch, systems):
        # the modes run is oracle-check's only Lanczos run: its values are the
        # oracle column, and its Ritz block starts the surrogate run whose
        # seeds give the condensed column
        runs, eigsh = [], scipy.sparse.linalg.eigsh
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh",
                            lambda *args, **kwargs: runs.append(1) or eigsh(*args, **kwargs))
        assert main(["oracle-check", "--level", "1", "--k", "1", "--format", "json"]) == 0
        assert len(runs) == 1
        rows = json.loads(capsys.readouterr().out)
        sys = systems("square", 1, 1)
        assert [r["oracle"] for r in rows] == [p.value for p in solve_modes(sys, 6)]
        assert [r["condensed"] for r in rows] == pytest.approx(
            sorted(p.value for p in newton_pairs(sys, 6)), rel=1e-13)

    def test_tau_h_level1(self):
        assert main(["oracle-check", "--level", "1", "--k", "1", "--tau", "h",
                     "--modes", "4"]) == 0


class TestConfigFile:
    def test_defaults_from_file_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 0\nlevel = 0\nmodes = 2\nformat = json  # comment\n")
        code = main(["--config", str(cfg), "solve"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 2  # file default applied
        code = main(["--config", str(cfg), "solve", "--modes", "1"])
        rows = json.loads(capsys.readouterr().out)
        assert code == 0 and len(rows) == 1  # flag wins

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        # rel_tol was an oracle-check key; the secant tolerance is fixed now.
        # Bad values and a missing file are configuration errors as well
        cfg = tmp_path / "bad.cfg"
        for line in ("flux_capacitor = 1", "rel_tol = 1e-10", "k = two",
                     "postprocess = maybe"):
            cfg.write_text(line + "\n")
            assert main(["--config", str(cfg), "solve"]) == 2
        assert main(["--config", str(tmp_path / "missing.cfg"), "solve"]) == 2
        assert capsys.readouterr().err.count("configuration error") == 5

    def test_bad_choice_exits_2(self, tmp_path, capsys):
        # argparse checks the file's values like flags: choices included
        cfg = tmp_path / "xml.cfg"
        cfg.write_text("format = xml\n")
        for command in ("solve", "study", "oracle-check"):
            assert main(["--config", str(cfg), command]) == 2
        assert capsys.readouterr().err.count("invalid choice: 'xml'") == 3

    def test_keys_a_command_lacks_are_skipped(self, tmp_path, capsys):
        # one file serves every command: study has no --level, oracle-check
        # no --no-postprocess
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("k = 0\nlevel = 0\nlevels = 0:0\nmodes = 1\n"
                       "postprocess = off\nformat = json\n")
        for command in ("solve", "study", "oracle-check"):
            assert main(["--config", str(cfg), command]) == 0
            assert json.loads(capsys.readouterr().out)

    def test_removed_secant_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle-check", "--rel-tol", "1e-10"])
        assert exc.value.code == 2


class TestParserCache:
    """``main`` builds its parser once per process, on its first call."""

    def test_cached_parser_parses_as_a_fresh_one(self, tmp_path):
        from test_public_api import COMMANDS

        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 0\nlevel = 0\nmodes = 2\nformat = json\n")
        runs = COMMANDS + [["--config", str(cfg), "solve", "--modes", "1"]]
        for argv in runs * 2:
            argv = cli._with_config_file(argv)
            fresh = cli._build_parser.__wrapped__().parse_args(argv)
            assert cli._build_parser().parse_args(argv) == fresh, argv
        assert cli._build_parser() is cli._build_parser()

    def test_argument_errors_still_exit_2_with_usage(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["solve", "--k", "one"])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: hdg-eig solve") and "invalid int value" in err

    def test_built_on_the_first_call_not_at_import(self):
        script = ("import hdgeig.cli as cli; n = cli._build_parser.cache_info().currsize; "
                  "cli.main(['solve', '--level', '0', '--modes', '1', '--no-postprocess']); "
                  "print(n, cli._build_parser.cache_info().currsize)")
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": str(
                                  Path(__file__).resolve().parents[1] / "src")})
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "0 1"


class TestBenchHooks:
    def test_traced_cli_runs(self):
        # perfbench/spans.py wraps hdgeig functions by name in the modules
        # that call them; a rename there must fail here, not in the bench
        root = Path(__file__).resolve().parents[1]
        script = textwrap.dedent("""
            import json, sys
            sys.path[:0] = [%r, %r]
            import spans
            import hdgeig.cli
            tracer = spans.Tracer()
            spans.instrument(tracer)
            codes = [hdgeig.cli.main(argv) for argv in (
                ["study", "--k", "1", "--levels", "0:0"],
                ["oracle-check", "--level", "0"],
            )]
            print(json.dumps({"codes": codes, "layers": tracer.metrics(0)}))
        """ % (str(root / "src"), str(root / "perfbench")))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        out = json.loads(done.stdout.splitlines()[-1])
        assert out["codes"] == [0, 0]
        layers = out["layers"]
        assert all(layers[name + ".failed"] == 0 for name in
                   ("mesh", "assembly", "eigensolve", "recovery", "study", "cli"))
        # the study's surrogate run and oracle-check's are timed, and each
        # command makes one Lanczos run, its modes run
        assert layers["eigensolve.surrogate_s"] > 0 and layers["eigensolve.nonlinear_s"] > 0
        assert layers["eigensolve.eigsh_calls"] == 2
        # the level-0 oracle-check: 20 Newton iterations (34 with the old
        # secant update)
        assert 0 < layers["eigensolve.nonlinear_iters"] <= 24
        assert layers["eigensolve.eigh_calls"] == 0
        # one factorization per command: oracle-check reuses its system
        assert layers["assembly.factorizations"] == 2
