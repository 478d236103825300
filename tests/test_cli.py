import csv
import io
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from hdgeig.cli import main, parse_levels, parse_modes, parse_tau
from hdgeig.errors import ConfigError
from hdgeig.localsolve import TauSpec


class TestParsers:
    def test_tau_spellings(self):
        assert parse_tau("one") == TauSpec.one()
        assert parse_tau("h") == TauSpec.global_h()
        assert parse_tau("invh") == TauSpec.inverse_global_h()
        assert parse_tau("zero") == TauSpec.zero()
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

    def test_solvability_violation_exits_2(self, capsys):
        code = main(["solve", "--k", "0", "--tau", "zero", "--case", "equal"])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

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


class TestStudyCommand:
    def test_invalid_range_exits_2(self, capsys):
        assert main(["study", "--levels", "2:1"]) == 2

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

    def test_removed_secant_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle-check", "--rel-tol", "1e-10"])
        assert exc.value.code == 2


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
        assert layers["eigensolve.oracle_columns"] > 0
        assert layers["eigensolve.nonlinear_iters"] > 0
        assert layers["eigensolve.eigh_calls"] == 0
        # one factorization per command: oracle-check reuses its system
        assert layers["assembly.factorizations"] == 2
