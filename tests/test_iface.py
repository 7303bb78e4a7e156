"""Model file format and command line."""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

import treedim.iface
from support import structural_signature
from treedim import InvalidModelError, ModelParseError, parse_model, rank, run
from treedim.iface import serialize_model

FIXTURES = Path(__file__).parent / "fixtures"


class TestParseModel:
    def test_reference_file_dimensions(self):
        model = parse_model((FIXTURES / "m1.model").read_text())
        assert len(model.variables) == 9
        by_name = {v.name: v for v in model.variables}
        assert by_name["X1"].latent
        assert by_name["Y4"].observed

    def test_round_trip_identity(self):
        for path in sorted(FIXTURES.glob("*.model")):
            model = parse_model(path.read_text())
            assert parse_model(serialize_model(model)) == model

    def test_zero_cardinality_reports_line(self):
        with pytest.raises(ModelParseError, match="line 1: cardinality must be >= 1"):
            parse_model("var A 0 observed\n")

    def test_edge_before_declaration(self):
        with pytest.raises(ModelParseError, match="unknown variable A"):
            parse_model("edge A B\nvar A 2 observed\nvar B 2 observed\n")

    def test_duplicate_name_reports_line(self):
        text = "var A 2 observed\nvar A 3 latent\n"
        with pytest.raises(ModelParseError, match="line 2: duplicate"):
            parse_model(text)

    def test_bad_flag(self):
        with pytest.raises(ModelParseError, match="observed"):
            parse_model("var A 2 hidden\n")

    def test_bad_directive(self):
        with pytest.raises(ModelParseError, match="unknown directive"):
            parse_model("node A 2 observed\n")

    def test_malformed_var_line(self):
        with pytest.raises(ModelParseError, match="expected: var"):
            parse_model("var A 2\n")

    def test_comments_and_blanks_ignored(self):
        text = "\n# a comment\nvar A 2 observed  # trailing\n\n"
        model = parse_model(text)
        assert len(model.variables) == 1

    def test_structural_problems_surface(self):
        with pytest.raises(InvalidModelError, match="disconnected"):
            parse_model("var A 2 observed\nvar B 2 observed\n")

    def test_non_integer_cardinality(self):
        with pytest.raises(ModelParseError, match="integer"):
            parse_model("var A x observed\n")


class TestCli:
    def test_fixture_outputs_match_golden_files(self, capsys):
        # Each .expected file holds the output of the two commands below.
        fixtures = sorted(FIXTURES.glob("*.model"))
        assert len(fixtures) == 8
        for path in fixtures:
            report = ["dims", str(path), "--report", "--seed", "7", "--trials", "3"]
            assert run(report) == 0
            assert run(["regularize", str(path)]) == 0
            expected = path.with_suffix(".expected").read_text()
            assert capsys.readouterr().out == expected, path.name

    def test_dims_plain(self, capsys):
        code = run(["dims", str(FIXTURES / "m1.model")])
        out = capsys.readouterr().out
        assert code == 0
        assert "ds=45" in out
        assert "de=43" in out

    def test_dims_report_contains_components(self, capsys):
        code = run(
            ["dims", str(FIXTURES / "m1.model"), "--report", "--seed", "7"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "component.0.latent=X1" in out
        assert "component.0.neighbors=3,3" in out
        assert "component.1.de=23" in out
        assert "correction.latent_edge.0=5" in out
        assert "seed=7" in out
        assert "trials=3" in out

    def test_dims_report_deterministic(self, capsys):
        args = ["dims", str(FIXTURES / "spine.model"), "--report", "--seed", "7"]
        assert run(args) == 0
        first = capsys.readouterr().out
        assert run(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_dims_oracle_agreement(self, capsys):
        code = run(["dims", str(FIXTURES / "m2.model"), "--oracle", "--trials", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "oracle_de=44" in out

    def test_dims_oracle_parameter_limit_exit_code(self, capsys, tmp_path):
        lines = [f"var Y{i} 16 observed" for i in range(3)]  # 495 parameters
        lines += [f"edge Y{i} Y{i + 1}" for i in range(2)]
        big = tmp_path / "big.model"
        big.write_text("\n".join(lines) + "\n")
        code = run(["dims", str(big), "--oracle"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "495 parameters (limit 256)" in err

    def test_dims_oracle_mismatch_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(
            treedim.iface, "oracle_effective_dimension", lambda *a, **k: 999
        )
        code = run(["dims", str(FIXTURES / "single.model"), "--oracle"])
        err = capsys.readouterr().err
        assert code == 3
        assert "disagree" in err

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.model"
        bad.write_text("var A 0 observed\n")
        assert run(["dims", str(bad)]) == 1
        assert "cardinality" in capsys.readouterr().err

    def test_non_utf8_file_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.model"
        bad.write_bytes(b"var A 2 observed\n\xff\n")
        assert run(["dims", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 2: not UTF-8 text (byte 0xff)\n"

    def test_missing_file_exit_code(self, capsys):
        assert run(["dims", "no-such-file.model"]) == 1
        assert "error" in capsys.readouterr().err

    def test_usage_error_exit_code(self, capsys):
        m1 = str(FIXTURES / "m1.model")
        for args in [
            ["dims"],
            ["dims", m1, "--trials", "0"],
            ["dims", m1, "--trials", "-2"],
            ["dims", m1, "--trials", "x"],
            ["score", m1, "--loglik", "-10", "--n", "0"],
            ["score", m1, "--loglik", "-10", "--n", "9", "--de", "-1"],
            ["score", m1, "--loglik", "nan", "--n", "9"],
            ["score", m1, "--loglik", "-inf", "--n", "9"],
        ]:
            assert run(args) == 1, args
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_row_limit_exit_code(self, capsys, monkeypatch, tmp_path):
        model = tmp_path / "strassen.model"
        model.write_text(
            "var H 4 latent\n"
            + "".join(f"var X{i} 3 observed\nedge H X{i}\n" for i in range(3))
        )
        monkeypatch.setattr(rank, "ROW_LIMIT", 20)
        score = ["score", str(model), "--loglik", "-5", "--n", "9"]
        for args in [["dims", str(model)], score]:
            assert run(args) == 4, args
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert "cardinality 4 over neighbor cardinalities (3, 3, 3)" in captured.err

    def test_component_beyond_the_row_limit_fails_fast(self, capsys, tmp_path):
        # 4 * 10**8 joint states; the first prefix alone would need 79,997 rows.
        model = tmp_path / "wide.model"
        model.write_text(
            "var H 2 latent\nvar A 20000 observed\nvar B 20000 observed\n"
            "edge H A\nedge H B\n"
        )
        assert run(["dims", str(model)]) == 4
        assert "needs 79997 rows > 65536" in capsys.readouterr().err

    def test_row_limit_is_checked_before_any_draw(self, capsys, monkeypatch, tmp_path):
        # A 10**40-state leaf: its point alone would be 2 * 10**40 draws.
        model = tmp_path / "huge.model"
        model.write_text(
            "var H 2 latent\n"
            + "".join(
                f"var {name} {card} observed\nedge H {name}\n"
                for name, card in [("A", 10**40), ("B", 2), ("C", 2)]
            )
        )

        def no_draw(component, rng):
            raise AssertionError("a parameter point was drawn")

        monkeypatch.setattr(rank, "sample_lc_point", no_draw)
        score = ["score", str(model), "--loglik", "-5", "--n", "9"]
        for args in [["dims", str(model)], score]:
            assert run(args) == 4, args
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert f"needs {2 * 10**40 + 3} rows > 65536" in captured.err

    def test_wide_latent_class_components(self, capsys, monkeypatch, tmp_path):
        def lc_file(leaves):
            path = tmp_path / f"lc{leaves}.model"
            path.write_text(
                "var H 2 latent\n"
                + "".join(f"var Y{i} 2 observed\nedge H Y{i}\n" for i in range(leaves))
            )
            return str(path)

        # 80 binary leaves: b = 161 strided rows reach the rank at once.
        start = time.perf_counter()
        assert run(["dims", lc_file(80)]) == 0
        assert capsys.readouterr().out == "ds=161\nde=161\n"
        assert time.perf_counter() - start < 5.0

        def no_draw(component, rng):
            raise AssertionError("a parameter point was drawn")

        # 1,100 binary leaves: a first prefix of 2,201 x 2,201 cells.
        monkeypatch.setattr(rank, "sample_lc_point", no_draw)
        wide = lc_file(1100)
        score = ["score", wide, "--loglik", "-5", "--n", "9"]
        for args in [["dims", wide], ["dims", wide, "--report"], score]:
            assert run(args) == 4, args
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert "needs 2201 x 2201 cells > 262144" in captured.err

    def test_dimension_past_the_digit_limit(self, capsys, tmp_path):
        # ds = de = 10**8000 - 1, past the digits str() of an int allows.
        model = tmp_path / "pair.model"
        model.write_text(
            f"var A {10**4000} observed\nvar B {10**4000} observed\nedge A B\n"
        )
        limit = sys.get_int_max_str_digits()
        for extra in [[], ["--report"], ["--oracle"], ["--report", "--oracle"]]:
            assert run(["dims", str(model), *extra]) == 1, extra
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: ds has more than {limit} digits to print\n"

    def test_score_beyond_float_range(self, capsys, tmp_path):
        # ds = de = 10**400 - 1: both scores are computed before any output.
        model = tmp_path / "pair.model"
        model.write_text(
            f"var A {10**200} observed\nvar B {10**200} observed\nedge A B\n"
        )
        assert run(["score", str(model), "--loglik", "-5", "--n", "9"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: score out of float range: int too large to convert to float\n"
        )

    def test_score_with_computed_dimension(self, capsys):
        code = run(
            [
                "score",
                str(FIXTURES / "chain.model"),
                "--loglik",
                "-100.0",
                "--n",
                "10000",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "ds=5" in out
        assert "de=5" in out
        assert "bic=" in out and "bice=" in out

    def test_score_with_supplied_dimension(self, capsys):
        code = run(
            [
                "score",
                str(FIXTURES / "m1.model"),
                "--loglik",
                "-8000",
                "--n",
                "10000",
                "--de",
                "43",
            ]
        )
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        values = dict(line.split("=", 1) for line in out)
        assert values["ds"] == "45"
        assert values["de"] == "43"
        assert float(values["bic"]) < float(values["bice"])

    def test_score_dimension_above_the_standard_dimension_rejected(
        self, capsys, tmp_path
    ):
        model = tmp_path / "pair.model"
        model.write_text("var A 2 observed\nvar B 3 observed\nedge A B\n")
        score = ["score", str(model), "--loglik", "-5", "--n", "9", "--de"]
        assert run(score + ["50"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --de 50 exceeds the standard dimension 5\n"
        assert run(score + ["5"]) == 0
        assert capsys.readouterr().out.startswith("ds=5\nde=5\n")

    def test_regularize_output_parses_to_collapsed_structure(self, capsys):
        code = run(["regularize", str(FIXTURES / "m1prime.model")])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("# remove:X1:join=X2-X3")
        produced = parse_model(out)
        reference = parse_model((FIXTURES / "m2.model").read_text())
        assert structural_signature(produced) == structural_signature(reference)

    def test_regularize_no_changes(self, capsys):
        code = run(["regularize", str(FIXTURES / "m2.model")])
        out = capsys.readouterr().out
        assert code == 0
        assert "# no changes" in out

    def test_hub_report_prunes_and_cuts(self, capsys):
        code = run(["dims", str(FIXTURES / "hub.model"), "--report"])
        out = capsys.readouterr().out
        assert code == 0
        assert "pruned=D" in out
        assert "correction.observed_cut.0=2" in out
