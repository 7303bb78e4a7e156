"""Model file format and command line."""

from __future__ import annotations

import itertools
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import treedim.iface
from support import structural_signature
from treedim import InvalidModelError, ModelParseError, parse_model, rank, run
from treedim.iface import serialize_model
from treedim.rank import MAX_TRIALS

FIXTURES = Path(__file__).parent / "fixtures"
LONG = "x" * 5000
DIGITS = "9" * 5001
M1 = str(FIXTURES / "m1.model")
TWO_VARS = "var A 2 observed\nvar B 2 observed\n"
SCORE = ["score", M1, "--loglik", "-5", "--n", "9", "--de", "43"]
# A one-state latent over three binary leaves: ds = de = 3, with no draw.
ONE_STATE = "var Z 1 latent\n" + "".join(
    f"var Y{i} 2 observed\nedge Z Y{i}\n" for i in range(3)
)


def _no_draw(*args):
    raise AssertionError("a parameter point was drawn")


class TestParseModel:
    def test_reference_file_dimensions(self):
        model = parse_model((FIXTURES / "m1.model").read_text())
        assert len(model.variables) == 9
        by_name = {v.name: v for v in model.variables}
        assert not by_name["X1"].observed
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

    @pytest.mark.parametrize(
        "text,message",
        [
            (
                "var A 2\n",
                "line 1: expected: var <name> <cardinality> <observed|latent>",
            ),
            (f"{TWO_VARS}edge A\n", "line 3: expected: edge <name1> <name2>"),
            (f"{TWO_VARS}edge A B C\n", "line 3: expected: edge <name1> <name2>"),
        ],
        ids=["var", "edge-short", "edge-long"],
    )
    def test_malformed_line(self, text, message):
        with pytest.raises(ModelParseError, match=f"^{re.escape(message)}$"):
            parse_model(text)

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


CLOSED_STDOUT = "error: stdout closed before the output was written\n"


def _child_env():
    """The environment of a child interpreter that imports this ``treedim``."""
    src = str(Path(treedim.iface.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def _main_into_a_closed_pipe(argv):
    """Run ``treedim.iface.main`` in a child whose stdout is a pipe with
    its read end closed before the spawn, so every write to stdout fails
    with EPIPE: no race with a reader."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    main = "from treedim.iface import main; main()"
    try:
        return subprocess.run(
            [sys.executable, "-c", main, *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=_child_env(),
            timeout=60,
        )
    finally:
        os.close(write_end)


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

    def test_python_dash_m_treedim_runs_the_command_line(self):
        def module(*argv):
            argv = [sys.executable, "-m", "treedim", *argv]
            root = FIXTURES.parents[1]
            return subprocess.run(
                argv, cwd=root, capture_output=True, env=_child_env(), timeout=60
            )

        m1 = "tests/fixtures/m1.model"
        report = module("dims", m1, "--report", "--seed", "7", "--trials", "3")
        regular = module("regularize", m1)
        assert (report.returncode, regular.returncode) == (0, 0)
        assert report.stdout + regular.stdout == (FIXTURES / "m1.expected").read_bytes()
        missing = module("dims", "tests/fixtures/missing.model")
        assert (missing.returncode, missing.stdout) == (1, b"")
        (line,) = missing.stderr.decode().splitlines()
        assert line.startswith("error: ")

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

    def test_dims_oracle_cell_limit_exit_code(self, capsys, tmp_path):
        # Four observed 16-state variables in a chain: k = ds = 735 rows over
        # the point's 784 entries.
        lines = [f"var Y{i} 16 observed" for i in range(4)]
        lines += [f"edge Y{i} Y{i + 1}" for i in range(3)]
        big = tmp_path / "big.model"
        big.write_text("\n".join(lines) + "\n")
        code = run(["dims", str(big), "--oracle"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "ds=735\nde=735\n"
        assert captured.err == "error: oracle needs 735 x 784 cells > 262144\n"

    def test_dims_oracle_mismatch_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(
            treedim.iface, "oracle_effective_dimension", lambda *a, **k: 999
        )
        code = run(["dims", str(FIXTURES / "single.model"), "--oracle"])
        err = capsys.readouterr().err
        assert code == 3
        assert "disagree" in err

    def test_cardinality_past_the_digit_limit(self, capsys, tmp_path):
        # int() refuses a decimal token longer than the limit: the message
        # names the limit instead of calling it no integer and echoing it.
        limit = sys.get_int_max_str_digits()
        bad = tmp_path / "bad.model"
        bad.write_text(f"var A {'9' * 5000} observed\n")
        assert run(["dims", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: line 1: cardinality has more than {limit} digits\n"
        )

    @pytest.mark.parametrize("sign", ["-", "+"])
    def test_signed_cardinality_past_the_digit_limit(self, sign, capsys, tmp_path):
        # int() takes one sign, so a signed decimal past the limit is refused
        # for its length too: same message as unsigned, not "must be an integer".
        limit = sys.get_int_max_str_digits()
        bad = tmp_path / "bad.model"
        bad.write_text(f"var A {sign}{'9' * 5000} observed\n")
        assert run(["dims", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: line 1: cardinality has more than {limit} digits\n"
        )
        # Two signs are no integer at any length.
        bad.write_text(f"var A {sign}{sign}{'9' * 5000} observed\n")
        assert run(["dims", str(bad)]) == 1
        assert "cardinality must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, start",
        [
            (f"var A {LONG} observed\n", "line 1: cardinality must be an integer"),
            (f"var A -{LONG} observed\n", "line 1: cardinality must be an integer"),
            (f"var A 2 {LONG}\n", "line 1: flag must be 'observed' or 'latent'"),
            (f"{LONG} A\n", "line 1: unknown directive 'xxx"),
            (f"var A 2 observed\nedge A {LONG}\n", "line 2: unknown variable xxx"),
            (f"var {LONG} 2 observed\n" * 2, "line 2: duplicate variable name"),
        ],
        ids=["non-decimal", "signed", "flag", "directive", "variable", "duplicate"],
    )
    def test_a_long_token_is_cut(self, text, start, capsys, tmp_path):
        # A 5,000-character token is not echoed whole: one short line.
        bad = tmp_path / "bad.model"
        bad.write_text(text)
        assert run(["dims", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {start}")
        assert captured.err.endswith("...\n") and captured.err.count("\n") == 1
        assert len(captured.err) < 200

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.model"
        bad.write_text("var A 0 observed\n")
        assert run(["dims", str(bad)]) == 1
        assert "cardinality" in capsys.readouterr().err

    def test_non_utf8_file_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.model"
        # A byte-order mark is dropped before decoding, so the byte still counts.
        for bom in (b"", b"\xef\xbb\xbf"):
            bad.write_bytes(bom + b"var A 2 observed\nvar B 2 \xfe\xff\n")
            assert run(["dims", str(bad)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: line 2: not UTF-8 text (byte 0xfe)\n"

    def test_byte_order_mark_is_dropped(self, capsys, tmp_path):
        # A file saved with a UTF-8 byte-order mark reads as the file without.
        for path in sorted(FIXTURES.glob("*.model")):
            marked = tmp_path / path.name
            marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
            for name, *flags in (["dims", "--report"], ["regularize"]):
                outputs = []
                for model in (path, marked):
                    code = run([name, str(model), *flags])
                    outputs.append((code, capsys.readouterr()))
                assert outputs[0] == outputs[1], (path.name, name)
                assert outputs[0][0] == 0

    def test_missing_file_exit_code(self, capsys):
        assert run(["dims", "no-such-file.model"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("path", ["a\x00b.model", "a\ud800b.model"])
    @pytest.mark.parametrize(
        "command", [["dims"], ["score", "--loglik", "-5", "--n", "9"], ["regularize"]]
    )
    def test_an_unusable_model_path_is_one_error_line(self, command, path, capsys):
        # Path.read_bytes raises ValueError on a NUL or a lone surrogate; a
        # shell passes neither, but an API caller of run can.
        name, *flags = command
        assert run([name, path, *flags]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot read {path!r}: ")
        assert err.count("\n") == 1

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

    def test_trials_past_the_cap_end_in_one_error_line_at_once(self, capsys, tmp_path):
        # 10**20 trials ran m1 until it was killed and ended the one-state
        # model in an OverflowError from (bound,) * trials.
        one_state = tmp_path / "one_state.model"
        one_state.write_text(ONE_STATE)
        huge = str(10**20)
        for args in [
            ["dims", M1, "--trials", huge],
            ["dims", M1, "--oracle", "--trials", huge],
            ["dims", str(one_state), "--trials", huge],
            ["dims", str(one_state), "--report", "--trials", str(MAX_TRIALS + 1)],
            ["dims", str(tmp_path / "missing.model"), "--trials", huge],  # no read
        ]:
            start = time.perf_counter()
            assert run(args) == 1, args
            assert time.perf_counter() - start < 1.0, args
            captured = capsys.readouterr()
            assert captured.out == ""
            message = f"argument --trials: trials must be <= {MAX_TRIALS}"
            assert captured.err == f"error: {message}\n"

    def test_the_largest_allowed_trials_runs(self, capsys, tmp_path):
        one_state = tmp_path / "one_state.model"
        one_state.write_text(ONE_STATE)
        for flags in (["--report"], ["--oracle"]):
            args = ["dims", str(one_state), *flags, "--trials", str(MAX_TRIALS)]
            assert run(args) == 0
            out = capsys.readouterr().out
            assert out.startswith("ds=3\nde=3\n")
            assert f"trials={MAX_TRIALS}\n" in out or "oracle_de=3\n" in out

    def test_loglik_in_any_float_syntax(self, capsys):
        # argparse reads a negative number with an exponent as an option name.
        m1 = str(FIXTURES / "m1.model")
        expected = None
        for value in ("-15000", "-1.5e4", "-1.5E+04", "-15e3", "-.15e5"):
            for loglik in (
                ["--loglik", value],
                [f"--loglik={value}"],
                ["--logl", value],  # argparse takes a prefix of an option name
            ):
                args = ["score", m1, "--n", "100", *loglik, "--de", "43"]
                assert run(args) == 0, args
                captured = capsys.readouterr()
                assert captured.err == ""
                expected = expected or captured.out
                assert captured.out == expected, args
        assert "bic=-15103.6" in expected
        for value in ("-inf", "nan", "-Infinity", "1e999"):
            assert run(["score", m1, "--n", "100", "--loglik", value]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            message = f"argument --loglik: must be finite, got {value}"
            assert captured.err == f"error: {message}\n"
        assert run(["score", m1, "--n", "100", "--loglik"]) == 1
        assert "expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, start",
        [
            (["dims", M1, "--seed", DIGITS], "argument --seed: invalid int value"),
            (["dims", M1, "--trials", DIGITS], "argument --trials: invalid integer"),
            ([*SCORE, "--n", DIGITS], "argument --n: invalid integer '999"),
            ([*SCORE, "--loglik", DIGITS], "argument --loglik: must be finite"),
            ([*SCORE, "--de", DIGITS], "argument --de: invalid integer '999"),
            (["dims", M1, f"--bogus{DIGITS}"], "unrecognized arguments: --bogus999"),
            (["dims", DIGITS], "[Errno "),
        ],
        ids=["seed", "trials", "n", "loglik", "de", "bogus", "path"],
    )
    def test_a_long_flag_value_is_cut(self, args, start, capsys):
        # A 5,001-digit token is not echoed whole, whatever message echoes it.
        assert run(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {start}")
        assert captured.err.endswith("...\n") and captured.err.count("\n") == 1
        assert len(captured.err) < 200

    @pytest.mark.parametrize(
        "args, end",
        [
            (["dims", M1, "x\ny"], "unrecognized arguments: x\\ny"),
            (["dims", M1, "x\r\ny\r"], "unrecognized arguments: x\\ny\\n"),
            ([*SCORE, "--loglik", "inf\n"], "must be finite, got inf\\n"),
            ([*SCORE, "--loglik", "\n-inf"], "must be finite, got \\n-inf"),
        ],
        ids=["argument", "crlf", "loglik-after", "loglik-before"],
    )
    def test_a_line_break_in_a_message_is_escaped(self, args, end, capsys):
        # float() strips whitespace, but the message echoes the raw token:
        # each line break in it prints as \n, on the one error: line.
        assert run(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.endswith(f"{end}\n")
        assert len(captured.err.splitlines()) == 1

    def test_positive_loglik_is_one_warning_line(self, monkeypatch, capsys):
        # API callers, run included, get ScoreInput's UserWarning; main, as
        # a user runs it, prints it as one warning: line.
        args = ["score", M1, "--n", "3", "--loglik", "5"]
        message = "positive log-likelihood is impossible for discrete data"
        with pytest.warns(UserWarning, match=message):
            assert run(args) == 0
        expected = capsys.readouterr().out
        monkeypatch.setattr(sys, "argv", ["treedim", *args])
        with pytest.raises(SystemExit) as exit_info:
            treedim.iface.main()
        assert exit_info.value.code == 0
        captured = capsys.readouterr()
        assert captured.out == expected and expected.startswith("ds=45\nde=43\n")
        assert captured.err == f"warning: {message}\n"

    def test_cell_limit_exit_code(self, capsys, monkeypatch, tmp_path):
        model = tmp_path / "strassen.model"
        model.write_text(
            "var H 4 latent\n"
            + "".join(f"var X{i} 3 observed\nedge H X{i}\n" for i in range(3))
        )
        # b = 26 functionals by n = 27 parameters: 702 cells.  No theorem
        # settles the component (Strassen: its rank is 25), and the refusal
        # comes before any draw.
        monkeypatch.setattr(rank, "CELL_LIMIT", 701)
        monkeypatch.setattr(rank, "field_draws", _no_draw)
        score = ["score", str(model), "--loglik", "-5", "--n", "9"]
        for args in [["dims", str(model)], score]:
            assert run(args) == 4, args
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "error: rank of latent cardinality 4 over 3 neighbors of "
                "cardinalities {3} needs 26 x 27 cells > 701\n"
            )

    def test_component_beyond_the_cell_limit_fails_fast(self, capsys, tmp_path):
        # c = 39,998 over three 20,000-state leaves, which no theorem here
        # settles: 8 * 10**12 joint states; b = n = 2,399,800,003.
        model = tmp_path / "wide.model"
        model.write_text(
            "var H 39998 latent\n"
            + "".join(f"var {v} 20000 observed\nedge H {v}\n" for v in "ABC")
        )
        start = time.perf_counter()
        assert run(["dims", str(model)]) == 4
        assert time.perf_counter() - start < 1.0
        assert "{20000} needs 2399800003 x 2399800003 cells > 262144" in (
            capsys.readouterr().err
        )

    def test_cell_limit_is_checked_before_any_draw(self, capsys, monkeypatch, tmp_path):
        # A 10**40-state leaf: its point alone would be 3 * 10**40 draws.
        # Three classes over it and two binary leaves are not certified.
        model = tmp_path / "huge.model"
        model.write_text(
            "var H 3 latent\n"
            + "".join(
                f"var {name} {card} observed\nedge H {name}\n"
                for name, card in [("A", 10**40), ("B", 2), ("C", 2)]
            )
        )
        monkeypatch.setattr(rank, "field_draws", _no_draw)
        score = ["score", str(model), "--loglik", "-5", "--n", "9"]
        # b = n = 3 * 10**40 + 5.
        for args in [["dims", str(model)], score]:
            assert run(args) == 4, args
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "error: rank of latent cardinality 3 over 3 neighbors of "
                "cardinalities {2, 1.0e40} needs 3.0e40 x 3.0e40 cells > 262144\n"
            )

    def test_certified_components_past_the_cell_limit_answer_without_a_draw(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(rank, "field_draws", _no_draw)
        model = tmp_path / "certified.model"
        cases = [
            # Two neighbors: m = 2, 2 * (40,000 - 2) - 1.
            (2, (20_000, 20_000), 79_997, 79_995),
            # Kruskal: three groups of one leaf each, 2 + 2 + 2 >= 6.
            (2, (10**40, 2, 2), 2 * 10**40 + 3, 2 * 10**40 + 3),
        ]
        for card, leaves, ds, de in cases:
            model.write_text(
                f"var H {card} latent\n"
                + "".join(
                    f"var Y{i} {k} observed\nedge H Y{i}\n"
                    for i, k in enumerate(leaves)
                )
            )
            assert run(["dims", str(model)]) == 0
            assert capsys.readouterr().out == f"ds={ds}\nde={de}\n"
        # Kruskal again, but ds = de = 3 * 10**8000 + ... is too long to print.
        card = 10**4000
        model.write_text(
            f"var H {card} latent\n"
            + "".join(f"var Y{i} {card} observed\nedge H Y{i}\n" for i in range(3))
        )
        assert run(["dims", str(model)]) == 1
        err = capsys.readouterr().err
        assert err == "error: ds has more than 4300 digits to print\n"

    def test_cell_limit_message_past_the_digit_limit(self, capsys, tmp_path):
        # n = 6 * 10**8000 - ..., past the 4,300 digits str() of an int allows.
        # 2k - 2 classes over three k-state leaves are not certified.
        card = 10**4000
        model = tmp_path / "huge.model"
        model.write_text(
            f"var H {2 * card - 2} latent\n"
            + "".join(f"var Y{i} {card} observed\nedge H Y{i}\n" for i in range(3))
        )
        score = ["score", str(model), "--loglik", "-5", "--n", "9"]
        for args in [["dims", str(model)], score]:
            assert run(args) == 4, args
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "error: rank of latent cardinality 2.0e4000 over 3 neighbors of "
                "cardinalities {1.0e4000} needs 6.0e8000 x 6.0e8000 cells > 262144\n"
            )

    def test_cell_limit_message_rounds_into_the_next_decade(self, capsys, tmp_path):
        # b = n = 10**13 - 2: a mantissa of 9.99... is printed as 1.0e13.
        # Three classes over two binary leaves and a third are not certified.
        model = tmp_path / "wide.model"
        model.write_text(
            "var H 3 latent\n"
            + "".join(
                f"var {name} {card} observed\nedge H {name}\n"
                for name, card in [("A", 2), ("B", 2), ("C", 3_333_333_333_331)]
            )
        )
        assert run(["dims", str(model)]) == 4
        assert capsys.readouterr().err == (
            "error: rank of latent cardinality 3 over 3 neighbors of "
            "cardinalities {2, 3.3e12} needs 1.0e13 x 1.0e13 cells > 262144\n"
        )

    def test_hub_of_huge_leaves_is_settled_fast(self, capsys, tmp_path):
        # A binary latent over 1,000 leaves of 10**1000 states: no bound, nor
        # the certificate that settles it, multiplies out every cardinality.
        hub = tmp_path / "hub.model"
        leaves = range(1000)
        hub.write_text(
            "var Z 2 latent\n"
            + "".join(f"var Y{i} {10**1000} observed\nedge Z Y{i}\n" for i in leaves)
        )
        ds = 1 + 2 * 1000 * (10**1000 - 1)
        for argv, code in [
            (["dims", str(hub)], 0),
            (["score", str(hub), "--loglik", "-10", "--n", "100"], 1),
            (["regularize", str(hub)], 0),
        ]:
            start = time.perf_counter()
            assert run(argv) == code, argv
            assert time.perf_counter() - start < 1.0, argv
            captured = capsys.readouterr()
            if argv[0] == "dims":
                assert captured.out == f"ds={ds}\nde={ds}\n"
            elif code:  # ds = de, about 2 * 10**1003, is past float range
                assert captured.out == ""
                assert captured.err.startswith("error: score out of float range")
            else:
                assert captured.out.startswith("# no changes\nvar Z 2 latent\n")

    def test_wide_latent_class_components(self, capsys, monkeypatch, tmp_path):
        def lc_file(leaves):
            path = tmp_path / f"lc{leaves}.model"
            path.write_text(
                "var H 2 latent\n"
                + "".join(f"var Y{i} 2 observed\nedge H Y{i}\n" for i in range(leaves))
            )
            return str(path)

        # Two classes over L binary leaves are certified: ds = de = 2L + 1,
        # without a draw, though 1,100 leaves need 2,201 x 2,201 cells.
        monkeypatch.setattr(rank, "field_draws", _no_draw)
        for leaves in (80, 1100):
            start = time.perf_counter()
            assert run(["dims", lc_file(leaves)]) == 0
            dims = f"ds={2 * leaves + 1}\nde={2 * leaves + 1}\n"
            assert capsys.readouterr().out == dims
            assert time.perf_counter() - start < 1.0
        wide = lc_file(1100)
        assert run(["dims", wide, "--report"]) == 0
        assert "\nde=2201\n" in capsys.readouterr().out
        assert run(["score", wide, "--loglik", "-5", "--n", "9"]) == 0
        assert capsys.readouterr().out.startswith("ds=2201\nde=2201\nbic=")

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

    def test_report_value_past_the_digit_limit(self, capsys, tmp_path):
        # r = 6 * 10**(limit - 1): ds = r + 2 and de print, but the cut
        # correction 2 * (r - 1) at O has one digit more than the limit.
        limit = sys.get_int_max_str_digits()
        r = 6 * 10 ** (limit - 1)
        model = tmp_path / "cut.model"
        model.write_text(
            f"var O {r} observed\n"
            + "".join(
                f"var L{i} 1 latent\nvar Y{i} 2 observed\nedge O L{i}\nedge L{i} Y{i}\n"
                for i in range(1, 4)
            )
        )
        assert run(["dims", str(model)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines() == [f"ds={r + 2}", f"de={r + 2}"]
        assert run(["dims", str(model), "--report"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: a report value has more than {limit} digits to print\n"
        )

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

    @pytest.mark.parametrize(
        "args",
        [
            ["dims", "m1.model", "--report"],
            ["score", "m1.model", "--loglik", "-5", "--n", "9"],
            ["regularize", "hub.model"],
        ],
    )
    def test_closed_stdout_exit_code(self, args):
        command, model, *flags = args
        done = _main_into_a_closed_pipe([command, str(FIXTURES / model), *flags])
        assert done.returncode == 1
        assert done.stderr == CLOSED_STDOUT

    def test_closed_stdout_keeps_the_oracle_limit_code(self, tmp_path):
        # Four observed 16-state variables in a chain: 735 x 784 cells, over
        # the oracle's limit.  Its code 2 wins over the closed stdout's 1.
        lines = [f"var Y{i} 16 observed" for i in range(4)]
        lines += [f"edge Y{i} Y{i + 1}" for i in range(3)]
        big = tmp_path / "chain.model"
        big.write_text("\n".join(lines) + "\n")
        done = _main_into_a_closed_pipe(["dims", str(big), "--oracle"])
        assert done.returncode == 2
        first, second = done.stderr.splitlines(keepends=True)
        assert first == "error: oracle needs 735 x 784 cells > 262144\n"
        assert second == CLOSED_STDOUT

    @pytest.mark.parametrize(
        "argv, usage",
        [(["--help"], "usage: treedim [-h]"), (["dims", "--help"], "usage: treedim dims")],
    )
    def test_main_prints_help_and_exits_0(self, argv, usage, monkeypatch, capsys):
        # argparse prints the help to the held stdout and exits from inside
        # run; main must still write it out.
        monkeypatch.setattr(sys, "argv", ["treedim", *argv])
        with pytest.raises(SystemExit) as exit_info:
            treedim.iface.main()
        assert exit_info.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(usage)
        assert captured.err == ""

    def test_main_writes_what_was_printed_before_an_exception(
        self, monkeypatch, capsys
    ):
        def failing(argv):
            print("partial")
            raise RuntimeError("boom")

        monkeypatch.setattr(treedim.iface, "run", failing)
        with pytest.raises(RuntimeError, match="boom"):
            treedim.iface.main()
        assert capsys.readouterr().out == "partial\n"

    def test_hub_report_prunes_and_cuts(self, capsys):
        code = run(["dims", str(FIXTURES / "hub.model"), "--report"])
        out = capsys.readouterr().out
        assert code == 0
        assert "pruned=D" in out
        assert "correction.observed_cut.0=2" in out

    def test_report_lists_regularization_steps_as_regularize_prints_them(
        self, capsys, tmp_path
    ):
        # V1 is an observed internal node; its latent neighbors V0 and V2 lie
        # in different pieces, so a piece-by-piece log would list V0, V3, V2.
        path = tmp_path / "cut.model"
        path.write_text(
            "var V0 3 latent\nvar V1 3 observed\nvar V2 3 latent\n"
            "var V3 3 latent\nvar V4 1 observed\nvar V5 2 observed\n"
            "edge V0 V1\nedge V0 V3\nedge V1 V2\nedge V2 V5\nedge V3 V4\n"
        )
        steps = ["remove:V0:join=V1-V3", "remove:V2:join=V1-V5", "remove:V3:join=V1-V4"]
        assert run(["dims", str(path), "--report"]) == 0
        assert f"regularized={';'.join(steps)}\n" in capsys.readouterr().out
        assert run(["regularize", str(path)]) == 0
        out = capsys.readouterr().out
        assert [line[2:] for line in out.splitlines() if line.startswith("#")] == steps


class TestCliFuzz:
    CARDS = (1, 2, 3, 7, 300, 10**6, 10**40, 10**400)
    COMMANDS = (
        ["dims"],
        ["dims", "--report"],
        ["dims", "--oracle"],
        ["score", "--loglik", "-5", "--n", "9"],
        ["regularize"],
    )
    # About 2 s on average over seeds: most runs take milliseconds, but about
    # one in two hundred ranks a component of some 300 parameters in 1-2 s.
    RUNS = 300

    def test_random_models_end_in_a_documented_exit_code(self, capsys, tmp_path):
        rng = random.Random(0)
        path = tmp_path / "fuzz.model"
        codes = set()
        for _ in range(self.RUNS):
            n = rng.randint(1, 9)
            lines = [
                f"var V{v} {rng.choice(self.CARDS)} "
                + rng.choice(("observed", "latent"))
                for v in range(n)
            ]
            lines += [f"edge V{rng.randrange(v)} V{v}" for v in range(1, n)]
            path.write_text("\n".join(lines) + "\n")
            command, *flags = rng.choice(self.COMMANDS)
            code = run([command, str(path), *flags])
            err = capsys.readouterr().err
            assert code in range(5), (lines, command, flags)
            if code:
                assert err.startswith("error: ") and err.count("\n") == 1, err
            codes.add(code)
        assert codes == {0, 1, 2, 4}

    # Invalid values only.  Each ends in exit 1 after one short error: line.
    BAD = {
        "--seed": ("x", "1.5", "0x10", DIGITS),
        "--trials": ("0", "-3", "x", "2.5", str(MAX_TRIALS + 1), "9" * 4000, DIGITS),
        "--n": ("0", "-1", "x", "1e3", DIGITS),
        "--loglik": ("inf", "-inf", "nan", "x", "1e999", DIGITS),
        "--de": ("-1", "x", "46", DIGITS),
        "--bogus": ("", "x", DIGITS),
        "path": ("no-such.model", "", ".", DIGITS),
    }
    BREAKS = (" ", "\t", "\n", "\r", "\r\n", "\x0b", "\x85", "\u2028")

    def test_huge_trials_on_one_state_models_end_in_one_error_line(
        self, capsys, tmp_path
    ):
        # A one-state latent ranks without a draw, so nothing but the cap
        # stops a huge --trials there.
        rng = random.Random(1)
        path = tmp_path / "one_state.model"
        for _ in range(40):
            leaves = rng.randint(1, 6)
            text = "var Z 1 latent\n" + "".join(
                f"var Y{i} {rng.choice(self.CARDS)} observed\nedge Z Y{i}\n"
                for i in range(leaves)
            )
            path.write_text(text)
            command, *flags = rng.choice(self.COMMANDS[:3])
            trials = str(rng.choice((MAX_TRIALS + 1, 10**9, 10**20, 10**4000)))
            start = time.perf_counter()
            assert run([command, str(path), *flags, "--trials", trials]) == 1
            assert time.perf_counter() - start < 1.0, text
            captured = capsys.readouterr()
            assert captured.out == ""
            message = f"argument --trials: trials must be <= {MAX_TRIALS}"
            assert captured.err == f"error: {message}\n"

    def test_malformed_flag_values_end_in_one_error_line(self, capsys):
        rng = random.Random(0)
        for flag, cores in self.BAD.items():
            for core, space in itertools.product(cores, ("", *self.BREAKS)):
                at = rng.choice((0, len(core), rng.randint(0, len(core))))
                token = core[:at] + space + core[at:]
                if flag in SCORE:
                    i = SCORE.index(flag) + 1
                    args = [*SCORE[:i], token, *SCORE[i + 1 :]]
                elif flag == "--bogus":
                    args = ["dims", M1, f"--bogus{token}"]
                elif flag == "path":
                    args = [rng.choice(("dims", "regularize")), token]
                else:
                    args = ["dims", M1, flag, token]
                code = run(args)
                captured = capsys.readouterr()
                assert code == 1, args
                assert captured.out == ""
                err = captured.err
                assert err.startswith("error: ") and err.endswith("\n"), args
                assert len(err.splitlines()) == 1 and len(err) < 200, args
