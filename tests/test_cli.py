import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from colsel import x3c
from colsel.cli import format_matrix, main, parse_matrix, parse_matrix_text
from colsel.errors import ParseError
from colsel.matrixkit import DenseMatrix


def run_cli(capsys, monkeypatch, args, stdin=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMatrixIO:
    def test_parse_identity(self):
        m = parse_matrix_text("1,0\n0,1\n")
        np.testing.assert_array_equal(m.array, np.eye(2))

    def test_csv_roundtrip_bit_exact(self):
        rng = np.random.default_rng(0)
        m = DenseMatrix(rng.standard_normal((4, 3)))
        again = parse_matrix_text(format_matrix(m, "csv"), "csv")
        assert np.array_equal(again.array, m.array)

    def test_json_roundtrip_bit_exact(self):
        rng = np.random.default_rng(1)
        m = DenseMatrix(rng.standard_normal((3, 5)))
        again = parse_matrix_text(format_matrix(m, "json"), "json")
        assert np.array_equal(again.array, m.array)

    def test_ragged_rows_rejected_with_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_matrix_text("1,2\n3\n")

    def test_non_numeric_rejected_with_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_matrix_text("1,x\n")

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_matrix_text("\n\n")

    def test_json_shape_mismatch(self):
        with pytest.raises(ParseError):
            parse_matrix_text('{"rows": 2, "cols": 2, "data": [1, 2, 3]}', "json")

    @pytest.mark.parametrize("text", [
        '{"rows": 1, "cols": 1, "data": ["x"]}',
        '{"rows": 1, "cols": 2, "data": [1, [2]]}',
        '{"rows": -1, "cols": -1, "data": [1]}',
        '{"rows": true, "cols": 1, "data": [2]}',
        '{"rows": 1, "cols": 2, "data": ["1.5", "2"]}',
        '{"rows": 1, "cols": 2, "data": [true, 2]}',
        "not json",
        '{"rows": 1, "cols": 1}',
        pytest.param('{"rows": 1, "cols": 1, "data": [1' + '0' * 400 + ']}',
                     id="integer-beyond-float64"),
    ])
    def test_malformed_json_matrix_is_parse_error(self, text):
        with pytest.raises(ParseError, match="line 1"):
            parse_matrix_text(text, "json")

    def test_parse_matrix_from_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("2,0\n0,2\n")
        m = parse_matrix(str(path))
        np.testing.assert_array_equal(m.array, 2 * np.eye(2))

    # float()'s grammar, token class by token class: underscores, surrounding
    # whitespace, inf/nan spellings (which DenseMatrix then rejects), Unicode
    # digits, exponents past float64 range, and the tokens float() rejects
    @pytest.mark.parametrize("token", [
        "1_0", "1_000.5", " 1 ", "\t-1\r", "\xa01\u2003", "inf", "-Infinity", "iNfInItY", "nan",
        "+NaN", "\u0661\u0662", "\uff11\uff12", "\u0661.\u0665", "1e5", "1E-5", ".5", "5.",
        "1e400", "1e-400", "4.9e-324", "1.7976931348623157e308",
        "1__0", "1e+", "", " ", "1\x00", "\x001", "0x10", "_1", "1_", "1 2", "abc", "\u200b1",
    ], ids=repr)
    def test_csv_tokens_parse_as_float_parses_them(self, token):
        # the reader converts each line with one numpy call; one float() call
        # per token is the reference, with the reader's messages and lines
        text = f"1,2\n\n3,{token}\n"

        def by_float():
            rows = []
            for lineno, line in enumerate(text.splitlines(), start=1):
                if line.strip():
                    try:
                        rows.append([float(tok) for tok in line.split(",")])
                    except ValueError:
                        raise ParseError(f"non-numeric entry in {line!r}", line=lineno) from None
            return DenseMatrix(rows)

        def outcome(parse):
            try:
                return parse().array.tobytes()
            except Exception as exc:
                return type(exc), str(exc)

        assert outcome(lambda: parse_matrix_text(text)) == outcome(by_float)


class TestEvalCommand:
    def test_identity_volume(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["eval", "--criterion", "volume"], "1,0,0\n0,1,0\n0,0,1\n")
        assert code == 0
        assert out == "1.0\n"

    def test_input_flag_reads_the_file_not_stdin(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("3,0\n0,2\n")
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["eval", "--criterion", "vol", "--input", str(path)], "not a matrix")
        assert (code, out) == (0, "6.0\n")

    def test_unknown_criterion_is_usage_error(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, monkeypatch,
                               ["eval", "--criterion", "sparsity"], "1,0\n0,1\n")
        assert code == 2
        assert "error" in err

    def test_p_beside_a_p_suffix_is_usage_error(self, capsys, monkeypatch):
        # this printed the p = 3 value and exited 0, as if --p were not given
        code, out, err = run_cli(capsys, monkeypatch,
                                 ["eval", "--criterion", "cond:p=3", "--p", "4"], "2,1\n0,1\n1,3\n")
        assert (code, out) == (2, "")
        assert "criterion 'cond:p=3' gives p by its suffix" in err

    def test_parse_error_exit_code(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, monkeypatch,
                               ["eval", "--criterion", "vol"], "1,2\n3\n")
        assert code == 2
        assert "line 2" in err

    def test_bad_p_is_usage_error(self, capsys, monkeypatch):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(capsys, monkeypatch, ["eval", "--criterion", "norm", "--p", "bogus"], "1,0\n0,1\n")
        assert exit_info.value.code == 2
        assert "bad Schatten parameter 'bogus'" in capsys.readouterr().err

    def test_p_reads_inf_in_any_case(self, capsys, monkeypatch):
        upper = run_cli(capsys, monkeypatch, ["eval", "--criterion", "norm", "--p", "INF"], "1,2\n3,4\n")
        lower = run_cli(capsys, monkeypatch, ["eval", "--criterion", "norm", "--p", "inf"], "1,2\n3,4\n")
        assert upper[0] == 0
        assert upper == lower


class TestGadgetCommand:
    def test_eval_scaled_volume(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["gadget", "--shared", "1", "--eval", "rvol"])
        assert code == 0
        assert abs(float(out) - 1 / math.sqrt(2)) <= 1e-12

    def test_matrix_payload_parses_back(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, ["gadget", "--shared", "2"])
        assert code == 0
        m = parse_matrix_text(out)
        assert (m.rows, m.cols) == (4, 2)


class TestPipelines:
    def test_generate_reduce_decide(self, capsys, monkeypatch):
        code, inst_text, _ = run_cli(capsys, monkeypatch,
                                     ["x3c", "gen-true", "--m", "2", "--extra", "1",
                                      "--seed", "7"])
        assert code == 0
        code, matrix_text, _ = run_cli(capsys, monkeypatch, ["x3c", "reduce"], inst_text)
        assert code == 0
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["decide", "--criterion", "rvol", "--k", "2", "--b", "1"],
                               matrix_text)
        assert code == 0
        assert "answer=yes" in out

    def test_decide_no_on_false_instance(self, capsys, monkeypatch):
        _, inst_text, _ = run_cli(capsys, monkeypatch,
                                  ["x3c", "gen-false", "--m", "2", "--n", "4", "--seed", "3"])
        _, matrix_text, _ = run_cli(capsys, monkeypatch, ["x3c", "reduce"], inst_text)
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["decide", "--criterion", "rvol", "--k", "2", "--b", "1"],
                               matrix_text)
        assert code == 1
        assert "answer=no" in out and "witness=none" in out

    def test_decide_no_when_no_subset_is_feasible(self, capsys, monkeypatch):
        # every 2-subset is rank-deficient, which rvol rejects: no subset
        # crosses b, as for vol, whose rank-deficient subsets score 0
        for criterion in ("rvol", "vol"):
            code, out, err = run_cli(capsys, monkeypatch,
                                     ["decide", "--criterion", criterion, "--k", "2", "--b", "0.5"],
                                     "1,1\n1,1\n")
            assert code == 1 and err == ""
            assert out == f"criterion={criterion} k=2 b=0.5 answer=no witness=none\n"

    @pytest.mark.parametrize("criterion, entry, b", [("vol", "1e-6", "1e-10"),
                                                     ("pinv-norm-two", "1e12", "1e-13")])
    def test_decide_slack_is_relative_to_the_threshold(self, capsys, monkeypatch, criterion,
                                                       entry, b):
        # vol 1e-18 is far below b = 1e-10, and pinv-norm-two 1e-12 far above
        # b = 1e-13: an absolute slack of 1e-9 answered yes to both
        text = "".join(",".join(entry if i == j else "0" for j in range(3)) + "\n"
                       for i in range(3))
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["decide", "--criterion", criterion, "--k", "3", "--b", b], text)
        assert code == 1
        assert out == f"criterion={criterion} k=3 b={b} answer=no witness=none\n"

    def test_solve_exit_codes(self, capsys, monkeypatch):
        _, inst_text, _ = run_cli(capsys, monkeypatch,
                                  ["x3c", "gen-true", "--m", "2", "--extra", "2", "--seed", "1"])
        code, out, _ = run_cli(capsys, monkeypatch, ["x3c", "solve"], inst_text)
        assert code == 0 and out.startswith("cover=")
        _, false_text, _ = run_cli(capsys, monkeypatch,
                                   ["x3c", "gen-false", "--m", "2", "--n", "3", "--seed", "5"])
        code, out, _ = run_cli(capsys, monkeypatch, ["x3c", "solve"], false_text)
        assert code == 1 and out == "cover=none\n"

    def test_verify_command(self, capsys, monkeypatch):
        _, inst_text, _ = run_cli(capsys, monkeypatch,
                                  ["x3c", "gen-false", "--m", "2", "--n", "4", "--seed", "2"])
        code, out, _ = run_cli(capsys, monkeypatch, ["x3c", "verify"], inst_text)
        assert code == 0
        assert out == "solvable=no agreement=yes\n"

    def test_gap_command(self, capsys, monkeypatch):
        _, inst_text, _ = run_cli(capsys, monkeypatch,
                                  ["x3c", "gen-false", "--m", "2", "--n", "4", "--seed", "3"])
        code, out, _ = run_cli(capsys, monkeypatch, ["gap"], inst_text)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 12
        assert all("holds=yes" in line for line in lines)
        assert any("alt_threshold=" in line for line in lines)

    def test_gap_json(self, capsys, monkeypatch):
        _, inst_text, _ = run_cli(capsys, monkeypatch,
                                  ["x3c", "gen-false", "--m", "2", "--n", "4", "--seed", "3"])
        code, out, _ = run_cli(capsys, monkeypatch, ["gap", "--format", "json"], inst_text)
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 12 and all(row["holds"] for row in rows)

    def test_reduce_roundtrips_bit_exact(self, capsys, monkeypatch):
        _, inst_text, _ = run_cli(capsys, monkeypatch,
                                  ["x3c", "gen-true", "--m", "3", "--extra", "3", "--seed", "4"])
        _, matrix_text, _ = run_cli(capsys, monkeypatch, ["x3c", "reduce"], inst_text)
        m = parse_matrix_text(matrix_text)
        assert format_matrix(m, "csv") == matrix_text


class TestSelectCommand:
    def test_exact_report(self, capsys, monkeypatch):
        code, out, err = run_cli(capsys, monkeypatch,
                                 ["select", "--method", "exact", "--criterion", "vol",
                                  "--k", "2"], "1,0,0\n0,1,0\n0,0,1\n")
        assert code == 0
        assert "criterion=vol" in out and "subset=0,1" in out
        assert "subsets_evaluated=3" in out
        assert "elapsed" in err and "elapsed" not in out

    @pytest.mark.parametrize("given, canonical", [
        ("cond:p=inf", "cond-two"), ("cond-two", "cond-two"),
        ("cond:p=2", "cond-frobenius"), ("cond-frobenius", "cond-frobenius"),
        ("cond-mixed:p=2", "cond-mixed"), ("cond-mixed", "cond-mixed"),
    ])
    def test_one_printed_name_per_criterion(self, capsys, monkeypatch, given, canonical):
        stdin = "1,0,0.5\n0,1,0.25\n0,0,1\n"
        code, out, _ = run_cli(capsys, monkeypatch, ["select", "--method", "exact",
                                                     "--criterion", given, "--k", "2"], stdin)
        assert code == 0
        assert out.startswith(f"criterion={canonical} ")
        _, expected, _ = run_cli(capsys, monkeypatch, ["select", "--method", "exact",
                                                       "--criterion", canonical, "--k", "2"], stdin)
        assert out == expected

    def test_greedy_frobenius(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["select", "--method", "greedy-frobenius", "--k", "2"],
                               "3,0,0\n0,1,0\n0,0,2\n")
        assert code == 0
        assert "subset=1,2" in out

    @pytest.mark.parametrize("method", ["exact", "greedy"])
    def test_exact_and_greedy_need_a_criterion(self, capsys, monkeypatch, method):
        code, out, err = run_cli(capsys, monkeypatch, ["select", "--method", method, "--k", "1"],
                                 "1,0\n0,1\n")
        assert (code, out, err) == (2, "", "error: a --criterion id is required\n")

    def test_local_swap_seeded(self, capsys, monkeypatch):
        stdin = "1,0,0.70710678118654757\n0,1,0.70710678118654757\n"
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["select", "--method", "local-swap", "--k", "2",
                                "--seed", "5"], stdin)
        assert code == 0
        assert "method=local_swap" in out

    def test_json_report(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["select", "--method", "exact", "--criterion", "norm-two",
                                "--k", "1", "--format", "json"],
                               json.dumps({"rows": 2, "cols": 2, "data": [3.0, 0.0, 0.0, 1.0]}))
        assert code == 0
        report = json.loads(out)
        assert report["subset"] == [1] and report["value"] == 1.0

    @pytest.mark.parametrize("method, flags", [
        ("exact", ["--threads", "1"]),
        ("local-swap", ["--seed", "0", "--max-sweeps", "100"]),
    ])
    def test_flags_at_their_defaults_change_nothing(self, capsys, monkeypatch, method, flags):
        text = "3,1,0,2\n1,4,1,0\n0,2,5,1\n"
        base = ["select", "--method", method, "--k", "2"]
        if method == "exact":
            base += ["--criterion", "vol"]
        implicit = run_cli(capsys, monkeypatch, base, text)
        explicit = run_cli(capsys, monkeypatch, base + flags, text)
        assert implicit[0] == explicit[0] == 0 and implicit[1] == explicit[1]

    def test_local_swap_starts_from_greedy_where_the_draws_fail(self, capsys, monkeypatch):
        # seed 0's six draws are all rank-deficient; this exited 2
        code, out, _ = run_cli(capsys, monkeypatch, ["select", "--method", "local-swap", "--k", "2"],
                               "1,0,0\n0,1,0\n")
        assert code == 0
        assert out == "criterion=vol method=local_swap value=1.0 subset=0,1 subsets_evaluated=13\n"

    def test_greedy_dead_end_names_the_columns_chosen_so_far(self, capsys, monkeypatch):
        # cond-two's first step ties all three columns at 1.0 and takes the
        # smallest index, 0, whose every extension is rank-deficient at this
        # scale; exact search finds 1,2
        stdin = "1e-200,1,0\n1e-200,0,1\n"
        args = ["select", "--criterion", "cond-two", "--k", "2", "--method"]
        code, out, err = run_cli(capsys, monkeypatch, args + ["greedy"], stdin)
        assert code == 2 and out == ""
        assert err == ("error: every extension of the columns chosen so far (0) is rank-deficient "
                       "for criterion 'cond-two'; greedy takes the smallest column index among "
                       "equal values\n")
        code, out, _ = run_cli(capsys, monkeypatch, args + ["exact"], stdin)
        assert (code, out) == (0, "criterion=cond-two method=exact value=1.0 subset=1,2 "
                                  "subsets_evaluated=3\n")


class TestDeterminism:
    def test_reports_byte_identical(self, capsys, monkeypatch):
        stdin = format_matrix(DenseMatrix(np.random.default_rng(7).standard_normal((6, 9))))
        args = ["select", "--method", "exact", "--criterion", "rvol", "--k", "3"]
        _, first, _ = run_cli(capsys, monkeypatch, args, stdin)
        _, second, _ = run_cli(capsys, monkeypatch, args, stdin)
        assert first == second

    def test_thread_flag_does_not_change_report(self, capsys, monkeypatch):
        stdin = format_matrix(DenseMatrix(np.random.default_rng(8).standard_normal((7, 11))))
        base = ["select", "--method", "exact", "--criterion", "cond-two", "--k", "3"]
        _, single, _ = run_cli(capsys, monkeypatch, base + ["--threads", "1"], stdin)
        _, many, _ = run_cli(capsys, monkeypatch, base + ["--threads", "8"], stdin)
        assert single == many

    def test_generator_output_deterministic(self, capsys, monkeypatch):
        args = ["x3c", "gen-true", "--m", "3", "--extra", "4", "--seed", "42"]
        _, first, _ = run_cli(capsys, monkeypatch, args)
        _, second, _ = run_cli(capsys, monkeypatch, args)
        assert first == second


class TestLemmasCommand:
    def test_text_report(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, ["lemmas", "--trials", "8"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 16
        assert all("failures=0" in line for line in lines)
        assert lines[0].startswith("lemma=e_inter")

    def test_json_report(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["lemmas", "--trials", "5", "--format", "json"])
        assert code == 0
        rows = json.loads(out)
        assert {row["lemma"] for row in rows} == {
            "e_inter", "e_mean", "e_sc", "e_srk", "l_cond", "l_fi", "l_inter",
            "l_inter2", "l_norm", "l_pi0", "l_pi1", "l_pinv", "l_srank", "l_vol",
            "lem:orth", "r_schattenp",
        }


class TestOutputFile:
    def test_output_flag_writes_file(self, capsys, monkeypatch, tmp_path):
        target = tmp_path / "g.csv"
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["gadget", "--shared", "1", "--output", str(target)])
        assert code == 0 and out == ""
        m = parse_matrix(str(target))
        assert (m.rows, m.cols) == (5, 2)


class TestUsageErrors:
    @pytest.mark.parametrize("args", [
        ["x3c", "solve", "--threads", "2"],
        ["x3c", "reduce", "--threads", "2"],
        ["x3c", "gen-true", "--m", "2", "--input", "a.txt"],
        ["x3c", "gen-false", "--m", "2", "--n", "4", "--format", "json"],
        ["x3c", "verify", "--format", "json"],
        ["gadget", "--shared", "1", "--input", "a.csv"],
        ["lemmas", "--input", "a.txt"],
        ["select", "--k", "2", "--threads", "0"],
        ["gap", "--threads", "two"],
        # a negative count used to run zero sweeps and exit 0
        ["select", "--method", "local-swap", "--k", "2", "--max-sweeps", "-1"],
    ])
    def test_flag_not_read_or_bad_thread_count_exits_2(self, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("method, flags, unread", [
        pytest.param("local-swap", ["--criterion", "rvol"], "--criterion", id="local-swap-rvol"),
        pytest.param("greedy-frobenius", ["--criterion", "vol"], "--criterion",
                     id="greedy-frobenius-vol"),
        # every other flag a method does not read, even at its default value
        pytest.param("exact", ["--criterion", "vol", "--seed", "9"], "--seed", id="exact-seed"),
        pytest.param("exact", ["--criterion", "vol", "--max-sweeps", "3"], "--max-sweeps",
                     id="exact-max-sweeps"),
        pytest.param("greedy", ["--criterion", "vol", "--threads", "2"], "--threads",
                     id="greedy-threads"),
        pytest.param("greedy", ["--criterion", "vol", "--allow-large"], "--allow-large",
                     id="greedy-allow-large"),
        pytest.param("greedy", ["--criterion", "vol", "--seed", "0"], "--seed", id="greedy-seed"),
        pytest.param("greedy-frobenius", ["--p", "3"], "--p", id="greedy-frobenius-p"),
        pytest.param("greedy-frobenius", ["--max-sweeps", "100"], "--max-sweeps",
                     id="greedy-frobenius-max-sweeps"),
        pytest.param("local-swap", ["--threads", "2"], "--threads", id="local-swap-threads"),
        pytest.param("local-swap", ["--allow-large"], "--allow-large", id="local-swap-allow-large"),
        pytest.param("local-swap", ["--p", "3"], "--p", id="local-swap-p"),
    ])
    def test_criterion_for_a_method_that_ignores_it_exits_2(self, capsys, monkeypatch,
                                                            method, flags, unread):
        # local swap always maximizes vol, greedy-frobenius always minimizes
        # the Frobenius norm; both used to drop the flag and exit 0, and so did
        # every method with any other flag it does not read
        code, out, err = run_cli(capsys, monkeypatch,
                                 ["select", "--method", method, *flags, "--k", "2"],
                                 "1,0,0\n0,1,0\n0,0,1\n")
        assert code == 2 and out == ""
        assert err == f"error: {unread} is not read by --method {method}\n"

    def test_enumeration_beyond_int64_ranks_exits_2(self, capsys, monkeypatch):
        # C(70, 35) > 2**63 subsets: this ran without end and without output
        code, out, err = run_cli(capsys, monkeypatch,
                                 ["select", "--k", "35", "--criterion", "vol", "--allow-large"],
                                 ",".join(["1"] * 70) + "\n")
        assert code == 2 and out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("args, stdin", [
        # numpy's generator raised a ValueError traceback and exited 1, which
        # for lemmas means a lemma failed
        (["select", "--method", "local-swap", "--k", "1", "--seed", "-1"], "1,0,2\n0,1,3\n"),
        (["lemmas", "--seed", "-1", "--trials", "1"], ""),
        # C(30, 15) = 155,117,520 subsets, hours of enumeration
        (["select", "--k", "15", "--criterion", "vol"], ",".join(["1"] * 30) + "\n"),
        # M = 9 with 27 sets: C(27, 9) = 4,686,825 subsets
        (["x3c", "verify"], "9 27\n" + "".join(f"{i + 1} {(i + 1) % 27 + 1} {(i + 2) % 27 + 1}\n"
                                               for i in range(27))),
    ], ids=("local-swap-seed", "lemmas-seed", "select-over-budget", "verify-over-budget"))
    def test_negative_seed_or_over_budget_search_exits_2(self, capsys, monkeypatch, args, stdin):
        code, out, err = run_cli(capsys, monkeypatch, args, stdin)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("args, stdin", [
        (["x3c", "gen-true", "--m", "0", "--extra", "1"], ""),
        (["x3c", "gen-true", "--m", "2", "--extra", "-1"], ""),
        (["x3c", "gen-false", "--m", "3", "--n", "1"], ""),
        (["x3c", "gen-false", "--m", "2", "--n", "21"], ""),
        # more than C(3M - 1, 3) triples always hold a cover: this spent all
        # 10,000 draws (about 20 s at M = 3, n = 84) before it failed
        (["x3c", "gen-false", "--m", "2", "--n", "11"], ""),
        (["x3c", "gen-false", "--m", "3", "--n", "84"], ""),
        (["gap"], "4 4\n1 2 3\n4 5 6\n1 2 4\n3 5 6\n"),
        (["x3c", "solve"], "0 1\n1 2 3\n"),
        (["x3c", "solve"], "3 x\n"),
        (["x3c", "solve"], "2 2\n1 2 3\n"),
        (["x3c", "solve"], "1 1\n1 2 4\n"),
    ], ids=("gen-true-m-0", "gen-true-extra-negative", "gen-false-n-1", "gen-false-over-capacity",
            "gen-false-2-11", "gen-false-3-84", "gap-rank-deficient", "instance-m-0",
            "header-not-integer", "missing-set-line", "element-outside-ground"))
    def test_x3c_input_errors_exit_2(self, capsys, monkeypatch, args, stdin):
        code, out, err = run_cli(capsys, monkeypatch, args, stdin)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_false_generation_out_of_draws_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(x3c, "_FALSE_DRAW_BUDGET", 3)
        monkeypatch.setattr(x3c, "solve_exact", lambda instance: (0, 1))
        code, out, err = run_cli(capsys, monkeypatch, ["x3c", "gen-false", "--m", "2", "--n", "4"])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "3 draws" in err

    def test_generators_reject_a_negative_seed(self, capsys, monkeypatch):
        # random.Random takes a negative seed as its absolute value, so -5
        # printed seed 5's instance
        for argv in (["x3c", "gen-true", "--m", "2", "--extra", "1", "--seed", "-5"],
                     ["x3c", "gen-false", "--m", "3", "--n", "6", "--seed", "-5"]):
            code, out, err = run_cli(capsys, monkeypatch, argv)
            assert (code, out, err) == (2, "", "error: need seed >= 0, got -5\n")

    def test_malformed_json_matrix_exits_2(self, capsys, monkeypatch):
        code, out, err = run_cli(capsys, monkeypatch,
                                 ["eval", "--criterion", "vol", "--format", "json"],
                                 '{"rows": 1, "cols": 1, "data": ["x"]}')
        assert code == 2 and out == ""
        assert err.startswith("error: line 1:")


def _csv(a) -> str:
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in a)


def _kv(out: str) -> dict:
    return dict(item.split("=", 1) for item in out.split())


class TestUniformScale:
    """Exact search scores at A's unit scale: a uniform scale of A changes no
    witness, a value past float64 range is an error that names it, and no
    floating-point warning is raised on the way."""

    ORTHOGONAL_1E300 = "1e300,1e300\n1e300,-1e300\n"

    def run(self, capsys, monkeypatch, args, stdin):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return run_cli(capsys, monkeypatch, ["select", "--method", "exact", *args], stdin)

    def test_scale_free_value_of_orthogonal_columns_at_1e300(self, capsys, monkeypatch):
        # sopt printed value=0.0 here: the product of the sigmas overflowed
        code, out, _ = self.run(capsys, monkeypatch, ["--k", "2", "--criterion", "sopt"],
                                self.ORTHOGONAL_1E300)
        report = _kv(out)
        assert code == 0 and report["subset"] == "0,1"
        assert abs(float(report["value"]) - 1.0) <= 1e-12

    def test_frobenius_residual_at_1e300(self, capsys, monkeypatch):
        # the squares of the residual overflowed: exit 2, or a traceback
        # under -W error
        code, out, _ = self.run(capsys, monkeypatch, ["--k", "1", "--criterion", "res-frobenius"],
                                self.ORTHOGONAL_1E300)
        value = float(_kv(out)["value"])
        assert code == 0
        assert abs(value - math.sqrt(2.0) * 1e300) <= 1e-12 * value

    def test_overflowing_volume_names_the_unscaled_witness(self, capsys, monkeypatch):
        a = np.random.default_rng(3).standard_normal((12, 20))
        args = ["--k", "6", "--criterion", "vol"]
        code, out, _ = self.run(capsys, monkeypatch, args, _csv(a))
        assert code == 0
        witness = _kv(out)["subset"]
        code, out, err = self.run(capsys, monkeypatch, args, _csv(a * 1e100))
        assert code == 2 and out == ""
        assert err == (f"error: criterion 'vol': the value of optimal subset {witness} "
                       "overflows float64\n")

    def test_volume_past_float64_names_the_larger_column(self, capsys, monkeypatch):
        # column 0's norm, about 2.4e308, overflowed in the column norms and
        # the SVD; column 1 won with 2.236
        code, out, err = self.run(capsys, monkeypatch, ["--k", "1", "--criterion", "vol"],
                                  "1.7e308,1.0\n1.7e308,2.0\n")
        assert code == 2 and out == ""
        assert "optimal subset 0 overflows float64" in err

    @pytest.mark.parametrize("method", (["greedy", "--criterion", "vol"], ["local-swap"]))
    def test_heuristics_name_the_larger_column_too(self, capsys, monkeypatch, method):
        # both printed subset=1 value=2.23606797749979 and exited 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, monkeypatch, ["select", "--method", *method, "--k", "1"],
                                     "1.7e308,1.0\n1.7e308,2.0\n")
        assert code == 2 and out == ""
        assert err == "error: criterion 'vol': the value of optimal subset 0 overflows float64\n"


def test_module_run_prints_no_runtime_warning():
    """``python -m colsel.cli`` must not find colsel.cli already imported by
    the package, which runpy reports as a RuntimeWarning."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "colsel.cli", "lemmas", "--trials", "1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
