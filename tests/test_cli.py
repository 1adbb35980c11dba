from __future__ import annotations

import json
import subprocess
import sys
from math import comb

import pytest

from tpscaffold import (
    BorderSide,
    Matrix,
    format_matrix,
    is_totally_positive,
    parse_matrix,
    recover_border_params,
)
from tpscaffold.cli import (
    EXIT_MALFORMED,
    EXIT_NOT_TP,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_USAGE,
    main,
)

X23_TEXT = "2 3\n8 7/2 1\n1 1/2 1\n"
T23_TEXT = "2 3\n1 3 1\n1 1/2 1\n"
X33_TEXT = "3 3\n6 3 1\n3 2 1\n1 1 1\n"
NOT_TP_TEXT = "2 2\n1 2\n2 1\n"

# The all-ones 13x13 Gamma scaffolding and its matrix, whose entries count
# the lattice paths: more than 10^6 of them end at entry (1, 1).
ONES13 = Matrix([[1] * 13] * 13)
PASCAL13 = Matrix([[comb(26 - i - j, 13 - i) for j in range(1, 14)] for i in range(1, 14)])


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestCheck:
    def test_tp_verdict(self, tmp_path, capsys):
        assert main(["check", write(tmp_path, "x.txt", X33_TEXT)]) == EXIT_OK
        assert capsys.readouterr().out == "TP\n"

    def test_not_tp_verdict(self, tmp_path, capsys):
        assert main(["check", write(tmp_path, "x.txt", NOT_TP_TEXT)]) == EXIT_NOT_TP
        out = capsys.readouterr().out
        assert out.startswith("NOT TP: minor")

    def test_fast_mode_agrees(self, tmp_path, capsys):
        path = write(tmp_path, "x.txt", X33_TEXT)
        assert main(["check", "--fast", path]) == EXIT_OK
        bad = write(tmp_path, "bad.txt", NOT_TP_TEXT)
        assert main(["check", "--fast", bad]) == EXIT_NOT_TP
        assert "NOT TP" in capsys.readouterr().out

    def test_oversize_requires_force(self, tmp_path, capsys):
        from tpscaffold import Orientation, matrix_from_scaffold

        big = matrix_from_scaffold(Matrix([[1] * 9] * 9), Orientation.GAMMA)
        path = write(tmp_path, "big.txt", format_matrix(big))
        assert main(["check", path]) == EXIT_PRECONDITION
        assert main(["check", "--fast", path]) == EXIT_OK
        capsys.readouterr()

    def test_integer_of_any_length(self, tmp_path, capsys):
        limit = sys.get_int_max_str_digits()
        path = write(tmp_path, "x.txt", "1 1\n" + "7" * 5000 + "\n")
        assert main(["check", path]) == EXIT_OK
        assert capsys.readouterr().out == "TP\n"
        assert sys.get_int_max_str_digits() == limit


class TestScaffoldAndReconstruct:
    def test_gamma_scaffold(self, tmp_path, capsys):
        assert main(["scaffold", "--gamma", write(tmp_path, "x.txt", X23_TEXT)]) == EXIT_OK
        assert capsys.readouterr().out == T23_TEXT

    def test_le_scaffold(self, tmp_path, capsys):
        assert main(["scaffold", "--le", write(tmp_path, "x.txt", X23_TEXT)]) == EXIT_OK
        assert capsys.readouterr().out == "2 3\n8 7/2 1\n1 1/16 6/7\n"

    def test_reconstruct_inverts_scaffold(self, tmp_path, capsys):
        assert main(["reconstruct", "--gamma", write(tmp_path, "t.txt", T23_TEXT)]) == EXIT_OK
        assert capsys.readouterr().out == X23_TEXT

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "result.txt"
        code = main(
            ["scaffold", "--gamma", write(tmp_path, "x.txt", X23_TEXT), "-o", str(out)]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out == ""
        assert out.read_text() == T23_TEXT

    def test_prints_integers_of_any_length(self, tmp_path, capsys):
        d = "9" * 3000
        path = write(tmp_path, "t.txt", f"2 2\n{d} {d}\n{d} 1\n")
        assert main(["reconstruct", "--gamma", path]) == EXIT_OK
        # d + d^2 = d * 10^3000
        assert capsys.readouterr().out == f"2 2\n{d}{'0' * 3000} {d}\n{d} 1\n"

    def test_unwritable_output_file_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "absent" / "result.txt"
        code = main(["scaffold", "--gamma", write(tmp_path, "x.txt", X23_TEXT), "-o", str(out)])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}")
        assert not out.exists()

    def test_orientation_flag_required(self, tmp_path, capsys):
        path = write(tmp_path, "x.txt", X23_TEXT)
        assert main(["scaffold", path]) == EXIT_USAGE
        assert main(["scaffold", "--gamma", "--le", path]) == EXIT_USAGE
        capsys.readouterr()

    def test_scaffold_of_non_tp_fails(self, tmp_path, capsys):
        path = write(tmp_path, "bad.txt", NOT_TP_TEXT)
        assert main(["scaffold", "--gamma", path]) == EXIT_PRECONDITION
        assert "error:" in capsys.readouterr().err

    def test_reconstruct_needs_positive_weights(self, tmp_path, capsys):
        path = write(tmp_path, "t.txt", "1 2\n0 1\n")
        assert main(["reconstruct", "--gamma", path]) == EXIT_PRECONDITION
        capsys.readouterr()


class TestBeyondPathEnumeration:
    def test_reconstruct(self, tmp_path, capsys):
        path = write(tmp_path, "t.txt", format_matrix(ONES13))
        assert main(["reconstruct", "--gamma", path]) == EXIT_OK
        assert capsys.readouterr().out == format_matrix(PASCAL13)

    def test_fast_check(self, tmp_path, capsys):
        path = write(tmp_path, "x.txt", format_matrix(PASCAL13))
        assert main(["check", "--fast", path]) == EXIT_OK
        assert capsys.readouterr().out == "TP\n"

    def test_border_below(self, tmp_path, capsys):
        path = write(tmp_path, "x.txt", format_matrix(PASCAL13))
        values = tuple(range(1, 14))
        params = write(tmp_path, "p.txt", " ".join(map(str, values)) + "\n")
        assert main(["border", path, "--side", "below", "--params", params]) == EXIT_OK
        result = parse_matrix(capsys.readouterr().out)
        assert result.without_row(14) == PASCAL13
        assert recover_border_params(result, BorderSide.BELOW) == values

    def test_insert_row(self, tmp_path, capsys):
        path = write(tmp_path, "x.txt", format_matrix(PASCAL13))
        assert main(["insert-row", path, "--after", "12"]) == EXIT_OK
        result = parse_matrix(capsys.readouterr().out)
        assert result.without_row(13) == PASCAL13
        assert is_totally_positive(result, method="fast")


class TestJson:
    def test_json_pipeline(self, tmp_path, capsys):
        payload = {
            "rows": 2,
            "cols": 3,
            "entries": [["8", "7/2", "1"], ["1", "1/2", "1"]],
        }
        path = write(tmp_path, "x.json", json.dumps(payload))
        assert main(["scaffold", "--gamma", "--json", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert json.loads(out) == {
            "rows": 2,
            "cols": 3,
            "entries": [["1", "3", "1"], ["1", "1/2", "1"]],
        }

    def test_json_schema_errors_are_malformed(self, tmp_path, capsys):
        path = write(tmp_path, "x.json", '{"rows": 2}')
        assert main(["check", "--json", path]) == EXIT_MALFORMED
        boolean = '{"rows": true, "cols": true, "entries": [["5"]]}'
        path = write(tmp_path, "bool.json", boolean)
        assert main(["check", "--json", path]) == EXIT_MALFORMED
        capsys.readouterr()

    def test_entry_with_trailing_newline_is_malformed(self, tmp_path, capsys):
        path = write(tmp_path, "x.json", '{"rows": 1, "cols": 1, "entries": [["5\\n"]]}')
        assert main(["check", "--json", path]) == EXIT_MALFORMED
        assert capsys.readouterr().out == ""


class TestMinor:
    def test_prints_exact_value(self, tmp_path, capsys):
        path = write(tmp_path, "x.txt", X33_TEXT)
        assert main(["minor", path, "--rows", "1,2", "--cols", "1,2"]) == EXIT_OK
        assert capsys.readouterr().out == "3\n"

    def test_negative_minor(self, tmp_path, capsys):
        path = write(tmp_path, "x.txt", NOT_TP_TEXT)
        assert main(["minor", path, "--rows", "1,2", "--cols", "1,2"]) == EXIT_OK
        assert capsys.readouterr().out == "-3\n"

    def test_fractional_minor(self, tmp_path, capsys):
        path = write(tmp_path, "x.txt", X23_TEXT)
        assert main(["minor", path, "--rows", "1,2", "--cols", "2,3"]) == EXIT_OK
        assert capsys.readouterr().out == "3\n"

    def test_bad_index_lists(self, tmp_path, capsys):
        path = write(tmp_path, "x.txt", X33_TEXT)
        assert main(["minor", path, "--rows", "1,x", "--cols", "1,2"]) == EXIT_PRECONDITION
        assert main(["minor", path, "--rows", "1,2", "--cols", "1,9"]) == EXIT_PRECONDITION
        assert main(["minor", path, "--rows", "2,1", "--cols", "1,2"]) == EXIT_PRECONDITION
        capsys.readouterr()


class TestInsertion:
    def test_insert_row_with_solver(self, tmp_path, capsys):
        path = write(tmp_path, "x.txt", X33_TEXT)
        assert main(["insert-row", path, "--after", "2"]) == EXIT_OK
        assert capsys.readouterr().out == "4 3\n6 3 1\n3 2 1\n9 8 6\n1 1 1\n"

    def test_insert_row_with_witness(self, tmp_path, capsys):
        path = write(tmp_path, "x.txt", X33_TEXT)
        witness = write(tmp_path, "w.txt", "1 2 6\n9 2 1\n1 1 3\n")
        assert main(["insert-row", path, "--after", "2", "--witness", witness]) == EXIT_OK
        assert capsys.readouterr().out == "4 3\n6 3 1\n3 2 1\n9 8 6\n1 1 1\n"

    def test_verbose_reports_weights(self, tmp_path, capsys):
        path = write(tmp_path, "x.txt", X33_TEXT)
        assert main(["insert-row", path, "--after", "2", "--verbose"]) == EXIT_OK
        captured = capsys.readouterr()
        assert "below: 1 2 6\n" in captured.err
        assert "above: 9 2 1\n" in captured.err
        assert "prefix: 1 1 3\n" in captured.err
        assert captured.out.startswith("4 3\n")

    def test_invalid_witness(self, tmp_path, capsys):
        path = write(tmp_path, "x.txt", X33_TEXT)
        witness = write(tmp_path, "w.txt", "1 2 6\n9 2 2\n1 1 3\n")
        code = main(["insert-row", path, "--after", "2", "--witness", witness])
        assert code == EXIT_PRECONDITION
        assert "invalid insertion witness" in capsys.readouterr().err

    def test_malformed_witness_file(self, tmp_path, capsys):
        path = write(tmp_path, "x.txt", X33_TEXT)
        witness = write(tmp_path, "w.txt", "1 2 6\n9 2 1\n")
        code = main(["insert-row", path, "--after", "2", "--witness", witness])
        assert code == EXIT_MALFORMED
        capsys.readouterr()

    def test_position_out_of_range(self, tmp_path, capsys):
        path = write(tmp_path, "x.txt", X33_TEXT)
        assert main(["insert-row", path, "--after", "3"]) == EXIT_PRECONDITION
        capsys.readouterr()

    def test_insert_column(self, tmp_path, capsys):
        path = write(tmp_path, "x.txt", X33_TEXT)
        assert main(["insert-col", path, "--after", "1"]) == EXIT_OK
        result = parse_matrix(capsys.readouterr().out)
        assert result.cols == 4
        assert result.without_column(2) == parse_matrix(X33_TEXT)

    def test_insert_row_into_non_tp(self, tmp_path, capsys):
        path = write(tmp_path, "bad.txt", NOT_TP_TEXT)
        assert main(["insert-row", path, "--after", "1"]) == EXIT_PRECONDITION
        capsys.readouterr()


class TestBorder:
    def test_border_above_example(self, tmp_path, capsys):
        path = write(tmp_path, "x.txt", "2 3\n4 2 1\n1 1 1\n")
        params = write(tmp_path, "p.txt", "1 2 2\n")
        assert main(["border", path, "--side", "above", "--params", params]) == EXIT_OK
        assert capsys.readouterr().out == "3 3\n15 6 2\n4 2 1\n1 1 1\n"

    def test_border_sides(self, tmp_path, capsys):
        path = write(tmp_path, "x.txt", X33_TEXT)
        params = write(tmp_path, "p.txt", "1 1 1\n")
        for side in ("above", "below", "left", "right"):
            assert main(["border", path, "--side", side, "--params", params]) == EXIT_OK
            result = parse_matrix(capsys.readouterr().out)
            assert result.rows + result.cols == 7

    def test_unknown_side_is_usage_error(self, tmp_path, capsys):
        path = write(tmp_path, "x.txt", X33_TEXT)
        params = write(tmp_path, "p.txt", "1 1 1\n")
        assert main(["border", path, "--side", "top", "--params", params]) == EXIT_USAGE
        capsys.readouterr()

    def test_wrong_parameter_count(self, tmp_path, capsys):
        path = write(tmp_path, "x.txt", X33_TEXT)
        params = write(tmp_path, "p.txt", "1 1\n")
        code = main(["border", path, "--side", "above", "--params", params])
        assert code == EXIT_PRECONDITION
        capsys.readouterr()

    def test_empty_parameter_file(self, tmp_path, capsys):
        path = write(tmp_path, "x.txt", X33_TEXT)
        params = write(tmp_path, "p.txt", "\n")
        code = main(["border", path, "--side", "above", "--params", params])
        assert code == EXIT_MALFORMED
        capsys.readouterr()


class TestGraphDot:
    def test_emits_graph(self, tmp_path, capsys):
        path = write(tmp_path, "t.txt", T23_TEXT)
        assert main(["graph-dot", "--gamma", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("digraph scaffold {")
        assert out.rstrip().endswith("}")
        assert len([l for l in out.splitlines() if "->" in l]) == 12

    def test_le_orientation(self, tmp_path, capsys):
        path = write(tmp_path, "t.txt", T23_TEXT)
        assert main(["graph-dot", "--le", path]) == EXIT_OK
        assert "v_1_2 -> v_1_3;" in capsys.readouterr().out


class TestErrorHandling:
    def test_missing_file(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "absent.txt")]) == EXIT_MALFORMED
        assert "error:" in capsys.readouterr().err

    def test_malformed_matrix(self, tmp_path, capsys):
        path = write(tmp_path, "x.txt", "2 2\n1 2\n3\n")
        assert main(["check", path]) == EXIT_MALFORMED
        err = capsys.readouterr().err
        assert "line 3" in err

    def test_non_ascii_digits_are_malformed(self, tmp_path, capsys):
        path = tmp_path / "x.txt"
        path.write_text("1 1\n\u0663/\u0667\n", encoding="utf-8")
        assert main(["check", str(path)]) == EXIT_MALFORMED
        assert "invalid rational" in capsys.readouterr().err

    def test_non_utf8_file_is_malformed(self, tmp_path, capsys):
        path = tmp_path / "x.txt"
        path.write_bytes(b"1 1\n\xff\n")
        assert main(["check", str(path)]) == EXIT_MALFORMED
        assert "not UTF-8" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        capsys.readouterr()

    def test_no_command(self, capsys):
        assert main([]) == EXIT_USAGE
        capsys.readouterr()

    def test_missing_required_option(self, tmp_path, capsys):
        path = write(tmp_path, "x.txt", X33_TEXT)
        assert main(["insert-row", path]) == EXIT_USAGE
        capsys.readouterr()


class TestModuleEntryPoint:
    def test_subprocess_smoke(self, tmp_path):
        path = write(tmp_path, "x.txt", X33_TEXT)
        proc = subprocess.run(
            [sys.executable, "-m", "tpscaffold", "check", path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "TP\n"
