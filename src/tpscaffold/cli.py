"""Command-line interface.

Matrices travel in the plain text format (header "m n", then m rows of n
rational tokens) or, behind --json, in the JSON mirror.  Exit codes:
0 success (and "TP" verdicts), 1 a NOT-TP verdict from ``check``, 2 usage
errors and an unwritable output file, 3 malformed input files, 4
precondition failures (non-TP inputs to constructions, invalid witnesses,
out-of-range indices).  Exact entries may have any number of digits.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import List, Optional

from .bordering import BorderSide, border
from .cauchon import gamma_scaffold, le_scaffold
from .graph import Orientation, build_graph, matrix_from_scaffold, to_dot
from .insertion import build_insertion_system, insert_column, insert_row, solve_strongly_positive
from .matrix import (
    Matrix,
    MatrixFormatError,
    NotTotallyPositive,
    format_matrix,
    format_matrix_json,
    is_totally_positive,
    minor,
    parse_matrix,
    parse_matrix_json,
)

EXIT_OK = 0
EXIT_NOT_TP = 1
EXIT_USAGE = 2
EXIT_MALFORMED = 3
EXIT_PRECONDITION = 4


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise MatrixFormatError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise MatrixFormatError(f"cannot read {path}: not UTF-8 ({exc.reason} at byte {exc.start})")


def _read_matrix(path: str, as_json: bool) -> Matrix:
    text = _read_text(path)
    return parse_matrix_json(text) if as_json else parse_matrix(text)


class _UnwritableOutput(Exception):
    """The -o file could not be written."""


def _write_output(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise _UnwritableOutput(f"cannot write {path}: {exc.strerror}")


def _emit_matrix(A: Matrix, args) -> None:
    text = format_matrix_json(A) if args.json else format_matrix(A)
    _write_output(text, args.output)


def _parse_rational_tokens(tokens: List[str], line: int) -> List[Fraction]:
    from .matrix import _parse_token

    return [_parse_token(tok, line, pos + 1) for pos, tok in enumerate(tokens)]


def _read_params(path: str) -> List[Fraction]:
    values: List[Fraction] = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        values.extend(_parse_rational_tokens(line.split(), lineno))
    if not values:
        raise MatrixFormatError("empty parameter file", line=1)
    return values


def _read_witness(path: str) -> tuple:
    rows = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        tokens = line.split()
        if tokens:
            rows.append(_parse_rational_tokens(tokens, lineno))
    if len(rows) != 3:
        raise MatrixFormatError(
            f"witness file must hold three weight lines (below, above, prefix), found {len(rows)}"
        )
    return tuple(tuple(r) for r in rows)


def _parse_index_list(text: str, what: str) -> tuple:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated list of integers, got {text!r}")


def _orientation(args) -> Orientation:
    return Orientation.GAMMA if args.gamma else Orientation.LE


def _add_orientation_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--gamma", action="store_true", help="Gamma orientation")
    group.add_argument("--le", action="store_true", help="Le orientation")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input", help="input matrix file")
    parser.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    parser.add_argument("--json", action="store_true", help="read and write the JSON mirror format")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tpscaffold",
        description="Exact scaffolding tools for totally positive matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide total positivity")
    _add_common(p)
    p.add_argument("--fast", action="store_true", help="use the elimination-based check")
    p.add_argument("--force", action="store_true", help="allow exhaustive checks beyond 8x8")

    p = sub.add_parser("scaffold", help="compute a scaffolding")
    _add_common(p)
    _add_orientation_flags(p)

    p = sub.add_parser("reconstruct", help="path-sum reconstruction from a scaffolding")
    _add_common(p)
    _add_orientation_flags(p)

    p = sub.add_parser("minor", help="print one exact minor")
    _add_common(p)
    p.add_argument("--rows", required=True, help="comma-separated 1-based row indices")
    p.add_argument("--cols", required=True, help="comma-separated 1-based column indices")

    p = sub.add_parser("insert-row", help="insert a TP-compatible row after row K")
    _add_common(p)
    p.add_argument("--after", type=int, required=True, metavar="K")
    p.add_argument("--witness", default=None, help="file with below/above/prefix weight lines")
    p.add_argument("--verbose", action="store_true", help="print the weights used to stderr")

    p = sub.add_parser("insert-col", help="insert a TP-compatible column after column K")
    _add_common(p)
    p.add_argument("--after", type=int, required=True, metavar="K")
    p.add_argument("--witness", default=None, help="file with below/above/prefix weight lines")
    p.add_argument("--verbose", action="store_true", help="print the weights used to stderr")

    p = sub.add_parser("border", help="border by a new outer row or column")
    _add_common(p)
    p.add_argument("--side", required=True, choices=[s.value for s in BorderSide])
    p.add_argument("--params", required=True, help="file of positive rational parameters")

    p = sub.add_parser("graph-dot", help="emit the scaffolding graph as DOT")
    _add_common(p)
    _add_orientation_flags(p)

    return parser


def _format_weights(values) -> str:
    return " ".join(str(v) for v in values)


def _run(args) -> int:
    if args.command == "check":
        A = _read_matrix(args.input, args.json)
        method = "fast" if args.fast else "exhaustive"
        verdict = is_totally_positive(A, method=method, force=args.force)
        if verdict.is_tp:
            print("TP")
            return EXIT_OK
        print(f"NOT TP: {verdict.reason}")
        return EXIT_NOT_TP

    if args.command == "scaffold":
        A = _read_matrix(args.input, args.json)
        T = gamma_scaffold(A) if args.gamma else le_scaffold(A)
        _emit_matrix(T, args)
        return EXIT_OK

    if args.command == "reconstruct":
        T = _read_matrix(args.input, args.json)
        _emit_matrix(matrix_from_scaffold(T, _orientation(args)), args)
        return EXIT_OK

    if args.command == "minor":
        A = _read_matrix(args.input, args.json)
        I = _parse_index_list(args.rows, "--rows")
        J = _parse_index_list(args.cols, "--cols")
        value = minor(A, I, J)
        _write_output(f"{value}\n", args.output)
        return EXIT_OK

    if args.command in ("insert-row", "insert-col"):
        A = _read_matrix(args.input, args.json)
        witness = _read_witness(args.witness) if args.witness else None
        if args.verbose:
            base = A if args.command == "insert-row" else A.transpose()
            system = build_insertion_system(base, args.after)
            if witness is None:
                solution = solve_strongly_positive(system)
                witness = (
                    solution.below_weights,
                    solution.above_weights,
                    solution.prefix_weights,
                )
            print(f"below: {_format_weights(witness[0])}", file=sys.stderr)
            print(f"above: {_format_weights(witness[1])}", file=sys.stderr)
            print(f"prefix: {_format_weights(witness[2])}", file=sys.stderr)
        if args.command == "insert-row":
            result = insert_row(A, args.after, witness)
        else:
            result = insert_column(A, args.after, witness)
        _emit_matrix(result, args)
        return EXIT_OK

    if args.command == "border":
        A = _read_matrix(args.input, args.json)
        params = _read_params(args.params)
        result = border(A, BorderSide(args.side), params)
        _emit_matrix(result, args)
        return EXIT_OK

    if args.command == "graph-dot":
        T = _read_matrix(args.input, args.json)
        g = build_graph(T, _orientation(args))
        _write_output(to_dot(g), args.output)
        return EXIT_OK

    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    # lift the interpreter's cap on the digits of an int read or printed
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _run(args)
    except MatrixFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except _UnwritableOutput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NotTotallyPositive, ValueError, IndexError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
