"""The cli workload: each operation is one ``python -m tpscaffold`` call.

A deck covers all eight subcommands on 3x3 to 6x6 files, including
non-TP and malformed files, so the expected exit codes are 0, 1, 3 and 4.
Every expected stdout is derived from the generating weights, the
benchmark's own determinant, or a certificate computed in this process.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import tpscaffold as tp

import gen


TAIL_SIX_BORDERS = 7


@dataclass
class CliOp:
    kind: str
    argv: list
    code: int
    check: Callable[[str], bool]  # applied to stdout


def text(rows) -> str:
    body = "\n".join(" ".join(str(v) for v in r) for r in rows)
    return f"{len(rows)} {len(rows[0])}\n{body}\n"


def json_text(rows) -> str:
    return json.dumps(
        {"rows": len(rows), "cols": len(rows[0]), "entries": [[str(v) for v in r] for r in rows]}
    ) + "\n"


def parse(stdout: str) -> list:
    lines = stdout.split("\n")
    m, n = map(int, lines[0].split())
    rows = [tuple(Fraction(t) for t in line.split()) for line in lines[1 : m + 1]]
    if len(rows) != m or any(len(r) != n for r in rows) or lines[m + 1 :] != [""]:
        raise ValueError("output is not an m x n matrix")
    return rows


def stderr_ok(code: int, stderr: str) -> bool:
    if code in (0, 1):
        return stderr == ""
    return stderr.startswith("error: ") and "Traceback" not in stderr


def classify(op: CliOp, code: int, stdout: str, stderr: str) -> str:
    if code != op.code or not stderr_ok(code, stderr):
        return "wrong"
    try:
        return "ok" if op.check(stdout) else "wrong"
    except (ValueError, ArithmeticError, IndexError):
        return "wrong"


def _equals(expected: str):
    return lambda out: out == expected


_WITNESS = re.compile(r"NOT TP: minor\[I=\[([\d, ]+)\]; J=\[([\d, ]+)\]\] = (\S+)\n")


def _witness_check(sample: gen.Sample):
    def check(out: str) -> bool:
        match = _WITNESS.fullmatch(out)
        if match is None:
            return False
        I, J = ([int(t) for t in g.split(",")] for g in match.groups()[:2])
        value = gen.det([[sample.matrix[i - 1][j - 1] for j in J] for i in I])
        return value == Fraction(match.group(3)) <= 0

    return check


def _insert_check(sample: gen.Sample, axis: str, k: int):
    def check(out: str) -> bool:
        rows = parse(out)
        if axis == "row":
            rest = rows[:k] + rows[k + 1 :]
        else:
            rest = [r[:k] + r[k + 1 :] for r in rows]
        # tp.gamma_scaffold raises NotTotallyPositive unless the output is TP.
        return rest == list(sample.matrix) and tp.gamma_scaffold(tp.Matrix(rows)).is_positive()

    return check


def _border_check(sample: gen.Sample, side: str, params: tuple):
    def check(out: str) -> bool:
        rows = parse(out)
        block = {
            "above": lambda: rows[1:],
            "below": lambda: rows[:-1],
            "left": lambda: [r[1:] for r in rows],
            "right": lambda: [r[:-1] for r in rows],
        }[side]()
        recovered = tp.recover_border_params(tp.Matrix(rows), tp.BorderSide(side))
        return block == list(sample.matrix) and recovered == params

    return check


def _dot_check(weights):
    m, n = len(weights), len(weights[0])
    labels = {f'  v_{i}_{j} [label="{weights[i - 1][j - 1]}"];' for i in range(1, m + 1)
              for j in range(1, n + 1)}

    def check(out: str) -> bool:
        lines = out.split("\n")
        edges = [line for line in lines if "->" in line]
        return (
            lines[0] == "digraph scaffold {"
            and lines[-2:] == ["}", ""]
            and len(edges) == 2 * m * n
            and labels <= set(lines)
            and sum(line.startswith(("  row_", "  col_")) and "[" in line for line in lines) == m + n
        )

    return check


def cli_deck(rng: random.Random, layout: random.Random, folder: Path) -> list:
    """Write this pass's files into ``folder`` and return its operations;
    ``rng`` chooses values and ``layout`` positions and order, as in ops.py."""
    folder.mkdir(parents=True, exist_ok=True)

    def put(name: str, content: str) -> str:
        path = folder / name
        path.write_text(content, encoding="utf-8")
        return str(path)

    t3 = gen.make_sample(rng, 3, 3, gen.GAMMA)
    t4 = gen.make_sample(rng, 4, 4, gen.LE)
    t5 = gen.make_sample(rng, 5, 5, gen.GAMMA)
    t6 = gen.make_sample(rng, 6, 6, gen.LE)
    n4 = gen.make_sample(rng, 4, 4, gen.GAMMA, tp=False)
    n5 = gen.make_sample(rng, 5, 5, gen.LE, tp=False)
    x3, w3 = put("x3.txt", text(t3.matrix)), put("w3.txt", text(t3.weights))
    x4, x4j = put("x4.txt", text(t4.matrix)), put("x4.json", json_text(t4.matrix))
    x5, x6 = put("x5.txt", text(t5.matrix)), put("x6.txt", text(t6.matrix))
    w6 = put("w6.txt", text(t6.weights))
    y4, y5 = put("y4.txt", text(n4.matrix)), put("y5.txt", text(n5.matrix))

    ops = [
        CliOp("check", ["check", x3], 0, _equals("TP\n")),
        CliOp("check", ["check", "--fast", x6], 0, _equals("TP\n")),
        CliOp("check", ["check", "--json", x4j], 0, _equals("TP\n")),
        CliOp("check", ["check", y4], 1, _witness_check(n4)),
        CliOp("check", ["check", "--fast", y5], 1, lambda out: out.startswith("NOT TP: ")),
        CliOp("scaffold", ["scaffold", "--gamma", x5], 0, _equals(text(t5.weights))),
        CliOp("scaffold", ["scaffold", "--le", x4], 0, _equals(text(t4.weights))),
        CliOp("scaffold", ["scaffold", "--le", "--json", x4j], 0, _equals(json_text(t4.weights))),
        CliOp("scaffold", ["scaffold", "--gamma", y4], 4, _equals("")),
        CliOp("reconstruct", ["reconstruct", "--gamma", w3], 0, _equals(text(t3.matrix))),
        CliOp("reconstruct", ["reconstruct", "--le", w6], 0, _equals(text(t6.matrix))),
        CliOp("graph-dot", ["graph-dot", "--gamma", w3], 0, _dot_check(t3.weights)),
        CliOp("graph-dot", ["graph-dot", "--le", w6], 0, _dot_check(t6.weights)),
    ]

    k = layout.randint(1, 5)
    I, J = sorted(layout.sample(range(1, 6), k)), sorted(layout.sample(range(1, 6), k))
    value = gen.det([[t5.matrix[i - 1][j - 1] for j in J] for i in I])
    ops.append(CliOp("minor", ["minor", x5, "--rows", ",".join(map(str, I)),
                               "--cols", ",".join(map(str, J))], 0, _equals(f"{value}\n")))
    i, j = layout.randint(1, 5), layout.randint(1, 5)
    I, J = gen.contiguous_block(5, 5, gen.LE, i, j)
    value = gen.diagonal_minor(n5.weights, gen.LE, i, j)
    ops.append(CliOp("minor", ["minor", y5, "--rows", ",".join(map(str, I)),
                               "--cols", ",".join(map(str, J))], 0, _equals(f"{value}\n")))

    for sample, path, command, axis in ((t4, x4, "insert-row", "row"), (t5, x5, "insert-col", "column")):
        k = layout.randint(1, len(sample.matrix) - 1)
        ops.append(CliOp(command, [command, path, "--after", str(k)], 0,
                         _insert_check(sample, axis, k)))
    ops.append(CliOp("insert-row", ["insert-row", y4, "--after", "2"], 4, _equals("")))

    # Bordering a 6x6 matrix costs the most of all operations, so
    # TAIL_SIX_BORDERS copies of it make up the top fifth of a pass and the
    # p90 latency falls in the middle of that group of equal cost.
    for idx, (sample, path, side) in enumerate(
        ((t3, x3, "above"), (t4, x4, "below"), (t5, x5, "left"))
        + ((t6, x6, "right"),) * TAIL_SIX_BORDERS
    ):
        size = len(sample.matrix[0]) if side in ("above", "below") else len(sample.matrix)
        params = tuple(gen.random_weights(rng, 1, size)[0])
        params_path = put(f"p{idx}.txt", " ".join(map(str, params)) + "\n")
        ops.append(CliOp("border", ["border", path, "--side", side, "--params", params_path], 0,
                         _border_check(sample, side, params)))
    ops.append(CliOp("border", ["border", y4, "--side", "above", "--params", put("p_refused.txt", "1 1 1 1\n")],
                     4, _equals("")))

    # Malformed files: each corrupts a valid matrix text in one place.
    lines = text(t3.matrix).split("\n")
    bad_header = put("bad_header.txt", "\n".join(["3 x"] + lines[1:]))
    tokens = lines[2].split()
    tokens[layout.randrange(3)] = layout.choice(("1.5", "abc", "2/-3"))
    bad_token = put("bad_token.txt", "\n".join(lines[:2] + [" ".join(tokens)] + lines[3:]))
    zero_den = put("zero_den.txt", "\n".join(lines[:3] + [lines[3] + "/0"] + lines[4:]))
    short = put("short.txt", "\n".join(lines[:3]) + "\n")
    bad_json = put("bad.json", json_text(t3.matrix).replace('"rows"', '"rws"'))
    bad_params = put("bad_params.txt", "1 2 x\n")
    ops += [
        CliOp("check", ["check", bad_header], 3, _equals("")),
        CliOp("scaffold", ["scaffold", "--gamma", bad_token], 3, _equals("")),
        CliOp("reconstruct", ["reconstruct", "--le", zero_den], 3, _equals("")),
        CliOp("minor", ["minor", short, "--rows", "1", "--cols", "1"], 3, _equals("")),
        CliOp("check", ["check", "--json", bad_json], 3, _equals("")),
        CliOp("border", ["border", x3, "--side", "left", "--params", bad_params], 3, _equals("")),
    ]
    layout.shuffle(ops)
    return ops
