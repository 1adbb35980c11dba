"""Scaffolding grid graphs, lattice paths, and path-sum evaluation.

A scaffolding graph on an m x n grid carries one weight per grid vertex and
comes in two orientations.  In the Gamma orientation the row vertices sit on
the right, the column vertices at the bottom, horizontal edges run right to
left and vertical edges top to bottom.  In the Le orientation the row
vertices sit on the left, the column vertices on top, horizontal edges run
left to right and vertical edges bottom to top.

A path from row vertex i to column vertex j is determined by its turn
sequence; weights alternate multiply/divide along the turns.  Summing path
weights entrywise defines the matrix of a scaffolding (``matrix_from_scaffold``
computes it by Cauchon restoration, without enumerating paths), and sums of
vertex-disjoint path systems compute its minors.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb, prod
from typing import Iterable, List

from .cauchon import _restore
from .matrix import Matrix, det, leading_contiguous, leading_with_prefix

__all__ = [
    "Orientation",
    "ScaffoldGraph",
    "Path",
    "PathSystem",
    "PATH_ENUMERATION_LIMIT",
    "build_graph",
    "path_weight",
    "path_vertices",
    "primary_path",
    "enumerate_paths",
    "enumerate_paths_bounded",
    "matrix_from_scaffold",
    "enumerate_vertex_disjoint_systems",
    "system_weight",
    "lgv_minor",
    "blocked_path_sum",
    "blocked_path_sum_minor_ratio",
    "to_dot",
]

PATH_ENUMERATION_LIMIT = 10**6


class Orientation(Enum):
    GAMMA = "gamma"
    LE = "le"


@dataclass(frozen=True)
class ScaffoldGraph:
    """An oriented grid graph whose vertex (i, j) carries weights[i, j]."""

    orientation: Orientation
    weights: Matrix

    @property
    def m(self) -> int:
        return self.weights.rows

    @property
    def n(self) -> int:
        return self.weights.cols


def build_graph(weights: Matrix, orientation: Orientation) -> ScaffoldGraph:
    if weights.rows == 0:
        raise ValueError("weight matrix must be nonempty")
    if not weights.is_positive():
        raise ValueError("weight matrix must be strictly positive")
    if not isinstance(orientation, Orientation):
        raise ValueError(f"unknown orientation {orientation!r}")
    return ScaffoldGraph(orientation, weights)


@dataclass(frozen=True)
class Path:
    """A path from row vertex ``start`` to column vertex ``end``.

    ``turns`` is the full alternating turn sequence; entries at even
    positions (0-based) contribute their weight as a factor, entries at odd
    positions as an inverse factor.
    """

    start: int
    end: int
    turns: tuple


def _validate_path(g: ScaffoldGraph, p: Path) -> None:
    m, n = g.m, g.n
    turns = p.turns
    if not turns or len(turns) % 2 == 0:
        raise ValueError(f"turn sequence must have odd length, got {len(turns)}")
    if not (1 <= p.start <= m and 1 <= p.end <= n):
        raise IndexError(f"endpoints ({p.start},{p.end}) outside {m}x{n} grid")
    for (i, j) in turns:
        if not (1 <= i <= m and 1 <= j <= n):
            raise IndexError(f"turn ({i},{j}) outside {m}x{n} grid")
    if turns[0][0] != p.start or turns[-1][1] != p.end:
        raise ValueError("turn sequence does not connect the endpoints")
    gamma = g.orientation is Orientation.GAMMA
    for idx in range(len(turns) - 1):
        (a, b), (c, d) = turns[idx], turns[idx + 1]
        if idx % 2 == 0:
            # vertical move: same column, rows advance with the orientation
            ok = b == d and (a < c if gamma else a > c)
        else:
            # horizontal move: same row, columns advance with the orientation
            ok = a == c and (b > d if gamma else b < d)
        if not ok:
            raise ValueError(f"turns {turns[idx]} -> {turns[idx + 1]} are not a legal move")


def _weight(grid, turns) -> Fraction:
    w = Fraction(1)
    for idx, (i, j) in enumerate(turns):
        v = grid[i - 1][j - 1]
        w = w * v if idx % 2 == 0 else w / v
    return w


def path_weight(g: ScaffoldGraph, p: Path) -> Fraction:
    """Alternating product of the turn weights (validated)."""
    _validate_path(g, p)
    return _weight(g.weights.entries, p.turns)


def path_vertices(g: ScaffoldGraph, p: Path) -> frozenset:
    """Every vertex the path traverses: grid vertices as (i, j) pairs plus
    the tagged endpoints ("r", start) and ("c", end)."""
    _validate_path(g, p)
    m, n = g.m, g.n
    turns = p.turns
    pts = {("r", p.start), ("c", p.end)}
    if g.orientation is Orientation.GAMMA:
        for c in range(turns[0][1], n + 1):
            pts.add((p.start, c))
        for idx in range(0, len(turns), 2):
            a, b = turns[idx]
            if idx + 1 < len(turns):
                a2 = turns[idx + 1][0]
                b2 = turns[idx + 2][1]
                for r in range(a, a2 + 1):
                    pts.add((r, b))
                for c in range(b2, b + 1):
                    pts.add((a2, c))
            else:
                for r in range(a, m + 1):
                    pts.add((r, b))
    else:
        for c in range(1, turns[0][1] + 1):
            pts.add((p.start, c))
        for idx in range(0, len(turns), 2):
            a, b = turns[idx]
            if idx + 1 < len(turns):
                a2 = turns[idx + 1][0]
                b2 = turns[idx + 2][1]
                for r in range(a2, a + 1):
                    pts.add((r, b))
                for c in range(b, b2 + 1):
                    pts.add((a2, c))
            else:
                for r in range(1, a + 1):
                    pts.add((r, b))
    return frozenset(pts)


def primary_path(g: ScaffoldGraph, i: int, j: int) -> Path:
    """The single-turn path i -> j; its weight is the (i, j) vertex weight."""
    if not (1 <= i <= g.m and 1 <= j <= g.n):
        raise IndexError(f"endpoints ({i},{j}) outside {g.m}x{g.n} grid")
    return Path(i, j, ((i, j),))


def _count_paths(g: ScaffoldGraph, i: int, j: int) -> int:
    if g.orientation is Orientation.GAMMA:
        return comb((g.m - i) + (g.n - j), g.m - i)
    return comb((i - 1) + (j - 1), i - 1)


def _gamma_turn_sequences(m, n, i, j) -> Iterable[tuple]:
    # Emits in lexicographic order: first-turn column ascending, then the
    # continuation's row/column choices ascending.
    out: List[tuple] = []

    def extend(turns, row, col):
        if col == j:
            out.append(tuple(turns))
            return
        for nr in range(row + 1, m + 1):
            for nc in range(j, col):
                turns.append((nr, col))
                turns.append((nr, nc))
                extend(turns, nr, nc)
                turns.pop()
                turns.pop()

    for b1 in range(j, n + 1):
        extend([(i, b1)], i, b1)
    return out


def _le_turn_sequences(m, n, i, j) -> Iterable[tuple]:
    out: List[tuple] = []

    def extend(turns, row, col):
        if col == j:
            out.append(tuple(turns))
            return
        for nr in range(1, row):
            for nc in range(col + 1, j + 1):
                turns.append((nr, col))
                turns.append((nr, nc))
                extend(turns, nr, nc)
                turns.pop()
                turns.pop()

    for b1 in range(1, j + 1):
        extend([(i, b1)], i, b1)
    return out


def enumerate_paths(g: ScaffoldGraph, i: int, j: int) -> list:
    """All paths from row vertex i to column vertex j, in lexicographic
    order of their turn sequences."""
    if not (1 <= i <= g.m and 1 <= j <= g.n):
        raise IndexError(f"endpoints ({i},{j}) outside {g.m}x{g.n} grid")
    count = _count_paths(g, i, j)
    if count > PATH_ENUMERATION_LIMIT:
        raise ValueError(f"{count} paths from {i} to {j} exceed the enumeration limit")
    if g.orientation is Orientation.GAMMA:
        seqs = _gamma_turn_sequences(g.m, g.n, i, j)
    else:
        seqs = _le_turn_sequences(g.m, g.n, i, j)
    return [Path(i, j, t) for t in seqs]


def enumerate_paths_bounded(g: ScaffoldGraph, i: int, j: int, col_bound: int) -> list:
    """Gamma paths i -> j whose first turn lies in a column <= col_bound."""
    if g.orientation is not Orientation.GAMMA:
        raise ValueError("bounded enumeration is defined for the Gamma orientation")
    if not j <= col_bound <= g.n:
        raise ValueError(f"column bound {col_bound} outside {j}..{g.n}")
    return [p for p in enumerate_paths(g, i, j) if p.turns[0][1] <= col_bound]


def matrix_from_scaffold(weights: Matrix, orientation: Orientation) -> Matrix:
    """Reconstruct the matrix whose (i, j) entry is the sum of the weights
    of all paths i -> j in the scaffolding graph over ``weights``.

    Computed without enumerating paths, by Cauchon restoration: the exact
    inverse of the elimination that extracts the scaffolding."""
    build_graph(weights, orientation)
    return _restore(weights, mirror=orientation is Orientation.LE)


@dataclass(frozen=True)
class PathSystem:
    """One path per (start, end) pair, pairwise vertex-disjoint."""

    paths: tuple


def system_weight(g: ScaffoldGraph, system: PathSystem) -> Fraction:
    return prod((_weight(g.weights.entries, p.turns) for p in system.paths), start=Fraction(1))


def enumerate_vertex_disjoint_systems(g: ScaffoldGraph, I, J) -> list:
    """All vertex-disjoint systems joining row vertices I to column vertices
    J in order (k-th to k-th), deterministically ordered.

    Disjointness counts every traversed vertex: row, column, and grid
    vertices alike.  The primary path system is always present.
    """
    from .matrix import _index_set

    I = _index_set(I, g.m, "row")
    J = _index_set(J, g.n, "column")
    if len(I) != len(J):
        raise ValueError(f"index sets must have equal size: {len(I)} != {len(J)}")
    bound = prod(_count_paths(g, i, j) for i, j in zip(I, J))
    if bound > PATH_ENUMERATION_LIMIT:
        raise ValueError(f"up to {bound} path systems exceed the enumeration limit")
    choices = []
    for i, j in zip(I, J):
        paths = enumerate_paths(g, i, j)
        choices.append([(p, path_vertices(g, p)) for p in paths])
    systems: List[PathSystem] = []

    def assemble(idx, picked, used):
        if idx == len(choices):
            systems.append(PathSystem(tuple(picked)))
            return
        for path, verts in choices[idx]:
            if used.isdisjoint(verts):
                picked.append(path)
                assemble(idx + 1, picked, used | verts)
                picked.pop()

    assemble(0, [], frozenset())
    return systems


def lgv_minor(g: ScaffoldGraph, I, J) -> Fraction:
    """det X[I, J] of the reconstructed matrix, computed as the sum of the
    weights of all vertex-disjoint path systems I -> J."""
    if not tuple(I) and not tuple(J):
        return Fraction(1)
    return sum(
        (system_weight(g, s) for s in enumerate_vertex_disjoint_systems(g, I, J)),
        start=Fraction(0),
    )


def blocked_path_sum(weights: Matrix, i: int, j: int, col_bound: int) -> Fraction:
    """Sum of w(P) over Gamma paths i -> j with first turn in a column
    <= col_bound, by direct enumeration."""
    g = build_graph(weights, Orientation.GAMMA)
    grid = weights.entries
    return sum(
        (_weight(grid, p.turns) for p in enumerate_paths_bounded(g, i, j, col_bound)),
        start=Fraction(0),
    )


def blocked_path_sum_minor_ratio(X: Matrix, i: int, j: int, col_bound: int) -> Fraction:
    """The same blocked sum evaluated on the reconstructed matrix X as
    det X[{i} u {i+1..}, {j} u {col_bound+1..}] / det X[{i+1..}, {col_bound+1..}]."""
    m, n = X.rows, X.cols
    if not (1 <= i <= m and 1 <= j <= col_bound <= n):
        raise IndexError(f"arguments ({i},{j},{col_bound}) outside the {m}x{n} matrix")
    num = det(leading_with_prefix(X, i, i + 1, j, col_bound + 1))
    den = det(leading_contiguous(X, i + 1, col_bound + 1))
    if den == 0:
        raise ZeroDivisionError("denominator minor vanishes; input is not totally positive")
    return num / den


def to_dot(g: ScaffoldGraph) -> str:
    """Deterministic DOT rendering: m*n + m + n nodes and 2*m*n edges."""
    m, n = g.m, g.n
    lines = ["digraph scaffold {"]
    for i in range(1, m + 1):
        lines.append(f'  row_{i} [shape=plaintext, label="{i}"];')
    for j in range(1, n + 1):
        lines.append(f'  col_{j} [shape=plaintext, label="{j}"];')
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            lines.append(f'  v_{i}_{j} [label="{g.weights[i, j]}"];')
    if g.orientation is Orientation.GAMMA:
        for i in range(1, m + 1):
            lines.append(f"  row_{i} -> v_{i}_{n};")
            for j in range(n, 1, -1):
                lines.append(f"  v_{i}_{j} -> v_{i}_{j - 1};")
        for j in range(1, n + 1):
            for i in range(1, m):
                lines.append(f"  v_{i}_{j} -> v_{i + 1}_{j};")
            lines.append(f"  v_{m}_{j} -> col_{j};")
    else:
        for i in range(1, m + 1):
            lines.append(f"  row_{i} -> v_{i}_1;")
            for j in range(1, n):
                lines.append(f"  v_{i}_{j} -> v_{i}_{j + 1};")
        for j in range(1, n + 1):
            for i in range(m, 1, -1):
                lines.append(f"  v_{i}_{j} -> v_{i - 1}_{j};")
            lines.append(f"  v_1_{j} -> col_{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
