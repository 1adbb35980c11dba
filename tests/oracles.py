"""Independent oracles and instance generators for the test suite.

The Laplace determinant here is the second route for minor values: the
library's fraction-free elimination must never be verified against itself.
Likewise the path-sum matrix, a sum of path weights over every enumerated
lattice path, is the definitional second route for reconstruction, which the
library computes by Cauchon restoration.  Random TP instances come from
positive scaffold weights via that path sum, so test inputs do not come from
the code under test.
"""

from __future__ import annotations

import random
from fractions import Fraction

from tpscaffold import Matrix, Orientation, build_graph, enumerate_paths, path_weight


def laplace_det(A: Matrix) -> Fraction:
    """Cofactor expansion along the first row; exponential, test-only."""
    k = A.rows
    if k != A.cols:
        raise ValueError("square matrix required")
    if k == 0:
        return Fraction(1)
    grid = A.entries
    if k == 1:
        return grid[0][0]
    total = Fraction(0)
    for c in range(k):
        rest = Matrix(row[:c] + row[c + 1 :] for row in grid[1:])
        term = grid[0][c] * laplace_det(rest)
        total += term if c % 2 == 0 else -term
    return total


def laplace_minor(A: Matrix, I, J) -> Fraction:
    I, J = tuple(I), tuple(J)
    if not I and not J:
        return Fraction(1)
    grid = A.entries
    return laplace_det(Matrix(tuple(grid[i - 1][j - 1] for j in J) for i in I))


def random_rational(rng: random.Random, max_num: int = 5, max_den: int = 4) -> Fraction:
    return Fraction(rng.randint(1, max_num), rng.randint(1, max_den))


def random_positive_matrix(rng: random.Random, m: int, n: int) -> Matrix:
    return Matrix([[random_rational(rng) for _ in range(n)] for _ in range(m)])


def path_sum_matrix(T: Matrix, orientation: Orientation) -> Matrix:
    """Entry (i, j) is the sum of the weights of all paths i -> j in the
    scaffolding graph over T; exponential, test-only."""
    g = build_graph(T, orientation)
    return Matrix(
        [
            [sum(path_weight(g, p) for p in enumerate_paths(g, i, j)) for j in range(1, T.cols + 1)]
            for i in range(1, T.rows + 1)
        ]
    )


def random_tp_matrix(rng: random.Random, m: int, n: int) -> Matrix:
    """TP by construction: path-sum matrix of positive weights."""
    return path_sum_matrix(random_positive_matrix(rng, m, n), Orientation.GAMMA)


def rot180(A: Matrix) -> Matrix:
    return A.transpose().anti_transpose()
