"""Bordering a totally positive matrix by a new outer row or column.

A border is constructed in scaffold coordinates: append the positive
parameter vector to the appropriate side of the appropriate scaffolding and
reconstruct.  The result is again totally positive, contains the input as
the complementary block, and the parameters can be read back off the
bordered matrix's scaffolding.  The new entries are positive linear
combinations of the parameters whose coefficients are contiguous-minor
ratios of the input.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Sequence

from .cauchon import gamma_scaffold, le_scaffold
from .graph import Orientation, matrix_from_scaffold
from .matrix import Matrix, det, leading_with_prefix

__all__ = [
    "BorderSide",
    "border",
    "border_above",
    "border_below",
    "border_left",
    "border_right",
    "border_above_coefficient",
    "border_below_coefficient",
    "recover_border_params",
]


class BorderSide(Enum):
    ABOVE = "above"
    BELOW = "below"
    LEFT = "left"
    RIGHT = "right"


def _check_params(values: Sequence, length: int) -> tuple:
    params = tuple(Fraction(v) for v in values)
    if len(params) != length:
        raise ValueError(f"expected {length} border parameters, got {len(params)}")
    if any(v <= 0 for v in params):
        raise ValueError("border parameters must be strictly positive")
    return params


def _rotated(X: Matrix) -> Matrix:
    """X turned by 180°: entry (i, j) moves to (m+1-i, n+1-j)."""
    return Matrix(row[::-1] for row in reversed(X.entries))


def border_above(X: Matrix, params: Sequence) -> Matrix:
    """New TP matrix whose rows 2.. equal X: prepend ``params`` as the first
    row of the Gamma scaffolding and reconstruct."""
    params = _check_params(params, X.cols)
    T = gamma_scaffold(X)
    return matrix_from_scaffold(T.with_row_inserted(1, params), Orientation.GAMMA)


def border_below(X: Matrix, params: Sequence) -> Matrix:
    """New TP matrix whose rows 1..m equal X: append ``params`` as the last
    row of the Le scaffolding and reconstruct."""
    params = _check_params(params, X.cols)
    L = le_scaffold(X)
    return matrix_from_scaffold(L.with_row_inserted(X.rows + 1, params), Orientation.LE)


def border_left(X: Matrix, params: Sequence) -> Matrix:
    """Border by a new first column; reduces to border_above of the transpose."""
    return border_above(X.transpose(), params).transpose()


def border_right(X: Matrix, params: Sequence) -> Matrix:
    """Border by a new last column; reduces to border_below of the transpose."""
    return border_below(X.transpose(), params).transpose()


def border(X: Matrix, side: BorderSide, params: Sequence) -> Matrix:
    if side is BorderSide.ABOVE:
        return border_above(X, params)
    if side is BorderSide.BELOW:
        return border_below(X, params)
    if side is BorderSide.LEFT:
        return border_left(X, params)
    if side is BorderSide.RIGHT:
        return border_right(X, params)
    raise ValueError(f"unknown border side {side!r}")


def border_above_coefficient(X: Matrix, j: int, col: int) -> Fraction:
    """Coefficient of the col-th parameter in entry j of a row bordered
    above: det X[{1,2..}, {j, col+1..}] / det X[{1,2..}, {col, col+1..}]
    (nonzero only for col >= j)."""
    m, n = X.rows, X.cols
    if not (1 <= j <= n and 1 <= col <= n):
        raise IndexError(f"arguments ({j},{col}) outside 1..{n}")
    if col < j:
        return Fraction(0)
    num = det(leading_with_prefix(X, 1, 2, j, col + 1))
    den = det(leading_with_prefix(X, 1, 2, col, col + 1))
    if den == 0:
        raise ZeroDivisionError("denominator minor vanishes; input is not totally positive")
    return num / den


def border_below_coefficient(X: Matrix, i: int, j: int) -> Fraction:
    """Coefficient of the i-th parameter in entry j of a row bordered
    below: det X[{..m-1, m}, {..i-1, j}] / det X[{..m-1, m}, {..i-1, i}]
    (nonzero only for i <= j).  This is the above coefficient of the 180°
    rotation of X, read at the rotated positions; rotating reverses the
    rows and the columns, so no minor changes sign."""
    n = X.cols
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexError(f"arguments ({i},{j}) outside 1..{n}")
    return border_above_coefficient(_rotated(X), n + 1 - j, n + 1 - i)


def recover_border_params(bordered: Matrix, side: BorderSide) -> tuple:
    """Read the border parameters back off a bordered TP matrix: the outer
    line of the scaffolding oriented so that line was appended last."""
    if side is BorderSide.ABOVE:
        return gamma_scaffold(bordered).row(1)
    if side is BorderSide.BELOW:
        return le_scaffold(bordered).row(bordered.rows)
    if side is BorderSide.LEFT:
        return gamma_scaffold(bordered).column(1)
    if side is BorderSide.RIGHT:
        return le_scaffold(bordered).column(bordered.cols)
    raise ValueError(f"unknown border side {side!r}")
