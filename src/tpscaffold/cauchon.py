"""Cauchon's deleting-derivations elimination and scaffolding extraction.

The Gamma version visits pivots in reverse-lexicographic order starting at
(m, n); the pivot (i, j) subtracts x[k,j] * x[i,j]^-1 * x[i,l] from x[k,l]
for all k < i, l < j.  The Le version visits pivots in column-major order
starting at (1, 1) and updates the region k > i, l > j.  On a totally
positive input every pivot is nonzero, every intermediate matrix stays
strictly positive, and the final matrix is the scaffolding whose path-sum
reconstruction returns the input.  Restoration walks the same pivots in
reverse and adds the terms elimination subtracted; it is the exact inverse
and reconstructs a matrix from its scaffolding in polynomial time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import List, Optional

from .matrix import Matrix, NotTotallyPositive, det, leading_contiguous, minor

__all__ = [
    "StepOrder",
    "ZeroPivot",
    "TraceStep",
    "CauchonTrace",
    "PartialTPResult",
    "gamma_scaffold",
    "le_scaffold",
    "gamma_intermediate",
    "le_intermediate",
    "cauchon_trace",
    "scaffold_entry_from_minors",
    "partial_tp_check",
    "PARTIAL_TP_MINOR_LIMIT",
]


class StepOrder(Enum):
    REVERSE_LEX = "reverse-lex"
    COL_MAJOR = "col-major"


class ZeroPivot(NotTotallyPositive):
    """A pivot entry vanished mid-elimination; carries the pivot position."""

    def __init__(self, position):
        super().__init__(f"zero pivot at {position}; input is not totally positive")
        self.position = position


def _pivots(order: StepOrder, m: int, n: int):
    """The effective pivots of ``order`` in elimination order, each with its
    update region as 0-based row and column ranges.  A pivot's own row and
    column lie outside its region, so the pivot row and column are final
    once the pivot is applied and every step can be undone exactly."""
    if order is StepOrder.REVERSE_LEX:
        # (i, 1) and (1, j) are skipped: their regions k < i, l < j are empty.
        for i in range(m, 1, -1):
            for j in range(n, 1, -1):
                yield (i, j), range(i - 1), range(j - 1)
    else:
        # (m, j) and (i, n) are skipped: their regions k > i, l > j are empty.
        for j in range(1, n):
            for i in range(1, m):
                yield (i, j), range(i, m), range(j, n)


def _precedes(order: StepOrder, p, q) -> bool:
    if order is StepOrder.REVERSE_LEX:
        return (-p[0], -p[1]) < (-q[0], -q[1])
    return (p[1], p[0]) < (q[1], q[0])


def _pivot(grid: list, position, rows: range, cols: range, sign: int) -> bool:
    """x[k,l] += sign * x[k,j] * x[i,l] / x[i,j] over the region rows x cols.

    sign=-1 is one deleting-derivations step, sign=+1 restores it.  Returns
    whether any entry changed."""
    i, j = position
    row_i = grid[i - 1]
    pivot = row_i[j - 1]
    if pivot == 0:
        raise ZeroPivot(position)
    changed = False
    for k in rows:
        row_k = grid[k]
        factor = sign * row_k[j - 1] / pivot
        if factor == 0:
            continue
        for l in cols:
            delta = factor * row_i[l]
            if delta:
                row_k[l] += delta
                changed = True
    return changed


def _eliminate(X: Matrix, order: StepOrder, before=None) -> Matrix:
    """Apply the pivots of ``order`` to X, all of them or those strictly
    before the position ``before``."""
    grid = [list(row) for row in X.entries]
    for position, rows, cols in _pivots(order, X.rows, X.cols):
        if before is not None and not _precedes(order, position, before):
            break
        _pivot(grid, position, rows, cols, -1)
    return Matrix(grid)


def _restore(T: Matrix, order: StepOrder) -> Matrix:
    """The exact inverse of the full elimination: undo the pivots of
    ``order`` in reverse.  On strictly positive weights every update adds a
    positive term, so no pivot vanishes and the result is the path-sum
    matrix of the scaffolding."""
    grid = [list(row) for row in T.entries]
    for position, rows, cols in reversed(list(_pivots(order, T.rows, T.cols))):
        _pivot(grid, position, rows, cols, 1)
    return Matrix(grid)


def _check_positive_output(T: Matrix) -> Matrix:
    for i in range(1, T.rows + 1):
        for j in range(1, T.cols + 1):
            if T[i, j] <= 0:
                raise NotTotallyPositive(
                    f"scaffolding entry ({i},{j}) = {T[i, j]} is not positive; "
                    "input is not totally positive"
                )
    return T


def gamma_scaffold(X: Matrix) -> Matrix:
    """Run the Gamma elimination to completion and return the scaffolding.

    Raises NotTotallyPositive (or its ZeroPivot subclass) when the run
    proves the input is not TP: a vanishing pivot or a non-positive output
    entry.  Success certifies total positivity.
    """
    if X.rows == 0:
        raise ValueError("scaffolding is undefined for the empty matrix")
    return _check_positive_output(_eliminate(X, StepOrder.REVERSE_LEX))


def le_scaffold(X: Matrix) -> Matrix:
    """Run the Le elimination to completion and return the Le scaffolding."""
    if X.rows == 0:
        raise ValueError("scaffolding is undefined for the empty matrix")
    return _check_positive_output(_eliminate(X, StepOrder.COL_MAJOR))


def _intermediate(X: Matrix, position, order: StepOrder) -> Matrix:
    i, j = position
    if not (1 <= i <= X.rows and 1 <= j <= X.cols):
        raise IndexError(f"position {position} outside {X.rows}x{X.cols} matrix")
    return _eliminate(X, order, before=(i, j))


def gamma_intermediate(X: Matrix, position) -> Matrix:
    """The elimination state with every pivot strictly before ``position``
    (in reverse-lex order) already applied."""
    return _intermediate(X, position, StepOrder.REVERSE_LEX)


def le_intermediate(X: Matrix, position) -> Matrix:
    """The elimination state with every pivot strictly before ``position``
    (in column-major order) already applied."""
    return _intermediate(X, position, StepOrder.COL_MAJOR)


@dataclass(frozen=True)
class TraceStep:
    """A recorded elimination state: ``matrix`` is the state once every
    pivot strictly before ``position`` has been applied."""

    position: tuple
    matrix: Matrix


@dataclass(frozen=True)
class CauchonTrace:
    order: StepOrder
    steps: tuple

    @property
    def initial(self) -> Matrix:
        return self.steps[0].matrix

    @property
    def final(self) -> Matrix:
        return self.steps[-1].matrix


def cauchon_trace(X: Matrix, order: StepOrder) -> CauchonTrace:
    """Record the elimination pass-through states.

    The first step is the input labeled with the first pivot position; each
    pivot that changes the matrix records the new state labeled with the
    pivot's successor in the step order.  No-op pivots are collapsed.
    """
    if X.rows == 0:
        raise ValueError("trace is undefined for the empty matrix")
    m, n = X.rows, X.cols
    if order is StepOrder.REVERSE_LEX:
        first, (di, dj) = (m, n), (0, -1)  # effective pivots have j >= 2
    elif order is StepOrder.COL_MAJOR:
        first, (di, dj) = (1, 1), (1, 0)  # effective pivots have i <= m-1
    else:
        raise ValueError(f"unknown step order {order!r}")
    grid = [list(row) for row in X.entries]
    steps: List[TraceStep] = [TraceStep(first, X)]
    for (i, j), rows, cols in _pivots(order, m, n):
        if _pivot(grid, (i, j), rows, cols, -1):
            steps.append(TraceStep((i + di, j + dj), Matrix(grid)))
    return CauchonTrace(order, tuple(steps))


def scaffold_entry_from_minors(X: Matrix, i: int, j: int) -> Fraction:
    """Gamma scaffolding entry (i, j) as the contiguous-minor ratio
    det X[{i..}, {j..}] / det X[{i+1..}, {j+1..}]."""
    if not (1 <= i <= X.rows and 1 <= j <= X.cols):
        raise IndexError(f"position ({i},{j}) outside {X.rows}x{X.cols} matrix")
    num = det(leading_contiguous(X, i, j))
    den = det(leading_contiguous(X, i + 1, j + 1))
    if den == 0:
        raise NotTotallyPositive(
            f"contiguous minor at ({i + 1},{j + 1}) vanishes; input is not totally positive"
        )
    return num / den


@dataclass(frozen=True)
class PartialTPResult:
    ok: bool
    step: Optional[tuple] = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


PARTIAL_TP_MINOR_LIMIT = 5


def _region(order: StepOrder, label, m: int, n: int) -> set:
    i, j = label
    if order is StepOrder.REVERSE_LEX:
        return {
            (k, l)
            for k in range(1, m + 1)
            for l in range(1, n + 1)
            if k < i or (k == i and l <= j)
        }
    return {
        (k, l)
        for k in range(1, m + 1)
        for l in range(1, n + 1)
        if l > j or (l == j and k >= i)
    }


def partial_tp_check(trace: CauchonTrace) -> PartialTPResult:
    """Verify the partial total positivity of every trace state.

    Every recorded matrix must be entrywise positive, and (for matrices
    with min(m, n) <= 5) every square minor whose row-column rectangle lies
    inside the already-processed coordinate region of the step's label must
    be positive.  Returns the first violation found.
    """
    m, n = trace.initial.rows, trace.initial.cols
    enumerate_minors = min(m, n) <= PARTIAL_TP_MINOR_LIMIT
    for step in trace.steps:
        M = step.matrix
        for i in range(1, m + 1):
            for j in range(1, n + 1):
                if M[i, j] <= 0:
                    return PartialTPResult(
                        False, step.position, f"entry ({i},{j}) = {M[i, j]} is not positive"
                    )
        if not enumerate_minors:
            continue
        region = _region(trace.order, step.position, m, n)
        for k in range(2, min(m, n) + 1):
            for I in itertools.combinations(range(1, m + 1), k):
                for J in itertools.combinations(range(1, n + 1), k):
                    if all((a, b) in region for a in I for b in J):
                        v = minor(M, I, J)
                        if v <= 0:
                            return PartialTPResult(
                                False,
                                step.position,
                                f"minor[I={list(I)}; J={list(J)}] = {v} is not positive",
                            )
    return PartialTPResult(True)
