"""Cauchon's deleting-derivations elimination and scaffolding extraction.

One pivot schedule serves both orientations.  The Gamma elimination visits
pivots in reverse-lexicographic order starting at (m, n); the pivot (i, j)
subtracts x[k,j] * x[i,j]^-1 * x[i,l] from x[k,l] for all k < i, l < j.  On
a totally positive input every pivot is nonzero, every intermediate matrix
stays strictly positive, and the final matrix is the scaffolding whose
path-sum reconstruction returns the input.  Restoration walks the same
pivots in reverse and adds the terms elimination subtracted; it is the exact
inverse and reconstructs a matrix from its scaffolding in polynomial time.

The Le elimination is the mirror image: the Le scaffolding of X is the
anti-transpose of the Gamma scaffolding of X's anti-transpose.  Every Le
entry point therefore runs the Gamma schedule on an anti-transposed working
grid and maps back, matrices by anti-transpose and positions by
(i, j) <-> (n+1-j, m+1-i).  Seen from X, the Le pivots run in column-major
order from (1, 1) and update the region k > i, l > j.  Every position a
caller sees (pivots, trace labels, error messages) is in X's coordinates.
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


def _pivots(m: int, n: int):
    """The effective pivots in reverse-lex order, each with its update
    region k < i, l < j as 0-based row and column ranges.  (i, 1) and (1, j)
    are skipped: their regions are empty.  A pivot's own row and column lie
    outside its region, so the pivot row and column are final once the pivot
    is applied and every step can be undone exactly."""
    for i in range(m, 1, -1):
        for j in range(n, 1, -1):
            yield (i, j), range(i - 1), range(j - 1)


def _mirror(position, m: int, n: int) -> tuple:
    """Where entry ``position`` of an m x n matrix sits in its anti-transpose."""
    i, j = position
    return (n + 1 - j, m + 1 - i)


def _grid(rows, mirror: bool) -> list:
    """A list-of-lists copy of ``rows``, anti-transposed when ``mirror``."""
    if mirror:
        return [[row[j] for row in reversed(rows)] for j in reversed(range(len(rows[0])))]
    return [list(row) for row in rows]


def _pivot(grid: list, position, rows: range, cols: range, sign: int, mirror: bool) -> bool:
    """x[k,l] += sign * x[k,j] * x[i,l] / x[i,j] over the region rows x cols.

    sign=-1 is one deleting-derivations step, sign=+1 restores it.  Returns
    whether any entry changed.  A zero pivot raises ZeroPivot at its
    position in the caller's coordinates: mapped back when ``mirror`` says
    the grid is anti-transposed."""
    i, j = position
    row_i = grid[i - 1]
    pivot = row_i[j - 1]
    if pivot == 0:
        raise ZeroPivot(_mirror(position, len(grid), len(row_i)) if mirror else position)
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


def _eliminate(X: Matrix, mirror: bool, before=None) -> Matrix:
    """Apply the pivots to X, all of them or those strictly before the
    position ``before`` of X; to the anti-transpose of X when ``mirror``."""
    grid = _grid(X.entries, mirror)
    if before is not None and mirror:
        before = _mirror(before, X.rows, X.cols)
    for position, rows, cols in _pivots(len(grid), len(grid[0])):
        # in reverse-lex order p comes before q exactly when p > q as tuples
        if before is not None and position <= before:
            break
        _pivot(grid, position, rows, cols, -1, mirror)
    return Matrix(_grid(grid, mirror))


def _restore(T: Matrix, mirror: bool) -> Matrix:
    """The exact inverse of the full elimination: undo the pivots in
    reverse.  On strictly positive weights every update adds a positive
    term, so no pivot vanishes and the result is the path-sum matrix of the
    scaffolding (the Le one when ``mirror``)."""
    grid = _grid(T.entries, mirror)
    for position, rows, cols in reversed(list(_pivots(len(grid), len(grid[0])))):
        _pivot(grid, position, rows, cols, 1, mirror)
    return Matrix(_grid(grid, mirror))


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
    return _check_positive_output(_eliminate(X, mirror=False))


def le_scaffold(X: Matrix) -> Matrix:
    """Run the Le elimination to completion and return the Le scaffolding:
    the Gamma elimination of the anti-transpose, mirrored back."""
    if X.rows == 0:
        raise ValueError("scaffolding is undefined for the empty matrix")
    return _check_positive_output(_eliminate(X, mirror=True))


def _intermediate(X: Matrix, position, mirror: bool) -> Matrix:
    i, j = position
    if not (1 <= i <= X.rows and 1 <= j <= X.cols):
        raise IndexError(f"position {position} outside {X.rows}x{X.cols} matrix")
    return _eliminate(X, mirror, before=(i, j))


def gamma_intermediate(X: Matrix, position) -> Matrix:
    """The elimination state with every pivot strictly before ``position``
    (in reverse-lex order) already applied."""
    return _intermediate(X, position, mirror=False)


def le_intermediate(X: Matrix, position) -> Matrix:
    """The elimination state with every pivot strictly before ``position``
    (in column-major order) already applied."""
    return _intermediate(X, position, mirror=True)


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
    pivot's successor in the step order.  No-op pivots are collapsed.  The
    COL_MAJOR (Le) trace is the reverse-lex trace of the anti-transpose,
    with states and labels mirrored back.
    """
    if X.rows == 0:
        raise ValueError("trace is undefined for the empty matrix")
    if not isinstance(order, StepOrder):
        raise ValueError(f"unknown step order {order!r}")
    mirror = order is StepOrder.COL_MAJOR
    grid = _grid(X.entries, mirror)
    m, n = len(grid), len(grid[0])

    def label(position):
        return _mirror(position, m, n) if mirror else position

    steps: List[TraceStep] = [TraceStep(label((m, n)), X)]
    for (i, j), rows, cols in _pivots(m, n):
        if _pivot(grid, (i, j), rows, cols, -1, mirror):
            # effective pivots have j >= 2, so the successor (i, j-1) exists
            steps.append(TraceStep(label((i, j - 1)), Matrix(_grid(grid, mirror))))
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


def _region(label, m: int, n: int) -> set:
    """The positions lexicographically at most ``label``: ``label`` and
    every position after it in reverse-lex order."""
    return {(k, l) for k in range(1, m + 1) for l in range(1, n + 1) if (k, l) <= label}


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
        if trace.order is StepOrder.COL_MAJOR:
            # the Le region is the mirror of the Gamma one
            mirrored = _region(_mirror(step.position, m, n), n, m)
            region = {_mirror(p, n, m) for p in mirrored}
        else:
            region = _region(step.position, m, n)
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
