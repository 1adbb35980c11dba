"""Inserting a new interior row (or column) into a totally positive matrix.

Splitting X between rows k and k+1 gives an upper block X1 and a lower
block X2.  A row that can sit between them is simultaneously a border
above X2 (with weights ``below``), a border below X1 (with weights
``above``), and consistent with the scaffold-prefix matrix of X (with
weights ``prefix``).  Eliminating the row entries leaves a homogeneous
linear system in the 3n weights whose coefficient matrices are triangular
with unit diagonal; any strongly positive solution yields a TP completion,
and one always exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .bordering import _rotated
from .cauchon import _lift, gamma_scaffold
from .graph import Orientation, matrix_from_scaffold
from .matrix import Matrix, NotTotallyPositive

__all__ = [
    "InsertionSystem",
    "InsertionSolution",
    "SolutionCheck",
    "scaffold_prefix_matrix",
    "build_insertion_system",
    "solution_from_prefix_weights",
    "affine_above_forms",
    "solve_strongly_positive",
    "verify_solution",
    "insert_row",
    "insert_column",
]


def scaffold_prefix_matrix(X: Matrix, k: int) -> Matrix:
    """The matrix whose Gamma scaffolding is the first k scaffold rows of X:
    the restoration of that truncated scaffolding.  Raises
    NotTotallyPositive when X is not TP."""
    m = X.rows
    if not 1 <= k <= m:
        raise IndexError(f"row count {k} outside 1..{m}")
    T = gamma_scaffold(X)
    return matrix_from_scaffold(T.take_rows(1, k), Orientation.GAMMA)


@dataclass(frozen=True)
class InsertionSystem:
    """The 2n homogeneous balance equations for inserting after row k.

    below_coeffs is upper-triangular and above_coeffs / prefix_coeffs are
    lower-triangular, all with unit diagonal and positive entries where
    defined.  Equation set 1: below_coeffs * below == above_coeffs * above
    (the common value is the inserted row).  Equation set 2: below ==
    prefix_coeffs * prefix.
    """

    n: int
    k: int
    below_coeffs: Matrix
    above_coeffs: Matrix
    prefix_coeffs: Matrix
    prefix_matrix: Matrix


def _coefficients(T: Matrix) -> Matrix:
    """Row j, column l: the weight-l coefficient of entry j in a row bordered
    above the block whose Gamma scaffolding is T.  That row is its weights
    lifted over T, linear in them, so column l is the unit row e_l lifted."""
    columns = [[int(j == l) for j in range(T.cols)] for l in range(T.cols)]
    for x in columns:
        _lift(x, T.entries)
    return Matrix(zip(*columns))


def build_insertion_system(X: Matrix, k: int) -> InsertionSystem:
    """Assemble the balance equations for inserting a row after row k."""
    m, n = X.rows, X.cols
    if m < 2:
        raise ValueError("row insertion requires at least two rows")
    if not 1 <= k <= m - 1:
        raise IndexError(f"insertion position {k} outside 1..{m - 1}")
    T = gamma_scaffold(X)
    prefix_matrix = matrix_from_scaffold(T.take_rows(1, k), Orientation.GAMMA)
    # Gamma entry (i, j) depends only on rows i.. of X, so the lower block's
    # scaffolding is the tail of T
    below_coeffs = _coefficients(T.take_rows(k + 1, m))
    # a row bordered below a block is a row bordered above the block turned
    # by 180°, so its coefficients are those turned back
    above_coeffs = _rotated(_coefficients(gamma_scaffold(_rotated(X.take_rows(1, k)))))
    prefix_coeffs = _rotated(_coefficients(gamma_scaffold(_rotated(prefix_matrix))))
    return InsertionSystem(n, k, below_coeffs, above_coeffs, prefix_coeffs, prefix_matrix)


@dataclass(frozen=True)
class InsertionSolution:
    """A solution of the balance equations; ``inserted_row`` is the common
    value of equation set 1."""

    below_weights: tuple
    above_weights: tuple
    prefix_weights: tuple
    inserted_row: tuple


def _matvec(M: Matrix, v: Sequence) -> tuple:
    return tuple(
        sum((M[i, j] * v[j - 1] for j in range(1, M.cols + 1)), start=Fraction(0))
        for i in range(1, M.rows + 1)
    )


def _forward_substitute(L: Matrix, rhs: Sequence) -> tuple:
    # L is lower-triangular with unit diagonal.
    out = []
    for j in range(1, L.rows + 1):
        acc = rhs[j - 1]
        for i in range(1, j):
            acc -= L[j, i] * out[i - 1]
        out.append(acc)
    return tuple(out)


def solution_from_prefix_weights(system: InsertionSystem, prefix_weights: Sequence) -> InsertionSolution:
    """The unique solution extending given prefix weights; purely linear, no
    positivity requirement (useful for exploring the solution family)."""
    prefix = tuple(Fraction(v) for v in prefix_weights)
    if len(prefix) != system.n:
        raise ValueError(f"expected {system.n} prefix weights, got {len(prefix)}")
    below = _matvec(system.prefix_coeffs, prefix)
    inserted = _matvec(system.below_coeffs, below)
    above = _forward_substitute(system.above_coeffs, inserted)
    return InsertionSolution(below, above, prefix, inserted)


def affine_above_forms(system: InsertionSystem) -> Tuple[tuple, tuple]:
    """(alphas, betas) with above_weights = alphas + betas * t along the
    line prefix_weights = (1, ..., 1, t); every beta is positive."""
    n = system.n
    base = solution_from_prefix_weights(system, (1,) * (n - 1) + (0,))
    direction = solution_from_prefix_weights(system, (0,) * (n - 1) + (1,))
    return base.above_weights, direction.above_weights


def solve_strongly_positive(system: InsertionSystem) -> InsertionSolution:
    """Deterministic strongly positive witness: all prefix weights 1 except
    the last, which is the smallest value >= 1 making every above weight
    >= 1 where its base form is non-positive."""
    n = system.n
    alphas, betas = affine_above_forms(system)
    if any(b <= 0 for b in betas):
        raise NotTotallyPositive("direction weights are not positive; input is not totally positive")
    t = Fraction(1)
    for a, b in zip(alphas, betas):
        if a <= 0:
            t = max(t, (1 - a) / b)
    solution = solution_from_prefix_weights(system, (1,) * (n - 1) + (t,))
    check = verify_solution(
        system, solution.below_weights, solution.above_weights, solution.prefix_weights
    )
    if not check.ok:
        raise NotTotallyPositive(check.detail)
    return solution


@dataclass(frozen=True)
class SolutionCheck:
    """Equation-by-equation verdict; ``equation`` is (set, index) for the
    first violated balance equation, with set 1 the below/above balance and
    set 2 the below/prefix balance."""

    ok: bool
    detail: str = ""
    equation: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.ok


def verify_solution(
    system: InsertionSystem,
    below_weights: Sequence,
    above_weights: Sequence,
    prefix_weights: Sequence,
) -> SolutionCheck:
    """Check strong positivity and both equation sets exactly."""
    vectors = {
        "below": tuple(Fraction(v) for v in below_weights),
        "above": tuple(Fraction(v) for v in above_weights),
        "prefix": tuple(Fraction(v) for v in prefix_weights),
    }
    for name, vec in vectors.items():
        if len(vec) != system.n:
            raise ValueError(f"expected {system.n} {name} weights, got {len(vec)}")
    for name, vec in vectors.items():
        for idx, v in enumerate(vec, start=1):
            if v <= 0:
                return SolutionCheck(False, f"{name} weight {idx} = {v} is not positive")
    lhs = _matvec(system.below_coeffs, vectors["below"])
    rhs = _matvec(system.above_coeffs, vectors["above"])
    for j in range(1, system.n + 1):
        if lhs[j - 1] != rhs[j - 1]:
            return SolutionCheck(
                False,
                f"equation {j} of set 1: {lhs[j - 1]} != {rhs[j - 1]}",
                equation=(1, j),
            )
    rhs2 = _matvec(system.prefix_coeffs, vectors["prefix"])
    for j in range(1, system.n + 1):
        if vectors["below"][j - 1] != rhs2[j - 1]:
            return SolutionCheck(
                False,
                f"equation {j} of set 2: {vectors['below'][j - 1]} != {rhs2[j - 1]}",
                equation=(2, j),
            )
    return SolutionCheck(True)


def _resolve_witness(system: InsertionSystem, witness) -> InsertionSolution:
    if isinstance(witness, InsertionSolution):
        below, above, prefix = (
            witness.below_weights,
            witness.above_weights,
            witness.prefix_weights,
        )
    else:
        below, above, prefix = witness
    below = tuple(Fraction(v) for v in below)
    above = tuple(Fraction(v) for v in above)
    prefix = tuple(Fraction(v) for v in prefix)
    check = verify_solution(system, below, above, prefix)
    if not check.ok:
        raise ValueError(f"invalid insertion witness: {check.detail}")
    return InsertionSolution(below, above, prefix, _matvec(system.below_coeffs, below))


def insert_row(X: Matrix, k: int, witness=None) -> Matrix:
    """TP completion of X with a new row between rows k and k+1.

    With no witness the deterministic solver picks one; a witness is a
    (below, above, prefix) weight triple (or an InsertionSolution) and is
    verified before use.
    """
    system = build_insertion_system(X, k)
    if witness is None:
        solution = solve_strongly_positive(system)
    else:
        solution = _resolve_witness(system, witness)
    return X.with_row_inserted(k + 1, solution.inserted_row)


def insert_column(X: Matrix, k: int, witness=None) -> Matrix:
    """TP completion of X with a new column between columns k and k+1;
    reduces to row insertion on the transpose, so a witness is a weight
    triple of length ``X.rows``."""
    return insert_row(X.transpose(), k, witness).transpose()
