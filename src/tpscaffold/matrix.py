"""Exact rational matrices, minors, and total-positivity checks.

All arithmetic is exact: entries are ``fractions.Fraction`` and floats are
rejected on input, because deciding whether a minor is positive is
meaningless under rounding.  Rows and columns are indexed 1-based
throughout the package, matching the usual conventions for minors and
contiguous submatrices.

The 0x0 matrix is allowed and its determinant is 1; the contiguous
submatrix helpers return it when an anchor falls just outside the matrix,
which keeps the minor-ratio formulas uniform at the boundary.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence

Rational = Fraction

__all__ = [
    "Rational",
    "Matrix",
    "MatrixFormatError",
    "NotTotallyPositive",
    "TPVerdict",
    "submatrix",
    "minor",
    "det",
    "leading_contiguous",
    "trailing_contiguous",
    "leading_with_prefix",
    "trailing_with_suffix",
    "is_totally_positive",
    "parse_matrix",
    "format_matrix",
    "parse_matrix_json",
    "format_matrix_json",
]


class MatrixFormatError(ValueError):
    """Malformed matrix text or JSON input; carries a 1-based line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class NotTotallyPositive(ValueError):
    """An operation required a totally positive input and detected otherwise."""


def _coerce(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("float entries are not allowed; use int, str, or Fraction")
    return Fraction(value)


class Matrix:
    """Immutable dense matrix of exact rationals with 1-based indexing.

    Entries may be given as int, str ("7/2"), or Fraction; floats are
    rejected.  ``A[i, j]`` reads the entry in row i, column j (1-based).
    """

    __slots__ = ("_grid",)

    def __init__(self, rows: Iterable[Iterable] = ()):
        grid = tuple(tuple(_coerce(v) for v in row) for row in rows)
        if grid:
            width = len(grid[0])
            if width == 0 or any(len(r) != width for r in grid):
                raise ValueError("matrix rows must be nonempty and of equal length")
        object.__setattr__(self, "_grid", grid)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @property
    def rows(self) -> int:
        return len(self._grid)

    @property
    def cols(self) -> int:
        return len(self._grid[0]) if self._grid else 0

    @property
    def entries(self) -> tuple:
        return self._grid

    def __getitem__(self, key) -> Fraction:
        i, j = key
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise IndexError(f"entry ({i},{j}) outside {self.rows}x{self.cols} matrix")
        return self._grid[i - 1][j - 1]

    def row(self, i: int) -> tuple:
        if not 1 <= i <= self.rows:
            raise IndexError(f"row {i} outside {self.rows}x{self.cols} matrix")
        return self._grid[i - 1]

    def column(self, j: int) -> tuple:
        if not 1 <= j <= self.cols:
            raise IndexError(f"column {j} outside {self.rows}x{self.cols} matrix")
        return tuple(r[j - 1] for r in self._grid)

    def is_positive(self) -> bool:
        return all(v > 0 for r in self._grid for v in r)

    def transpose(self) -> "Matrix":
        return Matrix(zip(*self._grid)) if self._grid else Matrix(())

    def anti_transpose(self) -> "Matrix":
        """Reflect across the anti-diagonal: result[i,j] = self[m+1-j, n+1-i]."""
        m, n = self.rows, self.cols
        if not self._grid:
            return Matrix(())
        return Matrix(
            tuple(self._grid[m - j][n - i] for j in range(1, m + 1))
            for i in range(1, n + 1)
        )

    def with_row_inserted(self, pos: int, values: Sequence) -> "Matrix":
        """New matrix with ``values`` inserted as row ``pos`` (1 <= pos <= rows+1)."""
        if not 1 <= pos <= self.rows + 1:
            raise IndexError(f"row position {pos} outside 1..{self.rows + 1}")
        row = tuple(_coerce(v) for v in values)
        if self._grid and len(row) != self.cols:
            raise ValueError(f"row length {len(row)} != {self.cols}")
        return Matrix(self._grid[: pos - 1] + (row,) + self._grid[pos - 1 :])

    def with_column_inserted(self, pos: int, values: Sequence) -> "Matrix":
        if not 1 <= pos <= self.cols + 1:
            raise IndexError(f"column position {pos} outside 1..{self.cols + 1}")
        col = tuple(_coerce(v) for v in values)
        if self._grid and len(col) != self.rows:
            raise ValueError(f"column length {len(col)} != {self.rows}")
        return Matrix(
            r[: pos - 1] + (col[i],) + r[pos - 1 :] for i, r in enumerate(self._grid)
        )

    def without_row(self, i: int) -> "Matrix":
        if not 1 <= i <= self.rows:
            raise IndexError(f"row {i} outside {self.rows}x{self.cols} matrix")
        if self.rows == 1:
            raise ValueError("cannot delete the only row")
        return Matrix(self._grid[: i - 1] + self._grid[i:])

    def without_column(self, j: int) -> "Matrix":
        if not 1 <= j <= self.cols:
            raise IndexError(f"column {j} outside {self.rows}x{self.cols} matrix")
        if self.cols == 1:
            raise ValueError("cannot delete the only column")
        return Matrix(r[: j - 1] + r[j:] for r in self._grid)

    def take_rows(self, first: int, last: int) -> "Matrix":
        """Rows first..last inclusive, 1-based."""
        if not 1 <= first <= last <= self.rows:
            raise IndexError(f"row range {first}..{last} outside 1..{self.rows}")
        return Matrix(self._grid[first - 1 : last])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._grid == other._grid

    def __hash__(self) -> int:
        return hash(self._grid)

    def __repr__(self) -> str:
        return f"Matrix({[[str(v) for v in row] for row in self._grid]!r})"

    def __str__(self) -> str:
        return format_matrix(self)


def _index_set(values, dim: int, what: str, allow_empty: bool = False) -> tuple:
    idx = tuple(values)
    if not idx:
        if allow_empty:
            return idx
        raise ValueError(f"{what} index set must be nonempty")
    for v in idx:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"{what} indices must be integers, got {v!r}")
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise ValueError(f"{what} indices must be strictly increasing: {idx}")
    if idx[0] < 1 or idx[-1] > dim:
        raise IndexError(f"{what} indices {idx} outside 1..{dim}")
    return idx


def _select(A: Matrix, I: tuple, J: tuple) -> Matrix:
    grid = A.entries
    return Matrix(tuple(grid[i - 1][j - 1] for j in J) for i in I)


def submatrix(A: Matrix, I, J) -> Matrix:
    """A[I, J] for nonempty strictly increasing 1-based index sets."""
    return _select(A, _index_set(I, A.rows, "row"), _index_set(J, A.cols, "column"))


def _bareiss_int_det(a: list) -> int:
    # Fraction-free elimination; the // divisions are exact by Bareiss' identity.
    n = len(a)
    sign = 1
    prev = 1
    for col in range(n - 1):
        piv = col
        while piv < n and a[piv][col] == 0:
            piv += 1
        if piv == n:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        pk = a[col][col]
        for r in range(col + 1, n):
            for c in range(col + 1, n):
                a[r][c] = (a[r][c] * pk - a[r][col] * a[col][c]) // prev
            a[r][col] = 0
        prev = pk
    return sign * a[-1][-1]


def _det_grid(grid) -> Fraction:
    k = len(grid)
    if k == 0:
        return Fraction(1)
    scale = 1
    int_rows = []
    for row in grid:
        mult = 1
        for v in row:
            mult = lcm(mult, v.denominator)
        scale *= mult
        int_rows.append([int(v * mult) for v in row])
    return Fraction(_bareiss_int_det(int_rows), scale)


def minor(A: Matrix, I, J) -> Fraction:
    """det A[I, J]; the empty minor (I = J = ()) is 1 by convention."""
    I = _index_set(I, A.rows, "row", allow_empty=True)
    J = _index_set(J, A.cols, "column", allow_empty=True)
    if len(I) != len(J):
        raise ValueError(f"index sets must have equal size: {len(I)} != {len(J)}")
    grid = A.entries
    return _det_grid([[grid[i - 1][j - 1] for j in J] for i in I])


def det(A: Matrix) -> Fraction:
    if A.rows != A.cols:
        raise ValueError(f"determinant requires a square matrix, got {A.rows}x{A.cols}")
    return _det_grid(A.entries)


def leading_contiguous(A: Matrix, i: int, j: int) -> Matrix:
    """Largest contiguous square submatrix with top-left corner (i, j).

    Index sets {i..i+k} x {j..j+k}, k = min(rows-i, cols-j).  i = rows+1 or
    j = cols+1 yields the 0x0 matrix (whose determinant is 1).
    """
    m, n = A.rows, A.cols
    if not (1 <= i <= m + 1 and 1 <= j <= n + 1):
        raise IndexError(f"corner ({i},{j}) outside 1..{m + 1} x 1..{n + 1}")
    if i > m or j > n:
        return Matrix(())
    k = min(m - i, n - j)
    return _select(A, tuple(range(i, i + k + 1)), tuple(range(j, j + k + 1)))


def trailing_contiguous(A: Matrix, i: int, j: int) -> Matrix:
    """Largest contiguous square submatrix with bottom-right corner (i, j).

    Index sets {i-k..i} x {j-k..j}, k = min(i-1, j-1).  i = 0 or j = 0
    yields the 0x0 matrix.
    """
    m, n = A.rows, A.cols
    if not (0 <= i <= m and 0 <= j <= n):
        raise IndexError(f"corner ({i},{j}) outside 0..{m} x 0..{n}")
    if i == 0 or j == 0:
        return Matrix(())
    k = min(i - 1, j - 1)
    return _select(A, tuple(range(i - k, i + 1)), tuple(range(j - k, j + 1)))


def leading_with_prefix(A: Matrix, i0: int, i: int, j0: int, j: int) -> Matrix:
    """A[{i0} u {i..i+k}, {j0} u {j..j+k}] with the shared k = min(rows-i, cols-j).

    The prefix indices (i0, j0) must lie strictly before their continuation
    starts.  If either continuation would overflow (k < 0) both degenerate,
    leaving the 1x1 matrix [A[i0, j0]]; this keeps the selection square.
    """
    m, n = A.rows, A.cols
    if not (1 <= i0 <= m and 1 <= j0 <= n):
        raise IndexError(f"prefix ({i0},{j0}) outside 1..{m} x 1..{n}")
    if not (i0 < i <= m + 1 and j0 < j <= n + 1):
        raise ValueError(f"continuation ({i},{j}) must follow prefix ({i0},{j0})")
    k = min(m - i, n - j)
    if k < 0:
        return _select(A, (i0,), (j0,))
    return _select(
        A, (i0,) + tuple(range(i, i + k + 1)), (j0,) + tuple(range(j, j + k + 1))
    )


def trailing_with_suffix(A: Matrix, i: int, i0: int, j: int, j0: int) -> Matrix:
    """A[{i-k..i} u {i0}, {j-k..j} u {j0}] with the shared k = min(i-1, j-1).

    The suffix indices (i0, j0) must lie strictly after their continuation
    ends; i = 0 or j = 0 degenerates both continuations to the 1x1 matrix
    [A[i0, j0]].
    """
    m, n = A.rows, A.cols
    if not (1 <= i0 <= m and 1 <= j0 <= n):
        raise IndexError(f"suffix ({i0},{j0}) outside 1..{m} x 1..{n}")
    if not (0 <= i < i0 and 0 <= j < j0):
        raise ValueError(f"continuation ({i},{j}) must precede suffix ({i0},{j0})")
    k = min(i - 1, j - 1)
    if k < 0:
        return _select(A, (i0,), (j0,))
    return _select(
        A, tuple(range(i - k, i + 1)) + (i0,), tuple(range(j - k, j + 1)) + (j0,)
    )


@dataclass(frozen=True)
class TPVerdict:
    """Outcome of a total-positivity check.

    ``witness`` is a pair of index sets whose minor ``witness_value`` is not
    positive; both methods provide one on failure.  The exhaustive check
    reports the first non-positive minor in order of size; the fast check a
    non-positive entry, or else the contiguous block leading_contiguous(A,
    i, j) at the first zero pivot or non-positive scaffolding entry (i, j).
    """

    is_tp: bool
    witness: Optional[tuple] = None
    witness_value: Optional[Fraction] = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.is_tp


EXHAUSTIVE_SIZE_LIMIT = 8


def _not_tp(I: tuple, J: tuple, value: Fraction) -> TPVerdict:
    reason = f"minor[I={list(I)}; J={list(J)}] = {value}"
    return TPVerdict(False, witness=(I, J), witness_value=value, reason=reason)


def is_totally_positive(A: Matrix, method: str = "exhaustive", force: bool = False) -> TPVerdict:
    """Decide whether every square minor of A is strictly positive.

    method="exhaustive" enumerates all square index-set pairs in order of
    size (refused for min(rows, cols) > 8 unless force=True) and reports the
    first non-positive minor as a witness.  method="fast" runs the Gamma
    deleting-derivations elimination: A is TP iff no pivot vanishes and the
    final matrix is strictly positive.  Every step is invertible, so A is the
    restoration of that positive scaffolding, whose path sums are TP.  Its
    entry (i, j) is det A[i.., j..] / det A[i+1.., j+1..], so the contiguous
    minor at a zero pivot (i, j) vanishes, and the one at the first
    non-positive entry (i, j) in reverse-lex order is not positive (the
    diagonal entries after it are positive pivots).
    """
    if A.rows == 0:
        raise ValueError("total positivity is undefined for the empty matrix")
    m, n = A.rows, A.cols
    if method == "exhaustive":
        if min(m, n) > EXHAUSTIVE_SIZE_LIMIT and not force:
            raise ValueError(
                f"exhaustive check refused for min(m,n) > {EXHAUSTIVE_SIZE_LIMIT}; "
                "pass force=True to override"
            )
        for k in range(1, min(m, n) + 1):
            for I in itertools.combinations(range(1, m + 1), k):
                for J in itertools.combinations(range(1, n + 1), k):
                    v = minor(A, I, J)
                    if v <= 0:
                        return _not_tp(I, J, v)
        return TPVerdict(True)
    if method == "fast":
        for i in range(1, m + 1):
            for j in range(1, n + 1):
                v = A[i, j]
                if v <= 0:
                    return TPVerdict(
                        False,
                        witness=((i,), (j,)),
                        witness_value=v,
                        reason=f"entry ({i},{j}) = {v}",
                    )
        from .cauchon import ZeroPivot, _eliminate

        try:
            T = _eliminate(A, mirror=False)
        except ZeroPivot as exc:
            i, j = exc.position
        else:
            bad = [(i, j) for i in range(m, 0, -1) for j in range(n, 0, -1) if T[i, j] <= 0]
            if not bad:
                return TPVerdict(True)
            i, j = bad[0]
        k = min(m - i, n - j)
        I, J = tuple(range(i, i + k + 1)), tuple(range(j, j + k + 1))
        return _not_tp(I, J, minor(A, I, J))
    raise ValueError(f"unknown method {method!r}; expected 'exhaustive' or 'fast'")


_TOKEN_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


def _parse_token(token: str, line: Optional[int], pos: int) -> Fraction:
    match = _TOKEN_RE.match(token)
    if match is None:
        raise MatrixFormatError(f"token {pos}: invalid rational {token!r}", line=line)
    num = int(match.group(1))
    den = match.group(2)
    if den is None:
        return Fraction(num)
    if int(den) == 0:
        raise MatrixFormatError(f"token {pos}: zero denominator in {token!r}", line=line)
    return Fraction(num, int(den))


def parse_matrix(text: str) -> Matrix:
    """Parse the plain text format: a header line "m n", then m rows of n
    whitespace-separated tokens, each "p" or "p/q" with q > 0."""
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise MatrixFormatError("empty input", line=1)
    header = lines[0].split()
    if len(header) != 2:
        raise MatrixFormatError(f"header must be 'm n', got {lines[0]!r}", line=1)
    try:
        m, n = int(header[0]), int(header[1])
    except ValueError:
        raise MatrixFormatError(f"header must be two integers, got {lines[0]!r}", line=1)
    if m < 1 or n < 1:
        raise MatrixFormatError(f"dimensions must be positive, got {m} {n}", line=1)
    if len(lines) - 1 < m:
        raise MatrixFormatError(f"expected {m} matrix rows, found {len(lines) - 1}", line=len(lines) + 1)
    if len(lines) - 1 > m:
        raise MatrixFormatError(f"unexpected content after row {m}", line=m + 2)
    rows = []
    for r in range(1, m + 1):
        tokens = lines[r].split()
        if len(tokens) != n:
            raise MatrixFormatError(
                f"matrix row {r} has {len(tokens)} tokens, expected {n}", line=r + 1
            )
        rows.append([_parse_token(tok, r + 1, c + 1) for c, tok in enumerate(tokens)])
    return Matrix(rows)


def format_matrix(A: Matrix) -> str:
    """Serialize to the text format in canonical form (reduced, q > 0)."""
    if A.rows == 0:
        raise ValueError("cannot serialize the empty matrix")
    body = "\n".join(" ".join(str(v) for v in row) for row in A.entries)
    return f"{A.rows} {A.cols}\n{body}\n"


def parse_matrix_json(text: str) -> Matrix:
    """Parse the JSON mirror: {"rows": m, "cols": n, "entries": [[...], ...]}
    with entries given as integers or "p/q" strings."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or set(data) != {"rows", "cols", "entries"}:
        raise MatrixFormatError('JSON matrix must have exactly the keys "rows", "cols", "entries"')
    m, n, entries = data["rows"], data["cols"], data["entries"]
    if not all(isinstance(d, int) and not isinstance(d, bool) for d in (m, n)) or m < 1 or n < 1:
        raise MatrixFormatError(f"dimensions must be positive integers, got {m!r} {n!r}")
    if not isinstance(entries, list) or len(entries) != m:
        raise MatrixFormatError(f"expected {m} entry rows")
    rows = []
    for r, row in enumerate(entries, start=1):
        if not isinstance(row, list) or len(row) != n:
            raise MatrixFormatError(f"entry row {r} must be a list of {n} values")
        parsed = []
        for c, value in enumerate(row, start=1):
            if isinstance(value, bool) or not isinstance(value, (int, str)):
                raise MatrixFormatError(f"entry ({r},{c}) must be an integer or 'p/q' string")
            parsed.append(_parse_token(str(value), None, c))
        rows.append(parsed)
    return Matrix(rows)


def format_matrix_json(A: Matrix) -> str:
    if A.rows == 0:
        raise ValueError("cannot serialize the empty matrix")
    payload = {
        "rows": A.rows,
        "cols": A.cols,
        "entries": [[str(v) for v in row] for row in A.entries],
    }
    return json.dumps(payload) + "\n"
