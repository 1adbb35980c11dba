"""Seeded inputs for the benchmark, built in polynomial time.

A matrix is made from a grid of weights by Cauchon's restoration, the exact
inverse of the deleting-derivations elimination: walk the elimination's
pivots in reverse and add back what each pivot subtracted.  A pivot entry
is final when the elimination uses it, so at restoration time it holds its
weight and every step is defined whenever the weights are nonzero.

Positive weights give a totally positive matrix whose scaffolding in the
generating orientation is exactly those weights.  Setting one weight to a
negative value gives a matrix that is not totally positive; its
elimination in either orientation must fail.

Nothing here calls into ``tpscaffold``: the benchmark checks the library
against these values, so they must not come from the code under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

GAMMA = "gamma"
LE = "le"
# A prime: restoring modulo it fingerprints a matrix cheaply.
PRIME = 2**61 - 1


def residue(value, modulus: int) -> int:
    value = Fraction(value)
    return value.numerator * pow(value.denominator, -1, modulus) % modulus


def restore(weights, orientation: str, modulus: int = None) -> list:
    """The matrix, as a list of Fraction rows, whose scaffolding in
    ``orientation`` is ``weights`` (a rectangular grid of nonzero values).

    With a prime ``modulus`` the same steps run on residues and return the
    matrix's residues.  That costs little even when the weights are large
    fractions, and a different matrix has the same residues with
    probability about its size over the modulus."""
    if modulus is None:
        x = [[Fraction(v) for v in row] for row in weights]
        ratio = lambda a, b: a / b
    else:
        x = [[residue(v, modulus) for v in row] for row in weights]
        ratio = lambda a, b: a * pow(b, -1, modulus) % modulus
    m, n = len(x), len(x[0])
    if orientation == GAMMA:
        # Gamma pivots run (m,n), (m,n-1), ..., (2,2) and update k < i, l < j.
        pivots = [(i, j) for i in range(1, m) for j in range(1, n)]
        for i, j in pivots:
            row_i, piv = x[i], x[i][j]
            for k in range(i):
                factor = ratio(x[k][j], piv)
                if factor:
                    row_k = x[k]
                    for l in range(j):
                        row_k[l] += factor * row_i[l]
                    if modulus:
                        row_k[:j] = [v % modulus for v in row_k[:j]]
    elif orientation == LE:
        # Le pivots run column-major from (1,1) and update k > i, l > j.
        pivots = [(i, j) for j in range(n - 1) for i in range(m - 1)]
        for i, j in reversed(pivots):
            row_i, piv = x[i], x[i][j]
            for k in range(i + 1, m):
                factor = ratio(x[k][j], piv)
                if factor:
                    row_k = x[k]
                    for l in range(j + 1, n):
                        row_k[l] += factor * row_i[l]
                    if modulus:
                        row_k[j + 1 :] = [v % modulus for v in row_k[j + 1 :]]
    else:
        raise ValueError(f"unknown orientation {orientation!r}")
    return x


def det(rows) -> Fraction:
    """Determinant by Gaussian elimination over Fraction with row swaps; an
    oracle independent of the library's fraction-free Bareiss kernel."""
    a = [list(map(Fraction, r)) for r in rows]
    n = len(a)
    sign = 1
    result = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            sign = -sign
        piv = a[c][c]
        result *= piv
        for r in range(c + 1, n):
            f = a[r][c] / piv
            if f:
                for l in range(c + 1, n):
                    a[r][l] -= f * a[c][l]
    return sign * result


def diagonal_minor(weights, orientation: str, i: int, j: int) -> Fraction:
    """The largest contiguous minor anchored at (i, j) (1-based) of the matrix
    restored from ``weights``, as a product of weights.

    Gamma: the block with top-left corner (i, j), which is the product of the
    weights along the diagonal from (i, j) down-right.  Le: the block with
    bottom-right corner (i, j), the product along the diagonal up-left.
    """
    m, n = len(weights), len(weights[0])
    value = Fraction(1)
    step = 1 if orientation == GAMMA else -1
    while 1 <= i <= m and 1 <= j <= n:
        value *= weights[i - 1][j - 1]
        i, j = i + step, j + step
    return value


def contiguous_block(m: int, n: int, orientation: str, i: int, j: int) -> tuple:
    """Row and column index sets (1-based) of the block ``diagonal_minor``
    evaluates."""
    if orientation == GAMMA:
        k = min(m - i, n - j)
        return tuple(range(i, i + k + 1)), tuple(range(j, j + k + 1))
    k = min(i - 1, j - 1)
    return tuple(range(i - k, i + 1)), tuple(range(j - k, j + 1))


@dataclass(frozen=True)
class Sample:
    """One generated input: the weights that made it and its TP label."""

    orientation: str
    weights: tuple  # rows of Fraction
    matrix: tuple  # rows of Fraction
    is_tp: bool

    @property
    def shape(self) -> tuple:
        return len(self.matrix), len(self.matrix[0])


def random_weights(rng: random.Random, m: int, n: int, high: int = 9) -> list:
    return [[Fraction(rng.randint(1, high)) for _ in range(n)] for _ in range(m)]


def make_sample(rng: random.Random, m: int, n: int, orientation: str, tp: bool = True,
                bad: tuple = None) -> Sample:
    """Restore random positive integer weights; for ``tp=False`` exactly one
    weight, at the 0-based position ``bad`` or at a random one, is replaced
    by a non-positive value first.

    The replaced weight is negative, never zero: a zero at a pivot position
    would leave restoration undefined.  Any single negative weight makes the
    matrix not totally positive, because its scaffolding then has a
    non-positive entry and the scaffolding of a TP matrix is positive.
    """
    w = random_weights(rng, m, n)
    if not tp:
        i, j = bad if bad is not None else (rng.randrange(m), rng.randrange(n))
        w[i][j] = -Fraction(rng.randint(1, 9))
    x = restore(w, orientation)
    return Sample(
        orientation,
        tuple(tuple(r) for r in w),
        tuple(tuple(r) for r in x),
        tp,
    )
