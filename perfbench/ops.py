"""The library workloads: one deck of operations per pass, each with the
check its result must pass.

A deck's composition (operation kinds, shapes, which inputs are not TP) is
fixed.  Two random streams fill it in: ``rng``, drawn from the seed and the
pass number, chooses every value (weights, border parameters, the weight
that makes an input non-TP); ``layout``, the same stream for every pass and
seed, chooses positions (insert rows, minor anchors, orientations) and the
order of the operations.  Costs depend mostly on shapes and positions, so
every pass does about the same work, and runs measure whole passes, so every
run sees the same mix.  Every pass draws fresh inputs, so repeated inputs
cannot be served from a cache.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

import tpscaffold as tp

import gen

# Elimination-heavy: square sizes 8..24 plus thin shapes.  Every input is
# eliminated in both orientations: in its own orientation the scaffold
# keeps the weights' size, in the other it grows (a 24x24 cross scaffold
# costs over three times its own).
#
# The median and the tail percentile (p90) must each fall inside a group of
# operations of equal cost, or they jump between classes from run to run.
# The tail group is six cross scaffolds of 16x16 inputs (the square's own
# and TAIL_CROSS_16 more, which run only that scaffold); only the 24x24
# scaffolds and the 8x8 exhaustive check cost more.  The median group is
# the eight scaffolds of 32x2 inputs (the thin shape's own and
# MEDIAN_THIN_32X2 more, which run no minors); as many operations cost
# more as cost less.  A not-TP input's cost depends on where its negative
# weight sits, so that position is part of the layout, fixed for every
# pass and seed, and the not-TP inputs are small ones.
EXTRACT_SQUARES = (8, 10, 12, 16, 24)
EXTRACT_THIN = ((2, 16), (2, 32), (32, 2), (2, 48), (48, 2), (2, 64), (64, 2))
EXTRACT_NOT_TP = ((8, 8), (2, 16), (2, 32), (2, 48))
TAIL_CROSS_16 = 5
MEDIAN_THIN_32X2 = 3
EXHAUSTIVE_SIZES = (5, 6, 7, 8)
EXHAUSTIVE_NOT_TP = 7

# Reconstruction-heavy: squares 4..9 plus thin shapes.  Path enumeration
# costs about 5x per size step (a 9x9 reconstruction takes over a second), so
# only reconstruction goes up to 9x9 and borders, which reconstruct one line
# more, stop at 7x7.  Inserts stay at 9x9 or smaller because their cost grows
# steeply with the split position k.
# The median and the tail percentile (p90) must each fall inside a group of
# operations of equal cost, or they jump between classes from run to run.
# Of the 56 verified operations a pass makes, 25 cost more than a 6x6
# reconstruction and 25 cost less, so the median falls in the middle of the
# six 6x6 reconstructions.  Only the 9x9 reconstruction and the 9x9 row
# insert cost more than an 8x8 reconstruction, and the 7x7 operations cost
# far less, so p90 (5.5 operations from the top) falls in the middle of the
# six 8x8 reconstructions.
RECONSTRUCT_SHAPES = ((4, 4), (5, 5), (6, 6), (6, 6), (6, 6), (6, 6), (6, 6), (6, 6),
                      (7, 7), (7, 7), (8, 8), (8, 8), (8, 8), (8, 8), (8, 8), (8, 8),
                      (9, 9), (2, 12), (12, 2), (3, 8), (8, 3))
FAST_CHECK_SHAPES = ((4, 4), (5, 5), (5, 5), (6, 6), (6, 6), (6, 6), (7, 7), (7, 7), (3, 12))
BORDERS = (
    ("above", (4, 4)), ("above", (5, 5)), ("above", (2, 12)),
    ("below", (4, 4)), ("below", (5, 5)), ("below", (7, 7)),
    ("left", (4, 4)), ("left", (6, 6)), ("left", (7, 7)), ("left", (2, 10)),
    ("right", (4, 4)), ("right", (5, 5)), ("right", (7, 7)), ("right", (12, 2)),
)
INSERT_SIZES = (4, 5, 6, 7, 8, 9)
# The share of inputs of 13x13 and larger: these reach more lattice paths
# than the path-sum enumeration allows.
LARGE = (
    ("reconstruct", (13, 13)), ("reconstruct", (14, 14)),
    ("fast_check", (15, 15)),
    ("border_below", (13, 13)), ("border_left", (16, 16)),
)

ORIENTATION = {gen.GAMMA: tp.Orientation.GAMMA, gen.LE: tp.Orientation.LE}


@dataclass
class Op:
    """One library call.  ``rejects`` is the exception class the input calls
    for, when it is built to be refused; ``inputs`` are the matrices handed
    to the library, kept for the bit-size metric."""

    kind: str
    shape: tuple
    call: Callable[[], object]
    check: Callable[[object], bool]
    rejects: Optional[type] = None
    inputs: tuple = ()
    large: bool = False


def _rows(result) -> list:
    return [tuple(r) for r in result.entries]


def _scaffold_check(sample: gen.Sample, orientation: str):
    if sample.orientation == orientation:
        return lambda T: T.entries == sample.weights
    # The cross scaffold's entries grow large, so it is checked by
    # restoring it modulo a prime rather than exactly.
    expected = [[gen.residue(v, gen.PRIME) for v in row] for row in sample.matrix]
    return lambda T: T.is_positive() and gen.restore(T.entries, orientation, gen.PRIME) == expected


def _verdict_check(sample: gen.Sample):
    def check(verdict) -> bool:
        if sample.is_tp:
            return verdict.is_tp
        if verdict.is_tp or verdict.witness is None:
            return False
        I, J = verdict.witness
        value = gen.det([[sample.matrix[i - 1][j - 1] for j in J] for i in I])
        return value == verdict.witness_value <= 0

    return check


def _scaffold_ops(s: gen.Sample, X, orients) -> list:
    """``tp.gamma_scaffold`` or ``tp.le_scaffold`` of ``X``, looked up at
    call time so the traced run sees the wrapped function."""
    rejects = None if s.is_tp else tp.NotTotallyPositive
    kinds = {gen.GAMMA: "gamma_scaffold", gen.LE: "le_scaffold"}
    return [Op(kinds[o], s.shape, lambda X=X, name=kinds[o]: getattr(tp, name)(X),
               _scaffold_check(s, o), rejects, (X,)) for o in orients]


def extract_deck(rng: random.Random, layout: random.Random) -> list:
    ops = []
    flip = layout.randrange(2)
    orients = lambda idx: (gen.GAMMA, gen.LE)[(idx + flip) % 2]

    def sample(m, n, orient, is_tp=True):
        bad = None if is_tp else (layout.randrange(m), layout.randrange(n))
        s = gen.make_sample(rng, m, n, orient, tp=is_tp, bad=bad)
        return s, tp.Matrix(s.matrix)

    shapes = [(n, n) for n in EXTRACT_SQUARES] + list(EXTRACT_THIN)
    for idx, (m, n) in enumerate(shapes):
        orient = orients(idx)
        s, X = sample(m, n, orient, (m, n) not in EXTRACT_NOT_TP)
        ops += _scaffold_ops(s, X, (gen.GAMMA, gen.LE))
        corner = (1, 1) if orient == gen.GAMMA else (m, n)
        for i, j in (corner, (layout.randint(1, m), layout.randint(1, n))):
            I, J = gen.contiguous_block(m, n, orient, i, j)
            expected = gen.diagonal_minor(s.weights, orient, i, j)
            ops.append(Op("minor", (m, n), lambda X=X, I=I, J=J: tp.minor(X, I, J),
                          lambda v, e=expected: v == e, None, (X,)))
    for idx in range(TAIL_CROSS_16):
        orient = orients(idx)
        s, X = sample(16, 16, orient)
        ops += _scaffold_ops(s, X, (gen.LE if orient == gen.GAMMA else gen.GAMMA,))
    for idx in range(MEDIAN_THIN_32X2):
        s, X = sample(32, 2, orients(idx))
        ops += _scaffold_ops(s, X, (gen.GAMMA, gen.LE))
    for idx, n in enumerate(EXHAUSTIVE_SIZES):
        s, X = sample(n, n, orients(idx), n != EXHAUSTIVE_NOT_TP)
        ops.append(Op("exhaustive_check", (n, n), lambda X=X: tp.is_totally_positive(X),
                      _verdict_check(s), None, (X,)))
    layout.shuffle(ops)
    return ops


def _reconstruct(rng, shape, orient, large=False) -> Op:
    s = gen.make_sample(rng, *shape, orient)
    W = tp.Matrix(s.weights)
    o = ORIENTATION[orient]
    return Op("reconstruct", shape, lambda: tp.matrix_from_scaffold(W, o),
              lambda R: _rows(R) == list(s.matrix), None, (W,), large)


def _fast_check(rng, shape, orient, large=False) -> Op:
    s = gen.make_sample(rng, *shape, orient)
    X = tp.Matrix(s.matrix)
    return Op("fast_check", shape, lambda: tp.is_totally_positive(X, method="fast"),
              lambda v: v.is_tp, None, (X,), large)


def _border(rng, side, shape, orient, large=False) -> Op:
    s = gen.make_sample(rng, *shape, orient)
    X = tp.Matrix(s.matrix)
    m, n = shape
    params = tuple(gen.random_weights(rng, 1, n if side in ("above", "below") else m)[0])
    border_side = tp.BorderSide(side)
    inner = list(s.matrix)

    def check(B) -> bool:
        rows = _rows(B)
        if side == "above":
            block = rows[1:]
        elif side == "below":
            block = rows[:-1]
        elif side == "left":
            block = [r[1:] for r in rows]
        else:
            block = [r[:-1] for r in rows]
        return block == inner and tp.recover_border_params(B, border_side) == params

    return Op(f"border_{side}", shape, lambda: tp.border(X, border_side, params),
              check, None, (X,), large)


def _insert(rng, axis, n, orient, k) -> Op:
    s = gen.make_sample(rng, n, n, orient)
    X = tp.Matrix(s.matrix)
    if axis == "row":
        call = lambda: tp.insert_row(X, k)
        drop = lambda R: R.without_row(k + 1)
    else:
        call = lambda: tp.insert_column(X, k)
        drop = lambda R: R.without_column(k + 1)

    def check(R) -> bool:
        # tp.gamma_scaffold raises NotTotallyPositive unless R is TP.
        return drop(R) == X and tp.gamma_scaffold(R).is_positive()

    return Op(f"insert_{axis}", (n, n), call, check, None, (X,))


def construct_deck(rng: random.Random, layout: random.Random) -> list:
    orients = (gen.GAMMA, gen.LE)
    ops = [_reconstruct(rng, sh, orients[i % 2]) for i, sh in enumerate(RECONSTRUCT_SHAPES)]
    ops += [_fast_check(rng, sh, orients[i % 2]) for i, sh in enumerate(FAST_CHECK_SHAPES)]
    ops += [_border(rng, side, sh, orients[i % 2]) for i, (side, sh) in enumerate(BORDERS)]
    for i, n in enumerate(INSERT_SIZES):
        ops.append(_insert(rng, "row", n, orients[i % 2], layout.randint(1, n - 1)))
        ops.append(_insert(rng, "column", n, orients[(i + 1) % 2], layout.randint(1, n - 1)))
    for i, (kind, sh) in enumerate(LARGE):
        orient = orients[i % 2]
        if kind == "reconstruct":
            ops.append(_reconstruct(rng, sh, orient, large=True))
        elif kind == "fast_check":
            ops.append(_fast_check(rng, sh, orient, large=True))
        else:
            ops.append(_border(rng, kind.split("_")[1], sh, orient, large=True))
    layout.shuffle(ops)
    return ops


def classify(op: Op, result, exc: Optional[BaseException]) -> str:
    """"ok" for a verified result or an expected rejection, "raised" for an
    exception the input does not call for, "wrong" for a wrong result."""
    if exc is not None:
        return "ok" if op.rejects is not None and isinstance(exc, op.rejects) else "raised"
    if op.rejects is not None:
        return "wrong"
    try:
        return "ok" if op.check(result) else "wrong"
    except (ValueError, ArithmeticError, IndexError):
        return "wrong"
