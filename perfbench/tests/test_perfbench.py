"""Tests of the benchmark's own code: the input generator, the oracles it
checks results against, the classification of outcomes, and the tracer.

    python3 -m pytest perfbench/tests
"""

import itertools
import random

import pytest

import tpscaffold as tp
from tpscaffold import Matrix, Orientation

import cliops
import gen
import ops
import run
from spans import Tracer

SHAPES = [(m, n) for m in range(1, 6) for n in range(1, 6)]
ORIENTATIONS = [(gen.GAMMA, Orientation.GAMMA), (gen.LE, Orientation.LE)]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("orient,orientation", ORIENTATIONS)
def test_restore_matches_path_sums(shape, orient, orientation):
    rng = random.Random(f"{shape}{orient}")
    for _ in range(3):
        s = gen.make_sample(rng, *shape, orient)
        assert tp.matrix_from_scaffold(Matrix(s.weights), orientation) == Matrix(s.matrix)


@pytest.mark.parametrize("shape", [(3, 4), (5, 5), (6, 2)])
@pytest.mark.parametrize("orient,orientation", ORIENTATIONS)
def test_modular_restore_fingerprints_the_exact_one(shape, orient, orientation):
    rng = random.Random(f"mod{shape}{orient}")
    s = gen.make_sample(rng, *shape, orient)
    cross = tp.le_scaffold if orient == gen.GAMMA else tp.gamma_scaffold
    other = gen.LE if orient == gen.GAMMA else gen.GAMMA
    T = cross(Matrix(s.matrix)).entries
    expected = [[gen.residue(v, gen.PRIME) for v in row] for row in s.matrix]
    assert gen.restore(T, other, gen.PRIME) == expected
    wrong = [list(row) for row in T]
    wrong[0][0] += 1
    assert gen.restore(wrong, other, gen.PRIME) != expected


@pytest.mark.parametrize("shape", SHAPES)
def test_elimination_returns_the_generating_weights(shape):
    rng = random.Random(str(shape))
    for orient, scaffold in ((gen.GAMMA, tp.gamma_scaffold), (gen.LE, tp.le_scaffold)):
        s = gen.make_sample(rng, *shape, orient)
        assert scaffold(Matrix(s.matrix)).entries == s.weights


@pytest.mark.parametrize("shape", [(1, 4), (4, 1), (2, 2), (3, 3), (3, 5), (5, 4), (5, 5)])
@pytest.mark.parametrize("orient", [gen.GAMMA, gen.LE])
def test_exhaustive_verdict_matches_label(shape, orient):
    rng = random.Random(f"label{shape}{orient}")
    for is_tp in (True, False, False):
        s = gen.make_sample(rng, *shape, orient, tp=is_tp)
        assert s.is_tp == is_tp
        assert tp.is_totally_positive(Matrix(s.matrix)).is_tp == is_tp


def test_not_tp_variant_changes_exactly_one_weight_to_a_negative_value():
    a = gen.make_sample(random.Random(7), 4, 5, gen.GAMMA)
    b = gen.make_sample(random.Random(7), 4, 5, gen.GAMMA, tp=False)
    changed = [(x, y) for ra, rb in zip(a.weights, b.weights) for x, y in zip(ra, rb) if x != y]
    assert len(changed) <= 1
    assert sum(v <= 0 for row in b.weights for v in row) == 1


@pytest.mark.parametrize("orient", [gen.GAMMA, gen.LE])
@pytest.mark.parametrize("is_tp", [True, False])
def test_diagonal_minors_are_products_of_weights(orient, is_tp):
    rng = random.Random(f"diag{orient}{is_tp}")
    s = gen.make_sample(rng, 4, 6, orient, tp=is_tp)
    X = Matrix(s.matrix)
    for i, j in itertools.product(range(1, 5), range(1, 7)):
        I, J = gen.contiguous_block(4, 6, orient, i, j)
        assert tp.minor(X, I, J) == gen.diagonal_minor(s.weights, orient, i, j)


def test_det_oracle_agrees_with_library():
    rng = random.Random(3)
    for n in range(1, 6):
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        assert gen.det(rows) == tp.det(Matrix(rows))


def test_same_seed_gives_same_inputs():
    for deck in (ops.extract_deck, ops.construct_deck):
        a = deck(random.Random("s"), random.Random(1))
        b = deck(random.Random("s"), random.Random(1))
        assert [(o.kind, o.shape, o.inputs) for o in a] == [(o.kind, o.shape, o.inputs) for o in b]


def test_extract_deck_mix():
    deck = ops.extract_deck(random.Random(1), random.Random(1))
    inputs = {id(o.inputs[0]) for o in deck if o.kind != "minor"}
    not_tp = {id(o.inputs[0]) for o in deck if o.rejects is not None}
    assert len(not_tp) + 1 == round(len(inputs) / 5)  # + the exhaustive one
    assert len(deck) == 63
    # The 16x16 square's two scaffolds and the extra inputs' cross scaffolds.
    assert sum(o.kind.endswith("scaffold") and o.shape == (16, 16) for o in deck) == 7


def test_not_tp_position_can_be_fixed():
    a = gen.make_sample(random.Random(1), 3, 4, gen.LE, tp=False, bad=(2, 1))
    b = gen.make_sample(random.Random(2), 3, 4, gen.LE, tp=False, bad=(2, 1))
    assert a.weights[2][1] < 0 and b.weights[2][1] < 0


def test_classify_outcomes():
    good = ops.Op("minor", (1, 1), lambda: 1, lambda v: v == 1)
    assert ops.classify(good, 1, None) == "ok"
    assert ops.classify(good, 2, None) == "wrong"
    assert ops.classify(good, None, ValueError("limit")) == "raised"
    refused = ops.Op("gamma_scaffold", (1, 1), lambda: 1, lambda v: True, tp.NotTotallyPositive)
    assert ops.classify(refused, None, tp.ZeroPivot((1, 1))) == "ok"
    assert ops.classify(refused, Matrix([[1]]), None) == "wrong"


def test_cli_checks_reject_wrong_output(tmp_path):
    deck = cliops.cli_deck(random.Random(5), random.Random(5), tmp_path)
    codes = {op.code for op in deck}
    assert codes == {0, 1, 3, 4}
    assert {op.argv[0] for op in deck} == {
        "check", "scaffold", "reconstruct", "minor", "insert-row", "insert-col",
        "border", "graph-dot"}
    for op in deck:
        assert cliops.classify(op, op.code, "garbage\n", "") == "wrong"


def test_tracer_sees_calls_made_through_imported_names():
    import tpscaffold.bordering as bordering

    original = bordering.gamma_scaffold
    X = Matrix(gen.make_sample(random.Random(2), 3, 3, gen.GAMMA).matrix)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.span("op.border", lambda: tp.border(X, tp.BorderSide.ABOVE, [1, 2, 3]))
        tp.border(X, tp.BorderSide.ABOVE, [1, 2, 3])  # outside a span: records nothing
    finally:
        tracer.uninstall()
    assert bordering.gamma_scaffold is original
    summary = tracer.summarize()
    per = summary["per_name"]
    assert per["bordering.border"]["calls"] == 1
    assert per["bordering.border_above"]["calls"] == 1
    assert per["cauchon.gamma_scaffold"]["calls"] == 1
    assert per["graph.matrix_from_scaffold"]["calls"] == 1
    assert summary["under_root"]["op.border"]["graph.matrix_from_scaffold"] == 1
    total_self = sum(s["self_ns"] for s in per.values())
    assert total_self == per["op.border"]["total_ns"]


def test_rescale_divides_out_the_speed_of_the_probes_around_each_time():
    ref = run.REFERENCE_PROBE_NS
    assert run.rescale([10, 20, 30], [2 * ref] * 4) == [5, 10, 15]
    # A single slow probe is outvoted by its neighbours.
    probes = [ref, ref, ref, 5 * ref, ref, ref, ref]
    assert run.rescale([10] * 6, probes) == [10] * 6
    # Halfway through the machine slows to half speed.
    probes = [ref, ref, ref, ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref]
    assert run.rescale([10] * 7, probes) == [10, 10, 10, 10 / 1.5, 5, 5, 5]


def test_tail_is_the_fixed_percentile_whatever_the_sample_count():
    for n in (100, 1000, 10000):
        values = list(range(1, n + 1))
        assert run.tail(values) == pytest.approx(run.TAIL_PCT / 100 * (n - 1) + 1)


def test_construct_deck_composition():
    deck = ops.construct_deck(random.Random(1), random.Random(1))
    assert sum(op.large for op in deck) == 5
    assert len(deck) == 61
    for n in (6, 8):
        assert sum(op.kind == "reconstruct" and op.shape == (n, n) for op in deck) == 6


def test_tracer_sees_every_library_call_of_the_decks():
    decks = (ops.extract_deck(random.Random(1), random.Random(1)),
             ops.construct_deck(random.Random(1), random.Random(1)))
    small = {}  # the smallest op of each kind whose call returns
    for op in (op for deck in decks for op in deck):
        if op.large or op.rejects is not None:
            continue
        if op.kind not in small or op.shape < small[op.kind].shape:
            small[op.kind] = op
    tracer = Tracer()
    tracer.install()
    try:
        for op in small.values():
            tracer.span("op." + op.kind, op.call)
    finally:
        tracer.uninstall()
    under = tracer.summarize()["under_root"]
    for kind in small:
        assert sum(under["op." + kind].values()) >= 1, kind
