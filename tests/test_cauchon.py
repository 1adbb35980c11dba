from __future__ import annotations

from fractions import Fraction as F

import pytest

from oracles import random_positive_matrix, random_tp_matrix
from tpscaffold import (
    Matrix,
    NotTotallyPositive,
    Orientation,
    StepOrder,
    ZeroPivot,
    build_graph,
    cauchon_trace,
    enumerate_paths,
    gamma_intermediate,
    gamma_scaffold,
    le_intermediate,
    le_scaffold,
    matrix_from_scaffold,
    partial_tp_check,
    path_weight,
    scaffold_entry_from_minors,
)

X23 = Matrix([[8, "7/2", 1], [1, "1/2", 1]])
T23_GAMMA = Matrix([[1, 3, 1], [1, "1/2", 1]])
T23_LE = Matrix([[8, "7/2", 1], [1, "1/16", "6/7"]])
X33 = Matrix([[6, 3, 1], [3, 2, 1], [1, 1, 1]])
ONES3 = Matrix([[1, 1, 1]] * 3)


class TestScaffolds:
    def test_gamma_example(self):
        assert gamma_scaffold(X23) == T23_GAMMA

    def test_le_example(self):
        assert le_scaffold(X23) == T23_LE

    def test_gamma_of_binomial_matrix(self):
        assert gamma_scaffold(X33) == ONES3

    def test_le_of_binomial_matrix(self):
        assert le_scaffold(X33) == Matrix(
            [[6, 3, 1], [3, "1/2", "1/3"], [1, "1/3", "1/3"]]
        )

    def test_single_entry_fixed_point(self):
        assert gamma_scaffold(Matrix([[5]])) == Matrix([[5]])
        assert le_scaffold(Matrix([["2/3"]])) == Matrix([["2/3"]])

    def test_single_row_fixed_point(self):
        row = Matrix([[2, 5, "1/2"]])
        assert gamma_scaffold(row) == row
        assert le_scaffold(row) == row

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            gamma_scaffold(Matrix(()))
        with pytest.raises(ValueError):
            le_scaffold(Matrix(()))

    def test_zero_pivot_reported_with_position(self):
        X = Matrix([[1, 1, 1], [1, 2, 1], [1, 2, 1]])
        with pytest.raises(ZeroPivot) as exc:
            gamma_scaffold(X)
        assert exc.value.position == (2, 2)
        assert isinstance(exc.value, NotTotallyPositive)
        # Le positions are in X's coordinates; the mirrored run meets this
        # pivot at (3, 2) of the anti-transpose
        with pytest.raises(ZeroPivot) as exc:
            le_scaffold(Matrix([[2, 2, 3, 2], [2, 2, 1, 1], [2, 2, 2, 2]]))
        assert exc.value.position == (2, 2)

    def test_non_positive_output_rejected(self):
        with pytest.raises(NotTotallyPositive) as exc:
            gamma_scaffold(Matrix([[1, 2], [2, 1]]))
        assert "(1,1)" in str(exc.value)

    def test_round_trips(self, rng):
        for _ in range(15):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            T = random_positive_matrix(rng, m, n)
            assert gamma_scaffold(matrix_from_scaffold(T, Orientation.GAMMA)) == T
            assert le_scaffold(matrix_from_scaffold(T, Orientation.LE)) == T
            X = random_tp_matrix(rng, m, n)
            assert matrix_from_scaffold(gamma_scaffold(X), Orientation.GAMMA) == X
            assert matrix_from_scaffold(le_scaffold(X), Orientation.LE) == X

    def test_le_is_anti_transposed_gamma(self, rng):
        for X in (X23, X33, random_tp_matrix(rng, 3, 4)):
            mirrored = gamma_scaffold(X.anti_transpose()).anti_transpose()
            assert le_scaffold(X) == mirrored


class TestMinorRatioEntries:
    def test_corner_entry_is_determinant_ratio(self):
        assert scaffold_entry_from_minors(X33, 1, 1) == 1

    def test_matches_elimination_on_examples(self):
        for X in (X23, X33):
            T = gamma_scaffold(X)
            for i in range(1, X.rows + 1):
                for j in range(1, X.cols + 1):
                    assert scaffold_entry_from_minors(X, i, j) == T[i, j]

    def test_matches_elimination_on_randoms(self, rng):
        for _ in range(8):
            X = random_tp_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            T = gamma_scaffold(X)
            for i in range(1, X.rows + 1):
                for j in range(1, X.cols + 1):
                    assert scaffold_entry_from_minors(X, i, j) == T[i, j]

    def test_vanishing_denominator_rejected(self):
        X = Matrix([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
        with pytest.raises(NotTotallyPositive):
            scaffold_entry_from_minors(X, 1, 1)

    def test_position_validation(self):
        with pytest.raises(IndexError):
            scaffold_entry_from_minors(X33, 0, 1)
        with pytest.raises(IndexError):
            scaffold_entry_from_minors(X33, 1, 4)


class TestIntermediates:
    def test_first_position_is_input(self):
        assert gamma_intermediate(X33, (3, 3)) == X33
        assert le_intermediate(X33, (1, 1)) == X33

    def test_last_position_is_scaffold(self):
        assert gamma_intermediate(X33, (1, 1)) == gamma_scaffold(X33)
        assert le_intermediate(X33, (3, 3)) == le_scaffold(X33)

    def test_known_intermediate(self):
        assert gamma_intermediate(X33, (3, 1)) == Matrix(
            [[3, 2, 1], [1, 1, 1], [1, 1, 1]]
        )

    def test_position_validation(self):
        with pytest.raises(IndexError):
            gamma_intermediate(X33, (4, 1))
        with pytest.raises(IndexError):
            le_intermediate(X33, (1, 0))

    def test_gamma_entries_are_restricted_path_sums(self, rng):
        # the state labeled (i, j) keeps exactly the paths with no interior
        # turn at an already-applied pivot; endpoints of the turn sequence
        # are exempt, so the primary path always survives
        T = random_positive_matrix(rng, 3, 3)
        X = matrix_from_scaffold(T, Orientation.GAMMA)
        g = build_graph(T, Orientation.GAMMA)
        for i in range(1, 4):
            for j in range(1, 4):
                state = gamma_intermediate(X, (i, j))
                for k in range(1, 4):
                    for l in range(1, 4):
                        total = sum(
                            path_weight(g, p)
                            for p in enumerate_paths(g, k, l)
                            if all(
                                a < i or (a == i and b <= j)
                                for a, b in p.turns[1:-1]
                            )
                        )
                        assert state[k, l] == total

    def test_le_entries_are_restricted_path_sums(self, rng):
        T = random_positive_matrix(rng, 2, 3)
        X = matrix_from_scaffold(T, Orientation.LE)
        g = build_graph(T, Orientation.LE)
        for i in range(1, 3):
            for j in range(1, 4):
                state = le_intermediate(X, (i, j))
                for k in range(1, 3):
                    for l in range(1, 4):
                        total = sum(
                            path_weight(g, p)
                            for p in enumerate_paths(g, k, l)
                            if all(
                                b > j or (b == j and a >= i)
                                for a, b in p.turns[1:-1]
                            )
                        )
                        assert state[k, l] == total


class TestTraces:
    def test_gamma_trace_of_example(self):
        trace = cauchon_trace(X23, StepOrder.REVERSE_LEX)
        assert [s.position for s in trace.steps] == [(2, 3), (2, 2), (2, 1)]
        assert trace.initial == X23
        assert trace.steps[1].matrix == Matrix([[7, 3, 1], [1, "1/2", 1]])
        assert trace.final == T23_GAMMA

    def test_le_trace_of_example(self):
        trace = cauchon_trace(X23, StepOrder.COL_MAJOR)
        assert [s.position for s in trace.steps] == [(1, 1), (2, 1), (2, 2)]
        assert trace.steps[1].matrix == Matrix([[8, "7/2", 1], [1, "1/16", "7/8"]])
        assert trace.final == T23_LE

    def test_single_entry_trace(self):
        trace = cauchon_trace(Matrix([[3]]), StepOrder.REVERSE_LEX)
        assert len(trace.steps) == 1
        assert trace.steps[0].position == (1, 1)
        assert trace.initial == trace.final == Matrix([[3]])

    def test_trace_without_pivots(self):
        trace = cauchon_trace(Matrix([[4, 2, 1]]), StepOrder.REVERSE_LEX)
        assert len(trace.steps) == 1

    def test_noop_pivots_are_collapsed(self):
        # the zero entry makes the only pivot a no-op, so no step is recorded
        trace = cauchon_trace(Matrix([[1, 0], [1, 1]]), StepOrder.REVERSE_LEX)
        assert len(trace.steps) == 1
        assert trace.steps[0].position == (2, 2)

    def test_steps_match_intermediates(self, rng):
        X = random_tp_matrix(rng, 3, 4)
        for order, intermediate in [
            (StepOrder.REVERSE_LEX, gamma_intermediate),
            (StepOrder.COL_MAJOR, le_intermediate),
        ]:
            trace = cauchon_trace(X, order)
            for step in trace.steps:
                assert step.matrix == intermediate(X, step.position)

    def test_final_state_is_scaffold(self, rng):
        X = random_tp_matrix(rng, 4, 3)
        assert cauchon_trace(X, StepOrder.REVERSE_LEX).final == gamma_scaffold(X)
        assert cauchon_trace(X, StepOrder.COL_MAJOR).final == le_scaffold(X)

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError):
            cauchon_trace(X23, "reverse-lex")

    def test_zero_pivot_propagates(self):
        with pytest.raises(ZeroPivot):
            cauchon_trace(Matrix([[1, 1, 1], [1, 2, 1], [1, 2, 1]]), StepOrder.REVERSE_LEX)


class TestPartialTPCheck:
    def test_passes_on_example_traces(self):
        for X in (X23, X33):
            for order in StepOrder:
                result = partial_tp_check(cauchon_trace(X, order))
                assert result
                assert result.step is None

    def test_passes_on_random_traces(self, rng):
        for _ in range(5):
            X = random_tp_matrix(rng, rng.randint(2, 4), rng.randint(2, 4))
            for order in StepOrder:
                assert partial_tp_check(cauchon_trace(X, order))

    def test_reports_first_minor_violation(self):
        trace = cauchon_trace(Matrix([[1, 2], [2, 1]]), StepOrder.REVERSE_LEX)
        result = partial_tp_check(trace)
        assert not result
        assert result.step == (2, 2)
        assert "minor" in result.detail

    def test_reports_entry_violation(self):
        trace = cauchon_trace(Matrix([[1, -1], [1, 1]]), StepOrder.REVERSE_LEX)
        result = partial_tp_check(trace)
        assert not result
        assert result.step == (2, 2)
        assert "entry (1,2)" in result.detail
