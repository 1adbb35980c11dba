from __future__ import annotations

from fractions import Fraction as F

import pytest

from oracles import path_sum_matrix, random_positive_matrix, random_tp_matrix
from tpscaffold import (
    InsertionSolution,
    Matrix,
    NotTotallyPositive,
    Orientation,
    affine_above_forms,
    border_above_coefficient,
    border_below_coefficient,
    build_insertion_system,
    gamma_scaffold,
    insert_column,
    insert_row,
    is_totally_positive,
    le_scaffold,
    scaffold_prefix_matrix,
    solution_from_prefix_weights,
    solve_strongly_positive,
    verify_solution,
)

X33 = Matrix([[6, 3, 1], [3, 2, 1], [1, 1, 1]])
WITNESS = ((1, 2, 6), (9, 2, 1), (1, 1, 3))


class TestScaffoldPrefixMatrix:
    def test_example(self):
        assert scaffold_prefix_matrix(X33, 2) == Matrix([[3, 2, 1], [1, 1, 1]])

    def test_full_prefix_is_input(self, rng):
        X = random_tp_matrix(rng, 3, 4)
        assert scaffold_prefix_matrix(X, 3) == X

    def test_single_row_prefix(self, rng):
        X = random_tp_matrix(rng, 3, 2)
        # one scaffold row reconstructs to itself
        assert scaffold_prefix_matrix(X, 1) == Matrix([gamma_scaffold(X).row(1)])

    def test_prefix_scaffold_is_scaffold_prefix(self, rng):
        X = random_tp_matrix(rng, 4, 3)
        for k in range(1, 5):
            prefix = scaffold_prefix_matrix(X, k)
            assert gamma_scaffold(prefix) == gamma_scaffold(X).take_rows(1, k)

    def test_position_validation(self, rng):
        X = random_tp_matrix(rng, 2, 2)
        with pytest.raises(IndexError):
            scaffold_prefix_matrix(X, 0)
        with pytest.raises(IndexError):
            scaffold_prefix_matrix(X, 3)


class TestInsertionSystem:
    def test_example_coefficients(self):
        system = build_insertion_system(X33, 2)
        assert system.n == 3 and system.k == 2
        assert system.below_coeffs == Matrix([[1, 1, 1], [0, 1, 1], [0, 0, 1]])
        assert system.above_coeffs == Matrix(
            [[1, 0, 0], ["2/3", 1, 0], ["1/3", 1, 1]]
        )
        assert system.prefix_coeffs == Matrix([[1, 0, 0], [1, 1, 0], [1, 2, 1]])
        assert system.prefix_matrix == Matrix([[3, 2, 1], [1, 1, 1]])

    def test_triangular_shapes(self, rng):
        for _ in range(4):
            m, n = rng.randint(2, 4), rng.randint(1, 4)
            X = random_tp_matrix(rng, m, n)
            for k in range(1, m):
                system = build_insertion_system(X, k)
                for a in range(1, n + 1):
                    for b in range(1, n + 1):
                        below = system.below_coeffs[a, b]
                        above = system.above_coeffs[a, b]
                        prefix = system.prefix_coeffs[a, b]
                        if a == b:
                            assert below == above == prefix == 1
                        elif a < b:
                            assert below > 0
                            assert above == prefix == 0
                        else:
                            assert below == 0
                            assert above > 0 and prefix > 0

    @pytest.mark.parametrize("orientation", list(Orientation))
    def test_coefficients_match_closed_forms(self, rng, orientation):
        # the system is built by row passes; the minor-ratio formulas of
        # bordering are its independent closed forms
        for m in range(2, 7):
            for n in range(1, 7):
                X = path_sum_matrix(random_positive_matrix(rng, m, n), orientation)
                for k in range(1, m):
                    system = build_insertion_system(X, k)
                    lower, upper = X.take_rows(k + 1, m), X.take_rows(1, k)
                    for j in range(1, n + 1):
                        for l in range(1, n + 1):
                            assert system.below_coeffs[j, l] == border_above_coefficient(lower, j, l)
                            assert system.above_coeffs[j, l] == border_below_coefficient(upper, l, j)
                            assert system.prefix_coeffs[j, l] == border_below_coefficient(
                                system.prefix_matrix, l, j
                            )

    def test_position_validation(self, rng):
        X = random_tp_matrix(rng, 3, 2)
        with pytest.raises(IndexError):
            build_insertion_system(X, 0)
        with pytest.raises(IndexError):
            build_insertion_system(X, 3)
        with pytest.raises(ValueError):
            build_insertion_system(Matrix([[1, 2]]), 1)

    def test_requires_total_positivity(self):
        with pytest.raises(NotTotallyPositive):
            build_insertion_system(Matrix([[1, 2], [2, 1]]), 1)


class TestSolving:
    def test_deterministic_solver_on_example(self):
        solution = solve_strongly_positive(build_insertion_system(X33, 2))
        assert solution.below_weights == (1, 2, 6)
        assert solution.above_weights == (9, 2, 1)
        assert solution.prefix_weights == (1, 1, 3)
        assert solution.inserted_row == (9, 8, 6)

    def test_single_column_degenerates_to_ones(self):
        system = build_insertion_system(Matrix([[1], [1]]), 1)
        solution = solve_strongly_positive(system)
        assert solution == InsertionSolution((F(1),), (F(1),), (F(1),), (F(1),))

    def test_affine_forms_describe_the_solution_line(self, rng):
        X = random_tp_matrix(rng, 3, 3)
        system = build_insertion_system(X, 1)
        alphas, betas = affine_above_forms(system)
        assert all(b > 0 for b in betas)
        for t in (F(1), F(5, 2), F(7)):
            solution = solution_from_prefix_weights(system, (1, 1, t))
            expected = tuple(a + b * t for a, b in zip(alphas, betas))
            assert solution.above_weights == expected

    def test_prefix_extension_is_linear(self, rng):
        X = random_tp_matrix(rng, 3, 3)
        system = build_insertion_system(X, 2)
        p = (1, 2, 3)
        q = ("1/2", 1, "1/3")
        sum_sol = solution_from_prefix_weights(
            system, tuple(F(a) + F(b) for a, b in zip(p, q))
        )
        p_sol = solution_from_prefix_weights(system, p)
        q_sol = solution_from_prefix_weights(system, q)
        for field in ("below_weights", "above_weights", "inserted_row"):
            assert getattr(sum_sol, field) == tuple(
                a + b for a, b in zip(getattr(p_sol, field), getattr(q_sol, field))
            )

    def test_solver_output_verifies(self, rng):
        for _ in range(5):
            m, n = rng.randint(2, 4), rng.randint(1, 4)
            X = random_tp_matrix(rng, m, n)
            for k in range(1, m):
                system = build_insertion_system(X, k)
                s = solve_strongly_positive(system)
                assert verify_solution(
                    system, s.below_weights, s.above_weights, s.prefix_weights
                )

    def test_prefix_length_validation(self):
        system = build_insertion_system(X33, 2)
        with pytest.raises(ValueError):
            solution_from_prefix_weights(system, (1, 2))


class TestVerification:
    def test_example_witness_passes(self):
        system = build_insertion_system(X33, 2)
        assert verify_solution(system, *WITNESS)

    def test_positivity_reported_by_name(self):
        system = build_insertion_system(X33, 2)
        check = verify_solution(system, (0, 2, 6), (9, 2, 1), (1, 1, 3))
        assert not check
        assert check.detail == "below weight 1 = 0 is not positive"
        assert check.equation is None
        check = verify_solution(system, (1, 2, 6), (9, -2, 1), (1, 1, 3))
        assert "above weight 2" in check.detail

    def test_first_balance_violation_located(self):
        system = build_insertion_system(X33, 2)
        below, above, prefix = WITNESS
        check = verify_solution(system, below, (10, 2, 1), prefix)
        assert not check and check.equation == (1, 1)
        check = verify_solution(system, below, (9, 2, 2), prefix)
        assert not check and check.equation == (1, 3)

    def test_prefix_balance_violation_located(self):
        system = build_insertion_system(X33, 2)
        below, above, prefix = WITNESS
        check = verify_solution(system, below, above, (2, 1, 3))
        assert not check and check.equation == (2, 1)

    def test_weight_count_validation(self):
        system = build_insertion_system(X33, 2)
        with pytest.raises(ValueError):
            verify_solution(system, (1, 2), (9, 2, 1), (1, 1, 3))


class TestRowInsertion:
    def test_example_with_solver(self):
        assert insert_row(X33, 2) == Matrix(
            [[6, 3, 1], [3, 2, 1], [9, 8, 6], [1, 1, 1]]
        )

    def test_example_with_witness_triple(self):
        expected = Matrix([[6, 3, 1], [3, 2, 1], [9, 8, 6], [1, 1, 1]])
        assert insert_row(X33, 2, WITNESS) == expected

    def test_example_with_solution_object(self):
        solution = solve_strongly_positive(build_insertion_system(X33, 2))
        assert insert_row(X33, 2, solution) == insert_row(X33, 2)

    def test_invalid_witness_rejected(self):
        with pytest.raises(ValueError, match="invalid insertion witness"):
            insert_row(X33, 2, ((1, 2, 6), (9, 2, 2), (1, 1, 3)))
        with pytest.raises(ValueError, match="invalid insertion witness"):
            insert_row(X33, 2, ((0, 2, 6), (9, 2, 1), (1, 1, 3)))

    def test_result_is_tp_and_contains_input(self, rng):
        for _ in range(4):
            m, n = rng.randint(2, 4), rng.randint(1, 3)
            X = random_tp_matrix(rng, m, n)
            for k in range(1, m):
                completed = insert_row(X, k)
                assert completed.rows == m + 1
                assert completed.without_row(k + 1) == X
                assert is_totally_positive(completed)

    def test_beta_identity(self, rng):
        # at prefix weights (0, .., 0, x[k+1, n]) the inserted row is row k+1
        # itself and the above weights read off the Le scaffolding
        for m, n in ((3, 3), (4, 3)):
            X = random_tp_matrix(rng, m, n)
            for k in range(1, m):
                system = build_insertion_system(X, k)
                c = X[k + 1, n]
                solution = solution_from_prefix_weights(system, (0,) * (n - 1) + (c,))
                assert solution.inserted_row == X.row(k + 1)
                expected = le_scaffold(X.take_rows(1, k + 1)).row(k + 1)
                assert solution.above_weights == expected

    def test_witness_recovered_from_completion(self, rng):
        # any TP completion yields weights back: below from the Gamma
        # scaffolding of the lower stack, above from the Le scaffolding of
        # the upper stack, prefix from bordering the scaffold-prefix matrix
        for _ in range(3):
            m, n = rng.randint(2, 3), rng.randint(2, 3)
            X = random_tp_matrix(rng, m, n)
            k = rng.randint(1, m - 1)
            completed = insert_row(X, k)
            system = build_insertion_system(X, k)
            below = gamma_scaffold(completed.take_rows(k + 1, m + 1)).row(1)
            above = le_scaffold(completed.take_rows(1, k + 1)).row(k + 1)
            stacked = system.prefix_matrix.with_row_inserted(k + 1, below)
            prefix = le_scaffold(stacked).row(k + 1)
            assert verify_solution(system, below, above, prefix)
            recovered = solution_from_prefix_weights(system, prefix)
            assert recovered.inserted_row == completed.row(k + 1)


class TestColumnInsertion:
    def test_matches_transposed_row_insertion(self, rng):
        X = random_tp_matrix(rng, 3, 3)
        assert insert_column(X, 1) == insert_row(X.transpose(), 1).transpose()

    def test_result_contains_input(self, rng):
        X = random_tp_matrix(rng, 2, 4)
        for k in range(1, 4):
            completed = insert_column(X, k)
            assert completed.cols == 5
            assert completed.without_column(k + 1) == X
            assert is_totally_positive(completed)

    def test_witness_length_is_row_count(self, rng):
        X = random_tp_matrix(rng, 2, 3)
        system = build_insertion_system(X.transpose(), 1)
        solution = solve_strongly_positive(system)
        completed = insert_column(X, 1, solution)
        assert completed.column(2) == solution.inserted_row
