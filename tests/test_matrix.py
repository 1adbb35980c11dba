from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import laplace_minor, random_positive_matrix, random_tp_matrix
from tpscaffold import (
    Matrix,
    MatrixFormatError,
    det,
    format_matrix,
    format_matrix_json,
    is_totally_positive,
    leading_contiguous,
    leading_with_prefix,
    minor,
    parse_matrix,
    parse_matrix_json,
    submatrix,
    trailing_contiguous,
    trailing_with_suffix,
)

X23 = Matrix([[8, "7/2", 1], [1, "1/2", 1]])
X33 = Matrix([[6, 3, 1], [3, 2, 1], [1, 1, 1]])


def small_entries():
    return st.integers(min_value=-6, max_value=6)


def matrices(entries=None, max_dim=4):
    entries = entries or small_entries()
    return st.tuples(
        st.integers(1, max_dim), st.integers(1, max_dim)
    ).flatmap(
        lambda dims: st.lists(
            st.lists(entries, min_size=dims[1], max_size=dims[1]),
            min_size=dims[0],
            max_size=dims[0],
        )
    ).map(Matrix)


class TestMatrixBasics:
    def test_entries_coerced_to_fractions(self):
        A = Matrix([[1, "7/2"], ["0", F(3, 4)]])
        assert A[1, 2] == F(7, 2)
        assert A[2, 2] == F(3, 4)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Matrix([[1.5]])

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            Matrix([[1, 2], [3]])

    def test_one_based_indexing(self):
        assert X33[1, 3] == 1
        assert X33[3, 1] == 1
        with pytest.raises(IndexError):
            X33[0, 1]
        with pytest.raises(IndexError):
            X33[1, 4]

    def test_immutable_and_hashable(self):
        with pytest.raises(AttributeError):
            X33.rows = 5
        assert hash(X33) == hash(Matrix([[6, 3, 1], [3, 2, 1], [1, 1, 1]]))

    def test_row_and_column(self):
        assert X23.row(2) == (1, F(1, 2), 1)
        assert X23.column(2) == (F(7, 2), F(1, 2))

    def test_transpose(self):
        assert X23.transpose() == Matrix([[8, 1], ["7/2", "1/2"], [1, 1]])

    def test_anti_transpose_reflects_across_anti_diagonal(self):
        assert Matrix([[1, 2], [3, 4]]).anti_transpose() == Matrix([[4, 2], [3, 1]])
        assert X23.anti_transpose() == Matrix([[1, 1], ["1/2", "7/2"], [1, 8]])

    def test_row_insertion_and_deletion(self):
        A = X33.with_row_inserted(2, (5, 4, 2))
        assert A.row(2) == (5, 4, 2)
        assert A.without_row(2) == X33
        B = X33.with_column_inserted(4, (9, 9, 9))
        assert B.column(4) == (9, 9, 9)
        assert B.without_column(4) == X33

    def test_take_rows(self):
        assert X33.take_rows(1, 2) == Matrix([[6, 3, 1], [3, 2, 1]])
        with pytest.raises(IndexError):
            X33.take_rows(2, 4)

    @settings(max_examples=40, deadline=None)
    @given(matrices())
    def test_transpose_involution(self, A):
        assert A.transpose().transpose() == A
        assert A.anti_transpose().anti_transpose() == A

    @settings(max_examples=40, deadline=None)
    @given(matrices())
    def test_anti_transpose_is_reversed_transpose(self, A):
        m, n = A.rows, A.cols
        B = A.anti_transpose()
        assert (B.rows, B.cols) == (n, m)
        for i in range(1, n + 1):
            for j in range(1, m + 1):
                assert B[i, j] == A[m + 1 - j, n + 1 - i]


class TestSubmatrixSelection:
    def test_submatrix_example(self):
        assert submatrix(X33, (1, 2), (1, 3)) == Matrix([[6, 1], [3, 1]])

    def test_submatrix_single_entry(self):
        assert submatrix(X23, (2,), (2,)) == Matrix([["1/2"]])

    def test_submatrix_validates_indices(self):
        with pytest.raises(ValueError):
            submatrix(X33, (2, 1), (1, 2))
        with pytest.raises(IndexError):
            submatrix(X33, (1, 4), (1, 2))
        with pytest.raises(ValueError):
            submatrix(X33, (), (1,))

    def test_leading_contiguous(self):
        assert leading_contiguous(X33, 2, 2) == Matrix([[2, 1], [1, 1]])
        assert leading_contiguous(X33, 1, 2) == Matrix([[3, 1], [2, 1]])
        assert leading_contiguous(X33, 3, 1) == Matrix([[1]])

    def test_leading_contiguous_empty_just_past_the_edge(self):
        empty = leading_contiguous(X33, 4, 2)
        assert empty.rows == 0 and det(empty) == 1
        assert det(leading_contiguous(X33, 2, 4)) == 1
        with pytest.raises(IndexError):
            leading_contiguous(X33, 5, 1)

    def test_trailing_contiguous(self):
        assert trailing_contiguous(X33, 3, 3) == X33
        assert trailing_contiguous(X33, 2, 2) == Matrix([[6, 3], [3, 2]])
        assert trailing_contiguous(X33, 1, 3) == Matrix([[1]])
        assert det(trailing_contiguous(X33, 0, 3)) == 1

    def test_leading_with_prefix(self):
        assert leading_with_prefix(X33, 1, 3, 1, 3) == submatrix(X33, (1, 3), (1, 3))
        assert leading_with_prefix(X33, 1, 2, 1, 2) == X33

    def test_leading_with_prefix_degenerates_to_prefix_singleton(self):
        assert leading_with_prefix(X33, 1, 2, 2, 4) == Matrix([[3]])
        assert leading_with_prefix(X33, 2, 4, 1, 2) == Matrix([[3]])

    def test_trailing_with_suffix(self):
        assert trailing_with_suffix(X33, 2, 3, 2, 3) == X33
        assert trailing_with_suffix(X33, 1, 3, 1, 2) == submatrix(X33, (1, 3), (1, 2))

    def test_trailing_with_suffix_degenerates_to_suffix_singleton(self):
        assert trailing_with_suffix(X33, 0, 3, 1, 2) == Matrix([[1]])
        assert trailing_with_suffix(X33, 1, 2, 0, 3) == Matrix([[1]])


class TestMinor:
    def test_minor_example(self):
        assert minor(X23, (1, 2), (1, 2)) == F(1, 2)

    def test_minor_single_entry(self):
        assert minor(X23, (2,), (3,)) == 1

    def test_empty_minor_is_one(self):
        assert minor(X33, (), ()) == 1

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            minor(X33, (1, 2), (1,))

    def test_det_of_reconstruction_is_diagonal_product(self):
        assert det(X33) == 1

    def test_det_requires_square(self):
        with pytest.raises(ValueError):
            det(X23)

    def test_det_with_zero_pivot_row_swap(self):
        A = Matrix([[0, 1], [1, 0]])
        assert det(A) == -1
        B = Matrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
        assert det(B) == -1

    def test_singular_det_is_zero(self):
        assert det(Matrix([[1, 2], [2, 4]])) == 0

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_minor_matches_laplace_oracle(self, A):
        k = min(A.rows, A.cols)
        I = tuple(range(1, k + 1))
        J = tuple(range(A.cols - k + 1, A.cols + 1))
        assert minor(A, I, J) == laplace_minor(A, I, J)

    def test_minor_matches_laplace_on_rational_instances(self, rng):
        import itertools

        for _ in range(25):
            A = random_positive_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            k = rng.randint(1, min(A.rows, A.cols))
            I = tuple(sorted(rng.sample(range(1, A.rows + 1), k)))
            J = tuple(sorted(rng.sample(range(1, A.cols + 1), k)))
            assert minor(A, I, J) == laplace_minor(A, I, J)


class TestTotalPositivity:
    def test_known_tp_matrix(self):
        verdict = is_totally_positive(X23)
        assert verdict.is_tp and verdict.witness is None
        assert bool(verdict)

    def test_non_tp_with_witness(self):
        verdict = is_totally_positive(Matrix([[1, 2], [2, 1]]))
        assert not verdict.is_tp
        assert verdict.witness == ((1, 2), (1, 2))
        assert verdict.witness_value == -3

    def test_positive_entry_failure_reported_first(self):
        verdict = is_totally_positive(Matrix([[1, -1], [1, 1]]))
        assert verdict.witness == ((1,), (2,))
        assert verdict.witness_value == -1

    def test_single_entry(self):
        assert is_totally_positive(Matrix([[5]])).is_tp
        assert not is_totally_positive(Matrix([[0]])).is_tp

    def test_fast_mode_agrees_on_example(self):
        assert is_totally_positive(X33, method="fast").is_tp
        negative_entry = is_totally_positive(Matrix([[1, 2], [2, 1]]), method="fast")
        assert not negative_entry.is_tp
        assert negative_entry.witness == ((1, 2), (1, 2))
        assert negative_entry.reason == "minor[I=[1, 2]; J=[1, 2]] = -3"
        zero_pivot = is_totally_positive(Matrix([[1, 1, 1], [1, 2, 1], [1, 2, 1]]), method="fast")
        assert zero_pivot.witness == ((2, 3), (2, 3))
        assert zero_pivot.witness_value == 0

    def test_fast_and_exhaustive_agree_on_random_instances(self, rng):
        def agree(A):
            fast = is_totally_positive(A, method="fast")
            assert is_totally_positive(A).is_tp == fast.is_tp
            if not fast.is_tp:
                assert fast.witness_value == laplace_minor(A, *fast.witness) <= 0

        for _ in range(30):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            tp = random_tp_matrix(rng, m, n)
            assert is_totally_positive(tp).is_tp
            assert is_totally_positive(tp, method="fast").is_tp
            agree(random_positive_matrix(rng, m, n))
        # small integer entries make zero pivots and vanishing minors common
        for _ in range(30):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            agree(Matrix([[rng.randint(1, 3) for _ in range(n)] for _ in range(m)]))

    def test_verdict_invariant_under_transpositions(self, rng):
        for _ in range(10):
            A = random_positive_matrix(rng, rng.randint(2, 4), rng.randint(2, 4))
            base = is_totally_positive(A).is_tp
            assert is_totally_positive(A.transpose()).is_tp == base
            assert is_totally_positive(A.anti_transpose()).is_tp == base

    def test_exhaustive_refuses_large_matrices(self):
        big = Matrix([[1] * 9] * 9)
        with pytest.raises(ValueError):
            is_totally_positive(big)
        assert not is_totally_positive(big, force=True).is_tp

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            is_totally_positive(X23, method="both")


class TestTextFormat:
    def test_parse_example(self):
        A = parse_matrix("2 3\n8 7/2 1\n1 1/2 1\n")
        assert A == X23

    def test_format_canonical(self):
        assert format_matrix(X23) == "2 3\n8 7/2 1\n1 1/2 1\n"

    def test_parse_normalizes_to_canonical_form(self):
        A = parse_matrix("1 2\n2/4 -6/3\n")
        assert format_matrix(A) == "1 2\n1/2 -2\n"

    def test_roundtrip(self, rng):
        for _ in range(20):
            A = random_positive_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            assert parse_matrix(format_matrix(A)) == A

    def test_wrong_token_count_reports_row_and_line(self):
        with pytest.raises(MatrixFormatError) as err:
            parse_matrix("2 2\n1 2\n3\n")
        assert "row 2 has 1 tokens, expected 2" in str(err.value)
        assert err.value.line == 3

    def test_malformed_header(self):
        with pytest.raises(MatrixFormatError) as err:
            parse_matrix("2\n1\n2\n")
        assert err.value.line == 1
        with pytest.raises(MatrixFormatError):
            parse_matrix("0 2\n")
        with pytest.raises(MatrixFormatError):
            parse_matrix("a b\n1 2\n")

    def test_zero_denominator_rejected(self):
        with pytest.raises(MatrixFormatError) as err:
            parse_matrix("1 1\n3/0\n")
        assert "zero denominator" in str(err.value)
        assert err.value.line == 2

    def test_bad_tokens_rejected(self):
        for token in ("1.5", "1/-2", "x", "1/2/3"):
            with pytest.raises(MatrixFormatError):
                parse_matrix(f"1 1\n{token}\n")

    def test_row_count_mismatch(self):
        with pytest.raises(MatrixFormatError):
            parse_matrix("2 2\n1 2\n")
        with pytest.raises(MatrixFormatError):
            parse_matrix("1 2\n1 2\n3 4\n")

    def test_json_roundtrip(self):
        text = format_matrix_json(X23)
        assert parse_matrix_json(text) == X23
        assert text == (
            '{"rows": 2, "cols": 3, "entries": '
            '[["8", "7/2", "1"], ["1", "1/2", "1"]]}\n'
        )

    def test_json_accepts_integer_entries(self):
        A = parse_matrix_json('{"rows": 1, "cols": 2, "entries": [[1, "1/2"]]}')
        assert A == Matrix([[1, "1/2"]])

    def test_json_schema_errors(self):
        with pytest.raises(MatrixFormatError):
            parse_matrix_json("[1, 2]")
        with pytest.raises(MatrixFormatError):
            parse_matrix_json('{"rows": 1, "cols": 1}')
        with pytest.raises(MatrixFormatError):
            parse_matrix_json('{"rows": 1, "cols": 1, "entries": [[1.5]]}')
        with pytest.raises(MatrixFormatError):
            parse_matrix_json("{bad json")
        with pytest.raises(MatrixFormatError):
            parse_matrix_json('{"rows": true, "cols": true, "entries": [["5"]]}')
