from __future__ import annotations

from fractions import Fraction as F

import pytest

from oracles import laplace_minor, path_sum_matrix, random_positive_matrix
from tpscaffold import (
    Matrix,
    Orientation,
    Path,
    blocked_path_sum,
    blocked_path_sum_minor_ratio,
    build_graph,
    enumerate_paths,
    enumerate_paths_bounded,
    enumerate_vertex_disjoint_systems,
    gamma_scaffold,
    le_scaffold,
    lgv_minor,
    matrix_from_scaffold,
    minor,
    path_vertices,
    path_weight,
    primary_path,
    system_weight,
    to_dot,
)

T23 = Matrix([[1, 3, 1], [1, "1/2", 1]])
X23 = Matrix([[8, "7/2", 1], [1, "1/2", 1]])
ONES3 = Matrix([[1, 1, 1]] * 3)
X33 = Matrix([[6, 3, 1], [3, 2, 1], [1, 1, 1]])


def gamma(T):
    return build_graph(T, Orientation.GAMMA)


def le(T):
    return build_graph(T, Orientation.LE)


class TestGraphConstruction:
    def test_dimensions(self):
        g = gamma(T23)
        assert (g.m, g.n) == (2, 3)

    def test_rejects_non_positive_weights(self):
        with pytest.raises(ValueError):
            build_graph(Matrix([[1, 0], [1, 1]]), Orientation.GAMMA)
        with pytest.raises(ValueError):
            build_graph(Matrix([[1, -2]]), Orientation.LE)

    def test_rejects_bad_orientation(self):
        with pytest.raises(ValueError):
            build_graph(T23, "gamma")


class TestPathEnumeration:
    def test_counts_on_known_grids(self):
        assert len(enumerate_paths(gamma(T23), 1, 1)) == 3
        assert len(enumerate_paths(gamma(ONES3), 1, 1)) == 6
        assert len(enumerate_paths(gamma(T23), 2, 2)) == 1

    def test_le_counts_mirror_gamma(self):
        assert len(enumerate_paths(le(ONES3), 3, 3)) == 6
        assert len(enumerate_paths(le(X23), 2, 3)) == 3

    def test_count_depends_only_on_slacks(self):
        # number of Gamma paths i -> j is a function of (m - i, n - j)
        g45 = gamma(Matrix([[1] * 5] * 4))
        g67 = gamma(Matrix([[1] * 7] * 6))
        assert len(enumerate_paths(g45, 2, 3)) == len(enumerate_paths(g67, 4, 5))

    def test_anti_transpose_correspondence_with_le(self):
        # Gamma paths i -> j over T match Le paths n+1-j -> m+1-i over the
        # anti-transpose, weight for weight.
        T = Matrix([[2, 3, 5], [7, "1/2", "2/3"]])
        ggam = gamma(T)
        gle = le(T.anti_transpose())
        m, n = 2, 3
        for i in range(1, m + 1):
            for j in range(1, n + 1):
                ours = sorted(path_weight(ggam, p) for p in enumerate_paths(ggam, i, j))
                mirrored = sorted(
                    path_weight(gle, p) for p in enumerate_paths(gle, n + 1 - j, m + 1 - i)
                )
                assert ours == mirrored

    def test_paths_emitted_in_lexicographic_order(self):
        for g, i, j in [(gamma(ONES3), 1, 1), (le(ONES3), 3, 3)]:
            turn_lists = [p.turns for p in enumerate_paths(g, i, j)]
            assert turn_lists == sorted(turn_lists)
            assert len(set(turn_lists)) == len(turn_lists)

    def test_primary_path_is_first(self):
        paths = enumerate_paths(gamma(ONES3), 2, 1)
        assert paths[0] == primary_path(gamma(ONES3), 2, 1)

    def test_endpoint_validation(self):
        with pytest.raises(IndexError):
            enumerate_paths(gamma(T23), 3, 1)
        with pytest.raises(IndexError):
            primary_path(gamma(T23), 1, 4)

    def test_enumeration_limit_guard(self):
        big = Matrix([[1] * 25] * 25)
        with pytest.raises(ValueError):
            enumerate_paths(gamma(big), 1, 1)
        # Reconstruction enumerates no paths, so the limit does not apply.
        assert gamma_scaffold(matrix_from_scaffold(big, Orientation.GAMMA)) == big
        assert le_scaffold(matrix_from_scaffold(big, Orientation.LE)) == big


class TestPathWeights:
    def test_primary_weight_is_vertex_weight(self):
        assert path_weight(gamma(T23), primary_path(gamma(T23), 2, 2)) == F(1, 2)

    def test_alternating_weight(self):
        g = gamma(X33)
        p = Path(1, 1, ((1, 3), (2, 3), (2, 2), (3, 2), (3, 1)))
        expected = (
            X33[1, 3] / X33[2, 3] * X33[2, 2] / X33[3, 2] * X33[3, 1]
        )
        assert path_weight(g, p) == expected

    def test_le_weight_from_worked_example(self):
        gle = le(Matrix([[8, "7/2", 1], [1, "1/16", "6/7"]]))
        p = Path(2, 3, ((2, 2), (1, 2), (1, 3)))
        assert path_weight(gle, p) == F(1, 56)

    def test_entry_is_path_weight_sum(self):
        g = gamma(T23)
        total = sum(path_weight(g, p) for p in enumerate_paths(g, 1, 1))
        assert total == 8

    def test_malformed_turn_sequences_rejected(self):
        g = gamma(T23)
        for turns in [
            (),
            ((1, 1), (2, 1)),  # even length
            ((1, 1), (1, 2), (1, 1)),  # not a vertical move
            ((1, 3), (2, 3), (2, 3)),  # repeated turn
            ((2, 1), (1, 1), (1, 1)),  # wrong direction for Gamma
        ]:
            with pytest.raises((ValueError, IndexError)):
                path_weight(g, Path(turns[0][0] if turns else 1, 1, turns))

    def test_wrong_endpoints_rejected(self):
        g = gamma(T23)
        with pytest.raises(ValueError):
            path_weight(g, Path(1, 2, ((1, 1),)))


class TestPathVertices:
    def test_gamma_primary_vertices(self):
        g = gamma(ONES3)
        verts = path_vertices(g, primary_path(g, 2, 2))
        assert verts == frozenset(
            {("r", 2), (2, 3), (2, 2), (3, 2), ("c", 2)}
        )

    def test_gamma_turning_path_vertices(self):
        g = gamma(ONES3)
        p = Path(1, 1, ((1, 2), (2, 2), (2, 1)))
        assert path_vertices(g, p) == frozenset(
            {("r", 1), (1, 3), (1, 2), (2, 2), (2, 1), (3, 1), ("c", 1)}
        )

    def test_le_primary_vertices(self):
        g = le(ONES3)
        assert path_vertices(g, primary_path(g, 2, 2)) == frozenset(
            {("r", 2), (2, 1), (2, 2), (1, 2), ("c", 2)}
        )


class TestReconstruction:
    def test_gamma_reconstruction_example(self):
        assert matrix_from_scaffold(T23, Orientation.GAMMA) == X23

    def test_le_reconstruction_example(self):
        assert (
            matrix_from_scaffold(Matrix([[8, "7/2", 1], [1, "1/16", "6/7"]]), Orientation.LE)
            == X23
        )

    def test_ones_scaffold_gives_binomial_sums(self):
        assert matrix_from_scaffold(ONES3, Orientation.GAMMA) == X33

    def test_single_row_and_column_are_fixed_points(self):
        row = Matrix([[2, 3, "1/2"]])
        col = Matrix([[2], [3], ["1/2"]])
        for orientation in Orientation:
            assert matrix_from_scaffold(row, orientation) == row
            assert matrix_from_scaffold(col, orientation) == col

    def test_first_row_and_column_pass_through(self, rng):
        T = random_positive_matrix(rng, 4, 3)
        X = matrix_from_scaffold(T, Orientation.GAMMA)
        # Gamma: the bottom row and last column carry the weights unchanged
        assert X.row(4) == T.row(4)
        assert X.column(3) == T.column(3)
        Y = matrix_from_scaffold(T, Orientation.LE)
        assert Y.row(1) == T.row(1)
        assert Y.column(1) == T.column(1)

    def test_matches_path_sum_oracle(self, rng):
        for m in range(1, 7):
            for n in range(1, 7):
                T = random_positive_matrix(rng, m, n)
                for orientation in Orientation:
                    assert matrix_from_scaffold(T, orientation) == path_sum_matrix(T, orientation)

    def test_orientations_agree_through_anti_transpose(self, rng):
        for _ in range(10):
            T = random_positive_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            direct = matrix_from_scaffold(T, Orientation.LE)
            mirrored = matrix_from_scaffold(
                T.anti_transpose(), Orientation.GAMMA
            ).anti_transpose()
            assert direct == mirrored


class TestVertexDisjointSystems:
    def test_contiguous_minor_has_unique_system(self):
        g = gamma(ONES3)
        systems = enumerate_vertex_disjoint_systems(g, (1, 2, 3), (1, 2, 3))
        assert len(systems) == 1
        assert [p.turns for p in systems[0].paths] == [((1, 1),), ((2, 2),), ((3, 3),)]

    def test_known_system_counts(self):
        g = gamma(ONES3)
        assert len(enumerate_vertex_disjoint_systems(g, (1, 2), (1, 2))) == 3
        assert len(enumerate_vertex_disjoint_systems(g, (1, 2), (1, 3))) == 3

    def test_primary_system_always_present(self, rng):
        import itertools

        T = random_positive_matrix(rng, 3, 4)
        g = gamma(T)
        for k in (1, 2, 3):
            for I in itertools.combinations(range(1, 4), k):
                for J in itertools.combinations(range(1, 5), k):
                    systems = enumerate_vertex_disjoint_systems(g, I, J)
                    primaries = tuple(primary_path(g, i, j) for i, j in zip(I, J))
                    assert any(s.paths == primaries for s in systems)

    def test_system_weight_is_product(self):
        g = gamma(ONES3)
        for system in enumerate_vertex_disjoint_systems(g, (1, 2), (1, 2)):
            assert system_weight(g, system) == 1

    def test_index_set_validation(self):
        g = gamma(ONES3)
        with pytest.raises(ValueError):
            enumerate_vertex_disjoint_systems(g, (1, 2), (1,))
        with pytest.raises(IndexError):
            enumerate_vertex_disjoint_systems(g, (1, 4), (1, 2))


class TestLGVMinors:
    def test_minor_example(self):
        assert lgv_minor(gamma(ONES3), (1, 2), (1, 2)) == 3

    def test_full_determinant_is_diagonal_product(self, rng):
        T = random_positive_matrix(rng, 3, 3)
        assert lgv_minor(gamma(T), (1, 2, 3), (1, 2, 3)) == T[1, 1] * T[2, 2] * T[3, 3]

    def test_single_entry_minor_is_reconstructed_entry(self, rng):
        T = random_positive_matrix(rng, 2, 3)
        X = matrix_from_scaffold(T, Orientation.GAMMA)
        assert lgv_minor(gamma(T), (2,), (3,)) == X[2, 3]

    def test_agrees_with_elimination_and_laplace(self, rng):
        import itertools

        for _ in range(6):
            m, n = rng.randint(2, 3), rng.randint(2, 4)
            T = random_positive_matrix(rng, m, n)
            g = gamma(T)
            X = matrix_from_scaffold(T, Orientation.GAMMA)
            for k in range(1, min(m, n) + 1):
                for I in itertools.combinations(range(1, m + 1), k):
                    for J in itertools.combinations(range(1, n + 1), k):
                        value = lgv_minor(g, I, J)
                        assert value == minor(X, I, J)
                        assert value == laplace_minor(X, I, J)

    def test_le_orientation_minors(self, rng):
        T = random_positive_matrix(rng, 3, 3)
        X = matrix_from_scaffold(T, Orientation.LE)
        assert lgv_minor(le(T), (1, 2), (2, 3)) == minor(X, (1, 2), (2, 3))

    def test_empty_minor(self):
        assert lgv_minor(gamma(ONES3), (), ()) == 1


class TestBlockedPathSums:
    def test_full_bound_recovers_entry(self):
        X = matrix_from_scaffold(T23, Orientation.GAMMA)
        assert blocked_path_sum(T23, 1, 1, 3) == X[1, 1] == 8

    def test_tight_bound_keeps_primary_only(self):
        assert blocked_path_sum(T23, 1, 1, 1) == T23[1, 1] == 1

    def test_bottom_row_sums_are_single_weights(self):
        assert blocked_path_sum(T23, 2, 2, 2) == F(1, 2)

    def test_known_bound_counts(self):
        g = gamma(ONES3)
        assert len(enumerate_paths_bounded(g, 1, 1, 2)) == 3
        assert len(enumerate_paths_bounded(g, 1, 1, 3)) == 6

    def test_bounded_requires_gamma(self):
        with pytest.raises(ValueError):
            enumerate_paths_bounded(le(ONES3), 1, 1, 2)
        with pytest.raises(ValueError):
            enumerate_paths_bounded(gamma(ONES3), 1, 2, 1)

    def test_enumeration_matches_minor_ratio(self, rng):
        for _ in range(8):
            m, n = rng.randint(2, 4), rng.randint(2, 4)
            T = random_positive_matrix(rng, m, n)
            X = matrix_from_scaffold(T, Orientation.GAMMA)
            for i in range(1, m + 1):
                for bound in range(1, n + 1):
                    for j in range(1, bound + 1):
                        assert blocked_path_sum(T, i, j, bound) == blocked_path_sum_minor_ratio(
                            X, i, j, bound
                        )

    def test_minor_ratio_example(self):
        assert blocked_path_sum_minor_ratio(X23, 1, 1, 1) == 1

    def test_partition_by_first_turn_column(self, rng):
        T = random_positive_matrix(rng, 3, 4)
        g = gamma(T)
        full = enumerate_paths(g, 1, 2)
        for bound in range(2, 5):
            bounded = enumerate_paths_bounded(g, 1, 2, bound)
            assert [p for p in full if p.turns[0][1] <= bound] == bounded


class TestDotOutput:
    def test_node_and_edge_counts(self):
        dot = to_dot(gamma(T23))
        node_lines = [l for l in dot.splitlines() if "[" in l]
        edge_lines = [l for l in dot.splitlines() if "->" in l]
        assert len(node_lines) == 2 * 3 + 2 + 3
        assert len(edge_lines) == 2 * 2 * 3

    def test_minimal_graph(self):
        dot = to_dot(gamma(Matrix([["1/2"]])))
        node_lines = [l for l in dot.splitlines() if "[" in l]
        edge_lines = [l for l in dot.splitlines() if "->" in l]
        assert len(node_lines) == 3
        assert len(edge_lines) == 2
        assert 'v_1_1 [label="1/2"];' in dot
        assert "row_1 -> v_1_1;" in dot
        assert "v_1_1 -> col_1;" in dot

    def test_gamma_edge_directions(self):
        dot = to_dot(gamma(T23))
        assert "v_1_3 -> v_1_2;" in dot
        assert "v_1_1 -> v_2_1;" in dot
        assert "row_1 -> v_1_3;" in dot
        assert "v_2_2 -> col_2;" in dot

    def test_le_edge_directions(self):
        dot = to_dot(le(T23))
        assert "v_1_2 -> v_1_3;" in dot
        assert "v_2_1 -> v_1_1;" in dot
        assert "row_2 -> v_2_1;" in dot
        assert "v_1_3 -> col_3;" in dot

    def test_deterministic(self):
        assert to_dot(gamma(T23)) == to_dot(gamma(T23))

    def test_weights_appear_as_labels(self):
        dot = to_dot(gamma(T23))
        assert 'v_2_2 [label="1/2"];' in dot
