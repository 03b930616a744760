import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from simplexsp import (
    ComplexError,
    SimplicialComplex,
    complex_laplacian,
    connected_components,
    from_edge_list,
    gromov_product,
    is_graph_type,
    maximal_simplices,
    shape_constant,
    simplex_laplacian,
    star_expansion,
    two_simplex_closed_form,
)

from conftest import (
    LENGTHS,
    pendant_complex,
    random_complexes,
    random_metric_complex,
    random_positive_triple,
    traced,
)
from oracles import complex_laplacian_reference, is_graph_type_dense


class TestGromovProduct:
    def test_unit_triangle(self):
        assert gromov_product(1, 1, 1) == 0.5

    def test_345(self):
        assert gromov_product(3, 4, 5) == 1.0

    def test_degenerate_collinear(self):
        assert gromov_product(1, 1, 2) == 0.0

    def test_negative_when_triangle_inequality_fails(self):
        assert gromov_product(1, 1, 3) < 0

    def test_non_positive_rejected(self):
        with pytest.raises(ComplexError):
            gromov_product(0, 1, 1)
        with pytest.raises(ComplexError):
            gromov_product(1, -2, 1)
        with pytest.raises(ComplexError):
            gromov_product(1, 1, float("inf"))


class TestStarExpansion:
    def test_unit_equilateral(self):
        se = star_expansion((1, 2, 3), {(1, 2): 1, (1, 3): 1, (2, 3): 1})
        np.testing.assert_allclose(se.star_weights, [0.5, 0.5, 0.5])
        assert not se.has_negative_weight

    def test_345_weights(self):
        se = star_expansion((1, 2, 3), {(1, 2): 3, (1, 3): 4, (2, 3): 5})
        np.testing.assert_allclose(se.star_weights, [1.0, 2.0, 3.0])

    def test_unit_tetrahedron(self):
        pairs = {p: 1.0 for p in itertools.combinations((1, 2, 3, 4), 2)}
        se = star_expansion((1, 2, 3, 4), pairs)
        np.testing.assert_allclose(se.star_weights, [0.5] * 4)

    def test_averaging_matrix_shape_and_rows(self):
        pairs = {p: 1.0 for p in itertools.combinations((1, 2, 3, 4), 2)}
        se = star_expansion((1, 2, 3, 4), pairs)
        t = se.averaging
        assert t.shape == (5, 4)
        np.testing.assert_allclose(t.sum(axis=1), 1.0)  # every row sums to 1
        np.testing.assert_allclose(t[:4], np.eye(4))  # identity rows for f(v)

    def test_embedding_injective(self):
        se = star_expansion((7, 3, 9), {(7, 3): 1, (7, 9): 1, (3, 9): 1})
        assert len(set(se.embedding.values())) == 3

    def test_negative_flag(self):
        se = star_expansion((1, 2, 3), {(1, 2): 1, (1, 3): 1, (2, 3): 3})
        assert se.has_negative_weight

    def test_missing_weight(self):
        with pytest.raises(ComplexError):
            star_expansion((1, 2, 3), {(1, 2): 1, (1, 3): 1})

    def test_too_few_vertices(self):
        with pytest.raises(ComplexError):
            star_expansion((1, 2), {(1, 2): 1})


FIXTURE_345 = np.array(
    [
        [1.0, -1.0 / 3.0, -2.0 / 3.0],
        [-1.0 / 3.0, 4.0 / 3.0, -1.0],
        [-2.0 / 3.0, -1.0, 5.0 / 3.0],
    ]
)


class TestSimplexLaplacian:
    def test_unit_equilateral_matrix(self):
        se = star_expansion((1, 2, 3), {(1, 2): 1, (1, 3): 1, (2, 3): 1})
        want = np.full((3, 3), -1.0 / 6.0) + np.eye(3) * 0.5
        np.testing.assert_allclose(simplex_laplacian(se).matrix, want, atol=1e-15)

    def test_345_matrix(self):
        se = star_expansion((1, 2, 3), {(1, 2): 3, (1, 3): 4, (2, 3): 5})
        lap = simplex_laplacian(se).matrix
        np.testing.assert_allclose(lap, FIXTURE_345, atol=1e-12)
        np.testing.assert_allclose(lap.sum(axis=1), 0.0, atol=1e-12)

    def test_constant_vector_in_kernel(self, rng):
        for _ in range(20):
            k = int(rng.integers(3, 7))
            verts = tuple(range(k))
            pairs = {
                p: float(rng.uniform(0.5, 3.0))
                for p in itertools.combinations(verts, 2)
            }
            lap = simplex_laplacian(star_expansion(verts, pairs)).matrix
            np.testing.assert_allclose(lap @ np.ones(k), 0.0, atol=1e-12)


class TestClosedForm:
    def test_unit_triangle(self):
        lap = two_simplex_closed_form(1, 1, 1).matrix
        want = np.full((3, 3), -1.0 / 6.0) + np.eye(3) * 0.5
        np.testing.assert_allclose(lap, want, atol=1e-15)

    def test_345_fixture(self):
        np.testing.assert_allclose(
            two_simplex_closed_form(3, 4, 5).matrix, FIXTURE_345, atol=1e-12
        )

    def test_degenerate_112_against_oracle(self):
        lap = two_simplex_closed_form(1, 1, 2).matrix
        assert lap[0, 0] == pytest.approx(2.0 / 9.0)
        oracle = simplex_laplacian(
            star_expansion((1, 2, 3), {(1, 2): 1, (1, 3): 1, (2, 3): 2})
        ).matrix
        np.testing.assert_allclose(lap, oracle, atol=1e-14)

    def test_oracle_equivalence_1000_triples(self, rng):
        for _ in range(1000):
            w12, w13, w23 = random_positive_triple(rng)
            closed = two_simplex_closed_form(w12, w13, w23).matrix
            oracle = simplex_laplacian(
                star_expansion((1, 2, 3), {(1, 2): w12, (1, 3): w13, (2, 3): w23})
            ).matrix
            scale = max(1.0, np.abs(oracle).max())
            assert np.abs(closed - oracle).max() <= 1e-12 * scale


class TestComplexLaplacian:
    def test_path_graph_recovery(self):
        x = from_edge_list([(1, 2), (2, 3)])
        want = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float)
        np.testing.assert_array_equal(complex_laplacian(x).matrix, want)

    def test_single_triangle_equals_closed_form(self):
        x = SimplicialComplex(
            [1, 2, 3], {(1, 2): 3, (1, 3): 4, (2, 3): 5}, [(1, 2, 3)]
        )
        np.testing.assert_allclose(
            complex_laplacian(x).matrix, FIXTURE_345, atol=1e-12
        )

    def test_triangle_plus_bare_edge_block_sum(self):
        x = SimplicialComplex(
            [1, 2, 3, 4], {(1, 2): 1, (1, 3): 1, (2, 3): 1, (3, 4): 1}, [(1, 2, 3)]
        )
        lap = complex_laplacian(x).matrix
        assert lap[2, 2] == pytest.approx(1.0 / 3.0 + 1.0)
        assert lap[2, 3] == pytest.approx(-1.0)
        assert lap[0, 3] == 0.0
        np.testing.assert_allclose(lap.sum(axis=1), 0.0, atol=1e-14)

    def test_graph_recovery_100_random_graphs(self, rng):
        for _ in range(100):
            n = int(rng.integers(3, 15))
            edges = [
                (i, j, float(rng.uniform(0.1, 5.0)))
                for i, j in itertools.combinations(range(n), 2)
                if rng.random() < 0.4
            ]
            if not edges:
                continue
            x = from_edge_list(edges)
            np.testing.assert_array_equal(
                complex_laplacian(x).matrix, x.graph().laplacian_matrix()
            )

    def test_decomposition_linearity_exhaustive(self, rng):
        # sum of per-maximal-simplex blocks must reproduce the assembly
        for _ in range(25):
            x = random_metric_complex(rng, n=6, edge_prob=0.7, triangle_prob=0.6)
            lap = complex_laplacian(x).matrix
            idx = x.index
            total = np.zeros((x.n, x.n))
            for s in maximal_simplices(x):
                rows = [idx[v] for v in s]
                if len(s) >= 3:
                    pairs = {
                        (u, v): x.edges[x.graph().pair(u, v)]
                        for u, v in itertools.combinations(s, 2)
                    }
                    block = simplex_laplacian(star_expansion(s, pairs)).matrix
                elif len(s) == 2:
                    w = x.edges[x.graph().pair(s[0], s[1])]
                    block = w * np.array([[1.0, -1.0], [-1.0, 1.0]])
                else:
                    continue
                total[np.ix_(rows, rows)] += block
            np.testing.assert_allclose(lap, total, atol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(random_complexes(LENGTHS))
    def test_matches_reference_bitwise(self, x):
        got, want = complex_laplacian(x), complex_laplacian_reference(x)
        assert got.matrix.tobytes() == want.matrix.tobytes()
        assert got.provenance == want.provenance

    @pytest.mark.parametrize("simplices, provenance", [
        ([], ((0, 1), (0, 2), (1, 2), (2, 3))),
        ([(0, 1, 2)], ((0, 1, 2), (2, 3))),
    ], ids=["plain-graph", "2-complex"])
    def test_provenance_lists_maximal_blocks(self, simplices, provenance):
        # a triangle with a pendant edge and an isolated vertex, which adds no block
        edges = {(0, 1): 3.0, (0, 2): 4.0, (1, 2): 5.0, (2, 3): 1.5}
        x = SimplicialComplex(range(5), edges, simplices)
        got, want = complex_laplacian(x), complex_laplacian_reference(x)
        assert got.provenance == want.provenance == provenance
        assert got.matrix.tobytes() == want.matrix.tobytes()

    def test_matches_reference_bitwise_metric_complexes(self, rng):
        # up to 30 vertices: rows repeat often across the blocks
        for _ in range(60):
            x = random_metric_complex(rng)
            got, want = complex_laplacian(x), complex_laplacian_reference(x)
            assert got.matrix.tobytes() == want.matrix.tobytes()
            assert got.provenance == want.provenance

    def test_operator_properties_random_metric_complexes(self, rng):
        for _ in range(40):
            x = random_metric_complex(rng)
            lap = complex_laplacian(x).matrix
            scale = max(1.0, np.linalg.norm(lap))
            np.testing.assert_array_equal(lap, lap.T)
            vals = np.linalg.eigvalsh(lap)
            assert vals.min() >= -1e-10 * scale
            np.testing.assert_allclose(lap @ np.ones(x.n), 0.0, atol=1e-10 * scale)
            kernel = int(np.sum(vals < 1e-8 * scale))
            assert kernel == len(connected_components(x.graph()))

    def test_skeleton_difference_formula(self, rng):
        # edge of weight a in exactly one triangle with companions b, c:
        # (i, j) entry of L_{X^1} - L_X is -(13a + b + c)/18
        for _ in range(100):
            x, (w01, w02, w12) = pendant_complex(rng)
            diff = x.graph().laplacian_matrix() - complex_laplacian(x).matrix
            assert diff[0, 1] == pytest.approx(-(13 * w01 + w02 + w12) / 18, abs=1e-12)
            assert diff[0, 2] == pytest.approx(-(13 * w02 + w01 + w12) / 18, abs=1e-12)
            assert diff[1, 2] == pytest.approx(-(13 * w12 + w01 + w02) / 18, abs=1e-12)

    def test_tetrahedron_assembly(self):
        verts = [1, 2, 3, 4]
        edges = {p: 1.0 for p in itertools.combinations(verts, 2)}
        simplices = [(1, 2, 3, 4)] + list(itertools.combinations(verts, 3))
        x = SimplicialComplex(verts, edges, simplices)
        lap = complex_laplacian(x).matrix
        oracle = simplex_laplacian(star_expansion(tuple(verts), edges)).matrix
        np.testing.assert_allclose(lap, oracle, atol=1e-14)


class TestShapeConstant:
    def test_unit(self):
        assert shape_constant(1, 1, 1) == 1.5

    def test_point_two(self):
        assert shape_constant(0.2, 1, 1) == pytest.approx(-0.5)

    def test_345(self):
        assert shape_constant(3, 4, 5) == 3.0

    def test_graph_type_iff_shape_constant_1000_triples(self, rng):
        for _ in range(1000):
            w = random_positive_triple(rng)
            graph_type = is_graph_type(two_simplex_closed_form(*w), tol=1e-12)
            assert graph_type == (shape_constant(*w) >= 0)


class TestIsGraphType:
    def test_graph_laplacian_true(self, rng):
        x = random_metric_complex(rng, n=10, triangle_prob=0.0)
        assert is_graph_type(complex_laplacian(x))

    def test_negative_shape_constant_false(self):
        assert not is_graph_type(two_simplex_closed_form(0.2, 1, 1), tol=1e-12)

    def test_zero_matrix_true(self):
        assert is_graph_type(np.zeros((4, 4)))

    def test_negative_tol_rejected(self):
        with pytest.raises(ComplexError):
            is_graph_type(np.zeros((2, 2)), tol=-1.0)

    @settings(max_examples=500, deadline=None)
    @given(
        st.integers(1, 5).flatmap(lambda n: hnp.arrays(
            np.float64, (n, n),
            elements=st.one_of(st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-12]),
                               st.floats(-2.0, 2.0)))),
        st.sampled_from([0.0, 1e-12, 0.5, np.inf]),
    )
    def test_matches_dense_reference(self, m, tol):
        # an inf or NaN on the diagonal fails m - diag(diag) <= tol in the
        # reference, whatever its sign; both warn of inf - inf alike
        with np.errstate(invalid="ignore"):
            assert is_graph_type(m, tol) == is_graph_type_dense(m, tol)

    def test_no_dense_float_temporaries(self, rng):
        # a boolean n x n mask is an eighth of a float matrix; the reference
        # forms two float matrices
        n = 300
        m = complex_laplacian(random_metric_complex(rng, n=n, edge_prob=0.02)).matrix
        assert traced(lambda: is_graph_type(m, 1e-12))[1] <= 0.25 * 8 * n * n
