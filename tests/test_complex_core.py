import itertools

import numpy as np
import pytest
from hypothesis import given, settings

from simplexsp import (
    ComplexError,
    Hypergraph,
    SimplicialComplex,
    WeightedGraph,
    connected_components,
    enumerate_candidate_triangles,
    from_edge_list,
    from_hypergraph,
    knn_graph,
    maximal_simplices,
    skeleton,
)

from conftest import random_complexes
from oracles import maximal_simplices_quadratic

class TestFromEdgeList:
    def test_default_weights(self):
        x = from_edge_list([(1, 2), (2, 3)])
        assert x.edges == {(1, 2): 1.0, (2, 3): 1.0}
        assert x.simplices == frozenset()

    def test_weighted_triangle_no_face_promotion(self):
        x = from_edge_list([(1, 2, 3.0), (1, 3, 4.0), (2, 3, 5.0)])
        assert x.edges == {(1, 2): 3.0, (1, 3): 4.0, (2, 3): 5.0}
        assert not x.simplices  # edges only, never promoted to a 2-simplex

    def test_self_loop_rejected(self):
        with pytest.raises(ComplexError):
            from_edge_list([(1, 1)])

    def test_conflicting_duplicate_rejected(self):
        with pytest.raises(ComplexError):
            from_edge_list([(1, 2, 1.0), (2, 1, 2.0)])

    def test_non_positive_weight_rejected(self):
        with pytest.raises(ComplexError):
            from_edge_list([(1, 2, 0.0)])


class TestFromHypergraph:
    def test_single_triangle(self):
        h = Hypergraph([1, 2, 3], [{1, 2, 3}])
        x = from_hypergraph(h)
        assert x.simplices == frozenset({(1, 2, 3)})
        assert x.edges == {(1, 2): 1.0, (1, 3): 1.0, (2, 3): 1.0}

    def test_mixed_arity(self):
        h = Hypergraph([1, 2, 3, 4], [{1, 2}, {2, 3, 4}])
        x = from_hypergraph(h)
        assert x.simplices == frozenset({(2, 3, 4)})
        assert set(x.edges) == {(1, 2), (2, 3), (2, 4), (3, 4)}

    def test_tetrahedron_faces_by_enumeration(self):
        h = Hypergraph([1, 2, 3, 4], [{1, 2, 3, 4}])
        x = from_hypergraph(h)
        # oracle: brute-force enumeration of subsets of sizes 2 and 3
        verts = [1, 2, 3, 4]
        want_edges = set(itertools.combinations(verts, 2))
        want_tris = set(itertools.combinations(verts, 3))
        assert set(x.edges) == want_edges
        assert x.simplices == frozenset(want_tris) | {(1, 2, 3, 4)}

    def test_small_hyperedge_rejected(self):
        with pytest.raises(ComplexError):
            Hypergraph([1, 2], [{1}])

    def test_maximal_recovers_inclusion_maximal_hyperedges(self, rng):
        for _ in range(20):
            n = int(rng.integers(4, 9))
            hedges = set()
            while len(hedges) < 4:
                size = int(rng.integers(2, n + 1))
                hedges.add(frozenset(rng.choice(n, size=size, replace=False).tolist()))
            maximal_he = {h for h in hedges if not any(h < o for o in hedges)}
            x = from_hypergraph(Hypergraph(range(n), hedges))
            got = {frozenset(s) for s in maximal_simplices(x) if len(s) >= 2}
            assert got == maximal_he


class TestKnnGraph:
    def test_line_points(self):
        g = knn_graph([[0.0], [1.0], [10.0]], k=1)
        assert set(g.edges) == {(0, 1), (1, 2)}
        assert all(w == 1.0 for w in g.edges.values())

    def test_k_equals_n_minus_one_complete(self):
        g = knn_graph([[0.0], [1.0], [2.0]], k=2)
        assert set(g.edges) == {(0, 1), (0, 2), (1, 2)}

    def test_duplicate_points_euclidean_rejected(self):
        with pytest.raises(ComplexError):
            knn_graph([[0.0], [0.0], [3.0]], k=1, weight_mode="euclidean")

    def test_duplicate_points_unit_ok(self):
        g = knn_graph([[0.0], [0.0], [3.0]], k=1, weight_mode="unit")
        assert (0, 1) in g.edges

    def test_k_too_large(self):
        with pytest.raises(ComplexError):
            knn_graph([[0.0], [1.0]], k=2)

    def test_symmetry_under_role_swap(self, rng):
        pts = rng.random((15, 2))
        g = knn_graph(pts.tolist(), k=3, weight_mode="euclidean")
        for (u, v) in g.edges:
            assert g.has_edge(v, u)

    def test_euclidean_weights(self):
        g = knn_graph([[0.0, 0.0], [3.0, 4.0]], k=1, weight_mode="euclidean")
        assert g.edges[(0, 1)] == pytest.approx(5.0)


class TestEnumerateTriangles:
    def test_path_has_no_clique(self):
        g = from_edge_list([(1, 2), (2, 3)]).graph()
        assert enumerate_candidate_triangles(g, "closed") == []

    def test_k4_against_brute_force(self):
        g = from_edge_list(list(itertools.combinations([1, 2, 3, 4], 2))).graph()
        got = enumerate_candidate_triangles(g, "closed")
        brute = [
            t
            for t in itertools.combinations([1, 2, 3, 4], 3)
            if all(g.has_edge(u, v) for u, v in itertools.combinations(t, 2))
        ]
        assert got == brute
        assert len(got) == 4

    def test_all_mode_counts(self):
        g = WeightedGraph([1, 2, 3, 4], {})
        assert len(enumerate_candidate_triangles(g, "all")) == 4

    def test_exhaustive_oracle_small_graphs(self, rng):
        for _ in range(30):
            n = int(rng.integers(3, 9))
            edges = {
                (i, j): 1.0
                for i, j in itertools.combinations(range(n), 2)
                if rng.random() < 0.5
            }
            g = WeightedGraph(range(n), edges)
            brute = [
                t
                for t in itertools.combinations(range(n), 3)
                if all(g.has_edge(u, v) for u, v in itertools.combinations(t, 2))
            ]
            assert enumerate_candidate_triangles(g, "closed") == brute


class TestMaximalSimplices:
    def test_single_triangle(self):
        x = SimplicialComplex([1, 2, 3], {(1, 2): 1, (1, 3): 1, (2, 3): 1}, [(1, 2, 3)])
        assert maximal_simplices(x) == [(1, 2, 3)]

    def test_triangle_plus_edge(self):
        x = SimplicialComplex(
            [1, 2, 3, 4], {(1, 2): 1, (1, 3): 1, (2, 3): 1, (3, 4): 1}, [(1, 2, 3)]
        )
        assert maximal_simplices(x) == [(1, 2, 3), (3, 4)]

    def test_mixed_dimension_complex(self):
        # one 3-simplex, two 2-simplices, three bare edges: 6 maximal simplices
        edges = {}
        for u, v in itertools.combinations([1, 2, 3, 4], 2):
            edges[(u, v)] = 1.0
        edges.update({(4, 5): 1.0, (5, 6): 1.0, (4, 6): 1.0})  # 2-simplex (4,5,6)
        edges.update({(6, 7): 1.0, (7, 8): 1.0, (6, 8): 1.0})  # 2-simplex (6,7,8)
        edges.update({(8, 9): 1.0, (9, 10): 1.0, (10, 11): 1.0})  # three bare edges
        simplices = [
            (1, 2, 3, 4),
            (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4),  # faces of the 3-simplex
            (4, 5, 6),
            (6, 7, 8),
        ]
        x = SimplicialComplex(range(1, 12), edges, simplices)
        ms = maximal_simplices(x)
        assert len(ms) == 6
        assert (1, 2, 3, 4) in ms
        assert sum(1 for s in ms if len(s) == 3) == 2
        assert sum(1 for s in ms if len(s) == 2) == 3

    def test_isolated_vertex(self):
        x = SimplicialComplex([1, 2, 3], {(1, 2): 1.0})
        assert maximal_simplices(x) == [(1, 2), (3,)]

    def test_stored_simplex_without_its_faces(self):
        # (1, 2, 3) is the only stored 2-face of (1, 2, 3, 4) and is still
        # dominated; (1, 2, 5) shares only the edge (1, 2) with it
        edges = {e: 1.0 for e in itertools.combinations([1, 2, 3, 4], 2)}
        edges.update({(1, 5): 1.0, (2, 5): 1.0})
        x = SimplicialComplex(range(1, 6), edges, [(1, 2, 3, 4), (1, 2, 3), (1, 2, 5)])
        assert maximal_simplices(x) == [(1, 2, 3, 4), (1, 2, 5)]

    @settings(max_examples=300, deadline=None)
    @given(random_complexes())
    def test_matches_quadratic_oracle(self, x):
        assert maximal_simplices(x) == maximal_simplices_quadratic(x)


class TestSkeleton:
    def test_one_skeleton_is_weighted_graph(self):
        x = SimplicialComplex([1, 2, 3], {(1, 2): 2.0, (1, 3): 1, (2, 3): 1}, [(1, 2, 3)])
        sk = skeleton(x, 1)
        assert sk.edges == x.edges
        assert not sk.simplices

    def test_zero_skeleton(self):
        x = from_edge_list([(1, 2)])
        sk = skeleton(x, 0)
        assert sk.vertices == (1, 2)
        assert not sk.edges

    def test_tetrahedron_two_skeleton(self):
        h = Hypergraph([1, 2, 3, 4], [{1, 2, 3, 4}])
        x = from_hypergraph(h)
        sk = skeleton(x, 2)
        assert sk.simplices == frozenset(itertools.combinations([1, 2, 3, 4], 3))
        assert len(sk.edges) == 6


class TestConnectedComponents:
    def test_path(self):
        g = from_edge_list([(1, 2), (2, 3)]).graph()
        assert connected_components(g) == [{1, 2, 3}]

    def test_two_disjoint_edges(self):
        g = from_edge_list([(1, 2), (3, 4)]).graph()
        assert connected_components(g) == [{1, 2}, {3, 4}]

    def test_no_edges(self):
        g = WeightedGraph([1, 2, 3], {})
        assert connected_components(g) == [{1}, {2}, {3}]


class TestFaceClosureValidation:
    def test_missing_edge_rejected(self):
        with pytest.raises(ComplexError):
            SimplicialComplex([1, 2, 3], {(1, 2): 1.0, (1, 3): 1.0}, [(1, 2, 3)])

    def test_duplicate_vertex_in_simplex_rejected(self):
        with pytest.raises(ComplexError):
            SimplicialComplex([1, 2], {(1, 2): 1.0}, [(1, 2, 2)])

    def test_simplices_deduplicated(self):
        x = SimplicialComplex(
            [1, 2, 3],
            {(1, 2): 1, (1, 3): 1, (2, 3): 1},
            [(1, 2, 3), (3, 2, 1), (2, 1, 3)],
        )
        assert len(x.simplices) == 1
