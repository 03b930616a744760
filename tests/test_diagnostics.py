import itertools

import numpy as np
import pytest

from simplexsp import (
    ComplexError,
    GeneralizedLaplacian,
    Hypergraph,
    SimplicialComplex,
    complex_laplacian,
    diagnostics_report,
    distinctive_check,
    from_edge_list,
    from_hypergraph,
    interior_counts,
    lemma2_audit,
    sandwich_bounds,
    shift_invariance_certificate,
)

from conftest import pendant_complex, random_metric_complex


def joined_triangles_complex():
    """Two edge-joined triangles with a tail and antennas: (m1..m4) = (3,1,1,2)."""
    edges = {
        e: 1.0
        for e in [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5), (1, 6), (6, 8), (4, 7)]
    }
    return SimplicialComplex(range(1, 9), edges, [(1, 2, 3), (3, 4, 5)])


def unit_triangle():
    return SimplicialComplex([1, 2, 3], {(1, 2): 1.0, (1, 3): 1.0, (2, 3): 1.0}, [(1, 2, 3)])


def book_complex(k):
    """k unit triangles sharing the single edge (0, 1)."""
    edges = {(0, 1): 1.0}
    tris = []
    for page in range(2, k + 2):
        edges[(0, page)] = 1.0
        edges[(1, page)] = 1.0
        tris.append((0, 1, page))
    return SimplicialComplex(range(k + 2), edges, tris)


class TestInteriorCounts:
    def test_joined_triangles_fixture(self):
        assert interior_counts(joined_triangles_complex()) == (3, 1, 1, 2)

    def test_single_triangle(self):
        assert interior_counts(unit_triangle()) == (0, 1, 1, 0)

    def test_triangle_free(self):
        x = from_edge_list([(1, 2), (2, 3), (3, 4)])
        assert interior_counts(x) == (4, 0, 0, 0)

    def test_two_disjoint_triangles(self):
        x = SimplicialComplex(
            range(6),
            {(0, 1): 1, (0, 2): 1, (1, 2): 1, (3, 4): 1, (3, 5): 1, (4, 5): 1},
            [(0, 1, 2), (3, 4, 5)],
        )
        assert interior_counts(x) == (0, 2, 2, 0)

    def test_m3_le_m2_and_ranges(self, rng):
        for _ in range(50):
            x = random_metric_complex(rng, n=int(rng.integers(4, 15)))
            m1, m2, m3, m4 = interior_counts(x)
            assert 0 <= m1 <= x.n and 0 <= m4 <= x.n
            assert m3 <= m2

    def test_three_complex_rejected(self):
        x = from_hypergraph(Hypergraph([1, 2, 3, 4], [{1, 2, 3, 4}]))
        with pytest.raises(ComplexError):
            interior_counts(x)


class TestDistinctiveCheck:
    def test_kmax_one_gives_x1_minus_x(self, rng):
        for _ in range(30):
            x, _ = pendant_complex(rng)
            assert distinctive_check(x).direction == "X1_minus_X"

    def test_difference_entry_matches_formula(self, rng):
        x, (a, b, c) = pendant_complex(rng)
        assert distinctive_check(x).direction == "X1_minus_X"
        diff = x.graph().laplacian_matrix() - complex_laplacian(x).matrix
        assert diff[0, 1] == pytest.approx(-(13 * a + b + c) / 18, abs=1e-12)

    def test_triangle_free_trivial(self):
        res = distinctive_check(from_edge_list([(1, 2), (2, 3)]))
        assert res.direction == "neither"
        assert res.trivially_distinctive

    def test_book_sweep_records_threshold(self):
        # direction holds for small books and is lost as the shared edge
        # joins more triangles; the crossover (empirically k = 6) is recorded
        directions = [distinctive_check(book_complex(k)).direction for k in range(1, 9)]
        assert directions[:5] == ["X1_minus_X"] * 5
        assert all(d != "X1_minus_X" for d in directions[5:])
        # once lost, a witness entry is reported
        res = distinctive_check(book_complex(8))
        assert res.witness is not None and res.witness[2] > 0

    def test_witness_none_when_distinctive(self, rng):
        x, _ = pendant_complex(rng)
        assert distinctive_check(x).witness is None


class TestCertificate:
    def test_triangle_in_larger_graph(self, rng):
        # a marked triangle hanging in a bigger graph: all prop1 conditions
        # hold, the certificate fires, and the operators do not commute
        x, _ = pendant_complex(rng)
        prop1, cert, comm = shift_invariance_certificate(x)
        assert prop1 == (True, True, True)
        assert cert
        assert comm > 1e-8

    def test_single_unit_triangle_withheld(self):
        prop1, cert, comm = shift_invariance_certificate(unit_triangle())
        assert not cert
        assert comm < 1e-12

    def test_direct_edge_between_triangles(self):
        edges = {
            e: 1.0
            for e in [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6), (3, 4)]
        }
        x = SimplicialComplex(range(1, 7), edges, [(1, 2, 3), (4, 5, 6)])
        prop1, cert, comm = shift_invariance_certificate(x)
        assert prop1[0] is False
        assert not cert
        assert comm >= 0.0  # commutator reported regardless

    def test_joined_triangles_certificate_fires(self):
        prop1, cert, comm = shift_invariance_certificate(joined_triangles_complex())
        assert cert and comm > 1e-8

    def test_cross_validation_random_complexes(self, rng):
        fired = 0
        while fired < 60:
            x = random_metric_complex(rng, n=int(rng.integers(4, 16)))
            prop1, cert, comm = shift_invariance_certificate(x)
            if cert:
                fired += 1
                assert comm > 1e-8

    def test_prop1_implies_m2_le_m4(self, rng):
        # the counting argument assumes a connected 1-skeleton
        checked = 0
        for _ in range(300):
            x = random_metric_complex(rng, n=int(rng.integers(4, 14)), connected=True)
            prop1, _, _ = shift_invariance_certificate(x)
            if all(prop1):
                m1, m2, m3, m4 = interior_counts(x)
                assert m2 <= m4
                checked += 1
        assert checked > 0


class TestSandwichBounds:
    def test_single_unit_triangle_scalar_ratio(self):
        sb = sandwich_bounds(unit_triangle())
        assert sb.alpha == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert sb.beta == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert sb.claimed_lower == pytest.approx(1.0 / 3.0)
        assert sb.claimed_upper == pytest.approx(1.0 / 3.0)

    def test_mesh_strip(self):
        n = 8
        edges = {}
        tris = []
        for i in range(n - 2):
            edges[(i, i + 1)] = 1.0
            edges[(i, i + 2)] = 1.0
            tris.append((i, i + 1, i + 2))
        edges[(n - 2, n - 1)] = 1.0
        x = SimplicialComplex(range(n), edges, tris)
        sb = sandwich_bounds(x)
        assert sb.k_max == 2
        assert sb.k_min in (0, 1)
        assert sb.alpha <= sb.beta

    def test_triangle_free_identity(self):
        sb = sandwich_bounds(from_edge_list([(1, 2), (2, 3), (1, 3)]))
        assert sb.alpha == pytest.approx(1.0, abs=1e-10)
        assert sb.beta == pytest.approx(1.0, abs=1e-10)

    def test_non_unit_weights_rejected(self):
        x = SimplicialComplex([1, 2, 3], {(1, 2): 2.0, (1, 3): 1, (2, 3): 1}, [(1, 2, 3)])
        with pytest.raises(ComplexError):
            sandwich_bounds(x)

    def test_disconnected_rejected(self):
        x = SimplicialComplex([1, 2, 3, 4], {(1, 2): 1.0, (3, 4): 1.0})
        with pytest.raises(ComplexError):
            sandwich_bounds(x)


class TestLemma2Audit:
    def test_metric_complex_all_pass(self, rng):
        from simplexsp import connected_components

        x = random_metric_complex(rng, n=12)
        report = lemma2_audit(
            complex_laplacian(x), len(connected_components(x.graph()))
        )
        assert all(item["pass"] for item in report.values())

    def test_corrupted_matrix_fails_symmetry(self, rng):
        x = random_metric_complex(rng, n=8)
        m = complex_laplacian(x).matrix.copy()
        m[0, 1] += 0.5
        report = lemma2_audit(GeneralizedLaplacian(m), 1)
        assert not report["symmetry"]["pass"]

    def test_two_component_kernel(self):
        x = SimplicialComplex(
            range(6),
            {(0, 1): 1, (0, 2): 1, (1, 2): 1, (3, 4): 1, (3, 5): 1, (4, 5): 1},
            [(0, 1, 2), (3, 4, 5)],
        )
        report = lemma2_audit(complex_laplacian(x), 2)
        assert report["kernel"]["pass"]
        assert report["kernel"]["dimension"] == 2


class TestDiagnosticsReport:
    def test_joined_triangles_report(self):
        rep = diagnostics_report(joined_triangles_complex())
        assert (rep.m1, rep.m2, rep.m3, rep.m4) == (3, 1, 1, 2)
        assert rep.k_max == 1 and rep.k_min == 0
        assert rep.distinctive == "X1_minus_X"
        assert rep.theorem_certificate
        assert rep.commutator > 1e-8
        assert rep.gamma_min == pytest.approx(1.5)
        assert rep.sandwich is not None  # unit weights, connected
        assert rep.sandwich.alpha <= rep.sandwich.beta

    def test_triangle_free_report(self):
        rep = diagnostics_report(from_edge_list([(1, 2), (2, 3)]))
        assert rep.gamma_min is None
        assert rep.graph_type
        assert rep.trivially_distinctive
        assert not rep.theorem_certificate
        assert rep.commutator == 0.0

    def test_as_dict_roundtrips_to_json(self):
        import json

        d = diagnostics_report(joined_triangles_complex()).as_dict()
        parsed = json.loads(json.dumps(d))
        assert parsed["m1"] == 3
        assert parsed["theorem_certificate"] is True

    def test_difference_ratio_samples_present(self, rng):
        x, _ = pendant_complex(rng)
        rep = diagnostics_report(x)
        assert len(rep.difference_ratio_samples) > 0

    def test_non_unit_weights_skip_sandwich(self, rng):
        x, _ = pendant_complex(rng)
        rep = diagnostics_report(x)
        assert rep.sandwich is None

    def test_fields_equal_public_functions(self, rng):
        # the report assembles L_X and L_{X^1} once; each field must equal
        # what the public function, assembling its own, returns
        for _ in range(15):
            y = random_metric_complex(rng, n=int(rng.integers(4, 16)), connected=True)
            x = SimplicialComplex(y.vertices, {e: 1.0 for e in y.edges}, y.simplices)
            rep = diagnostics_report(x)
            distinctive = distinctive_check(x)
            prop1, certificate, comm = shift_invariance_certificate(x)
            assert rep.distinctive == distinctive.direction
            assert rep.trivially_distinctive == distinctive.trivially_distinctive
            assert rep.prop1_conditions == prop1
            assert rep.theorem_certificate == certificate
            assert rep.commutator == comm
            assert rep.sandwich == sandwich_bounds(x)
