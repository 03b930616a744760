import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simplexsp
from simplexsp import (
    ComplexError,
    DistinctiveResult,
    GeneralizedLaplacian,
    Hypergraph,
    NumericalError,
    SimplicialComplex,
    complex_laplacian,
    diagnostics,
    diagnostics_report,
    distinctive_check,
    from_edge_list,
    from_hypergraph,
    interior_counts,
    lemma2_audit,
    sandwich_bounds,
    shift_invariance_certificate,
    spectral,
)

from conftest import (
    LENGTHS,
    pendant_complex,
    planted_knn_complex,
    random_complexes,
    random_metric_complex,
    traced,
)
from oracles import diagnostics_report_reference, distinctive_check_reference


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

    def test_shuffled_triangle_strip_is_fast(self):
        # triangles (i, i+1, i+2) on shuffled vertex ids: one component whose
        # rows follow no path, so a label that moves one hop a round is slow
        n = 50_000
        ids = np.random.default_rng(0).permutation(n).tolist()
        edges = {(ids[i], ids[j]): 1.0 for i in range(n) for j in (i + 1, i + 2) if j < n}
        x = SimplicialComplex(range(n), edges, [(ids[i], ids[i + 1], ids[i + 2])
                                                for i in range(n - 2)])
        start = time.perf_counter()
        assert interior_counts(x) == (0, 1, 1, 0)
        assert time.perf_counter() - start < 2.0


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

    def test_witness_is_first_triangle_edge_in_first_use_order(self):
        # two 6-page books: L_{X^1} - L_X is 0 on each spine, so the witness
        # is a spine; (1, 5) is used by the first triangle (0, 1, 5) and
        # comes first, though (0, 2) sorts and is listed first
        edges, tris = {}, []
        for (u, v), pages in (((1, 5), [0, 6, 7, 8, 9, 10]), ((0, 2), range(11, 17))):
            for p in pages:
                tris.append(tuple(sorted((u, v, p))))
                edges.update({e: 1.0 for e in itertools.combinations(tris[-1], 2)})
        x = SimplicialComplex(range(17), dict(sorted(edges.items())), tris)
        res = distinctive_check(x)
        assert res.direction == "neither"
        assert res.witness[:2] == (1, 5)
        assert res == distinctive_check_reference(x)

    def test_witness_none_when_distinctive(self, rng):
        x, _ = pendant_complex(rng)
        assert distinctive_check(x).witness is None

    def test_complete_complex_gives_x_minus_x1(self):
        # K_9 with every unit triangle: each edge joins 7 triangles, and
        # L_X - L_{X^1} qualifies; K_8 (6 per edge) qualifies neither way
        def complete(n):
            edges = dict.fromkeys(itertools.combinations(range(n), 2), 1.0)
            return SimplicialComplex(range(n), edges, list(itertools.combinations(range(n), 3)))

        assert distinctive_check(complete(9)) == DistinctiveResult("X_minus_X1", False, None)
        assert distinctive_check(complete(8)).direction == "neither"
        for n in (8, 9):
            assert distinctive_check(complete(n)) == distinctive_check_reference(complete(n))


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

    @pytest.mark.parametrize("length", [1e-100, 1e-170, 1e-300])
    def test_commutator_independent_of_small_length_unit(self, length):
        # the squares inside the norms underflow at these scales
        def pendant_triangle(w):
            edges = {(1, 2): w, (1, 3): w, (2, 3): w, (3, 4): w}
            return SimplicialComplex([1, 2, 3, 4], edges, [(1, 2, 3)])

        unit = shift_invariance_certificate(pendant_triangle(1.0))[2]
        assert unit == pytest.approx(0.2876, abs=1e-4)
        small = shift_invariance_certificate(pendant_triangle(length))[2]
        assert small == pytest.approx(unit, rel=1e-12)


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

    def test_overflowing_norm_rejected(self):
        # an infinite scale would make every tolerance infinite
        with pytest.raises(NumericalError):
            lemma2_audit(np.array([[2.0, -1.0], [-1.0, 2.0]]) * 1e160, 1)


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


def _metric_two_complex(seed, edge_prob, unit):
    x = random_metric_complex(np.random.default_rng(seed), edge_prob=edge_prob,
                              connected=seed % 2 == 0)
    if unit:
        x = SimplicialComplex(x.vertices, {e: 1.0 for e in x.edges}, x.simplices)
    return x


# small complexes with string ids, bare edges, isolated vertices and
# disconnected parts, and metric complexes of up to 30 vertices, half of
# them connected, sparse ones with pendant vertices among them; each with
# unit lengths (the sandwich runs) and without
TWO_COMPLEXES = st.one_of(
    random_complexes(max_simplex=3),
    random_complexes(LENGTHS, max_simplex=3),
    st.builds(_metric_two_complex, st.integers(0, 2**32 - 1), st.sampled_from([0.1, 0.2, 0.4]),
              st.booleans()),
)


@settings(max_examples=200, deadline=None)
@given(TWO_COMPLEXES)
def test_report_matches_loop_reference(x):
    got = json.dumps(diagnostics_report(x).as_dict())
    assert got == json.dumps(diagnostics_report_reference(x).as_dict())
    assert distinctive_check(x) == distinctive_check_reference(x)


def test_report_bytes_match_reference_at_blocked_sizes():
    # sizes where LAPACK's QR runs blocked: the wrappers' default workspace of
    # 3n changes the report at n = 129, 300 and 500, and products with Q in
    # Fortran order at n = 50 and 100.  One BLAS thread, as perfbench runs:
    # numpy's and scipy's OpenBLAS builds split threaded work differently,
    # and the thread count alone moves the last bits of the commutator and
    # the sandwich.
    code = (
        "import json\n"
        "from conftest import planted_knn_complex\n"
        "from oracles import diagnostics_report_reference\n"
        "from simplexsp import diagnostics_report\n"
        "for n in (50, 100, 129, 300, 500):\n"
        "    x = planted_knn_complex(n)\n"
        "    got = diagnostics_report(x).as_dict()\n"
        "    assert got['sandwich'] is not None\n"
        "    if json.dumps(got) != json.dumps(diagnostics_report_reference(x).as_dict()):\n"
        "        print(n)\n"
    )
    paths = [str(Path(simplexsp.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


class TestPeakMemory:
    """tracemalloc peaks in n x n float64 arrays, at n = 300."""

    N = 300
    ARRAY = 8 * N * N

    @pytest.fixture(scope="class")
    def x(self):
        spectral._flapack()  # loading the LAPACK extension allocates objects of its own
        return planted_knn_complex(self.N)

    def test_report(self, x):
        # L_X and L_{X^1}, then four arrays in the commutator or the sandwich;
        # the incidence arrays held beside them grow with the edges and
        # triangles, not with n^2
        incidence = traced(lambda: diagnostics._incidence(x))[0]
        assert traced(lambda: diagnostics_report(x))[1] - incidence <= 6.1 * self.ARRAY

    def test_sandwich(self, x):
        f = diagnostics._facts(x)
        # the C-ordered basis, the Fortran operand a, and b's two products
        assert traced(lambda: diagnostics._sandwich(x, f))[1] <= 4.0 * self.ARRAY
