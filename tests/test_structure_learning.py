import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simplexsp import (
    ComplexError,
    WeightedGraph,
    bandpass,
    build_family,
    complex_laplacian,
    enumerate_candidate_triangles,
    family_manifest,
    filtration_bands,
    from_edge_list,
    order_within_band,
    partition_queue,
    select_model,
    two_simplex_closed_form,
)
from simplexsp.structure_learning import TriangleQueue, _triple_weights, manifest_json

from simplexsp.tasks import two_cluster_graph

from conftest import VERTEX_POOL, random_graphs, random_metric_complex
from oracles import family_levels_reference, order_within_band_quadratic


@st.composite
def triple_lists(draw):
    """Triples over a few mixed int/float/str ids, so that many share an
    edge, with some drawn again as repeats."""
    pool = draw(st.lists(st.sampled_from(VERTEX_POOL), min_size=3, max_size=8, unique=True))
    triple = st.lists(st.sampled_from(pool), min_size=3, max_size=3, unique=True).map(tuple)
    triples = draw(st.lists(triple, max_size=40))
    if triples:
        triples += draw(st.lists(st.sampled_from(triples), max_size=5))
    return triples


def triangles_with_sizes(sizes):
    """One vertex-disjoint unit triple per size; its max edge weight = size."""
    triples, weights = [], {}
    for i, s in enumerate(sizes):
        a, b, c = 3 * i, 3 * i + 1, 3 * i + 2
        triples.append((a, b, c))
        weights[frozenset((a, b))] = s
        weights[frozenset((a, c))] = s / 2.0
        weights[frozenset((b, c))] = s / 2.0
    return triples, weights


class TestFiltrationBands:
    def test_identical_sizes_collapse_to_first_band(self):
        triples, weights = triangles_with_sizes([2.0, 2.0, 2.0, 2.0])
        q = filtration_bands(triples, weights, 3)
        assert all(q.band_of[t] == 0 for t in triples)
        assert len(q.bands) == 3

    def test_median_split(self):
        triples, weights = triangles_with_sizes([1.0, 2.0, 3.0, 4.0])
        q = filtration_bands(triples, weights, 2)
        got = [q.band_of[t] for t in triples]
        assert got == [0, 0, 1, 1]

    def test_single_band(self):
        triples, weights = triangles_with_sizes([1.0, 5.0, 3.0])
        q = filtration_bands(triples, weights, 1)
        assert set(q.entries) == set(triples)
        assert all(q.band_of[t] == 0 for t in triples)

    def test_band_monotone_along_queue(self):
        triples, weights = triangles_with_sizes([4.0, 1.0, 3.0, 2.0, 5.0, 6.0])
        q = filtration_bands(triples, weights, 3)
        bands_seq = [q.band_of[t] for t in q.entries]
        assert bands_seq == sorted(bands_seq)

    def test_empty(self):
        q = filtration_bands([], {}, 4)
        assert q.entries == [] and q.bands == []

    def test_permutation_no_loss(self):
        triples, weights = triangles_with_sizes([3.0, 1.0, 2.0, 2.0, 9.0])
        q = filtration_bands(triples, weights, 2)
        assert sorted(q.entries) == sorted(triples)


class TestOrderWithinBand:
    def test_disjoint_triples_keep_shuffle(self):
        triples = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)]
        seed = 7
        shuffled = [triples[i] for i in np.random.default_rng(seed).permutation(4)]
        assert order_within_band(triples, seed) == shuffled

    def test_permutation_of_input(self, rng):
        for _ in range(20):
            x = random_metric_complex(rng, n=10, edge_prob=0.7, triangle_prob=1.0)
            triples = sorted(x.triangles())
            out = order_within_band(triples, int(rng.integers(1000)))
            assert sorted(out) == triples

    def test_two_sharing_order_preserved(self):
        triples = [(0, 1, 2), (0, 1, 3)]
        for seed in range(10):
            shuffled = [triples[i] for i in np.random.default_rng(seed).permutation(2)]
            assert order_within_band(triples, seed) == shuffled

    def test_sharing_triples_sink_behind_disjoint(self):
        # three mutually edge-sharing triples around edge (0,1), one disjoint
        sharing = [(0, 1, 2), (0, 1, 3), (0, 1, 4)]
        disjoint = (5, 6, 7)
        triples = sharing + [disjoint]
        for seed in range(10):
            shuffled = [
                triples[i] for i in np.random.default_rng(seed).permutation(4)
            ]
            first_sharing = next(t for t in shuffled if t in sharing)
            out = order_within_band(triples, seed)
            d = out.index(disjoint)
            for t in sharing:
                if t == first_sharing:
                    continue
                assert out.index(t) > d  # pushed behind the non-sharing triple

    def test_deterministic(self):
        triples = [(0, 1, 2), (1, 2, 3), (2, 3, 4), (5, 6, 7)]
        assert order_within_band(triples, 3) == order_within_band(triples, 3)

    @settings(max_examples=300, deadline=None)
    @given(triple_lists(), st.integers(0, 2**32 - 1))
    @example([], 0)
    @example([(0, 1, 2)], 5)
    @example([(0, 1, 2), (0, 1, 2), (2, 1, 0)], 1)
    @example([(0, "a", 2.5), ("a", 2.5, "b"), (0, 2.5, 7)], 2)
    def test_matches_quadratic_reference(self, triples, seed):
        assert order_within_band(triples, seed) == order_within_band_quadratic(triples, seed)

    def test_matches_quadratic_reference_on_candidates(self):
        triples = enumerate_candidate_triangles(two_cluster_graph(60, seed=1), "closed")
        assert len(triples) > 300
        for seed in range(3):
            assert order_within_band(triples, seed) == order_within_band_quadratic(triples, seed)


class TestPartitionQueue:
    def _queue(self, n):
        entries = [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(n)]
        return TriangleQueue(entries, {t: 0 for t in entries}, [(0.0, 1.0)])

    def test_remainder_spread_earliest(self):
        batches = partition_queue(self._queue(10), 3)
        assert [len(b) for b in batches] == [4, 3, 3]

    def test_empty_queue(self):
        batches = partition_queue(self._queue(0), 5)
        assert batches == [[], [], [], [], []]

    def test_singletons(self):
        q = self._queue(20)
        batches = partition_queue(q, 20)
        assert [len(b) for b in batches] == [1] * 20
        assert [b[0] for b in batches] == q.entries

    def test_contiguous_cover(self):
        q = self._queue(13)
        batches = partition_queue(q, 4)
        assert list(itertools.chain.from_iterable(batches)) == q.entries

    def test_invalid_p(self):
        with pytest.raises(ComplexError):
            partition_queue(self._queue(3), 0)


class TestBuildFamily:
    def test_triangle_free_constant_family(self):
        g = from_edge_list([(1, 2), (2, 3), (3, 4)]).graph()
        fam = build_family(g, p=4, seed=1)
        assert fam.p == 4
        base = fam.laplacians[0].matrix
        for l in fam.laplacians[1:]:
            np.testing.assert_array_equal(l.matrix, base)
        np.testing.assert_array_equal(base, g.laplacian_matrix())
        with pytest.raises(ComplexError):
            fam.complex(5)

    def test_k3_single_level(self):
        g = from_edge_list([(1, 2), (1, 3), (2, 3)]).graph()
        fam = build_family(g, p=1, seed=0)
        np.testing.assert_allclose(
            fam.laplacians[1].matrix,
            two_simplex_closed_form(1, 1, 1).matrix,
            atol=1e-15,
        )
        np.testing.assert_array_equal(fam.laplacians[0].matrix, g.laplacian_matrix())

    def test_incremental_matches_direct_assembly(self, rng):
        # oracle: rebuild each level's Laplacian from scratch
        for _ in range(5):
            x = random_metric_complex(rng, n=14, edge_prob=0.5, triangle_prob=1.0)
            fam = build_family(x.graph(), p=4, seed=3)
            for i, lvl in enumerate(fam.laplacians):
                direct = complex_laplacian(fam.complex(i)).matrix
                assert np.abs(lvl.matrix - direct).max() < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(random_graphs(), st.sampled_from(["closed", "all"]), st.integers(1, 3),
           st.integers(1, 4), st.integers(0, 50))
    def test_matches_reference_bitwise(self, g, mode, bands, p, seed):
        fam = build_family(g, p=p, num_bands=bands, seed=seed, mode=mode)
        _, wmap = _triple_weights(g, enumerate_candidate_triangles(g, mode), mode)
        complexes, laplacians = family_levels_reference(g, fam.batches, wmap)
        assert len(fam.laplacians) == len(laplacians)
        levels = family_manifest(fam)["levels"]
        for i, (x, want) in enumerate(zip(complexes, laplacians)):
            got = fam.laplacians[i]
            assert got.matrix.tobytes() == want.matrix.tobytes()
            assert got.provenance == want.provenance
            xi = fam.complex(i)
            assert xi == x and list(xi.edges) == list(x.edges)
            assert levels[i]["num_edges"] == len(x.edges)
            assert levels[i]["num_triangles"] == len(x.simplices)

    def test_nesting(self, rng):
        x = random_metric_complex(rng, n=12, edge_prob=0.6, triangle_prob=1.0)
        fam = build_family(x.graph(), p=3, seed=5)
        complexes = [fam.complex(i) for i in range(fam.p + 1)]
        for a, b, batch in zip(complexes, complexes[1:], fam.batches):
            assert a.simplices <= b.simplices
            assert len(b.simplices) - len(a.simplices) == len(batch)

    def test_mode_all_shortest_path_fill(self):
        # path 1-2-3: the missing edge (1,3) gets the through-path weight 3
        g = from_edge_list([(1, 2, 1.0), (2, 3, 2.0)]).graph()
        fam = build_family(g, p=1, mode="all")
        assert fam.complex(1).simplices == frozenset({(1, 2, 3)})
        assert fam.complex(1).edges[(1, 3)] == pytest.approx(3.0)
        np.testing.assert_allclose(
            fam.laplacians[1].matrix,
            two_simplex_closed_form(1.0, 3.0, 2.0).matrix,
            atol=1e-14,
        )

    def test_mode_all_forty_vertices(self):
        # every one of the C(40, 3) triples is a candidate; the quadratic
        # ordering ran for minutes on this graph
        g = two_cluster_graph(40, seed=0)
        kept, _ = _triple_weights(g, enumerate_candidate_triangles(g, "all"), "all")
        assert len(kept) == 9880
        fam = build_family(g, p=3, mode="all")
        assert sorted(itertools.chain.from_iterable(fam.batches)) == sorted(kept)
        assert [len(b) for b in fam.batches] == [3294, 3293, 3293]

    def test_mode_all_unreachable_discarded(self):
        g = WeightedGraph([1, 2, 3, 4], {(1, 2): 1.0, (3, 4): 1.0})
        fam = build_family(g, p=1, mode="all")
        assert all(not fam.complex(i).simplices for i in range(fam.p + 1))

    def test_determinism_bit_for_bit(self, rng):
        x = random_metric_complex(rng, n=15, edge_prob=0.5, triangle_prob=1.0)
        f1 = build_family(x.graph(), p=5, num_bands=3, seed=11)
        f2 = build_family(x.graph(), p=5, num_bands=3, seed=11)
        assert manifest_json(f1) == manifest_json(f2)
        for a, b in zip(f1.laplacians, f2.laplacians):
            assert a.matrix.tobytes() == b.matrix.tobytes()

    def test_seed_changes_order(self, rng):
        x = random_metric_complex(rng, n=15, edge_prob=0.6, triangle_prob=1.0)
        f1 = build_family(x.graph(), p=5, seed=1)
        f2 = build_family(x.graph(), p=5, seed=2)
        assert sorted(f1.queue.entries) == sorted(f2.queue.entries)

    def test_disconnected_graph_allowed(self):
        g = WeightedGraph(
            [1, 2, 3, 4, 5, 6],
            {(1, 2): 1, (1, 3): 1, (2, 3): 1, (4, 5): 1, (4, 6): 1, (5, 6): 1},
        )
        fam = build_family(g, p=1)
        vals = np.linalg.eigvalsh(fam.laplacians[1].matrix)
        assert int(np.sum(vals < 1e-10)) == 2


class TestSelectModel:
    def test_constant_signals_tie_break_zero(self, rng):
        x = random_metric_complex(rng, n=10, edge_prob=0.6, triangle_prob=1.0)
        fam = build_family(x.graph(), p=3, seed=0)
        best, errors = select_model(fam, np.ones((10, 3)), r1=0.2)
        assert best == 0
        np.testing.assert_allclose(errors, 0.0, atol=1e-18)

    def test_recovers_generating_level(self, rng):
        for trial in range(5):
            x = random_metric_complex(rng, n=16, edge_prob=0.6, triangle_prob=1.0)
            fam = build_family(x.graph(), p=4, seed=trial)
            j = 3
            s = fam.spectrum(j)
            k = max(1, round(0.3 * 16))
            sig = s.eigenvectors[:, :k] @ rng.standard_normal((k, 8))
            best, errors = select_model(fam, sig, r1=0.3)
            assert errors[best] <= errors[j] + 1e-12
            assert errors[j] < 1e-16 * max(1.0, np.sum(sig**2))

    def test_residual_non_increasing_in_r1(self, rng):
        x = random_metric_complex(rng, n=12, edge_prob=0.6, triangle_prob=1.0)
        fam = build_family(x.graph(), p=3, seed=2)
        sig = rng.standard_normal((12, 4))
        prev = None
        for r1 in (0.1, 0.3, 0.5, 0.8, 1.0):
            _, errors = select_model(fam, sig, r1)
            if prev is not None:
                assert np.all(errors <= prev + 1e-10)
            prev = errors

    def test_full_band_zero_residual(self, rng):
        x = random_metric_complex(rng, n=8, edge_prob=0.7, triangle_prob=1.0)
        fam = build_family(x.graph(), p=2, seed=0)
        _, errors = select_model(fam, rng.standard_normal((8, 3)), r1=1.0)
        np.testing.assert_allclose(errors, 0.0, atol=1e-12)

    def test_invalid_inputs(self, rng):
        x = random_metric_complex(rng, n=8, edge_prob=0.7, triangle_prob=1.0)
        fam = build_family(x.graph(), p=2, seed=0)
        with pytest.raises(ComplexError):
            select_model(fam, np.zeros((8, 1)), r1=0.0)
        with pytest.raises(ComplexError):
            select_model(fam, np.zeros((8, 0)), r1=0.5)
