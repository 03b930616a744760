import itertools
import json
import tracemalloc

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
    eigendecompose,
    enumerate_candidate_triangles,
    family_manifest,
    filtration_bands,
    from_edge_list,
    order_within_band,
    partition_queue,
    select_model,
    two_simplex_closed_form,
)
from simplexsp.structure_learning import _quantiles, _triple_weights

from simplexsp.tasks import two_cluster_graph

from conftest import LENGTHS, VERTEX_POOL, random_graphs, random_metric_complex, traced
from oracles import (
    family_laplacians_dense,
    family_levels_reference,
    filtration_bands_loop,
    order_within_band_quadratic,
)


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


@st.composite
def banded_triples(draw):
    """(triples, lengths, band count): triples as ``triple_lists`` draws
    them, their pairs' lengths from a few values, so that sizes tie at the
    thresholds, keyed by tuples as a graph's edges are, and up to three
    more bands than triples."""
    triples = draw(triple_lists())
    pairs = {}
    for t in triples:
        for e in itertools.combinations(t, 2):
            pairs.setdefault(frozenset(e), e)
    lengths = st.sampled_from([0.5, 1.0, 2.0]) | LENGTHS
    weights = {e: draw(lengths) for e in pairs.values()}
    return triples, weights, draw(st.integers(1, len(triples) + 3))


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
        bands, members = filtration_bands(triples, weights, 3)
        assert members == [triples, [], []]
        assert len(bands) == 3

    def test_median_split(self):
        triples, weights = triangles_with_sizes([1.0, 2.0, 3.0, 4.0])
        bands, members = filtration_bands(triples, weights, 2)
        assert members == [triples[:2], triples[2:]]
        assert bands == [(0.0, 2.5), (2.5, 4.0)]

    def test_single_band(self):
        triples, weights = triangles_with_sizes([1.0, 5.0, 3.0])
        bands, members = filtration_bands(triples, weights, 1)
        assert members == [triples]
        assert bands == [(0.0, 5.0)]

    def test_band_monotone_along_queue(self):
        # each band holds the next sizes up, in input order
        triples, weights = triangles_with_sizes([4.0, 1.0, 3.0, 2.0, 5.0, 6.0])
        _, members = filtration_bands(triples, weights, 3)
        t = triples
        assert members == [[t[1], t[3]], [t[0], t[2]], [t[4], t[5]]]

    def test_empty(self):
        assert filtration_bands([], {}, 4) == ([], [])

    def test_permutation_no_loss(self):
        triples, weights = triangles_with_sizes([3.0, 1.0, 2.0, 2.0, 9.0])
        _, members = filtration_bands(triples, weights, 2)
        assert sorted(itertools.chain(*members)) == sorted(triples)

    def test_invalid_num_bands(self):
        with pytest.raises(ComplexError):
            filtration_bands([(0, 1, 2)], {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0}, 0)

    @settings(max_examples=300, deadline=None)
    @given(banded_triples())
    @example(([(0, 1, 2), (0, 1, 2), (2, 1, 0), (0, 1, 3)],
              {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0, (0, 3): 2.0, (1, 3): 0.5}, 6))
    def test_matches_loop_reference(self, case):
        assert filtration_bands(*case) == filtration_bands_loop(*case)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0]) | LENGTHS | st.floats(1e-300, 1e300),
                    min_size=1, max_size=60),
           st.integers(1, 12))
    @example([2.0], 5)
    @example([1.0, 1.0, 1.0], 12)
    def test_quantiles_match_numpy(self, sizes, num_bands):
        # int64 views tell apart any two bit patterns
        sizes = np.array(sizes)
        q = [i / num_bands for i in range(1, num_bands + 1)]
        assert np.array_equal(_quantiles(sizes, q).view(np.int64),
                              np.quantile(sizes, q).view(np.int64))


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
        return [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(n)]

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
        assert [b[0] for b in batches] == q

    def test_contiguous_cover(self):
        q = self._queue(13)
        batches = partition_queue(q, 4)
        assert list(itertools.chain.from_iterable(batches)) == q

    def test_invalid_p(self):
        with pytest.raises(ComplexError):
            partition_queue(self._queue(3), 0)


class TestBuildFamily:
    def test_triangle_free_constant_family(self):
        g = from_edge_list([(1, 2), (2, 3), (3, 4)]).graph()
        fam = build_family(g, p=4, seed=1)
        assert fam.p == 4
        base = fam.laplacian(0).matrix
        for i in range(1, fam.p + 1):
            np.testing.assert_array_equal(fam.laplacian(i).matrix, base)
        np.testing.assert_array_equal(base, g.laplacian_matrix())
        with pytest.raises(ComplexError):
            fam.complex(5)

    def test_k3_single_level(self):
        g = from_edge_list([(1, 2), (1, 3), (2, 3)]).graph()
        fam = build_family(g, p=1, seed=0)
        np.testing.assert_allclose(
            fam.laplacian(1).matrix,
            two_simplex_closed_form(1, 1, 1).matrix,
            atol=1e-15,
        )
        np.testing.assert_array_equal(fam.laplacian(0).matrix, g.laplacian_matrix())

    def test_incremental_matches_direct_assembly(self, rng):
        # oracle: rebuild each level's Laplacian from scratch
        for _ in range(5):
            x = random_metric_complex(rng, n=14, edge_prob=0.5, triangle_prob=1.0)
            fam = build_family(x.graph(), p=4, seed=3)
            for i in range(fam.p + 1):
                direct = complex_laplacian(fam.complex(i)).matrix
                assert np.abs(fam.laplacian(i).matrix - direct).max() < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(random_graphs(), st.sampled_from(["closed", "all"]), st.integers(1, 3),
           st.integers(1, 4), st.integers(0, 50), st.data())
    def test_matches_reference_bitwise(self, g, mode, bands, p, seed, data):
        fam = build_family(g, p=p, num_bands=bands, seed=seed, mode=mode)
        _, wmap = _triple_weights(g, enumerate_candidate_triangles(g, mode), mode)
        complexes, laplacians = family_levels_reference(g, fam.batches, wmap)
        assert fam.p + 1 == len(laplacians)
        levels = family_manifest(fam)["levels"]
        # levels are rebuilt on every read: a descending run over all of
        # them, then a drawn order with repeats
        order = list(range(fam.p, -1, -1))
        order += data.draw(st.lists(st.integers(0, fam.p), max_size=3 * (fam.p + 1)))
        for i in order:
            x, want = complexes[i], laplacians[i]
            got = fam.laplacian(i)
            assert got.matrix.tobytes() == want.matrix.tobytes()
            assert got.provenance == ()
            xi = fam.complex(i)
            assert xi == x and list(xi.edges) == list(x.edges)
            assert levels[i]["num_edges"] == len(x.edges)
            assert levels[i]["num_triangles"] == len(x.simplices)

    @settings(max_examples=200, deadline=None)
    @given(random_graphs(), st.sampled_from(["closed", "all"]), st.integers(1, 3),
           st.integers(1, 4), st.integers(0, 50))
    # orders of 7 and more take upto=1 to the partial solve, in the array's own memory
    @example(two_cluster_graph(30, seed=1), "closed", 1, 4, 0)
    @example(two_cluster_graph(12, seed=2), "all", 2, 3, 5)
    def test_walk_survives_in_place_solves(self, g, mode, bands, p, seed):
        fam = build_family(g, p=p, num_bands=bands, seed=seed, mode=mode)
        _, wmap = _triple_weights(g, enumerate_candidate_triangles(g, mode), mode)
        _, laplacians = family_levels_reference(g, fam.batches, wmap)
        walk = fam.levels()
        first = next(walk)
        for m, want in zip(itertools.chain([first], walk), laplacians, strict=True):
            assert m is first  # one array, overwritten level by level
            assert m.tobytes() == want.matrix.tobytes()
            # overwrites the array and restores it; the next level must not see it
            eigendecompose(m, upto=1)
            assert m.tobytes() == want.matrix.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(random_graphs(), st.sampled_from(["closed", "all"]), st.integers(1, 3),
           st.integers(1, 4), st.integers(0, 50))
    def test_interleaved_walks_own_their_arrays(self, g, mode, bands, p, seed):
        fam = build_family(g, p=p, num_bands=bands, seed=seed, mode=mode)
        for a, b in zip(fam.levels(), fam.levels(), strict=True):
            assert a is not b and not np.shares_memory(a, b)
            assert a.tobytes() == b.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(random_graphs(), st.sampled_from(["closed", "all"]), st.integers(1, 3),
           st.integers(1, 4), st.integers(0, 50))
    def test_matches_dense_base_bytes(self, g, mode, bands, p, seed):
        # int64 views tell 0.0 from -0.0
        fam = build_family(g, p=p, num_bands=bands, seed=seed, mode=mode)
        want = family_laplacians_dense(g, p, bands, seed, mode)
        for i in range(fam.p + 1):
            assert np.array_equal(fam.laplacian(i).matrix.view(np.int64), want[i].view(np.int64))

    @pytest.mark.parametrize("reader", ["laplacian", "complex"])
    def test_level_out_of_range(self, reader):
        fam = build_family(from_edge_list([(1, 2), (1, 3), (2, 3)]).graph(), p=2)
        for i in (-1, fam.p + 1):
            with pytest.raises(ComplexError):
                getattr(fam, reader)(i)

    def test_held_memory_does_not_grow_with_p(self):
        # a family keeps the entries each batch adds, not a matrix per level
        # nor L_0, which its walk builds from the graph
        g = two_cluster_graph(300, p_in=0.03, p_out=0.002, seed=0)
        build_family(g, p=1)  # the graph caches its adjacency sets on first use
        held = {}
        for p in (1, 10):
            tracemalloc.start()
            fam = build_family(g, p=p)
            held[p] = tracemalloc.get_traced_memory()[0]
            tracemalloc.stop()
            del fam
        n2 = 8 * g.n**2  # bytes of one dense level
        assert held[1] < 0.25 * n2
        assert held[10] < held[1] + 0.25 * n2

    def test_build_holds_no_dense_matrix(self):
        # the build gathers each batch's entries; only the walk forms a level
        g = two_cluster_graph(300, p_in=0.03, p_out=0.002, seed=0)
        build_family(g, p=10)  # the graph caches its adjacency sets on first use
        peak = traced(lambda: build_family(g, p=10))[1]
        assert peak < 8 * g.n**2

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
            fam.laplacian(1).matrix,
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
        m1, m2 = (json.dumps(family_manifest(f), sort_keys=True) for f in (f1, f2))
        assert m1 == m2
        for i in range(f1.p + 1):
            assert f1.laplacian(i).matrix.tobytes() == f2.laplacian(i).matrix.tobytes()

    def test_seed_changes_order(self, rng):
        x = random_metric_complex(rng, n=15, edge_prob=0.6, triangle_prob=1.0)
        f1 = build_family(x.graph(), p=5, seed=1)
        f2 = build_family(x.graph(), p=5, seed=2)
        q1, q2 = list(itertools.chain(*f1.batches)), list(itertools.chain(*f2.batches))
        assert q1 != q2 and sorted(q1) == sorted(q2)

    def test_disconnected_graph_allowed(self):
        g = WeightedGraph(
            [1, 2, 3, 4, 5, 6],
            {(1, 2): 1, (1, 3): 1, (2, 3): 1, (4, 5): 1, (4, 6): 1, (5, 6): 1},
        )
        fam = build_family(g, p=1)
        vals = np.linalg.eigvalsh(fam.laplacian(1).matrix)
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
            s = eigendecompose(fam.laplacian(j))
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
