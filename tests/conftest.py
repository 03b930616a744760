"""Shared generators for randomized tests.

Metric complexes are built from Euclidean point clouds so that every
triangle satisfies the triangle inequality and all star weights are
non-negative.
"""

import gc
import itertools
import os
import tracemalloc

# one BLAS thread, as perfbench runs every command: the last bits of some
# results depend on the thread count, so byte comparisons hold only at a
# fixed one.  Set before numpy loads, which reads them once.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest
from hypothesis import strategies as st

from simplexsp import SimplicialComplex, WeightedGraph, enumerate_candidate_triangles, knn_graph


def random_metric_complex(
    rng, n=None, edge_prob=0.4, triangle_prob=0.5, dim=3, connected=False
):
    """Random complex whose edge weights are Euclidean distances."""
    if n is None:
        n = int(rng.integers(4, 31))
    pts = rng.random((n, dim)) * 10.0
    edges = {}
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < edge_prob or (connected and j == i + 1):
            edges[(i, j)] = float(np.linalg.norm(pts[i] - pts[j]))
    g = WeightedGraph(range(n), edges)
    adj = g.adjacency_sets()
    triangles = []
    for i, j in edges:
        for k in adj[i] & adj[j]:
            if k > j and rng.random() < triangle_prob:
                triangles.append((i, j, k))
    return SimplicialComplex(range(n), edges, triangles)


def planted_knn_complex(n, seed=0):
    """Unit-length kNN(k=8) graph of n uniform points in the unit square,
    with a random half of its closed triangles, as perfbench's diagnose
    workload draws it."""
    rng = np.random.default_rng(seed)
    g = knn_graph(rng.random((n, 2)), 8)
    tris = enumerate_candidate_triangles(g)
    keep = np.sort(rng.choice(len(tris), size=len(tris) // 2, replace=False))
    return SimplicialComplex(g.vertices, g.edges, [tris[i] for i in keep])


def traced(fn):
    """(bytes held with the result of ``fn()`` alive, peak bytes) of one
    call, by tracemalloc, which counts numpy's array buffers.  The collector
    is paused for the call: a full collection empties the interpreter's free
    lists, and the blocks that refill them would read as held memory."""
    gc.disable()
    tracemalloc.start()
    try:
        result = fn()  # alive while the memory is read
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()


def random_positive_triple(rng, lo=0.1, hi=10.0):
    """Log-uniform weight triple in [lo, hi]."""
    return tuple(np.exp(rng.uniform(np.log(lo), np.log(hi), 3)))


def pendant_complex(rng, tail_len=3):
    """One random-weight triangle plus a pendant tail hanging off vertex 0."""
    w = random_positive_triple(rng, 0.5, 2.0)
    edges = {(0, 1): w[0], (0, 2): w[1], (1, 2): w[2]}
    prev = 0
    for t in range(tail_len):
        v = 3 + t
        edges[(prev, v)] = float(rng.uniform(0.5, 2.0))
        prev = v
    return SimplicialComplex(range(3 + tail_len), edges, [(0, 1, 2)]), w


# Integers, non-integer floats and strings.  A draw that mixes strings with
# numbers is unsortable, so its vertex order falls back to first appearance.
VERTEX_POOL = [0, 1, 2, 3, 4, 5, 6, 7, 2.5, -1.5, 10.25, "a", "b", "c", "v9"]

# edge lengths far from 1, so block arithmetic rounds
LENGTHS = st.floats(0.1, 10.0)


@st.composite
def random_complexes(draw, weight=st.just(1.0), max_simplex=5):
    """Stored simplices of 3 to ``max_simplex`` vertices, each with all, none
    or some of its faces of size >= 3, plus bare edges and isolated vertices.
    Each edge's length is drawn from ``weight``."""
    vertices = draw(st.lists(st.sampled_from(VERTEX_POOL), min_size=1, max_size=10, unique=True))
    simplices = set()
    if len(vertices) >= 3:
        top = st.lists(
            st.sampled_from(vertices), min_size=3, max_size=min(max_simplex, len(vertices)),
            unique=True,
        )
        for s in draw(st.lists(top, max_size=6)):
            simplices.add(tuple(s))
            faces = draw(st.sampled_from(["all", "none", "some"]))
            for size in range(3, len(s)):
                for f in itertools.combinations(s, size):
                    if faces == "all" or (faces == "some" and draw(st.booleans())):
                        simplices.add(f)
    edges = {frozenset(e) for s in simplices for e in itertools.combinations(s, 2)}
    pairs = list(itertools.combinations(vertices, 2))
    if pairs:
        edges.update(frozenset(e) for e in draw(st.lists(st.sampled_from(pairs), max_size=8)))
    # draw lengths in an order that does not depend on string hashing
    ordered = sorted(edges, key=lambda e: sorted(map(vertices.index, e)))
    return SimplicialComplex(vertices, {tuple(e): draw(weight) for e in ordered}, simplices)


@st.composite
def random_graphs(draw):
    """Graphs on up to 8 vertices from VERTEX_POOL with random edge lengths."""
    vertices = draw(st.lists(st.sampled_from(VERTEX_POOL), min_size=1, max_size=8, unique=True))
    pairs = list(itertools.combinations(vertices, 2))
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = {e: draw(LENGTHS) for e, keep in zip(pairs, chosen) if keep}
    return WeightedGraph(vertices, edges)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


# Scoreboard lines recorded by the acceptance suite; echoed after the run
# so they are visible even under captured output.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
