"""Combinatorial data model: weighted graphs, hypergraphs and simplicial complexes.

Edges carry strictly positive weights interpreted as lengths.  Simplices of
dimension >= 2 are stored explicitly as sorted vertex tuples; the 1-skeleton
is the edge map itself.  All containers are treated as immutable after
construction and every enumeration is deterministic (lexicographic in the
vertex order).
"""

from __future__ import annotations

import itertools
import math
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from . import _SOURCES

__all__ = list(_SOURCES["complex_core"])

Vertex = Hashable


class ComplexError(ValueError):
    """A structural invariant of a graph/complex was violated."""


def _ordered_vertices(vertices: Iterable[Vertex]) -> tuple:
    vs = list(vertices)
    if len(set(vs)) != len(vs):
        raise ComplexError("duplicate vertex identifiers")
    try:
        return tuple(sorted(vs))
    except TypeError:
        # mixed / unsortable identifiers: keep first-appearance order
        return tuple(vs)


class WeightedGraph:
    """Undirected graph with strictly positive, finite edge weights.

    Edges are keyed by vertex pairs normalized to the vertex ordering; no
    self-loops are allowed.
    """

    def __init__(self, vertices: Iterable[Vertex], edges: Mapping):
        self.vertices = _ordered_vertices(vertices)
        self.index = {v: i for i, v in enumerate(self.vertices)}
        norm: dict[tuple, float] = {}
        for (u, v), w in dict(edges).items():
            if u == v:
                raise ComplexError(f"self-loop at vertex {u!r}")
            if u not in self.index or v not in self.index:
                raise ComplexError(f"edge ({u!r}, {v!r}) references unknown vertex")
            w = float(w)
            if not math.isfinite(w) or w <= 0:
                raise ComplexError(f"edge ({u!r}, {v!r}) has non-positive weight {w}")
            key = self.pair(u, v)
            if key in norm and norm[key] != w:
                raise ComplexError(f"duplicate edge {key} with conflicting weights")
            norm[key] = w
        self.edges = norm
        self._adj: dict | None = None

    @property
    def n(self) -> int:
        return len(self.vertices)

    def pair(self, u: Vertex, v: Vertex) -> tuple:
        """Normalize an unordered pair to the vertex ordering."""
        return (u, v) if self.index[u] < self.index[v] else (v, u)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return self.pair(u, v) in self.edges

    def weight(self, u: Vertex, v: Vertex) -> float:
        return self.edges[self.pair(u, v)]

    def adjacency_sets(self) -> dict:
        if self._adj is None:
            adj: dict = {v: set() for v in self.vertices}
            for (u, v) in self.edges:
                adj[u].add(v)
                adj[v].add(u)
            self._adj = adj
        return self._adj

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for (u, v), w in self.edges.items():
            i, j = self.index[u], self.index[v]
            a[i, j] = a[j, i] = w
        return a

    def laplacian_matrix(self) -> np.ndarray:
        """D - A in a fresh n x n array that the caller owns."""
        a = self.adjacency_matrix()
        d = a.sum(axis=1)
        # np.diag(d) - a in a's own buffer, bit for bit: 0.0 - a off the diagonal
        np.fill_diagonal(np.subtract(0.0, a, out=a), d)
        return a

    def __eq__(self, other):
        return (
            isinstance(other, WeightedGraph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __repr__(self):
        return f"WeightedGraph(n={self.n}, m={len(self.edges)})"


class Hypergraph:
    """Vertex set plus hyperedges (vertex subsets of size >= 2)."""

    def __init__(self, vertices: Iterable[Vertex], hyperedges: Iterable[Iterable[Vertex]]):
        self.vertices = _ordered_vertices(vertices)
        vset = set(self.vertices)
        edges = []
        for he in hyperedges:
            he = frozenset(he)
            if len(he) < 2:
                raise ComplexError(f"hyperedge {set(he)} has size < 2")
            if not he <= vset:
                raise ComplexError(f"hyperedge {set(he)} not contained in vertex set")
            edges.append(he)
        self.hyperedges = frozenset(edges)

    def __repr__(self):
        return f"Hypergraph(n={len(self.vertices)}, m={len(self.hyperedges)})"


class SimplicialComplex:
    """Weighted finite simplicial complex.

    The 1-skeleton is a :class:`WeightedGraph`; simplices of dimension >= 2
    are sorted vertex tuples whose pairwise edges must all be present
    (face closure on the 1-skeleton).
    """

    def __init__(
        self,
        vertices: Iterable[Vertex],
        edges: Mapping,
        simplices: Iterable[Sequence[Vertex]] = (),
    ):
        self._graph = WeightedGraph(vertices, edges)
        canon = set()
        for s in simplices:
            t = self.canonical_simplex(s)
            for u, v in itertools.combinations(t, 2):
                if not self._graph.has_edge(u, v):
                    raise ComplexError(
                        f"simplex {t} misses edge ({u!r}, {v!r}): face closure violated"
                    )
            canon.add(t)
        self.simplices = frozenset(canon)

    @property
    def vertices(self) -> tuple:
        return self._graph.vertices

    @property
    def edges(self) -> dict:
        return self._graph.edges

    @property
    def index(self) -> dict:
        return self._graph.index

    @property
    def n(self) -> int:
        return self._graph.n

    def canonical_simplex(self, s: Sequence[Vertex]) -> tuple:
        for v in s:
            if v not in self._graph.index:
                raise ComplexError(f"simplex {tuple(s)} references unknown vertex {v!r}")
        t = tuple(sorted(s, key=self._graph.index.__getitem__))
        if len(set(t)) != len(t):
            raise ComplexError(f"simplex {tuple(s)} repeats a vertex")
        if len(t) < 3:
            raise ComplexError(f"stored simplices must have >= 3 vertices, got {t}")
        return t

    def graph(self) -> WeightedGraph:
        """The weighted 1-skeleton."""
        return self._graph

    def triangles(self) -> list:
        """Sorted list of stored 2-simplices."""
        return [s for s in self.sorted_simplices() if len(s) == 3]

    def sorted_simplices(self) -> list:
        key = self._graph.index.__getitem__
        return sorted(self.simplices, key=lambda t: tuple(key(v) for v in t))

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialComplex)
            and self._graph == other._graph
            and self.simplices == other.simplices
        )

    def __repr__(self):
        return (
            f"SimplicialComplex(n={self.n}, m={len(self.edges)}, "
            f"simplices={len(self.simplices)})"
        )


def from_edge_list(edges: Iterable) -> SimplicialComplex:
    """Build a 1-dimensional complex from ``(u, v)`` or ``(u, v, w)`` entries.

    Missing weights default to 1 (the unweighted-to-weighted convention).
    """
    emap: dict = {}
    vertices: dict = {}
    for entry in edges:
        if len(entry) == 2:
            u, v = entry
            w = 1.0
        elif len(entry) == 3:
            u, v, w = entry
        else:
            raise ComplexError(f"edge entry {entry!r} must have 2 or 3 fields")
        if u == v:
            raise ComplexError(f"self-loop at vertex {u!r}")
        vertices.setdefault(u, None)
        vertices.setdefault(v, None)
        key = frozenset((u, v))
        w = float(w)
        if key in emap and emap[key] != w:
            raise ComplexError(f"duplicate edge ({u!r}, {v!r}) with conflicting weights")
        emap[key] = w
    edge_dict = {tuple(k): w for k, w in emap.items()}
    return SimplicialComplex(list(vertices), edge_dict)


def from_hypergraph(h: Hypergraph, default_weight: float = 1.0) -> SimplicialComplex:
    """Promote each hyperedge of size k+1 to a k-simplex with all its faces.

    Every pairwise edge receives ``default_weight``; faces of dimension >= 2
    are stored explicitly.
    """
    if not math.isfinite(default_weight) or default_weight <= 0:
        raise ComplexError(f"default weight must be positive, got {default_weight}")
    pos = {v: i for i, v in enumerate(h.vertices)}
    edges: dict = {}
    simplices: set = set()
    for he in h.hyperedges:
        members = sorted(he, key=pos.__getitem__)
        for u, v in itertools.combinations(members, 2):
            edges[(u, v)] = default_weight
        for size in range(3, len(members) + 1):
            simplices.update(itertools.combinations(members, size))
    return SimplicialComplex(h.vertices, edges, simplices)


def knn_graph(points: Sequence, k: int, weight_mode: str = "unit") -> WeightedGraph:
    """k-nearest-neighbor graph of a point cloud with union symmetrization.

    An edge (u, v) is present iff v is among the k nearest neighbors of u or
    vice versa.  Distance ties are broken by smaller vertex index (a stable
    sort of each row).  Non-finite coordinates are refused.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ComplexError("point cloud must be a non-empty 2d array")
    n = pts.shape[0]
    if not 0 < k < n:
        raise ComplexError(f"k must satisfy 0 < k < n, got k={k}, n={n}")
    if weight_mode not in ("unit", "euclidean"):
        raise ComplexError(f"unknown weight_mode {weight_mode!r}")
    if not np.isfinite(pts).all():
        raise ComplexError("point cloud has non-finite coordinates")
    edges: dict = {}
    # 32 rows of distances at a time: each entry and each row's sort is
    # computed as over the whole n x n matrix, in O(n) memory
    for start in range(0, n, 32):
        diff = pts[start:start + 32, None, :] - pts[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        for i, row, order in zip(range(start, n), dist, np.argsort(dist, axis=1, kind="stable")):
            for j in order[order != i][:k].tolist():
                key = (min(i, j), max(i, j))
                if weight_mode == "euclidean" and row[j] == 0.0:
                    raise ComplexError(
                        f"duplicate points {key}: zero-distance edge has no positive weight")
                edges[key] = 1.0 if weight_mode == "unit" else float(row[j])
    return WeightedGraph(range(n), edges)


def enumerate_candidate_triangles(g: WeightedGraph, mode: str = "closed") -> list:
    """All candidate 2-simplices: 3-cliques (``closed``) or all triples (``all``).

    Output is sorted lexicographically in the vertex order.
    """
    if mode == "all":
        return list(itertools.combinations(g.vertices, 3))
    if mode != "closed":
        raise ComplexError(f"unknown mode {mode!r}")
    adj = g.adjacency_sets()
    idx = g.index
    out = []
    # edges in order, then each edge's later common neighbours in order: the
    # triples come out sorted
    for (u, v) in sorted(g.edges, key=lambda e: (idx[e[0]], idx[e[1]])):
        common = adj[u] & adj[v]
        for w in sorted(common, key=idx.__getitem__):
            if idx[w] > idx[v]:
                out.append((u, v, w))
    return out


def maximal_simplices(x: SimplicialComplex) -> list:
    """Inclusion-maximal simplices, including bare edges and isolated vertices.

    A stored simplex is non-maximal only when a stored strict superset
    exists; its faces need not be stored themselves, since face closure is
    checked on edges only.  An edge is maximal when no stored simplex holds
    both its ends, and a vertex when it lies on no edge.

    The cost is linear in the size of the complex for bounded dimension:
    one pass over the vertices, the edges and the vertex pairs of each
    stored simplex s, plus a set lookup for each of the C(|s|, m) subsets
    of s whose size m < |s| is the size of some stored simplex.  A
    2-complex has no such subsets.  Output is sorted in the vertex order.
    """
    sizes = {len(s) for s in x.simplices}
    covered_pairs: set = set()
    dominated: set = set()
    for s in x.simplices:
        covered_pairs.update(itertools.combinations(s, 2))
        for size in sizes:
            if size < len(s):
                dominated.update(
                    f for f in itertools.combinations(s, size) if f in x.simplices
                )
    maximal = [s for s in x.simplices if s not in dominated]
    maximal.extend(e for e in x.edges if e not in covered_pairs)
    covered = {v for s in x.simplices for v in s}
    covered.update(v for e in x.edges for v in e)
    maximal.extend((v,) for v in x.vertices if v not in covered)
    idx = x.index
    maximal.sort(key=lambda t: tuple(idx[v] for v in t))
    return maximal


def skeleton(x: SimplicialComplex, m: int) -> SimplicialComplex:
    """The m-skeleton: all simplices of dimension <= m, weights preserved."""
    if m < 0:
        raise ComplexError(f"skeleton dimension must be >= 0, got {m}")
    if m == 0:
        return SimplicialComplex(x.vertices, {})
    if m == 1:
        return SimplicialComplex(x.vertices, x.edges)
    simplices: set = set()
    for s in x.simplices:
        if len(s) <= m + 1:
            simplices.add(s)
        top = min(len(s), m + 1)
        for size in range(3, top + 1):
            simplices.update(itertools.combinations(s, size))
    return SimplicialComplex(x.vertices, x.edges, simplices)


def _components(n: int, edges: np.ndarray) -> np.ndarray:
    """Per vertex, the lowest row connected to it over ``edges`` ((E, 2) rows).

    Each round hooks every root label under the lowest root label across an
    edge, then follows labels to their roots.  Every root with a crossing
    edge joins another in a round, so the rounds grow as log n in any order.
    """
    labels = np.arange(n)
    a, b = edges.T
    while True:
        la, lb = labels[a], labels[b]
        if (la == lb).all():
            return labels
        low = labels.copy()
        np.minimum.at(low, la, lb)
        np.minimum.at(low, lb, la)
        labels = low[low]
        while (labels != low).any():
            low, labels = labels, labels[labels]


def connected_components(g: WeightedGraph) -> list:
    """Partition of the vertices into maximal connected sets.

    Components are ordered by their smallest member (in the vertex order).
    """
    idx = g.index
    edges = np.array([(idx[u], idx[v]) for u, v in g.edges], dtype=np.intp).reshape(-1, 2)
    comps: dict = {}
    for v, label in zip(g.vertices, _components(g.n, edges).tolist()):
        comps.setdefault(label, set()).add(v)
    return list(comps.values())
