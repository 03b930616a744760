"""Learning nested 2-complex structure on a graph.

Candidate triangles are ranked by a size filtration (max edge weight,
equal-count quantile bands), shuffled and re-ordered within each band so
that edge-sharing triangles sink to the back, partitioned into nearly
uniform batches, and accumulated into a nested family X_0 c X_1 c ... c X_p
with one generalized Laplacian per level.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .complex_core import (
    ComplexError,
    SimplicialComplex,
    WeightedGraph,
    enumerate_candidate_triangles,
)
from .laplacian import GeneralizedLaplacian, add_simplex_block
from .spectral import Spectrum, eigendecompose

__all__ = [
    "TriangleQueue",
    "LaplacianFamily",
    "filtration_bands",
    "order_within_band",
    "partition_queue",
    "build_family",
    "select_model",
    "family_manifest",
]


@dataclass
class TriangleQueue:
    """Ordered candidate triangles with their filtration band assignment."""

    entries: list
    band_of: dict
    bands: list  # (r_lo, r_hi) per band


@dataclass
class LaplacianFamily:
    """Nested complexes X_0 c ... c X_p with their generalized Laplacians.

    X_i is the graph plus the triangles of ``batches[:i]``; ``weights`` maps
    each vertex pair (a frozenset) to its length, mode 'all' fills included.
    """

    graph: WeightedGraph
    weights: dict
    laplacians: list
    batches: list
    queue: TriangleQueue
    seed: int = 0
    _spectra: dict = field(default_factory=dict, repr=False)

    @property
    def p(self) -> int:
        return len(self.laplacians) - 1

    @property
    def matrices(self) -> list:
        return [l.matrix for l in self.laplacians]

    def spectrum(self, i: int) -> Spectrum:
        if i not in self._spectra:
            self._spectra[i] = eigendecompose(self.laplacians[i])
        return self._spectra[i]

    def _levels(self):
        """(edges, triangles) of X_0, ..., X_p in turn, grown in place; the
        pairs triangles add follow the graph's edges in order of first use."""
        edges = dict(self.graph.edges)
        triangles: list = []
        yield edges, triangles
        for batch in self.batches:
            for t in batch:
                for e in itertools.combinations(t, 2):
                    edges.setdefault(e, self.weights[frozenset(e)])
            triangles.extend(batch)
            yield edges, triangles

    def complex(self, i: int) -> SimplicialComplex:
        """The complex X_i, built on demand."""
        if not 0 <= i <= self.p:
            raise ComplexError(f"level must lie in 0..{self.p}, got {i}")
        edges, triangles = next(itertools.islice(self._levels(), i, None))
        return SimplicialComplex(self.graph.vertices, edges, triangles)


def _triangle_size(t, weights) -> float:
    return max(weights[frozenset((t[0], t[1]))],
               weights[frozenset((t[0], t[2]))],
               weights[frozenset((t[1], t[2]))])


def filtration_bands(triples, weights, num_bands: int) -> TriangleQueue:
    """Assign each triple to a quantile band of its max edge weight.

    Thresholds are equal-count quantiles; a triple goes to the first band
    whose upper threshold covers it.  Entries keep lexicographic order
    within a band (re-ordering is a separate step).
    """
    if num_bands < 1:
        raise ComplexError(f"need at least one band, got {num_bands}")
    triples = list(triples)
    if not triples:
        return TriangleQueue([], {}, [])
    wmap = {frozenset(k): float(v) for k, v in dict(weights).items()}
    sizes = np.array([_triangle_size(t, wmap) for t in triples])
    qs = np.quantile(sizes, [i / num_bands for i in range(1, num_bands + 1)])
    band_of = {}
    for t, s in zip(triples, sizes):
        band_of[t] = int(np.searchsorted(qs, s, side="left").clip(0, num_bands - 1))
    bands = []
    lo = 0.0
    for hi in qs:
        bands.append((lo, float(hi)))
        lo = float(hi)
    entries = []
    for i in range(num_bands):
        entries.extend(t for t in triples if band_of[t] == i)
    return TriangleQueue(entries, band_of, bands)


def order_within_band(triples, seed: int) -> list:
    """Seeded shuffle, then push edge-sharing triangles to the back.

    One front-to-back scan: every unprocessed triangle sharing an edge with
    the current entry moves to the end of the queue, preserving the relative
    order of the moved items.

    The queue only grows: moving an entry appends its shuffled position
    again, and the scan skips the copy left behind.  An index from edge to
    positions finds the entries to move, so the scan costs O(T d log d) for
    T triangles sharing edges with d others each, not O(T^2).
    """
    rng = np.random.default_rng(seed)
    q = [triples[i] for i in rng.permutation(len(triples))]
    # frozenset keys: vertex ids need not be mutually orderable
    edges = [{frozenset(e) for e in itertools.combinations(set(t), 2)} for t in q]
    holders: dict = {}
    for pos, es in enumerate(edges):
        for e in es:
            holders.setdefault(e, []).append(pos)
    queue = list(range(len(q)))
    live = list(range(len(q)))  # index in queue of each position's last copy
    out = []
    i = 0
    while i < len(queue):
        pos = queue[i]
        if live[pos] == i:
            out.append(q[pos])
            # unprocessed entries are exactly those whose live copy lies ahead
            moved = {k for e in edges[pos] for k in holders[e] if live[k] > i}
            for k in sorted(moved, key=live.__getitem__):
                live[k] = len(queue)
                queue.append(k)
        i += 1
    return out


def partition_queue(q: TriangleQueue, p: int) -> list:
    """Split the queue into p contiguous batches of nearly equal size."""
    if p < 1:
        raise ComplexError(f"need at least one batch, got {p}")
    entries = q.entries
    base, rem = divmod(len(entries), p)
    batches = []
    start = 0
    for i in range(p):
        size = base + (1 if i < rem else 0)
        batches.append(entries[start: start + size])
        start += size
    return batches


def _triple_weights(g: WeightedGraph, triples, mode: str):
    """Edge weights for every candidate triple; shortest-path fill in mode 'all'.

    Triples with an unreachable pair are discarded.
    """
    wmap = {frozenset(k): v for k, v in g.edges.items()}
    if mode == "closed":
        return triples, wmap
    # scipy costs every run a fraction of a second to import; only this mode needs it
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    idx = g.index
    a = csr_matrix(g.adjacency_matrix())
    dist = shortest_path(a, directed=False)
    kept = []
    for t in triples:
        ok = True
        for u, v in itertools.combinations(t, 2):
            key = frozenset((u, v))
            if key not in wmap:
                d = dist[idx[u], idx[v]]
                if not np.isfinite(d) or d <= 0:
                    ok = False
                    break
                wmap[key] = float(d)
        if ok:
            kept.append(t)
    return kept, wmap


def build_family(
    g: WeightedGraph,
    p: int = 20,
    num_bands: int = 1,
    seed: int = 0,
    mode: str = "closed",
) -> LaplacianFamily:
    """Run the full pipeline: enumerate, band, order, partition, assemble.

    Laplacians are updated incrementally: each added triangle retires the
    edge blocks of graph edges it is the first to cover, then adds its
    closed-form block.
    """
    triples = enumerate_candidate_triangles(g, mode)
    triples, wmap = _triple_weights(g, triples, mode)

    queue = filtration_bands(triples, wmap, num_bands)
    ordered = []
    for i in range(len(queue.bands)):
        band = [t for t in queue.entries if queue.band_of[t] == i]
        ordered.extend(order_within_band(band, seed + i))
    queue.entries = ordered
    batches = partition_queue(queue, p)

    idx = g.index
    lap = g.laplacian_matrix()
    laplacians = [GeneralizedLaplacian((lap + lap.T) / 2.0, g.vertices, ())]
    # graph edges no triangle covers yet, as rows in the vertex order
    bare = {(idx[u], idx[v]) for u, v in g.edges}
    triangles: list = []

    for batch in batches:
        lap = lap.copy()
        for t in batch:
            rows = [idx[v] for v in t]
            weights = [wmap[frozenset(e)] for e in itertools.combinations(t, 2)]
            for pair, w in zip(itertools.combinations(rows, 2), weights):
                if pair in bare:
                    # the edge stops being a maximal simplex: retire its block
                    bare.remove(pair)
                    add_simplex_block(lap, pair, [w], -1.0)
            add_simplex_block(lap, rows, weights)
        triangles.extend(batch)
        triangles.sort(key=lambda t: tuple(idx[v] for v in t))
        sym = (lap + lap.T) / 2.0
        laplacians.append(GeneralizedLaplacian(sym, g.vertices, tuple(triangles)))

    return LaplacianFamily(g, wmap, laplacians, batches, queue, seed)


def select_model(family: LaplacianFamily, signals: np.ndarray, r1: float):
    """argmin over levels of the total squared low-band projection residual.

    Keeps the first k = max(1, round(r1 n)) eigenvectors per level; ties go
    to the smaller level index.
    """
    if not 0 < r1 <= 1:
        raise ComplexError(f"r1 must lie in (0, 1], got {r1}")
    signals = np.asarray(signals, dtype=float)
    if signals.ndim == 1:
        signals = signals[:, None]
    if signals.shape[1] == 0:
        raise ComplexError("empty signal set")
    n = signals.shape[0]
    k = max(1, int(round(r1 * n)))
    errors = np.empty(family.p + 1)
    for i in range(family.p + 1):
        v = family.spectrum(i).eigenvectors[:, :k]
        resid = signals - v @ (v.T @ signals)
        errors[i] = float(np.sum(resid**2))
    # round-off keeps equal residuals from comparing equal; tie within a
    # tiny relative margin of the minimum and take the earliest level
    tol = 1e-12 * max(1.0, float(np.sum(signals**2)))
    best = int(np.nonzero(errors <= errors.min() + tol)[0][0])
    return best, errors


def family_manifest(family: LaplacianFamily) -> dict:
    """JSON-ready summary of a learned family (deterministic field order)."""
    levels = []
    for (edges, triangles), l in zip(family._levels(), family.laplacians):
        digest = hashlib.sha256(np.ascontiguousarray(l.matrix).tobytes()).hexdigest()
        levels.append(
            {
                "num_edges": len(edges),
                "num_triangles": len(triangles),
                "laplacian_sha256": digest,
            }
        )
    return {
        "n": family.graph.n,
        "p": family.p,
        "seed": family.seed,
        "bands": [list(b) for b in family.queue.bands],
        "batches": [[list(t) for t in batch] for batch in family.batches],
        "levels": levels,
    }


def manifest_json(family: LaplacianFamily) -> str:
    return json.dumps(family_manifest(family), sort_keys=True)
