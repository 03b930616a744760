"""Learning nested 2-complex structure on a graph.

Candidate triangles are ranked by a size filtration (max edge weight,
equal-count quantile bands), shuffled and re-ordered within each band so
that edge-sharing triangles sink to the back, partitioned into nearly
uniform batches, and accumulated into a nested family X_0 c X_1 c ... c X_p
with one generalized Laplacian per level.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import _SOURCES
from .complex_core import (
    ComplexError,
    SimplicialComplex,
    WeightedGraph,
    enumerate_candidate_triangles,
)
from .laplacian import GeneralizedLaplacian, block_entries
from .spectral import NumericalError, Spectrum, eigendecompose

__all__ = list(_SOURCES["structure_learning"])


@dataclass
class LaplacianFamily:
    """Nested complexes X_0 c ... c X_p with their generalized Laplacians.

    X_i is the graph plus the triangles of ``batches[:i]``.  ``updates`` holds per
    batch (rows, cols, values, fills): the Laplacian entries the batch adds, in
    order, and the vertex pairs it added with their lengths, in order of first use.
    """

    graph: WeightedGraph
    updates: list
    batches: list
    bands: list  # (r_lo, r_hi) per filtration band
    seed: int = 0

    @property
    def p(self) -> int:
        return len(self.batches)

    def _check(self, i: int) -> None:
        if not 0 <= i <= self.p:
            raise ComplexError(f"level must lie in 0..{self.p}, got {i}")

    def levels(self):
        """L_0, ..., L_p in turn, in one n x n array that the walk owns: the graph
        Laplacian, then each batch's entries added to it.  A caller that keeps a
        level copies it; one that changes the array between steps restores its
        bits first, as eigendecompose's in-place partial solve does."""
        m = self.graph.laplacian_matrix()
        yield m
        for rows, cols, values, _ in self.updates:
            np.add.at(m, (rows, cols), values)
            yield m

    def laplacian(self, i: int) -> GeneralizedLaplacian:
        """L_i, from a walk stopped there, so the caller owns it; no provenance."""
        self._check(i)
        return GeneralizedLaplacian(next(itertools.islice(self.levels(), i, None)),
                                    self.graph.vertices)

    def complex(self, i: int) -> SimplicialComplex:
        """The complex X_i, built on demand."""
        self._check(i)
        edges = dict(self.graph.edges)
        for *_, fills in self.updates[:i]:
            edges.update(fills)
        return SimplicialComplex(self.graph.vertices, edges, itertools.chain(*self.batches[:i]))


def _quantiles(values: np.ndarray, q: list) -> np.ndarray:
    """``np.quantile(values, q)`` by its default method, "linear", bit for
    bit: its virtual index, neighbours and interpolation (``_lerp``, with
    its branch for t >= 0.5).  np.quantile itself imports numpy.ma, which
    costs about 1.2 MB and 11-15 ms."""
    ordered = np.sort(values)
    virtual = (len(ordered) - 1) * np.asarray(q)
    below = np.floor(virtual)
    above = below + 1
    last = virtual >= len(ordered) - 1
    below[last] = above[last] = -1
    t = virtual - below
    a, b = ordered[below.astype(np.intp)], ordered[above.astype(np.intp)]
    diff = b - a
    out = a + diff * t
    np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
    return out


def filtration_bands(triples, weights, num_bands: int) -> tuple:
    """Assign each triple to a quantile band of its max edge weight.

    Thresholds are equal-count quantiles; a triple goes to the first band
    whose upper threshold covers it.  Returns (bands, members): the
    (r_lo, r_hi) thresholds per band, and per band its triples in input
    order (re-ordering is a separate step).  No triples give no bands.
    """
    if num_bands < 1:
        raise ComplexError(f"need at least one band, got {num_bands}")
    triples = list(triples)
    if not triples:
        return [], []
    wmap = {frozenset(k): float(v) for k, v in dict(weights).items()}
    sizes = np.array([[wmap[frozenset(e)] for e in itertools.combinations(t, 2)]
                      for t in triples]).max(axis=1)
    qs = _quantiles(sizes, [i / num_bands for i in range(1, num_bands + 1)])
    members = [[] for _ in qs]
    for t, i in zip(triples, np.searchsorted(qs, sizes, side="left").clip(0, num_bands - 1)):
        members[i].append(t)
    bands = list(zip([0.0, *qs[:-1].tolist()], qs.tolist()))
    return bands, members


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


def partition_queue(entries: list, p: int) -> list:
    """Split the queue ``entries`` into p contiguous batches of nearly equal size."""
    if p < 1:
        raise ComplexError(f"need at least one batch, got {p}")
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

    Each added triangle retires the edge blocks of graph edges it is the
    first to cover, then adds its closed-form block; the family records the
    entries each batch adds, which ``levels()`` adds to the graph Laplacian.
    """
    triples = enumerate_candidate_triangles(g, mode)
    triples, wmap = _triple_weights(g, triples, mode)

    bands, members = filtration_bands(triples, wmap, num_bands)
    queue = [t for i, band in enumerate(members) for t in order_within_band(band, seed + i)]
    batches = partition_queue(queue, p)

    idx = g.index
    # rows of the vertex pairs so far; False for a graph edge no triangle covers
    covered = {(idx[u], idx[v]): False for u, v in g.edges}
    updates = []

    for batch in batches:
        fills, simplices, weights = [], [], []
        for t in batch:
            rows = [idx[v] for v in t]
            tri_weights = [wmap[frozenset(e)] for e in itertools.combinations(t, 2)]
            for e, pair, w in zip(itertools.combinations(t, 2),
                                  itertools.combinations(rows, 2), tri_weights):
                if pair not in covered:
                    fills.append((e, w))
                elif not covered[pair]:
                    # the edge stops being a maximal simplex: retire its block
                    simplices.append(pair)
                    weights.append([-w])
                covered[pair] = True
            simplices.append(rows)
            weights.append(tri_weights)
        updates.append((*block_entries(simplices, weights), fills))

    return LaplacianFamily(g, updates, batches, bands, seed)


def _low_band_residual(spectrum: Spectrum, signals: np.ndarray, r: float) -> np.ndarray:
    """The signal columns less their projection onto the first
    max(1, round(r n)) eigenvectors; a vector is one signal."""
    if not 0 < r <= 1:
        raise ComplexError(f"the low-band fraction must lie in (0, 1], got {r}")
    signals = np.asarray(signals, dtype=float)
    if signals.ndim == 1:
        signals = signals[:, None]
    if signals.shape[1] == 0:
        raise ComplexError("empty signal set")
    # a finite sum of squares bounds every product and square made from the
    # signals here and by the callers
    with np.errstate(over="ignore"):
        if not np.isfinite(np.sum(signals**2)):
            raise NumericalError("the signals' sum of squares overflows")
    v = spectrum.lowest(max(1, int(round(r * spectrum.n))))
    return signals - v @ (v.T @ signals)


def _best_level(errors: np.ndarray, signals: np.ndarray) -> int:
    """The level of least residual; ties go to the smaller level index."""
    # round-off keeps equal residuals from comparing equal; tie within a
    # tiny relative margin of the minimum and take the earliest level
    tol = 1e-12 * max(1.0, float(np.sum(signals**2)))
    return int(np.nonzero(errors <= errors.min() + tol)[0][0])


def select_model(family: LaplacianFamily, signals: np.ndarray, r1: float):
    """argmin over levels of the total squared low-band projection residual.

    Keeps the first k = max(1, round(r1 n)) eigenvectors per level; ties go
    to the smaller level index.  One walk solves each level once and holds
    one level's spectrum at a time."""
    signals = np.asarray(signals, dtype=float)
    errors = np.array([np.sum(_low_band_residual(eigendecompose(m), signals, r1) ** 2)
                       for m in family.levels()])
    return _best_level(errors, signals), errors


def family_manifest(family: LaplacianFamily) -> dict:
    """JSON-ready summary of a learned family (deterministic field order)."""
    import hashlib  # loads OpenSSL (about 3.7 MB), so only when a manifest is built

    added = [len(fills) for *_, fills in family.updates]
    edges = itertools.accumulate(added, initial=len(family.graph.edges))
    triangles = itertools.accumulate(map(len, family.batches), initial=0)
    # hashlib reads the C-ordered array's buffer: the digest of its bytes, uncopied
    levels = [{"num_edges": e, "num_triangles": t,
               "laplacian_sha256": hashlib.sha256(m).hexdigest()}
              for m, e, t in zip(family.levels(), edges, triangles)]
    return {
        "n": family.graph.n,
        "p": family.p,
        "seed": family.seed,
        "bands": [list(b) for b in family.bands],
        "batches": [[list(t) for t in batch] for batch in family.batches],
        "levels": levels,
    }
