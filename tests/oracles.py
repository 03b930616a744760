"""Simple reference versions of the library's fast paths.

Each function here is the straightforward implementation a fast path
replaced, kept unchanged so that property tests can compare the two on
random inputs.
"""

import itertools

import numpy as np

from simplexsp import ComplexError, SimplicialComplex, maximal_simplices
from simplexsp.laplacian import (
    GeneralizedLaplacian,
    _two_simplex_matrix,
    simplex_laplacian,
    star_expansion,
)
from simplexsp.spectral import SIGN_EPS, Spectrum, gft, igft


def maximal_simplices_quadratic(x):
    """Inclusion-maximal simplices, including bare edges and isolated vertices.

    Reference for :func:`simplexsp.complex_core.maximal_simplices`: compares
    every stored simplex and every edge against every stored simplex.
    """
    stored = [frozenset(s) for s in x.simplices]
    maximal = []
    for s in x.simplices:
        fs = frozenset(s)
        if not any(fs < t for t in stored):
            maximal.append(s)
    for (u, v) in x.edges:
        pair = frozenset((u, v))
        if not any(pair <= t for t in stored):
            maximal.append((u, v))
    covered = set()
    for s in maximal:
        covered.update(s)
    for v in x.vertices:
        if v not in covered:
            maximal.append((v,))
    idx = x.index
    maximal.sort(key=lambda t: tuple(idx[v] for v in t))
    return maximal


def _shares_edge(t1, t2) -> bool:
    return len(set(t1) & set(t2)) >= 2


def order_within_band_quadratic(triples, seed: int) -> list:
    """Seeded shuffle, then push edge-sharing triangles to the back.

    Reference for :func:`simplexsp.structure_learning.order_within_band`:
    rebuilds the whole queue for every head, O(T^2) ``_shares_edge`` calls.
    """
    rng = np.random.default_rng(seed)
    q = [triples[i] for i in rng.permutation(len(triples))]
    j = 0
    while j < len(q):
        head = q[j]
        tail = q[j + 1:]
        keep = [t for t in tail if not _shares_edge(t, head)]
        moved = [t for t in tail if _shares_edge(t, head)]
        q = q[: j + 1] + keep + moved
        j += 1
    return q


def fix_signs_loop(vecs):
    """Make the first entry above SIGN_EPS in magnitude of each column positive.

    Reference for :func:`simplexsp.spectral._fix_signs`: one column at a time.
    """
    out = vecs.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.nonzero(np.abs(col) > SIGN_EPS)[0]
        if nz.size and col[nz[0]] < 0:
            out[:, j] = -col
    return out


def complex_laplacian_reference(x):
    """Sum of simplex Laplacians over the maximal simplices of the complex.

    Reference for :func:`simplexsp.laplacian.complex_laplacian`: the
    assembly with the edge and 2-simplex block arithmetic written inline.
    """
    n = x.n
    idx = x.index
    if not any(len(s) >= 3 for s in x.simplices):
        # bit-exact graph recovery: no blocks to sum, reuse the 1-skeleton
        return GeneralizedLaplacian(
            x.graph().laplacian_matrix(),
            x.vertices,
            tuple(s for s in maximal_simplices(x) if len(s) >= 2),
        )
    lap = np.zeros((n, n))
    provenance = []
    for s in maximal_simplices(x):
        rows = [idx[v] for v in s]
        if len(s) >= 3:
            weights = {
                (u, v): x.edges[x.graph().pair(u, v)]
                for u, v in itertools.combinations(s, 2)
            }
            if len(s) == 3:
                block = _two_simplex_matrix(
                    weights[(s[0], s[1])], weights[(s[0], s[2])], weights[(s[1], s[2])]
                )
            else:
                block = simplex_laplacian(star_expansion(s, weights)).matrix
            lap[np.ix_(rows, rows)] += block
            provenance.append(s)
        elif len(s) == 2:
            w = x.edges[x.graph().pair(s[0], s[1])]
            i, j = rows
            lap[i, i] += w
            lap[j, j] += w
            lap[i, j] -= w
            lap[j, i] -= w
            provenance.append(s)
    lap = (lap + lap.T) / 2.0
    return GeneralizedLaplacian(lap, x.vertices, tuple(provenance))


def family_levels_reference(g, batches, wmap):
    """Complexes and Laplacians of X_0 c ... c X_p, one per prefix of batches.

    Reference for the assembly in :func:`simplexsp.build_family`: starts from
    the graph Laplacian, keeps one SimplicialComplex per level, retires an
    edge block when a triangle first covers a graph edge and adds each
    triangle's closed-form block, all written inline.  ``wmap`` maps
    frozenset vertex pairs to lengths, filled pairs (mode 'all') included.
    """
    idx = g.index
    lap = g.laplacian_matrix()
    edges = dict(g.edges)
    edge_keys = {frozenset(e) for e in edges}
    tri_count: dict = {}
    triangles: set = set()

    complexes = [SimplicialComplex(g.vertices, edges)]
    laplacians = [GeneralizedLaplacian((lap + lap.T) / 2.0, g.vertices, ())]

    for batch in batches:
        lap = lap.copy()
        for t in batch:
            pair_w = {}
            for u, v in itertools.combinations(t, 2):
                key = frozenset((u, v))
                w = wmap[key]
                pair_w[(u, v)] = w
                if key not in edge_keys:
                    edges[g.pair(u, v)] = w
                    edge_keys.add(key)
                    tri_count[key] = 0
                elif tri_count.get(key, 0) == 0:
                    # the edge stops being a maximal simplex: retire its block
                    i, j = idx[u], idx[v]
                    lap[i, i] -= w
                    lap[j, j] -= w
                    lap[i, j] += w
                    lap[j, i] += w
                tri_count[key] = tri_count.get(key, 0) + 1
            rows = [idx[v] for v in t]
            block = _two_simplex_matrix(
                pair_w[(t[0], t[1])], pair_w[(t[0], t[2])], pair_w[(t[1], t[2])]
            )
            lap[np.ix_(rows, rows)] += block
            triangles.add(t)
        complexes.append(SimplicialComplex(g.vertices, edges, triangles))
        sym = (lap + lap.T) / 2.0
        prov = tuple(sorted(triangles, key=lambda t: tuple(idx[v] for v in t)))
        laplacians.append(GeneralizedLaplacian(sym, g.vertices, prov))

    return complexes, laplacians


def denoise_labels_full(
    spectrum: Spectrum,
    noisy_labels: np.ndarray,
    r: float,
    s: float,
    num_classes: int | None = None,
) -> np.ndarray:
    """Scale down high-frequency coefficients, invert, round and clamp.

    The cut starts at 1-based index max(2, round(r n)) so the DC component
    is never touched.

    Reference for :func:`simplexsp.tasks.denoise_labels`: transforms the
    signal over a full spectrum and back.
    """
    if not 0 < r < 1:
        raise ComplexError(f"r must lie in (0, 1), got {r}")
    if not 0 <= s <= 1:
        raise ComplexError(f"s must lie in [0, 1], got {s}")
    noisy = np.asarray(noisy_labels, dtype=float)
    n = spectrum.n
    cut = max(2, int(round(r * n)))  # 1-based
    xhat = gft(spectrum, noisy)
    xhat[cut - 1:] *= s
    recovered = igft(spectrum, xhat)
    labels = np.rint(recovered).astype(int)
    if num_classes is None:
        num_classes = max(1, int(np.rint(noisy.max())))
    return np.clip(labels, 1, num_classes)
