"""Simple reference versions of the library's fast paths.

Each function here is the straightforward implementation a fast path
replaced, kept unchanged so that property tests can compare the two on
random inputs.
"""

import itertools

import numpy as np

from simplexsp import (
    ComplexError,
    SimplicialComplex,
    WeightedGraph,
    complex_laplacian,
    enumerate_candidate_triangles,
    filtration_bands,
    order_within_band,
    partition_queue,
    generate_bandlimited_set,
    generate_smooth_signals,
    maximal_simplices,
    perturb_node,
    shape_constant,
    spectral,
    two_simplex_closed_form,
)
from simplexsp.diagnostics import DiagnosticsReport, DistinctiveResult, SandwichBounds
from simplexsp.laplacian import (
    GeneralizedLaplacian,
    _two_simplex_matrix,
    block_entries,
    simplex_laplacian,
    star_expansion,
)
from simplexsp.spectral import (
    SIGN_EPS,
    TIE_TOL,
    NumericalError,
    Spectrum,
    commutator_norm,
    eigendecompose,
    gft,
    igft,
)
from simplexsp.structure_learning import _triple_weights


def laplacian_matrix_dense(g):
    """D - A of a weighted graph.

    Reference for :meth:`simplexsp.WeightedGraph.laplacian_matrix`, which
    forms it in the adjacency array: the degree diagonal as its own matrix.
    """
    a = g.adjacency_matrix()
    return np.diag(a.sum(axis=1)) - a


def family_laplacians_dense(g, p, num_bands=1, seed=0, mode="closed"):
    """The matrix of every level of ``build_family(g, p, num_bands, seed, mode)``.

    Reference for :class:`simplexsp.LaplacianFamily`, whose walk adds each
    batch's entries to the graph Laplacian in one array: here the batches are
    summed once, from ``laplacian_matrix_dense(g)``, and each level is a copy
    of L_0 with the values after its batches written over it.
    """
    triples, wmap = _triple_weights(g, enumerate_candidate_triangles(g, mode), mode)
    _, members = filtration_bands(triples, wmap, num_bands)
    queue = [t for i, band in enumerate(members) for t in order_within_band(band, seed + i)]
    idx = g.index
    base = laplacian_matrix_dense(g)
    lap = base.copy()
    covered = {(idx[u], idx[v]): False for u, v in g.edges}
    updates = []
    for batch in partition_queue(queue, p):
        simplices, weights = [], []
        for t in batch:
            rows = [idx[v] for v in t]
            tri_weights = [wmap[frozenset(e)] for e in itertools.combinations(t, 2)]
            for pair, w in zip(itertools.combinations(rows, 2), tri_weights):
                if covered.get(pair) is False:
                    simplices.append(pair)
                    weights.append([-w])
                covered[pair] = True
            simplices.append(rows)
            weights.append(tri_weights)
        rows, cols, values = block_entries(simplices, weights)
        np.add.at(lap, (rows, cols), values)
        rows, cols = np.divmod(np.unique(rows * len(base) + cols), len(base))
        updates.append((rows, cols, lap[rows, cols]))
    levels = []
    for i in range(p + 1):
        m = base.copy()
        for rows, cols, values in updates[:i]:
            m[rows, cols] = values
        levels.append(m)
    return levels


def commutator_norm_abs_copies(l1, l2) -> float:
    """Normalized Frobenius norm of L1 L2 - L2 L1, scaled by powers of two.

    Reference for :func:`simplexsp.commutator_norm`: each operand's largest
    magnitude read from an ``np.abs`` copy, and the difference of the
    products written as one expression.
    """
    a = spectral._as_matrix(l1)
    b = spectral._as_matrix(l2)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    if not (a.any() and b.any()):
        return 0.0
    a, b = (np.ldexp(m, -np.frexp(np.abs(m).max())[1]) for m in (a, b))
    return float(np.linalg.norm(a @ b - b @ a) / (np.linalg.norm(a) * np.linalg.norm(b)))


def knn_graph_sorted(points, k, weight_mode="unit"):
    """k-nearest-neighbor graph with union symmetrization.

    Reference for :func:`simplexsp.knn_graph`: each row's neighbours sorted
    by a Python key of (distance, index).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ComplexError("point cloud must be a non-empty 2d array")
    n = pts.shape[0]
    if not 0 < k < n:
        raise ComplexError(f"k must satisfy 0 < k < n, got k={k}, n={n}")
    if weight_mode not in ("unit", "euclidean"):
        raise ComplexError(f"unknown weight_mode {weight_mode!r}")
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    edges: dict = {}
    for i in range(n):
        order = sorted((j for j in range(n) if j != i), key=lambda j: (dist[i, j], j))
        for j in order[:k]:
            key = (min(i, j), max(i, j))
            if weight_mode == "unit":
                edges[key] = 1.0
            else:
                if dist[i, j] == 0.0:
                    raise ComplexError(
                        f"duplicate points {key}: zero-distance edge has no positive weight"
                    )
                edges[key] = float(dist[i, j])
    return WeightedGraph(range(n), edges)


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


def filtration_bands_loop(triples, weights, num_bands: int):
    """(bands, members) of a size filtration, one triple at a time.

    Reference for :func:`simplexsp.structure_learning.filtration_bands`: a
    size and a ``searchsorted`` call per triple, a band per distinct triple
    in a dict, and one scan of the triples per band.
    """
    if num_bands < 1:
        raise ComplexError(f"need at least one band, got {num_bands}")
    triples = list(triples)
    if not triples:
        return [], []
    wmap = {frozenset(k): float(v) for k, v in dict(weights).items()}

    def size(t):
        return max(wmap[frozenset((t[0], t[1]))],
                   wmap[frozenset((t[0], t[2]))],
                   wmap[frozenset((t[1], t[2]))])

    sizes = np.array([size(t) for t in triples])
    qs = np.quantile(sizes, [i / num_bands for i in range(1, num_bands + 1)])
    band_index = {}
    for t, s in zip(triples, sizes):
        band_index[t] = int(np.searchsorted(qs, s, side="left").clip(0, num_bands - 1))
    bands = []
    lo = 0.0
    for hi in qs:
        bands.append((lo, float(hi)))
        lo = float(hi)
    members = [[t for t in triples if band_index[t] == i] for i in range(num_bands)]
    return bands, members


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


def _low_pairs_c_ordered(sym, k):
    """The lowest pairs of ``sym`` by MRRR, as spectral._low_pairs finds
    them, but handing dsyevr the C-ordered ``sym`` itself."""
    n = sym.shape[0]

    def solve(w):
        try:
            return spectral._evr(sym, 0, w - 1)
        except np.linalg.LinAlgError:
            return np.linalg.eigh(sym)

    lo = TIE_TOL * max(1.0, float(np.abs(np.diag(sym)).max()))
    hi = TIE_TOL * max(1.0, float(np.abs(sym).sum(axis=1).max()))
    vals, vecs = solve(k + 1)
    while True:
        gaps = np.diff(vals)
        if ((lo < gaps) & (gaps <= hi)).any():
            top = spectral._evr(sym, n - 1, n - 1, compute_v=False)[0]
            lo = hi = TIE_TOL * max(1.0, abs(float(vals[0])), abs(float(top[0])))
        if len(vals) == n or (gaps[k - 1:] > hi).any():
            return vals, vecs, hi
        vals, vecs = solve(min(n, 2 * len(vals)))


def _ordered_spectrum(l, vals, vecs, tol, k):
    """The Spectrum of solved pairs under eigendecompose's conventions:
    signs fixed, columns ordered inside tie blocks, k columns kept."""
    vecs = spectral._fix_signs(vecs)
    blocks = []
    start = 0
    for j in range(1, len(vals) + 1):
        if j == len(vals) or vals[j] - vals[j - 1] > tol:
            if j - start > 1 and start < k:
                order = sorted(range(start, j), key=lambda c: tuple(vecs[:, c]))
                vecs[:, start:j] = vecs[:, order]
                blocks.append((start, min(j, k)))
            start = j
    verts = l.vertices if isinstance(l, GeneralizedLaplacian) else ()
    return Spectrum(vals[:k], vecs[:, :k], tuple(verts), tuple(blocks))


def eigendecompose_symmetrising(l, upto=None):
    """Symmetric eigendecomposition of (m + m.T) / 2, always computed.

    Reference for :func:`simplexsp.spectral.eigendecompose`, which solves a
    bitwise-symmetric matrix as it is and hands dsyevr its transpose.
    """
    m = spectral._as_matrix(l)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NumericalError(f"expected a square matrix, got shape {m.shape}")
    if upto is not None and upto < 1:
        raise ValueError(f"upto must be >= 1, got {upto}")
    scale = spectral._norm_scale(m)
    if np.linalg.norm(m - m.T) > 1e-8 * scale:
        raise NumericalError("matrix is not symmetric within tolerance")
    sym = (m + m.T) / 2.0
    k = len(sym) if upto is None else min(upto, len(sym))
    try:
        if k < spectral.PARTIAL_MAX_FRACTION * len(sym):
            vals, vecs, tol = _low_pairs_c_ordered(sym, k)
        else:
            vals, vecs = np.linalg.eigh(sym)
            tol = TIE_TOL * max(1.0, float(np.abs(vals).max(initial=0.0)))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    return _ordered_spectrum(l, vals, vecs, tol, k)


def _low_pairs_copying(sym, k):
    """The lowest pairs of ``sym`` by MRRR, as spectral._low_pairs finds
    them, but with dsyevr copying its operand on every call and an n x n
    |sym| for the tie bound."""
    n = sym.shape[0]
    a = sym.T

    def solve(w):
        try:
            return spectral._evr(a, 0, w - 1)
        except np.linalg.LinAlgError:
            return np.linalg.eigh(sym)

    lo = TIE_TOL * max(1.0, float(np.abs(np.diag(sym)).max()))
    hi = TIE_TOL * max(1.0, float(np.abs(sym).sum(axis=1).max()))
    vals, vecs = solve(k + 1)
    while True:
        gaps = np.diff(vals)
        if ((lo < gaps) & (gaps <= hi)).any():
            top = spectral._evr(a, n - 1, n - 1, compute_v=False)[0]
            lo = hi = TIE_TOL * max(1.0, abs(float(vals[0])), abs(float(top[0])))
        if len(vals) == n or (gaps[k - 1:] > hi).any():
            return vals, vecs, hi
        vals, vecs = solve(min(n, 2 * len(vals)))


def eigendecompose_copying(l, upto=None):
    """Symmetric eigendecomposition with a deterministic convention.

    Reference for :func:`simplexsp.spectral.eigendecompose`, whose partial
    solve runs dsyevr in the memory of a writeable C-ordered matrix.
    """
    m = spectral._as_matrix(l)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NumericalError(f"expected a square matrix, got shape {m.shape}")
    if upto is not None and upto < 1:
        raise ValueError(f"upto must be >= 1, got {upto}")
    scale = spectral._norm_scale(m)
    if m.dtype == np.float64 and np.array_equal(m.view(np.int64), m.T.view(np.int64)):
        sym = m
    elif np.linalg.norm(m - m.T) > 1e-8 * scale:
        raise NumericalError("matrix is not symmetric within tolerance")
    else:
        sym = (m + m.T) / 2.0
    k = len(sym) if upto is None else min(upto, len(sym))
    try:
        if k < spectral.PARTIAL_MAX_FRACTION * len(sym):
            vals, vecs, tol = _low_pairs_copying(sym, k)
        else:
            vals, vecs = np.linalg.eigh(sym)
            tol = TIE_TOL * max(1.0, float(np.abs(vals).max(initial=0.0)))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    return _ordered_spectrum(l, vals, vecs, tol, k)


def save_matrix_csv_savetxt(m, path):
    """Reference for :func:`simplexsp.io.save_matrix_csv`: every entry formatted."""
    np.savetxt(path, np.asarray(m, dtype=float), delimiter=",", fmt="%.17g")


def is_graph_type_dense(l, tol=0.0):
    """True iff diagonal entries >= -tol and off-diagonal entries <= tol.

    Reference for :func:`simplexsp.laplacian.is_graph_type`: the
    off-diagonal part formed as a dense float matrix.
    """
    m = l.matrix if isinstance(l, GeneralizedLaplacian) else np.asarray(l, dtype=float)
    if tol < 0:
        raise ComplexError(f"tolerance must be non-negative, got {tol}")
    diag = np.diag(m)
    off = m - np.diag(diag)
    return bool(np.all(diag >= -tol) and np.all(off <= tol))


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
        laplacians.append(GeneralizedLaplacian((lap + lap.T) / 2.0, g.vertices, ()))

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


def _high_freq_max(spectrum: Spectrum, x: np.ndarray, r: float) -> float:
    cut = int(round(r * spectrum.n))  # 1-based: keep indices k > cut
    if cut >= spectrum.n:
        return 0.0
    return float(np.abs(gft(spectrum, x)[cut:]).max())


def family_spectra(family):
    """The full spectrum of every level of a family, each solved once."""
    return [eigendecompose(family.laplacian(i)) for i in range(family.p + 1)]


def detect_anomaly_per_signal(spectra, baselines, test_signal, r, epsilon, strategy, level=None):
    """The verdict of S1, S3 or S4 for one test signal on a family's spectra.

    Reference for :func:`simplexsp.tasks.detect_anomaly` on a family: one
    ``gft`` per signal and level, the baselines' maxima recomputed each time.
    """

    def flagged(i):
        spectrum = spectra[i]
        a = max(_high_freq_max(spectrum, x, r) for x in baselines)
        b = _high_freq_max(spectrum, test_signal, r)
        return b > 0.0 if a == 0.0 else b / a > 1.0 + epsilon

    if strategy == "S1":
        return flagged(0)
    if strategy == "S3":
        if level is None or not 0 <= level < len(spectra):
            raise ComplexError(f"strategy S3 needs a level in 0..{len(spectra) - 1}, got {level}")
        return flagged(level)
    votes = sum(1 for i in range(len(spectra)) if flagged(i))
    return votes >= -(-len(spectra) // 3)


def detection_rates_per_signal(family, truth, magnitudes, strategies, trials, r, epsilon,
                               amplitude, level=None, seed=0):
    """Flag counts per (magnitude, strategy).

    Reference for :func:`simplexsp.tasks.detection_rates`: trial-major, one
    :func:`detect_anomaly_per_signal` call per trial, magnitude and strategy
    on spectra solved once for the family.
    """
    spectra = family_spectra(family)
    rng = np.random.default_rng(seed)
    rates = {(m, s): 0 for m in magnitudes for s in strategies}
    for trial in range(trials):
        sigs = generate_smooth_signals(truth, 4, amplitude=amplitude, seed=seed + 10_000 + trial)
        baselines = [sigs[:, j] for j in range(3)]
        vertex = int(rng.integers(0, truth.n))
        for mag in magnitudes:
            anomalous = perturb_node(sigs[:, 3], vertex, mag, seed + trial)
            for strat in strategies:
                if detect_anomaly_per_signal(spectra, baselines, anomalous, r, epsilon, strat, level):
                    rates[(mag, strat)] += 1
    return rates


def compression_trials_trial_major(family, source, r1, r2, trials, count, seed=0):
    """Rows [trial, selected level, its compression error, level 0's error].

    Reference for :func:`simplexsp.tasks.compression_trials`: trial-major,
    each trial selecting its level over spectra solved once for the family,
    with the residuals, tie rule and errors written inline.
    """
    spectra = family_spectra(family)

    def residual(spectrum, signals, r):
        v = spectrum.lowest(max(1, int(round(r * spectrum.n))))
        return signals - v @ (v.T @ signals)

    rows = []
    for trial in range(trials if isinstance(source, Spectrum) else 1):
        if isinstance(source, Spectrum):
            s1 = generate_bandlimited_set(source, r1, count, seed + 1000 + trial)
            s2 = generate_bandlimited_set(source, r2, count, seed + 2000 + trial)
        else:
            s1 = s2 = source
        errors = np.array([np.sum(residual(s, s1, r1) ** 2) for s in spectra])
        tol = 1e-12 * max(1.0, float(np.sum(s1**2)))
        b = int(np.nonzero(errors <= errors.min() + tol)[0][0])
        err_b, err_0 = (float(np.linalg.norm(residual(spectra[i], s2, r2), axis=0).sum())
                        for i in (b, 0))
        rows.append([trial, b, err_b, err_0])
    return rows


def connected_components_dfs(g):
    """Partition of the vertices into maximal connected sets, by depth-first
    search from each unseen vertex in the vertex order."""
    adj = g.adjacency_sets()
    seen: set = set()
    comps = []
    for v in g.vertices:
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(comp)
    return comps


def _triangle_membership(x):
    """Per-vertex and per-edge triangle incidence."""
    tri_vertices: set = set()
    edge_count: dict = {}
    for t in x.triangles():
        tri_vertices.update(t)
        for u, v in itertools.combinations(t, 2):
            edge_count[frozenset((u, v))] = edge_count.get(frozenset((u, v)), 0) + 1
    return tri_vertices, edge_count


def _edge_triangle_stats(x, edge_count: dict):
    counts = [edge_count.get(frozenset(e), 0) for e in x.edges]
    if not counts:
        return 0, 0
    k_min = min(counts)
    in_tri = [c for c in counts if c > 0]
    k_max = max(in_tri) if in_tri else 0
    return k_min, k_max


def _interior_counts(x, tri_vertices: set, edge_count: dict):
    adj = x.graph().adjacency_sets()

    m1 = sum(1 for v in x.vertices if v not in tri_vertices)

    # subcomplex spanned by the triangles
    if tri_vertices:
        tri_edges = {tuple(sorted(e, key=x.index.__getitem__)): 1.0 for e in edge_count}
        sub = WeightedGraph(sorted(tri_vertices, key=x.index.__getitem__), tri_edges)
        comps = connected_components_dfs(sub)
    else:
        comps = []
    m2 = len(comps)

    def two_interior(v) -> bool:
        return all(frozenset((v, w)) in edge_count for w in adj[v])

    m3 = sum(1 for comp in comps if any(two_interior(v) for v in comp))

    m4 = 0
    for v in x.vertices:
        if v not in tri_vertices:
            continue
        for nb in adj[v]:
            if nb in tri_vertices:
                continue  # neighbor must be 1-interior
            others = adj[nb] - {v}
            if not (others & tri_vertices):
                m4 += 1
                break
    return m1, m2, m3, m4


def distinctive_check_reference(x):
    """Which of L_{X^1} - L_X / L_X - L_{X^1} is a graph Laplacian supported
    on triangle edges, with a witness entry when neither is, within 1e-10
    times the longest edge length.

    Reference for :func:`simplexsp.diagnostics.distinctive_check`: scans the
    violating entries and the triangle edges in Python loops.
    """
    l_x, l_g = complex_laplacian(x).matrix, x.graph().laplacian_matrix()
    tol = 1e-10 * max(x.edges.values(), default=1.0)
    edge_count = _triangle_membership(x)[1]
    if not edge_count:
        return DistinctiveResult("neither", True, None)
    idx = x.index
    tri_edge_rows = [
        (idx[min(e, key=idx.__getitem__)], idx[max(e, key=idx.__getitem__)])
        for e in edge_count
    ]

    def qualifies(diff):
        worst = None
        off = diff - np.diag(np.diag(diff))
        bad = np.argwhere(off > tol)
        for i, j in bad:
            v = off[i, j]
            if worst is None or v > worst[2]:
                worst = (int(i), int(j), float(v))
        if worst is not None:
            return False, worst
        for i, j in tri_edge_rows:
            if diff[i, j] >= -tol:
                return False, (i, j, float(diff[i, j]))
        return True, None

    ok, witness = qualifies(l_g - l_x)
    if ok:
        return DistinctiveResult("X1_minus_X", False, None)
    ok2, witness2 = qualifies(l_x - l_g)
    if ok2:
        return DistinctiveResult("X_minus_X1", False, None)
    return DistinctiveResult("neither", False, witness or witness2)


def _prop1_conditions(x, tri_vertices: set, edge_count: dict):
    """The three geometric hypotheses of the non-shift-invariance result."""
    adj = x.graph().adjacency_sets()

    # (a) no bare edge joining two distinct 2-simplices (edges belonging to
    # a 2-simplex do not count as "direct" connections)
    cond_a = True
    for (u, v) in x.edges:
        if frozenset((u, v)) in edge_count:
            continue
        if u in tri_vertices and v in tri_vertices:
            cond_a = False
            break

    # (b) every 1-interior vertex has at most one neighbor belonging to a
    # 2-simplex (the strong reading the counting argument requires: its
    # contact vertex must then qualify as an m4 vertex); one such vertex
    # must exist
    one_interior = [v for v in x.vertices if v not in tri_vertices]
    cond_b = bool(one_interior)
    for v in one_interior:
        if len(adj[v] & tri_vertices) > 1:
            cond_b = False
            break

    # (c) each edge in at most one 2-simplex
    cond_c = all(c <= 1 for c in edge_count.values())
    return cond_a, cond_b, cond_c


def diagnostics_report_reference(x):
    """The full diagnostics record of a 2-complex.

    Reference for :func:`simplexsp.diagnostics.diagnostics_report`: the
    triangle incidence, interior counts, distinctive test, Proposition 1
    conditions and shape constants computed one simplex at a time.  The
    sandwich is left out below two vertices, where it has no generalized
    eigenvalue.  Tolerances are those at unit lengths times the longest
    edge length.
    """
    import scipy.linalg

    if any(len(s) > 3 for s in x.simplices):
        raise ComplexError("diagnostics are specific to complexes of dimension <= 2")
    l_x, l_g = complex_laplacian(x).matrix, x.graph().laplacian_matrix()
    tri_vertices, edge_count = _triangle_membership(x)
    m1, m2, m3, m4 = _interior_counts(x, tri_vertices, edge_count)
    distinctive = distinctive_check_reference(x)
    connected = len(connected_components_dfs(x.graph())) == 1
    g = x.graph()
    triangles = x.triangles()
    gammas = [
        shape_constant(g.weight(t[0], t[1]), g.weight(t[0], t[2]), g.weight(t[1], t[2]))
        for t in triangles
    ]
    k_min, k_max = _edge_triangle_stats(x, edge_count)
    prop1 = _prop1_conditions(x, tri_vertices, edge_count)
    n = x.n
    certificate = (
        connected
        and distinctive.direction != "neither"
        and 1 <= (m1 + m4) < n
        and m2 <= m3 + m4
    )

    sandwich = None
    unit = all(abs(w - 1.0) <= 1e-9 for w in x.edges.values())
    if unit and connected and n >= 2:
        basis = np.linalg.qr(np.eye(n) - np.full((n, n), 1.0 / n))[0][:, : n - 1]
        vals = scipy.linalg.eigh(basis.T @ l_x @ basis, basis.T @ l_g @ basis,
                                 eigvals_only=True)
        sandwich = SandwichBounds(float(vals.min()), float(vals.max()),
                                  max(k_min / 3.0, 1.0 / 3.0), k_max / 3.0, k_min, k_max)

    length = max(x.edges.values(), default=1.0)
    rng = np.random.default_rng(0)
    ratios = []
    for t in triangles[:5]:
        w12, w13, w23 = g.weight(t[0], t[1]), g.weight(t[0], t[2]), g.weight(t[1], t[2])
        l_tri = two_simplex_closed_form(w12, w13, w23).matrix
        l_tri_g = WeightedGraph(
            (1, 2, 3), {(1, 2): w12, (1, 3): w13, (2, 3): w23}
        ).laplacian_matrix()
        for _ in range(5):
            v = rng.standard_normal(3)
            y = np.array([v[2] - v[1], v[0] - v[2], v[1] - v[0]])
            num = float(y @ l_tri_g @ y)
            den = float(v @ l_tri @ v)
            if abs(den) > 1e-14 * length:
                ratios.append(num / den)

    return DiagnosticsReport(
        gamma_min=min(gammas) if gammas else None,
        graph_type=is_graph_type_dense(l_x, tol=1e-12 * length),
        k_min=k_min,
        k_max=k_max,
        m1=m1,
        m2=m2,
        m3=m3,
        m4=m4,
        distinctive=distinctive.direction,
        trivially_distinctive=distinctive.trivially_distinctive,
        prop1_conditions=prop1,
        theorem_certificate=certificate,
        commutator=commutator_norm(l_x, l_g),
        sandwich=sandwich,
        difference_ratio_samples=ratios,
    )
