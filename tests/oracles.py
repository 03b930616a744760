"""Simple reference versions of the library's fast paths.

Each function here is the straightforward implementation a fast path
replaced, kept unchanged so that property tests can compare the two on
random inputs.
"""


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
