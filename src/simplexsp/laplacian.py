"""Generalized Laplacians from star expansions with Gromov-product weights.

An n-simplex (n >= 2) is replaced by a star graph: its vertices plus a
barycenter node u, with w(v_i, u) the average of the Gromov products at v_i
over all vertex pairs avoiding v_i.  The simplex Laplacian is T' L_star T
where T is the averaging matrix (identity rows plus a uniform barycenter
row).  A full complex sums the blocks of its maximal simplices; maximal
1-simplices contribute the usual weighted edge Laplacian, so a plain graph
recovers the standard graph Laplacian exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _SOURCES
from .complex_core import ComplexError, SimplicialComplex, maximal_simplices

__all__ = list(_SOURCES["laplacian"])


@dataclass(frozen=True)
class StarExpansion:
    """Star graph, vertex embedding and averaging matrix for one simplex.

    ``star_weights[i]`` is the weight of the edge from vertex i to the
    barycenter; it can be negative when the simplex edge weights violate the
    triangle inequality (flagged by ``has_negative_weight``).
    """

    vertices: tuple
    star_weights: np.ndarray
    averaging: np.ndarray  # T, shape (n+2, n+1)
    embedding: dict  # simplex vertex -> row index in the star graph

    @property
    def has_negative_weight(self) -> bool:
        return bool(np.any(self.star_weights < 0))

    def star_graph_laplacian(self) -> np.ndarray:
        """Laplacian of the star graph (barycenter indexed last)."""
        k = len(self.vertices)
        lap = np.zeros((k + 1, k + 1))
        for i, w in enumerate(self.star_weights):
            lap[i, i] = w
            lap[i, k] = lap[k, i] = -w
        lap[k, k] = float(self.star_weights.sum())
        return lap


@dataclass(frozen=True)
class GeneralizedLaplacian:
    """Symmetric operator on vertex signals with construction provenance."""

    matrix: np.ndarray
    vertices: tuple = ()
    provenance: tuple = field(default_factory=tuple)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def matrix_of(l) -> np.ndarray:
    """The matrix of a GeneralizedLaplacian, or an array of floats."""
    return l.matrix if isinstance(l, GeneralizedLaplacian) else np.asarray(l, dtype=float)


def _check_positive(*weights: float) -> None:
    for w in weights:
        if not math.isfinite(float(w)) or float(w) <= 0:
            raise ComplexError(f"edge weights must be positive and finite, got {w}")


def gromov_product(w_ij: float, w_ik: float, w_jk: float) -> float:
    """Gromov product (v_j, v_k) at v_i: (d(i,j) + d(i,k) - d(j,k)) / 2.

    Negative exactly when the triangle inequality fails at the opposite edge.
    """
    _check_positive(w_ij, w_ik, w_jk)
    return (float(w_ij) + float(w_ik) - float(w_jk)) / 2.0


def star_expansion(simplex_vertices, edge_weights) -> StarExpansion:
    """Barycenter star expansion of an n-simplex (n >= 2).

    ``edge_weights`` maps unordered vertex pairs to the direct edge weight
    within the simplex.  The barycenter weight at v_i averages the Gromov
    products over all C(n, 2) pairs not containing v_i.
    """
    verts = tuple(simplex_vertices)
    k = len(verts)
    if k < 3:
        raise ComplexError(
            f"star expansion needs >= 3 vertices (1-simplices bypass it), got {verts}"
        )

    wmap: dict = {}
    for (u, v), w in dict(edge_weights).items():
        wmap[frozenset((u, v))] = float(w)

    def w_of(u, v):
        try:
            return wmap[frozenset((u, v))]
        except KeyError:
            raise ComplexError(f"missing pairwise weight for ({u!r}, {v!r})") from None

    for u, v in itertools.combinations(verts, 2):
        _check_positive(w_of(u, v))

    star = np.empty(k)
    for i, vi in enumerate(verts):
        others = [v for v in verts if v != vi]
        prods = [
            (w_of(vi, vj) + w_of(vi, vk) - w_of(vj, vk)) / 2.0
            for vj, vk in itertools.combinations(others, 2)
        ]
        star[i] = sum(prods) / len(prods)

    t = np.vstack([np.eye(k), np.full(k, 1.0 / k)])
    embedding = {v: i for i, v in enumerate(verts)}
    return StarExpansion(verts, star, t, embedding)


def simplex_laplacian(se: StarExpansion) -> GeneralizedLaplacian:
    """Dense triple product T' L_star T on the original simplex vertices.

    This is the oracle the 2-simplex closed form must reproduce.
    """
    t = se.averaging
    lap = t.T @ se.star_graph_laplacian() @ t
    lap = (lap + lap.T) / 2.0
    return GeneralizedLaplacian(lap, se.vertices, (se.vertices,))


def _two_simplex_matrix(w12, w13, w23) -> np.ndarray:
    """The 2-simplex closed form, (3, 3); for arrays of k weight triples, (k, 3, 3)."""
    a = (w13 + w12 - w23) / 2.0  # Gromov product at v1
    b = (w23 + w12 - w13) / 2.0  # at v2
    c = (w13 + w23 - w12) / 2.0  # at v3
    m = (
        np.array(
            [
                [b + c + 4 * a, c - 2 * a - 2 * b, b - 2 * a - 2 * c],
                [c - 2 * a - 2 * b, a + c + 4 * b, a - 2 * b - 2 * c],
                [b - 2 * a - 2 * c, a - 2 * b - 2 * c, a + b + 4 * c],
            ]
        )
        / 9.0
    )
    return np.moveaxis(m, (0, 1), (-2, -1))


def two_simplex_closed_form(w12: float, w13: float, w23: float) -> GeneralizedLaplacian:
    """Closed-form generalized Laplacian of a single weighted 2-simplex on
    the vertices (1, 2, 3)."""
    _check_positive(w12, w13, w23)
    return GeneralizedLaplacian(_two_simplex_matrix(w12, w13, w23), (1, 2, 3), ((1, 2, 3),))


def block_entries(simplices, weights) -> tuple:
    """The Laplacian blocks of a sequence of simplices as (rows, cols, values).

    ``simplices[k]`` lists the matrix rows of a simplex with at least two
    vertices, ``weights[k]`` the lengths of its vertex pairs in
    ``itertools.combinations`` order.  An edge gives w [[1,-1],[-1,1]] (a
    negative w retires an edge block), a 2-simplex its closed form, both
    computed for all simplices at once, and a larger simplex its star
    expansion.  The entries of simplex k precede those of simplex k+1, so
    ``np.add.at(lap, (rows, cols), values)``, which applies repeated indices
    one at a time in order, adds the blocks one after another.
    """
    sizes = np.fromiter(map(len, simplices), dtype=np.intp, count=len(simplices))
    start = np.concatenate(([0], np.cumsum(sizes * sizes)))
    rows = np.empty(start[-1], dtype=np.intp)
    cols = np.empty(start[-1], dtype=np.intp)
    values = np.empty(start[-1])
    for size, pattern in ((2, ([0, 1, 0, 1], [0, 1, 1, 0])),
                          (3, ([0, 0, 0, 1, 1, 1, 2, 2, 2], [0, 1, 2] * 3))):
        ks = np.flatnonzero(sizes == size)
        r = np.array([simplices[k] for k in ks], dtype=np.intp).reshape(-1, size)
        w = np.array([weights[k] for k in ks], dtype=float).reshape(-1, size * (size - 1) // 2)
        slots = start[ks, None] + np.arange(size * size)
        rows[slots] = r[:, pattern[0]]
        cols[slots] = r[:, pattern[1]]
        if size == 2:
            values[slots] = w * [1.0, 1.0, -1.0, -1.0]
        else:
            values[slots] = _two_simplex_matrix(*w.T).reshape(-1, 9)
    for k in np.flatnonzero(sizes >= 4):
        s = list(simplices[k])
        pairs = dict(zip(itertools.combinations(s, 2), weights[k]))
        block = simplex_laplacian(star_expansion(s, pairs)).matrix
        rows[start[k]:start[k + 1]] = np.repeat(s, len(s))
        cols[start[k]:start[k + 1]] = np.tile(s, len(s))
        values[start[k]:start[k + 1]] = block.ravel()
    return rows, cols, values


def complex_laplacian(x: SimplicialComplex) -> GeneralizedLaplacian:
    """Sum of simplex Laplacians over the maximal simplices of the complex.

    Bare maximal edges contribute w [[1,-1],[-1,1]]; a complex without
    simplices of dimension >= 2 yields the standard graph Laplacian exactly.
    """
    blocks = tuple(s for s in maximal_simplices(x) if len(s) >= 2)
    if not x.simplices:  # every stored simplex has at least 3 vertices
        # bit-exact graph recovery: no blocks to sum, reuse the 1-skeleton
        return GeneralizedLaplacian(x.graph().laplacian_matrix(), x.vertices, blocks)
    idx = x.index
    # maximal simplices and edge keys both list vertices in vertex order
    rows, cols, values = block_entries(
        [[idx[v] for v in s] for s in blocks],
        [[x.edges[e] for e in itertools.combinations(s, 2)] for s in blocks],
    )
    lap = np.zeros((x.n, x.n))
    np.add.at(lap, (rows, cols), values)
    return GeneralizedLaplacian(lap, x.vertices, blocks)


def _shape_constants(w12, w13, w23):
    return np.minimum(
        np.minimum((5 * w12 - w13 - w23) / 2.0, (5 * w13 - w12 - w23) / 2.0),
        (5 * w23 - w12 - w13) / 2.0,
    )


def shape_constant(w12: float, w13: float, w23: float) -> float:
    """min over cyclic assignments of (5 w_ij - w_ik - w_jk) / 2.

    Non-negative iff the 2-simplex Laplacian is of graph type.
    """
    _check_positive(w12, w13, w23)
    return float(_shape_constants(w12, w13, w23))


def is_graph_type(l: GeneralizedLaplacian | np.ndarray, tol: float = 0.0) -> bool:
    """True iff diagonal entries are finite and >= -tol and off-diagonal
    entries <= tol."""
    m = matrix_of(l)
    if tol < 0:
        raise ComplexError(f"tolerance must be non-negative, got {tol}")
    diag = np.diag(m)
    ok = m <= tol
    # a diagonal entry d must also pass d - d <= tol, which inf and NaN fail
    np.fill_diagonal(ok, (diag - diag) <= tol)
    return bool(np.all(diag >= -tol) and ok.all())
