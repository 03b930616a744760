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

from .complex_core import ComplexError, SimplicialComplex, maximal_simplices

__all__ = [
    "StarExpansion",
    "GeneralizedLaplacian",
    "gromov_product",
    "star_expansion",
    "simplex_laplacian",
    "two_simplex_closed_form",
    "add_simplex_block",
    "complex_laplacian",
    "shape_constant",
    "is_graph_type",
]

BARYCENTER = "__barycenter__"


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


def _two_simplex_matrix(w12: float, w13: float, w23: float) -> np.ndarray:
    a = (w13 + w12 - w23) / 2.0  # Gromov product at v1
    b = (w23 + w12 - w13) / 2.0  # at v2
    c = (w13 + w23 - w12) / 2.0  # at v3
    return (
        np.array(
            [
                [b + c + 4 * a, c - 2 * a - 2 * b, b - 2 * a - 2 * c],
                [c - 2 * a - 2 * b, a + c + 4 * b, a - 2 * b - 2 * c],
                [b - 2 * a - 2 * c, a - 2 * b - 2 * c, a + b + 4 * c],
            ]
        )
        / 9.0
    )


def two_simplex_closed_form(
    w12: float, w13: float, w23: float, vertices=(1, 2, 3)
) -> GeneralizedLaplacian:
    """Closed-form generalized Laplacian of a single weighted 2-simplex."""
    _check_positive(w12, w13, w23)
    verts = tuple(vertices)
    return GeneralizedLaplacian(_two_simplex_matrix(w12, w13, w23), verts, (verts,))


def add_simplex_block(lap: np.ndarray, rows, weights, sign: float = 1.0) -> None:
    """Add ``sign`` (+1 or -1) times one simplex's Laplacian block to ``lap``.

    ``rows`` are the simplex's rows in ``lap``, ``weights`` the lengths of
    its vertex pairs in ``itertools.combinations(rows, 2)`` order.  An edge
    adds w [[1,-1],[-1,1]] as four scalar updates, a 2-simplex its closed
    form and a larger simplex its star expansion; with sign -1 every entry
    gets exactly the bits of subtracting the block.
    """
    if len(rows) == 2:
        i, j = rows
        w = sign * weights[0]
        lap[i, i] += w
        lap[j, j] += w
        lap[i, j] -= w
        lap[j, i] -= w
        return
    if len(rows) == 3:
        block = _two_simplex_matrix(*weights)
    else:
        pairs = dict(zip(itertools.combinations(rows, 2), weights))
        block = simplex_laplacian(star_expansion(rows, pairs)).matrix
    lap[np.ix_(rows, rows)] += sign * block


def complex_laplacian(x: SimplicialComplex) -> GeneralizedLaplacian:
    """Sum of simplex Laplacians over the maximal simplices of the complex.

    Bare maximal edges contribute w [[1,-1],[-1,1]]; a complex without
    simplices of dimension >= 2 yields the standard graph Laplacian exactly.
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
        if len(s) >= 2:
            # maximal simplices and edge keys both list vertices in vertex order
            weights = [x.edges[e] for e in itertools.combinations(s, 2)]
            add_simplex_block(lap, [idx[v] for v in s], weights)
            provenance.append(s)
    return GeneralizedLaplacian(lap, x.vertices, tuple(provenance))


def shape_constant(w12: float, w13: float, w23: float) -> float:
    """min over cyclic assignments of (5 w_ij - w_ik - w_jk) / 2.

    Non-negative iff the 2-simplex Laplacian is of graph type.
    """
    _check_positive(w12, w13, w23)
    return min(
        (5 * w12 - w13 - w23) / 2.0,
        (5 * w13 - w12 - w23) / 2.0,
        (5 * w23 - w12 - w13) / 2.0,
    )


def is_graph_type(l: GeneralizedLaplacian | np.ndarray, tol: float = 0.0) -> bool:
    """True iff diagonal entries >= -tol and off-diagonal entries <= tol."""
    m = l.matrix if isinstance(l, GeneralizedLaplacian) else np.asarray(l, dtype=float)
    if tol < 0:
        raise ComplexError(f"tolerance must be non-negative, got {tol}")
    diag = np.diag(m)
    off = m - np.diag(diag)
    return bool(np.all(diag >= -tol) and np.all(off <= tol))
