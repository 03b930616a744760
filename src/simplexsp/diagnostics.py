"""Structural and spectral diagnostics for 2-complexes.

Covers: generalized-Laplacian sanity audits, shape constants and graph-type
tests, interior-node counts, the distinctive-2-simplex test, an empirical
spectral sandwich of L_X against the skeleton Laplacian, and a combinatorial
non-shift-invariance certificate cross-checked by the numerical commutator.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from . import _SOURCES
from .complex_core import ComplexError, SimplicialComplex, WeightedGraph, _components
from .laplacian import (
    GeneralizedLaplacian,
    _shape_constants,
    complex_laplacian,
    is_graph_type,
    matrix_of,
    two_simplex_closed_form,
)
from .spectral import _gvd_values, _norm_scale, _q_factor, commutator_norm

# tolerances at unit lengths; the entries compared against them scale with
# the lengths, so each is multiplied by the longest edge length
DISTINCTIVE_TOL = 1e-10
GRAPH_TYPE_TOL = 1e-12
RATIO_DEN_TOL = 1e-14
# how far from 1 a length may lie in a unit-length complex
UNIT_TOL = 1e-9
RATIO_SAMPLES = 5

__all__ = list(_SOURCES["diagnostics"])


class _Incidence(NamedTuple):
    """Triangle-edge incidence of a 2-complex, in rows of the vertex order."""

    tri_weights: np.ndarray  # (T, 3) lengths of v1v2, v1v3, v2v3, in x.triangles() order
    edges: np.ndarray  # (E, 2) graph edge rows, lower row first
    on_edge: np.ndarray  # (E,) triangles on each graph edge
    tri_edges: np.ndarray  # (K, 2) rows of the triangle edges, in first-use order
    in_tri: np.ndarray  # (n,) vertex lies on a triangle
    nbrs_on_tri: np.ndarray  # (n,) neighbors lying on a triangle


def _incidence(x: SimplicialComplex) -> _Incidence:
    if any(len(s) > 3 for s in x.simplices):
        raise ComplexError("diagnostics are specific to complexes of dimension <= 2")
    n, idx = x.n, x.index
    tri = np.array([[idx[v] for v in s] for s in x.simplices], dtype=np.intp).reshape(-1, 3)
    tri = tri[np.lexsort(tri.T[::-1])]
    edges = np.array([(idx[u], idx[v]) for u, v in x.edges], dtype=np.intp).reshape(-1, 2)
    codes = edges[:, 0] * n + edges[:, 1]
    order = np.argsort(codes)
    # the graph edge under each triangle pair; face closure puts all of them in the graph
    on = order[np.searchsorted(codes[order], tri[:, [0, 0, 1]] * n + tri[:, [1, 2, 2]])]
    first = np.sort(np.unique(on, return_index=True)[1])
    in_tri = np.zeros(n, dtype=bool)
    in_tri[tri] = True
    a, b = edges.T
    weights = np.fromiter(x.edges.values(), dtype=float, count=len(x.edges))
    return _Incidence(
        weights[on],
        edges,
        np.bincount(on.ravel(), minlength=len(edges)),
        edges[on.ravel()[first]],
        in_tri,
        np.bincount(np.concatenate([a[in_tri[b]], b[in_tri[a]]]), minlength=n),
    )


def _edge_triangle_stats(inc: _Incidence):
    if not len(inc.on_edge):
        return 0, 0
    return int(inc.on_edge.min()), int(inc.on_edge.max())


def interior_counts(x: SimplicialComplex):
    """(m1, m2, m3, m4) interior-node statistics of a 2-complex.

    m1: vertices in no 2-simplex.  m2: connected components of the smallest
    subcomplex containing all 2-simplices.  m3: such components containing a
    2-interior vertex (all incident edges inside 2-simplices).  m4: vertices
    of a 2-simplex with a 1-interior neighbor whose other neighbors all
    avoid 2-simplices.
    """
    return _interior_counts(x.n, _incidence(x))


def _interior_counts(n: int, inc: _Incidence):
    in_tri = inc.in_tri
    m1 = int(np.count_nonzero(~in_tri))

    # subcomplex spanned by the triangles
    tri_edges = inc.edges[inc.on_edge > 0]
    labels = _components(n, tri_edges)

    def distinct(rows):
        # np.unique(rows).size imports numpy.ma (numpy 2.4) to test for a mask
        return int(np.count_nonzero(np.bincount(rows, minlength=n)))

    m2 = distinct(labels[in_tri])

    degree = np.bincount(inc.edges.ravel(), minlength=n)
    two_interior = in_tri & (degree == np.bincount(tri_edges.ravel(), minlength=n))
    m3 = distinct(labels[two_interior])

    # v on a triangle with a 1-interior neighbor u whose only neighbor on a
    # triangle is v
    v, u = np.concatenate([inc.edges, inc.edges[:, ::-1]]).T
    hit = in_tri[v] & ~in_tri[u] & (inc.nbrs_on_tri[u] == 1)
    m4 = distinct(v[hit])
    return m1, m2, m3, m4


class DistinctiveResult(NamedTuple):
    direction: str  # "X1_minus_X", "X_minus_X1" or "neither"
    trivially_distinctive: bool
    witness: tuple | None  # (i, j, value) of a violating entry, if any


class _Facts(NamedTuple):
    """What every diagnostic of one 2-complex shares, computed once."""

    l_x: np.ndarray  # L_X, dense
    l_g: np.ndarray  # L_{X^1}, dense
    inc: _Incidence
    counts: tuple  # interior_counts
    distinctive: DistinctiveResult
    connected: bool
    length: float  # the longest edge length, 1.0 without edges


def _facts(x: SimplicialComplex) -> _Facts:
    inc = _incidence(x)
    l_x, l_g = complex_laplacian(x).matrix, x.graph().laplacian_matrix()
    length = max(x.edges.values(), default=1.0)
    return _Facts(
        l_x,
        l_g,
        inc,
        _interior_counts(x.n, inc),
        _distinctive(inc, l_x, l_g, DISTINCTIVE_TOL * length),
        x.n > 0 and not _components(x.n, inc.edges).any(),
        length,
    )


def distinctive_check(x: SimplicialComplex) -> DistinctiveResult:
    """Which of L_{X^1} - L_X / L_X - L_{X^1} is a graph Laplacian supported
    on triangle edges (strictly negative off-diagonal there), within a
    tolerance proportional to the longest edge length."""
    return _facts(x).distinctive


def _distinctive(inc: _Incidence, l_x, l_g, tol: float) -> DistinctiveResult:
    if not len(inc.tri_edges):
        return DistinctiveResult("neither", True, None)
    i, j = inc.tri_edges.T

    def qualifies(diff):
        # the witness is the first largest off-diagonal entry above tol in
        # row-major order, else the first triangle edge not below -tol
        np.fill_diagonal(diff, 0.0)
        bad = np.flatnonzero(diff > tol)
        if bad.size:
            k = bad[np.argmax(diff.flat[bad])]
            return False, (*map(int, divmod(k, len(diff))), float(diff.flat[k]))
        on = diff[i, j]
        miss = np.flatnonzero(on >= -tol)
        if miss.size:
            k = miss[0]
            return False, (int(i[k]), int(j[k]), float(on[k]))
        return True, None

    ok, witness = qualifies(l_g - l_x)
    if ok:
        return DistinctiveResult("X1_minus_X", False, None)
    ok2, witness2 = qualifies(l_x - l_g)
    if ok2:
        return DistinctiveResult("X_minus_X1", False, None)
    return DistinctiveResult("neither", False, witness or witness2)


def _prop1_conditions(inc: _Incidence):
    """The three geometric hypotheses of the non-shift-invariance result."""
    a, b = inc.edges.T

    # (a) no bare edge joining two distinct 2-simplices (edges belonging to
    # a 2-simplex do not count as "direct" connections)
    cond_a = not ((inc.on_edge == 0) & inc.in_tri[a] & inc.in_tri[b]).any()

    # (b) every 1-interior vertex has at most one neighbor belonging to a
    # 2-simplex (the strong reading the counting argument requires: its
    # contact vertex must then qualify as an m4 vertex); one such vertex
    # must exist
    one_interior = ~inc.in_tri
    cond_b = one_interior.any() and (inc.nbrs_on_tri[one_interior] <= 1).all()

    # (c) each edge in at most one 2-simplex
    cond_c = (inc.on_edge <= 1).all()
    return bool(cond_a), bool(cond_b), bool(cond_c)


def shift_invariance_certificate(x: SimplicialComplex):
    """(prop1 conditions, combinatorial certificate, commutator norm).

    The certificate asserts non-shift-invariance of L_X w.r.t. L_{X^1}; when
    it fires the numerical commutator should exceed 1e-8 as cross-evidence.
    """
    return _certificate(x, _facts(x))


def _certificate(x, f: _Facts):
    prop1 = _prop1_conditions(f.inc)
    m1, m2, m3, m4 = f.counts
    n = x.n
    # The constant vector is a common eigenvector (eigenvalue 0) of both
    # Laplacians, so the common-eigenspace dimension is at least 1; the
    # sufficient condition can therefore only bind when m1 + m4 >= 1.
    # Connectivity of the 1-skeleton is also required: with several
    # components, each extra component contributes another eigenvalue-0
    # common eigenvector that the m2 - m3 counting bound never charges,
    # and the conclusion can fail (e.g. a lone triangle plus a far-away
    # edge, where the two operators commute exactly).
    certificate = (
        f.connected
        and f.distinctive.direction != "neither"
        and 1 <= (m1 + m4) < n
        and m2 <= m3 + m4
    )
    return prop1, certificate, commutator_norm(f.l_x, f.l_g)


class SandwichBounds(NamedTuple):
    alpha: float
    beta: float
    claimed_lower: float
    claimed_upper: float
    k_min: int
    k_max: int


def _unit(x: SimplicialComplex) -> bool:
    return all(abs(w - 1.0) <= UNIT_TOL for w in x.edges.values())


def sandwich_bounds(x: SimplicialComplex) -> SandwichBounds:
    """Empirical extremal Rayleigh quotients of (L_X, L_{X^1}).

    Computed on the orthocomplement of the constant vector of a connected,
    unit-edge-weight 2-complex.  The claimed bounds (k/3 factors) are
    reported alongside but never asserted.
    """
    return _sandwich(x, _facts(x))


def _complement_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the complement of the constant vector: the first
    n - 1 columns of the Q factor of I - J/n, in C order like ``np.linalg.qr``'s.

    I - J/n is built in one array, with the entries 1 - 1/n and 0 - 1/n
    computed as ``np.eye(n) - np.full((n, n), 1 / n)`` computes them."""
    m = np.full((n, n), -1.0 / n, order="F")
    np.fill_diagonal(m, 1.0 - 1.0 / n)
    return np.ascontiguousarray(_q_factor(m))[:, : n - 1]


def _sandwich(x, f: _Facts) -> SandwichBounds:
    if not _unit(x):
        raise ComplexError("sandwich bounds require unit edge weights")
    if not f.connected:
        raise ComplexError("sandwich bounds require a connected complex")
    if x.n < 2:
        raise ComplexError("sandwich bounds need at least two vertices")
    basis = _complement_basis(x.n)
    # each product is formed in C order, whose bits the Fortran layout does
    # not keep, and handed to LAPACK as the Fortran copy it would make itself;
    # b's copy is made once the basis is released, so it can take its memory
    a = np.asfortranarray(basis.T @ f.l_x @ basis)
    b = basis.T @ f.l_g @ basis
    del basis
    b = np.asfortranarray(b)
    vals = _gvd_values(a, b)
    k_min, k_max = _edge_triangle_stats(f.inc)
    return SandwichBounds(
        float(vals.min()),
        float(vals.max()),
        max(k_min / 3.0, 1.0 / 3.0),
        k_max / 3.0,
        k_min,
        k_max,
    )


def lemma2_audit(l: GeneralizedLaplacian, components: int) -> dict:
    """Symmetry / PSD / zero-row-sum / kernel-dimension audit of a Laplacian.

    Raises :class:`NumericalError` when the Frobenius norm is not finite."""
    m = matrix_of(l)
    scale = _norm_scale(m)
    sym_resid = float(np.linalg.norm(m - m.T))
    vals = np.linalg.eigvalsh((m + m.T) / 2.0)
    min_eig = float(vals.min())
    row_resid = float(np.abs(m.sum(axis=1)).max())
    kernel_dim = int(np.sum(vals < 1e-8 * scale))
    return {
        "symmetry": {"pass": sym_resid <= 1e-12 * scale, "residual": sym_resid},
        "psd": {"pass": min_eig >= -1e-10 * scale, "min_eigenvalue": min_eig},
        "row_sums": {"pass": row_resid <= 1e-10 * scale, "residual": row_resid},
        "kernel": {"pass": kernel_dim == components, "dimension": kernel_dim},
    }


@dataclass
class DiagnosticsReport:
    gamma_min: float | None
    graph_type: bool
    k_min: int
    k_max: int
    m1: int
    m2: int
    m3: int
    m4: int
    distinctive: str
    trivially_distinctive: bool
    prop1_conditions: tuple
    theorem_certificate: bool
    commutator: float
    sandwich: SandwichBounds | None
    difference_ratio_samples: list = field(default_factory=list)

    def as_dict(self) -> dict:
        """Field dict for JSON; the tuple fields serialize as lists."""
        return asdict(self)


def diagnostics_report(x: SimplicialComplex) -> DiagnosticsReport:
    """Assemble the full diagnostics record for a 2-complex."""
    f = _facts(x)
    gammas = _shape_constants(*f.inc.tri_weights.T)
    k_min, k_max = _edge_triangle_stats(f.inc)
    m1, m2, m3, m4 = f.counts
    prop1, certificate, comm = _certificate(x, f)

    sandwich = None
    if _unit(x) and f.connected and x.n >= 2:
        sandwich = _sandwich(x, f)

    # empirical quadratic-form ratios <y, L_{X^1} y> / <x, L_X x> per triangle
    rng = np.random.default_rng(0)
    ratios = []
    for w12, w13, w23 in f.inc.tri_weights[:RATIO_SAMPLES]:
        l_tri = two_simplex_closed_form(w12, w13, w23).matrix
        l_tri_g = WeightedGraph(
            (1, 2, 3), {(1, 2): w12, (1, 3): w13, (2, 3): w23}
        ).laplacian_matrix()
        for _ in range(RATIO_SAMPLES):
            v = rng.standard_normal(3)
            y = np.array([v[2] - v[1], v[0] - v[2], v[1] - v[0]])
            num = float(y @ l_tri_g @ y)
            den = float(v @ l_tri @ v)
            if abs(den) > RATIO_DEN_TOL * f.length:
                ratios.append(num / den)

    return DiagnosticsReport(
        gamma_min=float(gammas.min()) if len(gammas) else None,
        graph_type=is_graph_type(f.l_x, tol=GRAPH_TYPE_TOL * f.length),
        k_min=k_min,
        k_max=k_max,
        m1=m1,
        m2=m2,
        m3=m3,
        m4=m4,
        distinctive=f.distinctive.direction,
        trivially_distinctive=f.distinctive.trivially_distinctive,
        prop1_conditions=prop1,
        theorem_certificate=certificate,
        commutator=comm,
        sandwich=sandwich,
        difference_ratio_samples=ratios,
    )
