"""Structural and spectral diagnostics for 2-complexes.

Covers: generalized-Laplacian sanity audits, shape constants and graph-type
tests, interior-node counts, the distinctive-2-simplex test, an empirical
spectral sandwich of L_X against the skeleton Laplacian, and a combinatorial
non-shift-invariance certificate cross-checked by the numerical commutator.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .complex_core import (
    ComplexError,
    SimplicialComplex,
    WeightedGraph,
    connected_components,
)
from .laplacian import (
    GeneralizedLaplacian,
    complex_laplacian,
    is_graph_type,
    shape_constant,
    two_simplex_closed_form,
)
from .spectral import commutator_norm

__all__ = [
    "DiagnosticsReport",
    "DistinctiveResult",
    "SandwichBounds",
    "interior_counts",
    "distinctive_check",
    "shift_invariance_certificate",
    "sandwich_bounds",
    "lemma2_audit",
    "diagnostics_report",
]


def _require_two_complex(x: SimplicialComplex) -> None:
    if any(len(s) > 3 for s in x.simplices):
        raise ComplexError("diagnostics are specific to complexes of dimension <= 2")


def _triangle_membership(x: SimplicialComplex):
    """Per-vertex and per-edge triangle incidence."""
    tri_vertices: set = set()
    edge_count: dict = {}
    for t in x.triangles():
        tri_vertices.update(t)
        for u, v in itertools.combinations(t, 2):
            edge_count[frozenset((u, v))] = edge_count.get(frozenset((u, v)), 0) + 1
    return tri_vertices, edge_count


def _edge_triangle_stats(x: SimplicialComplex, edge_count: dict):
    counts = [edge_count.get(frozenset(e), 0) for e in x.edges]
    if not counts:
        return 0, 0
    k_min = min(counts)
    in_tri = [c for c in counts if c > 0]
    k_max = max(in_tri) if in_tri else 0
    return k_min, k_max


def interior_counts(x: SimplicialComplex):
    """(m1, m2, m3, m4) interior-node statistics of a 2-complex.

    m1: vertices in no 2-simplex.  m2: connected components of the smallest
    subcomplex containing all 2-simplices.  m3: such components containing a
    2-interior vertex (all incident edges inside 2-simplices).  m4: vertices
    of a 2-simplex with a 1-interior neighbor whose other neighbors all
    avoid 2-simplices.
    """
    _require_two_complex(x)
    return _interior_counts(x, *_triangle_membership(x))


def _interior_counts(x: SimplicialComplex, tri_vertices: set, edge_count: dict):
    adj = x.graph().adjacency_sets()

    m1 = sum(1 for v in x.vertices if v not in tri_vertices)

    # subcomplex spanned by the triangles
    if tri_vertices:
        tri_edges = {tuple(sorted(e, key=x.index.__getitem__)): 1.0 for e in edge_count}
        sub = WeightedGraph(sorted(tri_vertices, key=x.index.__getitem__), tri_edges)
        comps = connected_components(sub)
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


class DistinctiveResult(NamedTuple):
    direction: str  # "X1_minus_X", "X_minus_X1" or "neither"
    trivially_distinctive: bool
    witness: tuple | None  # (i, j, value) of a violating entry, if any


class _Facts(NamedTuple):
    """What every diagnostic of one 2-complex shares, computed once."""

    l_x: np.ndarray  # L_X, dense
    l_g: np.ndarray  # L_{X^1}, dense
    tri_vertices: set
    edge_count: dict  # triangle edge -> number of triangles on it
    counts: tuple  # interior_counts
    distinctive: DistinctiveResult
    connected: bool


def _facts(x: SimplicialComplex, tol: float = 1e-10) -> _Facts:
    _require_two_complex(x)
    l_x, l_g = complex_laplacian(x).matrix, x.graph().laplacian_matrix()
    tri_vertices, edge_count = _triangle_membership(x)
    return _Facts(
        l_x,
        l_g,
        tri_vertices,
        edge_count,
        _interior_counts(x, tri_vertices, edge_count),
        _distinctive(x, l_x, l_g, edge_count, tol),
        len(connected_components(x.graph())) == 1,
    )


def distinctive_check(x: SimplicialComplex, tol: float = 1e-10) -> DistinctiveResult:
    """Which of L_{X^1} - L_X / L_X - L_{X^1} is a graph Laplacian supported
    on triangle edges (strictly negative off-diagonal there)."""
    return _facts(x, tol).distinctive


def _distinctive(x, l_x, l_g, edge_count: dict, tol: float) -> DistinctiveResult:
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


def _prop1_conditions(x: SimplicialComplex, tri_vertices: set, edge_count: dict):
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


def shift_invariance_certificate(x: SimplicialComplex):
    """(prop1 conditions, combinatorial certificate, commutator norm).

    The certificate asserts non-shift-invariance of L_X w.r.t. L_{X^1}; when
    it fires the numerical commutator should exceed 1e-8 as cross-evidence.
    """
    return _certificate(x, _facts(x))


def _certificate(x, f: _Facts):
    prop1 = _prop1_conditions(x, f.tri_vertices, f.edge_count)
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


def sandwich_bounds(x: SimplicialComplex, unit_tol: float = 1e-9) -> SandwichBounds:
    """Empirical extremal Rayleigh quotients of (L_X, L_{X^1}).

    Computed on the orthocomplement of the constant vector of a connected,
    unit-edge-weight 2-complex.  The claimed bounds (k/3 factors) are
    reported alongside but never asserted.
    """
    return _sandwich(x, _facts(x), unit_tol)


def _sandwich(x, f: _Facts, unit_tol: float = 1e-9) -> SandwichBounds:
    # imported here, not at module level, so that commands without a
    # generalized eigenproblem do not pay for loading scipy
    import scipy.linalg

    if any(abs(w - 1.0) > unit_tol for w in x.edges.values()):
        raise ComplexError("sandwich bounds require unit edge weights")
    if not f.connected:
        raise ComplexError("sandwich bounds require a connected complex")
    n = x.n
    # orthonormal basis of the complement of the constant vector
    basis = np.linalg.qr(np.eye(n) - np.full((n, n), 1.0 / n))[0][:, : n - 1]
    a = basis.T @ f.l_x @ basis
    b = basis.T @ f.l_g @ basis
    vals = scipy.linalg.eigh(a, b, eigvals_only=True)
    k_min, k_max = _edge_triangle_stats(x, f.edge_count)
    return SandwichBounds(
        float(vals.min()),
        float(vals.max()),
        max(k_min / 3.0, 1.0 / 3.0),
        k_max / 3.0,
        k_min,
        k_max,
    )


def lemma2_audit(l: GeneralizedLaplacian, components: int) -> dict:
    """Symmetry / PSD / zero-row-sum / kernel-dimension audit of a Laplacian."""
    m = l.matrix if isinstance(l, GeneralizedLaplacian) else np.asarray(l, dtype=float)
    scale = max(1.0, float(np.linalg.norm(m)))
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


def diagnostics_report(x: SimplicialComplex, seed: int = 0, ratio_samples: int = 5) -> DiagnosticsReport:
    """Assemble the full diagnostics record for a 2-complex."""
    f = _facts(x)
    g = x.graph()
    triangles = x.triangles()
    gammas = [
        shape_constant(g.weight(t[0], t[1]), g.weight(t[0], t[2]), g.weight(t[1], t[2]))
        for t in triangles
    ]
    k_min, k_max = _edge_triangle_stats(x, f.edge_count)
    m1, m2, m3, m4 = f.counts
    prop1, certificate, comm = _certificate(x, f)

    sandwich = None
    unit = all(abs(w - 1.0) <= 1e-9 for w in x.edges.values())
    if unit and f.connected:
        sandwich = _sandwich(x, f)

    # empirical quadratic-form ratios <y, L_{X^1} y> / <x, L_X x> per triangle
    rng = np.random.default_rng(seed)
    ratios = []
    for t in triangles[: max(1, ratio_samples)]:
        w12, w13, w23 = g.weight(t[0], t[1]), g.weight(t[0], t[2]), g.weight(t[1], t[2])
        l_tri = two_simplex_closed_form(w12, w13, w23).matrix
        l_tri_g = WeightedGraph(
            (1, 2, 3), {(1, 2): w12, (1, 3): w13, (2, 3): w23}
        ).laplacian_matrix()
        for _ in range(ratio_samples):
            v = rng.standard_normal(3)
            y = np.array([v[2] - v[1], v[0] - v[2], v[1] - v[0]])
            num = float(y @ l_tri_g @ y)
            den = float(v @ l_tri @ v)
            if abs(den) > 1e-14:
                ratios.append(num / den)

    return DiagnosticsReport(
        gamma_min=min(gammas) if gammas else None,
        graph_type=is_graph_type(f.l_x, tol=1e-12),
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
