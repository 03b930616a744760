"""Structural and spectral diagnostics for 2-complexes.

Covers: generalized-Laplacian sanity audits, shape constants and graph-type
tests, interior-node counts, the distinctive-2-simplex test, an empirical
spectral sandwich of L_X against the skeleton Laplacian, and a combinatorial
non-shift-invariance certificate cross-checked by the numerical commutator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg

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


def _edge_triangle_stats(x: SimplicialComplex):
    _, edge_count = _triangle_membership(x)
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
    tri_vertices, edge_count = _triangle_membership(x)
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


def _laplacians(x: SimplicialComplex):
    """(L_X, L_{X^1}) of a 2-complex as dense matrices, assembled once per caller."""
    _require_two_complex(x)
    return complex_laplacian(x).matrix, x.graph().laplacian_matrix()


def distinctive_check(x: SimplicialComplex, tol: float = 1e-10) -> DistinctiveResult:
    """Which of L_{X^1} - L_X / L_X - L_{X^1} is a graph Laplacian supported
    on triangle edges (strictly negative off-diagonal there)."""
    return _distinctive(x, *_laplacians(x), tol)


def _distinctive(x, l_x, l_g, tol: float = 1e-10) -> DistinctiveResult:
    if not x.triangles():
        return DistinctiveResult("neither", True, None)
    _, edge_count = _triangle_membership(x)
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


def _prop1_conditions(x: SimplicialComplex):
    """The three geometric hypotheses of the non-shift-invariance result."""
    tri_vertices, edge_count = _triangle_membership(x)
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
    return _certificate(x, *_laplacians(x))


def _certificate(x, l_x, l_g):
    prop1 = _prop1_conditions(x)
    m1, m2, m3, m4 = interior_counts(x)
    distinctive = _distinctive(x, l_x, l_g)
    n = x.n
    # The constant vector is a common eigenvector (eigenvalue 0) of both
    # Laplacians, so the common-eigenspace dimension is at least 1; the
    # sufficient condition can therefore only bind when m1 + m4 >= 1.
    # Connectivity of the 1-skeleton is also required: with several
    # components, each extra component contributes another eigenvalue-0
    # common eigenvector that the m2 - m3 counting bound never charges,
    # and the conclusion can fail (e.g. a lone triangle plus a far-away
    # edge, where the two operators commute exactly).
    connected = len(connected_components(x.graph())) == 1
    certificate = (
        connected
        and distinctive.direction != "neither"
        and 1 <= (m1 + m4) < n
        and m2 <= m3 + m4
    )
    comm = commutator_norm(l_x, l_g)
    return prop1, certificate, comm


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
    return _sandwich(x, *_laplacians(x), unit_tol)


def _sandwich(x, l_x, l_g, unit_tol: float = 1e-9) -> SandwichBounds:
    if any(abs(w - 1.0) > unit_tol for w in x.edges.values()):
        raise ComplexError("sandwich bounds require unit edge weights")
    if len(connected_components(x.graph())) != 1:
        raise ComplexError("sandwich bounds require a connected complex")
    n = x.n
    # orthonormal basis of the complement of the constant vector
    basis = np.linalg.qr(np.eye(n) - np.full((n, n), 1.0 / n))[0][:, : n - 1]
    a = basis.T @ l_x @ basis
    b = basis.T @ l_g @ basis
    vals = scipy.linalg.eigh(a, b, eigvals_only=True)
    k_min, k_max = _edge_triangle_stats(x)
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
        d = {
            "gamma_min": self.gamma_min,
            "graph_type": self.graph_type,
            "k_min": self.k_min,
            "k_max": self.k_max,
            "m1": self.m1,
            "m2": self.m2,
            "m3": self.m3,
            "m4": self.m4,
            "distinctive": self.distinctive,
            "trivially_distinctive": self.trivially_distinctive,
            "prop1_conditions": list(self.prop1_conditions),
            "theorem_certificate": self.theorem_certificate,
            "commutator": self.commutator,
            "sandwich": list(self.sandwich) if self.sandwich is not None else None,
            "difference_ratio_samples": self.difference_ratio_samples,
        }
        return d


def diagnostics_report(x: SimplicialComplex, seed: int = 0, ratio_samples: int = 5) -> DiagnosticsReport:
    """Assemble the full diagnostics record for a 2-complex."""
    l_x, l_g = _laplacians(x)
    triangles = x.triangles()
    gammas = [
        shape_constant(
            x.graph().weight(t[0], t[1]),
            x.graph().weight(t[0], t[2]),
            x.graph().weight(t[1], t[2]),
        )
        for t in triangles
    ]
    k_min, k_max = _edge_triangle_stats(x)
    m1, m2, m3, m4 = interior_counts(x)
    distinctive = _distinctive(x, l_x, l_g)
    prop1, certificate, comm = _certificate(x, l_x, l_g)

    sandwich = None
    unit = all(abs(w - 1.0) <= 1e-9 for w in x.edges.values())
    if unit and len(connected_components(x.graph())) == 1:
        sandwich = _sandwich(x, l_x, l_g)

    # empirical quadratic-form ratios <y, L_{X^1} y> / <x, L_X x> per triangle
    rng = np.random.default_rng(seed)
    ratios = []
    for t in triangles[: max(1, ratio_samples)]:
        g = x.graph()
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
        graph_type=is_graph_type(l_x, tol=1e-12),
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
        commutator=comm,
        sandwich=sandwich,
        difference_ratio_samples=ratios,
    )
