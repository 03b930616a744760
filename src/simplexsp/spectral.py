"""Spectral toolkit: eigendecomposition, GFT, filtering, sampling, filter fits.

Frequency indices are 1-based throughout the public API (index 1 is the
smallest eigenvalue).  Eigenvectors follow a deterministic sign convention:
the first component of each column with magnitude above 1e-12 is positive,
and columns inside a repeated-eigenvalue block are ordered lexicographically.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import _SOURCES
from .laplacian import GeneralizedLaplacian, matrix_of

__all__ = list(_SOURCES["spectral"])

SIGN_EPS = 1e-12
TIE_TOL = 1e-10
# a partial solve pays only for a low slice: at n=600 it took 0.64x the full
# solve's time for the lowest 15 % and 1.02x for the lowest 30 %; a wider
# bound would move slices to the other solver and change their bits
PARTIAL_MAX_FRACTION = 0.15
# a partial solve's pairs must have residuals within this times
# max(1, ||L||_inf) and be orthonormal within it; MRRR's were below 2e-16
# and 1.1e-14 on sparse Laplacians up to n=1200
SLICE_TOL = 1e-10


class NumericalError(RuntimeError):
    """Eigensolver failure or a singular sampling submatrix."""


def _as_matrix(l) -> np.ndarray:
    m = matrix_of(l)
    if not np.isfinite(m).all():
        raise NumericalError("matrix has non-finite entries")
    return m


def _norm_scale(m: np.ndarray) -> float:
    """max(1, ||m||_F), the scale of a matrix's tolerances.  Raises when the
    norm is not finite, since an infinite scale would pass every check."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(m))
    if not math.isfinite(norm):
        raise NumericalError("matrix norm is not finite")
    return max(1.0, norm)


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues and the paired orthonormal eigenvector columns;
    a partial spectrum holds only the lowest of them, in an array of its own."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    vertices: tuple = ()
    tie_blocks: tuple = ()  # (start, stop) column ranges of repeated eigenvalues

    @property
    def n(self) -> int:
        """Vertex count; a partial spectrum holds fewer than n columns."""
        return self.eigenvectors.shape[0]

    def band_columns(self, b: Iterable[int]) -> np.ndarray:
        """Validate a 1-based frequency index set and return 0-based columns."""
        cols = sorted(set(int(i) for i in b))
        held = self.eigenvectors.shape[1]
        if cols and (cols[0] < 1 or cols[-1] > held):
            raise IndexError(f"band indices must lie in [1, {held}], got {cols}")
        return np.array([c - 1 for c in cols], dtype=int)

    def lowest(self, k: int) -> np.ndarray:
        """The first k eigenvector columns; raises past the columns held."""
        held = self.eigenvectors.shape[1]
        if k > held:
            raise IndexError(f"need the lowest {k} eigenvectors, the spectrum holds {held}")
        return self.eigenvectors[:, :k]


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    """Negate, in place, each column whose first entry above SIGN_EPS is negative."""
    if vecs.size:
        big = np.abs(vecs) > SIGN_EPS
        lead = vecs[big.argmax(axis=0), np.arange(vecs.shape[1])]
        # a column with no entry above SIGN_EPS keeps its sign; negation is exact
        np.negative(vecs, out=vecs, where=big.any(axis=0) & (lead < 0))
    return vecs


@functools.cache
def _flapack():
    """scipy's LAPACK wrappers, loaded without importing the scipy.linalg
    package, whose initialisation costs about 0.3 s and 28 MB."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:  # scipy.linalg is imported already
        return sys.modules[name]
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    spec = importlib.machinery.PathFinder.find_spec(name, [os.path.join(scipy_dir, "linalg")])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # loading registers the module under its name; with its package absent a
    # later import of scipy.linalg would then not bind it as an attribute
    sys.modules.pop(name, None)
    return module


def _evr(sym: np.ndarray, lo: int, hi: int, compute_v: bool = True,
         overwrite_a: bool = False) -> tuple:
    """Eigenpairs lo..hi (0-based, inclusive) of a symmetric matrix by
    LAPACK's MRRR routine dsyevr, called with the arguments that
    ``scipy.linalg.eigh(driver="evr", subset_by_index=[lo, hi])`` passes.
    Without ``compute_v`` the eigenvectors are empty.  With ``overwrite_a``
    a Fortran-ordered float64 ``sym`` loses its lower triangle and diagonal
    instead of being copied."""
    lapack = _flapack()
    lwork, liwork, info = lapack.dsyevr_lwork(sym.shape[0], lower=1)
    if info == 0:
        vals, vecs, m, _, info = lapack.dsyevr(
            sym, compute_v=int(compute_v), range="I", il=lo + 1, iu=hi + 1, lower=1,
            lwork=int(lwork), liwork=int(liwork), overwrite_a=int(overwrite_a),
        )
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevr failed (info {info})")
    return vals[:m], vecs[:, :m]


def _gvd_values(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the pencil (a, b), with b positive definite,
    by LAPACK's divide-and-conquer routine dsygvd, called with the arguments
    that ``scipy.linalg.eigh(a, b, eigvals_only=True)`` passes.  A
    Fortran-ordered float64 operand is overwritten; any other is copied."""
    vals, _, info = _flapack().dsygvd(
        a, b, itype=1, jobz="N", uplo="L", overwrite_a=1, overwrite_b=1
    )
    if info != 0:
        raise np.linalg.LinAlgError(f"dsygvd failed (info {info})")
    return vals


def _q_factor(a: np.ndarray) -> np.ndarray:
    """The Q factor of a square Fortran-ordered float64 matrix, computed in
    place, so that ``a`` holds Q afterwards, by LAPACK's dgeqrf and dorgqr.
    Their workspaces are the sizes the workspace queries give, as in
    ``np.linalg.qr``; the blocked algorithm they select is part of Q's bits."""
    lapack = _flapack()
    lwork, info = lapack.dgeqrf_lwork(*a.shape)
    if info == 0:
        qr, tau, _, info = lapack.dgeqrf(a, lwork=int(lwork), overwrite_a=1)
    if info == 0:  # the query reads neither operand, so it copies nothing
        _, work, info = lapack.dorgqr(qr, tau, lwork=-1, overwrite_a=1)
    if info == 0:
        q, _, info = lapack.dorgqr(qr, tau, lwork=int(work[0]), overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"QR factorisation failed (info {info})")
    return q


def _low_pairs(sym: np.ndarray, k: int) -> tuple:
    """The lowest pairs of ``sym`` by MRRR, enough of them that the tie block
    holding pair k-1 ends inside the slice, and the tie tolerance.

    The tolerance is that of the full solve, TIE_TOL max(1, max |lambda|).
    Each |L_ii| bounds max |lambda| from below and ||L||_inf from above, so
    a gap at or below the low bound is a tie and one above the high bound
    is not; only a gap between them needs the top eigenvalue solved for.

    ``sym`` must be bitwise symmetric.  It is solved in its own memory,
    after one copy if it is not writeable and C-ordered: dsyevr overwrites
    its upper triangle and diagonal, and every call restores them, from the
    strict lower triangle and a saved diagonal, before anything else reads
    ``sym``.
    """
    if not (sym.flags.writeable and sym.flags.c_contiguous):
        sym = np.array(sym, order="C")
    n = sym.shape[0]
    # sym is exactly symmetric, so its transpose holds the same values; the
    # transpose of a C-ordered sym is Fortran-ordered, which dsyevr can use
    # as it is instead of a copy transposed entry by entry
    a = sym.T
    diag = sym.diagonal().copy()

    def evr(first, last, compute_v=True):
        try:
            return _evr(a, first, last, compute_v=compute_v, overwrite_a=True)
        finally:
            for i in range(n - 1):
                sym[i, i + 1:] = sym[i + 1:, i]
            np.fill_diagonal(sym, diag)

    def solve(w):
        # MRRR can fail on a slice that ends inside a cluster of nearly
        # equal eigenvalues, or return such a slice's pairs inaccurate
        # without saying so; the full solve is the fallback for both
        try:
            vals, vecs = evr(0, w - 1)
        except np.linalg.LinAlgError:
            return np.linalg.eigh(sym)
        if np.abs(vecs.T @ vecs - np.eye(len(vals))).max() > SLICE_TOL:
            return np.linalg.eigh(sym)
        for j in range(0, len(vals), 32):  # column blocks keep the residual small
            block = vecs[:, j:j + 32]
            if np.abs(sym @ block - block * vals[j:j + 32]).max() > SLICE_TOL * norm:
                return np.linalg.eigh(sym)
        return vals, vecs

    lo = TIE_TOL * max(1.0, float(np.abs(diag).max()))
    # max(1, ||sym||_inf); row blocks keep the |sym| temporary small, and
    # each row sums as a whole
    norm = max(1.0, max(float(np.abs(sym[i:i + 32]).sum(axis=1).max())
                        for i in range(0, n, 32)))
    hi = TIE_TOL * norm
    vals, vecs = solve(k + 1)  # one extra pair tests the cut
    while True:
        gaps = np.diff(vals)
        if ((lo < gaps) & (gaps <= hi)).any():
            top = evr(n - 1, n - 1, compute_v=False)[0]
            lo = hi = TIE_TOL * max(1.0, abs(float(vals[0])), abs(float(top[0])))
        if len(vals) == n or (gaps[k - 1:] > hi).any():
            return vals, vecs, hi
        vals, vecs = solve(min(n, 2 * len(vals)))


def eigendecompose(l, upto: int | None = None) -> Spectrum:
    """Symmetric eigendecomposition with a deterministic convention.

    Signs are fixed in the solver's own array.  With ``upto=k`` below the
    order the spectrum is partial: it owns a copy of the k lowest pairs
    alone, and tie blocks are clipped to them.  Below PARTIAL_MAX_FRACTION
    of the order only those pairs (and a few past them) are computed, by
    LAPACK's MRRR routine (dsyevr), in the matrix's own memory, restored bit
    for bit before the call returns; no other thread may read it meanwhile.
    A read-only matrix, or one not C-ordered, is copied once for this.  The
    matrix must be symmetric within 1e-8 of max(1, its Frobenius norm).
    """
    m = _as_matrix(l)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NumericalError(f"expected a square matrix, got shape {m.shape}")
    if upto is not None and upto < 1:
        raise ValueError(f"upto must be >= 1, got {upto}")
    scale = _norm_scale(m)
    if m.dtype == np.float64 and np.array_equal(m.view(np.int64), m.T.view(np.int64)):
        # bitwise symmetric (int64 views tell 0.0 from -0.0): with finite
        # entries and a finite norm, (m + m.T) / 2 would have the same bits
        sym = m
    elif np.linalg.norm(m - m.T) > 1e-8 * scale:
        raise NumericalError("matrix is not symmetric within tolerance")
    else:
        sym = (m + m.T) / 2.0
    k = len(sym) if upto is None else min(upto, len(sym))
    try:
        if k < PARTIAL_MAX_FRACTION * len(sym):
            vals, vecs, tol = _low_pairs(sym, k)
        else:
            vals, vecs = np.linalg.eigh(sym)
            tol = TIE_TOL * max(1.0, float(np.abs(vals).max(initial=0.0)))
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    _fix_signs(vecs)

    # order columns inside repeated-eigenvalue blocks lexicographically
    blocks = []
    start = 0
    for j in range(1, len(vals) + 1):
        if j == len(vals) or vals[j] - vals[j - 1] > tol:
            if j - start > 1 and start < k:
                order = sorted(range(start, j), key=lambda c: tuple(vecs[:, c]))
                vecs[:, start:j] = vecs[:, order]
                blocks.append((start, min(j, k)))
            start = j
    if k < vecs.shape[1]:  # a view would keep every solved column alive
        vecs = vecs[:, :k].copy(order="K")
    verts = l.vertices if isinstance(l, GeneralizedLaplacian) else ()
    return Spectrum(vals[:k], vecs, tuple(verts), tuple(blocks))


def gft(s: Spectrum, x: np.ndarray) -> np.ndarray:
    """Fourier coefficients <x, x_i> in the eigenbasis."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != s.n:
        raise ValueError(f"signal length {x.shape[0]} != {s.n}")
    return s.eigenvectors.T @ x


def igft(s: Spectrum, xhat: np.ndarray) -> np.ndarray:
    """Inverse transform: sum of xhat(i) x_i."""
    xhat = np.asarray(xhat, dtype=float)
    if xhat.shape[0] != s.eigenvectors.shape[1]:
        raise ValueError(f"coefficient length {xhat.shape[0]} != {s.eigenvectors.shape[1]}")
    return s.eigenvectors @ xhat


def bandpass(s: Spectrum, b: Iterable[int], x: np.ndarray) -> np.ndarray:
    """Project onto the span of the eigenvectors indexed by B (1-based)."""
    cols = s.band_columns(b)
    x = np.asarray(x, dtype=float)
    if cols.size == 0:
        return np.zeros_like(x)
    v = s.eigenvectors[:, cols]
    return v @ (v.T @ x)


def convolve(s: Spectrum, z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Spectral-domain pointwise product of kernel and signal coefficients."""
    s.lowest(s.n)  # raises on a partial spectrum
    return igft(s, gft(s, z) * gft(s, x))


def select_sample_vertices(s: Spectrum, b: Iterable[int]) -> tuple:
    """Greedy volume-maximizing choice of |B| sample rows; deterministic."""
    cols = s.band_columns(b)
    k = cols.size
    rows = s.eigenvectors[:, cols].copy()
    chosen: list[int] = []
    for _ in range(k):
        norms = np.linalg.norm(rows, axis=1)
        norms[chosen] = -1.0
        i = int(np.argmax(norms))
        u = rows[i]
        nu = np.linalg.norm(u)
        if nu > 0:
            u = u / nu
            rows = rows - np.outer(rows @ u, u)
        chosen.append(i)
    chosen.sort()
    if s.vertices:
        return tuple(s.vertices[i] for i in chosen)
    return tuple(chosen)


def downsample_reconstruct(
    s: Spectrum,
    b: Iterable[int],
    sample_vertices: Sequence,
    samples: np.ndarray,
) -> np.ndarray:
    """Unique B-bandlimited signal matching the given samples.

    Requires |sample_vertices| = |B| and a sampling submatrix of condition
    number at most 1e12 (raises :class:`NumericalError` otherwise).
    """
    cols = s.band_columns(b)
    vidx = {v: i for i, v in enumerate(s.vertices or range(s.n))}
    unknown = [v for v in sample_vertices if v not in vidx]
    if unknown:
        raise ValueError(f"sample vertices {unknown} are not vertices of the spectrum")
    rows = [vidx[v] for v in sample_vertices]
    samples = np.asarray(samples, dtype=float)
    if len(rows) != cols.size:
        raise ValueError(
            f"need exactly |B|={cols.size} samples, got {len(rows)}"
        )
    sub = s.eigenvectors[np.ix_(rows, cols)]
    cond = np.linalg.cond(sub) if cols.size else 0.0
    if not np.isfinite(cond) or cond > 1e12:
        raise NumericalError(
            f"these vertices cannot determine the band (condition number {cond:.3g})"
        )
    coeff = np.linalg.solve(sub, samples)
    return s.eigenvectors[:, cols] @ coeff


def poly_filter(l, coeffs: Sequence[float], x: np.ndarray) -> np.ndarray:
    """Apply sum_j a_j L^j x by iterated multiplication (no matrix powers).

    Coefficients start at degree 1: there is no constant term.  Raises
    :class:`NumericalError` when the result overflows.
    """
    m = _as_matrix(l)
    x = np.asarray(x, dtype=float)
    if len(coeffs) < 1:
        raise ValueError("need at least one coefficient (degree >= 1)")
    out = np.zeros_like(x)
    cur = x
    # an overflow leaves a non-finite value, which raises below
    with np.errstate(over="ignore", invalid="ignore"):
        for a in coeffs:
            cur = m @ cur
            out = out + float(a) * cur
    if not np.isfinite(out).all():
        raise NumericalError("polynomial filter overflows")
    return out


def commutator_norm(l1, l2) -> float:
    """Normalized Frobenius norm of L1 L2 - L2 L1; zero iff they commute.

    The ratio is scale invariant, so each operand is first scaled by a power
    of two to a largest magnitude in [0.5, 1).  That scaling is exact, so the
    ratio keeps its bits; at any length scale no product or square
    overflows, and only negligible ones underflow.
    """
    a = _as_matrix(l1)
    b = _as_matrix(l2)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    if not (a.any() and b.any()):
        return 0.0
    a, b = (np.ldexp(m, -np.frexp(max(m.max(), -m.min()))[1]) for m in (a, b))
    ab = a @ b
    ab -= b @ a  # in place, resident memory peaks lower; tracemalloc sees no change
    return float(np.linalg.norm(ab) / (np.linalg.norm(a) * np.linalg.norm(b)))


class FilterFit(NamedTuple):
    level: int
    t: float
    coeffs: np.ndarray
    residual: float


def _fit_single(m: np.ndarray, x1: np.ndarray, x2: np.ndarray, b: int):
    feats = np.empty((len(x1), b))
    cur = x1
    # an overflow leaves a non-finite value, which raises below
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(b):
            cur = m @ cur
            feats[:, j] = cur
        gram = feats.T @ feats + 1e-10 * np.eye(b)
        rhs = feats.T @ x2
        if not (np.isfinite(gram).all() and np.isfinite(rhs).all()):
            raise NumericalError("filter fit overflows")
        coeffs = np.linalg.solve(gram, rhs)
        residual = float(np.sum((feats @ coeffs - x2) ** 2))
    if not math.isfinite(residual):
        raise NumericalError("filter fit overflows")
    return coeffs, residual


def fit_continuous_filter(
    levels, x1: np.ndarray, x2: np.ndarray, b: int, t_grid: int = 21
) -> FilterFit:
    """Grid search over interpolated Laplacians L = t L_i + (1-t) L_{i+1} of
    the sequence ``levels`` (matrices or GeneralizedLaplacians), read once in
    order; a single level is fitted alone.  The fit holds a copy of only the
    previous level, so a walk that overwrites one array may be passed.  The
    inner polynomial-coefficient problem is linear and solved exactly
    (normal equations with a 1e-10 ridge); degree runs from 1 to b.
    """
    if b < 1:
        raise ValueError(f"degree bound must be >= 1, got {b}")
    if t_grid < 2:
        raise ValueError(f"t_grid must have >= 2 points, got {t_grid}")
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    best = prev = None
    for i, level in enumerate(levels):
        m = _as_matrix(level)
        if prev is not None:
            for t in np.linspace(0.0, 1.0, t_grid):
                coeffs, residual = _fit_single(t * prev + (1.0 - t) * m, x1, x2, b)
                if best is None or residual < best.residual:
                    best = FilterFit(i - 1, float(t), coeffs, residual)
        prev = m.copy()
    if prev is None:
        raise ValueError("no levels to fit")
    return best if best is not None else FilterFit(0, 1.0, *_fit_single(prev, x1, x2, b))
