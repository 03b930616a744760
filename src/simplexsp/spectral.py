"""Spectral toolkit: eigendecomposition, GFT, filtering, sampling, filter fits.

Frequency indices are 1-based throughout the public API (index 1 is the
smallest eigenvalue).  Eigenvectors follow a deterministic sign convention:
the first component of each column with magnitude above 1e-12 is positive,
and columns inside a repeated-eigenvalue block are ordered lexicographically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .laplacian import GeneralizedLaplacian

__all__ = [
    "NumericalError",
    "Spectrum",
    "FilterSpec",
    "FilterFit",
    "eigendecompose",
    "gft",
    "igft",
    "bandpass",
    "convolve",
    "downsample_reconstruct",
    "select_sample_vertices",
    "poly_filter",
    "fit_continuous_filter",
    "commutator_norm",
]

SIGN_EPS = 1e-12
TIE_TOL = 1e-10


class NumericalError(RuntimeError):
    """Eigensolver failure or a singular sampling submatrix."""


def _as_matrix(l) -> np.ndarray:
    if isinstance(l, GeneralizedLaplacian):
        return l.matrix
    return np.asarray(l, dtype=float)


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues and the paired orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    vertices: tuple = ()
    tie_blocks: tuple = ()  # (start, stop) column ranges of repeated eigenvalues

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    def band_columns(self, b: Iterable[int]) -> np.ndarray:
        """Validate a 1-based frequency index set and return 0-based columns."""
        cols = sorted(set(int(i) for i in b))
        if cols and (cols[0] < 1 or cols[-1] > self.n):
            raise IndexError(f"band indices must lie in [1, {self.n}], got {cols}")
        return np.array([c - 1 for c in cols], dtype=int)


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    out = vecs.copy()
    if out.size == 0:
        return out
    big = np.abs(out) > SIGN_EPS
    lead = out[big.argmax(axis=0), np.arange(out.shape[1])]
    # a column with no entry above SIGN_EPS keeps its sign
    flip = big.any(axis=0) & (lead < 0)
    out[:, flip] = -out[:, flip]
    return out


def eigendecompose(l, sym_tol: float = 1e-8) -> Spectrum:
    """Full symmetric eigendecomposition with a deterministic convention."""
    m = _as_matrix(l)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NumericalError(f"expected a square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.linalg.norm(m)))
    if np.linalg.norm(m - m.T) > sym_tol * scale:
        raise NumericalError("matrix is not symmetric within tolerance")
    sym = (m + m.T) / 2.0
    try:
        vals, vecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    vecs = _fix_signs(vecs)

    # order columns inside repeated-eigenvalue blocks lexicographically
    tol = TIE_TOL * max(1.0, float(np.abs(vals).max(initial=0.0)))
    blocks = []
    start = 0
    for j in range(1, len(vals) + 1):
        if j == len(vals) or vals[j] - vals[j - 1] > tol:
            if j - start > 1:
                order = sorted(range(start, j), key=lambda c: tuple(vecs[:, c]))
                vecs[:, start:j] = vecs[:, order]
                blocks.append((start, j))
            start = j
    verts = l.vertices if isinstance(l, GeneralizedLaplacian) else ()
    return Spectrum(vals, vecs, tuple(verts), tuple(blocks))


def gft(s: Spectrum, x: np.ndarray) -> np.ndarray:
    """Fourier coefficients <x, x_i> in the eigenbasis."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != s.n:
        raise ValueError(f"signal length {x.shape[0]} != {s.n}")
    return s.eigenvectors.T @ x


def igft(s: Spectrum, xhat: np.ndarray) -> np.ndarray:
    """Inverse transform: sum of xhat(i) x_i."""
    xhat = np.asarray(xhat, dtype=float)
    if xhat.shape[0] != s.n:
        raise ValueError(f"coefficient length {xhat.shape[0]} != {s.n}")
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
    cond_limit: float = 1e12,
) -> np.ndarray:
    """Unique B-bandlimited signal matching the given samples.

    Requires |sample_vertices| = |B| and a well-conditioned sampling
    submatrix (raises :class:`NumericalError` otherwise).
    """
    cols = s.band_columns(b)
    if s.vertices:
        vidx = {v: i for i, v in enumerate(s.vertices)}
        unknown = [v for v in sample_vertices if v not in vidx]
        if unknown:
            raise ValueError(f"sample vertices {unknown} are not vertices of the spectrum")
        rows = [vidx[v] for v in sample_vertices]
    else:
        rows = [int(v) for v in sample_vertices]
    samples = np.asarray(samples, dtype=float)
    if len(rows) != cols.size:
        raise ValueError(
            f"need exactly |B|={cols.size} samples, got {len(rows)}"
        )
    sub = s.eigenvectors[np.ix_(rows, cols)]
    cond = np.linalg.cond(sub) if cols.size else 0.0
    if not np.isfinite(cond) or cond > cond_limit:
        raise NumericalError(
            f"these vertices cannot determine the band (condition number {cond:.3g})"
        )
    coeff = np.linalg.solve(sub, samples)
    return s.eigenvectors[:, cols] @ coeff


def poly_filter(l, coeffs: Sequence[float], x: np.ndarray) -> np.ndarray:
    """Apply sum_j a_j L^j x by iterated multiplication (no matrix powers).

    Coefficients start at degree 1: there is no constant term.
    """
    m = _as_matrix(l)
    x = np.asarray(x, dtype=float)
    if len(coeffs) < 1:
        raise ValueError("need at least one coefficient (degree >= 1)")
    out = np.zeros_like(x)
    cur = x
    for a in coeffs:
        cur = m @ cur
        out = out + float(a) * cur
    return out


def commutator_norm(l1, l2) -> float:
    """Normalized Frobenius norm of L1 L2 - L2 L1; zero iff they commute."""
    a = _as_matrix(l1)
    b = _as_matrix(l2)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    den = np.linalg.norm(a) * np.linalg.norm(b)
    if den == 0.0:
        return 0.0
    return float(np.linalg.norm(a @ b - b @ a) / den)


@dataclass(frozen=True)
class FilterSpec:
    """One of: a band index set, a convolution kernel, or polynomial coefficients."""

    band: tuple = ()
    kernel: np.ndarray | None = None
    coeffs: tuple = ()

    def __post_init__(self):
        given = sum([bool(self.band), self.kernel is not None, bool(self.coeffs)])
        if given != 1:
            raise ValueError("specify exactly one of band, kernel, coeffs")

    def apply(self, l, s: Spectrum | None, x: np.ndarray) -> np.ndarray:
        if self.coeffs:
            return poly_filter(l, self.coeffs, x)
        if s is None:
            s = eigendecompose(l)
        if self.band:
            return bandpass(s, self.band, x)
        return convolve(s, self.kernel, x)


class FilterFit(NamedTuple):
    level: int
    t: float
    coeffs: np.ndarray
    residual: float


def _fit_single(m: np.ndarray, x1: np.ndarray, x2: np.ndarray, b: int, ridge: float):
    feats = np.empty((len(x1), b))
    cur = x1
    for j in range(b):
        cur = m @ cur
        feats[:, j] = cur
    gram = feats.T @ feats + ridge * np.eye(b)
    coeffs = np.linalg.solve(gram, feats.T @ x2)
    residual = float(np.sum((feats @ coeffs - x2) ** 2))
    return coeffs, residual


def fit_continuous_filter(
    family, x1: np.ndarray, x2: np.ndarray, b: int, t_grid: int = 21, ridge: float = 1e-10
) -> FilterFit:
    """Grid search over interpolated Laplacians L = t L_i + (1-t) L_{i+1}.

    The inner polynomial-coefficient problem is linear and solved exactly
    (ridge-regularized normal equations); degree runs from 1 to b.
    """
    if b < 1:
        raise ValueError(f"degree bound must be >= 1, got {b}")
    if t_grid < 2:
        raise ValueError(f"t_grid must have >= 2 points, got {t_grid}")
    mats = [_as_matrix(m) for m in getattr(family, "matrices", family)]
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if len(mats) < 2:
        coeffs, residual = _fit_single(mats[0], x1, x2, b, ridge)
        return FilterFit(0, 1.0, coeffs, residual)
    best: FilterFit | None = None
    for i in range(len(mats) - 1):
        for t in np.linspace(0.0, 1.0, t_grid):
            m = t * mats[i] + (1.0 - t) * mats[i + 1]
            coeffs, residual = _fit_single(m, x1, x2, b, ridge)
            if best is None or residual < best.residual:
                best = FilterFit(i, float(t), coeffs, residual)
    return best
