import itertools

import numpy as np
import pytest

from simplexsp import (
    FilterSpec,
    NumericalError,
    Spectrum,
    bandpass,
    commutator_norm,
    complex_laplacian,
    convolve,
    downsample_reconstruct,
    eigendecompose,
    fit_continuous_filter,
    from_edge_list,
    gft,
    igft,
    poly_filter,
    select_sample_vertices,
)

from simplexsp.spectral import SIGN_EPS, _fix_signs

from conftest import random_metric_complex
from oracles import fix_signs_loop


def path_laplacian():
    return complex_laplacian(from_edge_list([(1, 2), (2, 3)]))


def random_laplacian(rng, n=12):
    x = random_metric_complex(rng, n=n, edge_prob=0.6, triangle_prob=0.4)
    return complex_laplacian(x)


class TestEigendecompose:
    def test_path_eigenvalues(self):
        s = eigendecompose(path_laplacian())
        np.testing.assert_allclose(s.eigenvalues, [0.0, 1.0, 3.0], atol=1e-12)

    def test_constant_first_eigenvector(self, rng):
        l = random_laplacian(rng)
        s = eigendecompose(l)
        assert s.eigenvalues[0] == pytest.approx(0.0, abs=1e-10)
        np.testing.assert_allclose(
            s.eigenvectors[:, 0], np.full(s.n, 1.0 / np.sqrt(s.n)), atol=1e-8
        )

    def test_reconstruction(self, rng):
        l = random_laplacian(rng)
        s = eigendecompose(l)
        rebuilt = s.eigenvectors @ np.diag(s.eigenvalues) @ s.eigenvectors.T
        assert np.linalg.norm(rebuilt - l.matrix) <= 1e-8 * np.linalg.norm(l.matrix)

    def test_orthonormal_columns(self, rng):
        s = eigendecompose(random_laplacian(rng))
        gram = s.eigenvectors.T @ s.eigenvectors
        assert np.abs(gram - np.eye(s.n)).max() < 1e-10

    def test_eigenpairs(self, rng):
        l = random_laplacian(rng)
        s = eigendecompose(l)
        scale = max(1.0, np.linalg.norm(l.matrix))
        for j in range(s.n):
            resid = l.matrix @ s.eigenvectors[:, j] - s.eigenvalues[j] * s.eigenvectors[:, j]
            assert np.linalg.norm(resid) <= 1e-8 * scale

    def test_sign_convention(self, rng):
        s = eigendecompose(random_laplacian(rng))
        for j in range(s.n):
            col = s.eigenvectors[:, j]
            nz = np.nonzero(np.abs(col) > 1e-12)[0]
            assert col[nz[0]] > 0

    def test_fix_signs_matches_column_loop(self, rng):
        assert _fix_signs(np.zeros((0, 0))).shape == (0, 0)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            # few distinct eigenvalues: tie blocks with arbitrary bases
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            vecs = np.linalg.eigh(q @ np.diag(rng.integers(0, 3, n) * 1.0) @ q.T)[1]
            # leading entries zero, at or below SIGN_EPS, or the whole column
            vecs[: int(rng.integers(0, n + 1)), rng.random(n) < 0.5] = 0.0
            vecs[0, rng.random(n) < 0.2] = -SIGN_EPS
            vecs[:, rng.random(n) < 0.1] *= 1e-13
            assert _fix_signs(vecs).tobytes() == fix_signs_loop(vecs).tobytes()

    def test_deterministic_with_ties(self):
        # complete graph K4: eigenvalue 4 has multiplicity 3
        l = complex_laplacian(
            from_edge_list(list(itertools.combinations([1, 2, 3, 4], 2)))
        )
        s1 = eigendecompose(l)
        s2 = eigendecompose(l)
        np.testing.assert_array_equal(s1.eigenvectors, s2.eigenvectors)
        assert s1.tie_blocks == ((1, 4),)

    def test_asymmetric_rejected(self):
        m = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(NumericalError):
            eigendecompose(m)


class TestGftIgft:
    def test_eigenvector_maps_to_unit_coordinate(self, rng):
        s = eigendecompose(random_laplacian(rng))
        k = 4
        xhat = gft(s, s.eigenvectors[:, k])
        want = np.zeros(s.n)
        want[k] = 1.0
        np.testing.assert_allclose(xhat, want, atol=1e-12)

    def test_zero(self, rng):
        s = eigendecompose(random_laplacian(rng))
        np.testing.assert_array_equal(gft(s, np.zeros(s.n)), np.zeros(s.n))

    def test_roundtrip_and_parseval_100_signals(self, rng):
        s = eigendecompose(random_laplacian(rng))
        for _ in range(100):
            x = rng.standard_normal(s.n)
            xhat = gft(s, x)
            assert np.linalg.norm(igft(s, xhat) - x) < 1e-10
            assert abs(np.linalg.norm(x) - np.linalg.norm(xhat)) < 1e-10

    def test_dimension_mismatch(self, rng):
        s = eigendecompose(random_laplacian(rng))
        with pytest.raises(ValueError):
            gft(s, np.zeros(s.n + 1))
        with pytest.raises(ValueError):
            igft(s, np.zeros(s.n - 1))


class TestBandpass:
    def test_full_band_identity(self, rng):
        s = eigendecompose(random_laplacian(rng))
        x = rng.standard_normal(s.n)
        np.testing.assert_allclose(bandpass(s, range(1, s.n + 1), x), x, atol=1e-10)

    def test_empty_band_zero(self, rng):
        s = eigendecompose(random_laplacian(rng))
        x = rng.standard_normal(s.n)
        np.testing.assert_array_equal(bandpass(s, [], x), np.zeros(s.n))

    def test_band_one_is_mean(self, rng):
        s = eigendecompose(random_laplacian(rng))
        x = rng.standard_normal(s.n)
        np.testing.assert_allclose(
            bandpass(s, [1], x), np.full(s.n, x.mean()), atol=1e-8
        )

    def test_idempotent(self, rng):
        s = eigendecompose(random_laplacian(rng))
        x = rng.standard_normal(s.n)
        y = bandpass(s, [2, 3, 5], x)
        np.testing.assert_allclose(bandpass(s, [2, 3, 5], y), y, atol=1e-12)

    def test_composition_is_intersection(self, rng):
        s = eigendecompose(random_laplacian(rng))
        x = rng.standard_normal(s.n)
        b1, b2 = {1, 2, 3, 4}, {3, 4, 5}
        lhs = bandpass(s, b1, bandpass(s, b2, x))
        rhs = bandpass(s, b1 & b2, x)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_out_of_range_index(self, rng):
        s = eigendecompose(random_laplacian(rng))
        with pytest.raises(IndexError):
            bandpass(s, [0], np.zeros(s.n))
        with pytest.raises(IndexError):
            bandpass(s, [s.n + 1], np.zeros(s.n))


class TestConvolve:
    def test_identity_kernel(self, rng):
        s = eigendecompose(random_laplacian(rng))
        x = rng.standard_normal(s.n)
        z = s.eigenvectors.sum(axis=1)  # zhat = all ones
        np.testing.assert_allclose(convolve(s, z, x), x, atol=1e-10)

    def test_indicator_kernel_reduces_to_bandpass(self, rng):
        s = eigendecompose(random_laplacian(rng))
        x = rng.standard_normal(s.n)
        b = [2, 4, 7]
        zhat = np.zeros(s.n)
        zhat[[i - 1 for i in b]] = 1.0
        np.testing.assert_allclose(
            convolve(s, igft(s, zhat), x), bandpass(s, b, x), atol=1e-10
        )

    def test_zero_kernel(self, rng):
        s = eigendecompose(random_laplacian(rng))
        x = rng.standard_normal(s.n)
        np.testing.assert_allclose(convolve(s, np.zeros(s.n), x), 0.0, atol=1e-14)

    def test_bilinear(self, rng):
        s = eigendecompose(random_laplacian(rng))
        x, y, z, w = (rng.standard_normal(s.n) for _ in range(4))
        np.testing.assert_allclose(
            convolve(s, z, x + 2 * y),
            convolve(s, z, x) + 2 * convolve(s, z, y),
            atol=1e-10,
        )
        np.testing.assert_allclose(
            convolve(s, z + 2 * w, x),
            convolve(s, z, x) + 2 * convolve(s, w, x),
            atol=1e-10,
        )


class TestSampling:
    def test_full_band_selects_all(self, rng):
        s = eigendecompose(random_laplacian(rng))
        assert select_sample_vertices(s, range(1, s.n + 1)) == tuple(s.vertices)

    def test_band_one_largest_entry(self, rng):
        s = eigendecompose(random_laplacian(rng))
        (v,) = select_sample_vertices(s, [1])
        col = np.abs(s.eigenvectors[:, 0])
        assert col[s.vertices.index(v)] == pytest.approx(col.max())

    def test_constant_reconstruction(self, rng):
        s = eigendecompose(random_laplacian(rng))
        (v,) = select_sample_vertices(s, [1])
        out = downsample_reconstruct(s, [1], [v], [3.0])
        np.testing.assert_allclose(out, np.full(s.n, 3.0), atol=1e-10)

    def test_bandlimited_recovery(self, rng):
        for _ in range(10):
            s = eigendecompose(random_laplacian(rng, n=20))
            b = sorted(rng.choice(np.arange(1, s.n + 1), size=5, replace=False))
            x = bandpass(s, b, rng.standard_normal(s.n))
            verts = select_sample_vertices(s, b)
            rows = [s.vertices.index(v) for v in verts]
            out = downsample_reconstruct(s, b, verts, x[rows])
            assert np.linalg.norm(out - x) < 1e-8

    def test_singular_submatrix_raises(self):
        # two identical rows in every eigenvector: mirror-symmetric path 1-2-3
        s = eigendecompose(path_laplacian())
        # rows for vertices 1 and 3 are reflections; band {1,3} has symmetric
        # eigenvectors so the 2x2 submatrix on {1, 3} is rank one
        with pytest.raises(NumericalError):
            downsample_reconstruct(s, [1, 3], [1, 3], [1.0, 2.0])

    def test_wrong_sample_count(self, rng):
        s = eigendecompose(random_laplacian(rng))
        with pytest.raises(ValueError):
            downsample_reconstruct(s, [1, 2], [s.vertices[0]], [1.0])

    def test_unknown_sample_vertex_rejected(self):
        # vertices are 1, 2, 3: id 0 is not one of them, although it would
        # be a valid row index
        s = eigendecompose(path_laplacian())
        with pytest.raises(ValueError, match="not vertices"):
            downsample_reconstruct(s, [1], [0], [1.0])

    def test_positional_ids_without_vertex_labels(self):
        m = path_laplacian().matrix
        s = eigendecompose(m)
        assert s.vertices == ()
        out = downsample_reconstruct(s, [1], [0], [2.0])
        np.testing.assert_allclose(out, np.full(3, 2.0), atol=1e-10)

    def test_greedy_succeeds_whenever_any_subset_does(self, rng):
        # exhaustive subset-search oracle on small spectra
        for _ in range(15):
            s = eigendecompose(random_laplacian(rng, n=6))
            for k in (1, 2, 3):
                b = sorted(rng.choice(np.arange(1, s.n + 1), size=k, replace=False))
                cols = [i - 1 for i in b]
                feasible = any(
                    np.linalg.cond(s.eigenvectors[np.ix_(list(rows), cols)]) < 1e10
                    for rows in itertools.combinations(range(s.n), k)
                )
                if not feasible:
                    continue
                verts = select_sample_vertices(s, b)
                x = bandpass(s, b, rng.standard_normal(s.n))
                rows = [s.vertices.index(v) for v in verts]
                out = downsample_reconstruct(s, b, verts, x[rows])
                assert np.linalg.norm(out - x) < 1e-6


class TestPolyFilter:
    def test_degree_one(self, rng):
        l = random_laplacian(rng)
        x = rng.standard_normal(l.n)
        np.testing.assert_allclose(poly_filter(l, [1.0], x), l.matrix @ x, atol=1e-12)

    def test_all_zero_coeffs(self, rng):
        l = random_laplacian(rng)
        x = rng.standard_normal(l.n)
        np.testing.assert_array_equal(poly_filter(l, [0.0, 0.0, 0.0], x), np.zeros(l.n))

    def test_matches_dense_power_oracle(self, rng):
        for _ in range(20):
            l = random_laplacian(rng)
            x = rng.standard_normal(l.n)
            coeffs = rng.standard_normal(4)
            oracle = sum(
                a * np.linalg.matrix_power(l.matrix, j + 1) @ x
                for j, a in enumerate(coeffs)
            )
            scale = max(1.0, np.abs(oracle).max())
            assert np.abs(poly_filter(l, coeffs, x) - oracle).max() < 1e-10 * scale

    def test_empty_coeffs_rejected(self, rng):
        with pytest.raises(ValueError):
            poly_filter(random_laplacian(rng), [], np.zeros(12))

    def test_commutes_with_shift(self, rng):
        l = random_laplacian(rng)
        coeffs = [2.0, -1.0, 0.5]
        # build the filter as an explicit matrix and test the commutator
        f = sum(a * np.linalg.matrix_power(l.matrix, j + 1) for j, a in enumerate(coeffs))
        assert commutator_norm(f, l.matrix) < 1e-10

    def test_random_symmetric_does_not_commute(self, rng):
        l = random_laplacian(rng)
        m = rng.standard_normal((l.n, l.n))
        m = (m + m.T) / 2
        assert commutator_norm(m, l.matrix) > 1e-6


class TestCommutatorNorm:
    def test_self_commutes(self, rng):
        l = random_laplacian(rng)
        assert commutator_norm(l, l) == 0.0

    def test_triangle_in_graph_positive(self):
        from simplexsp import SimplicialComplex

        edges = {e: 1.0 for e in [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (2, 6)]}
        x = SimplicialComplex(range(1, 7), edges, [(1, 2, 3)])
        assert commutator_norm(complex_laplacian(x), x.graph().laplacian_matrix()) > 1e-8

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            commutator_norm(np.eye(2), np.eye(3))


class TestFilterSpec:
    def test_exactly_one_variant(self):
        with pytest.raises(ValueError):
            FilterSpec()
        with pytest.raises(ValueError):
            FilterSpec(band=(1,), coeffs=(1.0,))

    def test_band_apply(self, rng):
        l = random_laplacian(rng)
        s = eigendecompose(l)
        x = rng.standard_normal(l.n)
        np.testing.assert_array_equal(
            FilterSpec(band=(1, 2)).apply(l, s, x), bandpass(s, [1, 2], x)
        )

    def test_coeffs_apply(self, rng):
        l = random_laplacian(rng)
        x = rng.standard_normal(l.n)
        np.testing.assert_array_equal(
            FilterSpec(coeffs=(1.0, 2.0)).apply(l, None, x),
            poly_filter(l, [1.0, 2.0], x),
        )


class TestFitContinuousFilter:
    def _family(self, rng, n=10, p=3):
        mats = []
        base = random_laplacian(rng, n=n).matrix
        for i in range(p + 1):
            mats.append(base * (1.0 + 0.3 * i) + np.eye(n) * 0.0)
        return mats

    def test_exact_target_degree_one(self, rng):
        mats = self._family(rng)
        x1 = rng.standard_normal(10)
        x2 = mats[0] @ x1
        fit = fit_continuous_filter(mats, x1, x2, b=1)
        assert fit.residual < 1e-8
        # the minimizing operator must reproduce L_{X_0} x1 exactly
        m = fit.t * mats[fit.level] + (1 - fit.t) * mats[fit.level + 1]
        np.testing.assert_allclose(
            fit.coeffs[0] * m @ x1, x2, atol=1e-6
        )

    def test_zero_target(self, rng):
        mats = self._family(rng)
        x1 = rng.standard_normal(10)
        fit = fit_continuous_filter(mats, x1, np.zeros(10), b=3)
        np.testing.assert_allclose(fit.coeffs, 0.0, atol=1e-8)
        assert fit.residual == pytest.approx(0.0, abs=1e-12)

    def test_eigenbasis_oracle_single_matrix(self, rng):
        # connected Laplacian with simple spectrum: with b = n-1 the fit can
        # match every non-constant mode; only the mean component survives
        for _ in range(5):
            l = random_laplacian(rng, n=8)
            s = eigendecompose(l)
            if np.min(np.diff(s.eigenvalues)) < 1e-6:
                continue
            x1 = igft(s, rng.uniform(0.5, 1.5, 8))  # full spectral support
            x2 = rng.standard_normal(8)
            fit = fit_continuous_filter([l.matrix], x1, x2, b=7)
            oracle = float(gft(s, x2)[0] ** 2)  # unmatchable DC energy
            assert fit.residual == pytest.approx(oracle, abs=1e-5)

    def test_residual_non_increasing_in_degree(self, rng):
        mats = self._family(rng, p=2)
        x1 = rng.standard_normal(10)
        x2 = rng.standard_normal(10)
        prev = None
        for b in (1, 2, 3, 4):
            fit = fit_continuous_filter(mats, x1, x2, b=b, t_grid=5)
            if prev is not None:
                assert fit.residual <= prev + 1e-8
            prev = fit.residual

    def test_invalid_args(self, rng):
        mats = self._family(rng)
        with pytest.raises(ValueError):
            fit_continuous_filter(mats, np.zeros(10), np.zeros(10), b=0)
        with pytest.raises(ValueError):
            fit_continuous_filter(mats, np.zeros(10), np.zeros(10), b=1, t_grid=1)
