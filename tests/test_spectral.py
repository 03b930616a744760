import contextlib
import itertools
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simplexsp import (
    GeneralizedLaplacian,
    NumericalError,
    SimplicialComplex,
    Spectrum,
    WeightedGraph,
    bandpass,
    build_family,
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

from simplexsp import spectral
from simplexsp.spectral import SIGN_EPS, TIE_TOL, _fix_signs
from simplexsp.tasks import two_cluster_graph

from conftest import LENGTHS, random_complexes, random_graphs, random_metric_complex, traced
from oracles import (
    commutator_norm_abs_copies,
    eigendecompose_copying,
    eigendecompose_symmetrising,
    fix_signs_loop,
)


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
            want = fix_signs_loop(vecs)  # before the call, which flips vecs itself
            got = _fix_signs(vecs)
            assert got is vecs and got.tobytes() == want.tobytes()

    def test_full_solve_peak_memory(self, rng):
        n = 400
        a = rng.standard_normal((n, n))
        m = a + a.T
        eigendecompose(m)  # the LAPACK extension allocates objects of its own
        # the eigenvectors, then |V| and its mask while the signs are fixed in
        # place; a copy of the eigenvectors to fix them in made it 3.15 n^2 doubles
        assert traced(lambda: eigendecompose(m))[1] <= 2.5 * 8 * n * n

    def test_deterministic_with_ties(self):
        # complete graph K4: eigenvalue 4 has multiplicity 3
        l = complex_laplacian(
            from_edge_list(list(itertools.combinations([1, 2, 3, 4], 2)))
        )
        s1 = eigendecompose(l)
        s2 = eigendecompose(l)
        np.testing.assert_array_equal(s1.eigenvectors, s2.eigenvectors)
        assert s1.tie_blocks == ((1, 4),)

    @pytest.mark.parametrize("upto", [None, 1])
    def test_non_finite_rejected(self, upto):
        m = np.eye(8)
        m[3, 4] = m[4, 3] = np.nan
        with pytest.raises(NumericalError):
            eigendecompose(m, upto=upto)

    def test_asymmetric_rejected(self):
        m = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(NumericalError):
            eigendecompose(m)

    @pytest.mark.parametrize("reader", [
        lambda m: poly_filter(m, [0.5], np.ones(8)),
        lambda m: commutator_norm(m, np.eye(8)),
        lambda m: commutator_norm(np.eye(8), GeneralizedLaplacian(m)),
        lambda m: fit_continuous_filter([np.eye(8), m], np.ones(8), np.ones(8), b=1),
    ], ids=["poly_filter", "commutator_norm", "commutator_norm-wrapped", "fit_continuous_filter"])
    def test_non_finite_rejected_by_every_matrix_reader(self, reader):
        m = np.eye(8)
        m[3, 4] = m[4, 3] = np.nan
        with pytest.raises(NumericalError):
            reader(m)


@st.composite
def complete_components(draw):
    """Disjoint unit-weight complete graphs: K_m has eigenvalue m (m-1 times),
    and each component adds a zero, so large tie blocks are common."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    edges, base = {}, 0
    for m in sizes:
        edges.update({e: 1.0 for e in itertools.combinations(range(base, base + m), 2)})
        base += m
    return SimplicialComplex(range(base), edges)


LAPLACIANS = st.one_of(
    random_graphs().map(lambda g: complex_laplacian(SimplicialComplex(g.vertices, g.edges))),
    random_complexes(LENGTHS).map(complex_laplacian),
    complete_components().map(complex_laplacian),
)


def k5_in_seven():
    """K5 with weights 0.01 and two isolated vertices: MRRR fails on [0, 3]."""
    idx = [0, 1, 3, 4, 6]
    m = np.zeros((7, 7))
    m[np.ix_(idx, idx)] = -0.01
    m[idx, idx] = np.nextafter(0.04, 0.0)
    return m


def k4_in_six():
    """K4 with weights just above 0.0125 and two isolated vertices: MRRR
    returns the slice [0, 3] with a residual of 8e-3 and reports no error."""
    idx = [0, 1, 4, 5]
    w = np.nextafter(0.0125, 1.0)
    m = np.zeros((6, 6))
    m[np.ix_(idx, idx)] = -w
    m[idx, idx] = 3 * w
    return m


def undecided_gap_matrix():
    """A gap of 1.1 TIE_TOL lambda_max after the lowest eigenvalue: not a tie,
    but it lies between TIE_TOL max |L_ii| and TIE_TOL ||L||_inf, which
    bound it, so the top eigenvalue decides."""
    lam = np.array([1.0, 1.0 + 55 * TIE_TOL, 2.0, 3.0, 20.0, 50.0])
    q = np.linalg.qr(np.random.default_rng(3).standard_normal((6, 6)))[0]
    m = q @ np.diag(lam) @ q.T
    m = (m + m.T) / 2
    assert np.abs(np.diag(m)).max() < 55 < np.abs(m).sum(axis=1).max()
    return m


def solve_partially():
    """Solve every slice below the order partially, however small the matrix."""
    return mock.patch.object(spectral, "PARTIAL_MAX_FRACTION", 1.0)


class TestPartialEigendecompose:
    @settings(max_examples=300, deadline=None)
    @given(LAPLACIANS, st.integers(1, 30))
    def test_matches_full_spectrum(self, l, k):
        full = eigendecompose(l)
        with solve_partially():
            part = eigendecompose(l, upto=k)
            again = eigendecompose(l, upto=k)
        n = full.n
        assert part.n == n and part.vertices == full.vertices
        if k >= n:
            # no partial solve: the full spectrum, bit for bit
            assert part.eigenvectors.tobytes() == full.eigenvectors.tobytes()
            assert part.eigenvalues.tobytes() == full.eigenvalues.tobytes()
            assert part.tie_blocks == full.tie_blocks
            return
        scale = max(1.0, np.linalg.norm(l.matrix))
        vals, vecs = part.eigenvalues, part.eigenvectors
        assert vals.shape == (k,) and vecs.shape == (n, k)
        np.testing.assert_allclose(vals, full.eigenvalues[:k], rtol=0, atol=1e-10 * scale)
        assert part.tie_blocks == tuple(
            (a, min(b, k)) for a, b in full.tie_blocks if a < k
        )
        in_block = np.zeros(k, dtype=bool)
        for (a, b), (_, b_full) in zip(part.tie_blocks, full.tie_blocks):
            in_block[a:b] = True
            # the kept block columns lie in the span of the full block
            span = full.eigenvectors[:, a:b_full]
            block = vecs[:, a:b]
            assert np.abs(block - span @ (span.T @ block)).max() < 1e-8
        # outside tie blocks a column is determined up to a perturbation
        # that grows as the gap to its neighbours shrinks
        for j in np.flatnonzero(~in_block):
            gap = np.diff(full.eigenvalues)[max(j - 1, 0):j + 1].min()
            tol = 1e-9 + 1e-13 * scale / gap
            assert np.abs(vecs[:, j] - full.eigenvectors[:, j]).max() <= tol
        assert np.abs(vecs.T @ vecs - np.eye(k)).max() < 1e-10
        assert np.linalg.norm(l.matrix @ vecs - vecs * vals) <= 1e-8 * scale
        assert again.eigenvectors.tobytes() == vecs.tobytes()
        assert again.eigenvalues.tobytes() == vals.tobytes()

    def test_wide_slice_is_the_truncated_full_solve(self, monkeypatch):
        monkeypatch.setattr(spectral, "_evr", None)  # must not be called
        l = complex_laplacian(from_edge_list(list(itertools.combinations(range(10), 2))))
        full = eigendecompose(l)
        part = eigendecompose(l, upto=2)  # 2 is not below 15 % of 10
        assert part.eigenvectors.tobytes() == full.eigenvectors[:, :2].tobytes()
        assert part.eigenvalues.tobytes() == full.eigenvalues[:2].tobytes()
        assert full.tie_blocks == ((1, 10),) and part.tie_blocks == ((1, 2),)

    @solve_partially()
    def test_block_across_the_cut_is_ordered_then_truncated(self):
        # K5: eigenvalue 5 fills columns 1..4, and upto=2 cuts through it
        l = complex_laplacian(from_edge_list(list(itertools.combinations(range(5), 2))))
        part = eigendecompose(l, upto=2)
        assert eigendecompose(l).tie_blocks == ((1, 5),)
        assert part.tie_blocks == ((1, 2),)
        # the kept column is the lexicographically first of its block
        block = eigendecompose(l, upto=4).eigenvectors[:, 1:]
        assert tuple(part.eigenvectors[:, 1]) == min(tuple(c) for c in block.T)

    @pytest.mark.parametrize("upto", [5, 50])  # below and above 15 % of the order
    def test_clipped_spectrum_owns_only_its_columns(self, upto):
        n = 100
        vecs = eigendecompose(two_cluster_graph(n).laplacian_matrix(), upto=upto).eigenvectors
        # a view of the solved columns would keep all of them alive
        assert vecs.shape == (n, upto) and vecs.base is None and vecs.nbytes == 8 * n * upto

    @solve_partially()
    def test_slice_inside_a_cluster_falls_back_to_full_solve(self):
        # three zeros, then 0.05 four times up to rounding; the tie block at
        # the cut of upto=1 widens the slice to [0, 3], where MRRR fails
        m = k5_in_seven()
        full = eigendecompose(m)
        for k in range(1, 7):
            part = eigendecompose(m, upto=k)
            np.testing.assert_allclose(part.eigenvalues, full.eigenvalues[:k], atol=1e-15)
            assert part.tie_blocks == tuple((a, min(b, k)) for a, b in full.tie_blocks if a < k)
            vecs = part.eigenvectors
            assert np.linalg.norm(m @ vecs - vecs * part.eigenvalues) < 1e-15
            assert vecs.base is None  # the fallback's n columns are not kept

    @solve_partially()
    def test_inaccurate_slice_falls_back_to_full_solve(self):
        # three zeros, then 0.05 three times; the tie block at the cut of
        # upto=1 widens the slice to [0, 3], whose vectors MRRR gets wrong
        m = k4_in_six()
        vals, vecs = spectral._evr(m, 0, 3)
        assert np.linalg.norm(m @ vecs - vecs * vals) > 1e-3
        full = eigendecompose(m)
        assert full.tie_blocks == ((0, 3), (3, 6))
        part = eigendecompose(m, upto=1)
        assert part.eigenvectors.tobytes() == full.eigenvectors[:, :1].tobytes()
        assert part.eigenvalues.tobytes() == full.eigenvalues[:1].tobytes()

    @solve_partially()
    def test_top_eigenvalue_solved_only_for_undecided_gaps(self, monkeypatch):
        calls = []
        real = spectral._evr

        def counting(sym, lo, hi, **kwargs):
            calls.append([lo, hi])
            return real(sym, lo, hi, **kwargs)

        monkeypatch.setattr(spectral, "_evr", counting)
        # gaps far above TIE_TOL ||L||_inf: no tie is possible
        eigendecompose(path_laplacian(), upto=1)
        assert calls == [[0, 1]]
        # K5's ties at the cut lie below TIE_TOL max |L_ii|: ties whatever
        # the top eigenvalue is; the slice widens to the end of the block
        calls.clear()
        eigendecompose(complex_laplacian(from_edge_list(itertools.combinations(range(5), 2))),
                       upto=2)
        assert calls == [[0, 2], [0, 4]]
        calls.clear()
        m = undecided_gap_matrix()
        part = eigendecompose(m, upto=1)
        assert calls == [[0, 1], [5, 5]]
        assert part.tie_blocks == () == eigendecompose(m).tie_blocks

    def test_upto_below_one_rejected(self):
        with pytest.raises(ValueError):
            eigendecompose(path_laplacian(), upto=0)

    @solve_partially()
    def test_transforms_bounded_by_held_columns(self, rng):
        l = random_laplacian(rng)
        s = eigendecompose(l, upto=3)
        assert s.n == l.matrix.shape[0] > 3
        np.testing.assert_array_equal(s.band_columns([1, 3]), [0, 2])
        with pytest.raises(IndexError):
            s.band_columns([4])
        with pytest.raises(IndexError):
            bandpass(s, [1, 4], np.ones(s.n))
        assert gft(s, np.ones(s.n)).shape == (3,)
        with pytest.raises(ValueError):
            gft(s, np.ones(3))  # the signal needs one entry per vertex
        assert igft(s, np.ones(3)).shape == (s.n,)
        with pytest.raises(ValueError):
            igft(s, np.ones(s.n))


@st.composite
def clustered_symmetric(draw):
    """Q diag(lambda) Q^T whose eigenvalues sit at up to three centres,
    each off its centre by 0 or by a few ulps to 1e-6: clusters of equal
    and nearly equal eigenvalues, the inputs on which MRRR can fail."""
    n = draw(st.integers(1, 12))
    centres = draw(st.lists(st.floats(-10, 10), min_size=1, max_size=3))
    offsets = st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-6])
    lam = [draw(st.sampled_from(centres)) + draw(offsets) for _ in range(n)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    m = q @ np.diag(lam) @ q.T
    return (m + m.T) / 2


SYMMETRIC = st.one_of(clustered_symmetric(), LAPLACIANS.map(lambda l: l.matrix))


def same_outcome(ours, oracle):
    """Both calls raise LinAlgError, or both return the same bits."""
    try:
        want = oracle()
    except np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError):
            ours()
        return
    got = ours()
    want = want if isinstance(want, tuple) else (want,)
    got = got if isinstance(got, tuple) else (got,)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


@st.composite
def sparse_symmetric(draw):
    """A random symmetric matrix, about 60 % of it zeros."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.4)
    return np.tril(a) + np.tril(a, -1).T


@st.composite
def nearly_symmetric(draw):
    """A symmetric matrix as it is, with one entry nudged by an ulp, or with
    -0.0 in place of zeros, on one side or both; C- or Fortran-ordered."""
    m = draw(st.one_of(SYMMETRIC, sparse_symmetric())).copy()
    n = len(m)
    kind = draw(st.sampled_from(["symmetric", "nudged", "negative-zero"]))
    if kind == "nudged":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        m[i, j] = np.nextafter(m[i, j], np.inf)
    elif kind == "negative-zero":
        both = draw(st.booleans())
        for i, j in np.argwhere(m == 0):
            if draw(st.booleans()):
                m[i, j] = -0.0
                if both:
                    m[j, i] = -0.0
    return np.asfortranarray(m) if draw(st.booleans()) else m


class TestSymmetrisation:
    @settings(max_examples=300, deadline=None)
    @given(nearly_symmetric(), st.integers(1, 30), st.booleans())
    # a 0.0 across from a -0.0: equal as floats, but solving m itself
    # changes the eigenvalue bits
    @example(np.array([[1.0, -0.0, -1.0, 0.0], [0.0, 2.1, 0.0, -2.1],
                       [-1.0, 0.0, 2.0, -1.0], [0.0, -2.1, -1.0, 3.1]]), 1, True)
    def test_matches_always_symmetrising_solver(self, m, k, partial):
        for upto in (None, k):
            with solve_partially() if partial else contextlib.nullcontext():
                try:
                    want = eigendecompose_symmetrising(m, upto)
                except NumericalError:
                    with pytest.raises(NumericalError):
                        eigendecompose(m, upto)
                    continue
                got = eigendecompose(m, upto)
            assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
            assert got.eigenvectors.tobytes() == want.eigenvectors.tobytes()
            assert got.tie_blocks == want.tie_blocks

    def test_only_asymmetric_input_is_copied(self, monkeypatch):
        m = path_laplacian().matrix
        real, solved = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: solved.append(a) or real(a))
        eigendecompose(m)
        m[0, 1] = np.nextafter(m[0, 1], 0.0)  # asymmetric within tolerance
        eigendecompose(m)
        assert solved[0] is m and solved[1] is not m


# two-cluster Laplacians of more than one row block of the tie bound
WIDE_LAPLACIANS = st.builds(lambda n, seed: two_cluster_graph(n, seed=seed).laplacian_matrix(),
                            st.integers(33, 80), st.integers(0, 1000))


def laid_out(m, layout, seed):
    """(m in one memory layout, the whole array holding it); a strided view
    sits inside a larger array of random values."""
    if layout == "C":
        x = np.array(m, order="C")
    elif layout == "F":
        x = np.array(m, order="F")
    elif layout == "read-only":
        x = np.array(m)
        x.flags.writeable = False
    else:
        whole = np.random.default_rng(seed).standard_normal((2 * len(m), 2 * len(m)))
        x = whole[::2, ::2]
        x[...] = m
        return x, whole
    return x, x


def same_bits(a, b) -> bool:
    return np.array_equal(a.view(np.int64), b.view(np.int64))


class TestInPlaceSolve:
    """The partial solve runs dsyevr in the memory of a writeable C-ordered
    matrix, or of one C-ordered copy of any other, and restores it; the
    spectrum is that of the copying solver."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(nearly_symmetric(), WIDE_LAPLACIANS),
           st.sampled_from(["C", "F", "read-only", "strided"]),
           st.integers(1, 30), st.booleans(), st.integers(0, 2**32 - 1))
    def test_matches_copying_solver_and_keeps_input(self, m, layout, k, partial, seed):
        x, whole = laid_out(m, layout, seed)
        before = whole.copy()
        for upto in (None, k):
            with solve_partially() if partial else contextlib.nullcontext():
                try:
                    want = eigendecompose_copying(x, upto)
                except NumericalError:
                    with pytest.raises(NumericalError):
                        eigendecompose(x, upto)
                    continue
                got = eigendecompose(x, upto)
            assert same_bits(got.eigenvalues, want.eigenvalues)
            assert same_bits(got.eigenvectors, want.eigenvectors)
            assert got.tie_blocks == want.tie_blocks
            assert same_bits(whole, before)

    SOLVES = pytest.mark.parametrize("case, upto, calls", [
        # MRRR fails on [0, 3]; the full solve falls back
        ("k5-in-seven", 3, [("evr", [0, 3]), ("eigh", None)]),
        # K5's cut at 2 lies inside its tie block: a wider re-solve
        ("k5", 2, [("evr", [0, 2]), ("evr", [0, 4])]),
        ("undecided-gap", 1, [("evr", [0, 1]), ("evr", [5, 5])]),
    ])

    @staticmethod
    def check_solves(monkeypatch, case, upto, calls, layout):
        m = {"k5-in-seven": k5_in_seven,
             "k5": lambda: complex_laplacian(
                 from_edge_list(itertools.combinations(range(5), 2))).matrix.copy(),
             "undecided-gap": undecided_gap_matrix}[case]()
        original = m.copy()
        x, whole = laid_out(m, layout, 0)
        before = whole.copy()
        want = eigendecompose_copying(x, upto)
        seen, solved = [], []  # solved: the matrix each call reads
        real_evr, real_eigh = spectral._evr, np.linalg.eigh

        def evr(a, lo, hi, **kwargs):
            # dsyevr gets a Fortran-ordered operand it may overwrite
            assert kwargs["overwrite_a"] and a.flags.f_contiguous
            solved.append(a.base)
            seen.append(("evr", [lo, hi], same_bits(a.T, original)))
            return real_evr(a, lo, hi, **kwargs)

        def eigh(a):
            solved.append(a)
            seen.append(("eigh", None, same_bits(a, original)))
            return real_eigh(a)

        monkeypatch.setattr(spectral, "_evr", evr)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        got = eigendecompose(x, upto)
        assert [c[:2] for c in seen] == calls and all(c[2] for c in seen)
        assert all(a is solved[0] for a in solved)
        assert (solved[0] is x) == (layout == "C")
        assert same_bits(whole, before)
        assert same_bits(got.eigenvalues, want.eigenvalues)
        assert same_bits(got.eigenvectors, want.eigenvectors)
        assert got.tie_blocks == want.tie_blocks

    @solve_partially()
    @SOLVES
    def test_every_solve_reads_the_restored_matrix(self, monkeypatch, case, upto, calls):
        # a writeable C-ordered matrix is solved in its own memory
        self.check_solves(monkeypatch, case, upto, calls, "C")

    @solve_partially()
    @pytest.mark.parametrize("layout", ["F", "read-only", "strided"])
    @SOLVES
    def test_any_other_layout_is_solved_in_one_copy(self, monkeypatch, case, upto, calls, layout):
        self.check_solves(monkeypatch, case, upto, calls, layout)

    def test_peak_memory(self):
        n = 300
        m = two_cluster_graph(n).laplacian_matrix()
        eigendecompose(m, upto=5)  # the LAPACK extension allocates objects of its own
        # beyond the input: n^2 bytes of a finiteness or symmetry mask, or the
        # tie bound's row blocks, then dsyevr's workspace; a copy of the
        # matrix for dsyevr and an n x n |m| made it 1.15 n^2 doubles
        assert traced(lambda: eigendecompose(m, upto=5))[1] <= 0.25 * 8 * n * n


class TestLapackCalls:
    """The direct LAPACK calls against scipy.linalg.eigh, which passes the
    same routines the same arguments."""

    @settings(max_examples=300, deadline=None)
    @given(SYMMETRIC, st.data())
    def test_evr_slice_and_top_match_scipy(self, m, data):
        n = len(m)
        w = data.draw(st.integers(1, n))  # w = n is the full-width slice
        same_outcome(lambda: spectral._evr(m, 0, w - 1),
                     lambda: scipy.linalg.eigh(m, subset_by_index=[0, w - 1], driver="evr"))
        same_outcome(lambda: spectral._evr(m, n - 1, n - 1, compute_v=False)[0],
                     lambda: scipy.linalg.eigh(m, eigvals_only=True,
                                               subset_by_index=[n - 1, n - 1], driver="evr"))

    @settings(max_examples=200, deadline=None)
    @given(SYMMETRIC, st.integers(0, 2**32 - 1), st.sampled_from([1e-3, 1.0, -1e-3]))
    def test_gvd_matches_scipy(self, a, seed, shift):
        # b = c c^T + shift I: positive definite for a positive shift, and
        # for the negative one when c is rank deficient or has small singular values
        n = len(a)
        c = np.random.default_rng(seed).standard_normal((n, max(1, n - 1)))
        b = c @ c.T + shift * np.eye(n)
        same_outcome(lambda: spectral._gvd_values(a, b),
                     lambda: scipy.linalg.eigh(a, b, eigvals_only=True))

    def test_k5_slice_fails_in_both(self):
        m = k5_in_seven()
        with pytest.raises(np.linalg.LinAlgError):
            scipy.linalg.eigh(m, subset_by_index=[0, 3], driver="evr")
        with pytest.raises(np.linalg.LinAlgError):
            spectral._evr(m, 0, 3)

    def test_non_positive_definite_b_fails_in_both(self):
        a, b = np.eye(3), np.diag([1.0, -1.0, 2.0])
        with pytest.raises(np.linalg.LinAlgError):
            scipy.linalg.eigh(a, b, eigvals_only=True)
        with pytest.raises(np.linalg.LinAlgError):
            spectral._gvd_values(a, b)


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


    def test_partial_spectrum_rejected(self):
        # a partial spectrum would give only the low-band part of the product
        l = two_cluster_graph(40, seed=1).laplacian_matrix()
        s = eigendecompose(l, upto=3)
        x = np.arange(1.0, s.n + 1)
        with pytest.raises(IndexError):
            convolve(s, x, x)


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

    @pytest.mark.parametrize("vertex", [-1, 3.7, 7])
    def test_unknown_positional_id_rejected(self, vertex):
        # an unlabelled spectrum's vertices are 0..n-1: no wrap-around,
        # truncation or bare IndexError
        m = np.diag([1.0, 2, 2, 2, 1]) - np.eye(5, k=1) - np.eye(5, k=-1)
        s = eigendecompose(m)
        assert s.vertices == ()
        with pytest.raises(ValueError, match=rf"\[{vertex}\] are not vertices"):
            downsample_reconstruct(s, [1, 2], [0, vertex], [1.0, 2.0])

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


TRIANGLE_AND_PENDANT = SimplicialComplex(
    range(1, 5), {(1, 2): 1.0, (1, 3): 1.0, (2, 3): 1.0, (3, 4): 1.0}, [(1, 2, 3)]
)


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

    @pytest.mark.parametrize("exponent", [-900, -500, -1, 1, 500, 900])
    def test_power_of_two_scale_keeps_bits(self, rng, exponent):
        # at 2**±500 and 2**±900 the unscaled squares and products over- or underflow
        l = random_laplacian(rng)
        m = rng.standard_normal((l.n, l.n))
        m = m + m.T
        want = commutator_norm(m, l)
        assert commutator_norm(np.ldexp(m, exponent), l) == want
        assert commutator_norm(m, np.ldexp(l.matrix, -exponent)) == want

    @settings(max_examples=200, deadline=None)
    @given(random_complexes(weight=LENGTHS), st.floats(-170.0, 200.0), st.integers(0, 2**32 - 1))
    @example(TRIANGLE_AND_PENDANT, -170.0, 0)
    @example(TRIANGLE_AND_PENDANT, 200.0, 0)
    def test_matches_abs_copy_reference_bytes(self, x, exponent, seed):
        # lengths from 1e-170 to 1e200, and a dense operand of either sign
        length = 10.0**exponent
        l_x = complex_laplacian(x).matrix * length
        l_g = x.graph().laplacian_matrix() * length
        noise = np.random.default_rng(seed).standard_normal(l_g.shape) * length
        for a, b in ((l_x, l_g), (l_g, noise), (noise, l_x)):
            want = np.float64(commutator_norm_abs_copies(a, b)).tobytes()
            assert np.float64(commutator_norm(a, b)).tobytes() == want


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
        with pytest.raises(ValueError, match="no levels"):
            fit_continuous_filter([], np.zeros(10), np.zeros(10), b=1)

    @settings(max_examples=100, deadline=None)
    @given(random_graphs(), st.integers(1, 4), st.integers(1, 2), st.integers(0, 50),
           st.integers(2, 5), st.integers(1, 3), st.integers(0, 2**32 - 1))
    @example(WeightedGraph([0, 1, 2], {(0, 1): 10.0}), 1, 1, 0, 2, 3, 3)  # singular Gram
    def test_walk_matches_copied_levels_bitwise(self, g, p, bands, seed, t_grid, b, signal_seed):
        # the walk overwrites one array at each step; the fit keeps its own copy
        fam = build_family(g, p=p, num_bands=bands, seed=seed)
        x1, x2 = np.random.default_rng(signal_seed).standard_normal((2, g.n))

        def outcome(levels):
            try:
                fit = fit_continuous_filter(levels, x1, x2, b, t_grid)
            except np.linalg.LinAlgError as exc:  # a singular Gram matrix, on both sides
                return repr(exc)
            return fit.level, fit.t, fit.coeffs.view(np.int64).tolist(), fit.residual.hex()

        assert outcome(fam.levels()) == outcome([m.copy() for m in fam.levels()])
