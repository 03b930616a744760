import numpy as np
import pytest

from simplexsp import (
    AnomalyVerdict,
    ComplexError,
    SimplicialComplex,
    Spectrum,
    bandpass,
    build_family,
    complex_laplacian,
    compression_error,
    compression_trials,
    denoise_best_fractions,
    denoise_labels,
    detect_anomaly,
    detection_rates,
    eigendecompose,
    generate_bandlimited_set,
    generate_smooth_signals,
    gft,
    inject_label_noise,
    perturb_node,
    planted_complex,
    two_cluster_graph,
)

from conftest import random_metric_complex


def trivial_spectrum(n):
    """Identity eigenbasis: GFT coefficients equal the raw signal."""
    return Spectrum(np.arange(n, dtype=float), np.eye(n), tuple(range(n)))


class TestCompressionError:
    def test_kept_band_zero(self, rng):
        s = eigendecompose(complex_laplacian(random_metric_complex(rng, n=10)))
        sig = s.eigenvectors[:, :3] @ rng.standard_normal((3, 4))
        assert compression_error(s, sig, 0.3) == pytest.approx(0.0, abs=1e-10)

    def test_orthogonal_unit_signal(self, rng):
        s = eigendecompose(complex_laplacian(random_metric_complex(rng, n=10)))
        sig = s.eigenvectors[:, 7]  # outside the first 30% band
        assert compression_error(s, sig, 0.3) == pytest.approx(1.0, abs=1e-10)

    def test_eigenbasis_oracle(self, rng):
        s = eigendecompose(complex_laplacian(random_metric_complex(rng, n=12)))
        sig = rng.standard_normal((12, 5))
        k = max(1, round(0.4 * 12))
        oracle = sum(
            float(np.linalg.norm(gft(s, sig[:, j])[k:])) for j in range(5)
        )
        assert compression_error(s, sig, 0.4) == pytest.approx(oracle, abs=1e-10)

    def test_non_increasing_in_r2(self, rng):
        s = eigendecompose(complex_laplacian(random_metric_complex(rng, n=15)))
        sig = rng.standard_normal((15, 3))
        errs = [compression_error(s, sig, r2) for r2 in (0.1, 0.3, 0.5, 0.8, 1.0)]
        assert all(a >= b - 1e-10 for a, b in zip(errs, errs[1:]))

    def test_empty_signals_rejected(self, rng):
        s = eigendecompose(complex_laplacian(random_metric_complex(rng, n=8)))
        with pytest.raises(ComplexError):
            compression_error(s, np.zeros((8, 0)), 0.3)


class TestGenerateBandlimited:
    def test_first_index_only_gives_constants(self, rng):
        s = eigendecompose(complex_laplacian(random_metric_complex(rng, n=20)))
        sig = generate_bandlimited_set(s, 0.01, 5, seed=3)
        assert np.abs(sig - sig.mean(axis=0)).max() < 1e-10

    def test_unit_norm(self, rng):
        s = eigendecompose(complex_laplacian(random_metric_complex(rng, n=20)))
        sig = generate_bandlimited_set(s, 0.5, 7, seed=1)
        np.testing.assert_allclose(np.linalg.norm(sig, axis=0), 1.0, atol=1e-12)

    def test_zero_compression_error_at_generating_band(self, rng):
        s = eigendecompose(complex_laplacian(random_metric_complex(rng, n=20)))
        sig = generate_bandlimited_set(s, 0.3, 6, seed=2)
        assert compression_error(s, sig, 0.3) == pytest.approx(0.0, abs=1e-8)

    def test_deterministic(self, rng):
        s = eigendecompose(complex_laplacian(random_metric_complex(rng, n=10)))
        np.testing.assert_array_equal(
            generate_bandlimited_set(s, 0.5, 3, seed=9),
            generate_bandlimited_set(s, 0.5, 3, seed=9),
        )


class TestPerturbNode:
    def test_zero_magnitude_identity(self):
        x = np.arange(5.0)
        np.testing.assert_array_equal(perturb_node(x, 2, 0.0, seed=1), x)

    def test_changes_one_entry(self, rng):
        x = rng.standard_normal(10)
        y = perturb_node(x, 4, 3.0, seed=5)
        diff = np.nonzero(y != x)[0]
        assert list(diff) == [4]
        assert abs(y[4] - x[4]) == pytest.approx(3.0)

    def test_constant_gains_high_frequency_mass(self, rng):
        s = eigendecompose(complex_laplacian(random_metric_complex(rng, n=10)))
        x = np.ones(10)
        y = perturb_node(x, 3, 2.0, seed=0)
        assert np.abs(gft(s, y)[1:]).max() > 1e-3

    def test_out_of_range_vertex(self):
        with pytest.raises(ComplexError):
            perturb_node(np.zeros(4), 4, 1.0)


class TestDetectAnomaly:
    def test_flagged_above_threshold(self):
        s = trivial_spectrum(10)
        base = np.zeros(10)
        base[9] = 1.0  # a = 1.0
        test = np.zeros(10)
        test[9] = 1.2  # b = 1.2
        v = detect_anomaly(s, [base, base, base], test, r=0.5, epsilon=0.05)
        assert (v.a, v.b, v.flagged) == (1.0, 1.2, True)

    def test_strict_inequality_at_threshold(self):
        s = trivial_spectrum(10)
        base = np.zeros(10)
        base[9] = 1.0
        test = np.zeros(10)
        test[9] = 1.05  # exactly (1 + epsilon) * a
        v = detect_anomaly(s, [base] * 3, test, r=0.5, epsilon=0.05)
        assert not v.flagged

    def test_zero_baseline_convention(self):
        s = trivial_spectrum(10)
        base = np.zeros(10)
        base[0] = 5.0  # low-frequency only: a = 0
        test = np.zeros(10)
        test[9] = 0.01
        assert detect_anomaly(s, [base] * 3, test, r=0.5, epsilon=0.05).flagged
        assert not detect_anomaly(s, [base] * 3, base, r=0.5, epsilon=0.05).flagged

    def test_b_monotone_in_magnitude(self, rng):
        x = random_metric_complex(rng, n=20, connected=True)
        s = eigendecompose(complex_laplacian(x))
        base = generate_smooth_signals(s, 3, seed=4).T
        clean = generate_smooth_signals(s, 1, seed=5)[:, 0]
        bs = []
        for mag in (10.0, 20.0, 30.0, 40.0, 50.0):
            test = perturb_node(clean, 7, mag, seed=6)
            bs.append(detect_anomaly(s, base, test, r=0.8, epsilon=0.05).b)
        assert all(x < y for x, y in zip(bs, bs[1:]))

    def _family(self, rng):
        x = random_metric_complex(rng, n=12, edge_prob=0.6, triangle_prob=1.0)
        return build_family(x.graph(), p=3, seed=0)

    def test_s1_uses_level_zero(self, rng):
        fam = self._family(rng)
        base = [rng.standard_normal(12) for _ in range(3)]
        test = rng.standard_normal(12)
        v_fam = detect_anomaly(fam, base, test, r=0.5, epsilon=0.05, strategy="S1")
        v_direct = detect_anomaly(fam.spectrum(0), base, test, r=0.5, epsilon=0.05)
        assert (v_fam.a, v_fam.b, v_fam.flagged) == (v_direct.a, v_direct.b, v_direct.flagged)
        assert v_fam.level == 0

    def test_s3_fixed_level(self, rng):
        fam = self._family(rng)
        base = [rng.standard_normal(12) for _ in range(3)]
        test = rng.standard_normal(12)
        v = detect_anomaly(fam, base, test, r=0.5, epsilon=0.05, strategy="S3", level=2)
        assert v.level == 2
        for level in (None, -1, fam.p + 1):
            with pytest.raises(ComplexError):
                detect_anomaly(fam, base, test, r=0.5, epsilon=0.05, strategy="S3", level=level)

    def test_s2_reports_per_level(self, rng):
        fam = self._family(rng)
        base = [rng.standard_normal(12) for _ in range(3)]
        test = rng.standard_normal(12)
        v = detect_anomaly(fam, base, test, r=0.5, epsilon=0.05, strategy="S2")
        assert v.flagged is None
        assert len(v.per_level) == fam.p + 1
        assert all(isinstance(u, AnomalyVerdict) for u in v.per_level)

    def test_s4_vote_rule(self, rng):
        fam = self._family(rng)
        base = [rng.standard_normal(12) for _ in range(3)]
        test = rng.standard_normal(12)
        v = detect_anomaly(fam, base, test, r=0.5, epsilon=0.05, strategy="S4")
        votes = sum(1 for u in v.per_level if u.flagged)
        need = -(-(fam.p + 1) // 3)
        assert v.flagged == (votes >= need)

    def test_unknown_strategy(self, rng):
        fam = self._family(rng)
        with pytest.raises(ComplexError):
            detect_anomaly(fam, [np.zeros(12)] * 3, np.zeros(12), 0.5, 0.05, "S9")


class TestInjectLabelNoise:
    def test_zero_fraction_rounds_to_unchanged(self):
        labels = np.array([1.0, 2.0, 1.0, 2.0] * 25)
        out = inject_label_noise(labels, 0.004, 0.0, seed=1)
        np.testing.assert_array_equal(out, labels)

    def test_infinite_snr_unchanged(self):
        labels = np.array([1.0, 2.0] * 10)
        out = inject_label_noise(labels, 0.5, np.inf, seed=1)
        np.testing.assert_array_equal(out, labels)

    def test_exact_snr_on_subset(self):
        labels = np.array([1.0, 2.0] * 500)
        out = inject_label_noise(labels, 0.6, 0.0, seed=7)
        idx = np.nonzero(out != labels)[0]
        assert len(idx) == 600
        noise_power = float(np.mean((out[idx] - labels[idx]) ** 2))
        sig_power = float(np.mean(labels[idx] ** 2))
        assert noise_power == pytest.approx(sig_power, rel=0.05)

    def test_deterministic(self):
        labels = np.array([1.0, 2.0, 3.0] * 20)
        np.testing.assert_array_equal(
            inject_label_noise(labels, 0.5, 3.0, seed=11),
            inject_label_noise(labels, 0.5, 3.0, seed=11),
        )

    def test_invalid_fraction(self):
        with pytest.raises(ComplexError):
            inject_label_noise(np.ones(10), 0.0, 0.0)


class TestDenoiseLabels:
    def test_passthrough_s_equal_one(self, rng):
        s = eigendecompose(complex_laplacian(random_metric_complex(rng, n=10)))
        labels = rng.integers(1, 4, size=10).astype(float)
        out = denoise_labels(s, labels, r=0.2, s=1.0, num_classes=3)
        np.testing.assert_array_equal(out, labels.astype(int))

    def test_constant_labels_unchanged(self, rng):
        s = eigendecompose(complex_laplacian(random_metric_complex(rng, n=10)))
        labels = np.full(10, 2.0)
        for r, sc in ((0.1, 0.9), (0.5, 0.0), (0.9, 0.5)):
            out = denoise_labels(s, labels, r=r, s=sc, num_classes=3)
            np.testing.assert_array_equal(out, 2)

    def test_never_worse_when_truth_is_constant(self, rng):
        # true labels bandlimited below the cut (constant): denoising shrinks
        # toward the mean and can only reduce the error count
        g = two_cluster_graph(50, seed=2)
        s = eigendecompose(complex_laplacian(SimplicialComplex(g.vertices, g.edges)))
        true = np.full(50, 2.0)
        for t in range(20):
            noisy = inject_label_noise(true, 0.6, 0.0, seed=t)
            base = int(np.sum(np.clip(np.rint(noisy), 1, 3) != true))
            out = denoise_labels(s, noisy, r=0.01, s=0.9, num_classes=3)
            assert int(np.sum(out != true)) <= base

    def test_flip_noise_is_preserved_at_high_s(self, rng):
        # documented limitation: +/-1 flips survive a single 0.9 attenuation
        # (the scaled deviation 0.9 stays above the 0.5 rounding boundary),
        # so the error count is unchanged rather than reduced
        g = two_cluster_graph(60, seed=1)
        s = eigendecompose(complex_laplacian(SimplicialComplex(g.vertices, g.edges)))
        true = np.array([1.0] * 30 + [2.0] * 30)
        noisy = true.copy()
        flip = np.random.default_rng(0).choice(60, size=12, replace=False)
        noisy[flip] = 3.0 - noisy[flip]
        out = denoise_labels(s, noisy, r=0.01, s=0.9, num_classes=2)
        assert int(np.sum(out != true)) == 12

    def test_improves_over_delivered_noisy_labels(self):
        # against the delivered (continuous) noisy labels the rounded,
        # smoothed output has strictly fewer wrong entries
        g = two_cluster_graph(100, seed=3)
        fam = build_family(g, p=10, seed=3)
        true = np.array([1.0] * 50 + [2.0] * 50)
        wins = 0
        for t in range(50):
            noisy = inject_label_noise(true, 0.6, 0.0, seed=900 + t)
            errors_in = int(np.sum(noisy != true))
            best = min(
                int(np.sum(denoise_labels(fam.spectrum(i), noisy, 0.01, 0.9, 2) != true))
                for i in range(fam.p + 1)
            )
            wins += best < errors_in
        assert wins >= 45

    def test_invalid_args(self, rng):
        s = eigendecompose(complex_laplacian(random_metric_complex(rng, n=8)))
        with pytest.raises(ComplexError):
            denoise_labels(s, np.ones(8), r=0.0, s=0.9)
        with pytest.raises(ComplexError):
            denoise_labels(s, np.ones(8), r=0.5, s=1.5)


class TestGenerators:
    def test_planted_fraction_extremes(self, rng):
        x = random_metric_complex(rng, n=12, edge_prob=0.7, triangle_prob=1.0)
        g = x.graph()
        from simplexsp import enumerate_candidate_triangles

        closed = enumerate_candidate_triangles(g, "closed")
        assert planted_complex(g, 0.0).simplices == frozenset()
        assert planted_complex(g, 1.0).simplices == frozenset(closed)

    def test_planted_deterministic(self, rng):
        x = random_metric_complex(rng, n=12, edge_prob=0.7, triangle_prob=1.0)
        g = x.graph()
        a = planted_complex(g, 0.5, seed=4).simplices
        b = planted_complex(g, 0.5, seed=4).simplices
        assert a == b

    def test_two_cluster_connected(self):
        from simplexsp import connected_components

        g = two_cluster_graph(40, seed=9)
        assert len(connected_components(g)) == 1

    def test_two_cluster_min_size(self):
        with pytest.raises(ComplexError):
            two_cluster_graph(3)

    def test_smooth_signals_shape_and_determinism(self, rng):
        s = eigendecompose(complex_laplacian(random_metric_complex(rng, n=15)))
        a = generate_smooth_signals(s, 4, seed=2)
        b = generate_smooth_signals(s, 4, seed=2)
        assert a.shape == (15, 4)
        np.testing.assert_array_equal(a, b)


class TestExperimentHarnesses:
    def _setup(self, rng, p=2):
        x = random_metric_complex(rng, n=12, edge_prob=0.6, triangle_prob=1.0, connected=True)
        g = x.graph()
        truth = eigendecompose(complex_laplacian(planted_complex(g, 0.5, seed=1)))
        return build_family(g, p=p, seed=0), truth

    def test_compression_trials_rows(self, rng):
        fam, truth = self._setup(rng)
        rows = compression_trials(fam, truth, 0.3, 0.2, trials=3, count=4, seed=2)
        assert [r[0] for r in rows] == [0, 1, 2]
        for trial, b, err_b, err_0 in rows:
            scored = generate_bandlimited_set(truth, 0.2, 4, 2 + 2000 + trial)
            assert 0 <= b <= fam.p
            assert err_b == compression_error(fam.spectrum(b), scored, 0.2)
            assert err_0 == compression_error(fam.spectrum(0), scored, 0.2)

    def test_compression_trials_fixed_signals_run_once(self, rng):
        fam, _ = self._setup(rng)
        sig = rng.standard_normal((12, 3))
        rows = compression_trials(fam, sig, 0.3, 0.5, trials=5, count=4)
        assert len(rows) == 1
        assert rows[0][3] == compression_error(fam.spectrum(0), sig, 0.5)

    def test_detection_rates_counts(self, rng):
        fam, truth = self._setup(rng)
        rates = detection_rates(fam, truth, [5.0, 50.0], ["S1", "S3", "S4"], 3, 0.8, 0.05, 50.0, 1)
        assert set(rates) == {(m, s) for m in (5.0, 50.0) for s in ("S1", "S3", "S4")}
        assert all(0 <= hits <= 3 for hits in rates.values())

    def test_detection_rates_reject_s2(self, rng):
        fam, truth = self._setup(rng)
        with pytest.raises(ComplexError):
            detection_rates(fam, truth, [10.0], ["S1", "S2"], 1, 0.8, 0.05, 50.0)

    def test_denoise_best_fractions_sum_to_one(self):
        g = two_cluster_graph(20, seed=3)
        fam = build_family(g, p=2, seed=3)
        labels = np.array([1.0] * 10 + [2.0] * 10)
        best = denoise_best_fractions(fam, labels, [0.0, -1.0], 4, 0.1, 0.5, 0.6, 2, seed=3)
        assert list(best) == [0.0, -1.0]
        for fractions in best.values():
            assert len(fractions) == fam.p + 1
            assert sum(fractions) == pytest.approx(1.0)
        with pytest.raises(ComplexError):
            denoise_best_fractions(fam, labels, [0.0], 0, 0.1, 0.5, 0.6, 2)
        with pytest.raises(ComplexError):
            denoise_best_fractions(fam, labels, [0.0, -1.0, 0.0], 1, 0.1, 0.5, 0.6, 2)
